//! Overlay tree representation.
//!
//! Bullet layers its mesh on top of an arbitrary overlay tree; the tree is
//! used for baseline streaming and for RanSub's collect/distribute phases.
//! This module holds the tree structure itself plus the queries the rest of
//! the system needs (children, depth, subtree sizes).

use bullet_netsim::OverlayId;

/// Errors produced when constructing a [`Tree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// No node had a `None` parent.
    MissingRoot,
    /// More than one node had a `None` parent.
    MultipleRoots {
        /// The two roots found.
        roots: (OverlayId, OverlayId),
    },
    /// A parent index referred to a node outside the tree.
    ParentOutOfRange {
        /// The offending node.
        node: OverlayId,
        /// Its out-of-range parent index.
        parent: OverlayId,
    },
    /// Following parent pointers from `node` never reached the root.
    Cycle {
        /// A node on the cycle.
        node: OverlayId,
    },
}

/// A rooted overlay tree over participants `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tree {
    parents: Vec<Option<OverlayId>>,
    children: Vec<Vec<OverlayId>>,
}

impl Tree {
    /// Builds a tree from a parent array (`parents[i]` is `i`'s parent,
    /// `None` for the root). Validates that the result is a single rooted
    /// tree.
    pub fn from_parents(parents: Vec<Option<OverlayId>>) -> Result<Tree, TreeError> {
        let n = parents.len();
        let mut root = None;
        for (node, parent) in parents.iter().enumerate() {
            match parent {
                None => match root {
                    None => root = Some(node),
                    Some(existing) => {
                        return Err(TreeError::MultipleRoots {
                            roots: (existing, node),
                        })
                    }
                },
                Some(p) if *p >= n => return Err(TreeError::ParentOutOfRange { node, parent: *p }),
                Some(_) => {}
            }
        }
        let root = root.ok_or(TreeError::MissingRoot)?;
        let mut children = vec![Vec::new(); n];
        for (node, parent) in parents.iter().enumerate() {
            if let Some(p) = parent {
                children[*p].push(node);
            }
        }
        let tree = Tree { parents, children };
        // Cycle/connectivity check: every node must reach the root.
        for node in 0..n {
            let mut cur = node;
            let mut hops = 0;
            while let Some(p) = tree.parents[cur] {
                cur = p;
                hops += 1;
                if hops > n {
                    return Err(TreeError::Cycle { node });
                }
            }
            if cur != root {
                return Err(TreeError::Cycle { node });
            }
        }
        Ok(tree)
    }

    /// Number of participants in the tree.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// The parent of `node`, or `None` for the root.
    pub fn parent(&self, node: OverlayId) -> Option<OverlayId> {
        self.parents[node]
    }

    /// The children of `node`.
    pub fn children(&self, node: OverlayId) -> &[OverlayId] {
        &self.children[node]
    }

    /// Depth of `node` (the root has depth 0).
    pub fn depth(&self, node: OverlayId) -> usize {
        let mut depth = 0;
        let mut cur = node;
        while let Some(p) = self.parents[cur] {
            cur = p;
            depth += 1;
        }
        depth
    }

    /// The maximum depth over all nodes (tree height).
    pub fn height(&self) -> usize {
        (0..self.len()).map(|n| self.depth(n)).max().unwrap_or(0)
    }

    /// Number of nodes in the subtree rooted at `node` (including itself).
    pub fn subtree_size(&self, node: OverlayId) -> usize {
        let mut count = 0;
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            count += 1;
            stack.extend_from_slice(&self.children[n]);
        }
        count
    }

    /// Maximum number of children any node has (the tree's fan-out).
    pub fn max_degree(&self) -> usize {
        self.children.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Tree {
        let parents = (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        Tree::from_parents(parents).unwrap()
    }

    #[test]
    fn builds_a_simple_tree() {
        let tree = Tree::from_parents(vec![None, Some(0), Some(0), Some(1)]).unwrap();
        assert_eq!(tree.parent(0), None);
        assert_eq!(tree.children(0), &[1, 2]);
        assert_eq!(tree.parent(3), Some(1));
        assert_eq!(tree.depth(3), 2);
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.len(), 4);
    }

    #[test]
    fn rejects_missing_root() {
        let err = Tree::from_parents(vec![Some(1), Some(0)]).unwrap_err();
        assert!(matches!(
            err,
            TreeError::MissingRoot | TreeError::Cycle { .. }
        ));
    }

    #[test]
    fn rejects_multiple_roots() {
        let err = Tree::from_parents(vec![None, None]).unwrap_err();
        assert!(matches!(err, TreeError::MultipleRoots { .. }));
    }

    #[test]
    fn rejects_out_of_range_parent() {
        let err = Tree::from_parents(vec![None, Some(9)]).unwrap_err();
        assert_eq!(err, TreeError::ParentOutOfRange { node: 1, parent: 9 });
    }

    #[test]
    fn rejects_cycles() {
        let err = Tree::from_parents(vec![None, Some(2), Some(1)]).unwrap_err();
        assert!(matches!(err, TreeError::Cycle { .. }));
    }

    #[test]
    fn subtree_queries() {
        let tree = Tree::from_parents(vec![None, Some(0), Some(0), Some(1), Some(1)]).unwrap();
        assert_eq!(tree.subtree_size(1), 3);
        assert_eq!(tree.subtree_size(2), 1);
        assert_eq!(tree.children(1), &[3, 4]);
    }

    #[test]
    fn chain_metrics() {
        let tree = chain(10);
        assert_eq!(tree.height(), 9);
        assert_eq!(tree.max_degree(), 1);
    }
}
