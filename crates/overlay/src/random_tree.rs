//! Degree-constrained random overlay trees.
//!
//! The paper's headline results run Bullet over a *random* tree: nodes are
//! attached in random order to a random already-joined node with spare
//! degree. Such trees are cheap to build online and make no attempt to be
//! bandwidth-aware, which is exactly why they make a good substrate for
//! showing how much bandwidth the mesh adds back.

use bullet_netsim::{OverlayId, SimRng};

use crate::tree::Tree;

/// Builds a random tree over `n` participants rooted at `root`, where no
/// node has more than `max_children` children.
///
/// # Panics
///
/// Panics if `n == 0`, `root >= n`, or `max_children == 0`.
pub fn random_tree(n: usize, root: OverlayId, max_children: usize, rng: &mut SimRng) -> Tree {
    assert!(n > 0, "cannot build an empty tree");
    assert!(root < n, "root {root} out of range for {n} participants");
    assert!(max_children > 0, "nodes must be allowed at least one child");
    let mut order: Vec<OverlayId> = (0..n).filter(|&i| i != root).collect();
    rng.shuffle(&mut order);
    let mut parents: Vec<Option<OverlayId>> = vec![None; n];
    let mut child_count = vec![0usize; n];
    // Nodes already in the tree that still have spare degree.
    let mut open: Vec<OverlayId> = vec![root];
    for node in order {
        let slot = rng.range_usize(0, open.len());
        let parent = open[slot];
        parents[node] = Some(parent);
        child_count[parent] += 1;
        if child_count[parent] >= max_children {
            open.swap_remove(slot);
        }
        open.push(node);
    }
    Tree::from_parents(parents).expect("construction preserves tree invariants")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_a_valid_tree_of_the_right_size() {
        let mut rng = SimRng::new(1);
        let tree = random_tree(100, 0, 6, &mut rng);
        assert_eq!(tree.len(), 100);
        assert_eq!(tree.parent(0), None);
        assert_eq!(tree.subtree_size(0), 100);
    }

    #[test]
    fn respects_the_degree_bound() {
        let mut rng = SimRng::new(2);
        for max_children in [1, 2, 5, 10] {
            let tree = random_tree(200, 3, max_children, &mut rng);
            assert!(tree.max_degree() <= max_children);
        }
    }

    #[test]
    fn degree_one_yields_a_chain() {
        let mut rng = SimRng::new(3);
        let tree = random_tree(50, 0, 1, &mut rng);
        assert_eq!(tree.height(), 49);
    }

    #[test]
    fn different_seeds_give_different_trees() {
        let mut a = SimRng::new(4);
        let mut b = SimRng::new(5);
        let ta = random_tree(64, 0, 4, &mut a);
        let tb = random_tree(64, 0, 4, &mut b);
        assert_ne!(ta, tb);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let ta = random_tree(64, 0, 4, &mut SimRng::new(9));
        let tb = random_tree(64, 0, 4, &mut SimRng::new(9));
        assert_eq!(ta, tb);
    }

    #[test]
    fn singleton_tree_is_just_the_root() {
        let mut rng = SimRng::new(6);
        let tree = random_tree(1, 0, 4, &mut rng);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.children(0), &[] as &[usize]);
    }

    #[test]
    fn custom_root_is_honoured() {
        let mut rng = SimRng::new(7);
        let tree = random_tree(20, 13, 3, &mut rng);
        assert_eq!(tree.parent(13), None);
        assert_eq!(tree.parent(13), None);
    }
}
