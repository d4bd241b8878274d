//! Hand-crafted comparison trees (paper §4.7).
//!
//! For the PlanetLab experiment the authors compare Bullet against streaming
//! over hand-built trees: a "good" tree that places the nodes with the best
//! measured bandwidth from the source high in the tree, and a "worst" tree
//! built the opposite way. We reproduce both constructions from a per-node
//! bandwidth metric (in our harness the metric comes from the topology
//! oracle, standing in for the paper's pathload measurements).

use bullet_netsim::OverlayId;

use crate::tree::Tree;

/// Builds a complete `max_children`-ary tree whose levels are filled in the
/// order given by `order` (the first element becomes the root's first child
/// and so on). `root` must not appear in `order`.
pub fn layered_tree(root: OverlayId, order: &[OverlayId], max_children: usize) -> Tree {
    assert!(max_children > 0, "nodes need at least one child slot");
    let n = order.len() + 1;
    let mut parents: Vec<Option<OverlayId>> = vec![None; n];
    // Breadth-first parents: position i in the filled sequence (root at 0,
    // order[j] at j + 1) hangs off position (i - 1) / max_children.
    let position_of = |i: usize| -> OverlayId {
        if i == 0 {
            root
        } else {
            order[i - 1]
        }
    };
    for j in 0..order.len() {
        let i = j + 1;
        let parent_pos = (i - 1) / max_children;
        parents[order[j]] = Some(position_of(parent_pos));
    }
    Tree::from_parents(parents).expect("layered construction yields a tree")
}

/// Builds the "good" tree: nodes with the highest `bandwidth_metric` sit
/// closest to the root.
pub fn good_tree(root: OverlayId, bandwidth_metric: &[f64], max_children: usize) -> Tree {
    let order = sorted_nodes(root, bandwidth_metric, true);
    layered_tree(root, &order, max_children)
}

/// Builds the "worst" tree: nodes with the *lowest* metric sit closest to the
/// root, so every subtree is throttled by a slow interior node.
pub fn worst_tree(root: OverlayId, bandwidth_metric: &[f64], max_children: usize) -> Tree {
    let order = sorted_nodes(root, bandwidth_metric, false);
    layered_tree(root, &order, max_children)
}

fn sorted_nodes(root: OverlayId, metric: &[f64], descending: bool) -> Vec<OverlayId> {
    let mut nodes: Vec<OverlayId> = (0..metric.len()).filter(|&n| n != root).collect();
    nodes.sort_by(|&a, &b| {
        let ord = metric[a]
            .partial_cmp(&metric[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b));
        if descending {
            ord.reverse()
        } else {
            ord
        }
    });
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn good_tree_places_fast_nodes_high() {
        // Node 3 has the highest bandwidth, node 1 the lowest.
        let metric = [0.0, 1.0, 5.0, 9.0, 3.0];
        let tree = good_tree(0, &metric, 2);
        assert_eq!(tree.parent(0), None);
        // Root's children are the two fastest nodes.
        let mut top: Vec<_> = tree.children(0).to_vec();
        top.sort_unstable();
        assert_eq!(top, vec![2, 3]);
        // The slowest node is a leaf.
        assert!(tree.children(1).is_empty());
    }

    #[test]
    fn worst_tree_places_slow_nodes_high() {
        let metric = [0.0, 1.0, 5.0, 9.0, 3.0];
        let tree = worst_tree(0, &metric, 2);
        let mut top: Vec<_> = tree.children(0).to_vec();
        top.sort_unstable();
        assert_eq!(top, vec![1, 4]);
        assert!(tree.children(3).is_empty());
    }

    #[test]
    fn layered_tree_respects_degree_and_size() {
        let order: Vec<usize> = (1..40).collect();
        let tree = layered_tree(0, &order, 3);
        assert_eq!(tree.len(), 40);
        assert!(tree.max_degree() <= 3);
        assert_eq!(tree.subtree_size(0), 40);
        // A complete ternary tree over 40 nodes (1 + 3 + 9 + 27) has height 3.
        assert_eq!(tree.height(), 3);
    }

    #[test]
    fn degree_one_builds_a_chain_in_metric_order() {
        let metric = [0.0, 10.0, 30.0, 20.0];
        let tree = good_tree(0, &metric, 1);
        assert_eq!(tree.children(0), &[2]);
        assert_eq!(tree.children(2), &[3]);
        assert_eq!(tree.children(3), &[1]);
    }

    #[test]
    fn root_not_required_to_be_zero() {
        let metric = [5.0, 1.0, 2.0];
        let tree = good_tree(2, &metric, 2);
        assert_eq!(tree.parent(2), None);
        let mut top: Vec<_> = tree.children(2).to_vec();
        top.sort_unstable();
        assert_eq!(top, vec![0, 1]);
    }
}
