//! The offline greedy Overlay Maximum Bottleneck Tree (paper §4.1).
//!
//! Given complete knowledge of the topology (link bandwidths, loss rates, and
//! propagation delays) the algorithm greedily grows a tree from the source,
//! always attaching the outside node reachable through the overlay link with
//! the highest estimated throughput. Overlay link throughput is estimated as
//! the minimum of the TCP steady-state rate for the path's RTT and loss, and
//! the fair share of every physical link on the path given the tree flows
//! already routed across it. The paper uses this tree as the strongest
//! tree-based competitor to Bullet; it is explicitly an oracle (it needs
//! global topology information no online protocol has).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bullet_netsim::{Network, OverlayId};
use bullet_transport::{tcp_throughput_bps, DATA_PACKET_BYTES};

use crate::tree::Tree;

/// Configuration of the greedy OMBT construction. The TCP steady-state
/// formula uses the streams' packet size, [`DATA_PACKET_BYTES`].
#[derive(Clone, Copy, Debug)]
pub struct OmbtConfig {
    /// Maximum children per node (degree constraint).
    pub max_children: usize,
}

impl Default for OmbtConfig {
    fn default() -> Self {
        OmbtConfig { max_children: 10 }
    }
}

/// A candidate overlay edge in the greedy frontier.
struct Candidate {
    throughput_bps: f64,
    from: OverlayId,
    to: OverlayId,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.throughput_bps == other.throughput_bps
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.throughput_bps
            .partial_cmp(&other.throughput_bps)
            .unwrap_or(Ordering::Equal)
            .then_with(|| (other.from, other.to).cmp(&(self.from, self.to)))
    }
}

/// How a [`ThroughputOracle`] acquires the unicast routes it inspects.
///
/// Both strategies return the same canonical paths (the guarantee lives in
/// `bullet_netsim::routing`), so the trees built on top of them are
/// bit-identical; they differ only in how much search work a cache-missing
/// pair costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OracleStrategy {
    /// One point-to-point computation per (source, destination) pair: the
    /// reference the batched-vs-pairwise tree equivalence property compares
    /// against.
    Pairwise,
    /// Batched one-to-many queries: the first miss on a source's row fills
    /// the network's flat participant route table with a single forward
    /// search ([`Network::route_all_from`]). Tree constructions evaluate a
    /// candidate source against many destinations (and, over their run, the
    /// reverse pair of every participant), so this turns their
    /// O(participants²) point searches into O(participants) batched ones.
    #[default]
    Batched,
}

/// Oracle estimator for overlay link throughput.
pub struct ThroughputOracle<'a> {
    net: &'a mut Network,
    /// Number of tree flows currently routed over each directed link,
    /// indexed by link id.
    flows: Vec<u32>,
    strategy: OracleStrategy,
}

impl<'a> ThroughputOracle<'a> {
    /// Creates an oracle over the given network with the default
    /// ([`OracleStrategy::Batched`]) route acquisition.
    pub fn new(net: &'a mut Network) -> Self {
        Self::with_strategy(net, OracleStrategy::default())
    }

    /// Creates an oracle with an explicit route-acquisition strategy.
    pub fn with_strategy(net: &'a mut Network, strategy: OracleStrategy) -> Self {
        ThroughputOracle {
            flows: vec![0; net.links().len()],
            net,
            strategy,
        }
    }

    fn route(&mut self, from: OverlayId, to: OverlayId) -> Option<bullet_netsim::RouteId> {
        match self.strategy {
            OracleStrategy::Pairwise => self.net.route(from, to),
            OracleStrategy::Batched => self.net.route_batched(from, to),
        }
    }

    /// Estimates the throughput (bits/second) of the overlay link
    /// `from -> to` under the current tree flows, per the paper's §4.1 model:
    /// `min(formula rate, min over links of capacity / (flows + 1))`.
    pub fn estimate_bps(&mut self, from: OverlayId, to: OverlayId) -> Option<f64> {
        let fwd = self.route(from, to)?;
        let rev = self.route(to, from)?;
        let mut loss_survive = 1.0;
        let mut fair_share = f64::INFINITY;
        let mut delay = 0.0;
        for &link_id in self.net.route_links(fwd) {
            let link = self.net.link(link_id);
            loss_survive *= 1.0 - link.loss;
            delay += link.delay.as_secs_f64();
            fair_share = fair_share.min(link.bandwidth_bps / (self.flows[link_id] + 1) as f64);
        }
        let mut reverse_delay = 0.0;
        for &link_id in self.net.route_links(rev) {
            reverse_delay += self.net.link(link_id).delay.as_secs_f64();
        }
        let rtt = (delay + reverse_delay).max(1e-4);
        let loss = 1.0 - loss_survive;
        let formula = if loss > 0.0 {
            tcp_throughput_bps(DATA_PACKET_BYTES as f64, rtt, loss)
        } else {
            f64::INFINITY
        };
        Some(formula.min(fair_share))
    }

    /// Marks the overlay link `from -> to` as carrying one more tree flow.
    pub fn commit_flow(&mut self, from: OverlayId, to: OverlayId) {
        let Some(id) = self.route(from, to) else {
            return;
        };
        for &link_id in self.net.route_links(id) {
            self.flows[link_id] += 1;
        }
    }
}

/// Builds the greedy offline bottleneck-bandwidth tree over `participants`
/// overlay nodes rooted at `root`, batching its candidate-evaluation rounds
/// through the network's one-to-many query path.
pub fn bottleneck_tree(
    net: &mut Network,
    participants: usize,
    root: OverlayId,
    config: &OmbtConfig,
) -> Tree {
    bottleneck_tree_with(net, participants, root, config, OracleStrategy::default())
}

/// [`bottleneck_tree`] with an explicit [`OracleStrategy`]. Both strategies
/// build bit-identical trees; `Pairwise` is the reference the equivalence
/// property compares against.
pub fn bottleneck_tree_with(
    net: &mut Network,
    participants: usize,
    root: OverlayId,
    config: &OmbtConfig,
    strategy: OracleStrategy,
) -> Tree {
    assert!(participants > 0, "need at least one participant");
    assert!(root < participants, "root out of range");
    let mut oracle = ThroughputOracle::with_strategy(net, strategy);
    let mut parents: Vec<Option<OverlayId>> = vec![None; participants];
    let mut in_tree = vec![false; participants];
    let mut child_count = vec![0usize; participants];
    in_tree[root] = true;

    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    for to in 0..participants {
        if to != root {
            if let Some(bps) = oracle.estimate_bps(root, to) {
                heap.push(Candidate {
                    throughput_bps: bps,
                    from: root,
                    to,
                });
            }
        }
    }

    let mut attached = 1;
    while attached < participants {
        let Some(candidate) = heap.pop() else {
            // Disconnected participants: attach them directly to the root so
            // the result is still a valid tree.
            for (node, parent) in parents.iter_mut().enumerate() {
                if node != root && parent.is_none() {
                    *parent = Some(root);
                }
            }
            break;
        };
        if in_tree[candidate.to] || child_count[candidate.from] >= config.max_children {
            continue;
        }
        // Lazy re-evaluation: the fair shares may have changed since the
        // candidate was pushed. Recompute; if it is no longer competitive,
        // push the refreshed value back instead of accepting it.
        let Some(current) = oracle.estimate_bps(candidate.from, candidate.to) else {
            continue;
        };
        let next_best = heap.peek().map(|c| c.throughput_bps).unwrap_or(0.0);
        if current + 1e-6 < next_best && current + 1e-6 < candidate.throughput_bps {
            heap.push(Candidate {
                throughput_bps: current,
                from: candidate.from,
                to: candidate.to,
            });
            continue;
        }
        // Accept.
        parents[candidate.to] = Some(candidate.from);
        in_tree[candidate.to] = true;
        child_count[candidate.from] += 1;
        oracle.commit_flow(candidate.from, candidate.to);
        attached += 1;
        for to in (0..participants).filter(|&to| !in_tree[to]) {
            if let Some(bps) = oracle.estimate_bps(candidate.to, to) {
                heap.push(Candidate {
                    throughput_bps: bps,
                    from: candidate.to,
                    to,
                });
            }
        }
    }

    Tree::from_parents(parents).expect("greedy construction yields a tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_netsim::{LinkSpec, NetworkSpec, SimDuration};

    /// Star of routers around one hub; participant i attaches to router i+1
    /// whose access link bandwidth is `bw[i]`.
    fn star(bw: &[f64]) -> NetworkSpec {
        let mut spec = NetworkSpec::new(bw.len() + 1);
        for (i, &b) in bw.iter().enumerate() {
            spec.add_link(LinkSpec::new(0, i + 1, b, SimDuration::from_millis(10)));
            spec.attach(i + 1);
        }
        spec
    }

    #[test]
    fn prefers_high_bandwidth_interior_nodes() {
        // Participant 0 is the source (fast access). Participant 1 is fast,
        // participant 2 is slow. With max 1 child per node, the tree should
        // chain source -> fast -> slow, never slow -> fast.
        let spec = star(&[10e6, 10e6, 0.5e6]);
        let mut net = Network::new(&spec);
        let config = OmbtConfig { max_children: 1 };
        let tree = bottleneck_tree(&mut net, 3, 0, &config);
        assert_eq!(tree.parent(1), Some(0));
        assert_eq!(tree.parent(2), Some(1));
    }

    #[test]
    fn respects_the_degree_constraint() {
        let spec = star(&[10e6; 20]);
        let mut net = Network::new(&spec);
        let config = OmbtConfig { max_children: 3 };
        let tree = bottleneck_tree(&mut net, 20, 0, &config);
        assert!(tree.max_degree() <= 3);
        assert_eq!(tree.subtree_size(0), 20);
    }

    #[test]
    fn oracle_accounts_for_shared_bottlenecks() {
        // All participants share the hub's access links; committing flows on
        // a path must reduce the fair share reported afterwards.
        let spec = star(&[10e6, 10e6, 10e6]);
        let mut net = Network::new(&spec);
        let mut oracle = ThroughputOracle::new(&mut net);
        let before = oracle.estimate_bps(0, 1).unwrap();
        oracle.commit_flow(0, 1);
        let after = oracle.estimate_bps(0, 1).unwrap();
        assert!(
            after < before,
            "fair share should shrink: {before} -> {after}"
        );
        assert!((before / after - 2.0).abs() < 0.2);
    }

    #[test]
    fn lossy_paths_are_penalized() {
        let mut spec = NetworkSpec::new(3);
        spec.add_link(LinkSpec::new(0, 1, 10e6, SimDuration::from_millis(10)));
        spec.add_link(LinkSpec::new(0, 2, 10e6, SimDuration::from_millis(10)).with_loss(0.05));
        spec.attach(0);
        spec.attach(1);
        spec.attach(2);
        let mut net = Network::new(&spec);
        let mut oracle = ThroughputOracle::new(&mut net);
        let clean = oracle.estimate_bps(0, 1).unwrap();
        let lossy = oracle.estimate_bps(0, 2).unwrap();
        assert!(lossy < clean, "lossy {lossy} should be below clean {clean}");
    }

    #[test]
    fn batched_and_pairwise_strategies_build_the_same_tree() {
        let spec = star(&[10e6, 3e6, 7e6, 1e6, 12e6, 5e6, 2e6, 9e6]);
        let config = OmbtConfig { max_children: 2 };
        let batched = bottleneck_tree_with(
            &mut Network::new(&spec),
            8,
            0,
            &config,
            OracleStrategy::Batched,
        );
        let pairwise = bottleneck_tree_with(
            &mut Network::new(&spec),
            8,
            0,
            &config,
            OracleStrategy::Pairwise,
        );
        assert_eq!(batched.parents(), pairwise.parents());
    }

    #[test]
    fn batched_estimates_match_pairwise_estimates() {
        let spec = star(&[10e6, 10e6, 4e6]);
        let mut net_a = Network::new(&spec);
        let mut net_b = Network::new(&spec);
        let mut batched = ThroughputOracle::with_strategy(&mut net_a, OracleStrategy::Batched);
        let mut pairwise = ThroughputOracle::with_strategy(&mut net_b, OracleStrategy::Pairwise);
        for from in 0..3 {
            for to in 0..3 {
                if from == to {
                    continue;
                }
                assert_eq!(
                    batched.estimate_bps(from, to),
                    pairwise.estimate_bps(from, to),
                    "{from}->{to}"
                );
                batched.commit_flow(from, to);
                pairwise.commit_flow(from, to);
            }
        }
    }

    #[test]
    fn single_participant_tree_is_trivial() {
        let spec = star(&[10e6]);
        let mut net = Network::new(&spec);
        let tree = bottleneck_tree(&mut net, 1, 0, &OmbtConfig::default());
        assert_eq!(tree.len(), 1);
    }
}
