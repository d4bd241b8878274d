//! Pairwise reference model of the offline bottleneck-tree oracle.
//!
//! `ThroughputOracle` and `bottleneck_tree` read their routes off one row
//! tree per participant. This model reads every pair's point route instead,
//! so the two must agree bit for bit. It is shared (via `#[path]`
//! inclusion) by the `ombt` unit tests and `tests/properties.rs`; the
//! including module provides `Network`, `tcp_throughput_bps` and
//! `DATA_PACKET_BYTES` from whichever crate path it sees them under.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{tcp_throughput_bps, Network, DATA_PACKET_BYTES};

/// The pairwise reference for the bottleneck-tree oracle: the paper's §4.1
/// estimate, `min(TCP formula rate, min over links of capacity / (flows +
/// 1))`, with every route a point route from `Network::route`.
pub struct PairwiseOracle<'a> {
    net: &'a mut Network,
    flows: Vec<u32>,
}

impl PairwiseOracle<'_> {
    pub fn new(net: &mut Network) -> PairwiseOracle<'_> {
        PairwiseOracle {
            flows: vec![0; net.directed_links()],
            net,
        }
    }

    pub fn estimate_bps(&mut self, from: usize, to: usize) -> Option<f64> {
        let (fwd, rev) = (self.net.route(from, to)?, self.net.route(to, from)?);
        let (mut survive, mut fair_share, mut delay) = (1.0, f64::INFINITY, 0.0);
        for &link_id in self.net.route_links(fwd) {
            let link = self.net.link(link_id as usize);
            survive *= 1.0 - link.loss();
            delay += link.delay().as_secs_f64();
            let flows = self.flows[link_id as usize] + 1;
            fair_share = fair_share.min(link.bandwidth_bps() / flows as f64);
        }
        let mut reverse_delay = 0.0;
        for &link_id in self.net.route_links(rev) {
            reverse_delay += self.net.link(link_id as usize).delay().as_secs_f64();
        }
        let (rtt, loss) = ((delay + reverse_delay).max(1e-4), 1.0 - survive);
        let formula = if loss > 0.0 {
            tcp_throughput_bps(DATA_PACKET_BYTES as f64, rtt, loss)
        } else {
            f64::INFINITY
        };
        Some(formula.min(fair_share))
    }

    pub fn commit_flow(&mut self, from: usize, to: usize) {
        if let Some(id) = self.net.route(from, to) {
            for &link_id in self.net.route_links(id) {
                self.flows[link_id as usize] += 1;
            }
        }
    }
}

/// An estimate ordered as the greedy frontier orders it.
#[derive(PartialEq)]
struct Bps(f64);
impl Eq for Bps {}
impl PartialOrd for Bps {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bps {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The greedy OMBT construction (paper §4.1) over [`PairwiseOracle`]: pop
/// the best candidate edge, re-estimate it, and attach it unless it fell
/// behind the next one; ties go to the smallest `(from, to)`.
pub fn pairwise_bottleneck_tree(
    net: &mut Network,
    n: usize,
    max_children: usize,
) -> Vec<Option<usize>> {
    let mut oracle = PairwiseOracle::new(net);
    let (mut parents, mut in_tree, mut children) = (vec![None; n], vec![false; n], vec![0; n]);
    in_tree[0] = true;
    let mut heap = BinaryHeap::new();
    let offer = |heap: &mut BinaryHeap<_>, oracle: &mut PairwiseOracle, from, to| {
        if let Some(bps) = oracle.estimate_bps(from, to) {
            heap.push((Bps(bps), Reverse((from, to))));
        }
    };
    for to in 1..n {
        offer(&mut heap, &mut oracle, 0, to);
    }
    let mut attached = 1;
    while attached < n {
        let Some((Bps(bps), Reverse((from, to)))) = heap.pop() else {
            for parent in &mut parents[1..] {
                parent.get_or_insert(0);
            }
            break;
        };
        if in_tree[to] || children[from] >= max_children {
            continue;
        }
        let Some(current) = oracle.estimate_bps(from, to) else {
            continue;
        };
        let next_best = heap.peek().map_or(0.0, |(Bps(next), _)| *next);
        if current + 1e-6 < next_best && current + 1e-6 < bps {
            heap.push((Bps(current), Reverse((from, to))));
            continue;
        }
        (parents[to], in_tree[to]) = (Some(from), true);
        children[from] += 1;
        oracle.commit_flow(from, to);
        attached += 1;
        for next in (0..n).filter(|&next| !in_tree[next]) {
            offer(&mut heap, &mut oracle, to, next);
        }
    }
    parents
}
