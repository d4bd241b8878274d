//! The disjoint data send routine (paper §3.3, Fig. 5).
//!
//! A Bullet parent decides, per packet, which child *owns* it (so that the
//! expected number of nodes holding each packet stays uniform across packets)
//! and which other children also receive it (to soak up any spare per-child
//! bandwidth, governed by the limiting factors). Ownership targets the child
//! whose share of the stream so far is furthest below its sending factor,
//! which RanSub derives from descendant counts; the non-blocking transport's
//! accept/refuse outcome provides the feedback that adapts both ownership and
//! the limiting factors to actual available bandwidth.
//!
//! # No record of what was sent
//!
//! The sender does not remember which keys it forwarded to which child, and
//! does not need to: a node routes each sequence number at most once in its
//! lifetime. Three facts make that so. (1) `BulletNode::learn_seq` returns
//! whether its working set accepted the key, and both callers — stream
//! generation at the source and `handle_data` everywhere else — route only
//! then; the set refuses a key it holds and any key below its low watermark.
//! (2) The working set survives crash and rejoin (the rejoin's `on_start`
//! keeps it), so a restarted node still refuses what it routed before.
//! (3) Pruning only ever raises the watermark, so a key that left the set
//! can never be accepted again. Within one [`DisjointSender::route_packet`]
//! a child is offered the key a second time only after its first `try_send`
//! was *refused*.

use bullet_netsim::OverlayId;

/// Per-child state kept by the disjoint sender.
#[derive(Clone, Debug)]
pub struct ChildState {
    /// The child's overlay id.
    pub node: OverlayId,
    /// Packets this child has owned so far in the current accounting period.
    pub owned: u64,
    /// The limiting factor `lf`: the fraction of non-owned packets also
    /// forwarded to this child.
    pub limiting_factor: f64,
}

impl ChildState {
    fn new(node: OverlayId) -> Self {
        ChildState {
            node,
            owned: 0,
            limiting_factor: 1.0,
        }
    }
}

/// Result of routing one packet to the children.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteOutcome {
    /// How many children the packet was actually delivered to (`try_send`
    /// saw each of them, in send order).
    pub sent: usize,
    /// The child that ended up owning the packet, if any.
    pub owner: Option<OverlayId>,
}

/// The per-node disjoint send state machine.
#[derive(Clone, Debug)]
pub struct DisjointSender {
    children: Vec<ChildState>,
    total_owned: u64,
    /// Per-adjustment change applied to a limiting factor ("one more packet
    /// per epoch").
    lf_step: f64,
    /// When `false`, every packet is offered to every child (the
    /// non-disjoint strategy of Fig. 10).
    disjoint: bool,
}

impl DisjointSender {
    /// Creates the sender for the given children.
    ///
    /// `packets_per_epoch` sizes the limiting-factor adjustment step (the
    /// paper adjusts by one packet per epoch); `disjoint` disables the
    /// strategy entirely for the Fig. 10 comparison.
    pub fn new(children: &[OverlayId], packets_per_epoch: f64, disjoint: bool) -> Self {
        DisjointSender {
            children: children.iter().map(|&c| ChildState::new(c)).collect(),
            total_owned: 0,
            lf_step: 1.0 / packets_per_epoch.max(1.0),
            disjoint,
        }
    }

    /// Read access to the per-child state (for tests and reports).
    pub fn children(&self) -> &[ChildState] {
        &self.children
    }

    /// Routes one packet identified by `key`, which the caller has not
    /// routed before (see the module docs).
    ///
    /// `sending_factors[i]` is child `i`'s sending factor `sf_i` (from RanSub
    /// descendant counts; they should sum to 1). `try_send(child)` attempts
    /// the transmission on the child's non-blocking transport and returns
    /// whether it was accepted.
    pub fn route_packet<F>(
        &mut self,
        key: u64,
        sending_factors: &[f64],
        mut try_send: F,
    ) -> RouteOutcome
    where
        F: FnMut(OverlayId) -> bool,
    {
        let mut outcome = RouteOutcome::default();
        if self.children.is_empty() {
            return outcome;
        }
        assert_eq!(
            sending_factors.len(),
            self.children.len(),
            "one sending factor per child is required"
        );

        if !self.disjoint {
            // Non-disjoint strategy: offer the packet to every child and let
            // the transports throttle (Fig. 10).
            for child in &mut self.children {
                if try_send(child.node) {
                    outcome.sent += 1;
                    if outcome.owner.is_none() {
                        outcome.owner = Some(child.node);
                        child.owned += 1;
                        self.total_owned += 1;
                    }
                }
            }
            return outcome;
        }

        // 1. Pick the owner: the child whose owned share is furthest below
        //    its sending factor.
        let total = self.total_owned.max(1) as f64;
        let mut target_idx = 0;
        let mut best_deficit = f64::NEG_INFINITY;
        for (i, child) in self.children.iter().enumerate() {
            let share = child.owned as f64 / total;
            let deficit = sending_factors[i] - share;
            if deficit > best_deficit {
                best_deficit = deficit;
                target_idx = i;
            }
        }

        let mut sent_packet = false;
        if try_send(self.children[target_idx].node) {
            let child = &mut self.children[target_idx];
            child.owned += 1;
            self.total_owned += 1;
            outcome.sent += 1;
            outcome.owner = Some(child.node);
            sent_packet = true;
        }

        // 2. Offer the packet to the remaining children: to transfer
        //    ownership if the target could not take it, or as extra
        //    bandwidth governed by each child's limiting factor.
        for i in 0..self.children.len() {
            if i == target_idx && sent_packet {
                continue;
            }
            let lf = self.children[i].limiting_factor;
            let should_send = if !sent_packet {
                true
            } else {
                let period = (1.0 / lf.max(1e-6)).round().max(1.0) as u64;
                key.is_multiple_of(period)
            };
            if !should_send {
                continue;
            }
            let node = self.children[i].node;
            if try_send(node) {
                let was_ownership_transfer = !sent_packet;
                let child = &mut self.children[i];
                if was_ownership_transfer {
                    child.owned += 1;
                    self.total_owned += 1;
                    outcome.owner = Some(node);
                } else {
                    child.limiting_factor = (child.limiting_factor + self.lf_step).min(1.0);
                }
                outcome.sent += 1;
                sent_packet = true;
            } else if sent_packet {
                // The extra-bandwidth attempt failed: back the limiting
                // factor off by the same step.
                let child = &mut self.children[i];
                child.limiting_factor = (child.limiting_factor - self.lf_step).max(self.lf_step);
            }
        }
        outcome
    }

    /// Overwrites `factors` with equal sending factors, used before RanSub
    /// has reported descendant counts.
    pub fn equal_factors(&self, factors: &mut Vec<f64>) {
        let n = self.children.len();
        factors.clear();
        factors.resize(n, 1.0 / n.max(1) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Runs `packets` keys through the sender with per-child acceptance
    /// capacity (in packets); returns packets delivered per child.
    fn run(
        sender: &mut DisjointSender,
        factors: &[f64],
        packets: u64,
        capacity: &HashMap<OverlayId, u64>,
    ) -> HashMap<OverlayId, u64> {
        let mut delivered: HashMap<OverlayId, u64> = HashMap::new();
        let mut used: HashMap<OverlayId, u64> = HashMap::new();
        for key in 0..packets {
            sender.route_packet(key, factors, |child| {
                let cap = capacity.get(&child).copied().unwrap_or(u64::MAX);
                let u = used.entry(child).or_insert(0);
                if *u < cap {
                    *u += 1;
                    *delivered.entry(child).or_insert(0) += 1;
                    true
                } else {
                    false
                }
            });
        }
        delivered
    }

    #[test]
    fn ample_bandwidth_sends_everything_to_everyone() {
        let mut sender = DisjointSender::new(&[1, 2], 250.0, true);
        let capacity = HashMap::new();
        let delivered = run(&mut sender, &[0.5, 0.5], 500, &capacity);
        // Limiting factors start at 1.0 and never get decreased, so both
        // children receive the entire stream.
        assert_eq!(delivered[&1], 500);
        assert_eq!(delivered[&2], 500);
    }

    #[test]
    fn constrained_children_receive_disjoint_shares() {
        let mut sender = DisjointSender::new(&[1, 2], 250.0, true);
        // Each child can only take half the stream.
        let capacity: HashMap<OverlayId, u64> = [(1, 250), (2, 250)].into_iter().collect();
        let delivered = run(&mut sender, &[0.5, 0.5], 500, &capacity);
        assert_eq!(delivered[&1] + delivered[&2], 500);
        // Each child got roughly its owned half, not the full stream.
        assert!(delivered[&1] <= 250 && delivered[&2] <= 250);
        // Ownership is split evenly.
        let owned: Vec<u64> = sender.children().iter().map(|c| c.owned).collect();
        assert!(
            (owned[0] as i64 - owned[1] as i64).abs() < 50,
            "owned {owned:?}"
        );
    }

    #[test]
    fn sending_factors_bias_ownership_toward_larger_subtrees() {
        let mut sender = DisjointSender::new(&[1, 2], 250.0, true);
        let capacity: HashMap<OverlayId, u64> = [(1, 400), (2, 400)].into_iter().collect();
        // Child 1 represents 3/4 of the descendants.
        run(&mut sender, &[0.75, 0.25], 400, &capacity);
        let owned: Vec<u64> = sender.children().iter().map(|c| c.owned).collect();
        assert!(
            owned[0] > owned[1] * 2,
            "expected ownership skew toward the larger subtree, got {owned:?}"
        );
    }

    #[test]
    fn ownership_transfers_when_the_target_is_saturated() {
        let mut sender = DisjointSender::new(&[1, 2], 250.0, true);
        // Child 1 can accept almost nothing.
        let capacity: HashMap<OverlayId, u64> = [(1, 5), (2, 1_000)].into_iter().collect();
        let delivered = run(&mut sender, &[0.5, 0.5], 300, &capacity);
        assert_eq!(delivered[&1], 5);
        assert!(delivered[&2] >= 295, "child 2 should own the remainder");
        let owned: Vec<u64> = sender.children().iter().map(|c| c.owned).collect();
        assert_eq!(owned[0] + owned[1], 300);
    }

    #[test]
    fn limiting_factor_decreases_under_saturation() {
        // Child 1 owns most of the stream (large subtree) and has ample
        // bandwidth; child 2 can only take 20 packets, so the extra
        // (non-owned) sends to it fail and its limiting factor backs off.
        let mut sender = DisjointSender::new(&[1, 2], 100.0, true);
        let capacity: HashMap<OverlayId, u64> = [(2, 20)].into_iter().collect();
        let delivered = run(&mut sender, &[0.9, 0.1], 200, &capacity);
        let constrained = &sender.children()[1];
        assert!(
            constrained.limiting_factor < 1.0,
            "limiting factor should have backed off, still {}",
            constrained.limiting_factor
        );
        assert_eq!(delivered[&2], 20);
        assert_eq!(delivered[&1], 200);
    }

    #[test]
    fn nondisjoint_mode_sends_duplicates_to_all() {
        let mut sender = DisjointSender::new(&[1, 2, 3], 250.0, false);
        let capacity = HashMap::new();
        let delivered = run(&mut sender, &[1.0 / 3.0; 3], 100, &capacity);
        assert_eq!(delivered[&1], 100);
        assert_eq!(delivered[&2], 100);
        assert_eq!(delivered[&3], 100);
    }

    #[test]
    fn no_children_is_a_no_op() {
        let mut sender = DisjointSender::new(&[], 250.0, true);
        let outcome = sender.route_packet(1, &[], |_| true);
        assert_eq!(outcome, RouteOutcome::default());
        assert!(sender.children().is_empty());
    }

    #[test]
    fn orphaned_packets_report_no_owner() {
        let mut sender = DisjointSender::new(&[1, 2], 250.0, true);
        let outcome = sender.route_packet(7, &[0.5, 0.5], |_| false);
        assert_eq!(outcome.owner, None);
        assert_eq!(outcome.sent, 0);
    }
}
