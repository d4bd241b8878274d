//! Per-node metrics collected by a Bullet node.
//!
//! The evaluation section plots, per node and over time, the *useful* (new)
//! data rate, the *raw* (total, including duplicates) data rate, and the
//! portion received from the node's tree parent. The harness samples these
//! cumulative counters periodically and differences them to produce the
//! bandwidth-over-time series and CDFs of the paper's figures.
//!
//! The delivery core ([`DeliveryCounters`]) is shared with the baseline
//! protocols through `bullet-telemetry`, so the experiment harness meters
//! every system through one sampler; Bullet layers its recovery-,
//! integrity- and overload-subsystem counters on top.

pub use bullet_telemetry::DeliveryCounters;

/// Cumulative counters; all byte counts refer to data packets only (control
/// traffic is accounted separately by the simulator's per-class counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BulletMetrics {
    /// The delivery core shared with every metered protocol.
    pub delivery: DeliveryCounters,
    /// Packets this node could not forward to any child (dropped ownership).
    pub orphaned_packets: u64,
    /// Packets forwarded to children (owned or extra).
    pub forwarded_packets: u64,
    /// Packets served to mesh receivers.
    pub served_packets: u64,
    /// Times this node declared its parent dead after RanSub-epoch
    /// silence and started a re-attach (§4.6 recovery subsystem).
    pub orphan_detections: u64,
    /// Re-attaches completed (a candidate accepted the `Reattach`).
    pub reattaches: u64,
    /// Cumulative microseconds spent between orphan detection and the
    /// matching re-attach acceptance (divide by `reattaches` for the mean
    /// time-to-reattach).
    pub reattach_wait_us: u64,
    /// Useful data packets that arrived (from mesh peers) while this node
    /// was orphaned — the recovery window the mesh bridged.
    pub orphan_window_packets: u64,
    /// Control RPCs (`PeeringRequest`, `Reattach`) re-sent after a
    /// timeout.
    pub control_retries: u64,
    /// Evicted-for-silence peers that were later heard from again — the
    /// liveness detector's false positives.
    pub false_positive_evictions: u64,
    /// Data packets whose carried digest was checked against the sealed
    /// block digest (always counted; verification is behaviourally inert
    /// unless the integrity layer is enabled).
    pub blocks_verified: u64,
    /// Corrupted blocks rejected on receive (integrity layer on).
    pub corrupt_blocks_rejected: u64,
    /// Corrupted blocks accepted into the working set (integrity layer
    /// off — meters how far tampered data propagates undefended).
    pub corrupt_blocks_accepted: u64,
    /// Misbehavior penalties applied to peers (corrupt blocks, stalls).
    pub health_penalties: u64,
    /// Peers quarantined after crossing the misbehavior threshold.
    pub quarantines: u64,
    /// Control messages shed by the bounded inbox (overload layer on).
    pub inbox_sheds: u64,
    /// Peering requests answered `PeeringDeferred` under pressure.
    pub joins_deferred: u64,
    /// Previously deferred peering requests that were later admitted.
    pub joins_admitted_after_defer: u64,
    /// Deepest per-window inbox backlog observed (tracked unconditionally —
    /// pure counting, so it meters unbounded growth with the layer off).
    pub peak_inbox_depth: u64,
    /// Working-set blocks evicted by the memory budget (overload layer on).
    pub working_set_evictions: u64,
    /// Mesh receivers demoted for persistently lagging reports.
    pub slow_demotions: u64,
}

impl BulletMetrics {
    /// Fraction of received data packets that were duplicates.
    pub fn duplicate_fraction(&self) -> f64 {
        self.delivery.duplicate_fraction()
    }

    /// Records the reception of a data packet.
    pub fn record_receive(&mut self, bytes: u32, from_parent: bool, duplicate: bool) {
        self.delivery.record_receive(bytes, from_parent, duplicate);
    }

    /// Folds one node's counters into an overlay-wide total: every counter
    /// sums, except the high-water mark `peak_inbox_depth`, which takes the
    /// maximum. This and the field list above are a counter's two homes —
    /// the harness carries the total whole (`RunSummary::totals`) and
    /// readers name the field — and `absorb_covers_every_field` below does
    /// not compile, or fails, when a field has no line here.
    pub fn absorb(&mut self, node: &BulletMetrics) {
        self.delivery.useful_bytes += node.delivery.useful_bytes;
        self.delivery.raw_bytes += node.delivery.raw_bytes;
        self.delivery.from_parent_bytes += node.delivery.from_parent_bytes;
        self.delivery.from_peers_bytes += node.delivery.from_peers_bytes;
        self.delivery.duplicate_packets += node.delivery.duplicate_packets;
        self.delivery.duplicate_from_parent += node.delivery.duplicate_from_parent;
        self.delivery.total_packets += node.delivery.total_packets;
        self.delivery.useful_packets += node.delivery.useful_packets;
        self.delivery.fresh_bytes += node.delivery.fresh_bytes;
        self.delivery.packets_generated += node.delivery.packets_generated;
        self.orphaned_packets += node.orphaned_packets;
        self.forwarded_packets += node.forwarded_packets;
        self.served_packets += node.served_packets;
        self.orphan_detections += node.orphan_detections;
        self.reattaches += node.reattaches;
        self.reattach_wait_us += node.reattach_wait_us;
        self.orphan_window_packets += node.orphan_window_packets;
        self.control_retries += node.control_retries;
        self.false_positive_evictions += node.false_positive_evictions;
        self.blocks_verified += node.blocks_verified;
        self.corrupt_blocks_rejected += node.corrupt_blocks_rejected;
        self.corrupt_blocks_accepted += node.corrupt_blocks_accepted;
        self.health_penalties += node.health_penalties;
        self.quarantines += node.quarantines;
        self.inbox_sheds += node.inbox_sheds;
        self.joins_deferred += node.joins_deferred;
        self.joins_admitted_after_defer += node.joins_admitted_after_defer;
        self.peak_inbox_depth = self.peak_inbox_depth.max(node.peak_inbox_depth);
        self.working_set_evictions += node.working_set_evictions;
        self.slow_demotions += node.slow_demotions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receive_accounting() {
        let mut m = BulletMetrics::default();
        m.record_receive(1_500, true, false);
        m.record_receive(1_500, false, false);
        m.record_receive(1_500, false, true);
        assert_eq!(m.delivery.useful_bytes, 3_000);
        assert_eq!(m.delivery.raw_bytes, 4_500);
        assert_eq!(m.delivery.from_parent_bytes, 1_500);
        assert_eq!(m.delivery.from_peers_bytes, 3_000);
        assert_eq!(m.delivery.duplicate_packets, 1);
        assert_eq!(m.delivery.total_packets, 3);
        assert_eq!(m.delivery.useful_packets, 2);
        assert!((m.duplicate_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_fraction_of_empty_metrics_is_zero() {
        assert_eq!(BulletMetrics::default().duplicate_fraction(), 0.0);
    }

    /// The literal names every field, so a counter added to either struct
    /// stops this test compiling until it is listed here; a listed counter
    /// with no line in `absorb` stays zero in `total` and fails the
    /// comparison.
    #[test]
    fn absorb_covers_every_field() {
        let scaled = |k: u64| BulletMetrics {
            delivery: DeliveryCounters {
                useful_bytes: k,
                raw_bytes: 2 * k,
                from_parent_bytes: 3 * k,
                from_peers_bytes: 4 * k,
                duplicate_packets: 5 * k,
                duplicate_from_parent: 6 * k,
                total_packets: 7 * k,
                useful_packets: 8 * k,
                fresh_bytes: 9 * k,
                packets_generated: 10 * k,
            },
            orphaned_packets: 11 * k,
            forwarded_packets: 12 * k,
            served_packets: 13 * k,
            orphan_detections: 14 * k,
            reattaches: 15 * k,
            reattach_wait_us: 16 * k,
            orphan_window_packets: 17 * k,
            control_retries: 18 * k,
            false_positive_evictions: 19 * k,
            blocks_verified: 20 * k,
            corrupt_blocks_rejected: 21 * k,
            corrupt_blocks_accepted: 22 * k,
            health_penalties: 23 * k,
            quarantines: 24 * k,
            inbox_sheds: 25 * k,
            joins_deferred: 26 * k,
            joins_admitted_after_defer: 27 * k,
            peak_inbox_depth: 28 * k,
            working_set_evictions: 29 * k,
            slow_demotions: 30 * k,
        };
        let node = scaled(1);
        let mut total = BulletMetrics::default();
        total.absorb(&node);
        total.absorb(&node);
        let expected = BulletMetrics {
            peak_inbox_depth: node.peak_inbox_depth,
            ..scaled(2)
        };
        assert_eq!(total, expected);
    }
}
