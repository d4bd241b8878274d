//! The shared per-node delivery counters.
//!
//! The evaluation section plots, per node and over time, the *useful*
//! (new) data rate, the *raw* (total, including duplicates) data rate,
//! and the portion received from the node's tree parent. Bullet and every
//! baseline protocol keep the same cumulative counters so the experiment
//! harness can difference them into identical bandwidth-over-time series;
//! this struct is that common core (Bullet embeds it and adds its
//! recovery/integrity counters on top, the baselines use it as-is).

/// Cumulative per-node delivery counters; all byte counts refer to data
/// packets only (control traffic is accounted separately by the
/// simulator's per-class counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryCounters {
    /// Bytes of data received for the first time (the "useful total").
    pub useful_bytes: u64,
    /// Bytes of data received in total, including duplicates (the "raw
    /// total").
    pub raw_bytes: u64,
    /// Bytes of data received from the tree parent (zero for protocols
    /// without a tree).
    pub from_parent_bytes: u64,
    /// Bytes of data received from non-parent peers (useful or not).
    pub from_peers_bytes: u64,
    /// Data packets received more than once.
    pub duplicate_packets: u64,
    /// Duplicates that arrived from the tree parent (relays of recovered
    /// packets down the tree, the source the paper calls out in §3.2).
    pub duplicate_from_parent: u64,
    /// Data packets received in total.
    pub total_packets: u64,
    /// Distinct sequence numbers received.
    pub useful_packets: u64,
    /// Useful bytes that additionally arrived within the protocol's
    /// freshness deadline of their generation at the source — the
    /// *timely* goodput a live playout can actually use. Protocols that
    /// do not track block age leave this equal to [`useful_bytes`]
    /// (every first delivery counted as timely).
    ///
    /// [`useful_bytes`]: DeliveryCounters::useful_bytes
    pub fresh_bytes: u64,
    /// Packets generated (source only).
    pub packets_generated: u64,
}

impl DeliveryCounters {
    /// Fraction of received data packets that were duplicates.
    pub fn duplicate_fraction(&self) -> f64 {
        if self.total_packets == 0 {
            0.0
        } else {
            self.duplicate_packets as f64 / self.total_packets as f64
        }
    }

    /// Records the reception of a data packet. First deliveries are
    /// counted as timely ([`fresh_bytes`]); a protocol that tracks block
    /// age calls [`record_stale`] afterwards for first deliveries that
    /// missed its freshness deadline.
    ///
    /// [`fresh_bytes`]: DeliveryCounters::fresh_bytes
    /// [`record_stale`]: DeliveryCounters::record_stale
    pub fn record_receive(&mut self, bytes: u32, from_parent: bool, duplicate: bool) {
        self.record_arrival(bytes, from_parent);
        if duplicate {
            self.duplicate_packets += 1;
            if from_parent {
                self.duplicate_from_parent += 1;
            }
        } else {
            self.useful_bytes += bytes as u64;
            self.useful_packets += 1;
            self.fresh_bytes += bytes as u64;
        }
    }

    /// Records the arrival of a data packet, new or not: the raw and total
    /// counts and the from-parent or from-peers bytes. This is the first
    /// half of [`record_receive`](DeliveryCounters::record_receive); a
    /// protocol that rejects a packet before judging it new (Bullet's
    /// integrity layer) records only this half.
    pub fn record_arrival(&mut self, bytes: u32, from_parent: bool) {
        self.raw_bytes += bytes as u64;
        self.total_packets += 1;
        if from_parent {
            self.from_parent_bytes += bytes as u64;
        } else {
            self.from_peers_bytes += bytes as u64;
        }
    }

    /// Reclassifies a just-recorded first delivery as late: the block
    /// arrived past the protocol's freshness deadline, so a live playout
    /// cannot use it. Call immediately after the corresponding
    /// [`record_receive`](DeliveryCounters::record_receive).
    pub fn record_stale(&mut self, bytes: u32) {
        self.fresh_bytes = self.fresh_bytes.saturating_sub(bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receive_accounting() {
        let mut m = DeliveryCounters::default();
        m.record_receive(1_500, true, false);
        m.record_receive(1_500, false, false);
        m.record_receive(1_500, false, true);
        m.record_receive(1_500, true, true);
        assert_eq!(m.useful_bytes, 3_000);
        assert_eq!(m.fresh_bytes, 3_000);
        m.record_stale(1_500);
        assert_eq!(m.fresh_bytes, 1_500);
        assert_eq!(m.raw_bytes, 6_000);
        assert_eq!(m.from_parent_bytes, 3_000);
        assert_eq!(m.from_peers_bytes, 3_000);
        assert_eq!(m.duplicate_packets, 2);
        assert_eq!(m.duplicate_from_parent, 1);
        assert_eq!(m.total_packets, 4);
        assert_eq!(m.useful_packets, 2);
        assert!((m.duplicate_fraction() - 0.5).abs() < 1e-12);
    }

    /// An arrival counts what every receive counts and judges nothing: two
    /// arrivals equal two duplicate receives less their duplicate counts.
    #[test]
    fn an_arrival_is_the_first_half_of_a_receive() {
        let mut arrived = DeliveryCounters::default();
        arrived.record_arrival(1_500, true);
        arrived.record_arrival(1_500, false);
        let mut received = DeliveryCounters::default();
        received.record_receive(1_500, true, true);
        received.record_receive(1_500, false, true);
        let expected = DeliveryCounters {
            duplicate_packets: 0,
            duplicate_from_parent: 0,
            ..received
        };
        assert_eq!(arrived, expected);
        assert_eq!(arrived.raw_bytes, 3_000);
    }

    #[test]
    fn duplicate_fraction_of_empty_counters_is_zero() {
        assert_eq!(DeliveryCounters::default().duplicate_fraction(), 0.0);
    }
}
