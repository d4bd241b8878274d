//! Physical link model.
//!
//! Each physical link is modelled as two independent directed links. A
//! directed link serializes packets at its configured bandwidth behind a
//! bounded drop-tail queue, adds a fixed propagation delay, and drops packets
//! independently at its configured random loss rate. This is the same set of
//! per-hop effects the paper's ModelNet emulators impose.

use crate::rng::SimRng;
use crate::time::{transmission_time, SimDuration, SimTime};

/// Identifier of a physical (router-level) node in the emulated topology.
pub type RouterId = usize;

/// Identifier of a directed link inside a [`crate::network::Network`].
pub type DirectedLinkId = usize;

/// The routing cost of a link with propagation delay `delay`: whole
/// microseconds, at least 1, since every search needs positive costs. The
/// routing graph stores a cost in a `u32`, so a cost above `u32::MAX`
/// (a delay beyond about 71.6 minutes) panics where a link enters it:
/// in `Adjacency::new` and `Network::set_link_delay`.
pub(crate) fn routing_cost(delay: SimDuration) -> u64 {
    delay.as_micros().max(1)
}

/// Specification of one bidirectional physical link.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: RouterId,
    /// The other endpoint.
    pub b: RouterId,
    /// Capacity in bits per second (per direction).
    pub bandwidth_bps: f64,
    /// One-way propagation delay. It is the link's routing cost in whole
    /// microseconds, which must fit in a `u32`: at most `u32::MAX` µs, about
    /// 71.6 minutes. Building a network over a longer delay, or setting one,
    /// panics.
    pub delay: SimDuration,
    /// Independent per-packet random loss probability in `[0, 1]`.
    pub loss: f64,
    /// Drop-tail queue capacity in bytes (per direction).
    pub queue_bytes: u32,
    /// Administrative state: a link that is down carries no traffic and is
    /// excluded from routing. Scenario scripts flip this to model outages.
    pub up: bool,
}

impl LinkSpec {
    /// Creates a loss-free link with a default 50 KB queue.
    pub fn new(a: RouterId, b: RouterId, bandwidth_bps: f64, delay: SimDuration) -> Self {
        LinkSpec {
            a,
            b,
            bandwidth_bps,
            delay,
            loss: 0.0,
            queue_bytes: 50_000,
            up: true,
        }
    }

    /// Sets the random loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the queue capacity in bytes.
    pub fn with_queue(mut self, queue_bytes: u32) -> Self {
        self.queue_bytes = queue_bytes;
        self
    }
}

/// What happened when a packet was offered to a directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopOutcome {
    /// The packet was accepted; it arrives at the far end at the given time.
    Arrive(SimTime),
    /// The packet was dropped because the queue was full (congestion loss).
    DroppedQueue,
    /// The packet was dropped by the random loss process.
    DroppedLoss,
    /// The packet was dropped because the link is administratively down
    /// (scenario-scripted outage).
    DroppedDown,
}

/// A directed link with live queueing state.
#[derive(Clone, Debug)]
pub struct DirectedLink {
    /// Transmitting router, at the routing graph's `u32` width.
    pub from: u32,
    /// Receiving router, at the routing graph's `u32` width.
    pub to: u32,
    /// Capacity in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Random loss probability.
    pub loss: f64,
    /// Drop-tail queue capacity in bytes; kept so capacity mutations can
    /// recompute `max_queue_delay`.
    pub queue_bytes: u32,
    /// Maximum queueing delay implied by the queue size, in simulated time.
    pub max_queue_delay: SimDuration,
    /// Administrative state (see [`LinkSpec::up`]).
    pub up: bool,
    /// Time at which the transmitter becomes idle again.
    pub busy_until: SimTime,
}

impl DirectedLink {
    /// Builds the directed link for one direction of `spec`, whose router
    /// ids the caller has checked fit in a `u32` (`Network::with_setup`
    /// checks a whole spec at once: a check per link here would keep the
    /// construction loop from being optimised).
    pub(crate) fn from_spec(spec: &LinkSpec, reverse: bool) -> Self {
        let (from, to) = if reverse {
            (spec.b, spec.a)
        } else {
            (spec.a, spec.b)
        };
        debug_assert!(from.max(to) <= u32::MAX as usize);
        let (from, to) = (from as u32, to as u32);
        DirectedLink {
            from,
            to,
            bandwidth_bps: spec.bandwidth_bps,
            delay: spec.delay,
            loss: spec.loss,
            queue_bytes: spec.queue_bytes,
            max_queue_delay: transmission_time(spec.queue_bytes, spec.bandwidth_bps),
            up: spec.up,
            busy_until: SimTime::ZERO,
        }
    }

    /// Changes the link capacity, recomputing the queueing-delay bound the
    /// drop-tail queue implies. Packets already accepted keep their old
    /// serialization schedule (`busy_until` is untouched): a capacity change
    /// affects traffic offered from that point on.
    pub fn set_bandwidth(&mut self, bandwidth_bps: f64) {
        self.bandwidth_bps = bandwidth_bps;
        self.max_queue_delay = transmission_time(self.queue_bytes, bandwidth_bps);
    }

    /// Routing cost of this link: its propagation delay in whole
    /// microseconds, at least 1.
    pub fn cost(&self) -> u64 {
        routing_cost(self.delay)
    }

    /// Offers a packet of `size_bytes` to the link at time `now`.
    ///
    /// Applies the drop-tail queue bound first (congestion loss) and then the
    /// independent random loss process, mirroring a loss that occurs on the
    /// wire after the packet left the queue.
    pub fn offer(&mut self, now: SimTime, size_bytes: u32, rng: &mut SimRng) -> HopOutcome {
        if !self.up {
            return HopOutcome::DroppedDown;
        }
        let start = self.busy_until.max(now);
        let queueing = start - now;
        if queueing > self.max_queue_delay {
            return HopOutcome::DroppedQueue;
        }
        let tx = transmission_time(size_bytes, self.bandwidth_bps);
        self.busy_until = start + tx;
        if rng.chance(self.loss) {
            return HopOutcome::DroppedLoss;
        }
        HopOutcome::Arrive(start + tx + self.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, NetworkSpec};

    fn test_link(bw: f64, queue: u32, loss: f64) -> DirectedLink {
        let spec = LinkSpec::new(0, 1, bw, SimDuration::from_millis(10))
            .with_queue(queue)
            .with_loss(loss);
        DirectedLink::from_spec(&spec, false)
    }

    /// A network of one such physical link between routers 0 and 1; its
    /// forward direction is directed link 0.
    fn test_network(bw: f64, queue: u32, loss: f64) -> Network {
        let mut spec = NetworkSpec::new(2);
        spec.add_link(
            LinkSpec::new(0, 1, bw, SimDuration::from_millis(10))
                .with_queue(queue)
                .with_loss(loss),
        );
        Network::new(&spec)
    }

    #[test]
    fn packet_arrival_includes_tx_and_propagation() {
        let mut rng = SimRng::new(1);
        let mut link = test_link(1_000_000.0, 100_000, 0.0);
        // 1500 B at 1 Mbps = 12 ms tx + 10 ms propagation.
        match link.offer(SimTime::ZERO, 1500, &mut rng) {
            HopOutcome::Arrive(t) => assert_eq!(t.as_micros(), 22_000),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut rng = SimRng::new(1);
        let mut link = test_link(1_000_000.0, 100_000, 0.0);
        let first = link.offer(SimTime::ZERO, 1500, &mut rng);
        let second = link.offer(SimTime::ZERO, 1500, &mut rng);
        match (first, second) {
            (HopOutcome::Arrive(a), HopOutcome::Arrive(b)) => {
                assert_eq!(a.as_micros(), 22_000);
                assert_eq!(b.as_micros(), 34_000);
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    #[test]
    fn queue_overflow_drops_packets() {
        let mut rng = SimRng::new(1);
        // Queue of 3000 bytes = two 1500-byte packets of queueing delay.
        let mut net = test_network(1_000_000.0, 3_000, 0.0);
        let outcomes: Vec<HopOutcome> = (0..6)
            .map(|_| net.offer_hop(SimTime::ZERO, 0, 1500, None, &mut rng))
            .collect();
        let drops = outcomes
            .iter()
            .filter(|o| matches!(o, HopOutcome::DroppedQueue))
            .count();
        assert!(drops >= 2, "expected queue drops, got {outcomes:?}");
        // A queue-dropped packet never reached the wire.
        assert_eq!(net.total_bytes_sent(), 1500 * (6 - drops as u64));
    }

    #[test]
    fn random_loss_rate_is_respected() {
        let mut rng = SimRng::new(2);
        let mut link = test_link(1e9, 10_000_000, 0.3);
        let mut lost = 0;
        for i in 0..10_000 {
            // Space offers out so the queue never fills.
            let now = SimTime::from_millis(i as u64);
            if matches!(link.offer(now, 100, &mut rng), HopOutcome::DroppedLoss) {
                lost += 1;
            }
        }
        let rate = lost as f64 / 10_000.0;
        assert!((0.27..0.33).contains(&rate), "observed loss {rate}");
    }

    #[test]
    fn down_links_drop_without_consuming_randomness() {
        let mut rng = SimRng::new(4);
        let reference = rng.clone();
        let mut net = test_network(1e6, 100_000, 0.5);
        net.set_link_up(0, false);
        for _ in 0..5 {
            assert_eq!(
                net.offer_hop(SimTime::ZERO, 0, 1000, None, &mut rng),
                HopOutcome::DroppedDown
            );
        }
        assert_eq!(net.total_bytes_sent(), 0, "a down link sends nothing");
        // The loss process must not have advanced the RNG: scripted outages
        // cannot perturb draws elsewhere in the simulation.
        let mut reference = reference;
        assert_eq!(rng.next_u64(), reference.next_u64());
        net.set_link_up(0, true);
        assert!(matches!(
            net.offer_hop(SimTime::ZERO, 0, 1000, None, &mut rng),
            HopOutcome::Arrive(_) | HopOutcome::DroppedLoss
        ));
        assert_eq!(net.total_bytes_sent(), 1000);
    }

    #[test]
    fn bandwidth_mutation_rescales_queue_bound_and_tx_time() {
        let mut rng = SimRng::new(5);
        let mut link = test_link(1_000_000.0, 3_000, 0.0);
        let before = link.max_queue_delay;
        link.set_bandwidth(2_000_000.0);
        assert_eq!(link.max_queue_delay.as_micros(), before.as_micros() / 2);
        // 1500 B at 2 Mbps = 6 ms tx + 10 ms propagation.
        match link.offer(SimTime::ZERO, 1500, &mut rng) {
            HopOutcome::Arrive(t) => assert_eq!(t.as_micros(), 16_000),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    /// A packet the loss process drops was accepted onto the wire, so its
    /// bytes count; one the queue or a down link drops does not.
    #[test]
    fn counters_track_bytes() {
        let mut rng = SimRng::new(3);
        let mut net = test_network(1e9, 1_000_000, 0.5);
        let (mut arrived, mut lost) = (0, 0);
        for i in 0..20 {
            match net.offer_hop(SimTime::from_millis(i), 0, 1000, None, &mut rng) {
                HopOutcome::Arrive(_) => arrived += 1,
                HopOutcome::DroppedLoss => lost += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(arrived > 0 && lost > 0, "{arrived} arrived, {lost} lost");
        assert_eq!(net.total_bytes_sent(), 20 * 1000);
    }
}
