//! Physical link model.
//!
//! Each physical link is modelled as two independent directed links. A
//! directed link serializes packets at its configured bandwidth behind a
//! bounded drop-tail queue, adds a fixed propagation delay, and drops packets
//! independently at its configured random loss rate. This is the same set of
//! per-hop effects the paper's ModelNet emulators impose.
//!
//! The two directions share one [`LinkParams`]; what each direction keeps
//! for itself is a `LinkClock`: when its transmitter is idle again, and
//! whether it is up.

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

/// The parameters of one physical link, which both its directions use: a
/// [`crate::network::NetworkSetup`] builds one per [`LinkSpec`] and every
/// view of the setup shares the table until a view changes a link's
/// bandwidth, loss or delay. The live half of a directed link is its
/// `LinkClock`, one per direction in each view.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkParams {
    /// The spec's `a` endpoint, at the routing graph's `u32` width; the
    /// forward direction runs from it.
    a: u32,
    /// The spec's `b` endpoint.
    b: u32,
    /// One-way propagation delay in microseconds. It is the routing cost,
    /// which the graph holds in a `u32`, so it fits (see [`LinkSpec::delay`]).
    delay_us: u32,
    /// Drop-tail queue capacity in bytes; kept so capacity mutations can
    /// recompute `max_queue_delay`.
    queue_bytes: u32,
    /// Capacity in bits per second.
    bandwidth_bps: f64,
    /// Random loss probability.
    loss: f64,
    /// Maximum queueing delay implied by the queue size, in simulated time.
    max_queue_delay: SimDuration,
}

impl LinkParams {
    /// The parameters of `spec`, whose router ids and delay the caller has
    /// checked fit in a `u32` (`NetworkSetup::with_routing` builds the
    /// routing graph, which checks both, first).
    pub(crate) fn from_spec(spec: &LinkSpec) -> Self {
        debug_assert!(spec.a.max(spec.b) <= u32::MAX as usize);
        LinkParams {
            a: spec.a as u32,
            b: spec.b as u32,
            delay_us: delay_us(spec.delay),
            queue_bytes: spec.queue_bytes,
            bandwidth_bps: spec.bandwidth_bps,
            loss: spec.loss,
            max_queue_delay: transmission_time(spec.queue_bytes, spec.bandwidth_bps),
        }
    }

    /// Capacity in bits per second (per direction).
    pub fn bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps
    }

    /// Random loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// One-way propagation delay.
    pub fn delay(&self) -> SimDuration {
        SimDuration::from_micros(u64::from(self.delay_us))
    }

    /// The transmitting and receiving router of directed link `id`, a
    /// direction of this link: the forward one (`a` to `b`) when `id` is
    /// even, as `Network::directed_ids` numbers them.
    pub(crate) fn ends(&self, id: DirectedLinkId) -> (RouterId, RouterId) {
        let (a, b) = (self.a as RouterId, self.b as RouterId);
        if id % 2 == 1 {
            (b, a)
        } else {
            (a, b)
        }
    }

    /// Routing cost of this link: its propagation delay in whole
    /// microseconds, at least 1.
    pub(crate) fn cost(&self) -> u64 {
        routing_cost(self.delay())
    }

    /// Changes the link capacity, recomputing the queueing-delay bound the
    /// drop-tail queue implies. Packets already accepted keep their old
    /// serialization schedule (the clocks are untouched): a capacity change
    /// affects traffic offered from that point on.
    pub(crate) fn set_bandwidth(&mut self, bandwidth_bps: f64) {
        self.bandwidth_bps = bandwidth_bps;
        self.max_queue_delay = transmission_time(self.queue_bytes, bandwidth_bps);
    }

    /// Changes the random loss probability.
    pub(crate) fn set_loss(&mut self, loss: f64) {
        self.loss = loss;
    }

    /// Changes the propagation delay, which the caller has checked fits in
    /// a `u32` of microseconds.
    pub(crate) fn set_delay(&mut self, delay: SimDuration) {
        self.delay_us = delay_us(delay);
    }

    /// Offers a packet of `size_bytes` at time `now` to the direction of
    /// this link whose clock is `clock`.
    ///
    /// Applies the drop-tail queue bound first (congestion loss) and then the
    /// independent random loss process, mirroring a loss that occurs on the
    /// wire after the packet left the queue. A down direction drops the
    /// packet without drawing from `rng`.
    #[inline]
    pub(crate) fn offer(
        &self,
        clock: &mut LinkClock,
        now: SimTime,
        size_bytes: u32,
        rng: &mut SimRng,
    ) -> HopOutcome {
        let Some(busy_until) = clock.busy_until() else {
            return HopOutcome::DroppedDown;
        };
        let start = busy_until.max(now);
        let queueing = start - now;
        if queueing > self.max_queue_delay {
            return HopOutcome::DroppedQueue;
        }
        let tx = transmission_time(size_bytes, self.bandwidth_bps);
        clock.set_busy_until(start + tx);
        if rng.chance(self.loss) {
            return HopOutcome::DroppedLoss;
        }
        HopOutcome::Arrive(start + tx + self.delay())
    }
}

/// `delay` in whole microseconds, which the caller has checked fit in a
/// `u32`.
fn delay_us(delay: SimDuration) -> u32 {
    debug_assert!(delay.as_micros() <= u64::from(u32::MAX));
    delay.as_micros() as u32
}

/// The live state of one directed link in one network view, in 8 bytes:
/// the time its transmitter becomes idle again, in microseconds, and in the
/// top bit whether the link is administratively down (see [`LinkSpec::up`]).
/// A clock of 0 is an idle link that is up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LinkClock(u64);

impl LinkClock {
    /// The bit that marks a down link. No simulated time reaches it.
    const DOWN: u64 = 1 << 63;

    /// An idle link, up or down.
    pub(crate) fn new(up: bool) -> Self {
        LinkClock(if up { 0 } else { Self::DOWN })
    }

    /// Whether the link is administratively up.
    pub(crate) fn is_up(self) -> bool {
        self.0 & Self::DOWN == 0
    }

    /// Takes the link up or down; when its transmitter is idle again does
    /// not change.
    pub(crate) fn set_up(&mut self, up: bool) {
        self.0 = if up {
            self.0 & !Self::DOWN
        } else {
            self.0 | Self::DOWN
        };
    }

    /// When the transmitter is idle again, or `None` while the link is
    /// down.
    #[inline]
    fn busy_until(self) -> Option<SimTime> {
        self.is_up().then_some(SimTime::from_micros(self.0))
    }

    /// Sets when the transmitter of an up link is idle again.
    #[inline]
    fn set_busy_until(&mut self, at: SimTime) {
        debug_assert!(self.is_up() && at.as_micros() < Self::DOWN);
        self.0 = at.as_micros();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, NetworkSpec};

    /// The parameters of a 10 ms link from router 0 to router 1, and an
    /// idle clock for one of its directions.
    fn test_link(bw: f64, queue: u32, loss: f64) -> (LinkParams, LinkClock) {
        let spec = LinkSpec::new(0, 1, bw, SimDuration::from_millis(10))
            .with_queue(queue)
            .with_loss(loss);
        (LinkParams::from_spec(&spec), LinkClock::new(true))
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
        let (link, mut clock) = test_link(1_000_000.0, 100_000, 0.0);
        // 1500 B at 1 Mbps = 12 ms tx + 10 ms propagation.
        match link.offer(&mut clock, SimTime::ZERO, 1500, &mut rng) {
            HopOutcome::Arrive(t) => assert_eq!(t.as_micros(), 22_000),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut rng = SimRng::new(1);
        let (link, mut clock) = test_link(1_000_000.0, 100_000, 0.0);
        let first = link.offer(&mut clock, SimTime::ZERO, 1500, &mut rng);
        let second = link.offer(&mut clock, SimTime::ZERO, 1500, &mut rng);
        match (first, second) {
            (HopOutcome::Arrive(a), HopOutcome::Arrive(b)) => {
                assert_eq!(a.as_micros(), 22_000);
                assert_eq!(b.as_micros(), 34_000);
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    /// Taking a direction down and up again leaves its transmitter's
    /// schedule as it was: the clock keeps `busy_until` beside the down bit.
    #[test]
    fn a_down_spell_keeps_the_transmitter_schedule() {
        let mut rng = SimRng::new(1);
        let (link, mut clock) = test_link(1_000_000.0, 100_000, 0.0);
        link.offer(&mut clock, SimTime::ZERO, 1500, &mut rng);
        clock.set_up(false);
        assert!(!clock.is_up());
        let down = link.offer(&mut clock, SimTime::ZERO, 1500, &mut rng);
        assert_eq!(down, HopOutcome::DroppedDown);
        clock.set_up(true);
        // Queued behind the first packet's 12 ms: 24 ms tx + 10 ms.
        let after = link.offer(&mut clock, SimTime::ZERO, 1500, &mut rng);
        assert_eq!(after, HopOutcome::Arrive(SimTime::from_micros(34_000)));
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
        let (link, mut clock) = test_link(1e9, 10_000_000, 0.3);
        let mut lost = 0;
        for i in 0..10_000 {
            // Space offers out so the queue never fills.
            let now = SimTime::from_millis(i as u64);
            if matches!(
                link.offer(&mut clock, now, 100, &mut rng),
                HopOutcome::DroppedLoss
            ) {
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
        let (mut link, mut clock) = test_link(1_000_000.0, 3_000, 0.0);
        let before = link.max_queue_delay;
        link.set_bandwidth(2_000_000.0);
        assert_eq!(link.max_queue_delay.as_micros(), before.as_micros() / 2);
        // 1500 B at 2 Mbps = 6 ms tx + 10 ms propagation.
        match link.offer(&mut clock, SimTime::ZERO, 1500, &mut rng) {
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
