//! Traditional tree streaming (paper §4.2, Fig. 6).
//!
//! The source streams every packet to all of its children; each interior node
//! forwards every packet it receives to all of its own children. TFRC
//! throttles each child link independently, so bandwidth is monotonically
//! non-increasing down the tree — the limitation Bullet exists to remove.
//! This is the "streaming" comparison used against both the random tree and
//! the offline bottleneck tree.

use bullet_content::WorkingSet;
use bullet_netsim::{Agent, Context, OverlayId, SimDuration, SimTime};
use bullet_overlay::Tree;
use bullet_transport::{Connections, TfrcConfig, TfrcFeedback, TfrcHeader};

use crate::metrics::DeliveryMetrics;

/// Which transport the streaming tree uses on every overlay link: TFRC, as
/// for Bullet (§2.4), is the one there is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamTransport {
    /// TCP-friendly rate control.
    Tfrc,
}

/// Configuration of the streaming application.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Target streaming rate at the source, in bits per second.
    pub stream_rate_bps: f64,
    /// Data packet size in bytes.
    pub packet_size: u32,
    /// Time at which the source starts streaming.
    pub stream_start: SimTime,
    /// Transport used on every parent-child link. `Tfrc` is the only value;
    /// the field stays because the perf ledger's workloads set it.
    pub transport: StreamTransport,
    /// TFRC parameters.
    pub tfrc: TfrcConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        let packet_size = 1_500;
        StreamConfig {
            stream_rate_bps: 600_000.0,
            packet_size,
            stream_start: SimTime::from_secs(10),
            transport: StreamTransport::Tfrc,
            tfrc: TfrcConfig {
                packet_size,
                ..TfrcConfig::default()
            },
        }
    }
}

impl StreamConfig {
    /// Interval between packet generations at the source.
    pub fn packet_interval(&self) -> SimDuration {
        let per_sec = self.stream_rate_bps / (self.packet_size as f64 * 8.0);
        SimDuration::from_secs_f64(1.0 / per_sec.max(0.01))
    }
}

/// Wire messages of the streaming application.
#[derive(Clone, Debug)]
pub enum StreamMsg {
    /// One data packet.
    Data {
        /// TFRC transport header.
        header: TfrcHeader,
        /// Application sequence number.
        seq: u64,
    },
    /// TFRC feedback for the reverse direction of a data connection.
    Feedback(TfrcFeedback),
}

const TIMER_GENERATE: u64 = 1;

/// One node of the streaming tree.
pub struct StreamingNode {
    id: OverlayId,
    parent: Option<OverlayId>,
    children: Vec<OverlayId>,
    config: StreamConfig,
    next_seq: u64,
    /// Every sequence number delivered or generated here; never pruned.
    seen: WorkingSet,
    /// TFRC connections to the parent and the children.
    conns: Connections,
    /// Cumulative delivery counters sampled by the harness.
    pub metrics: DeliveryMetrics,
}

impl StreamingNode {
    /// Creates the streaming node for participant `id` of `tree`.
    pub fn new(id: OverlayId, tree: &Tree, config: StreamConfig) -> Self {
        StreamingNode {
            id,
            parent: tree.parent(id),
            children: tree.children(id).to_vec(),
            config,
            next_seq: 0,
            seen: WorkingSet::new(),
            conns: Connections::new(),
            metrics: DeliveryMetrics::default(),
        }
    }

    /// Whether this node is the stream source.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// The node's overlay id.
    pub fn id(&self) -> OverlayId {
        self.id
    }

    fn forward_to_children(&mut self, ctx: &mut Context<'_, StreamMsg>, seq: u64) {
        let now = ctx.now();
        let packet_size = self.config.packet_size;
        for &child in &self.children {
            if let Ok(header) = self.conns.send(child, self.config.tfrc, now, packet_size) {
                ctx.send_data(child, StreamMsg::Data { header, seq }, packet_size);
            }
        }
    }
}

impl Agent for StreamingNode {
    type Msg = StreamMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, StreamMsg>) {
        if self.is_root() {
            let delay = self.config.stream_start - ctx.now();
            ctx.set_timer(delay, TIMER_GENERATE);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, StreamMsg>, from: OverlayId, msg: StreamMsg) {
        match msg {
            StreamMsg::Data { header, seq } => {
                let size = self.config.packet_size;
                if let Some(feedback) = self.conns.receive(from, ctx.now(), header, size) {
                    ctx.send_control(from, StreamMsg::Feedback(feedback), 60);
                }
                let duplicate = !self.seen.insert(seq);
                let from_parent = Some(from) == self.parent;
                self.metrics
                    .record_receive(self.config.packet_size, from_parent, duplicate);
                if !duplicate {
                    self.forward_to_children(ctx, seq);
                }
            }
            StreamMsg::Feedback(feedback) => self.conns.feedback(from, ctx.now(), &feedback),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, StreamMsg>, tag: u64) {
        if tag == TIMER_GENERATE {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.metrics.packets_generated += 1;
            self.seen.insert(seq);
            self.forward_to_children(ctx, seq);
            ctx.set_timer(self.config.packet_interval(), TIMER_GENERATE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_netsim::{LinkSpec, NetworkSpec, Sim, SimRng};
    use bullet_overlay::random_tree;

    fn hub(n: usize, access_bps: f64) -> NetworkSpec {
        let mut spec = NetworkSpec::new(n + 1);
        for i in 0..n {
            spec.add_link(LinkSpec::new(
                n,
                i,
                access_bps,
                SimDuration::from_millis(10),
            ));
            spec.attach(i);
        }
        spec
    }

    fn run(n: usize, access_bps: f64, secs: u64) -> Sim<StreamingNode> {
        let spec = hub(n, access_bps);
        let mut rng = SimRng::new(1);
        let tree = random_tree(n, 0, 3, &mut rng);
        let config = StreamConfig {
            stream_rate_bps: 400_000.0,
            stream_start: SimTime::from_secs(2),
            ..StreamConfig::default()
        };
        let agents = (0..n)
            .map(|i| StreamingNode::new(i, &tree, config.clone()))
            .collect();
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_secs(secs));
        sim
    }

    #[test]
    fn ample_bandwidth_delivers_the_full_stream_over_tfrc() {
        let sim = run(10, 4_000_000.0, 30);
        let generated = sim.agent(0).metrics.packets_generated;
        assert!(generated > 500);
        for node in 1..10 {
            let got = sim.agent(node).metrics.useful_packets;
            assert!(
                got as f64 > generated as f64 * 0.8,
                "node {node} got {got}/{generated}"
            );
        }
    }

    #[test]
    fn constrained_interior_links_throttle_descendants() {
        // Access links at half the stream rate: children of the root get at
        // most ~half the stream, and their own children no more than that.
        let sim = run(10, 200_000.0, 30);
        let generated = sim.agent(0).metrics.packets_generated;
        for node in 1..10 {
            let got = sim.agent(node).metrics.useful_packets;
            assert!(
                (got as f64) < generated as f64 * 0.8,
                "node {node} unexpectedly received {got}/{generated}"
            );
        }
    }

    #[test]
    fn no_duplicates_in_a_tree() {
        let sim = run(10, 1_000_000.0, 20);
        for node in 0..10 {
            assert_eq!(sim.agent(node).metrics.duplicate_packets, 0);
        }
    }
}
