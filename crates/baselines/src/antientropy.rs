//! Tree streaming with epidemic anti-entropy recovery (paper §4.4).
//!
//! A pbcast-style comparison: nodes receive most of their data from their
//! tree parent (plain TFRC streaming) and periodically run anti-entropy with
//! a few randomly chosen peers to repair whatever the tree dropped. Each
//! round, a node sends a digest — a Bloom filter over its working set plus
//! the sequence range it covers — to `peers_per_round` random nodes; a
//! recipient answers with packets the digest shows as missing, as fast as its
//! TFRC connection allows. As in the paper, nodes are granted full group
//! membership and the epoch is long enough (20 s) for TFRC to ramp up.

use bullet_content::{missing_keys, BloomFilter, ReconcileRequest, WorkingSet};
use bullet_netsim::{Agent, Context, OverlayId, SimDuration, SimTime};
use bullet_overlay::Tree;
use bullet_transport::{Connections, PeerTable, TfrcConfig, TfrcFeedback, TfrcHeader};

use crate::metrics::DeliveryMetrics;

/// Configuration of the anti-entropy baseline.
#[derive(Clone, Debug)]
pub struct AntiEntropyConfig {
    /// Target streaming rate at the source, in bits per second.
    pub stream_rate_bps: f64,
    /// Data packet size in bytes.
    pub packet_size: u32,
    /// Time at which the source starts streaming.
    pub stream_start: SimTime,
    /// Anti-entropy round period (paper: 20 s so TFRC can ramp up).
    pub epoch: SimDuration,
    /// Number of random peers contacted per round (paper: 5).
    pub peers_per_round: usize,
    /// Bloom filter size in bits for digests.
    pub bloom_bits: usize,
    /// Bloom filter hash count.
    pub bloom_hashes: u32,
    /// Number of recent packets kept for repair.
    pub working_set_window: usize,
    /// Maximum repair packets sent in response to one digest.
    pub repair_batch: usize,
    /// TFRC parameters for every connection.
    pub tfrc: TfrcConfig,
}

impl Default for AntiEntropyConfig {
    fn default() -> Self {
        let packet_size = 1_500;
        AntiEntropyConfig {
            stream_rate_bps: 600_000.0,
            packet_size,
            stream_start: SimTime::from_secs(10),
            epoch: SimDuration::from_secs(20),
            peers_per_round: 5,
            bloom_bits: 16_384,
            bloom_hashes: 6,
            working_set_window: 1_500,
            repair_batch: 256,
            tfrc: TfrcConfig {
                packet_size,
                ..TfrcConfig::default()
            },
        }
    }
}

impl AntiEntropyConfig {
    /// Interval between packet generations at the source.
    pub fn packet_interval(&self) -> SimDuration {
        let per_sec = self.stream_rate_bps / (self.packet_size as f64 * 8.0);
        SimDuration::from_secs_f64(1.0 / per_sec.max(0.01))
    }
}

/// Wire messages of the anti-entropy baseline.
#[derive(Clone, Debug)]
pub enum AntiEntropyMsg {
    /// A data packet (parent stream or repair).
    Data {
        /// TFRC header of the connection it travelled on.
        header: TfrcHeader,
        /// Application sequence number.
        seq: u64,
    },
    /// TFRC feedback.
    Feedback(TfrcFeedback),
    /// An anti-entropy digest: "here is what I have, send me the rest".
    Digest {
        /// Bloom filter plus range describing the sender's working set.
        request: ReconcileRequest,
    },
}

const TIMER_GENERATE: u64 = 1;
const TIMER_ANTI_ENTROPY: u64 = 2;
const TIMER_HOUSEKEEPING: u64 = 3;

/// One node running tree streaming plus anti-entropy repair.
pub struct AntiEntropyNode {
    id: OverlayId,
    parent: Option<OverlayId>,
    children: Vec<OverlayId>,
    membership: Vec<OverlayId>,
    config: AntiEntropyConfig,
    next_seq: u64,
    working_set: WorkingSet,
    conns: Connections,
    /// Keys already repaired toward a given peer this round (avoid repeats).
    repaired: PeerTable<WorkingSet>,
    /// Cumulative delivery counters.
    pub metrics: DeliveryMetrics,
}

impl AntiEntropyNode {
    /// Creates a node for participant `id` of `tree`; `participants` is the
    /// total group size (full membership is assumed, as in the paper).
    pub fn new(id: OverlayId, tree: &Tree, participants: usize, config: AntiEntropyConfig) -> Self {
        AntiEntropyNode {
            id,
            parent: tree.parent(id),
            children: tree.children(id).to_vec(),
            membership: (0..participants).filter(|&n| n != id).collect(),
            config,
            next_seq: 0,
            working_set: WorkingSet::new(),
            conns: Connections::new(),
            repaired: PeerTable::new(),
            metrics: DeliveryMetrics::default(),
        }
    }

    /// Whether this node is the stream source.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// The node's overlay id.
    pub fn id(&self) -> bullet_netsim::OverlayId {
        self.id
    }

    fn forward_to_children(&mut self, ctx: &mut Context<'_, AntiEntropyMsg>, seq: u64) {
        let now = ctx.now();
        let packet_size = self.config.packet_size;
        for &child in &self.children {
            if let Ok(header) = self.conns.send(child, self.config.tfrc, now, packet_size) {
                ctx.send_data(child, AntiEntropyMsg::Data { header, seq }, packet_size);
            }
        }
    }

    fn build_digest(&self) -> ReconcileRequest {
        let mut filter = BloomFilter::new(self.config.bloom_bits, self.config.bloom_hashes);
        for seq in self.working_set.iter() {
            filter.insert(seq);
        }
        let (low, high) = self.working_set.range();
        ReconcileRequest::new(filter, low, high.max(low), 1, 0)
    }

    fn answer_digest(
        &mut self,
        ctx: &mut Context<'_, AntiEntropyMsg>,
        from: OverlayId,
        request: &ReconcileRequest,
    ) {
        let already = self.repaired.get_or_insert_with(from, WorkingSet::new);
        let keys: Vec<u64> = missing_keys(&self.working_set, request, self.config.repair_batch * 2)
            .into_iter()
            .filter(|&k| !already.contains(k))
            .take(self.config.repair_batch)
            .collect();
        let now = ctx.now();
        let packet_size = self.config.packet_size;
        for key in keys {
            let Ok(header) = self.conns.send(from, self.config.tfrc, now, packet_size) else {
                break;
            };
            ctx.send_data(from, AntiEntropyMsg::Data { header, seq: key }, packet_size);
            already.insert(key);
        }
    }
}

impl Agent for AntiEntropyNode {
    type Msg = AntiEntropyMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, AntiEntropyMsg>) {
        if self.is_root() {
            let delay = self.config.stream_start - ctx.now();
            ctx.set_timer(delay, TIMER_GENERATE);
        }
        let jitter = self.config.epoch.mul_f64(ctx.rng().range_f64(0.5, 1.5));
        ctx.set_timer(jitter, TIMER_ANTI_ENTROPY);
        ctx.set_timer(SimDuration::from_secs(1), TIMER_HOUSEKEEPING);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, AntiEntropyMsg>,
        from: OverlayId,
        msg: AntiEntropyMsg,
    ) {
        match msg {
            AntiEntropyMsg::Data { header, seq } => {
                let size = self.config.packet_size;
                if let Some(feedback) = self.conns.receive(from, ctx.now(), header, size) {
                    ctx.send_control(from, AntiEntropyMsg::Feedback(feedback), 60);
                }
                let duplicate =
                    self.working_set.contains(seq) || seq < self.working_set.low_watermark();
                let from_parent = Some(from) == self.parent;
                self.metrics
                    .record_receive(self.config.packet_size, from_parent, duplicate);
                if !duplicate {
                    self.working_set.insert(seq);
                    self.forward_to_children(ctx, seq);
                }
            }
            AntiEntropyMsg::Feedback(feedback) => self.conns.feedback(from, ctx.now(), &feedback),
            AntiEntropyMsg::Digest { request } => {
                self.answer_digest(ctx, from, &request);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, AntiEntropyMsg>, tag: u64) {
        match tag {
            TIMER_GENERATE => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.metrics.packets_generated += 1;
                self.working_set.insert(seq);
                self.forward_to_children(ctx, seq);
                ctx.set_timer(self.config.packet_interval(), TIMER_GENERATE);
            }
            TIMER_ANTI_ENTROPY => {
                let peers = {
                    let count = self.config.peers_per_round.min(self.membership.len());
                    ctx.rng().sample(&self.membership, count)
                };
                let request = self.build_digest();
                let size = 40 + request.wire_bytes();
                for peer in peers {
                    ctx.send_control(
                        peer,
                        AntiEntropyMsg::Digest {
                            request: request.clone(),
                        },
                        size,
                    );
                }
                self.repaired.clear();
                ctx.set_timer(self.config.epoch, TIMER_ANTI_ENTROPY);
            }
            TIMER_HOUSEKEEPING => {
                self.working_set
                    .prune_to_len(self.config.working_set_window);
                self.conns.maybe_nofeedback_timeout(ctx.now());
                ctx.set_timer(SimDuration::from_secs(1), TIMER_HOUSEKEEPING);
            }
            _ => {}
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
            spec.add_link(
                LinkSpec::new(n, i, access_bps, SimDuration::from_millis(10)).with_loss(0.02),
            );
            spec.attach(i);
        }
        spec
    }

    fn run(n: usize, secs: u64) -> Sim<AntiEntropyNode> {
        let spec = hub(n, 2_000_000.0);
        let mut rng = SimRng::new(5);
        let tree = random_tree(n, 0, 3, &mut rng);
        let config = AntiEntropyConfig {
            stream_rate_bps: 300_000.0,
            stream_start: SimTime::from_secs(2),
            epoch: SimDuration::from_secs(5),
            ..AntiEntropyConfig::default()
        };
        let agents = (0..n)
            .map(|i| AntiEntropyNode::new(i, &tree, n, config.clone()))
            .collect();
        let mut sim = Sim::new(&spec, agents, 5);
        sim.run_until(SimTime::from_secs(secs));
        sim
    }

    #[test]
    fn repairs_losses_from_the_tree() {
        let sim = run(12, 40);
        let generated = sim.agent(0).metrics.packets_generated;
        assert!(generated > 400);
        // With 2% per-hop loss and no repair, deep nodes would miss a
        // noticeable share; anti-entropy should bring everyone close to the
        // full stream.
        for node in 1..12 {
            let got = sim.agent(node).metrics.useful_packets;
            assert!(
                got as f64 > generated as f64 * 0.75,
                "node {node} got {got}/{generated}"
            );
        }
    }

    #[test]
    fn some_recovery_traffic_flows_outside_the_tree() {
        let sim = run(12, 40);
        let repaired_nodes = (1..12)
            .filter(|&n| {
                let m = &sim.agent(n).metrics;
                m.raw_bytes > m.from_parent_bytes
            })
            .count();
        assert!(
            repaired_nodes >= 4,
            "expected anti-entropy repairs at several nodes, saw {repaired_nodes}"
        );
    }

    #[test]
    fn digest_answer_respects_batch_limit() {
        let mut tree_rng = SimRng::new(1);
        let tree = random_tree(2, 0, 2, &mut tree_rng);
        let config = AntiEntropyConfig {
            repair_batch: 10,
            ..AntiEntropyConfig::default()
        };
        let mut node = AntiEntropyNode::new(0, &tree, 2, config);
        for seq in 0..100 {
            node.working_set.insert(seq);
        }
        // An empty digest from peer 1 asks for everything; only the batch
        // limit may be sent.
        let request = ReconcileRequest::new(BloomFilter::new(1_024, 4), 0, 99, 1, 0);
        let mut rng = SimRng::new(2);
        let mut actions = Vec::new();
        let mut timers = bullet_netsim::TimerAlloc::new();
        let mut ctx = Context::new(
            SimTime::from_secs(1),
            0,
            &mut rng,
            &mut actions,
            &mut timers,
        );
        node.answer_digest(&mut ctx, 1, &request);
        let data_sends = actions
            .iter()
            .filter(|a| matches!(a, bullet_netsim::Action::Send { .. }))
            .count();
        assert!(data_sends <= 10, "sent {data_sends} repairs");
        assert!(
            data_sends >= 4,
            "transport should allow at least the burst, sent {data_sends}"
        );
    }
}
