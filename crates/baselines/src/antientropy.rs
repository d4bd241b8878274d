//! Tree streaming with epidemic anti-entropy recovery (paper §4.4).
//!
//! A pbcast-style comparison: nodes receive most of their data from their
//! tree parent (plain TFRC streaming) and periodically run anti-entropy with
//! a few randomly chosen peers to repair whatever the tree dropped. Each
//! round, a node sends a digest — a Bloom filter over its working set plus
//! the sequence range it covers — to `PEERS_PER_ROUND` random nodes; a
//! recipient answers with packets the digest shows as missing, as fast as its
//! TFRC connection allows. As in the paper, nodes are granted full group
//! membership and the epoch is long enough (20 s) for TFRC to ramp up.

use bullet_content::{missing_keys, BloomFilter, ReconcileRequest, WorkingSet};
use bullet_netsim::{Agent, Context, OverlayId, SimDuration};
use bullet_overlay::Tree;
use bullet_telemetry::DeliveryCounters;
use bullet_transport::{
    packet_interval, Connections, PeerTable, TfrcFeedback, TfrcHeader, DATA_PACKET_BYTES,
    FEEDBACK_PACKET_BYTES, HEADER_BYTES,
};

use crate::StreamConfig;

/// Anti-entropy round period (paper: 20 s so TFRC can ramp up).
const EPOCH: SimDuration = SimDuration::from_secs(20);

/// Number of random peers sent a digest per round (paper: 5).
const PEERS_PER_ROUND: usize = 5;

/// Bloom filter size of a digest, in bits.
const BLOOM_BITS: usize = 16_384;

/// Bloom filter hash count of a digest.
const BLOOM_HASHES: u32 = 6;

/// Number of recent packets kept for repair.
const WORKING_SET_WINDOW: usize = 1_500;

/// Maximum repair packets sent in answer to one digest.
const REPAIR_BATCH: usize = 256;

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
    config: StreamConfig,
    next_seq: u64,
    working_set: WorkingSet,
    conns: Connections,
    /// Keys already repaired toward a given peer this round (avoid repeats).
    repaired: PeerTable<WorkingSet>,
    /// Cumulative delivery counters.
    pub metrics: DeliveryCounters,
}

impl AntiEntropyNode {
    /// Creates a node for participant `id` of `tree`; `participants` is the
    /// total group size (full membership is assumed, as in the paper).
    pub fn new(id: OverlayId, tree: &Tree, participants: usize, config: StreamConfig) -> Self {
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
            metrics: DeliveryCounters::default(),
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
        for &child in &self.children {
            if let Ok(header) = self.conns.send(child, now) {
                let data = AntiEntropyMsg::Data { header, seq };
                ctx.send_data(child, data, DATA_PACKET_BYTES);
            }
        }
    }

    fn build_digest(&self) -> ReconcileRequest {
        let mut filter = BloomFilter::new(BLOOM_BITS, BLOOM_HASHES);
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
        let keys: Vec<u64> = missing_keys(&self.working_set, request, REPAIR_BATCH * 2)
            .into_iter()
            .filter(|&k| !already.contains(k))
            .take(REPAIR_BATCH)
            .collect();
        let now = ctx.now();
        for key in keys {
            let Ok(header) = self.conns.send(from, now) else {
                break;
            };
            let data = AntiEntropyMsg::Data { header, seq: key };
            ctx.send_data(from, data, DATA_PACKET_BYTES);
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
        let jitter = EPOCH.mul_f64(ctx.rng().range_f64(0.5, 1.5));
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
                if let Some(feedback) = self.conns.receive(from, ctx.now(), header) {
                    let feedback = AntiEntropyMsg::Feedback(feedback);
                    ctx.send_control(from, feedback, FEEDBACK_PACKET_BYTES);
                }
                let duplicate =
                    self.working_set.contains(seq) || seq < self.working_set.low_watermark();
                let from_parent = Some(from) == self.parent;
                self.metrics
                    .record_receive(DATA_PACKET_BYTES, from_parent, duplicate);
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
                ctx.set_timer(packet_interval(self.config.stream_rate_bps), TIMER_GENERATE);
            }
            TIMER_ANTI_ENTROPY => {
                let peers = {
                    let count = PEERS_PER_ROUND.min(self.membership.len());
                    ctx.rng().sample(&self.membership, count)
                };
                let request = self.build_digest();
                let size = HEADER_BYTES + request.wire_bytes();
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
                ctx.set_timer(EPOCH, TIMER_ANTI_ENTROPY);
            }
            TIMER_HOUSEKEEPING => {
                self.working_set.prune_to_len(WORKING_SET_WINDOW);
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
    use bullet_netsim::{LinkSpec, NetworkSpec, Sim, SimRng, SimTime};
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

    /// At least four repair rounds at every node: the first digest goes out
    /// within 1.5 epochs (30 s), then one every epoch. What arrived since a
    /// node's last round is still unrepaired when the run ends, so the run
    /// is long enough for that tail to be a small share (the worst node
    /// holds 81 % of the stream at 120 s, 73 % at 70 s).
    const RUN_SECS: u64 = 120;

    fn run(n: usize) -> Sim<AntiEntropyNode> {
        let spec = hub(n, 2_000_000.0);
        let mut rng = SimRng::new(5);
        let tree = random_tree(n, 0, 3, &mut rng);
        let config = StreamConfig {
            stream_rate_bps: 300_000.0,
            stream_start: SimTime::from_secs(2),
            ..StreamConfig::default()
        };
        let agents = (0..n)
            .map(|i| AntiEntropyNode::new(i, &tree, n, config.clone()))
            .collect();
        let mut sim = Sim::new(&spec, agents, 5);
        sim.run_until(SimTime::from_secs(RUN_SECS));
        sim
    }

    #[test]
    fn repairs_losses_from_the_tree() {
        let sim = run(12);
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
        let sim = run(12);
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

    /// One answer sends at most [`REPAIR_BATCH`] packets, however much the
    /// digest asks for. A fresh connection's burst binds well before that,
    /// so the answer is exactly the burst.
    #[test]
    fn digest_answer_respects_batch_limit() {
        let mut tree_rng = SimRng::new(1);
        let tree = random_tree(2, 0, 2, &mut tree_rng);
        let mut node = AntiEntropyNode::new(0, &tree, 2, StreamConfig::default());
        let held = 4 * REPAIR_BATCH as u64;
        for seq in 0..held {
            node.working_set.insert(seq);
        }
        // An empty digest from peer 1 asks for everything held.
        let request = ReconcileRequest::new(BloomFilter::new(1_024, 4), 0, held - 1, 1, 0);
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
        assert!(data_sends <= REPAIR_BATCH, "sent {data_sends} repairs");
        assert_eq!(
            data_sends,
            bullet_transport::tfrc::BURST_PACKETS as usize,
            "a fresh connection sends its burst"
        );
    }
}
