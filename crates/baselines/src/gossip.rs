//! Push gossip dissemination (paper §4.4).
//!
//! An lpbcast-style epidemic: the source sends each fresh packet to a few
//! randomly chosen nodes, and every node forwards each *non-duplicate* packet
//! it receives to a randomly chosen set of peers from its membership view as
//! soon as it arrives (no dissemination tree and no per-round batching). As
//! in the paper's conservative comparison, nodes are given full group
//! membership and reuse the TFRC transport.

use bullet_content::WorkingSet;
use bullet_netsim::{Agent, Context, OverlayId};
use bullet_telemetry::DeliveryCounters;
use bullet_transport::{
    packet_interval, Connections, TfrcFeedback, TfrcHeader, DATA_PACKET_BYTES,
    FEEDBACK_PACKET_BYTES,
};

use crate::StreamConfig;

/// Number of peers each packet is forwarded to (the paper found 5 to be the
/// best-performing, lowest-overhead setting).
const FANOUT: usize = 5;

/// Wire messages of the gossip baseline.
#[derive(Clone, Debug)]
pub enum GossipMsg {
    /// A pushed data packet.
    Data {
        /// TFRC header of the connection it travelled on.
        header: TfrcHeader,
        /// Application sequence number.
        seq: u64,
    },
    /// TFRC feedback.
    Feedback(TfrcFeedback),
}

const TIMER_GENERATE: u64 = 1;

/// One gossiping node.
pub struct GossipNode {
    id: OverlayId,
    membership: Vec<OverlayId>,
    is_source: bool,
    config: StreamConfig,
    next_seq: u64,
    /// Every sequence number delivered or generated here; never pruned.
    seen: WorkingSet,
    conns: Connections,
    /// Reusable buffer for the membership minus the peer a packet came from.
    candidates: Vec<OverlayId>,
    /// Cumulative delivery counters.
    pub metrics: DeliveryCounters,
}

impl GossipNode {
    /// The node's overlay id.
    pub fn id(&self) -> OverlayId {
        self.id
    }

    /// Creates a gossip node. `membership` is the full participant list (the
    /// paper's conservative full-membership assumption).
    pub fn new(
        id: OverlayId,
        source: OverlayId,
        participants: usize,
        config: StreamConfig,
    ) -> Self {
        GossipNode {
            id,
            membership: (0..participants).filter(|&n| n != id).collect(),
            is_source: id == source,
            config,
            next_seq: 0,
            seen: WorkingSet::new(),
            conns: Connections::new(),
            candidates: Vec::new(),
            metrics: DeliveryCounters::default(),
        }
    }

    fn push_to_random_peers(
        &mut self,
        ctx: &mut Context<'_, GossipMsg>,
        seq: u64,
        exclude: Option<OverlayId>,
    ) {
        self.candidates.clear();
        let others = self.membership.iter().filter(|&&n| Some(n) != exclude);
        self.candidates.extend(others);
        let fanout = FANOUT.min(self.candidates.len());
        let targets = ctx.rng().sample(&self.candidates, fanout);
        let now = ctx.now();
        for target in targets {
            if let Ok(header) = self.conns.send(target, now) {
                ctx.send_data(target, GossipMsg::Data { header, seq }, DATA_PACKET_BYTES);
            }
        }
    }
}

impl Agent for GossipNode {
    type Msg = GossipMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, GossipMsg>) {
        if self.is_source {
            let delay = self.config.stream_start - ctx.now();
            ctx.set_timer(delay, TIMER_GENERATE);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, GossipMsg>, from: OverlayId, msg: GossipMsg) {
        match msg {
            GossipMsg::Data { header, seq } => {
                if let Some(feedback) = self.conns.receive(from, ctx.now(), header) {
                    ctx.send_control(from, GossipMsg::Feedback(feedback), FEEDBACK_PACKET_BYTES);
                }
                let duplicate = !self.seen.insert(seq);
                self.metrics
                    .record_receive(DATA_PACKET_BYTES, false, duplicate);
                if !duplicate {
                    self.push_to_random_peers(ctx, seq, Some(from));
                }
            }
            GossipMsg::Feedback(feedback) => self.conns.feedback(from, ctx.now(), &feedback),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GossipMsg>, tag: u64) {
        if tag == TIMER_GENERATE {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.metrics.packets_generated += 1;
            self.seen.insert(seq);
            self.push_to_random_peers(ctx, seq, None);
            ctx.set_timer(packet_interval(self.config.stream_rate_bps), TIMER_GENERATE);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use bullet_netsim::{
        Action, LinkSpec, MsgClass, NetworkSpec, Sim, SimDuration, SimRng, SimTime, TimerAlloc,
    };

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

    fn run(n: usize, access_bps: f64, secs: u64) -> Sim<GossipNode> {
        let spec = hub(n, access_bps);
        let config = StreamConfig {
            stream_rate_bps: 300_000.0,
            stream_start: SimTime::from_secs(2),
            ..StreamConfig::default()
        };
        let agents = (0..n)
            .map(|i| GossipNode::new(i, 0, n, config.clone()))
            .collect();
        let mut sim = Sim::new(&spec, agents, 3);
        sim.run_until(SimTime::from_secs(secs));
        sim
    }

    /// The peers `node` sends data to when packet `seq` arrives from `from`
    /// at `now`.
    fn forwards(node: &mut GossipNode, now: SimTime, from: OverlayId, seq: u64) -> Vec<OverlayId> {
        let mut rng = SimRng::new(seq);
        let mut actions = Vec::new();
        let mut timers = TimerAlloc::new();
        let mut ctx = Context::new(now, node.id, &mut rng, &mut actions, &mut timers);
        let header = TfrcHeader {
            seq,
            timestamp: now,
            rtt_estimate: SimDuration::from_millis(100),
        };
        node.on_message(&mut ctx, from, GossipMsg::Data { header, seq });
        actions
            .iter()
            .filter_map(|action| match action {
                Action::Send {
                    to,
                    class: MsgClass::Data,
                    ..
                } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn gossip_spreads_data_to_most_nodes() {
        let sim = run(15, 4_000_000.0, 25);
        let generated = sim.agent(0).metrics.packets_generated;
        assert!(generated > 300);
        let mut reached = 0;
        for node in 1..15 {
            if sim.agent(node).metrics.useful_packets as f64 > generated as f64 * 0.5 {
                reached += 1;
            }
        }
        assert!(reached >= 10, "only {reached} nodes got most of the stream");
    }

    #[test]
    fn gossip_produces_duplicates() {
        let sim = run(15, 4_000_000.0, 25);
        let total_dups: u64 = (1..15)
            .map(|n| sim.agent(n).metrics.duplicate_packets)
            .sum();
        assert!(
            total_dups > 100,
            "push gossip should waste bandwidth on duplicates, saw {total_dups}"
        );
    }

    /// Each fresh packet goes to exactly [`FANOUT`] distinct peers, never
    /// back to the peer it came from nor to the node itself, and a duplicate
    /// goes nowhere. A node that may pick its sender does so for 5 packets
    /// in 19, so forty packets miss it with odds of about 5 in a million.
    #[test]
    fn fanout_bounds_forwarding() {
        let mut node = GossipNode::new(1, 0, 20, StreamConfig::default());
        for seq in 0..40 {
            // A second apart: every connection has refilled its burst, so
            // the transport refuses no send.
            let now = SimTime::from_secs(1 + seq);
            let from = [0, 2, 7, 19][seq as usize % 4];
            let targets = forwards(&mut node, now, from, seq);
            let distinct: BTreeSet<OverlayId> = targets.iter().copied().collect();
            assert_eq!(targets.len(), FANOUT, "seq {seq}: {targets:?}");
            assert_eq!(distinct.len(), FANOUT, "seq {seq}: {targets:?}");
            assert!(
                !distinct.contains(&from) && !distinct.contains(&1),
                "seq {seq}: {targets:?}"
            );
            let again = forwards(&mut node, now, 5, seq);
            assert!(again.is_empty(), "seq {seq}: a duplicate went to {again:?}");
        }
    }
}
