//! Push gossip dissemination (paper §4.4).
//!
//! An lpbcast-style epidemic: the source sends each fresh packet to a few
//! randomly chosen nodes, and every node forwards each *non-duplicate* packet
//! it receives to a randomly chosen set of peers from its membership view as
//! soon as it arrives (no dissemination tree and no per-round batching). As
//! in the paper's conservative comparison, nodes are given full group
//! membership and reuse the TFRC transport.

use bullet_content::WorkingSet;
use bullet_netsim::{Agent, Context, OverlayId, SimDuration, SimTime};
use bullet_transport::{Connections, TfrcConfig, TfrcFeedback, TfrcHeader};

use crate::metrics::DeliveryMetrics;

/// Configuration of the push-gossip baseline.
#[derive(Clone, Debug)]
pub struct GossipConfig {
    /// Target streaming rate at the source, in bits per second.
    pub stream_rate_bps: f64,
    /// Data packet size in bytes.
    pub packet_size: u32,
    /// Time at which the source starts streaming.
    pub stream_start: SimTime,
    /// Number of peers each packet is forwarded to (the paper found 5 to be
    /// the best-performing, lowest-overhead setting).
    pub fanout: usize,
    /// TFRC parameters for every connection.
    pub tfrc: TfrcConfig,
}

impl Default for GossipConfig {
    fn default() -> Self {
        let packet_size = 1_500;
        GossipConfig {
            stream_rate_bps: 600_000.0,
            packet_size,
            stream_start: SimTime::from_secs(10),
            fanout: 5,
            tfrc: TfrcConfig {
                packet_size,
                ..TfrcConfig::default()
            },
        }
    }
}

impl GossipConfig {
    /// Interval between packet generations at the source.
    pub fn packet_interval(&self) -> SimDuration {
        let per_sec = self.stream_rate_bps / (self.packet_size as f64 * 8.0);
        SimDuration::from_secs_f64(1.0 / per_sec.max(0.01))
    }
}

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
    config: GossipConfig,
    next_seq: u64,
    /// Every sequence number delivered or generated here; never pruned.
    seen: WorkingSet,
    conns: Connections,
    /// Reusable buffer for the membership minus the peer a packet came from.
    candidates: Vec<OverlayId>,
    /// Cumulative delivery counters.
    pub metrics: DeliveryMetrics,
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
        config: GossipConfig,
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
            metrics: DeliveryMetrics::default(),
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
        let fanout = self.config.fanout.min(self.candidates.len());
        let targets = ctx.rng().sample(&self.candidates, fanout);
        let now = ctx.now();
        let packet_size = self.config.packet_size;
        for target in targets {
            if let Ok(header) = self.conns.send(target, self.config.tfrc, now, packet_size) {
                ctx.send_data(target, GossipMsg::Data { header, seq }, packet_size);
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
                let size = self.config.packet_size;
                if let Some(feedback) = self.conns.receive(from, ctx.now(), header, size) {
                    ctx.send_control(from, GossipMsg::Feedback(feedback), 60);
                }
                let duplicate = !self.seen.insert(seq);
                self.metrics
                    .record_receive(self.config.packet_size, false, duplicate);
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
            ctx.set_timer(self.config.packet_interval(), TIMER_GENERATE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_netsim::{LinkSpec, NetworkSpec, Sim};

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
        let config = GossipConfig {
            stream_rate_bps: 300_000.0,
            stream_start: SimTime::from_secs(2),
            ..GossipConfig::default()
        };
        let agents = (0..n)
            .map(|i| GossipNode::new(i, 0, n, config.clone()))
            .collect();
        let mut sim = Sim::new(&spec, agents, 3);
        sim.run_until(SimTime::from_secs(secs));
        sim
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

    #[test]
    fn fanout_bounds_forwarding() {
        let config = GossipConfig::default();
        assert_eq!(config.fanout, 5);
        let node = GossipNode::new(1, 0, 20, config);
        assert_eq!(node.membership.len(), 19);
        assert!(!node.membership.contains(&1));
    }
}
