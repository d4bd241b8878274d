//! The flight recorder: a fixed-capacity ring buffer of structured,
//! sim-time-stamped events.
//!
//! Recording is allocation-free after construction (the ring is
//! pre-allocated, events are plain `Copy` data) and never consults a
//! clock or an RNG: the simulator passes its own `now` in. When the ring
//! fills, the oldest events are evicted — a flight recorder keeps the
//! *end* of the story, which is where a misbehaving run dies.

use std::collections::VecDeque;
use std::fmt::Write as _;

/// Simulator data-path events: send / deliver / drop / timer-fire.
pub const CAT_SIM: u32 = 1 << 0;
/// Block-journey events: sealed / tree push / mesh serve / accept.
pub const CAT_JOURNEY: u32 = 1 << 1;
/// Protocol control decisions: re-attach ladder, quarantine, reconcile.
pub const CAT_PROTO: u32 = 1 << 2;
/// Route-repair events recorded when the network mutates mid-run.
pub const CAT_ROUTE: u32 = 1 << 3;
/// Every category.
pub const CAT_ALL: u32 = CAT_SIM | CAT_JOURNEY | CAT_PROTO | CAT_ROUTE;

/// Default ring capacity when the spec does not say `cap=N`.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The node id used for events that belong to the network itself rather
/// than any one overlay node (route repairs).
pub const NETWORK_NODE: u32 = u32::MAX;

/// Why the simulator dropped a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The sender was marked failed when the send was attempted.
    SrcFailed,
    /// The destination was failed at delivery time.
    DestFailed,
    /// Source and destination were on opposite sides of a partition.
    Partitioned,
    /// A control-message fault plan dropped it.
    Faulted,
    /// An adversarial sender stalled the data path.
    Stalled,
    /// The network had no route between the endpoints.
    NoRoute,
    /// Lost inside the network: queue overflow, random loss, or a dead
    /// router on the path.
    Network,
    /// The destination node's ingress queue budget was exhausted (the
    /// deterministic overload resource model shed it).
    Overload,
}

impl DropReason {
    fn as_str(self) -> &'static str {
        match self {
            DropReason::SrcFailed => "src_failed",
            DropReason::DestFailed => "dest_failed",
            DropReason::Partitioned => "partitioned",
            DropReason::Faulted => "faulted",
            DropReason::Stalled => "stalled",
            DropReason::NoRoute => "no_route",
            DropReason::Network => "network",
            DropReason::Overload => "overload",
        }
    }
}

/// The payload of one recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceData {
    /// A message entered the simulator (recorded at send time).
    Send {
        /// Destination overlay node.
        to: u32,
        /// `true` for control-class traffic, `false` for data.
        control: bool,
        /// Wire size in bytes.
        bytes: u32,
    },
    /// A message reached its destination agent.
    Deliver {
        /// Originating overlay node.
        from: u32,
        /// `true` for control-class traffic, `false` for data.
        control: bool,
        /// Wire size in bytes.
        bytes: u32,
    },
    /// A message was dropped; `node` is the sender.
    Drop {
        /// Destination the message was addressed to.
        to: u32,
        /// Where on the path it died.
        reason: DropReason,
    },
    /// A timer fired and was dispatched to its agent.
    TimerFire {
        /// The agent-chosen timer tag.
        tag: u64,
    },
    /// The network mutated and routes were repaired; `node` is
    /// [`NETWORK_NODE`]. Counters are cumulative for the run.
    RouteRepair {
        /// Route-affecting mutations applied so far.
        mutations: u64,
        /// Memoized routes invalidated so far.
        invalidated: u64,
    },
    /// The source sealed a new block; `node` is the source.
    BlockSealed {
        /// Block sequence number.
        seq: u64,
    },
    /// A node pushed a block down a tree edge to a child.
    TreePush {
        /// Block sequence number.
        seq: u64,
        /// The child the block was pushed to.
        to: u32,
    },
    /// A mesh sender served a block to a recovery receiver.
    MeshServe {
        /// Block sequence number.
        seq: u64,
        /// The receiver being served.
        to: u32,
    },
    /// A node received a data block (duplicate or not).
    BlockAccept {
        /// Block sequence number.
        seq: u64,
        /// The overlay node it arrived from.
        from: u32,
        /// Whether it arrived down the tree edge from the parent.
        from_parent: bool,
        /// Whether the node had already seen this block.
        duplicate: bool,
    },
    /// The re-attach ladder started: the node declared itself orphaned.
    ReattachStart {
        /// The parent that went silent.
        dead_parent: u32,
    },
    /// One rung of the re-attach ladder: a candidate parent was tried.
    ReattachStep {
        /// The candidate being asked.
        candidate: u32,
        /// 1-based attempt number within this ladder.
        attempt: u32,
    },
    /// The ladder finished: a new parent accepted the node.
    ReattachDone {
        /// The accepting parent.
        new_parent: u32,
        /// Sim time spent orphaned, in microseconds.
        wait_us: u64,
    },
    /// A misbehaving peer was quarantined by the integrity layer.
    Quarantine {
        /// The evicted peer.
        peer: u32,
    },
    /// A RanSub-epoch reconciliation round refreshed the sender set.
    ReconcileRound {
        /// Number of mesh senders refreshed this round.
        senders: u32,
    },
}

impl TraceData {
    /// The category bit this event belongs to (for `BULLET_TRACE` masks).
    pub fn category(&self) -> u32 {
        match self {
            TraceData::Send { .. }
            | TraceData::Deliver { .. }
            | TraceData::Drop { .. }
            | TraceData::TimerFire { .. } => CAT_SIM,
            TraceData::BlockSealed { .. }
            | TraceData::TreePush { .. }
            | TraceData::MeshServe { .. }
            | TraceData::BlockAccept { .. } => CAT_JOURNEY,
            TraceData::ReattachStart { .. }
            | TraceData::ReattachStep { .. }
            | TraceData::ReattachDone { .. }
            | TraceData::Quarantine { .. }
            | TraceData::ReconcileRound { .. } => CAT_PROTO,
            TraceData::RouteRepair { .. } => CAT_ROUTE,
        }
    }

    /// The stable `kind` string used in the JSONL schema.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceData::Send { .. } => "send",
            TraceData::Deliver { .. } => "deliver",
            TraceData::Drop { .. } => "drop",
            TraceData::TimerFire { .. } => "timer_fire",
            TraceData::RouteRepair { .. } => "route_repair",
            TraceData::BlockSealed { .. } => "block_sealed",
            TraceData::TreePush { .. } => "tree_push",
            TraceData::MeshServe { .. } => "mesh_serve",
            TraceData::BlockAccept { .. } => "block_accept",
            TraceData::ReattachStart { .. } => "reattach_start",
            TraceData::ReattachStep { .. } => "reattach_step",
            TraceData::ReattachDone { .. } => "reattach_done",
            TraceData::Quarantine { .. } => "quarantine",
            TraceData::ReconcileRound { .. } => "reconcile_round",
        }
    }
}

/// One recorded event: sim time, the node it happened on, the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time in microseconds.
    pub t_us: u64,
    /// The overlay node the event happened on ([`NETWORK_NODE`] for
    /// network-level events).
    pub node: u32,
    /// The event payload.
    pub data: TraceData,
}

impl TraceEvent {
    /// Append this event as one JSON object (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t_us\":{},\"node\":{},\"kind\":\"{}\"",
            self.t_us,
            self.node,
            self.data.kind()
        );
        match self.data {
            TraceData::Send { to, control, bytes } => {
                let _ = write!(out, ",\"to\":{to},\"control\":{control},\"bytes\":{bytes}");
            }
            TraceData::Deliver {
                from,
                control,
                bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"from\":{from},\"control\":{control},\"bytes\":{bytes}"
                );
            }
            TraceData::Drop { to, reason } => {
                let _ = write!(out, ",\"to\":{},\"reason\":\"{}\"", to, reason.as_str());
            }
            TraceData::TimerFire { tag } => {
                let _ = write!(out, ",\"tag\":{tag}");
            }
            TraceData::RouteRepair {
                mutations,
                invalidated,
            } => {
                let _ = write!(
                    out,
                    ",\"mutations\":{mutations},\"invalidated\":{invalidated}"
                );
            }
            TraceData::BlockSealed { seq } => {
                let _ = write!(out, ",\"seq\":{seq}");
            }
            TraceData::TreePush { seq, to } | TraceData::MeshServe { seq, to } => {
                let _ = write!(out, ",\"seq\":{seq},\"to\":{to}");
            }
            TraceData::BlockAccept {
                seq,
                from,
                from_parent,
                duplicate,
            } => {
                let _ = write!(
                    out,
                    ",\"seq\":{seq},\"from\":{from},\"from_parent\":{from_parent},\"duplicate\":{duplicate}"
                );
            }
            TraceData::ReattachStart { dead_parent } => {
                let _ = write!(out, ",\"dead_parent\":{dead_parent}");
            }
            TraceData::ReattachStep { candidate, attempt } => {
                let _ = write!(out, ",\"candidate\":{candidate},\"attempt\":{attempt}");
            }
            TraceData::ReattachDone {
                new_parent,
                wait_us,
            } => {
                let _ = write!(out, ",\"new_parent\":{new_parent},\"wait_us\":{wait_us}");
            }
            TraceData::Quarantine { peer } => {
                let _ = write!(out, ",\"peer\":{peer}");
            }
            TraceData::ReconcileRound { senders } => {
                let _ = write!(out, ",\"senders\":{senders}");
            }
        }
        out.push('}');
    }
}

/// A parsed `BULLET_TRACE` spec.
///
/// Grammar (comma-separated, order-free):
///
/// ```text
/// BULLET_TRACE = term ("," term)*
/// term         = "sim" | "journey" | "proto" | "route" | "all"
///              | "cap=" usize          # ring capacity (default 65536)
///              | "node=" u32           # keep only this node's events
/// ```
///
/// Examples: `all`, `journey,proto`, `sim,cap=4096,node=17`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpec {
    /// Bitmask of `CAT_*` categories to record.
    pub mask: u32,
    /// Ring capacity (oldest events evicted beyond this).
    pub capacity: usize,
    /// If set, keep only events whose `node` matches.
    pub node: Option<u32>,
}

impl TraceSpec {
    /// Parse a spec string. Errors name the offending term.
    pub fn parse(spec: &str) -> Result<TraceSpec, String> {
        let mut mask = 0u32;
        let mut capacity = DEFAULT_CAPACITY;
        let mut node = None;
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(v) = term.strip_prefix("cap=") {
                capacity = v
                    .parse::<usize>()
                    .map_err(|_| format!("bad capacity in trace spec: {term:?}"))?;
                if capacity == 0 {
                    return Err("trace spec capacity must be nonzero".into());
                }
            } else if let Some(v) = term.strip_prefix("node=") {
                node = Some(
                    v.parse::<u32>()
                        .map_err(|_| format!("bad node filter in trace spec: {term:?}"))?,
                );
            } else {
                mask |= match term {
                    "sim" => CAT_SIM,
                    "journey" => CAT_JOURNEY,
                    "proto" => CAT_PROTO,
                    "route" => CAT_ROUTE,
                    "all" | "1" | "on" | "true" => CAT_ALL,
                    other => return Err(format!("unknown trace spec term: {other:?}")),
                };
            }
        }
        if mask == 0 {
            return Err(format!(
                "trace spec {spec:?} selects no categories (use sim/journey/proto/route/all)"
            ));
        }
        Ok(TraceSpec {
            mask,
            capacity,
            node,
        })
    }
}

/// The flight recorder ring. See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    mask: u32,
    node_filter: Option<u32>,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    recorded: u64,
}

impl FlightRecorder {
    /// Build a recorder from a parsed spec; the ring is pre-allocated so
    /// recording never allocates.
    pub fn new(spec: &TraceSpec) -> FlightRecorder {
        FlightRecorder {
            mask: spec.mask,
            node_filter: spec.node,
            capacity: spec.capacity,
            events: VecDeque::with_capacity(spec.capacity),
            recorded: 0,
        }
    }

    /// Whether any category in `mask` is being recorded. Callers use this
    /// to skip constructing event payloads entirely when a category is
    /// filtered out.
    #[inline]
    pub fn wants(&self, mask: u32) -> bool {
        self.mask & mask != 0
    }

    /// Record one event (subject to the category mask and node filter).
    #[inline]
    pub fn record(&mut self, t_us: u64, node: u32, data: TraceData) {
        if self.mask & data.category() == 0 {
            return;
        }
        if let Some(only) = self.node_filter {
            if node != only {
                return;
            }
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent { t_us, node, data });
        self.recorded += 1;
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events recorded over the run, including any since evicted.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted from the ring to make room.
    pub fn evicted(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// Render the ring as JSONL, one event object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for event in &self.events {
            event.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips() {
        let spec = TraceSpec::parse("journey, proto ,cap=128,node=7").unwrap();
        assert_eq!(spec.mask, CAT_JOURNEY | CAT_PROTO);
        assert_eq!(spec.capacity, 128);
        assert_eq!(spec.node, Some(7));
        assert_eq!(TraceSpec::parse("all").unwrap().mask, CAT_ALL);
        assert_eq!(TraceSpec::parse("1").unwrap().capacity, DEFAULT_CAPACITY);
        assert!(TraceSpec::parse("bogus").is_err());
        assert!(TraceSpec::parse("cap=0").is_err());
        assert!(TraceSpec::parse("cap=12").is_err(), "mask-less spec");
    }

    #[test]
    fn ring_evicts_oldest_and_counts_total() {
        let spec = TraceSpec::parse("sim,cap=2").unwrap();
        let mut rec = FlightRecorder::new(&spec);
        for i in 0..5u64 {
            rec.record(i, 0, TraceData::TimerFire { tag: i });
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.evicted(), 3);
        let tags: Vec<_> = rec
            .events()
            .map(|e| match e.data {
                TraceData::TimerFire { tag } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, [3, 4], "the ring keeps the end of the story");
    }

    #[test]
    fn category_mask_and_node_filter_drop_events() {
        let spec = TraceSpec::parse("journey,node=3").unwrap();
        let mut rec = FlightRecorder::new(&spec);
        rec.record(1, 3, TraceData::TimerFire { tag: 9 }); // wrong category
        rec.record(2, 4, TraceData::BlockSealed { seq: 1 }); // wrong node
        rec.record(3, 3, TraceData::BlockSealed { seq: 2 });
        assert_eq!(rec.len(), 1);
        assert!(rec.wants(CAT_JOURNEY));
        assert!(!rec.wants(CAT_SIM));
    }

    #[test]
    fn jsonl_lines_carry_the_schema_fields() {
        let spec = TraceSpec::parse("all").unwrap();
        let mut rec = FlightRecorder::new(&spec);
        rec.record(
            10,
            2,
            TraceData::Send {
                to: 5,
                control: false,
                bytes: 1_500,
            },
        );
        rec.record(
            11,
            5,
            TraceData::Drop {
                to: 2,
                reason: DropReason::Network,
            },
        );
        let jsonl = rec.to_jsonl();
        let lines: Vec<_> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"t_us\":10,\"node\":2,\"kind\":\"send\",\"to\":5,\"control\":false,\"bytes\":1500}"
        );
        assert_eq!(
            lines[1],
            "{\"t_us\":11,\"node\":5,\"kind\":\"drop\",\"to\":2,\"reason\":\"network\"}"
        );
    }
}
