//! The discrete-event simulation driver.
//!
//! [`Sim`] owns the emulated [`Network`], one [`Agent`] per overlay
//! participant, and a time-ordered event queue. It routes every sent message
//! hop by hop over the physical topology, applies per-link queueing, loss and
//! delay, fires timers, and injects scheduled node failures.

use std::collections::VecDeque;

use bullet_telemetry::{
    DropReason, FlightRecorder, SelfProfile, TraceData, TraceSpec, CAT_ROUTE, CAT_SIM, NETWORK_NODE,
};

use crate::agent::{Action, Agent, Context, MsgClass, TimerAlloc, TimerId};
use crate::event_queue::{event_key, key_time_micros, EventQueue};
use crate::link::{DirectedLinkId, HopOutcome};
use crate::network::{Network, NetworkSpec, OverlayId, RouteId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Delay applied to a message between two participants attached to the same
/// router (a LAN hop that does not traverse any modelled link).
const LOOPBACK_DELAY: SimDuration = SimDuration::from_micros(100);

/// Per-class byte counters maintained for every overlay participant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeTraffic {
    /// Application-data bytes received.
    pub data_bytes_in: u64,
    /// Control bytes received.
    pub control_bytes_in: u64,
    /// Application-data bytes sent.
    pub data_bytes_out: u64,
    /// Control bytes sent.
    pub control_bytes_out: u64,
}

/// Global counters maintained by the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimCounters {
    /// Messages handed to destination agents.
    pub delivered: u64,
    /// Messages lost in the network (queue overflow or random loss).
    pub dropped_in_network: u64,
    /// Messages discarded because the destination had failed.
    pub dropped_dest_failed: u64,
    /// Messages discarded because the sender had failed when they were sent.
    pub dropped_src_failed: u64,
    /// Messages discarded because sender and destination were on opposite
    /// sides of an active network partition.
    pub dropped_partitioned: u64,
    /// Control messages dropped by an installed [`FaultPlan`].
    pub dropped_faulted: u64,
    /// Control messages duplicated by an installed [`FaultPlan`].
    pub duplicated_faulted: u64,
    /// Control messages delayed by an installed [`FaultPlan`].
    pub delayed_faulted: u64,
    /// Data messages rewritten in flight by an adversarial sender's
    /// [`FaultPlan::corrupt_chance`].
    pub corrupted_adversary: u64,
    /// Data messages swallowed by a stalling adversarial sender's
    /// [`FaultPlan::stall_chance`].
    pub stalled_adversary: u64,
    /// Timer expirations delivered.
    pub timers_fired: u64,
    /// Events processed in total.
    pub events: u64,
    /// Messages shed at a destination whose ingress queue budget was
    /// exhausted (the [`NodeResources`] overload model).
    pub dropped_overload: u64,
}

/// Deterministic per-node resource model for overload experiments.
///
/// When installed via [`Sim::set_node_resources`], the node's ingress is
/// accounted as a virtual work queue: each delivered message occupies the
/// node for `1 / drain_per_sec` of simulated time, and a message arriving
/// while earlier work is still backlogged waits its turn — it is delivered
/// when its own service slot completes, so a queue's depth is felt as
/// queueing delay exactly as on a real processor. What happens when the
/// queue is *full* is the [`QueueDiscipline`]: a `DropTail` node sheds the
/// arrival deterministically (counted in [`SimCounters::dropped_overload`]
/// and traced as an `overload` drop) and its delay therefore never exceeds
/// `queue_budget / drain_per_sec`; an `Unbounded` node admits everything
/// and its backlog — and with it every later message's delay — grows
/// without limit for as long as arrivals outpace the drain. The model
/// draws no RNG and preserves per-node FIFO order; a node with no
/// resources installed is delivered to without queueing delay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeResources {
    /// Backlogged messages at which the discipline kicks in. A `DropTail`
    /// node sheds arrivals beyond this depth; an `Unbounded` node ignores
    /// it (the field still scales nothing — depth is observable through
    /// [`NodeOverloadStats::peak_depth`] either way).
    pub queue_budget: u32,
    /// Messages' worth of work the node retires per simulated second.
    pub drain_per_sec: f64,
    /// What a full queue does to the next arrival.
    pub discipline: QueueDiscipline,
}

/// The full-queue policy of a [`NodeResources`] ingress queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueueDiscipline {
    /// Arrivals beyond `queue_budget` are shed; queueing delay is bounded
    /// by `queue_budget / drain_per_sec`. (The discipline a node with
    /// bounded application queues presents to the network.)
    #[default]
    DropTail,
    /// Every arrival is admitted; the backlog and the queueing delay grow
    /// without bound while arrivals outpace the drain. (The discipline of
    /// the unbounded-queue baseline: nothing is ever refused, everything
    /// is eventually served — late.)
    Unbounded,
}

/// Live accounting for one node's [`NodeResources`] model.
#[derive(Clone, Copy, Debug)]
struct ResourceState {
    model: NodeResources,
    /// The node is busy retiring already-admitted work until this instant
    /// (in integer microseconds, so the depth arithmetic is exact).
    busy_until_us: u64,
    /// Deepest backlog observed at any admission decision.
    peak_depth: u32,
}

/// Per-node overload observations, returned by [`Sim::node_overload_stats`];
/// all-zero when no resource model is installed for the node. The messages
/// shed are counted once, for every node, in
/// [`SimCounters::dropped_overload`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeOverloadStats {
    /// Deepest ingress backlog observed.
    pub peak_depth: u32,
}

/// Deterministic per-sender fault and adversary model.
///
/// When installed via [`Sim::set_fault_plan`], every `MsgClass::Control`
/// message the node sends is subjected (in this order, off the simulator's
/// own RNG, so runs stay bit-identical at any thread count) to a drop
/// chance, a duplicate chance, and a delay chance — the paper's §4.6
/// failure modes are lost *control* RPCs (peering requests, re-attach
/// handshakes, RanSub sets), while benign data loss is already modelled by
/// the links themselves.
///
/// The adversary knobs extend the model to *misbehaving* (not merely
/// faulty) nodes and act on `MsgClass::Data` instead: a stalling sender
/// swallows its outgoing data (occupying peering slots while contributing
/// nothing), a corrupting sender has each surviving data message rewritten
/// through [`Agent::tamper`] (stall, then corrupt, in a fixed draw order).
/// `false_advertise` is carried here for scripting convenience but is
/// agent-behavioural — the scenario driver hands the plan to the agent's
/// `on_adversary` hook, and the protocol decides what advertising data it
/// does not hold means.
///
/// Every draw is gated on its chance being positive, so a simulator with
/// no plans installed draws no RNG for faults, and a plan whose adversary
/// chances are zero draws none for the adversary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability a control message is silently dropped.
    pub drop_chance: f64,
    /// Probability a surviving control message is sent twice.
    pub duplicate_chance: f64,
    /// Probability a surviving control message is held back by
    /// [`FaultPlan::delay`] before its first hop.
    pub delay_chance: f64,
    /// The hold-back applied when the delay chance hits.
    pub delay: SimDuration,
    /// Probability an outgoing data message is swallowed (a stalled
    /// sender: the slot stays occupied, nothing arrives).
    pub stall_chance: f64,
    /// Probability a surviving outgoing data message is rewritten through
    /// [`Agent::tamper`] (a corrupting sender).
    pub corrupt_chance: f64,
    /// Whether this node advertises data it does not hold (inflated
    /// summary tickets, reconciliation rows it never serves). Applied by
    /// the protocol agent, not the simulator.
    pub false_advertise: bool,
}

/// An in-flight message. Flights live in the simulator's pooled slab; the
/// event queue refers to them by [`FlightId`], which keeps [`QueuedEvent`]
/// small and lets slots (and their payload capacity) be recycled without
/// per-message heap allocation.
struct Flight<M> {
    from: OverlayId,
    to: OverlayId,
    msg: M,
    size_bytes: u32,
    class: MsgClass,
    trace: Option<u64>,
    /// Interned route through the physical topology.
    route: RouteId,
    /// Next hop index into the route's links.
    hop: u32,
    /// The destination's [`NodeResources`] queue already admitted this
    /// flight and booked its service time; the pending `Deliver` event is
    /// the end of its service slot, not its network arrival.
    charged: bool,
}

/// Index into the simulator's flight pool.
type FlightId = u32;

/// Recycled slab of in-flight messages, indexed by [`FlightId`].
///
/// A slot is `Some` exactly while its id is held by one queued `Hop` or
/// `Deliver` event. `Flight`'s `charged: bool` gives `Option` a niche, so
/// a slot is no larger than the flight itself (see
/// `flight_slots_cost_no_discriminant`).
struct FlightSlab<M> {
    slots: Vec<Option<Flight<M>>>,
    /// Free slots in `slots`.
    free: Vec<FlightId>,
}

impl<M> FlightSlab<M> {
    fn new() -> Self {
        FlightSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Takes a slot from the pool (or grows the pool) and stores `flight`.
    fn alloc(&mut self, flight: Flight<M>) -> FlightId {
        match self.free.pop() {
            Some(fid) => {
                self.slots[fid as usize] = Some(flight);
                fid
            }
            None => {
                assert!(
                    self.slots.len() < u32::MAX as usize,
                    "flight pool exhausted"
                );
                self.slots.push(Some(flight));
                (self.slots.len() - 1) as FlightId
            }
        }
    }

    /// A live flight: `fid` came from [`FlightSlab::alloc`] and has not
    /// been taken or released since.
    #[inline]
    fn get(&self, fid: FlightId) -> &Flight<M> {
        self.slots[fid as usize].as_ref().expect("a live flight")
    }

    /// Mutable access to a live flight.
    #[inline]
    fn get_mut(&mut self, fid: FlightId) -> &mut Flight<M> {
        self.slots[fid as usize].as_mut().expect("a live flight")
    }

    /// Moves a live flight out and returns its slot to the pool.
    #[inline]
    fn take(&mut self, fid: FlightId) -> Flight<M> {
        let flight = self.slots[fid as usize].take().expect("a live flight");
        self.free.push(fid);
        flight
    }

    /// Drops a live flight and returns its slot to the pool.
    #[inline]
    fn release(&mut self, fid: FlightId) {
        drop(self.take(fid));
    }

    /// Total slots (the pool's high-water mark).
    fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Currently free slots.
    fn free_slots(&self) -> usize {
        self.free.len()
    }
}

/// A queued event, 16 bytes: flights live in the pool, timer `(node, tag)`
/// metadata lives in the timer slab, so each variant carries only a handle.
enum EventKind {
    Hop(FlightId),
    Deliver(FlightId),
    /// An armed timer; resolved against the timer slab at expiry (a stale
    /// generation means the timer was cancelled in the meantime).
    Timer(TimerId),
    Fail(OverlayId),
}

/// The discrete-event simulator.
///
/// The steady-state hot path (`send` → per-hop routing → delivery) performs
/// no heap allocation once routes are interned and the pools are warm:
/// flights are recycled through a slab, agent actions are collected into a
/// reusable scratch buffer, routes are [`RouteId`] handles into the
/// network's arena, and timers come from a generation-stamped slot
/// allocator.
pub struct Sim<A: Agent> {
    now: SimTime,
    network: Network,
    agents: Vec<A>,
    failed: Vec<bool>,
    traffic: Vec<NodeTraffic>,
    queue: EventQueue<EventKind>,
    /// Events scheduled for exactly the current instant. Their keys are
    /// strictly increasing (same time, increasing sequence number), so a
    /// FIFO preserves the global `(time, seq)` order while skipping the
    /// heap's sift costs for the send → first-hop and last-hop → deliver
    /// bounces: two pushes of a message's 13–22 (its routes are 11–20
    /// links), measured at 15 % of all pushes on the ledger's `mesh_default`
    /// and 10 % on the other three workloads.
    now_fifo: VecDeque<(u128, EventKind)>,
    seq: u64,
    rng: SimRng,
    /// Pooled in-flight messages (see [`FlightSlab`]).
    flights: FlightSlab<A::Msg>,
    /// Reusable buffer for the actions emitted by one agent callback.
    scratch_actions: Vec<Action<A::Msg>>,
    /// Generation-stamped timer slots (armed timers; O(1) cancel).
    timers: TimerAlloc,
    /// Timer events currently pending in the heap or the FIFO. Every armed
    /// timer has exactly one pending event, so `queued_timers -
    /// timers.live()` counts *dead* entries: cancelled watchdogs waiting
    /// out their expiry. Churn workloads multiply those, so when dead
    /// entries exceed [`Sim::COMPACT_DEAD_RATIO`] × live the heap is swept.
    queued_timers: usize,
    /// Dead-timer compaction sweeps run so far.
    timer_compactions: u64,
    /// Per-node control-plane fault plans (`None` until the first plan is
    /// installed, so fault-free runs pay nothing and draw no RNG).
    faults: Option<Vec<Option<FaultPlan>>>,
    /// Per-node overload resource models (`None` until the first model is
    /// installed, so unconstrained runs pay nothing).
    resources: Option<Vec<Option<ResourceState>>>,
    /// Active partition side flags (`None` when the network is whole).
    /// Messages between nodes with differing flags are dropped.
    partition: Option<Vec<bool>>,
    started: bool,
    counters: SimCounters,
    /// Optional flight recorder (`None` by default: every telemetry hook
    /// is a single branch on this option, keeping the traced-off hot path
    /// allocation- and work-free).
    recorder: Option<Box<FlightRecorder>>,
    /// Optional event-loop profiling state (queue-depth accounting),
    /// `None` unless [`Sim::enable_profiling`] was called.
    profile: Option<ProfileState>,
}

/// Deterministic event-loop profiling accumulators.
#[derive(Clone, Copy, Debug, Default)]
struct ProfileState {
    peak_depth: usize,
    depth_sum: u128,
    depth_samples: u64,
}

impl<A: Agent> Sim<A> {
    /// Builds a simulator over `spec` with one agent per overlay participant.
    ///
    /// # Panics
    ///
    /// Panics if the number of agents differs from the number of participants
    /// declared in the spec.
    pub fn new(spec: &NetworkSpec, agents: Vec<A>, seed: u64) -> Self {
        Self::with_network(Network::new(spec), agents, seed)
    }

    /// Builds a simulator over an already-constructed [`Network`].
    ///
    /// Experiment harnesses use this to hand every run a cheap view over a
    /// shared [`crate::NetworkSetup`] (`Network::with_setup`) instead of
    /// rebuilding landmark tables per run. Behaviour is identical to
    /// [`Sim::new`] over the spec the network was built from.
    ///
    /// # Panics
    ///
    /// Panics if the number of agents differs from the network's participant
    /// count.
    pub fn with_network(network: Network, agents: Vec<A>, seed: u64) -> Self {
        assert_eq!(
            network.participants(),
            agents.len(),
            "one agent per attached participant is required"
        );
        let n = agents.len();
        Sim {
            now: SimTime::ZERO,
            network,
            agents,
            failed: vec![false; n],
            traffic: vec![NodeTraffic::default(); n],
            queue: EventQueue::new(),
            now_fifo: VecDeque::new(),
            seq: 0,
            rng: SimRng::new(seed),
            flights: FlightSlab::new(),
            scratch_actions: Vec::new(),
            timers: TimerAlloc::new(),
            queued_timers: 0,
            timer_compactions: 0,
            faults: None,
            resources: None,
            partition: None,
            started: false,
            counters: SimCounters::default(),
            recorder: None,
            profile: None,
        }
    }

    /// Installs a flight recorder built from `spec`. Recording is purely
    /// observational — it never touches the RNG or event ordering — so a
    /// traced run is byte-identical to an untraced one.
    pub fn install_recorder(&mut self, spec: &TraceSpec) {
        self.recorder = Some(Box::new(FlightRecorder::new(spec)));
    }

    /// Removes and returns the installed flight recorder.
    pub fn take_recorder(&mut self) -> Option<Box<FlightRecorder>> {
        self.recorder.take()
    }

    /// Turns on event-loop profiling (queue-depth accounting per
    /// dispatched event). Like tracing, profiling observes only.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(ProfileState::default());
    }

    /// The run's [`SelfProfile`] (deterministic fields only — the caller
    /// owns wall-clock measurement). `None` unless profiling was enabled.
    pub fn profile(&self) -> Option<SelfProfile> {
        let p = self.profile.as_ref()?;
        let (flight_slots, flight_free_slots, timer_slots, live_timers) = self.pool_stats();
        Some(SelfProfile {
            events: self.counters.events,
            peak_queue_depth: p.peak_depth as u64,
            mean_queue_depth: if p.depth_samples == 0 {
                0.0
            } else {
                p.depth_sum as f64 / p.depth_samples as f64
            },
            flight_slots: flight_slots as u64,
            flight_free_slots: flight_free_slots as u64,
            timer_slots: timer_slots as u64,
            live_timers: live_timers as u64,
            ..SelfProfile::default()
        })
    }

    /// Records a route-repair trace event carrying the network's
    /// cumulative repair counters. Scenario drivers call this after
    /// applying a route-affecting mutation.
    pub fn record_route_repair(&mut self) {
        if let Some(rec) = &mut self.recorder {
            if rec.wants(CAT_ROUTE) {
                let repair = self.network.repair_stats();
                rec.record(
                    self.now.as_micros(),
                    NETWORK_NODE,
                    TraceData::RouteRepair {
                        mutations: repair.route_mutations,
                        invalidated: repair.routes_invalidated,
                    },
                );
            }
        }
    }

    /// Records one simulator trace event; the payload closure only runs
    /// when a recorder is installed and wants the category.
    #[inline]
    fn trace(&mut self, mask: u32, node: u32, data: impl FnOnce() -> TraceData) {
        if let Some(rec) = &mut self.recorder {
            if rec.wants(mask) {
                rec.record(self.now.as_micros(), node, data());
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the emulated network (link counters, stress stats).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the emulated network, used by scenario drivers to
    /// mutate link state mid-run (capacity, loss, outages). Route-affecting
    /// mutations epoch-invalidate the network's lookup layers; flights
    /// already in the air keep their interned routes.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Read access to one agent.
    pub fn agent(&self, node: OverlayId) -> &A {
        &self.agents[node]
    }

    /// All agents.
    pub fn agents(&self) -> &[A] {
        &self.agents
    }

    /// Whether `node` is currently failed.
    pub fn is_failed(&self, node: OverlayId) -> bool {
        self.failed[node]
    }

    /// Per-node traffic counters.
    pub fn traffic(&self, node: OverlayId) -> NodeTraffic {
        self.traffic[node]
    }

    /// Global simulator counters.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Sets `node`'s failed flag immediately (at the current instant).
    /// Clearing it on a run that has started starts the node's next
    /// incarnation: every timer the node armed before is cancelled, then
    /// [`Agent::on_start`] bootstraps it, so only what it arms from now on
    /// fires. Before the start, clearing the flag only clears it; the start
    /// bootstraps every node once.
    ///
    /// Scenario drivers use this between event-loop steps; for failures
    /// known ahead of the run, [`Sim::schedule_failure`] keeps the precise
    /// event-queue ordering.
    pub fn set_node_failed(&mut self, node: OverlayId, failed: bool) {
        self.failed[node] = failed;
        if !failed && self.started {
            self.timers.retire_node(node as u32);
            self.run_agent(node, |agent, ctx| agent.on_start(ctx));
        }
    }

    /// Runs one agent callback outside the normal message/timer delivery
    /// path, with a live [`Context`] at the current simulated time.
    ///
    /// This is the hook scenario drivers use for callbacks the network
    /// cannot deliver — a graceful-leave handoff, an adversary or slow-node
    /// switch — where the agent may emit sends and arm timers.
    /// Actions are applied exactly as for a delivered message.
    pub fn invoke_agent<F>(&mut self, node: OverlayId, invoke: F)
    where
        F: FnOnce(&mut A, &mut Context<'_, A::Msg>),
    {
        self.start_if_needed();
        self.run_agent(node, invoke);
    }

    /// Schedules a crash failure of `node` at absolute time `at`.
    ///
    /// From that point on the node neither sends nor receives messages and
    /// its timers stop firing.
    pub fn schedule_failure(&mut self, at: SimTime, node: OverlayId) {
        self.push(at, EventKind::Fail(node));
    }

    /// Installs (or replaces) `node`'s control-plane [`FaultPlan`].
    ///
    /// Scenario drivers call this between event-loop steps; the plan takes
    /// effect for every control message the node sends from now on. An
    /// all-zero plan (`FaultPlan::default()`) is how a plan is lifted.
    pub fn set_fault_plan(&mut self, node: OverlayId, plan: FaultPlan) {
        let n = self.agents.len();
        self.faults.get_or_insert_with(|| vec![None; n])[node] = Some(plan);
    }

    /// The fault plan currently installed for `node`, if any.
    pub fn fault_plan(&self, node: OverlayId) -> Option<FaultPlan> {
        self.faults.as_ref().and_then(|plans| plans[node])
    }

    /// Installs (or replaces) `node`'s overload [`NodeResources`] model.
    /// Takes effect for every message delivered to the node from now on;
    /// accumulated backlog and stats carry over when a model is replaced.
    ///
    /// # Panics
    ///
    /// Panics if the model is degenerate (`queue_budget == 0` would shed
    /// everything; a non-positive `drain_per_sec` never drains).
    pub fn set_node_resources(&mut self, node: OverlayId, model: NodeResources) {
        assert!(model.queue_budget > 0, "queue budget must be positive");
        assert!(
            model.drain_per_sec > 0.0,
            "drain rate must be positive, got {}",
            model.drain_per_sec
        );
        let n = self.agents.len();
        let slot = &mut self.resources.get_or_insert_with(|| vec![None; n])[node];
        match slot {
            Some(state) => state.model = model,
            None => {
                *slot = Some(ResourceState {
                    model,
                    busy_until_us: 0,
                    peak_depth: 0,
                })
            }
        }
    }

    /// The resource model currently installed for `node`, if any.
    pub fn node_resources(&self, node: OverlayId) -> Option<NodeResources> {
        self.resources
            .as_ref()
            .and_then(|states| states[node].map(|s| s.model))
    }

    /// Overload observations for `node`. All-zero when no resource model
    /// was ever installed.
    pub fn node_overload_stats(&self, node: OverlayId) -> NodeOverloadStats {
        self.resources
            .as_ref()
            .and_then(|states| states[node])
            .map(|s| NodeOverloadStats {
                peak_depth: s.peak_depth,
            })
            .unwrap_or_default()
    }

    /// Overload observations aggregated across every node with a resource
    /// model: the deepest peak.
    pub fn overload_stats(&self) -> NodeOverloadStats {
        let mut total = NodeOverloadStats::default();
        if let Some(states) = &self.resources {
            for state in states.iter().flatten() {
                total.peak_depth = total.peak_depth.max(state.peak_depth);
            }
        }
        total
    }

    /// Partitions the network: the listed nodes land on one side, everyone
    /// else on the other, and every message crossing the cut is dropped
    /// (counted in [`SimCounters::dropped_partitioned`]). Replaces any
    /// partition already active; [`Sim::heal_partition`] restores a whole
    /// network. This models a clean overlay-level partition — physical
    /// routes stay intact, so healing needs no topology-epoch invalidation.
    pub fn set_partition(&mut self, nodes: &[OverlayId]) {
        let mut sides = vec![false; self.agents.len()];
        for &node in nodes {
            sides[node] = true;
        }
        self.partition = Some(sides);
    }

    /// Heals any active partition.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// Whether a partition is currently active.
    pub fn is_partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// Dead queued timers are swept once they outnumber live timers by this
    /// factor (and exceed [`Sim::COMPACT_DEAD_FLOOR`]).
    const COMPACT_DEAD_RATIO: usize = 8;
    /// Minimum dead-timer population before a sweep is worth its O(queue)
    /// cost.
    const COMPACT_DEAD_FLOOR: usize = 64;

    fn push(&mut self, time: SimTime, kind: EventKind) {
        let is_timer = matches!(kind, EventKind::Timer(_));
        let seq = self.seq;
        self.seq += 1;
        let key = event_key(time.as_micros(), seq);
        // The FIFO must stay sorted: a key only qualifies if it is larger
        // than the current back. `time == now` normally guarantees that,
        // but after `run_until` rewinds the clock an older-time key can be
        // pushed while a newer-time key sits at the back — send those to
        // the heap so global (time, seq) order is preserved.
        let fifo_ok = time == self.now
            && self
                .now_fifo
                .back()
                .is_none_or(|&(back_key, _)| key > back_key);
        if fifo_ok {
            self.now_fifo.push_back((key, kind));
        } else {
            self.queue.push(key, kind);
        }
        if is_timer {
            self.queued_timers += 1;
            self.maybe_compact_timers();
        }
    }

    /// Sweeps cancelled timers out of the event heap once they dominate it.
    ///
    /// A cancelled timer's event normally waits out its expiry as a dead
    /// 16-byte entry; steady protocols leave a bounded residue, but churn
    /// workloads re-arm and cancel watchdogs continuously and would grow the
    /// heap without bound. Removing dead events cannot change behaviour —
    /// they dispatch to a stale-generation no-op — and the queue's `retain`
    /// re-heapifies with the same unique-key pop order, so the sweep is
    /// invisible to determinism goldens (which never trip the threshold;
    /// `tests/regressions.rs` trips it and compares every delivery).
    fn maybe_compact_timers(&mut self) {
        let live = self.timers.live();
        let dead = self.queued_timers.saturating_sub(live);
        if dead < Self::COMPACT_DEAD_FLOOR || dead < Self::COMPACT_DEAD_RATIO * live {
            return;
        }
        let timers = &self.timers;
        let mut removed = 0usize;
        self.queue.retain(|kind| match kind {
            EventKind::Timer(id) if !timers.is_live(*id) => {
                removed += 1;
                false
            }
            _ => true,
        });
        self.queued_timers -= removed;
        self.timer_compactions += 1;
    }

    /// Removes the event with the smallest key across the heap and the
    /// current-instant FIFO, unless that key lies past `end_micros` (or
    /// nothing is pending). Keys are unique, so the minimum is unambiguous.
    fn pop_due(&mut self, end_micros: u64) -> Option<(u128, EventKind)> {
        let (key, take_fifo) = match (self.now_fifo.front(), self.queue.peek_key()) {
            (Some(&(fifo_key, _)), Some(heap_key)) if fifo_key < heap_key => (fifo_key, true),
            (Some(&(fifo_key, _)), None) => (fifo_key, true),
            (_, Some(heap_key)) => (heap_key, false),
            (None, None) => return None,
        };
        if key_time_micros(key) > end_micros {
            return None;
        }
        if take_fifo {
            self.now_fifo.pop_front()
        } else {
            self.queue.pop()
        }
    }

    /// Runs one agent callback with the reusable scratch action buffer and
    /// applies whatever actions it emitted.
    ///
    /// Actions are applied *after* the callback returns (they only push
    /// events or retire timers — they never re-enter an agent), so a single
    /// scratch buffer suffices and steady-state callbacks allocate nothing.
    fn run_agent<F>(&mut self, node: OverlayId, invoke: F)
    where
        F: FnOnce(&mut A, &mut Context<'_, A::Msg>),
    {
        let mut actions = std::mem::take(&mut self.scratch_actions);
        {
            let mut ctx = Context::with_recorder(
                self.now,
                node,
                &mut self.rng,
                &mut actions,
                &mut self.timers,
                self.recorder.as_deref_mut(),
            );
            invoke(&mut self.agents[node], &mut ctx);
        }
        self.apply_actions(node, &mut actions);
        self.scratch_actions = actions;
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.agents.len() {
            self.run_agent(node, |agent, ctx| agent.on_start(ctx));
        }
    }

    /// Runs the simulation until simulated time `end` (inclusive of events at
    /// `end`). Events scheduled after `end` remain queued.
    pub fn run_until(&mut self, end: SimTime) {
        self.start_if_needed();
        let end_micros = end.as_micros();
        while let Some((key, kind)) = self.pop_due(end_micros) {
            if matches!(kind, EventKind::Timer(_)) {
                self.queued_timers -= 1;
            }
            self.now = SimTime::from_micros(key_time_micros(key));
            self.counters.events += 1;
            if let Some(p) = &mut self.profile {
                let depth = self.queue.len() + self.now_fifo.len();
                p.peak_depth = p.peak_depth.max(depth);
                p.depth_sum += depth as u128;
                p.depth_samples += 1;
            }
            self.dispatch(kind);
        }
        self.now = end;
    }

    /// Runs until `end`, invoking `sample` every `interval` of simulated
    /// time (including at `end`). Used by harnesses to build bandwidth-over-
    /// time series.
    pub fn run_sampled<F>(&mut self, end: SimTime, interval: SimDuration, mut sample: F)
    where
        F: FnMut(SimTime, &Sim<A>),
    {
        assert!(!interval.is_zero(), "sampling interval must be non-zero");
        let mut next = self.now + interval;
        while next < end {
            self.run_until(next);
            sample(next, self);
            next += interval;
        }
        self.run_until(end);
        sample(end, self);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Hop(fid) => self.handle_hop(fid),
            EventKind::Deliver(fid) => self.handle_deliver(fid),
            EventKind::Timer(id) => self.handle_timer(id),
            EventKind::Fail(node) => {
                self.failed[node] = true;
            }
        }
    }

    fn handle_hop(&mut self, fid: FlightId) {
        let flight = self.flights.get(fid);
        let links = self.network.route_links(flight.route);
        let hop = flight.hop as usize;
        if hop >= links.len() {
            let delay = if links.is_empty() {
                LOOPBACK_DELAY
            } else {
                SimDuration::ZERO
            };
            let at = self.now + delay;
            self.push(at, EventKind::Deliver(fid));
            return;
        }
        let link = links[hop] as DirectedLinkId;
        let (size_bytes, trace) = (flight.size_bytes, flight.trace);
        let (from, to) = (flight.from, flight.to);
        match self
            .network
            .offer_hop(self.now, link, size_bytes, trace, &mut self.rng)
        {
            HopOutcome::Arrive(at) => {
                self.flights.get_mut(fid).hop += 1;
                self.push(at, EventKind::Hop(fid));
            }
            HopOutcome::DroppedQueue | HopOutcome::DroppedLoss | HopOutcome::DroppedDown => {
                self.counters.dropped_in_network += 1;
                self.flights.release(fid);
                self.trace(CAT_SIM, from as u32, || TraceData::Drop {
                    to: to as u32,
                    reason: DropReason::Network,
                });
            }
        }
    }

    fn handle_deliver(&mut self, fid: FlightId) {
        let flight = self.flights.take(fid);
        let node = flight.to;
        if self.failed[node] {
            self.counters.dropped_dest_failed += 1;
            self.trace(CAT_SIM, flight.from as u32, || TraceData::Drop {
                to: node as u32,
                reason: DropReason::DestFailed,
            });
            return;
        }
        // Overload resource model (first arrival only — a `charged` flight
        // already waited out its service slot): the message is shed if the
        // destination is a `DropTail` queue at budget; otherwise its
        // service time is booked and, when earlier work is still
        // backlogged, its delivery is deferred to the end of its own slot.
        // Later bookings get strictly later slots, so per-node FIFO order
        // is preserved, and the model draws no RNG.
        if !flight.charged {
            if let Some(states) = &mut self.resources {
                if let Some(state) = states[node].as_mut() {
                    let now_us = self.now.as_micros();
                    let service_us = ((1e6 / state.model.drain_per_sec) as u64).max(1);
                    let backlog_us = state.busy_until_us.saturating_sub(now_us);
                    let depth = (backlog_us / service_us) as u32;
                    if depth >= state.model.queue_budget
                        && state.model.discipline == QueueDiscipline::DropTail
                    {
                        self.counters.dropped_overload += 1;
                        self.trace(CAT_SIM, flight.from as u32, || TraceData::Drop {
                            to: node as u32,
                            reason: DropReason::Overload,
                        });
                        return;
                    }
                    state.busy_until_us = state.busy_until_us.max(now_us) + service_us;
                    state.peak_depth = state.peak_depth.max(depth + 1);
                    if backlog_us > 0 {
                        let at = SimTime::from_micros(state.busy_until_us);
                        let mut flight = flight;
                        flight.charged = true;
                        let fid = self.flights.alloc(flight);
                        self.push(at, EventKind::Deliver(fid));
                        return;
                    }
                }
            }
        }
        self.counters.delivered += 1;
        match flight.class {
            MsgClass::Data => self.traffic[node].data_bytes_in += flight.size_bytes as u64,
            MsgClass::Control => self.traffic[node].control_bytes_in += flight.size_bytes as u64,
        }
        let (from, class, size_bytes) = (flight.from, flight.class, flight.size_bytes);
        self.trace(CAT_SIM, node as u32, || TraceData::Deliver {
            from: from as u32,
            control: matches!(class, MsgClass::Control),
            bytes: size_bytes,
        });
        self.run_agent(node, |agent, ctx| {
            agent.on_message(ctx, flight.from, flight.msg)
        });
    }

    fn handle_timer(&mut self, id: TimerId) {
        let Some((node, tag)) = self.timers.retire(id) else {
            // The timer was cancelled between arming and expiry.
            return;
        };
        let node = node as OverlayId;
        if self.failed[node] {
            return;
        }
        self.counters.timers_fired += 1;
        self.trace(CAT_SIM, node as u32, || TraceData::TimerFire { tag });
        self.run_agent(node, |agent, ctx| agent.on_timer(ctx, tag));
    }

    fn apply_actions(&mut self, node: OverlayId, actions: &mut Vec<Action<A::Msg>>) {
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    to,
                    msg,
                    size_bytes,
                    class,
                    trace,
                } => self.send_message(node, to, msg, size_bytes, class, trace),
                Action::SetTimer { id, delay, tag } => {
                    // The (node, tag) metadata lives in the timer slab,
                    // recorded when the context allocated `id`; the copy in
                    // the action exists for runtimes that keep their own
                    // timer state (see tests/live_runtime.rs).
                    debug_assert_eq!(
                        self.timers.peek(id),
                        Some((node as u32, tag)),
                        "SetTimer ids must come from this run's Context::set_timer"
                    );
                    let at = self.now + delay;
                    self.push(at, EventKind::Timer(id));
                }
                Action::CancelTimer(id) => {
                    self.timers.retire(id);
                }
            }
        }
    }

    fn send_message(
        &mut self,
        from: OverlayId,
        to: OverlayId,
        msg: A::Msg,
        size_bytes: u32,
        class: MsgClass,
        trace: Option<u64>,
    ) {
        if self.failed[from] {
            self.counters.dropped_src_failed += 1;
            self.trace(CAT_SIM, from as u32, || TraceData::Drop {
                to: to as u32,
                reason: DropReason::SrcFailed,
            });
            return;
        }
        match class {
            MsgClass::Data => self.traffic[from].data_bytes_out += size_bytes as u64,
            MsgClass::Control => self.traffic[from].control_bytes_out += size_bytes as u64,
        }
        self.trace(CAT_SIM, from as u32, || TraceData::Send {
            to: to as u32,
            control: matches!(class, MsgClass::Control),
            bytes: size_bytes,
        });
        // Partition cut: the sender has paid its outbound bytes (the packet
        // left the host), but nothing crossing the cut arrives.
        if let Some(sides) = &self.partition {
            if sides[from] != sides[to] {
                self.counters.dropped_partitioned += 1;
                self.trace(CAT_SIM, from as u32, || TraceData::Drop {
                    to: to as u32,
                    reason: DropReason::Partitioned,
                });
                return;
            }
        }
        // Control-plane fault injection (drop, then duplicate, then delay —
        // a fixed draw order so traces are reproducible). Only consulted
        // when a plan is installed for the sender.
        let mut msg = msg;
        let mut duplicated = false;
        let mut launch_delay = SimDuration::ZERO;
        if matches!(class, MsgClass::Control) {
            if let Some(plan) = self.faults.as_ref().and_then(|plans| plans[from]) {
                if plan.drop_chance > 0.0 && self.rng.chance(plan.drop_chance) {
                    self.counters.dropped_faulted += 1;
                    self.trace(CAT_SIM, from as u32, || TraceData::Drop {
                        to: to as u32,
                        reason: DropReason::Faulted,
                    });
                    return;
                }
                if plan.duplicate_chance > 0.0 && self.rng.chance(plan.duplicate_chance) {
                    self.counters.duplicated_faulted += 1;
                    duplicated = true;
                }
                if plan.delay_chance > 0.0 && self.rng.chance(plan.delay_chance) {
                    self.counters.delayed_faulted += 1;
                    launch_delay = plan.delay;
                }
            }
        }
        // Data-plane adversary injection (stall, then corrupt — same fixed
        // draw order discipline, each draw gated on a positive chance so
        // adversary-free plans stay byte-identical).
        if matches!(class, MsgClass::Data) {
            if let Some(plan) = self.faults.as_ref().and_then(|plans| plans[from]) {
                if plan.stall_chance > 0.0 && self.rng.chance(plan.stall_chance) {
                    self.counters.stalled_adversary += 1;
                    self.trace(CAT_SIM, from as u32, || TraceData::Drop {
                        to: to as u32,
                        reason: DropReason::Stalled,
                    });
                    return;
                }
                if plan.corrupt_chance > 0.0 && self.rng.chance(plan.corrupt_chance) {
                    self.counters.corrupted_adversary += 1;
                    msg = A::tamper(msg);
                }
            }
        }
        let Some(route) = self.network.route(from, to) else {
            self.counters.dropped_in_network += 1;
            self.trace(CAT_SIM, from as u32, || TraceData::Drop {
                to: to as u32,
                reason: DropReason::NoRoute,
            });
            return;
        };
        if duplicated {
            let copy = self.flights.alloc(Flight {
                from,
                to,
                msg: msg.clone(),
                size_bytes,
                class,
                trace,
                route,
                hop: 0,
                charged: false,
            });
            self.push(self.now + launch_delay, EventKind::Hop(copy));
        }
        let fid = self.flights.alloc(Flight {
            from,
            to,
            msg,
            size_bytes,
            class,
            trace,
            route,
            hop: 0,
            charged: false,
        });
        self.push(self.now + launch_delay, EventKind::Hop(fid));
    }

    /// Pool introspection used by tests and benchmarks: `(flight slots,
    /// free flight slots, timer slots, live timers)`. Slot counts are
    /// high-water marks; steady-state traffic recycles slots instead of
    /// growing these.
    pub fn pool_stats(&self) -> (usize, usize, usize, usize) {
        (
            self.flights.slots(),
            self.flights.free_slots(),
            self.timers.slots(),
            self.timers.live(),
        )
    }

    /// Number of pending events across the heap and the current-instant
    /// FIFO. Used by the dead-timer compaction regression tests.
    pub fn queue_depth(&self) -> usize {
        self.queue.len() + self.now_fifo.len()
    }

    /// Dead-timer compaction sweeps run so far.
    pub fn timer_compactions(&self) -> u64 {
        self.timer_compactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    /// A small ping-pong protocol used to exercise the runtime.
    #[derive(Clone, Debug)]
    enum PingMsg {
        Ping(u32),
        Pong(u32),
    }

    struct PingAgent {
        peer: OverlayId,
        initiator: bool,
        pings_to_send: u32,
        pongs_received: Vec<(SimTime, u32)>,
        timer_tags: Vec<u64>,
        /// When each `on_start` ran.
        starts: Vec<SimTime>,
    }

    impl PingAgent {
        fn new(peer: OverlayId, initiator: bool, pings: u32) -> Self {
            PingAgent {
                peer,
                initiator,
                pings_to_send: pings,
                pongs_received: Vec::new(),
                timer_tags: Vec::new(),
                starts: Vec::new(),
            }
        }
    }

    impl Agent for PingAgent {
        type Msg = PingMsg;

        fn on_start(&mut self, ctx: &mut Context<'_, PingMsg>) {
            self.starts.push(ctx.now());
            if self.initiator && self.pings_to_send > 0 {
                ctx.send_data(self.peer, PingMsg::Ping(0), 100);
                ctx.set_timer(SimDuration::from_secs(1), 7);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, PingMsg>, from: OverlayId, msg: PingMsg) {
            match msg {
                PingMsg::Ping(n) => ctx.send_data(from, PingMsg::Pong(n), 100),
                PingMsg::Pong(n) => {
                    self.pongs_received.push((ctx.now(), n));
                    if n + 1 < self.pings_to_send {
                        ctx.send_data(self.peer, PingMsg::Ping(n + 1), 100);
                    }
                }
            }
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, PingMsg>, tag: u64) {
            self.timer_tags.push(tag);
        }
    }

    fn two_node_spec() -> NetworkSpec {
        let mut spec = NetworkSpec::new(2);
        spec.add_link(LinkSpec::new(0, 1, 10e6, SimDuration::from_millis(10)));
        spec.attach(0);
        spec.attach(1);
        spec
    }

    #[test]
    fn ping_pong_round_trips() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, true, 3), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_secs(5));
        let initiator = sim.agent(0);
        assert_eq!(initiator.pongs_received.len(), 3);
        // RTT is a bit over 20 ms (2 x 10 ms propagation + serialization).
        let first_rtt = initiator.pongs_received[0].0;
        assert!(first_rtt.as_micros() >= 20_000);
        assert!(first_rtt.as_micros() < 30_000);
    }

    #[test]
    fn recorder_and_profiling_observe_without_perturbing() {
        let run = |instrument: bool| {
            let spec = two_node_spec();
            let agents = vec![PingAgent::new(1, true, 3), PingAgent::new(0, false, 0)];
            let mut sim = Sim::new(&spec, agents, 1);
            if instrument {
                sim.install_recorder(&TraceSpec::parse("sim").unwrap());
                sim.enable_profiling();
            }
            sim.run_until(SimTime::from_secs(5));
            sim
        };
        let plain = run(false);
        let traced = run(true);
        // Tracing and profiling are purely observational.
        assert_eq!(plain.counters(), traced.counters());
        assert_eq!(
            plain.agent(0).pongs_received,
            traced.agent(0).pongs_received
        );
        assert!(plain.recorder.is_none() && plain.profile().is_none());

        let rec = traced.recorder.as_deref().unwrap();
        // 3 pings + 3 pongs, each a send + a deliver, plus one timer fire.
        let kinds: Vec<_> = rec.events().map(|e| e.data.kind()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "send").count(), 6);
        assert_eq!(kinds.iter().filter(|k| **k == "deliver").count(), 6);
        assert_eq!(kinds.iter().filter(|k| **k == "timer_fire").count(), 1);
        assert_eq!(rec.evicted(), 0);
        // Event timestamps are sim time, monotonically non-decreasing.
        let times: Vec<_> = rec.events().map(|e| e.t_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));

        let profile = traced.profile().unwrap();
        assert_eq!(profile.events, traced.counters().events);
        assert!(profile.peak_queue_depth >= 1);
        assert!(profile.mean_queue_depth > 0.0);
        assert!(profile.flight_slots >= 1);
        assert_eq!(profile.wall_secs, 0.0, "the sim never reads a wall clock");
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, true, 1), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_millis(500));
        assert!(sim.agent(0).timer_tags.is_empty());
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.agent(0).timer_tags, vec![7]);
        assert_eq!(sim.counters().timers_fired, 1);
    }

    /// Clearing a node's failed flag on a started run starts its next
    /// incarnation: a timer armed before the crash and due after the rejoin
    /// neither fires nor counts, and `on_start` runs once, after that timer
    /// is retired, so the timer it arms fires. Clearing the flag before the
    /// start only clears it: the start bootstraps the node once.
    #[test]
    fn a_rejoin_cancels_the_timers_armed_before_it() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, true, 1), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.set_node_failed(0, true);
        sim.set_node_failed(0, false);
        sim.run_until(SimTime::from_millis(500));
        assert_eq!(sim.agent(0).starts, vec![SimTime::ZERO]);
        // Due after the rejoin, armed before the crash: never fires.
        sim.invoke_agent(0, |_, ctx| {
            ctx.set_timer(SimDuration::from_secs(5), 1);
        });
        // The start's tag-7 timer (due at 1 s) is dropped while down.
        sim.schedule_failure(SimTime::from_millis(700), 0);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.agent(0).starts, vec![SimTime::ZERO]);
        sim.set_node_failed(0, false);
        assert_eq!(
            sim.agent(0).starts,
            vec![SimTime::ZERO, SimTime::from_secs(2)],
            "the rejoin runs on_start once"
        );
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(
            sim.agent(0).timer_tags,
            vec![7],
            "only the timer the rejoin's on_start armed fires"
        );
        assert_eq!(sim.counters().timers_fired, 1);
        assert_eq!(sim.agent(0).pongs_received.len(), 2, "one ping per start");
        let (_, _, _, live) = sim.pool_stats();
        assert_eq!(live, 0);
    }

    #[test]
    fn failed_nodes_stop_receiving() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, true, 100), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.schedule_failure(SimTime::from_millis(50), 1);
        sim.run_until(SimTime::from_secs(10));
        // The exchange stops shortly after the failure.
        let pongs = sim.agent(0).pongs_received.len();
        assert!(
            pongs < 5,
            "expected the exchange to stall, got {pongs} pongs"
        );
        assert!(sim.is_failed(1));
        assert!(sim.counters().dropped_dest_failed > 0 || sim.counters().dropped_src_failed > 0);
    }

    /// A node down from the start (as `ScenarioDriver::install` leaves one
    /// that joins later) sends nothing: its `on_start` ping is dropped at
    /// the sender and nothing is delivered.
    #[test]
    fn a_node_failed_before_start_drops_its_sends() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, true, 3), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.set_node_failed(0, true);
        sim.run_until(SimTime::from_secs(5));
        let counters = sim.counters();
        assert_eq!(counters.dropped_src_failed, 1);
        assert_eq!(counters.delivered, 0);
        assert_eq!(sim.traffic(0).data_bytes_out, 0);
    }

    #[test]
    fn traffic_counters_accumulate_per_class() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, true, 2), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.traffic(1).data_bytes_in, 200);
        assert_eq!(sim.traffic(0).data_bytes_in, 200);
        assert_eq!(sim.traffic(0).control_bytes_in, 0);
    }

    #[test]
    fn events_scheduled_after_time_rewind_dispatch_in_order() {
        // run_until with an earlier end rewinds the clock; events scheduled
        // afterwards at the rewound instant must still dispatch in global
        // (time, seq) order ahead of previously queued later events.
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, false, 0), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_secs(10));
        sim.schedule_failure(SimTime::from_secs(10), 1); // at == now
        sim.run_until(SimTime::from_secs(5)); // rewind; failure still queued

        // A timer armed at the rewound instant, earlier than the failure.
        sim.invoke_agent(1, |_, ctx| {
            ctx.set_timer(SimDuration::ZERO, 9);
        });
        sim.run_until(SimTime::from_secs(20));
        // Chronological order is the timer (5 s), then Fail(10): the timer
        // fires while the node is still up.
        assert_eq!(sim.agent(1).timer_tags, vec![9]);
        assert!(sim.is_failed(1));
    }

    #[test]
    fn loopback_delivery_between_colocated_participants() {
        // Both participants share router 0; the route is RouteId::EMPTY and
        // delivery happens after the fixed loopback delay, crossing no
        // modelled link.
        let mut spec = NetworkSpec::new(1);
        spec.attach(0);
        spec.attach(0);
        let agents = vec![PingAgent::new(1, true, 2), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_secs(1));
        let initiator = sim.agent(0);
        assert_eq!(initiator.pongs_received.len(), 2);
        // RTT is exactly two loopback delays (2 x 100 us).
        assert_eq!(initiator.pongs_received[0].0.as_micros(), 200);
        assert_eq!(sim.counters().delivered, 4);
        assert_eq!(sim.network().total_bytes_sent(), 0, "no physical link used");
    }

    /// An agent that arms a timer and cancels it just before it would fire,
    /// then re-arms; exercises the generation-stamped slab through the sim.
    struct CancelAgent {
        fired: Vec<u64>,
        pending: Option<TimerId>,
        cancels_left: u32,
    }

    impl Agent for CancelAgent {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            self.pending = Some(ctx.set_timer(SimDuration::from_secs(2), 1));
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: OverlayId, _msg: ()) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, ()>, tag: u64) {
            self.fired.push(tag);
            if tag == 0 && self.cancels_left > 0 {
                self.cancels_left -= 1;
                // Cancel the pending long timer and re-arm both.
                if let Some(id) = self.pending.take() {
                    ctx.cancel_timer(id);
                }
                self.pending = Some(ctx.set_timer(SimDuration::from_secs(2), 1));
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
        }
    }

    #[test]
    fn cancelled_timers_never_fire_and_slots_recycle() {
        let spec = two_node_spec();
        let agents = vec![
            CancelAgent {
                fired: Vec::new(),
                pending: None,
                cancels_left: 5,
            },
            CancelAgent {
                fired: Vec::new(),
                pending: None,
                cancels_left: 0,
            },
        ];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_secs(20));
        // Node 0 keeps cancelling tag-1 until its last re-arm finally fires:
        // tag 0 fires at 1..=6 s, the surviving tag 1 fires at 8 s.
        assert_eq!(sim.agent(0).fired, vec![0, 0, 0, 0, 0, 0, 1]);
        // Node 1 never cancels: tag 0 at 1 s, tag 1 at 2 s.
        assert_eq!(sim.agent(1).fired, vec![0, 1]);
        let (_, _, timer_slots, live) = sim.pool_stats();
        assert_eq!(live, 0, "all timers resolved");
        // Four timers are live across the two nodes, plus one transient
        // slot because `set_timer` allocates during the callback while the
        // matching cancel is applied after it returns. Five cancel cycles
        // must not grow the slab beyond that.
        assert!(
            timer_slots <= 5,
            "slots recycle instead of growing, got {timer_slots}"
        );
    }

    /// An agent that re-arms a far-future watchdog on every tick, cancelling
    /// the previous one — the churn pattern that used to grow the event heap
    /// without bound.
    struct WatchdogAgent {
        pending: Option<TimerId>,
        rearms: u32,
    }

    impl Agent for WatchdogAgent {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: OverlayId, _msg: ()) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, ()>, tag: u64) {
            if tag != 0 {
                return;
            }
            if let Some(id) = self.pending.take() {
                ctx.cancel_timer(id);
            }
            // Watchdog far beyond the run: it only ever dies by cancel.
            self.pending = Some(ctx.set_timer(SimDuration::from_secs(10_000), 1));
            self.rearms += 1;
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
    }

    #[test]
    fn dead_timer_compaction_bounds_heap_growth() {
        let spec = two_node_spec();
        let agents = vec![
            WatchdogAgent {
                pending: None,
                rearms: 0,
            },
            WatchdogAgent {
                pending: None,
                rearms: 0,
            },
        ];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_secs(60));
        let rearms = sim.agent(0).rearms + sim.agent(1).rearms;
        assert!(rearms > 10_000, "workload too small: {rearms} re-arms");
        assert!(sim.timer_compactions() > 0, "compaction never triggered");
        let (_, _, _, live) = sim.pool_stats();
        let bound = Sim::<WatchdogAgent>::COMPACT_DEAD_RATIO * live.max(1)
            + Sim::<WatchdogAgent>::COMPACT_DEAD_FLOOR
            + live;
        assert!(
            sim.queue_depth() <= bound,
            "queue depth {} exceeds the dead-timer bound {bound} ({live} live timers, {rearms} re-arms)",
            sim.queue_depth()
        );
    }

    #[test]
    fn compaction_does_not_change_timer_outcomes() {
        // The cancel-heavy CancelAgent workload from above, re-run to make
        // sure results are identical whether or not sweeps happen (they do
        // not trigger here; this guards the counters stay coherent).
        let spec = two_node_spec();
        let agents = vec![
            CancelAgent {
                fired: Vec::new(),
                pending: None,
                cancels_left: 5,
            },
            CancelAgent {
                fired: Vec::new(),
                pending: None,
                cancels_left: 0,
            },
        ];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(sim.agent(0).fired, vec![0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(sim.timer_compactions(), 0, "below the sweep threshold");
        assert_eq!(sim.queue_depth(), 0, "all events resolved by the end");
    }

    #[test]
    fn mid_run_link_outage_stops_and_recovers_traffic() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, true, 1_000), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.run_until(SimTime::from_secs(1));
        let before = sim.agent(0).pongs_received.len();
        assert!(before > 0);
        sim.network_mut().set_link_up(0, false);
        sim.run_until(SimTime::from_secs(2));
        let during = sim.agent(0).pongs_received.len();
        assert!(
            during <= before + 1,
            "exchange kept running over a dead link"
        );
        assert!(sim.counters().dropped_in_network > 0);
        sim.network_mut().set_link_up(0, true);
        // The ping-pong chain died with the dropped packet; restart it via
        // the scenario-driver hook.
        sim.invoke_agent(0, |agent, ctx| {
            ctx.send_data(agent.peer, PingMsg::Ping(500), 100);
        });
        sim.run_until(SimTime::from_secs(3));
        assert!(
            sim.agent(0).pongs_received.len() > during,
            "exchange did not recover after the link came back"
        );
    }

    /// Flights still queued when the simulator is torn down own their
    /// payloads; dropping the flight slab must drop them.
    #[test]
    fn in_flight_payloads_are_dropped_with_the_sim() {
        use std::sync::Arc;

        #[derive(Clone)]
        struct Payload(#[allow(dead_code)] Arc<()>);

        struct Mute;
        impl Agent for Mute {
            type Msg = Payload;
            fn on_start(&mut self, _ctx: &mut Context<'_, Payload>) {}
            fn on_message(&mut self, _ctx: &mut Context<'_, Payload>, _from: usize, _m: Payload) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_, Payload>, _tag: u64) {}
        }

        let keeper = Arc::new(());
        let spec = two_node_spec();
        let mut sim = Sim::new(&spec, vec![Mute, Mute], 1);
        for _ in 0..5 {
            let payload = Payload(keeper.clone());
            sim.invoke_agent(0, move |_, ctx| ctx.send_data(1, payload, 100));
        }
        // Advance partway: some flights delivered, some still in the air.
        sim.run_until(SimTime::from_millis(1));
        assert!(Arc::strong_count(&keeper) > 1, "flights still queued");
        drop(sim);
        assert_eq!(
            Arc::strong_count(&keeper),
            1,
            "queued flight payloads leaked at teardown"
        );
    }

    /// A flight slot is an `Option<Flight<M>>`, and the slot layout depends
    /// on `Flight`'s `charged: bool` giving `Option` a niche: the slot costs
    /// no discriminant and stays the size of the flight it holds.
    #[test]
    fn flight_slots_cost_no_discriminant() {
        use std::mem::size_of;
        assert_eq!(size_of::<Option<Flight<u64>>>(), size_of::<Flight<u64>>());
        assert_eq!(
            size_of::<Option<Flight<[u64; 6]>>>(),
            size_of::<Flight<[u64; 6]>>()
        );
    }

    /// What a network holds per link: one shared `LinkParams` per physical
    /// link, at most 40 bytes, and in each view one 8-byte `LinkClock` per
    /// directed link. A field added to either table fails here by name.
    #[test]
    fn link_tables_cost_40_bytes_shared_and_8_per_view() {
        use crate::link::{LinkClock, LinkParams};
        use std::mem::size_of;
        assert!(
            size_of::<LinkParams>() <= 40,
            "LinkParams is {} bytes",
            size_of::<LinkParams>()
        );
        assert_eq!(
            size_of::<LinkClock>(),
            8,
            "a view's state per directed link"
        );
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let run = |seed| {
            let spec = two_node_spec();
            let agents = vec![PingAgent::new(1, true, 5), PingAgent::new(0, false, 0)];
            let mut sim = Sim::new(&spec, agents, seed);
            sim.run_until(SimTime::from_secs(5));
            sim.agent(0).pongs_received.clone()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn fault_plan_drops_control_but_not_data() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, false, 0), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.set_fault_plan(
            0,
            FaultPlan {
                drop_chance: 1.0,
                ..FaultPlan::default()
            },
        );
        sim.invoke_agent(0, |_, ctx| ctx.send_control(1, PingMsg::Ping(0), 100));
        sim.invoke_agent(0, |_, ctx| ctx.send_data(1, PingMsg::Ping(1), 100));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.counters().dropped_faulted, 1);
        // The data ping arrived and earned a pong (sent clean: the receiver
        // has no plan installed).
        assert_eq!(sim.agent(0).pongs_received.len(), 1);
        // The outbound bytes were still paid for the dropped control send.
        assert_eq!(sim.traffic(0).control_bytes_out, 100);
        // An all-zero plan, the scenario driver's way of lifting one,
        // restores clean control traffic.
        sim.set_fault_plan(0, FaultPlan::default());
        assert_eq!(sim.fault_plan(0), Some(FaultPlan::default()));
        sim.invoke_agent(0, |_, ctx| ctx.send_control(1, PingMsg::Ping(2), 100));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.counters().dropped_faulted, 1);
        assert_eq!(sim.traffic(1).control_bytes_in, 100);
    }

    #[test]
    fn fault_plan_duplicates_and_delays_control() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, false, 0), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.set_fault_plan(
            0,
            FaultPlan {
                duplicate_chance: 1.0,
                delay_chance: 1.0,
                delay: SimDuration::from_millis(500),
                ..FaultPlan::default()
            },
        );
        sim.invoke_agent(0, |_, ctx| ctx.send_control(1, PingMsg::Ping(0), 100));
        // Before the injected delay elapses nothing has arrived.
        sim.run_until(SimTime::from_millis(400));
        assert_eq!(sim.traffic(1).control_bytes_in, 0);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.counters().duplicated_faulted, 1);
        assert_eq!(sim.counters().delayed_faulted, 1);
        // Both copies of the duplicated ping arrived (each earning a pong).
        assert_eq!(sim.traffic(1).control_bytes_in, 200);
        assert_eq!(sim.agent(0).pongs_received.len(), 2);
    }

    #[test]
    fn partition_drops_cross_side_traffic_until_healed() {
        // Three participants on the hub: 0 and 2 on one side, 1 on the other.
        let mut spec = NetworkSpec::new(4);
        for i in 0..3 {
            spec.add_link(LinkSpec::new(3, i, 10e6, SimDuration::from_millis(10)));
            spec.attach(i);
        }
        let agents = vec![
            PingAgent::new(1, false, 0),
            PingAgent::new(0, false, 0),
            PingAgent::new(0, false, 0),
        ];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.set_partition(&[1]);
        assert!(sim.is_partitioned());
        sim.invoke_agent(0, |_, ctx| ctx.send_data(1, PingMsg::Ping(0), 100));
        sim.invoke_agent(2, |_, ctx| ctx.send_data(0, PingMsg::Ping(0), 100));
        sim.run_until(SimTime::from_secs(1));
        // 0 -> 1 crossed the cut and died; 2 -> 0 stayed on-side and its
        // pong flowed back.
        assert_eq!(sim.counters().dropped_partitioned, 1);
        assert_eq!(sim.traffic(1).data_bytes_in, 0);
        assert_eq!(sim.agent(2).pongs_received.len(), 1);
        sim.heal_partition();
        assert!(!sim.is_partitioned());
        sim.invoke_agent(0, |_, ctx| ctx.send_data(1, PingMsg::Ping(1), 100));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.traffic(1).data_bytes_in, 100);
        assert_eq!(sim.counters().dropped_partitioned, 1);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = || {
            let spec = two_node_spec();
            let agents = vec![PingAgent::new(1, false, 0), PingAgent::new(0, false, 0)];
            let mut sim = Sim::new(&spec, agents, 42);
            sim.set_fault_plan(
                0,
                FaultPlan {
                    drop_chance: 0.3,
                    duplicate_chance: 0.2,
                    delay_chance: 0.2,
                    delay: SimDuration::from_millis(50),
                    ..FaultPlan::default()
                },
            );
            for i in 0..50 {
                sim.invoke_agent(0, move |_, ctx| ctx.send_control(1, PingMsg::Ping(i), 100));
                sim.run_until(SimTime::from_millis(20 * (i as u64 + 1)));
            }
            sim.run_until(SimTime::from_secs(5));
            (sim.counters(), sim.traffic(1))
        };
        let (c, t) = run();
        assert_eq!((c, t), run());
        assert!(c.dropped_faulted > 0, "drop chance never hit");
        assert!(c.duplicated_faulted > 0, "duplicate chance never hit");
        assert!(c.delayed_faulted > 0, "delay chance never hit");
    }

    #[test]
    fn resource_model_sheds_deterministically_past_the_budget() {
        // A burst of 10 back-to-back messages against a budget of 4 with a
        // slow drain: the first few occupy the queue, the rest are shed
        // (arrivals stagger by the link's serialization time, so one extra
        // message squeezes in while the head of the queue drains).
        let run = || {
            let spec = two_node_spec();
            let agents = vec![PingAgent::new(1, false, 0), PingAgent::new(0, false, 0)];
            let mut sim = Sim::new(&spec, agents, 1);
            sim.set_node_resources(
                1,
                NodeResources {
                    queue_budget: 4,
                    drain_per_sec: 10.0,
                    discipline: QueueDiscipline::DropTail,
                },
            );
            for i in 0..10 {
                sim.invoke_agent(0, move |_, ctx| ctx.send_data(1, PingMsg::Ping(i), 100));
            }
            sim.run_until(SimTime::from_secs(1));
            (sim.counters(), sim.node_overload_stats(1))
        };
        let (counters, stats) = run();
        assert_eq!(counters.dropped_overload, 5);
        assert_eq!(counters.delivered, 5 + 5, "5 pings admitted, 5 pongs back");
        assert_eq!(stats.peak_depth, 4, "backlog peaked at the budget");
        assert_eq!((counters, stats), run(), "the model is deterministic");
    }

    #[test]
    fn resource_model_drains_over_time_and_admits_again() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, false, 0), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.set_node_resources(
            1,
            NodeResources {
                queue_budget: 2,
                drain_per_sec: 10.0, // 100 ms of work per message
                discipline: QueueDiscipline::DropTail,
            },
        );
        for i in 0..4 {
            sim.invoke_agent(0, move |_, ctx| ctx.send_data(1, PingMsg::Ping(i), 100));
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.counters().dropped_overload, 1, "burst overflows");
        // A second's idle drained the backlog; a fresh send is admitted.
        sim.invoke_agent(0, |_, ctx| ctx.send_data(1, PingMsg::Ping(9), 100));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.counters().dropped_overload, 1, "drained queue admits");
        assert_eq!(sim.node_resources(1).map(|m| m.queue_budget), Some(2));
        assert_eq!(sim.node_resources(0), None);
    }

    #[test]
    fn unbounded_discipline_delays_instead_of_shedding() {
        // The same burst against the same drain, but with the unbounded
        // discipline: nothing is shed, the backlog sails past the nominal
        // budget, and the tail of the burst is served late — the messages
        // all arrive eventually, each a service slot after the previous.
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, false, 0), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        sim.set_node_resources(
            1,
            NodeResources {
                queue_budget: 4,
                drain_per_sec: 10.0,
                discipline: QueueDiscipline::Unbounded,
            },
        );
        for i in 0..10 {
            sim.invoke_agent(0, move |_, ctx| ctx.send_data(1, PingMsg::Ping(i), 100));
        }
        // At 0.5s only ~5 of the 10 serialized arrivals have cleared the
        // 100ms-per-message queue; by 2s all of them have.
        sim.run_until(SimTime::from_millis(500));
        let midway = sim.counters().delivered;
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.counters().dropped_overload, 0, "unbounded never sheds");
        assert!(
            sim.node_overload_stats(1).peak_depth > 4,
            "backlog grows past the nominal budget, got {}",
            sim.node_overload_stats(1).peak_depth
        );
        assert_eq!(
            sim.counters().delivered,
            10 + 10,
            "every ping (and its pong) is eventually served"
        );
        assert!(
            midway < sim.counters().delivered,
            "the tail of the burst was still queued at 0.5s ({midway} delivered)"
        );
    }

    #[test]
    fn resource_model_free_runs_are_untouched() {
        let run = |constrain: bool| {
            let spec = two_node_spec();
            let agents = vec![PingAgent::new(1, true, 50), PingAgent::new(0, false, 0)];
            let mut sim = Sim::new(&spec, agents, 7);
            if constrain {
                // A budget far above the workload: installed but never hit.
                sim.set_node_resources(
                    1,
                    NodeResources {
                        queue_budget: 1_000_000,
                        drain_per_sec: 1e9,
                        discipline: QueueDiscipline::DropTail,
                    },
                );
            }
            sim.run_until(SimTime::from_secs(10));
            (
                sim.counters(),
                sim.agent(0).pongs_received.clone(),
                sim.traffic(1),
            )
        };
        let (mut c, pongs, traffic) = run(true);
        assert_eq!(c.dropped_overload, 0);
        c.dropped_overload = 0;
        assert_eq!(
            (c, pongs, traffic),
            run(false),
            "an unexercised model must not perturb the run"
        );
    }

    #[test]
    fn run_sampled_invokes_callback_each_interval() {
        let spec = two_node_spec();
        let agents = vec![PingAgent::new(1, true, 1), PingAgent::new(0, false, 0)];
        let mut sim = Sim::new(&spec, agents, 1);
        let mut samples = Vec::new();
        sim.run_sampled(SimTime::from_secs(5), SimDuration::from_secs(1), |t, _| {
            samples.push(t.as_micros())
        });
        assert_eq!(samples.len(), 5);
        assert_eq!(*samples.last().unwrap(), 5_000_000);
    }
}
