//! The protocol-agent abstraction.
//!
//! Every protocol in this workspace (Bullet, RanSub-over-tree streaming, the
//! gossip baselines) is written as an [`Agent`]: a state machine that reacts
//! to received messages and timer expirations by emitting [`Action`]s. The
//! agent never touches the simulator directly, which keeps the protocol code
//! independent of the runtime that drives it (the discrete-event simulator in
//! this crate, or the thread-based live runtime in `tests/live_runtime.rs`).

use bullet_telemetry::{FlightRecorder, TraceData};

use crate::network::OverlayId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Handle to a pending timer, used for cancellation.
///
/// The value packs a slot index (low 32 bits) and a generation stamp (high
/// 32 bits) allocated by [`TimerAlloc`]; a retired id never matches a live
/// slot again, so cancelling an already-fired timer is a cheap no-op.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// Generation-stamped timer slot allocator.
///
/// Each armed timer occupies one slot; firing or cancelling the timer
/// *retires* the slot by bumping its generation and returning it to a free
/// list. A [`TimerId`] is live only while its generation matches its slot's
/// current generation, which gives runtimes O(1) cancellation with no
/// unbounded growth — unlike a cancelled-id set, which leaks an entry every
/// time an agent cancels a timer that already fired.
#[derive(Clone, Debug, Default)]
pub struct TimerAlloc {
    /// Current generation per slot.
    gens: Vec<u32>,
    /// Per-slot `(owning node, tag)` of the currently armed timer, or
    /// `(VACANT, _)` for a retired slot. Keeping the metadata here lets
    /// runtimes enqueue just the 8-byte [`TimerId`] per pending timer.
    meta: Vec<(u32, u64)>,
    /// Retired slots available for reuse.
    free: Vec<u32>,
}

/// The owner a retired timer slot records.
const VACANT: u32 = u32::MAX;

impl TimerAlloc {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn parts(id: TimerId) -> (u32, u32) {
        ((id.0 >> 32) as u32, id.0 as u32)
    }

    /// Allocates a live timer id owned by `node` carrying `tag`, reusing a
    /// retired slot when possible.
    pub fn alloc(&mut self, node: u32, tag: u64) -> TimerId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.meta[slot as usize] = (node, tag);
                slot
            }
            None => {
                assert!(self.gens.len() < u32::MAX as usize, "timer slots exhausted");
                self.gens.push(0);
                self.meta.push((node, tag));
                (self.gens.len() - 1) as u32
            }
        };
        TimerId(((self.gens[slot as usize] as u64) << 32) | slot as u64)
    }

    /// Whether `id` refers to a timer that has been armed but not yet fired
    /// or cancelled.
    pub fn is_live(&self, id: TimerId) -> bool {
        let (gen, slot) = Self::parts(id);
        self.gens.get(slot as usize) == Some(&gen)
    }

    /// Retires `id` (on firing or cancellation). Returns the timer's
    /// `(node, tag)` if the id was live; retiring an already-retired id is
    /// a no-op returning `None`.
    ///
    /// A slot whose generation reaches `u32::MAX` is never reused: reuse
    /// would let a `TimerId` from 2^32 cycles ago alias a live timer (ABA).
    /// Leaking that one slot keeps stale ids dead forever.
    pub fn retire(&mut self, id: TimerId) -> Option<(u32, u64)> {
        let (gen, slot) = Self::parts(id);
        match self.gens.get_mut(slot as usize) {
            Some(g) if *g == gen => {
                *g = g.wrapping_add(1);
                if *g != u32::MAX {
                    self.free.push(slot);
                }
                let meta = &mut self.meta[slot as usize];
                Some(std::mem::replace(meta, (VACANT, 0)))
            }
            _ => None,
        }
    }

    /// Retires every live timer `node` owns, as a rejoin needs: nothing a
    /// node armed before it (re)joined may fire afterwards. One pass over
    /// the slots.
    pub(crate) fn retire_node(&mut self, node: u32) {
        for slot in 0..self.gens.len() {
            if self.meta[slot].0 == node {
                let gen = self.gens[slot] as u64;
                self.retire(TimerId((gen << 32) | slot as u64));
            }
        }
    }

    /// The `(node, tag)` of a live timer without retiring it, or `None`
    /// if `id` is stale.
    pub fn peek(&self, id: TimerId) -> Option<(u32, u64)> {
        self.is_live(id).then(|| self.meta[id.0 as u32 as usize])
    }

    /// Number of currently live (armed) timers.
    pub fn live(&self) -> usize {
        self.gens.len() - self.free.len()
    }

    /// Total slots ever allocated — the allocator's high-water mark.
    pub fn slots(&self) -> usize {
        self.gens.len()
    }
}

/// Classification of a message for accounting purposes.
///
/// The paper reports per-node *control overhead* (≈30 Kbps) separately from
/// application data; tagging each send lets the harness reproduce that split
/// without protocols having to maintain their own byte counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Application payload (stream data).
    Data,
    /// Protocol control traffic (RanSub sets, Bloom filters, peering
    /// requests, transport feedback, ...).
    Control,
}

/// An output emitted by an agent in response to an event.
#[derive(Clone, Debug)]
pub enum Action<M> {
    /// Send `msg` of `size_bytes` to overlay participant `to`.
    Send {
        /// Destination overlay participant.
        to: OverlayId,
        /// The message payload.
        msg: M,
        /// Serialized size used for bandwidth accounting on the wire.
        size_bytes: u32,
        /// Data or control classification.
        class: MsgClass,
        /// Optional trace id for link-stress accounting.
        trace: Option<u64>,
    },
    /// Arm a timer that fires after `delay` with the given `tag`.
    SetTimer {
        /// Timer handle allocated by the context.
        id: TimerId,
        /// Delay until expiry.
        delay: SimDuration,
        /// Application-defined discriminator echoed back on expiry.
        tag: u64,
    },
    /// Cancel a previously armed timer.
    CancelTimer(TimerId),
}

/// The execution context handed to an agent callback.
///
/// It records the agent's outputs; the runtime applies them after the
/// callback returns. This "collect then apply" structure is what lets the
/// same protocol code run under both the simulator and a live runtime
/// (`tests/live_runtime.rs`).
pub struct Context<'a, M> {
    now: SimTime,
    node: OverlayId,
    rng: &'a mut SimRng,
    actions: &'a mut Vec<Action<M>>,
    timers: &'a mut TimerAlloc,
    /// Optional flight-recorder sink for protocol-level trace events
    /// (`None` unless the driving runtime installed one; recording never
    /// feeds back into protocol behaviour).
    recorder: Option<&'a mut FlightRecorder>,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context. Used by runtimes; protocol code only consumes it.
    pub fn new(
        now: SimTime,
        node: OverlayId,
        rng: &'a mut SimRng,
        actions: &'a mut Vec<Action<M>>,
        timers: &'a mut TimerAlloc,
    ) -> Self {
        Context {
            now,
            node,
            rng,
            actions,
            timers,
            recorder: None,
        }
    }

    /// Creates a context with a flight-recorder sink attached, so agent
    /// callbacks can emit protocol trace events via [`Context::trace`].
    pub fn with_recorder(
        now: SimTime,
        node: OverlayId,
        rng: &'a mut SimRng,
        actions: &'a mut Vec<Action<M>>,
        timers: &'a mut TimerAlloc,
        recorder: Option<&'a mut FlightRecorder>,
    ) -> Self {
        Context {
            now,
            node,
            rng,
            actions,
            timers,
            recorder,
        }
    }

    /// Whether any category in `mask` is being traced. Protocol code
    /// guards event construction behind this so the untraced path costs
    /// one branch.
    #[inline]
    pub fn tracing(&self, mask: u32) -> bool {
        self.recorder.as_ref().is_some_and(|rec| rec.wants(mask))
    }

    /// Records a protocol trace event on this node at the current sim
    /// time. A no-op without a recorder (or outside its category mask).
    #[inline]
    pub fn trace(&mut self, data: TraceData) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(self.now.as_micros(), self.node as u32, data);
        }
    }

    /// The current simulated (or wall-clock) time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The overlay id of the agent being invoked.
    pub fn node(&self) -> OverlayId {
        self.node
    }

    /// The deterministic random number generator for this run.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends an application-data message.
    pub fn send_data(&mut self, to: OverlayId, msg: M, size_bytes: u32) {
        self.actions.push(Action::Send {
            to,
            msg,
            size_bytes,
            class: MsgClass::Data,
            trace: None,
        });
    }

    /// Sends an application-data message carrying a trace id for link-stress
    /// accounting.
    pub fn send_data_traced(&mut self, to: OverlayId, msg: M, size_bytes: u32, trace: u64) {
        self.actions.push(Action::Send {
            to,
            msg,
            size_bytes,
            class: MsgClass::Data,
            trace: Some(trace),
        });
    }

    /// Sends a protocol-control message.
    pub fn send_control(&mut self, to: OverlayId, msg: M, size_bytes: u32) {
        self.actions.push(Action::Send {
            to,
            msg,
            size_bytes,
            class: MsgClass::Control,
            trace: None,
        });
    }

    /// Arms a timer firing after `delay`; `tag` is echoed back to
    /// [`Agent::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.timers.alloc(self.node as u32, tag);
        self.actions.push(Action::SetTimer { id, delay, tag });
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired timer is
    /// a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }
}

/// A protocol endpoint running on one overlay participant.
pub trait Agent: Sized {
    /// The wire message type exchanged between agents of this protocol.
    type Msg: Clone;

    /// Bootstraps the node: invoked when the run starts, before any message
    /// is delivered, and again each time the node comes back up (its failed
    /// flag cleared on a started run), after every timer it armed before
    /// has been cancelled.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Invoked when a message from `from` is delivered to this agent.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: OverlayId, msg: Self::Msg);

    /// Invoked when a timer armed via [`Context::set_timer`] expires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, tag: u64);

    /// Rewrites a data message an adversarial sender is corrupting in
    /// flight (a `FaultPlan` with `corrupt_chance` hit; see the simulator's
    /// fault plumbing). *Which* packets are corrupted is drawn off the
    /// simulator RNG; what corruption *means* is protocol-specific, so the
    /// protocol supplies the rewrite — e.g. Bullet flips the block digest
    /// its data packets carry. The default leaves messages untouched, so
    /// protocols that ignore adversaries run unchanged under any plan.
    fn tamper(msg: Self::Msg) -> Self::Msg {
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_records_actions_in_order() {
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut timers = TimerAlloc::new();
        let mut ctx: Context<'_, &'static str> = Context::new(
            SimTime::from_secs(1),
            3,
            &mut rng,
            &mut actions,
            &mut timers,
        );
        ctx.send_data(5, "payload", 1500);
        ctx.send_control(6, "ctrl", 100);
        let timer = ctx.set_timer(SimDuration::from_secs(5), 42);
        ctx.cancel_timer(timer);
        assert_eq!(actions.len(), 4);
        match &actions[0] {
            Action::Send {
                to,
                size_bytes,
                class,
                ..
            } => {
                assert_eq!(*to, 5);
                assert_eq!(*size_bytes, 1500);
                assert_eq!(*class, MsgClass::Data);
            }
            other => panic!("unexpected action {other:?}"),
        }
        match &actions[2] {
            Action::SetTimer { id, tag, .. } => {
                assert_eq!(*id, TimerId(0));
                assert_eq!(*tag, 42);
            }
            other => panic!("unexpected action {other:?}"),
        }
        match &actions[3] {
            Action::CancelTimer(id) => assert_eq!(*id, TimerId(0)),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn timer_ids_are_unique_across_contexts() {
        let mut rng = SimRng::new(1);
        let mut timers = TimerAlloc::new();
        let mut first = Vec::new();
        let id_a = Context::<'_, ()>::new(SimTime::ZERO, 0, &mut rng, &mut first, &mut timers)
            .set_timer(SimDuration::from_secs(1), 0);
        let mut second = Vec::new();
        let id_b = Context::<'_, ()>::new(SimTime::ZERO, 0, &mut rng, &mut second, &mut timers)
            .set_timer(SimDuration::from_secs(1), 0);
        assert_ne!(id_a, id_b);
    }

    #[test]
    fn timer_alloc_reuses_retired_slots_without_id_collisions() {
        let mut alloc = TimerAlloc::new();
        let a = alloc.alloc(3, 100);
        let b = alloc.alloc(4, 200);
        assert!(alloc.is_live(a) && alloc.is_live(b));
        assert_eq!(
            alloc.retire(a),
            Some((3, 100)),
            "live id retires to its meta"
        );
        assert_eq!(alloc.retire(a), None, "double retire is a no-op");
        assert!(!alloc.is_live(a));
        // The slot is reused but the generation differs, so the old id stays
        // dead and the new timer's metadata wins.
        let c = alloc.alloc(5, 300);
        assert_ne!(a, c);
        assert_eq!(a.0 as u32, c.0 as u32, "slot is reused");
        assert!(!alloc.is_live(a));
        assert!(alloc.is_live(c));
        assert_eq!(alloc.retire(c), Some((5, 300)));
        assert_eq!(alloc.retire(b), Some((4, 200)));
        assert_eq!(alloc.slots(), 2, "no growth from the retire/alloc cycle");
    }

    #[test]
    fn retire_node_retires_only_that_nodes_live_timers() {
        let mut alloc = TimerAlloc::new();
        let fired = alloc.alloc(1, 10);
        alloc.retire(fired);
        let [a, b] = [alloc.alloc(1, 11), alloc.alloc(1, 12)];
        let other = alloc.alloc(2, 20);
        alloc.retire_node(1);
        assert!(!alloc.is_live(a) && !alloc.is_live(b));
        assert_eq!(alloc.peek(other), Some((2, 20)));
        assert_eq!(alloc.live(), 1);
        alloc.retire_node(1);
        assert_eq!(alloc.free.len(), 2, "no slot is freed twice");
    }

    #[test]
    fn cancelling_after_fire_does_not_grow_state() {
        // The regression the slab fixes: a cancelled-id set grows forever
        // when agents cancel timers that already fired.
        let mut alloc = TimerAlloc::new();
        for i in 0..10_000u64 {
            let id = alloc.alloc(0, i);
            assert_eq!(alloc.retire(id), Some((0, i)), "fire");
            assert_eq!(alloc.retire(id), None, "cancel after fire is a no-op");
        }
        assert_eq!(alloc.slots(), 1, "a single slot is recycled throughout");
        assert_eq!(alloc.live(), 0);
    }
}
