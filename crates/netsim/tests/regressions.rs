//! Regression tests for three event-queue/timer edge paths of the
//! zero-allocation simulator rework:
//!
//! 1. the current-instant FIFO fast path after `run_until` rewinds the
//!    clock (a same-instant push must not be allowed to jump ahead of an
//!    earlier-keyed event still sitting in the heap, and vice versa), and
//! 2. cancelling a stale `TimerId` twice after its generation-stamped slot
//!    has been reused by a newer timer (the stale id must stay dead and the
//!    newer timer must be unaffected), and
//! 3. the dead-timer compaction sweep, which no golden run trips: removing
//!    cancelled timers from the heap and re-heapifying it must be invisible
//!    to everything the agents see.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bullet_netsim::{
    Agent, Context, LinkSpec, NetworkSpec, OverlayId, Sim, SimDuration, SimTime, TimerId,
};

fn two_node_spec() -> NetworkSpec {
    let mut spec = NetworkSpec::new(2);
    spec.add_link(LinkSpec::new(0, 1, 10e6, SimDuration::from_millis(10)));
    spec.attach(0);
    spec.attach(1);
    spec
}

/// Records its timer firings. The rewind tests arm its timers from outside,
/// between event-loop steps, the way scenario drivers act.
#[derive(Default)]
struct Recorder {
    fired: Vec<(u64, SimTime)>,
}

impl Agent for Recorder {
    type Msg = ();
    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: OverlayId, _msg: ()) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, tag: u64) {
        self.fired.push((tag, ctx.now()));
    }
}

/// Arms timer `tag` on `node`, `after` the simulator's current instant.
fn arm(sim: &mut Sim<Recorder>, node: OverlayId, after: SimDuration, tag: u64) {
    sim.invoke_agent(node, move |_, ctx| {
        ctx.set_timer(after, tag);
    });
}

/// After `run_until` rewinds the clock, a push at the rewound instant has a
/// *larger* sequence number but an *earlier* time than events already queued
/// at the old instant. The FIFO fast path must reject it (its key is not
/// larger than the FIFO back) so the heap restores global `(time, seq)`
/// order: here, the timer at t=5 s must fire before the failure queued at
/// t=10 s silences the node.
#[test]
fn clock_rewind_keeps_fifo_and_heap_in_global_key_order() {
    let spec = two_node_spec();
    let mut sim = Sim::new(&spec, vec![Recorder::default(), Recorder::default()], 1);
    sim.run_until(SimTime::from_secs(10));
    // Queued at the current instant: takes the FIFO fast path.
    sim.schedule_failure(SimTime::from_secs(10), 1);
    // Rewind the clock; the failure is still pending at t=10 s.
    sim.run_until(SimTime::from_secs(5));
    // Armed at the rewound "now": must NOT ride the FIFO behind the
    // t=10 s failure — chronological order is the timer first.
    arm(&mut sim, 1, SimDuration::ZERO, 1);
    assert!(!sim.is_failed(1));
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(
        sim.agent(1).fired,
        vec![(1, SimTime::from_secs(5))],
        "timer(5s) must fire before failure(10s) despite later scheduling"
    );
    assert!(sim.is_failed(1));
    assert_eq!(sim.counters().events, 2);
}

/// Same rewind, opposite order: events pushed at the rewound instant in
/// increasing key order may use the FIFO again, and they dispatch before
/// the later-time event left in the queue.
#[test]
fn pushes_after_rewind_dispatch_before_older_later_events() {
    let spec = two_node_spec();
    let mut sim = Sim::new(&spec, vec![Recorder::default(), Recorder::default()], 1);
    sim.run_until(SimTime::from_secs(10));
    arm(&mut sim, 0, SimDuration::ZERO, 1);
    sim.run_until(SimTime::from_secs(4));
    // Two same-instant events after the rewind; chronologically they come
    // first and must themselves stay in seq order.
    arm(&mut sim, 0, SimDuration::ZERO, 2);
    arm(&mut sim, 0, SimDuration::ZERO, 3);
    sim.run_until(SimTime::from_secs(4));
    let at = SimTime::from_secs;
    assert_eq!(
        sim.agent(0).fired,
        vec![(2, at(4)), (3, at(4))],
        "seq order"
    );
    // The t=10 s timer is still pending.
    arm(&mut sim, 0, SimDuration::from_secs(5), 4);
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(
        sim.agent(0).fired,
        vec![(2, at(4)), (3, at(4)), (4, at(9)), (1, at(10))],
        "timer(10s) dispatches after timer(9s)"
    );
    assert_eq!(sim.counters().events, 4);
}

/// Arms a short and a long timer; when the short one fires it cancels the
/// long timer's *stale predecessor id* twice, after the slot has been
/// reused. The stale cancels must be no-ops: the live reincarnation fires.
struct StaleCanceller {
    /// The id whose slot will be retired and reused.
    stale: Option<TimerId>,
    fired: Vec<(u64, SimTime)>,
}

const TAG_SHORT: u64 = 1;
const TAG_FIRST: u64 = 2;
const TAG_REUSED: u64 = 3;

impl Agent for StaleCanceller {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        // Slot 0: will fire at 1 s and be retired.
        self.stale = Some(ctx.set_timer(SimDuration::from_secs(1), TAG_FIRST));
        ctx.set_timer(SimDuration::from_secs(2), TAG_SHORT);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: OverlayId, _msg: ()) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, tag: u64) {
        self.fired.push((tag, ctx.now()));
        match tag {
            TAG_FIRST => {
                // Nothing: the slot is now retired and free for reuse.
            }
            TAG_SHORT => {
                // Reuse the retired slot (generation bumped), then cancel
                // the stale id twice. Neither cancel may touch the reused
                // slot's live timer.
                ctx.set_timer(SimDuration::from_secs(1), TAG_REUSED);
                let stale = self.stale.take().expect("armed at start");
                ctx.cancel_timer(stale);
                ctx.cancel_timer(stale);
            }
            _ => {}
        }
    }
}

#[test]
fn double_cancel_of_stale_id_after_slot_reuse_is_a_no_op() {
    let spec = two_node_spec();
    let agents = vec![
        StaleCanceller {
            stale: None,
            fired: Vec::new(),
        },
        StaleCanceller {
            stale: None,
            fired: Vec::new(),
        },
    ];
    let mut sim = Sim::new(&spec, agents, 7);
    sim.run_until(SimTime::from_secs(10));
    for node in 0..2 {
        let fired = &sim.agent(node).fired;
        assert_eq!(
            fired.iter().map(|&(tag, _)| tag).collect::<Vec<_>>(),
            vec![TAG_FIRST, TAG_SHORT, TAG_REUSED],
            "node {node}: the reused-slot timer must fire despite stale cancels"
        );
        assert_eq!(
            fired[2].1,
            SimTime::from_secs(3),
            "reused timer fires on time"
        );
    }
    let (_, _, timer_slots, live) = sim.pool_stats();
    assert_eq!(live, 0, "all timers resolved");
    assert!(
        timer_slots <= 4,
        "stale cancels must not grow the slab (got {timer_slots} slots)"
    );
    assert_eq!(sim.counters().timers_fired, 6);
}

const TAG_TICK: u64 = 0;
const TAG_WATCHDOG: u64 = 1;

/// Every delivery of a run, in dispatch order: `(time, receiver, seq)`.
type DeliveryLog = Rc<RefCell<Vec<(SimTime, OverlayId, u64)>>>;

/// Streams numbered messages to the next node and arms a watchdog on every
/// tick. With `cancel` it cancels the watchdog of eight ticks ago, leaving
/// the dead entries the sweep removes; without, every watchdog expires and
/// is ignored. Arming, sending and RNG use are the same either way, so the
/// two runs queue the same keys.
struct Watchdogs {
    cancel: bool,
    pending: VecDeque<TimerId>,
    next_seq: u64,
    log: DeliveryLog,
}

impl Agent for Watchdogs {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(1), TAG_TICK);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: OverlayId, seq: u64) {
        self.log.borrow_mut().push((ctx.now(), ctx.node(), seq));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, tag: u64) {
        if tag != TAG_TICK {
            return;
        }
        // Expiries scattered over 50–950 ms, so live and dead watchdogs sit
        // all through the heap, between the hops in flight, and the sweep
        // leaves an array that is far from heap order.
        let expiry = SimDuration::from_millis(50 + self.next_seq * 7_919 % 900);
        self.pending.push_back(ctx.set_timer(expiry, TAG_WATCHDOG));
        if self.pending.len() > 8 {
            let oldest = self.pending.pop_front().expect("more than eight");
            if self.cancel {
                ctx.cancel_timer(oldest);
            }
        }
        ctx.send_data((ctx.node() + 1) % 3, self.next_seq, 500);
        self.next_seq += 1;
        ctx.set_timer(SimDuration::from_millis(1), TAG_TICK);
    }
}

/// Three nodes on a line of five routers, each streaming to the next for
/// three seconds; returns the run and its delivery log.
fn watchdog_run(cancel: bool) -> (Sim<Watchdogs>, DeliveryLog) {
    let mut spec = NetworkSpec::new(5);
    for router in 0..4 {
        let delay = SimDuration::from_millis(20 + 5 * router as u64);
        spec.add_link(LinkSpec::new(router, router + 1, 10e6, delay));
    }
    for router in [0, 2, 4] {
        spec.attach(router);
    }
    let log = DeliveryLog::default();
    let agents = (0..3)
        .map(|_| Watchdogs {
            cancel,
            pending: VecDeque::new(),
            next_seq: 0,
            log: Rc::clone(&log),
        })
        .collect();
    let mut sim = Sim::new(&spec, agents, 9);
    sim.run_until(SimTime::from_secs(3));
    (sim, log)
}

/// `maybe_compact_timers` is the only caller of `EventQueue::retain`, and
/// the goldens never reach its threshold. A run that sweeps must deliver
/// exactly what the same run delivers when nothing is ever cancelled and
/// the extra expiries are ignored.
#[test]
fn compaction_sweeps_do_not_change_the_delivery_sequence() {
    let (swept, swept_log) = watchdog_run(true);
    let (plain, plain_log) = watchdog_run(false);
    assert!(
        swept.timer_compactions() >= 2,
        "only {} sweeps",
        swept.timer_compactions()
    );
    assert_eq!(plain.timer_compactions(), 0, "nothing cancelled");
    assert!(
        swept.counters().events < plain.counters().events,
        "swept timers never dispatch"
    );
    assert!(swept_log.borrow().len() > 8_000, "workload too small");
    assert_eq!(*swept_log.borrow(), *plain_log.borrow());
}
