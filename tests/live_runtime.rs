//! `BulletNode` off the simulator: eight nodes, each on an operating-system
//! thread, exchanging messages over in-process channels with wall-clock
//! timers, for two seconds of real time.
//!
//! The runtime below is the whole contract an embedding must honour: run
//! `on_start` once, then `on_message` / `on_timer` through a fresh
//! [`Context`], and apply the [`Action`]s it recorded — sends to the named
//! peer, timers armed on the runtime's own clock, cancellations retired in
//! the node's [`TimerAlloc`]. There is no emulated network, and wall-clock
//! time is not deterministic, so the test asserts liveness only.
//!
//! Checked by hand against a broken runtime: dropping `Action::SetTimer`
//! fails it (the source never generates a packet).

use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use bullet_suite::bullet::{BulletConfig, BulletMsg, BulletNode};
use bullet_suite::netsim::{
    Action, Agent, Context, SimDuration, SimRng, SimTime, TimerAlloc, TimerId,
};
use bullet_suite::overlay::random_tree;

const NODES: usize = 8;
const RUN: Duration = Duration::from_secs(2);

/// One pending wall-clock timer, ordered so a `BinaryHeap` pops the
/// earliest first.
struct PendingTimer {
    due: Instant,
    id: TimerId,
    tag: u64,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due)
    }
}

/// One node's runtime state: its randomness, its timers and a sender to
/// every node's inbox.
struct Runtime {
    id: usize,
    start: Instant,
    rng: SimRng,
    timer_alloc: TimerAlloc,
    timers: BinaryHeap<PendingTimer>,
    peers: Vec<Sender<(usize, BulletMsg)>>,
}

impl Runtime {
    /// Runs one agent callback at the current wall-clock instant, then
    /// applies the actions it recorded. Cancelling retires the timer's
    /// generation-stamped slot, so a cancelled entry still in the heap is
    /// recognised as dead when it surfaces.
    fn dispatch(
        &mut self,
        node: &mut BulletNode,
        callback: impl FnOnce(&mut BulletNode, &mut Context<BulletMsg>),
    ) {
        let now = SimTime::from_micros(self.start.elapsed().as_micros() as u64);
        let mut actions = Vec::new();
        callback(
            node,
            &mut Context::new(
                now,
                self.id,
                &mut self.rng,
                &mut actions,
                &mut self.timer_alloc,
            ),
        );
        for action in actions {
            match action {
                Action::Send { to, msg, .. } => {
                    // A closed inbox only means its node's run has ended.
                    let _ = self.peers[to].send((self.id, msg));
                }
                Action::SetTimer { id, delay, tag } => self.timers.push(PendingTimer {
                    due: Instant::now() + Duration::from_micros(delay.as_micros()),
                    id,
                    tag,
                }),
                Action::CancelTimer(id) => {
                    self.timer_alloc.retire(id);
                }
            }
        }
    }
}

/// Runs one node until `deadline` and hands it back.
fn node_loop(
    mut node: BulletNode,
    inbox: Receiver<(usize, BulletMsg)>,
    mut runtime: Runtime,
    deadline: Instant,
) -> BulletNode {
    runtime.dispatch(&mut node, |node, ctx| node.on_start(ctx));
    while Instant::now() < deadline {
        while runtime
            .timers
            .peek()
            .is_some_and(|timer| timer.due <= Instant::now())
        {
            let timer = runtime.timers.pop().expect("peeked");
            if runtime.timer_alloc.retire(timer.id).is_some() {
                runtime.dispatch(&mut node, |node, ctx| node.on_timer(ctx, timer.tag));
            }
        }
        // Wait for the next message or the next timer, whichever is sooner.
        let wait = runtime
            .timers
            .peek()
            .map_or(Duration::from_millis(50), |t| {
                t.due.saturating_duration_since(Instant::now())
            });
        match inbox.recv_timeout(wait.min(Duration::from_millis(50))) {
            Ok((from, msg)) => {
                runtime.dispatch(&mut node, |node, ctx| node.on_message(ctx, from, msg))
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    node
}

/// Data, TFRC feedback, RanSub epochs and mesh peering all cross the
/// runtime: the stream starts at 200 ms and an epoch lasts 500 ms, so two
/// seconds hold about three epochs of candidates to peer with.
#[test]
fn bullet_nodes_stream_and_peer_on_threads_under_wall_clock_timers() {
    let tree = random_tree(NODES, 0, 3, &mut SimRng::new(99));
    let config = BulletConfig {
        stream_rate_bps: 400_000.0,
        stream_start: SimTime::from_millis(200),
        ransub_epoch: SimDuration::from_millis(500),
        ..BulletConfig::default()
    };
    let (senders, inboxes): (Vec<_>, Vec<_>) = (0..NODES).map(|_| channel()).unzip();
    let start = Instant::now();
    let handles: Vec<_> = inboxes
        .into_iter()
        .enumerate()
        .map(|(id, inbox)| {
            let node = BulletNode::new(id, &tree, config.clone());
            let runtime = Runtime {
                id,
                start,
                rng: SimRng::new(id as u64),
                timer_alloc: TimerAlloc::new(),
                timers: BinaryHeap::new(),
                peers: senders.clone(),
            };
            thread::spawn(move || node_loop(node, inbox, runtime, start + RUN))
        })
        .collect();
    drop(senders);

    let nodes: Vec<BulletNode> = handles
        .into_iter()
        .map(|handle| handle.join().expect("a node thread panicked"))
        .collect();
    for node in &nodes[1..] {
        assert!(
            node.metrics.delivery.useful_bytes > 0,
            "receiver {} got no useful data in {RUN:?}",
            node.id()
        );
    }
    assert!(
        nodes[1..]
            .iter()
            .any(|node| !node.sender_peers().is_empty()),
        "no receiver peered with a mesh sender in {RUN:?}"
    );
}
