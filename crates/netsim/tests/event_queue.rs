//! Reference-model tests for [`EventQueue`]: every operation is mirrored on
//! a `BinaryHeap<Reverse<u128>>` kept here and the two are compared after
//! each step. Keys are unique, so the model fixes the whole pop sequence.
//!
//! The queue's unit tests only ever push everything and then pop everything;
//! the simulator does neither. It holds a few hundred to ≈ 1,300 events and
//! pops one, pushes one — the shape the last two tests here reproduce, next
//! to the compaction sweep's `retain`.
//!
//! Mutants of `sift_down` these fail on (run, then reverted): the final
//! `sift_up` dropped; the heapify's sift-up allowed above `start`
//! (`sift_up(hole, 0)`); the full-node test widened to `first + 3 <= len`
//! (an index out of bounds). Narrowing it to `first + 4 < len` survives, as
//! it must — the partial-node scan is correct for four children too, only
//! slower — and so does `k[1] <= k[0]`, because no two keys are equal.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bullet_netsim::event_queue::{event_key, key_time_micros, EventQueue};
use bullet_netsim::SimRng;

/// The queue under test beside its model. A value is its key's sequence
/// number, so a value that parted from its key shows on the next pop.
#[derive(Default)]
struct Pair {
    queue: EventQueue<u64>,
    model: BinaryHeap<Reverse<u128>>,
    seq: u64,
}

impl Pair {
    fn push(&mut self, time: u64) {
        let key = event_key(time, self.seq);
        self.queue.push(key, self.seq);
        self.model.push(Reverse(key));
        self.seq += 1;
    }

    /// Pops both sides and returns the popped key's time.
    fn pop(&mut self, at: &str) -> Option<u64> {
        let expected = self.model.pop().map(|Reverse(key)| (key, key as u64));
        assert_eq!(self.queue.pop(), expected, "{at}: pop");
        expected.map(|(key, _)| key_time_micros(key))
    }

    fn retain(&mut self, keep: impl Fn(u64) -> bool) {
        self.queue.retain(|&seq| keep(seq));
        self.model.retain(|&Reverse(key)| keep(key as u64));
    }

    fn check(&self, at: &str) {
        assert_eq!(self.queue.len(), self.model.len(), "{at}: len");
        assert_eq!(self.queue.is_empty(), self.model.is_empty(), "{at}: empty");
        let smallest = self.model.peek().map(|&Reverse(key)| key);
        assert_eq!(self.queue.peek_key(), smallest, "{at}: peek_key");
    }

    fn drain(&mut self, at: &str) {
        while self.pop(at).is_some() {}
        self.check(at);
    }
}

#[test]
fn queue_matches_the_heap_model_under_random_interleavings() {
    let mut rng = SimRng::new(0xE7E7);
    let (mut retains, mut bursts) = (0u64, 0u64);
    for case in 0..64 {
        let mut pair = Pair::default();
        // Pushes land at or a little after the last popped time, as the
        // simulator's do; `case % 4` tilts the mix so depths differ.
        let mut clock = rng.next_below(1_000);
        for step in 0..600 {
            let at = format!("case {case} step {step}");
            match rng.next_below(100) + case % 4 * 5 {
                0..=44 => pair.push(clock + rng.next_below(50_000)),
                // A burst at one instant: the order is `seq` alone.
                45..=49 => {
                    bursts += 1;
                    let time = clock + rng.next_below(100);
                    for _ in 0..2 + rng.next_below(38) {
                        pair.push(time);
                    }
                }
                // Times at both ends of the range and far apart.
                50..=53 => pair.push(match rng.next_below(3) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.next_u64() >> rng.next_below(40),
                }),
                54..=57 => {
                    retains += 1;
                    let root = pair.queue.peek_key().map(|key| key as u64);
                    match rng.next_below(5) {
                        0 => pair.retain(|seq| Some(seq) != root),
                        1 => pair.retain(|_| false),
                        2 => pair.retain(|_| true),
                        3 => pair.retain(|seq| seq % 3 != 0),
                        _ => pair.retain(|seq| seq % 3 == 0),
                    }
                }
                _ => {
                    if let Some(time) = pair.pop(&at) {
                        // A far-apart key must not drag every later push
                        // to the top of the range.
                        clock = clock.max(time.min(1 << 40));
                    }
                }
            }
            pair.check(&at);
        }
        pair.drain(&format!("case {case} drain"));
    }
    assert!(
        retains > 500 && bursts > 500,
        "{retains} retains, {bursts} bursts"
    );
}

/// The ledger's shape: a queue held at a steady depth, pop one and push one
/// a little later. The first five depths are the sizes of full 4-ary trees
/// of one to five levels, so the sift path ends at every level; the
/// workloads' mean depths (753 to 1,260) lie between the last two.
#[test]
fn hold_model_matches_at_the_ledgers_depths() {
    let mut rng = SimRng::new(0x401D);
    for depth in [1, 5, 21, 85, 341, 1_300] {
        let mut pair = Pair::default();
        for _ in 0..depth {
            pair.push(rng.next_below(20_000));
        }
        for step in 0..4_000 + 4 * depth {
            let at = format!("depth {depth} step {step}");
            let time = pair.pop(&at).expect("held at depth");
            // Mostly a link's worth of delay; sometimes the same instant,
            // sometimes a timer far ahead.
            pair.push(match rng.next_below(10) {
                0 => time,
                1 => time + rng.next_below(5_000_000),
                _ => time + 1 + rng.next_below(19_999),
            });
            pair.check(&at);
            // A sweep in the middle of the hold, then back up to depth.
            if step == 2_000 {
                pair.retain(|seq| seq % 4 != 1);
                while pair.model.len() < depth {
                    pair.push(time + rng.next_below(20_000));
                }
            }
        }
        pair.drain(&format!("depth {depth} drain"));
    }
}

/// Every length from 0 to 85 is every tree shape through depth 3: each
/// `len % 4` of the partial last node, under the root, under a child and
/// under a grandchild, which is every place the full-node and partial-node
/// paths can meet. Each length is built by `push` and again by `retain`.
#[test]
fn every_tree_shape_through_depth_three_pops_sorted() {
    let mut rng = SimRng::new(0x5EE9);
    for len in 0..=85u64 {
        for round in 0..8 {
            let at = format!("len {len} round {round}");
            let mut times: Vec<u64> = (0..len).map(|i| i / 2 * 10).collect();
            rng.shuffle(&mut times);

            let mut pushed = Pair::default();
            for &time in &times {
                pushed.push(time);
            }
            pushed.check(&at);
            pushed.drain(&at);

            // `len` survivors of a sweep that removes about as many again.
            let mut swept = Pair::default();
            let mut doomed = Vec::new();
            for &time in &times {
                while rng.chance(0.5) {
                    doomed.push(swept.seq);
                    swept.push(rng.next_below(len * 5 + 1));
                }
                swept.push(time);
            }
            swept.retain(|seq| !doomed.contains(&seq));
            assert_eq!(swept.queue.len() as u64, len, "{at}: survivors");
            swept.check(&at);
            swept.drain(&at);
        }
    }
}
