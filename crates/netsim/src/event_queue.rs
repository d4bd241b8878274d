//! The simulator's pending-event priority queue.
//!
//! A 4-ary min-heap over a packed `(time, seq)` key. Every queued event
//! carries a unique key — simulated time in the high 64 bits, an
//! ever-increasing sequence number in the low 64 — so the heap order is a
//! *total* order and any correct priority queue pops the exact same event
//! sequence; swapping this in for `std::collections::BinaryHeap` cannot
//! change simulation results.
//!
//! The heap is shallow and hot, not deep and cold. A message is one queued
//! event per physical hop, so the perf ledger's four workloads pop 17–27
//! million times a pass, from a queue that holds 750–1,260 events on
//! average and 1,141–1,929 at its peak: five 4-ary levels, all in cache.
//! What a pop costs there is branches, not memory: which of four children
//! is the smallest is a coin the predictor cannot learn. So `sift_down`
//!
//! - picks the smallest child of a full node by compare-and-select (two
//!   pair minima, then the minimum of those), and
//! - runs bottom-up: the displaced element, which `pop` took from the
//!   bottom row and so belongs near it, is set aside while the smallest-
//!   child path moves up one level at a time to a leaf — no compare against
//!   it on the way down, one key store per level instead of a swap — and is
//!   then sifted up from that leaf, 0–1 steps.
//!
//! The two go together: the bottom-up walk saves a compare per level, and
//! that saving shows only when the compares it keeps do not mispredict.

use std::hint::select_unpredictable;

/// A min-ordered priority queue keyed by a packed `u128`.
///
/// Keys and values are stored in parallel arrays so the sift loops walk a
/// dense key array — the four children of a 4-ary node occupy a single
/// cache line of keys — and event payloads are only moved on actual swaps.
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    keys: Vec<u128>,
    values: Vec<T>,
}

/// Packs an event's time (microseconds) and tie-breaking sequence number
/// into one totally-ordered 128-bit key.
#[inline]
pub fn event_key(time_micros: u64, seq: u64) -> u128 {
    ((time_micros as u128) << 64) | seq as u128
}

/// Extracts the time (microseconds) from a packed key.
#[inline]
pub fn key_time_micros(key: u128) -> u64 {
    (key >> 64) as u64
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The smallest pending key, if any.
    pub fn peek_key(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    /// Inserts an event. `key` values must be unique (the simulator
    /// guarantees this via the sequence number).
    pub fn push(&mut self, key: u128, value: T) {
        self.keys.push(key);
        self.values.push(value);
        self.sift_up(self.keys.len() - 1, 0);
    }

    /// Removes and returns the event with the smallest key.
    pub fn pop(&mut self) -> Option<(u128, T)> {
        let len = self.keys.len();
        if len == 0 {
            return None;
        }
        self.keys.swap(0, len - 1);
        self.values.swap(0, len - 1);
        let key = self.keys.pop().expect("checked non-empty");
        let value = self.values.pop().expect("keys and values stay in step");
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        Some((key, value))
    }

    /// Removes every event whose value fails `keep`, then restores the heap
    /// invariant in one bottom-up pass.
    ///
    /// Keys are unique and popping always returns the minimum key, so the
    /// pop *sequence* after a `retain` is identical to what it would have
    /// been had the removed events simply been popped and discarded — the
    /// internal array layout cannot leak into simulation results. Used by
    /// the simulator's dead-timer compaction sweep.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut write = 0;
        for read in 0..self.keys.len() {
            if keep(&self.values[read]) {
                if write != read {
                    self.keys.swap(write, read);
                    self.values.swap(write, read);
                }
                write += 1;
            }
        }
        self.keys.truncate(write);
        self.values.truncate(write);
        // Floyd heapify: sift every internal node down, deepest first.
        if write > 1 {
            for parent in (0..=(write - 2) / 4).rev() {
                self.sift_down(parent);
            }
        }
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.keys.swap(a, b);
        self.values.swap(a, b);
    }

    /// Sifts the element at `child` up, no higher than `floor`.
    #[inline]
    fn sift_up(&mut self, mut child: usize, floor: usize) {
        while child > floor {
            let parent = (child - 1) / 4;
            if self.keys[parent] <= self.keys[child] {
                break;
            }
            self.swap(parent, child);
            child = parent;
        }
    }

    /// Restores the heap order of the subtree rooted at `start`, whose root
    /// alone may be out of place, bottom-up: the root's key is set aside,
    /// the smallest-child path is moved up one level at a time all the way
    /// to a leaf without a compare against that key, and the key is then
    /// sifted up from the leaf, never above `start`.
    #[inline]
    fn sift_down(&mut self, start: usize) {
        let len = self.keys.len();
        let key = self.keys[start];
        let mut hole = start;
        loop {
            let first = hole * 4 + 1;
            let child = if first + 4 <= len {
                // A full node: two pair minima, then the minimum of those,
                // keys and indices both carried through selects, so no
                // branch depends on key data.
                let k = &self.keys[first..first + 4];
                let (low, high) = (k[1] < k[0], k[3] < k[2]);
                let k_low = select_unpredictable(low, k[1], k[0]);
                let k_high = select_unpredictable(high, k[3], k[2]);
                first + select_unpredictable(k_high < k_low, 2 + high as usize, low as usize)
            } else if first < len {
                // The one partial node of the tree; its children are leaves.
                let mut smallest = first;
                for child in first + 1..len {
                    if self.keys[child] < self.keys[smallest] {
                        smallest = child;
                    }
                }
                smallest
            } else {
                break;
            };
            self.keys[hole] = self.keys[child];
            self.values.swap(hole, child);
            hole = child;
        }
        self.keys[hole] = key;
        self.sift_up(hole, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_packing_orders_by_time_then_seq() {
        assert!(event_key(1, 999) < event_key(2, 0));
        assert!(event_key(5, 1) < event_key(5, 2));
        assert_eq!(key_time_micros(event_key(123, 456)), 123);
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = EventQueue::new();
        let keys = [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0];
        for (seq, &t) in keys.iter().enumerate() {
            q.push(event_key(t, seq as u64), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn equal_times_pop_in_sequence_order() {
        let mut q = EventQueue::new();
        for seq in (0..100u64).rev() {
            q.push(event_key(7, seq), seq);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        let expected: Vec<u64> = (0..100).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn matches_std_binary_heap_order_on_random_input() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut fast = EventQueue::new();
        let mut reference = BinaryHeap::new();
        // Deterministic pseudo-random mix of times with unique seqs.
        let mut state = 0x1234_5678_9abc_def0u64;
        for seq in 0..10_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = state >> 40;
            fast.push(event_key(t, seq), (t, seq));
            reference.push(Reverse((t, seq)));
        }
        while let Some(Reverse(expected)) = reference.pop() {
            let (_, got) = fast.pop().expect("same length");
            assert_eq!(got, expected);
        }
        assert!(fast.is_empty());
    }

    #[test]
    fn retain_preserves_pop_order_of_kept_events() {
        let mut state = 0xdead_beef_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 40
        };
        let mut q = EventQueue::new();
        let mut kept = Vec::new();
        for seq in 0..5_000u64 {
            let t = next();
            q.push(event_key(t, seq), (t, seq));
            if seq % 3 != 0 {
                kept.push((t, seq));
            }
        }
        q.retain(|&(_, seq)| seq % 3 != 0);
        assert_eq!(q.len(), kept.len());
        kept.sort_unstable();
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, kept, "retain changed the pop sequence");
    }

    #[test]
    fn retain_handles_empty_and_full_removal() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.retain(|_| true);
        assert!(q.is_empty());
        for seq in 0..10 {
            q.push(event_key(seq, seq), seq);
        }
        q.retain(|_| false);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = EventQueue::new();
        q.push(event_key(3, 0), "c");
        q.push(event_key(1, 1), "a");
        q.push(event_key(2, 2), "b");
        assert_eq!(q.peek_key(), Some(event_key(1, 1)));
        assert_eq!(q.pop(), Some((event_key(1, 1), "a")));
        assert_eq!(q.len(), 2);
    }
}
