//! Working sets (paper §2.3, §3.1).
//!
//! Each node maintains a *working set*: the sequence numbers of packets it
//! has received over some recent window. The working set backs the node's
//! summary ticket and Bloom filter, and is pruned as old packets stop being
//! useful for reconstruction so that the Bloom filter's population stays
//! bounded.
//!
//! # Representation
//!
//! The window is a bitmap in 64-bit chunks: word `w` of the map holds one bit
//! for each of the sequence numbers `64·w ..= 64·w + 63`, and a word with no
//! bit set is never stored. A stream's window is dense, so the paper's
//! 1,500-packet window is about 24 map entries rather than 1,500: membership
//! is one small-map lookup and a bit test, pruning drops whole words off the
//! front and masks one, `prune_to_len` finds its cut-off by popcount from the
//! top word, and iteration walks set bits. Far-apart keys cost one entry
//! each, so the set stays exact for any `u64` — there is no span limit to
//! guard and nothing to overflow.

use std::collections::BTreeMap;

/// Sequence numbers per bitmap word.
const WORD: u64 = u64::BITS as u64;

/// The bits of a word at or above position `seq % 64`.
fn from_bit(seq: u64) -> u64 {
    u64::MAX << (seq % WORD)
}

/// The bits of a word at or below position `seq % 64`.
fn through_bit(seq: u64) -> u64 {
    u64::MAX >> (WORD - 1 - seq % WORD)
}

/// A set of received packet sequence numbers over a sliding window.
#[derive(Clone, Debug, Default)]
pub struct WorkingSet {
    /// `words[w]` has bit `b` set iff `64·w + b` is held. No zero words.
    words: BTreeMap<u64, u64>,
    /// Bits set over all of `words`.
    len: usize,
    /// Sequence numbers below this have been pruned and are no longer
    /// represented (they may or may not have been received).
    low_watermark: u64,
}

impl WorkingSet {
    /// Creates an empty working set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a received sequence number. Returns `true` if it was new.
    ///
    /// Sequence numbers below the low watermark are ignored: they fall
    /// outside the window the node still cares about.
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq < self.low_watermark {
            return false;
        }
        let word = self.words.entry(seq / WORD).or_insert(0);
        let bit = 1 << (seq % WORD);
        let new = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(new);
        new
    }

    /// Whether `seq` is present in the working set.
    pub fn contains(&self, seq: u64) -> bool {
        self.words
            .get(&(seq / WORD))
            .is_some_and(|word| word & (1 << (seq % WORD)) != 0)
    }

    /// Number of sequence numbers currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the working set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The smallest sequence number still held, if any.
    pub fn min_seq(&self) -> Option<u64> {
        let (&w, &word) = self.words.first_key_value()?;
        Some(w * WORD + u64::from(word.trailing_zeros()))
    }

    /// The largest sequence number held, if any.
    pub fn max_seq(&self) -> Option<u64> {
        let (&w, &word) = self.words.last_key_value()?;
        Some(w * WORD + u64::from(word.ilog2()))
    }

    /// The window `(low, high)` of sequence numbers this node currently cares
    /// about: `low` is the pruning watermark, `high` the largest received.
    /// Two field reads and the map's last word; no walk of the set.
    pub fn range(&self) -> (u64, u64) {
        (
            self.low_watermark,
            self.max_seq().unwrap_or(self.low_watermark),
        )
    }

    /// The low watermark (lowest sequence number still represented).
    pub fn low_watermark(&self) -> u64 {
        self.low_watermark
    }

    /// Removes all sequence numbers below `low` and raises the watermark.
    ///
    /// This is the "removing older items that are not needed for data
    /// reconstruction" step the paper describes; it bounds both memory and
    /// the Bloom filter population.
    pub fn prune_below(&mut self, low: u64) {
        if low <= self.low_watermark {
            return;
        }
        self.low_watermark = low;
        while let Some(mut first) = self.words.first_entry() {
            if *first.key() > low / WORD {
                break;
            }
            // Words wholly below `low` lose every bit, the word `low` falls
            // in loses the bits under it.
            let keep = if *first.key() == low / WORD {
                *first.get() & from_bit(low)
            } else {
                0
            };
            self.len -= (*first.get() ^ keep).count_ones() as usize;
            if keep == 0 {
                first.remove();
            } else {
                *first.get_mut() = keep;
                break;
            }
        }
    }

    /// Keeps only the most recent `max_len` sequence numbers, pruning older
    /// ones. `max_len == 0` empties the set and raises the watermark past
    /// the newest held sequence number. Returns the new low watermark.
    pub fn prune_to_len(&mut self, max_len: usize) -> u64 {
        if self.len > max_len {
            let cutoff = if max_len == 0 {
                self.max_seq()
                    .expect("set is non-empty when len > max_len")
                    .saturating_add(1)
            } else {
                self.nth_newest(max_len)
            };
            self.prune_below(cutoff);
        }
        self.low_watermark
    }

    /// The `n`-th largest held sequence number (`n ≥ 1`, `n ≤ len`), found
    /// by popcount from the top word down.
    fn nth_newest(&self, n: usize) -> u64 {
        let mut left = n;
        for (&w, &word) in self.words.iter().rev() {
            let held = word.count_ones() as usize;
            if held < left {
                left -= held;
                continue;
            }
            // Clear the `left - 1` highest bits; the answer is the next one.
            let mut bits = word;
            for _ in 1..left {
                bits ^= 1 << bits.ilog2();
            }
            return w * WORD + u64::from(bits.ilog2());
        }
        unreachable!("n ≤ len, so some word holds the n-th newest bit")
    }

    /// Iterates over held sequence numbers in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter_range(0, u64::MAX)
    }

    /// Sequence numbers in `[low, high]`, in increasing order (none when
    /// `low > high`).
    pub fn iter_range(&self, low: u64, high: u64) -> impl Iterator<Item = u64> + '_ {
        SetBits {
            words: self.words_in(low, high),
            base: 0,
            bits: 0,
        }
    }

    /// How many held sequence numbers lie in `[low, high]`: a popcount per
    /// word, not a walk of the bits.
    pub fn count_in_range(&self, low: u64, high: u64) -> usize {
        self.words_in(low, high)
            .map(|(_, word)| word.count_ones() as usize)
            .sum()
    }

    /// Counts missing sequence numbers in `[low, high]` (gaps in the set).
    /// The one count a `u64` cannot hold, all 2^64 keys missing, saturates.
    pub fn missing_in_range(&self, low: u64, high: u64) -> u64 {
        if high < low {
            return 0;
        }
        match self.count_in_range(low, high) as u64 {
            0 => (high - low).saturating_add(1),
            held => high - low - (held - 1),
        }
    }

    /// The stored words overlapping `[low, high]`, each masked to the bits
    /// inside the range, in increasing order.
    fn words_in(&self, low: u64, high: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (first, last) = (low / WORD, high / WORD);
        // `BTreeMap::range` panics on an inverted range; `Option` is the
        // empty iterator that does not.
        (low <= high)
            .then(|| self.words.range(first..=last))
            .into_iter()
            .flatten()
            .map(move |(&w, &(mut word))| {
                if w == first {
                    word &= from_bit(low);
                }
                if w == last {
                    word &= through_bit(high);
                }
                (w, word)
            })
    }
}

/// Walks the set bits of a run of `(word index, word)` pairs, lowest first.
struct SetBits<I> {
    words: I,
    /// First sequence number of the word being walked.
    base: u64,
    /// Its bits not yet yielded.
    bits: u64,
}

impl<I: Iterator<Item = (u64, u64)>> Iterator for SetBits<I> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.bits == 0 {
            let (w, word) = self.words.next()?;
            self.base = w * WORD;
            self.bits = word;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.base + u64::from(bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut ws = WorkingSet::new();
        assert!(ws.insert(5));
        assert!(!ws.insert(5));
        assert!(ws.contains(5));
        assert!(!ws.contains(6));
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn range_tracks_extremes() {
        let mut ws = WorkingSet::new();
        for seq in [10, 3, 7, 20] {
            ws.insert(seq);
        }
        assert_eq!(ws.min_seq(), Some(3));
        assert_eq!(ws.max_seq(), Some(20));
        assert_eq!(ws.range(), (0, 20));
    }

    #[test]
    fn prune_below_discards_and_blocks_reinsertion() {
        let mut ws = WorkingSet::new();
        for seq in 0..100 {
            ws.insert(seq);
        }
        ws.prune_below(50);
        assert_eq!(ws.len(), 50);
        assert!(!ws.contains(10));
        assert!(!ws.insert(10), "pruned seqs must not be reinserted");
        assert_eq!(ws.low_watermark(), 50);
        assert_eq!(ws.range(), (50, 99));
    }

    #[test]
    fn prune_to_len_keeps_newest() {
        let mut ws = WorkingSet::new();
        for seq in 0..1_000 {
            ws.insert(seq);
        }
        ws.prune_to_len(100);
        assert_eq!(ws.len(), 100);
        assert_eq!(ws.min_seq(), Some(900));
        assert_eq!(ws.max_seq(), Some(999));
    }

    #[test]
    fn prune_to_len_zero_empties_without_panicking() {
        // Regression: `max_len - 1` underflowed and panicked for max_len=0.
        let mut ws = WorkingSet::new();
        for seq in 10..20 {
            ws.insert(seq);
        }
        let watermark = ws.prune_to_len(0);
        assert!(ws.is_empty());
        assert_eq!(watermark, 20, "watermark passes the newest pruned seq");
        assert!(!ws.insert(19), "pruned seqs stay pruned");
        assert!(ws.insert(20), "new seqs above the watermark are accepted");

        // On an empty set it is a no-op.
        let mut empty = WorkingSet::new();
        assert_eq!(empty.prune_to_len(0), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn missing_in_range_counts_gaps() {
        let mut ws = WorkingSet::new();
        for seq in [0, 1, 2, 5, 9] {
            ws.insert(seq);
        }
        assert_eq!(ws.missing_in_range(0, 9), 5);
        assert_eq!(ws.missing_in_range(0, 2), 0);
        assert_eq!(ws.missing_in_range(9, 0), 0);
    }

    #[test]
    fn iter_range_is_ordered_and_bounded() {
        let mut ws = WorkingSet::new();
        for seq in [8, 2, 6, 4, 10] {
            ws.insert(seq);
        }
        let got: Vec<u64> = ws.iter_range(3, 9).collect();
        assert_eq!(got, vec![4, 6, 8]);
    }
}
