//! Bloom filters for approximate reconciliation (paper §2.3, §3.2).
//!
//! A Bullet receiver describes the packets it already holds with a Bloom
//! filter and installs it at each sending peer; the peer then forwards only
//! keys that do not appear in the filter. False positives cause a peer to
//! withhold a packet the receiver is actually missing (recovered later from
//! someone else); false negatives never occur, so no bandwidth is wasted on
//! data the receiver provably has.

/// A fixed-size Bloom filter over `u64` keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
}

impl BloomFilter {
    /// Creates a filter with `m_bits` bits and `k` hash functions.
    pub fn new(m_bits: usize, k: u32) -> Self {
        assert!(m_bits > 0, "a Bloom filter needs at least one bit");
        assert!(k > 0, "a Bloom filter needs at least one hash function");
        BloomFilter {
            bits: vec![0u64; m_bits.div_ceil(64)],
            m: m_bits,
            k,
        }
    }

    /// Wire size in bytes (bit array only; header overhead is accounted for
    /// by callers).
    pub fn wire_bytes(&self) -> u32 {
        (self.m as u32).div_ceil(8)
    }

    fn positions(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let (h1, h2) = hash_pair(key);
        let m = self.m as u64;
        (0..self.k as u64).map(move |i| reduce(h1.wrapping_add(i.wrapping_mul(h2)), m))
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        // Inlined double hashing rather than `positions()`: the iterator
        // borrows `self`, which would force collecting the positions into a
        // heap-allocated `Vec` before the `&mut self.bits` writes — and this
        // runs on the summary/reconciliation hot path for every packet.
        let (h1, h2) = hash_pair(key);
        let m = self.m as u64;
        for i in 0..self.k as u64 {
            let pos = reduce(h1.wrapping_add(i.wrapping_mul(h2)), m);
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
    }

    /// Tests a key. May return `true` for keys never inserted (false
    /// positive) but never returns `false` for an inserted key.
    pub fn contains(&self, key: u64) -> bool {
        self.positions(key)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }

    /// Clears the filter (used when rebuilding over a pruned working set).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
    }
}

/// Reduces a probe hash to a bit position, `h % m`. A power-of-two `m` (the
/// default 16,384-bit filter) takes it with a mask rather than a runtime
/// 64-bit division per probe; the position is the same either way.
#[inline]
fn reduce(h: u64, m: u64) -> usize {
    (if m.is_power_of_two() {
        h & (m - 1)
    } else {
        h % m
    }) as usize
}

/// Double hashing: two independent 64-bit hashes combined as `h1 + i*h2`,
/// the standard Kirsch–Mitzenmacher construction.
#[inline]
fn hash_pair(key: u64) -> (u64, u64) {
    let h1 = splitmix(key ^ 0x51_7C_C1_B7_27_22_0A_95);
    let h2 = splitmix(key.wrapping_mul(0x9E3779B97F4A7C15)) | 1;
    (h1, h2)
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A filter sized for `expected_items` at the given target false
    /// positive rate, by the standard optimal sizing formulas.
    fn for_capacity(expected_items: usize, target_fp: f64) -> BloomFilter {
        let n = expected_items.max(1) as f64;
        let p = target_fp.clamp(1e-9, 0.5);
        let m = (-(n * p.ln()) / (2f64.ln().powi(2))).ceil().max(64.0) as usize;
        let k = ((m as f64 / n) * 2f64.ln()).round().clamp(1.0, 16.0) as u32;
        BloomFilter::new(m, k)
    }

    /// The false-positive probability theory predicts for the filter
    /// holding `n` keys, `(1 - e^{-kn/m})^k`.
    fn expected_fp_rate(bf: &BloomFilter, n: u64) -> f64 {
        let kn = bf.k as f64 * n as f64;
        (1.0 - (-kn / bf.m as f64).exp()).powi(bf.k as i32)
    }

    /// The probe positions of the plain double-hashing formula,
    /// `(h1 + i*h2) % m`.
    fn modulo_positions(m: usize, k: u32, key: u64) -> Vec<usize> {
        let (h1, h2) = hash_pair(key);
        (0..k as u64)
            .map(|i| (h1.wrapping_add(i.wrapping_mul(h2)) % m as u64) as usize)
            .collect()
    }

    /// The mask (power-of-two `m`) and modulo (any other `m`) branches both
    /// probe exactly the positions of `(h1 + i*h2) % m`: the mask is a
    /// faster way to the same bits.
    #[test]
    fn probe_positions_match_the_modulo_formula_on_both_branches() {
        for m in [1usize, 64, 16_384, 1 << 20, 3, 100, 9_586, 16_383, 16_385] {
            let k = 6;
            let mut bf = BloomFilter::new(m, k);
            let mut bits = vec![0u64; m.div_ceil(64)];
            for key in (0..400u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i) {
                let want = modulo_positions(m, k, key);
                assert_eq!(
                    bf.positions(key).collect::<Vec<_>>(),
                    want,
                    "m={m} key={key}"
                );
                bf.insert(key);
                for pos in want {
                    bits[pos / 64] |= 1u64 << (pos % 64);
                }
                assert!(bf.contains(key));
            }
            assert_eq!(bf.bits, bits, "m={m}: insert set different bits");
        }
    }

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(4_096, 4);
        for key in 0..500u64 {
            bf.insert(key * 13);
        }
        for key in 0..500u64 {
            assert!(bf.contains(key * 13), "inserted key {key} reported absent");
        }
    }

    #[test]
    fn false_positive_rate_is_near_prediction() {
        let mut bf = for_capacity(1_000, 0.01);
        for key in 0..1_000u64 {
            bf.insert(key);
        }
        let fp = (1_000u64..101_000).filter(|&k| bf.contains(k)).count() as f64 / 100_000.0;
        let predicted = expected_fp_rate(&bf, 1_000);
        assert!(fp < 0.05, "false positive rate {fp} too high");
        assert!(
            (fp - predicted).abs() < 0.02,
            "observed {fp} vs predicted {predicted}"
        );
    }

    #[test]
    fn sizing_formula_produces_reasonable_parameters() {
        let bf = for_capacity(1_000, 0.01);
        // Optimal: m ≈ 9.6 n, k ≈ 7.
        assert!((8_000..12_000).contains(&bf.m), "m={}", bf.m);
        assert!((5..=9).contains(&bf.k), "k={}", bf.k);
    }

    #[test]
    fn clear_empties_the_filter() {
        let mut bf = BloomFilter::new(1_024, 3);
        for key in 0..100u64 {
            bf.insert(key);
        }
        bf.clear();
        let survivors = (0..100u64).filter(|&k| bf.contains(k)).count();
        assert_eq!(survivors, 0);
    }

    #[test]
    fn wire_bytes_matches_bit_count() {
        let bf = BloomFilter::new(8_192, 4);
        assert_eq!(bf.wire_bytes(), 1_024);
        let bf = BloomFilter::new(100, 2);
        assert_eq!(bf.wire_bytes(), 13);
    }

    #[test]
    fn fp_rate_grows_with_population() {
        let mut bf = BloomFilter::new(2_048, 4);
        let mut last = 0.0;
        for batch in 0..5u64 {
            for key in batch * 200..(batch + 1) * 200 {
                bf.insert(key);
            }
            let fp = expected_fp_rate(&bf, (batch + 1) * 200);
            assert!(fp >= last);
            last = fp;
        }
        assert!(last > 0.0 && last < 1.0);
    }
}
