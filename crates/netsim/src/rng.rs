//! Deterministic random number generation for the simulator.
//!
//! Every source of randomness in an experiment flows from a single seed so
//! that two runs with the same scenario configuration produce identical
//! packet traces. The generator is a small xoshiro256** implementation; we
//! deliberately avoid depending on `rand`'s default generators here so that
//! simulator reproducibility does not change underneath us when the `rand`
//! crate revs its algorithms.

/// A deterministic, seedable pseudo random number generator.
///
/// The implementation is xoshiro256**, which is fast, has a 256-bit state and
/// passes the usual statistical test batteries. It is *not* cryptographically
/// secure; it only needs to be statistically uniform and reproducible.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed using splitmix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut s = [next(), next(), next(), next()];
        if s.iter().all(|&x| x == 0) {
            s[0] = 1;
        }
        SimRng { s }
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 bits of mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`. `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below bound must be positive");
        // Lemire-style rejection to avoid modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_below((hi - lo) as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Picks a uniformly random element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.range_usize(0, slice.len())])
        }
    }

    /// Shuffles `slice` in place with a Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.len() < 2 {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0, i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct elements from `slice` uniformly at random.
    ///
    /// If `k >= slice.len()` all elements are returned (in shuffled order).
    pub fn sample<T: Clone>(&mut self, slice: &[T], k: usize) -> Vec<T> {
        let mut indices: Vec<usize> = (0..slice.len()).collect();
        self.shuffle(&mut indices);
        indices
            .into_iter()
            .take(k)
            .map(|i| slice[i].clone())
            .collect()
    }

    /// Samples from an exponential distribution with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_uniform_enough() {
        let mut rng = SimRng::new(9);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            // Expect 10_000 each; allow +-10%.
            assert!((9_000..=11_000).contains(&c), "count {c} out of range");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..=3_000).contains(&hits));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_returns_distinct_elements() {
        let mut rng = SimRng::new(13);
        let pool: Vec<u32> = (0..50).collect();
        let s = rng.sample(&pool, 10);
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn sample_caps_at_population() {
        let mut rng = SimRng::new(17);
        let pool: Vec<u32> = (0..5).collect();
        let s = rng.sample(&pool, 10);
        assert_eq!(s.len(), 5);
    }
}
