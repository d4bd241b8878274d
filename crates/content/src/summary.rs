//! Summary tickets: min-wise sketches of working sets (paper §2.3, Fig. 3).
//!
//! A summary ticket is a small fixed-size array (120 bytes in the paper: 30
//! four-byte entries). Entry *j* holds the minimum of a permutation function
//! `P_j(x) = (a_j · x + b_j) mod U` over every element `x` in the working
//! set. Two nodes estimate the *resemblance* of their working sets as the
//! fraction of entries whose values match, which is how a Bullet receiver
//! picks the candidate peer with the most disjoint content.
//!
//! # Keeping a ticket current: arg-min repair
//!
//! A node's own ticket follows a working set that grows at the top and is
//! pruned at the bottom. Growth is the min-wise update. Pruning cannot be
//! undone slot by slot from the values alone, so [`LiveTicket`] also
//! remembers *which element* gave each slot its minimum, and a refresh
//! rests on one lemma: let `S` be every element folded into the ticket since
//! slot `j` was last recomputed, and `H ⊆ S` the elements still held. If
//! slot `j`'s arg-min is in `H`, then `min P_j(H) = min P_j(S)` — the minimum
//! over the larger set is attained inside the smaller — and the slot is
//! already right. Only slots whose arg-min was pruned are re-minimised over
//! `H`. `H ⊆ S` holds because the node folds in every key its working set
//! accepts and pruning only removes a prefix of the sequence space; with a
//! 1,500-packet window pruned a second's worth at a time about 5 of the 30
//! arg-mins fall in the pruned prefix per 5 s refresh. (Below `UNIVERSE` each
//! `P_j` is a bijection, so the arg-min is unique; above it two keys can tie
//! and either is a valid witness.)

use crate::working_set::WorkingSet;

/// Number of sketch entries in the default (paper-sized) ticket.
pub const DEFAULT_ENTRIES: usize = 30;

/// Universe size for the permutation functions: a prime near 2^31, large
/// enough for any realistic sequence-number space.
const UNIVERSE: u64 = 2_147_483_647;

/// The shared family of permutation functions.
///
/// Every node must use the same `(a_j, b_j)` constants or resemblance
/// comparisons would be meaningless; the family is derived deterministically
/// from an application-wide seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PermutationFamily {
    coefficients: Vec<(u64, u64)>,
}

impl PermutationFamily {
    /// Creates the family with `entries` permutation functions from a shared
    /// seed. All participants of one dissemination session must use the same
    /// seed and entry count.
    pub fn new(entries: usize, seed: u64) -> Self {
        assert!(entries > 0, "a summary ticket needs at least one entry");
        // splitmix64 expansion of the seed into (a, b) pairs.
        let mut state = seed ^ 0x9E3779B97F4A7C15;
        let mut next = || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let coefficients = (0..entries)
            .map(|_| {
                // `a` must be non-zero for the map to be a permutation.
                let a = next() % (UNIVERSE - 1) + 1;
                let b = next() % UNIVERSE;
                (a, b)
            })
            .collect();
        PermutationFamily { coefficients }
    }

    /// The paper-sized family (30 entries ≈ 120 bytes).
    pub fn paper_default() -> Self {
        PermutationFamily::new(DEFAULT_ENTRIES, 0xB0111E7)
    }

    /// Number of permutation functions (ticket entries).
    pub fn entries(&self) -> usize {
        self.coefficients.len()
    }

    /// Applies permutation function `j` to `x`.
    pub fn permute(&self, j: usize, x: u64) -> u64 {
        let (a, b) = self.coefficients[j];
        (a.wrapping_mul(x % UNIVERSE) + b) % UNIVERSE
    }
}

/// A min-wise sketch of a working set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryTicket {
    entries: Vec<u64>,
}

impl SummaryTicket {
    /// Creates an empty ticket for the given family.
    pub fn empty(family: &PermutationFamily) -> Self {
        SummaryTicket {
            entries: vec![u64::MAX; family.entries()],
        }
    }

    /// Builds a ticket from an iterator of working-set elements.
    pub fn from_elements<I: IntoIterator<Item = u64>>(
        family: &PermutationFamily,
        elems: I,
    ) -> Self {
        let mut ticket = SummaryTicket::empty(family);
        for x in elems {
            ticket.insert(family, x);
        }
        ticket
    }

    /// Inserts one element, updating every entry with the smaller permuted
    /// value (the min-wise update of Fig. 3).
    pub fn insert(&mut self, family: &PermutationFamily, x: u64) {
        for (j, entry) in self.entries.iter_mut().enumerate() {
            let permuted = family.permute(j, x);
            if permuted < *entry {
                *entry = permuted;
            }
        }
    }

    /// Number of entries in the ticket.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ticket has never had an element inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|&e| e == u64::MAX)
    }

    /// Wire size of the ticket in bytes (four bytes per entry, as in the
    /// paper's 120-byte tickets).
    pub fn wire_bytes(&self) -> u32 {
        (self.entries.len() * 4) as u32
    }

    /// The resemblance between two tickets: the fraction of entries with
    /// identical values. Approximates the Jaccard similarity of the
    /// underlying working sets.
    ///
    /// # Panics
    ///
    /// Panics if the tickets have different sizes (they were built from
    /// different permutation families).
    pub fn resemblance(&self, other: &SummaryTicket) -> f64 {
        assert_eq!(
            self.entries.len(),
            other.entries.len(),
            "tickets from different permutation families are not comparable"
        );
        if self.entries.is_empty() {
            return 0.0;
        }
        let matching = self
            .entries
            .iter()
            .zip(&other.entries)
            .filter(|(a, b)| a == b)
            .count();
        matching as f64 / self.entries.len() as f64
    }
}

/// A node's own [`SummaryTicket`], kept equal to the sketch of its working
/// set without re-sketching the whole set (see the module docs). The plain
/// ticket stays the wire type: it is what RanSub clones into every message.
#[derive(Clone, Debug)]
pub struct LiveTicket {
    ticket: SummaryTicket,
    /// The element whose permuted value each slot holds; `None` where no
    /// folded-in element is known to have produced it.
    argmin: Vec<Option<u64>>,
    /// The ticket was last set by [`LiveTicket::overwrite`]: held elements
    /// are missing from it, so no slot can be trusted at the next refresh.
    overwritten: bool,
}

impl LiveTicket {
    /// The ticket of an empty working set.
    pub fn empty(family: &PermutationFamily) -> Self {
        LiveTicket {
            ticket: SummaryTicket::empty(family),
            argmin: vec![None; family.entries()],
            overwritten: false,
        }
    }

    /// The ticket as it stands: minima over the elements held at the last
    /// refresh and every element folded in since.
    pub fn ticket(&self) -> &SummaryTicket {
        &self.ticket
    }

    /// Folds in one element the working set just accepted.
    pub fn insert(&mut self, family: &PermutationFamily, x: u64) {
        for (j, entry) in self.ticket.entries.iter_mut().enumerate() {
            let permuted = family.permute(j, x);
            if permuted < *entry {
                *entry = permuted;
                self.argmin[j] = Some(x);
            }
        }
    }

    /// Replaces the ticket with one that does not describe the working set
    /// (a false advertiser's claim). Elements folded in afterwards still
    /// lower its slots; the next [`LiveTicket::refresh`] recomputes all.
    pub fn overwrite(&mut self, ticket: SummaryTicket) {
        self.ticket = ticket;
        self.overwritten = true;
    }

    /// Makes the ticket the sketch of `held` — equal to
    /// `SummaryTicket::from_elements(family, held.iter())` — by
    /// re-minimising only the slots whose arg-min `held` no longer contains.
    /// Relies on every element `held` accepted since the previous refresh
    /// having been passed to [`LiveTicket::insert`] as well.
    pub fn refresh(&mut self, family: &PermutationFamily, held: &WorkingSet) {
        if self.overwritten {
            self.argmin.fill(None);
            self.overwritten = false;
        }
        let stale: Vec<usize> = (0..self.argmin.len())
            .filter(|&j| !self.argmin[j].is_some_and(|x| held.contains(x)))
            .collect();
        if stale.is_empty() {
            return;
        }
        for &j in &stale {
            self.ticket.entries[j] = u64::MAX;
            self.argmin[j] = None;
        }
        for x in held.iter() {
            for &j in &stale {
                let permuted = family.permute(j, x);
                if permuted < self.ticket.entries[j] {
                    self.ticket.entries[j] = permuted;
                    self.argmin[j] = Some(x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family() -> PermutationFamily {
        PermutationFamily::paper_default()
    }

    #[test]
    fn paper_default_is_120_bytes() {
        let ticket = SummaryTicket::empty(&family());
        assert_eq!(ticket.wire_bytes(), 120);
        assert_eq!(ticket.len(), DEFAULT_ENTRIES);
    }

    #[test]
    fn identical_sets_have_resemblance_one() {
        let f = family();
        let a = SummaryTicket::from_elements(&f, 0..100);
        let b = SummaryTicket::from_elements(&f, 0..100);
        assert_eq!(a.resemblance(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_have_low_resemblance() {
        let f = family();
        let a = SummaryTicket::from_elements(&f, 0..500);
        let b = SummaryTicket::from_elements(&f, 10_000..10_500);
        assert!(a.resemblance(&b) < 0.2, "resemblance {}", a.resemblance(&b));
    }

    #[test]
    fn resemblance_tracks_overlap() {
        let f = family();
        let base = SummaryTicket::from_elements(&f, 0..1_000);
        let half = SummaryTicket::from_elements(&f, 500..1_500);
        let most = SummaryTicket::from_elements(&f, 100..1_100);
        let r_half = base.resemblance(&half);
        let r_most = base.resemblance(&most);
        assert!(
            r_most > r_half,
            "more overlap should mean higher resemblance ({r_most} vs {r_half})"
        );
    }

    #[test]
    fn resemblance_estimates_jaccard() {
        // Jaccard of [0,1000) vs [500,1500) is 500/1500 = 1/3. With 30
        // entries the estimator is coarse; accept a generous band.
        let f = PermutationFamily::new(200, 0xB0111E7);
        let a = SummaryTicket::from_elements(&f, 0..1_000);
        let b = SummaryTicket::from_elements(&f, 500..1_500);
        let r = a.resemblance(&b);
        assert!((0.2..0.47).contains(&r), "resemblance {r} far from 1/3");
    }

    #[test]
    fn insert_is_order_independent() {
        let f = family();
        let mut fwd = SummaryTicket::empty(&f);
        let mut rev = SummaryTicket::empty(&f);
        for x in 0..200 {
            fwd.insert(&f, x);
        }
        for x in (0..200).rev() {
            rev.insert(&f, x);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn empty_ticket_reports_empty() {
        let f = family();
        let t = SummaryTicket::empty(&f);
        assert!(t.is_empty());
        let full = SummaryTicket::from_elements(&f, 0..1);
        assert!(!full.is_empty());
    }

    #[test]
    #[should_panic(expected = "different permutation families")]
    fn mismatched_ticket_sizes_panic() {
        let a = SummaryTicket::empty(&PermutationFamily::new(10, 1));
        let b = SummaryTicket::empty(&PermutationFamily::new(20, 1));
        let _ = a.resemblance(&b);
    }
}
