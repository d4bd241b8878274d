//! Approximate reconciliation between a sending peer and a receiver
//! (paper §2.3, §3.2).
//!
//! The receiver installs a Bloom filter describing its working set at each
//! sending peer, together with the sequence range it currently cares about
//! and a `(row, stripe)` assignment that partitions the sequence space among
//! its senders. A sender then forwards the keys it holds that fall in the
//! range, match its assigned row, and do not appear in the filter.

use std::sync::Arc;

use crate::bloom::BloomFilter;
use crate::working_set::WorkingSet;

/// The reconciliation state a receiver installs at one sending peer.
///
/// The Bloom filter is behind an `Arc`: a refresh tick builds one filter
/// describing the receiver's working set and installs it at *every* sending
/// peer (only the `(stripe, row)` assignment differs per sender), so the
/// per-sender requests — and the control messages carrying them through the
/// simulator — share the ~2 KB bit array instead of cloning it. Cloning a
/// request is a pointer bump; [`ReconcileRequest::wire_bytes`] still counts
/// the full filter, so modelled control traffic is unchanged.
#[derive(Clone, Debug)]
pub struct ReconcileRequest {
    /// Bloom filter over the receiver's working set (shared across the
    /// receiver's senders; see the type docs).
    pub filter: Arc<BloomFilter>,
    /// Lowest sequence number the receiver is still interested in.
    pub low: u64,
    /// Highest sequence number the receiver is interested in.
    pub high: u64,
    /// Total number of senders the receiver currently has (the number of
    /// rows in its sequence matrix, Fig. 4).
    pub stripe: u64,
    /// The row of the matrix assigned to this sender: forward only keys with
    /// `key % stripe == row`.
    pub row: u64,
}

impl ReconcileRequest {
    /// Creates a request covering `[low, high]` striped over `stripe` senders
    /// with this sender owning `row`. Accepts either an owned filter or an
    /// already-shared `Arc<BloomFilter>` (the multi-sender refresh path).
    pub fn new(
        filter: impl Into<Arc<BloomFilter>>,
        low: u64,
        high: u64,
        stripe: u64,
        row: u64,
    ) -> Self {
        let stripe = stripe.max(1);
        ReconcileRequest {
            filter: filter.into(),
            low,
            high,
            stripe,
            row: row % stripe,
        }
    }

    /// Whether `key` matches this request (in range, on the assigned row, and
    /// not already described by the receiver's Bloom filter).
    pub fn wants(&self, key: u64) -> bool {
        key >= self.low
            && key <= self.high
            && key % self.stripe == self.row
            && !self.filter.contains(key)
    }

    /// Wire size of the request in bytes: the Bloom filter plus range and
    /// striping fields.
    pub fn wire_bytes(&self) -> u32 {
        self.filter.wire_bytes() + 24
    }
}

/// Computes the keys a sender holding `have` should transmit for `request`,
/// up to `limit` keys, lowest sequence numbers first.
///
/// This is the sender-side half of approximate reconciliation: the result
/// contains no keys the receiver provably has (no false negatives in the
/// Bloom filter) but may omit keys the receiver is missing if the filter
/// returned a false positive for them.
pub fn missing_keys(have: &WorkingSet, request: &ReconcileRequest, limit: usize) -> Vec<u64> {
    missing_keys_iter(have, request, limit).collect()
}

/// Iterator form of [`missing_keys`], for callers that stream the keys into
/// a reusable buffer instead of allocating a fresh `Vec` per peer-service
/// tick.
pub fn missing_keys_iter<'a>(
    have: &'a WorkingSet,
    request: &'a ReconcileRequest,
    limit: usize,
) -> impl Iterator<Item = u64> + 'a {
    have.iter_range(request.low, request.high)
        .filter(move |&key| key % request.stripe == request.row && !request.filter.contains(key))
        .take(limit)
}

/// The keys one installed [`ReconcileRequest`] is owed by a sender, kept up
/// to date instead of recomputed: the sender half of §3.2 between two filter
/// refreshes.
///
/// Between two installs of a receiver's request the answer of
/// [`missing_keys_iter`] changes in only three ways, and the index follows
/// each one: the sender learns a key ([`OfferIndex::learn`]), prunes its
/// working set ([`OfferIndex::prune_below`]) or transmits a key
/// ([`OfferIndex::mark_sent`]). A new request means a new index
/// ([`OfferIndex::build`]); sent marks die with the old one, because the new
/// filter already describes what arrived.
#[derive(Clone, Debug, Default)]
pub struct OfferIndex {
    /// Held keys the request wants, in increasing order.
    offers: Vec<Offer>,
    /// How many of `offers` have not been sent.
    unsent: usize,
}

/// One wanted key and whether it was sent, in one word (`key << 1 | sent`,
/// so offers order by key): a sender may keep a working set's worth of these
/// per receiver. Sequence numbers count packets and stay far below 2^63.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Offer(u64);

impl Offer {
    fn unsent(key: u64) -> Self {
        assert!(key < 1 << 63, "sequence number {key} overflows an offer");
        Offer(key << 1)
    }

    fn key(self) -> u64 {
        self.0 >> 1
    }

    fn sent(self) -> bool {
        self.0 & 1 == 1
    }
}

impl OfferIndex {
    /// Indexes the keys of `have` that `request` wants: one scan, paid once
    /// per installed request.
    pub fn build(have: &WorkingSet, request: &ReconcileRequest) -> Self {
        let offers: Vec<Offer> = missing_keys_iter(have, request, usize::MAX)
            .map(Offer::unsent)
            .collect();
        OfferIndex {
            unsent: offers.len(),
            offers,
        }
    }

    /// Records that the sender now also holds `key`: call it when
    /// [`WorkingSet::insert`] returned `true`, with the request the index
    /// was built for.
    pub fn learn(&mut self, request: &ReconcileRequest, key: u64) {
        if !request.wants(key) {
            return;
        }
        // Recovered keys arrive out of order, so the slot can be anywhere.
        if let Err(slot) = self.offers.binary_search_by_key(&key, |o| o.key()) {
            self.offers.insert(slot, Offer::unsent(key));
            self.unsent += 1;
        }
    }

    /// Drops every key below `low`, the working set's new low watermark
    /// (pruning only ever removes a prefix of the sequence space).
    pub fn prune_below(&mut self, low: u64) {
        let cut = self.offers.partition_point(|o| o.key() < low);
        self.unsent -= self.offers[..cut].iter().filter(|o| !o.sent()).count();
        self.offers.drain(..cut);
    }

    /// Marks `key` as transmitted, so no later batch offers it again.
    pub fn mark_sent(&mut self, key: u64) {
        if let Ok(slot) = self.offers.binary_search_by_key(&key, |o| o.key()) {
            let offer = &mut self.offers[slot];
            self.unsent -= usize::from(!offer.sent());
            offer.0 |= 1;
        }
    }

    /// Wanted keys not yet sent.
    pub fn unsent(&self) -> usize {
        self.unsent
    }

    /// The keys to transmit next: of the first `window` wanted keys, *sent
    /// and unsent alike*, the unsent ones, lowest first, at most `batch` of
    /// them. Exactly
    /// `missing_keys_iter(have, request, window).filter(unsent).take(batch)`.
    ///
    /// The window counts sent keys on purpose. Once the first `window`
    /// wanted keys have all been sent this yields nothing more, whatever
    /// lies beyond them, until the receiver installs its next request (or a
    /// prune drops sent keys off the head and slides the window forward):
    /// in a steady stream a receiver is served about `window` keys per
    /// request and no more. Bullet's measured behaviour is pinned to that
    /// cap (every determinism golden), so it is not a defect of the index
    /// to be "fixed" here.
    pub fn batch(&self, window: usize, batch: usize) -> impl Iterator<Item = u64> + '_ {
        let window = if self.unsent == 0 { 0 } else { window };
        self.offers
            .iter()
            .take(window)
            .filter(|o| !o.sent())
            .map(|o| o.key())
            .take(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn filter_of(keys: &[u64]) -> BloomFilter {
        let mut bf = BloomFilter::new(16_384, 6);
        for &k in keys {
            bf.insert(k);
        }
        bf
    }

    fn working_set_of(range: std::ops::Range<u64>) -> WorkingSet {
        let mut ws = WorkingSet::new();
        for k in range {
            ws.insert(k);
        }
        ws
    }

    #[test]
    fn sender_offers_only_missing_keys() {
        let sender = working_set_of(0..100);
        let receiver_has: Vec<u64> = (0..50).collect();
        let request = ReconcileRequest::new(filter_of(&receiver_has), 0, 99, 1, 0);
        let offered = missing_keys(&sender, &request, usize::MAX);
        // Nothing the receiver already has may be offered.
        for key in &offered {
            assert!(!receiver_has.contains(key));
        }
        // Most of 50..100 should be offered (false positives may hide a few).
        assert!(offered.len() >= 45, "offered only {} keys", offered.len());
    }

    #[test]
    fn striping_partitions_the_sequence_space() {
        let sender = working_set_of(0..100);
        let empty = BloomFilter::new(1_024, 4);
        let r0 = ReconcileRequest::new(empty.clone(), 0, 99, 4, 1);
        let offered = missing_keys(&sender, &r0, usize::MAX);
        assert!(!offered.is_empty());
        assert!(offered.iter().all(|k| k % 4 == 1));
    }

    #[test]
    fn range_bounds_are_respected() {
        let sender = working_set_of(0..1_000);
        let empty = BloomFilter::new(1_024, 4);
        let request = ReconcileRequest::new(empty, 200, 299, 1, 0);
        let offered = missing_keys(&sender, &request, usize::MAX);
        assert_eq!(offered.len(), 100);
        assert!(offered.iter().all(|&k| (200..300).contains(&k)));
    }

    #[test]
    fn limit_truncates_lowest_first() {
        let sender = working_set_of(0..100);
        let empty = BloomFilter::new(1_024, 4);
        let request = ReconcileRequest::new(empty, 0, 99, 1, 0);
        let offered = missing_keys(&sender, &request, 10);
        assert_eq!(offered, (0..10).collect::<Vec<u64>>());
    }

    /// The departed-sender recovery property behind Bullet's churn repair:
    /// while a dead sender still owns row `r` of the stripe, the keys of
    /// that row are requested from nobody else — but as soon as the
    /// receiver restripes its requests over the surviving senders, every
    /// one of those keys becomes requestable again. A stale Bloom filter
    /// (or stale row assignment) must suppress re-requests only until the
    /// next refresh, never permanently.
    #[test]
    fn restriping_after_a_departed_sender_reexposes_its_row() {
        let sender = working_set_of(0..200);
        let receiver_has: Vec<u64> = (0..40).collect();
        // Two senders: the live one owns row 0, the (about to die) one row 1.
        let live_before = ReconcileRequest::new(filter_of(&receiver_has), 0, 199, 2, 0);
        let dead_row: Vec<u64> = (40..200).filter(|k| k % 2 == 1).collect();
        let offered_before = missing_keys(&sender, &live_before, usize::MAX);
        for key in &dead_row {
            assert!(
                !offered_before.contains(key),
                "key {key} of the dead row leaked before the restripe"
            );
        }
        // Sender 1 departs; the receiver rebuilds its request with stripe 1.
        let live_after = ReconcileRequest::new(filter_of(&receiver_has), 0, 199, 1, 0);
        let offered_after = missing_keys(&sender, &live_after, usize::MAX);
        for key in &dead_row {
            assert!(
                offered_after.contains(key) || receiver_has.contains(key),
                "key {key} stayed suppressed after the restripe"
            );
        }
    }

    /// A refreshed (rebuilt) filter stops suppressing keys the receiver
    /// lost interest in advertising: re-requests resume once the stale
    /// filter is replaced, even for keys a false positive used to hide.
    #[test]
    fn filter_refresh_unsuppresses_previously_hidden_keys() {
        let sender = working_set_of(0..100);
        // A filter that (wrongly, from the receiver's perspective) claims
        // to hold everything — e.g. captured before the receiver pruned
        // its working set, or from a previous session before a rejoin.
        let all: Vec<u64> = (0..100).collect();
        let stale = ReconcileRequest::new(filter_of(&all), 0, 99, 1, 0);
        assert!(missing_keys(&sender, &stale, usize::MAX).is_empty());
        // The refreshed request carries the receiver's true (empty) state.
        let refreshed = ReconcileRequest::new(filter_of(&[]), 0, 99, 1, 0);
        assert_eq!(missing_keys(&sender, &refreshed, usize::MAX).len(), 100);
    }

    /// Per-sender requests built from one shared filter behave exactly like
    /// requests owning private copies, and cloning them must not copy the
    /// filter (the refresh-tick enqueue path is a pointer bump).
    #[test]
    fn requests_share_one_filter_across_senders() {
        let filter = Arc::new(filter_of(&(0..50).collect::<Vec<u64>>()));
        let bytes = ReconcileRequest::new(filter.clone(), 0, 99, 1, 0).wire_bytes();
        let rows: Vec<ReconcileRequest> = (0..4)
            .map(|row| ReconcileRequest::new(filter.clone(), 0, 99, 4, row))
            .collect();
        for (row, req) in rows.iter().enumerate() {
            let owned = ReconcileRequest::new(
                filter_of(&(0..50).collect::<Vec<u64>>()),
                0,
                99,
                4,
                row as u64,
            );
            for key in 0..100 {
                assert_eq!(req.wants(key), owned.wants(key), "row {row} key {key}");
            }
            assert_eq!(
                req.wire_bytes(),
                bytes,
                "wire size must count the full filter"
            );
            assert!(
                Arc::ptr_eq(&req.filter, &filter),
                "row {row} copied the filter"
            );
        }
        let cloned = rows[0].clone();
        assert!(
            Arc::ptr_eq(&cloned.filter, &filter),
            "clone copied the filter"
        );
    }

    #[test]
    fn zero_stripe_is_coerced_to_one() {
        let request = ReconcileRequest::new(BloomFilter::new(64, 2), 0, 10, 0, 5);
        assert_eq!(request.stripe, 1);
        assert_eq!(request.row, 0);
        assert!(request.wants(3));
    }

    #[test]
    fn wants_respects_all_three_conditions() {
        let receiver_has = [4u64];
        let request = ReconcileRequest::new(filter_of(&receiver_has), 2, 8, 2, 0);
        assert!(request.wants(6));
        assert!(!request.wants(4), "already held");
        assert!(!request.wants(5), "wrong row");
        assert!(!request.wants(10), "out of range");
    }

    /// The service window, pinned: once the first `window` wanted keys have
    /// all been sent, the receiver is served nothing more until its next
    /// request, even though later wanted keys exist. A prune that removes
    /// sent keys from the head slides the window on.
    #[test]
    fn nothing_is_offered_past_the_window_until_the_next_request() {
        let (window, batch) = (8, 2);
        let sender = working_set_of(0..100);
        let request = ReconcileRequest::new(BloomFilter::new(1_024, 4), 0, 99, 1, 0);
        let mut index = OfferIndex::build(&sender, &request);
        assert_eq!(index.unsent(), 100);
        for tick in 0..4u64 {
            let keys: Vec<u64> = index.batch(window, batch).collect();
            assert_eq!(keys, vec![2 * tick, 2 * tick + 1]);
            keys.into_iter().for_each(|k| index.mark_sent(k));
        }
        assert_eq!(index.unsent(), 92, "keys 8..100 are wanted and unsent");
        assert_eq!(index.batch(window, batch).count(), 0, "window exhausted");
        // The reference scan agrees: that is today's protocol, not a bug.
        let sent: HashSet<u64> = (0..8).collect();
        assert_eq!(
            missing_keys_iter(&sender, &request, window)
                .filter(|k| !sent.contains(k))
                .count(),
            0
        );
        // Pruning three sent keys off the head admits the next three.
        index.prune_below(3);
        assert_eq!(index.batch(window, 8).collect::<Vec<u64>>(), vec![8, 9, 10]);
        // And a fresh request starts a fresh window.
        let index = OfferIndex::build(&sender, &request);
        assert_eq!(index.batch(window, batch).collect::<Vec<u64>>(), vec![0, 1]);
    }

    /// xorshift64*, enough for a seeded interleaving.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A receiver's request over a random slice of what the sender could
    /// hold: random filter population, stripe, row and range.
    fn random_request(rng: &mut Rng, ws: &WorkingSet) -> ReconcileRequest {
        let (floor, top) = ws.range();
        let mut filter = BloomFilter::new(if rng.below(2) == 0 { 512 } else { 500 }, 3);
        let density = rng.below(4);
        for key in floor.saturating_sub(5)..top + 20 {
            if rng.below(4) < density {
                filter.insert(key);
            }
        }
        let low = floor.saturating_sub(3) + rng.below(40);
        let high = low + rng.below(top.saturating_sub(low) + 30);
        let stripe = 1 + rng.below(4);
        ReconcileRequest::new(filter, low, high, stripe, rng.below(stripe))
    }

    /// Equivalence harness for the offer index: a seeded random interleaving
    /// of out-of-order / duplicate / below-watermark inserts, both prune
    /// calls, request re-installs and service ticks with random transport
    /// refusals, driven the way `BulletNode` drives it (the index of a newly
    /// installed request is built lazily at the next service tick). After
    /// every step the index must offer exactly the keys of the reference
    /// scan `missing_keys_iter(ws, req, 4*batch).filter(!sent).take(batch)`.
    #[test]
    fn offer_index_matches_the_reference_scan_under_random_interleavings() {
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let batch = 1 + rng.below(6) as usize;
            let window = 4 * batch;
            let mut ws = WorkingSet::new();
            let mut edge = 0u64;
            let mut request = random_request(&mut rng, &ws);
            let mut sent: HashSet<u64> = HashSet::new();
            let mut index: Option<OfferIndex> = None;
            let (mut served, mut rebuilt) = (0usize, 0usize);
            for step in 0..3_000 {
                match rng.below(100) {
                    0..=59 => {
                        // Mostly near the live edge; sometimes far behind it
                        // (below the watermark) or a repeat.
                        let key = match rng.below(10) {
                            0 => ws.low_watermark().saturating_sub(1 + rng.below(20)),
                            1..=3 => ws.low_watermark() + rng.below(60),
                            _ => {
                                edge += rng.below(3);
                                edge.saturating_sub(rng.below(25))
                            }
                        };
                        if ws.insert(key) {
                            if let Some(index) = index.as_mut() {
                                index.learn(&request, key);
                            }
                        }
                    }
                    60..=69 => {
                        if rng.below(2) == 0 {
                            ws.prune_to_len(rng.below(80) as usize);
                        } else {
                            ws.prune_below(ws.low_watermark() + rng.below(30));
                        }
                        if let Some(index) = index.as_mut() {
                            index.prune_below(ws.low_watermark());
                        }
                    }
                    70..=77 => {
                        request = random_request(&mut rng, &ws);
                        sent.clear();
                        index = None;
                    }
                    _ => {
                        let index = index.get_or_insert_with(|| {
                            rebuilt += 1;
                            OfferIndex::build(&ws, &request)
                        });
                        let keys: Vec<u64> = index.batch(window, batch).collect();
                        let reference: Vec<u64> = missing_keys_iter(&ws, &request, window)
                            .filter(|k| !sent.contains(k))
                            .take(batch)
                            .collect();
                        assert_eq!(keys, reference, "seed {seed} step {step}: served keys");
                        for key in keys {
                            if rng.below(5) == 0 {
                                break; // the transport refused
                            }
                            index.mark_sent(key);
                            sent.insert(key);
                            served += 1;
                        }
                    }
                }
                let Some(index) = index.as_ref() else {
                    continue;
                };
                let wanted = missing_keys(&ws, &request, usize::MAX);
                assert_eq!(
                    index.offers.iter().map(|o| o.key()).collect::<Vec<u64>>(),
                    wanted,
                    "seed {seed} step {step}: wanted keys"
                );
                assert_eq!(
                    index.unsent(),
                    wanted.iter().filter(|k| !sent.contains(k)).count(),
                    "seed {seed} step {step}: unsent count"
                );
                assert_eq!(
                    index.batch(window, batch).collect::<Vec<u64>>(),
                    missing_keys_iter(&ws, &request, window)
                        .filter(|k| !sent.contains(k))
                        .take(batch)
                        .collect::<Vec<u64>>(),
                    "seed {seed} step {step}: next batch"
                );
            }
            assert!(
                served > 50 && rebuilt > 20,
                "seed {seed}: the interleaving must exercise serving ({served}) and re-installs ({rebuilt})"
            );
        }
    }
}
