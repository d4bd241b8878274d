//! Peer-set management: finding peers (§3.1) and improving the mesh (§3.4).
//!
//! Each node keeps two bounded lists: *senders* (peers it receives missing
//! data from) and *receivers* (peers it serves). Candidates arrive once per
//! RanSub epoch as summary tickets; the node requests the candidate with the
//! lowest resemblance to its own ticket. Periodically it evicts the least
//! useful sender (or any sender whose traffic is mostly duplicates) and the
//! receiver that benefits least from it, freeing trial slots for better
//! peers.

use bullet_content::{OfferIndex, ReconcileRequest, SummaryTicket, WorkingSet};
use bullet_netsim::{OverlayId, SimRng};
use bullet_ransub::Member;

use crate::config::DUPLICATE_DROP_THRESHOLD;
use std::collections::HashSet;

/// State kept about one sending peer (a peer this node receives data from).
#[derive(Clone, Debug)]
pub struct SenderPeer {
    /// The peer's overlay id.
    pub node: OverlayId,
    /// Useful (non-duplicate) data bytes received from it in the current
    /// evaluation window.
    pub useful_bytes_window: u64,
    /// Duplicate packets received from it in the current window.
    pub duplicate_packets_window: u64,
    /// Total data packets received from it in the current window.
    pub total_packets_window: u64,
    /// Consecutive evaluation windows in which this sender delivered
    /// nothing at all (dead-peer detection under churn).
    pub idle_windows: u32,
    /// Whether this sender has ever delivered a packet; fresh trial peers
    /// get a doubled idle grace before being judged dead.
    pub ever_delivered: bool,
    /// Whether this sender currently owes us data: at the last filter
    /// refresh we were missing blocks striped to its reconciliation row.
    /// Only an owed sender can be judged stalled — an honest peer whose
    /// row has nothing outstanding is idle, not misbehaving.
    pub owed: bool,
}

impl SenderPeer {
    fn new(node: OverlayId) -> Self {
        SenderPeer {
            node,
            useful_bytes_window: 0,
            duplicate_packets_window: 0,
            total_packets_window: 0,
            idle_windows: 0,
            ever_delivered: false,
            owed: false,
        }
    }

    /// Fraction of this sender's packets that were duplicates in the window.
    pub fn duplicate_fraction(&self) -> f64 {
        if self.total_packets_window == 0 {
            0.0
        } else {
            self.duplicate_packets_window as f64 / self.total_packets_window as f64
        }
    }
}

/// State kept about one receiving peer (a peer this node serves data to).
#[derive(Clone, Debug)]
pub struct ReceiverPeer {
    /// The peer's overlay id.
    pub node: OverlayId,
    /// The reconciliation state (Bloom filter, range, striping) it installed.
    request: ReconcileRequest,
    /// The keys `request` is owed, with which of them were already forwarded
    /// (so no key is re-sent while the filter is stale). `None` from the
    /// moment a request is installed until the next service tick: this
    /// module holds no working set to build it from.
    offers: Option<OfferIndex>,
    /// Test oracle: the keys forwarded since `request` was installed, kept
    /// the way the rescanning implementation kept them.
    #[cfg(test)]
    pub(crate) shadow_sent: HashSet<u64>,
    /// Data bytes sent to this receiver in the current evaluation window.
    pub bytes_sent_window: u64,
    /// The receiver's *cumulative* received bytes as of its last
    /// `ReceiverReport` (its `raw_bytes` since start-up, duplicates
    /// included), not a per-window figure.
    pub reported_raw_bytes: u64,
    /// Whether any control activity (filter refresh, report, re-request)
    /// arrived from this receiver in the current evaluation window; fed to
    /// the liveness eviction of the recovery subsystem.
    pub active_this_window: bool,
    /// Consecutive evaluation windows without any activity from this
    /// receiver (dead-peer detection under churn).
    pub idle_windows: u32,
    /// Consecutive evaluation windows in which this receiver's reported
    /// intake lagged far below the mean across receivers (slow-receiver
    /// demotion, overload layer).
    pub lag_windows: u32,
}

impl ReceiverPeer {
    fn new(node: OverlayId, request: ReconcileRequest) -> Self {
        ReceiverPeer {
            node,
            request,
            offers: None,
            #[cfg(test)]
            shadow_sent: HashSet::new(),
            bytes_sent_window: 0,
            reported_raw_bytes: 0,
            active_this_window: true,
            idle_windows: 0,
            lag_windows: 0,
        }
    }

    /// The reconciliation request currently installed.
    pub fn request(&self) -> &ReconcileRequest {
        &self.request
    }

    /// Installs a new request (peering request or filter refresh). The offer
    /// index of the old one goes with it, sent marks included: the new
    /// filter already describes what arrived.
    pub fn install(&mut self, request: ReconcileRequest) {
        self.request = request;
        self.offers = None;
        #[cfg(test)]
        self.shadow_sent.clear();
    }

    /// The offer index of the installed request, built from `have` if the
    /// request is newer than the last call.
    pub fn offers(&mut self, have: &WorkingSet) -> &mut OfferIndex {
        self.offers
            .get_or_insert_with(|| OfferIndex::build(have, &self.request))
    }

    /// What this node sent the receiver this window, over everything the
    /// receiver has received since it started; the receiver with the
    /// smallest benefit is evicted first. The two sides are on different
    /// scales (one window against a lifetime), so a long-lived receiver
    /// reads as benefiting less than a late joiner fed the same.
    pub fn benefit(&self) -> f64 {
        if self.reported_raw_bytes == 0 {
            // No report yet: treat as fully dependent so fresh receivers are
            // not evicted before they had a chance to report.
            1.0
        } else {
            self.bytes_sent_window as f64 / self.reported_raw_bytes as f64
        }
    }
}

/// Outcome of evaluating the sender list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SenderEvaluation {
    /// Senders to drop (tear down and remove).
    pub drop: Vec<OverlayId>,
    /// The subset of `drop` evicted for *silence* (the idle rule). Only
    /// these can be liveness false positives: a duplicate-heavy or
    /// least-useful drop delivered packets that very window.
    pub silent: Vec<OverlayId>,
}

/// Manages the bounded sender and receiver lists of one node.
#[derive(Clone, Debug)]
pub struct PeerManager {
    max_senders: usize,
    max_receivers: usize,
    /// Require at least this many packets in the window before judging a
    /// sender, so newly added peers are not evicted prematurely.
    min_packets_to_judge: u64,
    resemblance_peering: bool,
    senders: Vec<SenderPeer>,
    receivers: Vec<ReceiverPeer>,
    /// Outstanding peering requests (candidates we asked, no answer yet).
    pending: HashSet<OverlayId>,
}

impl PeerManager {
    /// Creates a manager with the given list bounds.
    pub fn new(max_senders: usize, max_receivers: usize, resemblance_peering: bool) -> Self {
        PeerManager {
            max_senders,
            max_receivers,
            min_packets_to_judge: 20,
            resemblance_peering,
            senders: Vec::new(),
            receivers: Vec::new(),
            pending: HashSet::new(),
        }
    }

    /// Current sending peers.
    pub fn senders(&self) -> &[SenderPeer] {
        &self.senders
    }

    /// Current receiving peers.
    pub fn receivers(&self) -> &[ReceiverPeer] {
        &self.receivers
    }

    /// Mutable access to every receiver's state, in list order.
    pub fn receivers_mut(&mut self) -> &mut [ReceiverPeer] {
        &mut self.receivers
    }

    /// Mutable access to a receiver's state, if present.
    pub fn receiver_mut(&mut self, node: OverlayId) -> Option<&mut ReceiverPeer> {
        self.receivers.iter_mut().find(|r| r.node == node)
    }

    /// Mutable access to a sender's state, if present.
    pub fn sender_mut(&mut self, node: OverlayId) -> Option<&mut SenderPeer> {
        self.senders.iter_mut().find(|s| s.node == node)
    }

    /// Whether `node` is one of our senders.
    pub fn is_sender(&self, node: OverlayId) -> bool {
        self.senders.iter().any(|s| s.node == node)
    }

    /// Whether `node` is one of our receivers.
    pub fn is_receiver(&self, node: OverlayId) -> bool {
        self.receivers.iter().any(|r| r.node == node)
    }

    /// Chooses which candidate (if any) from a freshly delivered RanSub set
    /// to send a peering request to.
    ///
    /// `own_ticket` is this node's current summary ticket; `exclude` lists
    /// nodes that must not be considered (self, the tree parent, current
    /// children). Returns the chosen candidate and marks it pending.
    pub fn choose_candidate(
        &mut self,
        own_ticket: &SummaryTicket,
        candidates: &[Member<SummaryTicket>],
        exclude: &[OverlayId],
        rng: &mut SimRng,
    ) -> Option<OverlayId> {
        if self.senders.len() + self.pending.len() >= self.max_senders {
            return None;
        }
        let eligible: Vec<&Member<SummaryTicket>> = candidates
            .iter()
            .filter(|m| {
                !exclude.contains(&m.node)
                    && !self.is_sender(m.node)
                    && !self.pending.contains(&m.node)
            })
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let chosen = if self.resemblance_peering {
            // Lowest similarity ratio = most disjoint content.
            eligible
                .iter()
                .min_by(|a, b| {
                    own_ticket
                        .resemblance(&a.state)
                        .partial_cmp(&own_ticket.resemblance(&b.state))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.node.cmp(&b.node))
                })
                .map(|m| m.node)
        } else {
            let idx = rng.range_usize(0, eligible.len());
            Some(eligible[idx].node)
        }?;
        self.pending.insert(chosen);
        Some(chosen)
    }

    /// Handles the acceptance of a peering request we sent to `node`.
    /// Returns `true` if the sender was added to the sender list.
    pub fn on_peering_accept(&mut self, node: OverlayId) -> bool {
        self.pending.remove(&node);
        if self.is_sender(node) || self.senders.len() >= self.max_senders {
            return false;
        }
        self.senders.push(SenderPeer::new(node));
        true
    }

    /// Handles the rejection of a peering request we sent to `node`.
    pub fn on_peering_reject(&mut self, node: OverlayId) {
        self.pending.remove(&node);
    }

    /// Handles an incoming peering request from `node`. Returns `true` (and
    /// installs the receiver) when there is space in the receiver list.
    pub fn on_peering_request(&mut self, node: OverlayId, request: ReconcileRequest) -> bool {
        if self.is_receiver(node) {
            // Refresh the stored request instead of duplicating the entry.
            if let Some(r) = self.receiver_mut(node) {
                r.install(request);
            }
            return true;
        }
        if self.receivers.len() >= self.max_receivers {
            return false;
        }
        self.receivers.push(ReceiverPeer::new(node, request));
        true
    }

    /// Tells every built offer index that this node now holds `seq` (it was
    /// new to the working set).
    pub fn offers_learn(&mut self, seq: u64) {
        for receiver in &mut self.receivers {
            if let Some(offers) = receiver.offers.as_mut() {
                offers.learn(&receiver.request, seq);
            }
        }
    }

    /// Tells every built offer index that the working set was pruned and
    /// `low` is its new low watermark.
    pub fn offers_prune_below(&mut self, low: u64) {
        for receiver in &mut self.receivers {
            if let Some(offers) = receiver.offers.as_mut() {
                offers.prune_below(low);
            }
        }
    }

    /// Removes `node` from whichever list it appears in (peer drop or
    /// failure).
    pub fn remove_peer(&mut self, node: OverlayId) {
        self.senders.retain(|s| s.node != node);
        self.receivers.retain(|r| r.node != node);
        self.pending.remove(&node);
    }

    /// Clears outstanding requests that never got an answer (the candidate
    /// may have failed); called from the periodic evaluation.
    pub fn clear_stale_pending(&mut self) {
        self.pending.clear();
    }

    /// Senders that stalled in the current evaluation window: peers with
    /// an *outstanding advertised-but-unserved* block — their
    /// reconciliation row covered data we were missing at the last filter
    /// refresh ([`SenderPeer::owed`]) — that produced nothing at all this
    /// window, having either delivered before or already sat through a
    /// full prior window (so a fresh trial peer gets one window of
    /// shelter, but a peer that advertised content and never produces any
    /// — a false advertiser — is not sheltered forever). An honest peer
    /// whose row has nothing outstanding is idle, not stalled, and is
    /// never penalized. Fed to the integrity layer's health scoring. Call
    /// before [`PeerManager::evaluate_senders`], which resets the window
    /// counters. Order follows the sender list, so the result is
    /// deterministic.
    pub fn stalled_senders(&self) -> Vec<OverlayId> {
        self.senders
            .iter()
            .filter(|s| {
                s.owed && s.total_packets_window == 0 && (s.ever_delivered || s.idle_windows >= 1)
            })
            .map(|s| s.node)
            .collect()
    }

    /// Records whether `node`'s reconciliation row covered blocks we are
    /// actually missing, as of the latest filter refresh. Called by the
    /// node each time it (re)installs a request at a sender.
    pub fn set_sender_owed(&mut self, node: OverlayId, owed: bool) {
        if let Some(sender) = self.sender_mut(node) {
            sender.owed = owed;
        }
    }

    /// Receivers whose reported cumulative intake has lagged below `fraction`
    /// of the mean across reporting receivers for `windows` consecutive
    /// evaluation windows (overload layer: slow receivers are demoted from
    /// serving slots before any healthy peer is touched). The reports are
    /// lifetime totals, not window rates, so a late joiner reads as slow
    /// beside receivers that started earlier. Non-reporting receivers are
    /// sheltered — the liveness check owns silence. Demoted receivers are
    /// removed and returned; lag streaks update for everyone else.
    pub fn evaluate_slow_receivers(&mut self, fraction: f64, windows: u32) -> Vec<OverlayId> {
        let reported: Vec<u64> = self
            .receivers
            .iter()
            .map(|r| r.reported_raw_bytes)
            .filter(|&b| b > 0)
            .collect();
        if reported.len() < 2 {
            // A lone reporter has no cohort to lag behind.
            return Vec::new();
        }
        let mean = reported.iter().sum::<u64>() as f64 / reported.len() as f64;
        let threshold = mean * fraction;
        let mut drop = Vec::new();
        for receiver in &mut self.receivers {
            if receiver.reported_raw_bytes == 0 {
                continue;
            }
            if (receiver.reported_raw_bytes as f64) < threshold {
                receiver.lag_windows += 1;
                if receiver.lag_windows >= windows {
                    drop.push(receiver.node);
                }
            } else {
                receiver.lag_windows = 0;
            }
        }
        for node in &drop {
            self.receivers.retain(|r| r.node != *node);
        }
        drop
    }

    /// Evaluates the sender list (paper §3.4): drop any sender whose traffic
    /// was mostly duplicates; otherwise, when the list is full, drop the
    /// sender delivering the least useful data to open a trial slot. Window
    /// counters are reset afterwards.
    ///
    /// `idle_limit` additionally drops senders that delivered *nothing* for
    /// that many consecutive windows (dead-peer detection under churn —
    /// such senders are invisible to the duplicate/usefulness rules, whose
    /// judgement requires a minimum packet count). A fresh trial peer that
    /// has never delivered anything gets twice the limit before judgement,
    /// so a slow first reconciliation round is not mistaken for a corpse
    /// (the same sheltering `min_packets_to_judge` gives the other rules).
    /// `None` preserves the paper's static-network behaviour.
    ///
    /// `protected` is a liveness shield: it is never dropped, whatever the
    /// rules say. The overlay passes the sender that is a node's *last live
    /// path* toward the source (sole sender while the tree parent is dead or
    /// mid-re-attach), so overload shedding and eviction can never fully
    /// detach a node. Window counters still reset for everyone, the shielded
    /// sender included.
    pub fn evaluate_senders(
        &mut self,
        idle_limit: Option<u32>,
        protected: Option<OverlayId>,
    ) -> SenderEvaluation {
        let mut evaluation = SenderEvaluation::default();
        // Dead senders first: no packets at all for `idle_limit` windows.
        if let Some(limit) = idle_limit {
            for sender in &mut self.senders {
                if sender.total_packets_window == 0 {
                    sender.idle_windows += 1;
                    let grace = if sender.ever_delivered {
                        limit
                    } else {
                        limit * 2
                    };
                    if sender.idle_windows >= grace {
                        evaluation.drop.push(sender.node);
                        evaluation.silent.push(sender.node);
                    }
                } else {
                    sender.idle_windows = 0;
                    sender.ever_delivered = true;
                }
            }
        }
        // Duplicate-heavy senders are dropped regardless of list occupancy.
        for sender in &self.senders {
            if sender.total_packets_window >= self.min_packets_to_judge
                && sender.duplicate_fraction() > DUPLICATE_DROP_THRESHOLD
            {
                evaluation.drop.push(sender.node);
            }
        }
        // If nothing wasteful was found and the list is full, free one trial
        // slot by dropping the least useful sender.
        if evaluation.drop.is_empty() && self.senders.len() >= self.max_senders {
            if let Some(worst) = self
                .senders
                .iter()
                .filter(|s| s.total_packets_window >= self.min_packets_to_judge)
                .min_by_key(|s| s.useful_bytes_window)
            {
                evaluation.drop.push(worst.node);
            }
        }
        if let Some(shielded) = protected {
            evaluation.drop.retain(|&n| n != shielded);
            evaluation.silent.retain(|&n| n != shielded);
        }
        for node in &evaluation.drop {
            self.senders.retain(|s| s.node != *node);
        }
        for sender in &mut self.senders {
            sender.useful_bytes_window = 0;
            sender.duplicate_packets_window = 0;
            sender.total_packets_window = 0;
        }
        evaluation
    }

    /// Installs `node` directly as an accepted sender, bypassing the
    /// request/accept handshake. Test scaffolding only.
    #[cfg(test)]
    pub(crate) fn force_sender(&mut self, node: OverlayId) {
        self.pending.insert(node);
        self.on_peering_accept(node);
    }

    /// Drops receivers that showed no control activity (filter refreshes,
    /// reports, re-requests) for `limit` consecutive evaluation windows —
    /// the receiver-side half of the recovery subsystem's peer-liveness
    /// detection. A crashed receiver otherwise occupies a serving slot
    /// forever: it reports nothing, so the benefit-based eviction (which
    /// shelters non-reporters as fully dependent) never judges it. Returns
    /// the evicted receivers and resets the per-window activity flags.
    pub fn evaluate_receiver_liveness(&mut self, limit: u32) -> Vec<OverlayId> {
        let mut drop = Vec::new();
        for receiver in &mut self.receivers {
            if receiver.active_this_window {
                receiver.idle_windows = 0;
            } else {
                receiver.idle_windows += 1;
                if receiver.idle_windows >= limit {
                    drop.push(receiver.node);
                }
            }
            receiver.active_this_window = false;
        }
        for node in &drop {
            self.receivers.retain(|r| r.node != *node);
        }
        drop
    }

    /// Evaluates the receiver list (paper §3.4): when full, drop the receiver
    /// acquiring the smallest portion of its bandwidth through us. Window
    /// counters are reset afterwards. Returns the dropped receiver, if any.
    pub fn evaluate_receivers(&mut self) -> Option<OverlayId> {
        let dropped = if self.receivers.len() >= self.max_receivers {
            self.receivers
                .iter()
                .min_by(|a, b| {
                    a.benefit()
                        .partial_cmp(&b.benefit())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|r| r.node)
        } else {
            None
        };
        if let Some(node) = dropped {
            self.receivers.retain(|r| r.node != node);
        }
        for receiver in &mut self.receivers {
            receiver.bytes_sent_window = 0;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_content::{BloomFilter, PermutationFamily};

    fn ticket(range: std::ops::Range<u64>) -> SummaryTicket {
        SummaryTicket::from_elements(&PermutationFamily::paper_default(), range)
    }

    fn request() -> ReconcileRequest {
        ReconcileRequest::new(BloomFilter::new(1_024, 4), 0, 100, 1, 0)
    }

    fn manager() -> PeerManager {
        PeerManager::new(3, 3, true)
    }

    #[test]
    fn chooses_the_most_disjoint_candidate() {
        let mut pm = manager();
        let mut rng = SimRng::new(1);
        let own = ticket(0..500);
        let candidates = vec![
            Member {
                node: 10,
                state: ticket(0..500),
            }, // identical
            Member {
                node: 11,
                state: ticket(400..900),
            }, // partial overlap
            Member {
                node: 12,
                state: ticket(5_000..5_500),
            }, // disjoint
        ];
        let chosen = pm.choose_candidate(&own, &candidates, &[], &mut rng);
        assert_eq!(chosen, Some(12));
    }

    #[test]
    fn excluded_and_existing_peers_are_not_chosen() {
        let mut pm = manager();
        let mut rng = SimRng::new(2);
        let own = ticket(0..100);
        pm.on_peering_request(11, request());
        let _ = pm.on_peering_accept(10);
        // 10 is pending->accepted as sender? ensure by full flow:
        let candidates = vec![
            Member {
                node: 10,
                state: ticket(900..1_000),
            },
            Member {
                node: 13,
                state: ticket(700..800),
            },
        ];
        // Exclude 13 (say it is our parent): only 10 remains, but 10 is
        // already a sender, so nothing is chosen.
        let chosen = pm.choose_candidate(&own, &candidates, &[13], &mut rng);
        assert_eq!(chosen, None);
    }

    #[test]
    fn sender_list_is_bounded() {
        let mut pm = manager();
        for node in 0..10 {
            pm.pending.insert(node);
            pm.on_peering_accept(node);
        }
        assert_eq!(pm.senders().len(), 3);
    }

    #[test]
    fn receiver_list_is_bounded_and_requests_refresh() {
        let mut pm = manager();
        assert!(pm.on_peering_request(1, request()));
        assert!(pm.on_peering_request(2, request()));
        assert!(pm.on_peering_request(3, request()));
        assert!(!pm.on_peering_request(4, request()), "list is full");
        // Re-requesting from an existing receiver refreshes instead of
        // duplicating.
        assert!(pm.on_peering_request(2, request()));
        assert_eq!(pm.receivers().len(), 3);
    }

    #[test]
    fn offer_indexes_follow_the_working_set_and_die_with_their_request() {
        let mut pm = manager();
        let mut have = WorkingSet::new();
        (0..50).for_each(|seq| {
            have.insert(seq);
        });
        pm.on_peering_request(1, request());
        // Not built yet: working-set changes before the first service tick
        // are picked up by the build itself.
        have.insert(50);
        pm.offers_learn(50);
        let offers = pm.receiver_mut(1).unwrap().offers(&have);
        assert_eq!(offers.unsent(), 51);
        offers.mark_sent(0);
        offers.mark_sent(1);
        // Built: inserts and prunes are forwarded.
        have.insert(51);
        pm.offers_learn(51);
        have.prune_below(10);
        pm.offers_prune_below(have.low_watermark());
        let offers = pm.receiver_mut(1).unwrap().offers(&have);
        assert_eq!(
            offers.batch(4, 4).collect::<Vec<u64>>(),
            vec![10, 11, 12, 13]
        );
        assert_eq!(offers.unsent(), 42);
        offers.mark_sent(10);
        // A refresh (or repeated peering request) starts over, sent marks
        // included.
        pm.on_peering_request(1, request());
        let offers = pm.receiver_mut(1).unwrap().offers(&have);
        assert_eq!(offers.unsent(), 42);
        assert_eq!(offers.batch(4, 1).next(), Some(10));
    }

    #[test]
    fn duplicate_heavy_senders_are_dropped() {
        let mut pm = manager();
        pm.pending.insert(7);
        pm.on_peering_accept(7);
        {
            let s = pm.sender_mut(7).unwrap();
            s.total_packets_window = 100;
            s.duplicate_packets_window = 80;
            s.useful_bytes_window = 10_000;
        }
        let eval = pm.evaluate_senders(None, None);
        assert_eq!(eval.drop, vec![7]);
        assert!(pm.senders().is_empty());
    }

    #[test]
    fn least_useful_sender_is_dropped_only_when_full() {
        let mut pm = manager();
        for node in [1, 2] {
            pm.pending.insert(node);
            pm.on_peering_accept(node);
            let s = pm.sender_mut(node).unwrap();
            s.total_packets_window = 100;
            s.useful_bytes_window = node as u64 * 1_000;
        }
        // Not full (2 of 3): nobody is dropped.
        assert!(pm.evaluate_senders(None, None).drop.is_empty());
        pm.pending.insert(3);
        pm.on_peering_accept(3);
        for node in [1, 2, 3] {
            let s = pm.sender_mut(node).unwrap();
            s.total_packets_window = 100;
            s.useful_bytes_window = node as u64 * 1_000;
        }
        // Full: the least useful sender (node 1) is dropped.
        assert_eq!(pm.evaluate_senders(None, None).drop, vec![1]);
    }

    #[test]
    fn idle_senders_are_dropped_only_with_a_limit() {
        // A crashed sender delivers nothing: the duplicate/usefulness rules
        // never judge it (min_packets_to_judge), so without the idle limit
        // it survives forever and its reconciliation row stays dead.
        let mut pm = manager();
        for node in [1, 2] {
            pm.pending.insert(node);
            pm.on_peering_accept(node);
        }
        pm.sender_mut(1).unwrap().total_packets_window = 100;
        // Without a limit: the idle sender survives arbitrarily many windows.
        for _ in 0..5 {
            assert!(pm.evaluate_senders(None, None).drop.is_empty());
        }
        // Mark sender 2 as once-alive (it delivered, then its node crashed).
        pm.sender_mut(2).unwrap().total_packets_window = 5;
        assert!(pm.evaluate_senders(Some(2), None).drop.is_empty());
        // With a limit of 2: first idle window counts, second drops.
        pm.sender_mut(1).unwrap().total_packets_window = 100;
        assert!(pm.evaluate_senders(Some(2), None).drop.is_empty());
        pm.sender_mut(1).unwrap().total_packets_window = 100;
        assert_eq!(pm.evaluate_senders(Some(2), None).drop, vec![2]);
        assert!(pm.is_sender(1), "active sender untouched");
        assert!(!pm.is_sender(2));
    }

    #[test]
    fn a_protected_sender_survives_every_drop_rule() {
        let mut pm = manager();
        for node in [1, 2, 3] {
            pm.pending.insert(node);
            pm.on_peering_accept(node);
        }
        // Node 2 trips every rule at once: duplicate-heavy, least useful,
        // and (after the resets below) idle. The shield must beat all of
        // them.
        {
            let s = pm.sender_mut(2).unwrap();
            s.total_packets_window = 100;
            s.duplicate_packets_window = 90;
            s.useful_bytes_window = 1;
        }
        for node in [1, 3] {
            let s = pm.sender_mut(node).unwrap();
            s.total_packets_window = 100;
            s.useful_bytes_window = 50_000;
        }
        assert!(pm.evaluate_senders(Some(1), Some(2)).drop.is_empty());
        assert!(pm.is_sender(2), "shielded sender evicted");
        // Idle rule: node 2 delivered once, then goes silent past the limit.
        for _ in 0..4 {
            let eval = pm.evaluate_senders(Some(1), Some(2));
            assert!(
                !eval.drop.contains(&2),
                "shielded sender evicted while idle"
            );
        }
        assert!(pm.is_sender(2));
    }

    #[test]
    fn only_idle_drops_are_silent_and_the_shield_filters_both_lists() {
        let mut pm = manager();
        for node in [1, 2, 3] {
            pm.force_sender(node);
        }
        // Window 1: everyone delivers; node 1 mostly duplicates. It is
        // dropped for waste, having spoken all window — not for silence.
        for node in [1, 2, 3] {
            pm.sender_mut(node).unwrap().total_packets_window = 100;
        }
        pm.sender_mut(1).unwrap().duplicate_packets_window = 90;
        let eval = pm.evaluate_senders(Some(1), None);
        assert_eq!(eval.drop, vec![1]);
        assert!(
            eval.silent.is_empty(),
            "a duplicate-heavy drop is not silent"
        );
        // Window 2: nodes 2 and 3 both go quiet past the limit. Node 3 is
        // shielded, so it is on neither list; node 2 is on both.
        let eval = pm.evaluate_senders(Some(1), Some(3));
        assert_eq!(eval.drop, vec![2]);
        assert_eq!(eval.silent, vec![2], "an idle drop is silent");
        assert!(pm.is_sender(3));
    }

    #[test]
    fn fresh_trial_senders_get_a_doubled_idle_grace() {
        // A peer that has never delivered (its first reconciliation round
        // may legitimately take a while) survives `limit` idle windows and
        // only drops at `2 * limit`.
        let mut pm = manager();
        pm.pending.insert(4);
        pm.on_peering_accept(4);
        for _ in 0..3 {
            assert!(pm.evaluate_senders(Some(2), None).drop.is_empty());
        }
        assert_eq!(pm.evaluate_senders(Some(2), None).drop, vec![4]);
    }

    #[test]
    fn a_delivery_resets_the_idle_count() {
        let mut pm = manager();
        pm.pending.insert(7);
        pm.on_peering_accept(7);
        assert!(pm.evaluate_senders(Some(2), None).drop.is_empty());
        // One packet arrives: the idle streak restarts.
        pm.sender_mut(7).unwrap().total_packets_window = 1;
        assert!(pm.evaluate_senders(Some(2), None).drop.is_empty());
        assert_eq!(pm.senders()[0].idle_windows, 0);
        assert!(pm.evaluate_senders(Some(2), None).drop.is_empty());
        assert_eq!(pm.evaluate_senders(Some(2), None).drop, vec![7]);
    }

    #[test]
    fn new_senders_are_not_judged_prematurely() {
        let mut pm = manager();
        for node in [1, 2, 3] {
            pm.pending.insert(node);
            pm.on_peering_accept(node);
        }
        // No traffic yet: even though the list is full, nothing is dropped.
        assert!(pm.evaluate_senders(None, None).drop.is_empty());
    }

    #[test]
    fn least_benefiting_receiver_is_dropped_when_full() {
        let mut pm = manager();
        for node in [1, 2, 3] {
            pm.on_peering_request(node, request());
        }
        for (node, sent, total) in [
            (1u64, 50_000u64, 100_000u64),
            (2, 10_000, 100_000),
            (3, 90_000, 100_000),
        ] {
            let r = pm.receiver_mut(node as usize).unwrap();
            r.bytes_sent_window = sent;
            r.reported_raw_bytes = total;
        }
        assert_eq!(pm.evaluate_receivers(), Some(2));
        assert_eq!(pm.receivers().len(), 2);
        // Not full anymore: next evaluation drops nobody.
        assert_eq!(pm.evaluate_receivers(), None);
    }

    #[test]
    fn silent_receivers_are_dropped_by_the_liveness_check() {
        let mut pm = manager();
        pm.on_peering_request(1, request());
        pm.on_peering_request(2, request());
        // Fresh receivers count as active in their first window.
        assert!(pm.evaluate_receiver_liveness(2).is_empty());
        // Receiver 1 refreshes (activity); receiver 2 stays silent.
        pm.receiver_mut(1).unwrap().active_this_window = true;
        assert!(pm.evaluate_receiver_liveness(2).is_empty());
        pm.receiver_mut(1).unwrap().active_this_window = true;
        assert_eq!(pm.evaluate_receiver_liveness(2), vec![2]);
        assert!(pm.is_receiver(1), "active receiver untouched");
        assert!(!pm.is_receiver(2), "silent receiver evicted");
    }

    #[test]
    fn random_peering_mode_still_respects_exclusions() {
        let mut pm = PeerManager::new(3, 3, false);
        let mut rng = SimRng::new(3);
        let own = ticket(0..10);
        let candidates = vec![
            Member {
                node: 5,
                state: ticket(0..10),
            },
            Member {
                node: 6,
                state: ticket(0..10),
            },
        ];
        for _ in 0..20 {
            pm.clear_stale_pending();
            let chosen = pm.choose_candidate(&own, &candidates, &[5], &mut rng);
            assert_eq!(chosen, Some(6));
        }
    }

    #[test]
    fn stalled_senders_are_the_once_productive_now_silent_ones() {
        let mut pm = PeerManager::new(5, 3, true);
        for node in [1, 2, 3] {
            pm.pending.insert(node);
            pm.on_peering_accept(node);
            pm.set_sender_owed(node, true);
        }
        // Window 1: everyone delivers; evaluation records ever_delivered.
        for node in [1, 2, 3] {
            pm.sender_mut(node).unwrap().total_packets_window = 10;
        }
        assert!(pm.stalled_senders().is_empty(), "all productive");
        pm.evaluate_senders(Some(4), None);
        // Window 2: only node 2 delivers. Nodes 1 and 3 are stalls; a
        // brand-new trial peer (never delivered, no prior window) is
        // sheltered for its first window only.
        pm.pending.insert(4);
        pm.on_peering_accept(4);
        pm.set_sender_owed(4, true);
        pm.sender_mut(2).unwrap().total_packets_window = 10;
        assert_eq!(pm.stalled_senders(), vec![1, 3]);
        pm.evaluate_senders(Some(8), None);
        // Window 3: node 4 has now sat through a full silent window; a
        // never-delivering false advertiser stops being sheltered.
        pm.sender_mut(2).unwrap().total_packets_window = 10;
        assert_eq!(pm.stalled_senders(), vec![1, 3, 4]);
    }

    #[test]
    fn senders_owed_nothing_are_never_stalled() {
        // The PR 8 misfire: an honest sender whose reconciliation row has
        // nothing outstanding went silent and was penalized anyway. Owed
        // tracking shelters it — only a sender sitting on an advertised-
        // but-unserved block can stall.
        let mut pm = PeerManager::new(5, 3, true);
        for node in [1, 2] {
            pm.pending.insert(node);
            pm.on_peering_accept(node);
            pm.sender_mut(node).unwrap().total_packets_window = 10;
        }
        pm.evaluate_senders(Some(4), None);
        // Both are silent this window, but only node 2 owes us data.
        pm.set_sender_owed(1, false);
        pm.set_sender_owed(2, true);
        assert_eq!(pm.stalled_senders(), vec![2]);
        // The debt was served (or the refresh found nothing missing).
        pm.set_sender_owed(2, false);
        assert!(pm.stalled_senders().is_empty());
    }

    #[test]
    fn persistently_lagging_receivers_are_demoted() {
        let mut pm = manager();
        for node in [1, 2, 3] {
            pm.on_peering_request(node, request());
        }
        // Node 3 reports a tiny fraction of the cohort mean.
        let feed = |pm: &mut PeerManager| {
            for (node, total) in [(1u64, 100_000u64), (2, 120_000), (3, 1_000)] {
                if let Some(r) = pm.receiver_mut(node as usize) {
                    r.reported_raw_bytes = total;
                }
            }
        };
        feed(&mut pm);
        assert!(pm.evaluate_slow_receivers(0.25, 3).is_empty());
        feed(&mut pm);
        assert!(pm.evaluate_slow_receivers(0.25, 3).is_empty());
        feed(&mut pm);
        assert_eq!(pm.evaluate_slow_receivers(0.25, 3), vec![3]);
        assert!(!pm.is_receiver(3), "lagging receiver demoted");
        assert!(pm.is_receiver(1) && pm.is_receiver(2), "healthy kept");
    }

    #[test]
    fn slow_receiver_demotion_spares_non_reporters_and_recoverers() {
        let mut pm = manager();
        for node in [1, 2, 3] {
            pm.on_peering_request(node, request());
        }
        // Node 3 never reported: the liveness check owns silence.
        pm.receiver_mut(1).unwrap().reported_raw_bytes = 100_000;
        pm.receiver_mut(2).unwrap().reported_raw_bytes = 100;
        assert!(pm.evaluate_slow_receivers(0.25, 2).is_empty());
        // Node 2 recovers before its streak completes: streak resets.
        pm.receiver_mut(2).unwrap().reported_raw_bytes = 90_000;
        assert!(pm.evaluate_slow_receivers(0.25, 2).is_empty());
        pm.receiver_mut(2).unwrap().reported_raw_bytes = 100;
        assert!(pm.evaluate_slow_receivers(0.25, 2).is_empty());
        assert_eq!(pm.receivers().len(), 3, "nobody demoted");
        // A lone reporter has no cohort: never demoted.
        let mut lone = manager();
        lone.on_peering_request(9, request());
        lone.receiver_mut(9).unwrap().reported_raw_bytes = 1;
        for _ in 0..5 {
            assert!(lone.evaluate_slow_receivers(0.9, 1).is_empty());
        }
    }

    #[test]
    fn remove_peer_clears_both_lists() {
        let mut pm = manager();
        pm.pending.insert(9);
        pm.on_peering_accept(9);
        pm.on_peering_request(9, request());
        pm.remove_peer(9);
        assert!(!pm.is_sender(9));
        assert!(!pm.is_receiver(9));
    }
}
