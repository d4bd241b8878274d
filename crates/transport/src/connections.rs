//! Per-peer connection state, keyed by overlay id: [`PeerTable`], and
//! [`Connections`], its TFRC form (see the crate docs, "The connection
//! table").

use bullet_netsim::{OverlayId, SimTime};

use crate::rate::SendOutcome;
use crate::tfrc::{TfrcConfig, TfrcFeedback, TfrcHeader, TfrcReceiver, TfrcSender};

/// A map from peer id to a per-peer value.
///
/// The ids sit in a sorted `Vec` beside their values and are found by
/// binary search: there is no hasher to run per packet, and the entries are
/// in ascending peer order, the same in every process. An insert shifts the
/// entries above it, which is cheap at the sizes an agent reaches (no agent
/// has more than about a hundred peers).
#[derive(Clone, Debug)]
pub struct PeerTable<V> {
    /// Peer ids, strictly ascending.
    ids: Vec<OverlayId>,
    /// `values[i]` belongs to `ids[i]`.
    values: Vec<V>,
}

impl<V> Default for PeerTable<V> {
    fn default() -> Self {
        PeerTable {
            ids: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<V> PeerTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value held for `peer`, created by `make` if there is none.
    pub fn get_or_insert_with(&mut self, peer: OverlayId, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.ids.binary_search(&peer) {
            Ok(i) => i,
            Err(i) => {
                self.ids.insert(i, peer);
                self.values.insert(i, make());
                i
            }
        };
        &mut self.values[i]
    }

    /// Drops every peer.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.values.clear();
    }
}

/// Both halves of the TFRC connection with one peer. A peer stays in a
/// [`Connections`] table while at least one half exists.
#[derive(Clone, Debug, Default)]
pub struct Connection {
    /// The sending half toward the peer, created by the first send.
    sender: Option<TfrcSender>,
    /// The receiving half from the peer, created by the first data packet.
    receiver: Option<TfrcReceiver>,
}

/// The TFRC connections of one agent, one [`Connection`] per peer.
pub type Connections = PeerTable<Connection>;

impl PeerTable<Connection> {
    /// Sends a packet of `size_bytes` to `peer`, creating the sending half
    /// under `config` on first use. On success returns the header to stamp
    /// on the packet; a refused send is not sent.
    pub fn send(
        &mut self,
        peer: OverlayId,
        config: TfrcConfig,
        now: SimTime,
        size_bytes: u32,
    ) -> Result<TfrcHeader, SendOutcome> {
        self.get_or_insert_with(peer, Connection::default)
            .sender
            .get_or_insert_with(|| TfrcSender::new(config))
            .try_send(now, size_bytes)
    }

    /// Takes in a data packet from `peer`, creating the receiving half on
    /// first use. Returns the feedback to send back, when one is due.
    pub fn receive(
        &mut self,
        peer: OverlayId,
        now: SimTime,
        header: TfrcHeader,
        size_bytes: u32,
    ) -> Option<TfrcFeedback> {
        self.get_or_insert_with(peer, Connection::default)
            .receiver
            .get_or_insert_with(TfrcReceiver::new)
            .on_data(now, header, size_bytes)
    }

    /// Applies `peer`'s feedback to the sending half toward it. Feedback for
    /// a connection this table does not hold is ignored.
    pub fn feedback(&mut self, peer: OverlayId, now: SimTime, feedback: &TfrcFeedback) {
        let Ok(i) = self.ids.binary_search(&peer) else {
            return;
        };
        if let Some(sender) = &mut self.values[i].sender {
            sender.on_feedback(now, feedback);
        }
    }

    /// Drops the sending half toward `peer`.
    pub fn drop_sender(&mut self, peer: OverlayId) {
        self.drop_halves(peer, |conn| conn.sender = None);
    }

    /// Drops the receiving half from `peer`.
    pub fn drop_receiver(&mut self, peer: OverlayId) {
        self.drop_halves(peer, |conn| conn.receiver = None);
    }

    /// Drops both halves of the connection with `peer`.
    pub fn forget(&mut self, peer: OverlayId) {
        self.drop_halves(peer, |conn| *conn = Connection::default());
    }

    /// Runs every sending half's no-feedback timer (see
    /// [`TfrcSender::maybe_nofeedback_timeout`]); call it from a periodic
    /// housekeeping tick.
    pub fn maybe_nofeedback_timeout(&mut self, now: SimTime) {
        for sender in self
            .values
            .iter_mut()
            .filter_map(|conn| conn.sender.as_mut())
        {
            sender.maybe_nofeedback_timeout(now);
        }
    }

    /// Applies `drop` to `peer`'s connection, and removes the peer once it
    /// has no half left.
    fn drop_halves(&mut self, peer: OverlayId, drop: impl FnOnce(&mut Connection)) {
        let Ok(i) = self.ids.binary_search(&peer) else {
            return;
        };
        let conn = &mut self.values[i];
        drop(conn);
        if conn.sender.is_none() && conn.receiver.is_none() {
            self.ids.remove(i);
            self.values.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use bullet_netsim::{SimDuration, SimRng};

    use super::*;

    /// The model of one peer: how many sends and receives each half has
    /// seen since it was created, `None` while the half does not exist.
    type Halves = (Option<u64>, Option<u64>);

    /// A peer id, half the time from a dense range and half the time from a
    /// pool of sparse ids, so both inserts between neighbours and inserts far
    /// apart are exercised and ids repeat often enough to hit existing
    /// entries.
    fn draw_peer(rng: &mut SimRng, sparse: &[OverlayId]) -> OverlayId {
        if rng.chance(0.5) {
            rng.range_usize(0, 8)
        } else {
            *rng.choose(sparse).expect("the sparse pool is non-empty")
        }
    }

    fn check(conns: &Connections, model: &BTreeMap<OverlayId, Halves>, what: &str) {
        let ids = &conns.ids;
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "after {what}: ids not ascending: {ids:?}"
        );
        let got: Vec<(OverlayId, Halves)> = ids
            .iter()
            .zip(&conns.values)
            .map(|(&id, conn)| {
                let sent = conn
                    .sender
                    .as_ref()
                    .map(|s| s.packets_sent + s.sends_blocked);
                let received = conn.receiver.as_ref().map(|r| r.packets_received);
                (id, (sent, received))
            })
            .collect();
        let want: Vec<(OverlayId, Halves)> = model.iter().map(|(&id, &h)| (id, h)).collect();
        assert_eq!(got, want, "after {what}: table (left) vs model (right)");
    }

    /// Seeded random interleavings of every operation, checked after each
    /// step against a `BTreeMap` model: which peers are present, which
    /// halves each one has (and that each half is the one the operations on
    /// that peer built up), and that the entries stay in ascending peer
    /// order.
    #[test]
    fn connections_match_a_btreemap_model() {
        let config = TfrcConfig::default();
        for case in 0..64u64 {
            let mut rng = SimRng::new(0xc0ee_0000 + case);
            let sparse: Vec<OverlayId> = (0..12)
                .map(|_| rng.range_usize(8, usize::MAX >> 1))
                .collect();
            let mut conns = Connections::new();
            let mut model: BTreeMap<OverlayId, Halves> = BTreeMap::new();
            let mut now = SimTime::ZERO;
            for step in 0..500u64 {
                now += SimDuration::from_millis(rng.next_below(50));
                let peer = draw_peer(&mut rng, &sparse);
                let what = match rng.range_usize(0, 9) {
                    0 | 1 => {
                        let _ = conns.send(peer, config, now, 1_500);
                        let halves = model.entry(peer).or_default();
                        halves.0 = Some(halves.0.unwrap_or(0) + 1);
                        "send"
                    }
                    2 | 3 => {
                        let header = TfrcHeader {
                            seq: step,
                            timestamp: now,
                            rtt_estimate: SimDuration::from_millis(100),
                        };
                        conns.receive(peer, now, header, 1_500);
                        let halves = model.entry(peer).or_default();
                        halves.1 = Some(halves.1.unwrap_or(0) + 1);
                        "receive"
                    }
                    4 => {
                        let feedback = TfrcFeedback {
                            echo_timestamp: now,
                            echo_delay: SimDuration::ZERO,
                            receive_rate: 1e5,
                            loss_event_rate: 0.0,
                        };
                        conns.feedback(peer, now, &feedback);
                        "feedback (a lookup that creates nothing)"
                    }
                    5 => {
                        conns.drop_sender(peer);
                        if let Some(halves) = model.get_mut(&peer) {
                            halves.0 = None;
                        }
                        model.retain(|_, h| *h != (None, None));
                        "drop_sender"
                    }
                    6 => {
                        conns.drop_receiver(peer);
                        if let Some(halves) = model.get_mut(&peer) {
                            halves.1 = None;
                        }
                        model.retain(|_, h| *h != (None, None));
                        "drop_receiver"
                    }
                    7 => {
                        conns.forget(peer);
                        model.remove(&peer);
                        "forget"
                    }
                    _ if rng.chance(0.1) => {
                        conns.clear();
                        model.clear();
                        "clear"
                    }
                    _ => {
                        conns.maybe_nofeedback_timeout(now);
                        "sweep"
                    }
                };
                check(
                    &conns,
                    &model,
                    &format!("case {case} step {step}: {what} {peer}"),
                );
            }
        }
    }
}
