//! Bullet wire messages.
//!
//! One enum covers every message a Bullet node exchanges: the data stream and
//! its TFRC feedback, RanSub collect/distribute sets carrying summary
//! tickets, and the peering control traffic (requests, accepts, Bloom filter
//! refreshes, receiver reports and tear-downs). Wire sizes are modelled
//! explicitly so the harness can reproduce the paper's ~30 Kbps per-node
//! control overhead number.

use bullet_content::{ReconcileRequest, SummaryTicket};
use bullet_ransub::RanSubMsg;
use bullet_transport::{TfrcFeedback, TfrcHeader, FEEDBACK_PACKET_BYTES};

/// A message exchanged between Bullet nodes.
#[derive(Clone, Debug)]
pub enum BulletMsg {
    /// A data packet carrying application sequence number `seq`.
    Data {
        /// Per-connection TFRC header.
        header: TfrcHeader,
        /// Application-level sequence number of the carried object.
        seq: u64,
        /// Per-block integrity digest the packet is travelling with
        /// (sealed by the source, relayed by forwarders). Rides inside
        /// the existing packet framing, so it adds no wire bytes.
        digest: u64,
    },
    /// TFRC feedback for the data connection flowing from the message's
    /// sender back to its destination.
    Feedback(TfrcFeedback),
    /// RanSub collect/distribute traffic carrying summary tickets.
    RanSub(RanSubMsg<SummaryTicket>),
    /// Request to peer: "send me data matching this reconciliation state".
    PeeringRequest {
        /// The requester's current Bloom filter, range and striping.
        request: ReconcileRequest,
    },
    /// The potential sender accepted the peering request.
    PeeringAccept,
    /// The potential sender rejected the peering request (receiver list
    /// full).
    PeeringReject,
    /// The potential sender is under overload pressure and asks the
    /// requester to retry after the carried backoff instead of silently
    /// dropping the join (overload admission control).
    PeeringDeferred {
        /// How long the requester should wait before retrying.
        retry_after: bullet_netsim::SimDuration,
    },
    /// Periodic refresh of the Bloom filter, range and row assignment a
    /// receiver installs at one of its senders.
    FilterRefresh {
        /// Updated reconciliation state.
        request: ReconcileRequest,
    },
    /// A receiver tells a sender how much data it has received in all, sent
    /// once per evaluation window (used for the sender's receiver eviction
    /// and slow-receiver demotion).
    ReceiverReport {
        /// Bytes of data the receiver obtained from *all* sources since it
        /// started, duplicates included: its cumulative `raw_bytes`, not a
        /// per-window count.
        cumulative_raw_bytes: u64,
    },
    /// Either endpoint tears down the peering relationship.
    PeerDrop,
    /// A gracefully departing node tells its tree parent goodbye and hands
    /// over its children for adoption (scenario dynamics).
    Leave {
        /// The leaver's children, to be adopted by the recipient.
        children: Vec<usize>,
    },
    /// A gracefully departing node points each of its children at their new
    /// parent (the leaver's own parent).
    Reparent {
        /// The child's new tree parent (`None` only if a root ever left,
        /// which scenario scripts do not do).
        new_parent: Option<usize>,
    },
    /// An orphan (a node whose parent went silent, §4.6) asks the recipient
    /// to adopt it as a tree child.
    Reattach,
    /// The recipient of a [`BulletMsg::Reattach`] adopted the orphan; the
    /// orphan should switch its parent pointer to the sender.
    ReattachAccept,
    /// The recipient of a [`BulletMsg::Reattach`] refused the adoption
    /// (it would create a cycle); the orphan should try its next candidate.
    ReattachReject,
}

/// Fixed per-message header overhead (IP + UDP + Bullet framing), in bytes.
pub const HEADER_BYTES: u32 = 40;

/// Wire size of one summary-ticket entry in a RanSub set: the ticket itself
/// plus the node address.
pub const RANSUB_ENTRY_BYTES: u32 = 128;

impl BulletMsg {
    /// The size this message occupies on the wire, in bytes.
    ///
    /// `data_packet_size` is the configured size of a full data packet
    /// (payload plus headers); every other message type derives its size from
    /// its contents.
    pub fn wire_bytes(&self, data_packet_size: u32) -> u32 {
        match self {
            BulletMsg::Data { .. } => data_packet_size,
            BulletMsg::Feedback(_) => FEEDBACK_PACKET_BYTES,
            BulletMsg::RanSub(msg) => {
                let members = match msg {
                    RanSubMsg::Collect { set, .. } | RanSubMsg::Distribute { set, .. } => {
                        set.members.len() as u32
                    }
                };
                HEADER_BYTES + members * RANSUB_ENTRY_BYTES
            }
            BulletMsg::PeeringRequest { request } | BulletMsg::FilterRefresh { request } => {
                HEADER_BYTES + request.wire_bytes()
            }
            BulletMsg::PeeringAccept
            | BulletMsg::PeeringReject
            | BulletMsg::PeeringDeferred { .. }
            | BulletMsg::PeerDrop
            | BulletMsg::Reparent { .. }
            | BulletMsg::Reattach
            | BulletMsg::ReattachAccept
            | BulletMsg::ReattachReject
            | BulletMsg::ReceiverReport { .. } => HEADER_BYTES,
            // Eight bytes of address per handed-over child.
            BulletMsg::Leave { children } => HEADER_BYTES + children.len() as u32 * 8,
        }
    }

    /// Whether this message is part of the data stream (as opposed to
    /// protocol control traffic).
    pub fn is_data(&self) -> bool {
        matches!(self, BulletMsg::Data { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_content::BloomFilter;
    use bullet_netsim::{SimDuration, SimTime};
    use bullet_ransub::WeightedSet;

    fn header() -> TfrcHeader {
        TfrcHeader {
            seq: 0,
            timestamp: SimTime::ZERO,
            rtt_estimate: SimDuration::from_millis(100),
        }
    }

    #[test]
    fn data_uses_the_configured_packet_size() {
        let msg = BulletMsg::Data {
            header: header(),
            seq: 7,
            digest: bullet_content::block_digest(7),
        };
        assert_eq!(msg.wire_bytes(1_500), 1_500);
        assert!(msg.is_data());
    }

    #[test]
    fn ransub_size_scales_with_set_size() {
        let set: WeightedSet<SummaryTicket> = WeightedSet::empty();
        let empty = BulletMsg::RanSub(RanSubMsg::Distribute { epoch: 1, set });
        assert_eq!(empty.wire_bytes(1_500), HEADER_BYTES);
        assert!(!empty.is_data());
    }

    #[test]
    fn refresh_size_includes_the_bloom_filter() {
        let request = ReconcileRequest::new(BloomFilter::new(16_384, 6), 0, 100, 4, 1);
        let msg = BulletMsg::FilterRefresh { request };
        // 16 Kbit = 2 KB of filter plus headers.
        assert!(msg.wire_bytes(1_500) > 2_000);
        assert!(msg.wire_bytes(1_500) < 2_200);
    }

    #[test]
    fn control_messages_are_small() {
        assert_eq!(BulletMsg::PeeringAccept.wire_bytes(1_500), HEADER_BYTES);
        assert_eq!(
            BulletMsg::ReceiverReport {
                cumulative_raw_bytes: 1
            }
            .wire_bytes(1_500),
            HEADER_BYTES
        );
        assert_eq!(
            BulletMsg::Feedback(TfrcFeedback {
                echo_timestamp: SimTime::ZERO,
                echo_delay: SimDuration::ZERO,
                receive_rate: 0.0,
                loss_event_rate: 0.0,
            })
            .wire_bytes(1_500),
            FEEDBACK_PACKET_BYTES
        );
    }
}
