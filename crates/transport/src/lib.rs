//! # bullet-transport
//!
//! Congestion-controlled transports used by Bullet and the baselines.
//!
//! The paper transfers data both down the overlay tree and between mesh
//! peers using an **unreliable variant of TFRC** (§2.4): equation-based, TCP
//! friendly, but without retransmissions because missing data is recovered
//! from other peers instead. This crate implements:
//!
//! * the TCP response function ([`equation::tcp_throughput`]) shared by TFRC
//!   and the offline bottleneck-tree estimator,
//! * loss-event detection and the eight-interval weighted loss history
//!   ([`loss`]),
//! * the TFRC sender/receiver state machines ([`tfrc`]), with the wire
//!   sizes every agent shares ([`DATA_PACKET_BYTES`], [`HEADER_BYTES`],
//!   [`FEEDBACK_PACKET_BYTES`]) and a source's pacing ([`packet_interval`]),
//! * the per-peer connection table every agent keeps them in
//!   ([`connections`]), and
//! * the non-blocking send primitive ([`rate::RateLimiter`]) whose
//!   `WouldBlock` outcome drives Bullet's disjoint-send decisions (Fig. 5).
//!
//! Everything here is a pure state machine: no clocks, no sockets, no
//! simulator types other than `SimTime`/`SimDuration`, which makes the same
//! code usable under the discrete-event simulator and the live runtime in
//! `tests/live_runtime.rs`.
//!
//! # The connection table
//!
//! Bullet and every baseline carry each overlay edge over TFRC, so every
//! agent holds, per peer, a sending half toward it and a receiving half from
//! it. [`Connections`] is that table. It creates each half on first use,
//! feeds it data and feedback, lets either half be dropped on its own
//! (Bullet's mesh evaluation drops the receiving half from an evicted
//! sender, which may still be one of its receivers), and runs the
//! senders' no-feedback sweep. It is a [`PeerTable`], whose peer ids sit in a
//! sorted `Vec` found by binary search: no hash per packet, and entries in
//! peer order, the same in every process. Inserting shifts the entries above
//! the new one, which is cheap because no agent has more than about 100
//! peers (gossip's full membership at paper scale is the largest). The table
//! is also the seam a socket transport would implement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connections;
pub mod equation;
pub mod loss;
pub mod rate;
pub mod tfrc;

pub use connections::{Connections, PeerTable};
pub use equation::{tcp_throughput, tcp_throughput_bps, TcpRate};
pub use loss::{LossDetector, LossIntervalHistory};
pub use rate::{RateLimiter, SendOutcome};
pub use tfrc::{
    packet_interval, TfrcConfig, TfrcFeedback, TfrcHeader, TfrcReceiver, TfrcSender,
    DATA_PACKET_BYTES, FEEDBACK_PACKET_BYTES, HEADER_BYTES,
};
