//! # bullet-baselines
//!
//! The comparison systems the paper evaluates Bullet against:
//!
//! * [`streaming`] — traditional tree streaming over TFRC (Fig. 6, and the
//!   tree half of Figs. 9 and 12),
//! * [`gossip`] — push-gossip epidemic dissemination (Fig. 11),
//! * [`antientropy`] — tree streaming plus pbcast-style anti-entropy
//!   recovery (Fig. 11).
//!
//! All three take one [`StreamConfig`], send
//! [`DATA_PACKET_BYTES`](bullet_transport::DATA_PACKET_BYTES) packets over
//! the same TFRC connection table, keep the same
//! [`DeliveryCounters`](bullet_telemetry::DeliveryCounters), and run on the
//! same content-description primitives and simulator as Bullet itself, so
//! differences in the results reflect the algorithms rather than
//! implementation details (the role MACEDON plays in the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antientropy;
pub mod gossip;
pub mod streaming;

pub use antientropy::{AntiEntropyMsg, AntiEntropyNode};
pub use gossip::{GossipMsg, GossipNode};
pub use streaming::{StreamConfig, StreamMsg, StreamTransport, StreamingNode};

// The baselines run under scenario scripts with the default (no-op)
// lifecycle hooks: their nodes fail and revive silently. Link and router
// dynamics still apply in full, which is all the comparative
// time-varying-link figures need.
impl bullet_dynamics::ScenarioAgent for StreamingNode {}
impl bullet_dynamics::ScenarioAgent for GossipNode {}
impl bullet_dynamics::ScenarioAgent for AntiEntropyNode {}
