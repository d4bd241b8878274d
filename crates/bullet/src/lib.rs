//! # bullet-core
//!
//! The Bullet protocol (paper §3): an overlay mesh layered on top of an
//! arbitrary overlay tree that lets every participant receive the stream at
//! close to its available bandwidth instead of being limited by its single
//! tree parent.
//!
//! The crate is organized around [`BulletNode`], the per-participant agent,
//! with the individual mechanisms factored into their own modules so they can
//! be tested (and ablated) in isolation:
//!
//! * [`disjoint`] — the disjoint data send routine of Fig. 5 (sending
//!   factors, ownership transfer, limiting factors),
//! * [`peering`] — sender/receiver list management and the mesh-improvement
//!   rules of §3.4,
//! * [`messages`] — the wire protocol and its byte-level sizes,
//! * [`metrics`] — the per-node counters the evaluation figures are built
//!   from,
//! * [`config`] — the tunables, defaulting to the paper's parameters, and
//!   the fixed constants of the optional layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod disjoint;
pub mod messages;
pub mod metrics;
pub mod node;
pub mod peering;

pub use config::{BulletConfig, OverloadConfig};
pub use disjoint::{ChildState, DisjointSender, RouteOutcome};
pub use messages::BulletMsg;
pub use metrics::BulletMetrics;
pub use node::BulletNode;
pub use peering::{PeerManager, ReceiverPeer, SenderPeer};
