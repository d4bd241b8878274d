//! # bullet-topology
//!
//! Internet-like topology generation for the Bullet reproduction.
//!
//! The paper's ModelNet experiments run over 20,000-node INET-generated
//! topologies whose links are classified as Client-Stub, Stub-Stub,
//! Transit-Stub, or Transit-Transit and assigned bandwidths from the ranges
//! in Table 1 (see [`BandwidthProfile`]). The lossy-network experiments of
//! §4.5 additionally assign random per-link loss rates (see [`LossProfile`]).
//!
//! This crate provides a parameterized transit-stub generator
//! ([`generate`]) that produces a [`bullet_netsim::NetworkSpec`] plus the
//! per-link classification metadata the experiment harnesses need.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod classes;
pub mod generator;
pub mod loss;

pub use bandwidth::{BandwidthProfile, KbpsRange};
pub use classes::{LinkClass, NodeClass};
pub use generator::{generate, BuiltTopology, TopologyConfig, TopologyStats};
pub use loss::LossProfile;
