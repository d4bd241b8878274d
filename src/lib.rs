//! # bullet-suite
//!
//! Umbrella crate for the reproduction of *Bullet: High Bandwidth Data
//! Dissemination Using an Overlay Mesh* (Kostić et al., SOSP 2003).
//!
//! The workspace is organized as one crate per subsystem; this crate simply
//! re-exports them under stable names and provides a [`prelude`] so examples
//! and downstream users can pull in the common types with a single import.
//!
//! See `README.md` for a tour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bullet_baselines as baselines;
pub use bullet_content as content;
pub use bullet_core as bullet;
pub use bullet_dynamics as dynamics;
pub use bullet_experiments as experiments;
pub use bullet_netsim as netsim;
pub use bullet_overlay as overlay;
pub use bullet_ransub as ransub;
pub use bullet_telemetry as telemetry;
pub use bullet_topology as topology;
pub use bullet_transport as transport;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use bullet_netsim::{
        Agent, Context, LinkSpec, NetworkSpec, OverlayId, Sim, SimDuration, SimRng, SimTime,
    };
    pub use bullet_topology::{generate, BandwidthProfile, LossProfile, TopologyConfig};
}
