//! # bullet-overlay
//!
//! Overlay tree construction for the Bullet reproduction.
//!
//! Bullet runs over an arbitrary underlying tree; the paper evaluates it over
//! random trees and compares it against streaming over the offline greedy
//! bottleneck-bandwidth tree (§4.1), an Overcast-style online tree (§4.2) and
//! hand-crafted good/worst trees on PlanetLab (§4.7). This crate provides the
//! [`Tree`] representation plus all four constructions:
//!
//! * [`random_tree()`] — degree-constrained random attachment,
//! * [`bottleneck_tree`] — the greedy offline OMBT oracle,
//! * [`overcast_tree`] — the online bandwidth-optimizing comparison tree,
//! * [`good_tree`] / [`worst_tree`] — hand-crafted layered trees driven by a
//!   per-node bandwidth metric.

#![warn(missing_docs)]

pub mod handcrafted;
pub mod ombt;
pub mod overcast;
pub mod random_tree;
pub mod tree;

pub use handcrafted::{good_tree, layered_tree, worst_tree};
pub use ombt::{
    bottleneck_tree, bottleneck_tree_with, OmbtConfig, OracleStrategy, ThroughputOracle,
};
pub use overcast::{overcast_tree, overcast_tree_with, OvercastConfig};
pub use random_tree::random_tree;
pub use tree::{Tree, TreeError};
