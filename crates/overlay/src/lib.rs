//! # bullet-overlay
//!
//! Overlay tree construction for the Bullet reproduction.
//!
//! Bullet runs over an arbitrary underlying tree; the paper evaluates it over
//! random trees and compares it against streaming over the offline greedy
//! bottleneck-bandwidth tree (§4.1) and hand-crafted good/worst trees on
//! PlanetLab (§4.7). This crate provides the [`Tree`] representation plus
//! the three constructions the figures use:
//!
//! * [`random_tree()`] — degree-constrained random attachment,
//! * [`bottleneck_tree`] — the greedy offline OMBT oracle,
//! * [`good_tree`] / [`worst_tree`] — hand-crafted layered trees driven by a
//!   per-node bandwidth metric.
//!
//! The paper's other comparison, an Overcast-style online tree (§4.2), is
//! not built: no figure streams over one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod handcrafted;
pub mod ombt;
pub mod random_tree;
pub mod tree;

pub use handcrafted::{good_tree, layered_tree, worst_tree};
pub use ombt::{bottleneck_tree, OmbtConfig, ThroughputOracle};
pub use random_tree::random_tree;
pub use tree::{Tree, TreeError};
