//! # bullet-ransub
//!
//! RanSub (paper §2.2): epoch-based dissemination of changing, uniformly
//! random subsets of global state to every node of an overlay tree, using
//! collect messages that flow from the leaves to the root and distribute
//! messages that flow back down.
//!
//! Bullet uses RanSub to deliver, once per epoch, a random subset of other
//! participants' summary tickets to every node, which is how nodes discover
//! peers holding disjoint data without any global membership view. The
//! descendant counts gathered during the collect phase also drive Bullet's
//! per-child sending factors.
//!
//! The crate is runtime-agnostic: [`RanSub`] is a state machine that consumes
//! messages and returns [`RanSubEvent`]s for the embedding protocol to act
//! on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod protocol;

pub use compact::{compact, Member, WeightedSet};
pub use protocol::{RanSub, RanSubConfig, RanSubEvent, RanSubMsg};
