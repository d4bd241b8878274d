//! # bullet-content
//!
//! Informed content delivery primitives (paper §2.3): the data structures a
//! Bullet node uses to describe what it has and discover what its peers can
//! give it.
//!
//! * [`WorkingSet`] — the sliding window of received packet sequence numbers.
//! * [`SummaryTicket`] — a 120-byte min-wise sketch of the working set,
//!   carried in RanSub sets; resemblance between tickets guides peer choice.
//!   [`LiveTicket`] keeps a node's own ticket current as its window slides.
//! * [`BloomFilter`] — the compact set description a receiver installs at its
//!   sending peers.
//! * [`reconcile`] — the sender-side logic that turns a receiver's filter,
//!   range, and `(row, stripe)` assignment into the list of keys to forward,
//!   and [`OfferIndex`], the same list maintained between filter refreshes.
//! * [`block`] — per-block integrity digests ([`block_digest`]) for
//!   verifying that forwarded data carries the source's bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod bloom;
pub mod reconcile;
pub mod summary;
pub mod working_set;

pub use block::block_digest;
pub use bloom::BloomFilter;
pub use reconcile::{missing_keys, missing_keys_iter, OfferIndex, ReconcileRequest};
pub use summary::{LiveTicket, PermutationFamily, SummaryTicket, DEFAULT_ENTRIES};
pub use working_set::WorkingSet;
