//! # bullet-telemetry
//!
//! A deterministic, config-gated observability layer for the Bullet
//! reproduction. Everything in this crate is stamped with **simulated**
//! time only — wall-clock values never enter a trace, a series, or any
//! field that participates in equality comparisons — so telemetry output
//! is byte-identical across hosts, thread counts, and reruns.
//!
//! Four pieces:
//!
//! - [`trace`]: a fixed-capacity **flight recorder** of structured sim
//!   events (sends, deliveries, drops, timer fires, route repairs, and
//!   protocol decisions such as re-attach ladder steps, quarantines and
//!   reconciliation rounds), gated by a [`TraceSpec`] (the grammar the
//!   `trace_probe` example reads from `BULLET_TRACE`) and exportable as
//!   JSONL.
//! - [`journey`]: **block-journey spans** derived from a recorded trace —
//!   the per-sequence causal story (sealed → tree push hops → mesh serve →
//!   accept) with time-to-reach-fraction percentiles per block.
//! - [`hub`]: the **metrics hub** — a registry of named per-node counters
//!   sampled into windowed rate series; the single sampler behind the
//!   experiment harness's bandwidth series.
//! - [`profile`]: **self-profiling** — per-run event-loop throughput,
//!   event-queue depth, flight-slab occupancy and phase wall times. Wall
//!   clock readings are quarantined here (and excluded from equality).
//!
//! The crate is dependency-free: JSON is written by hand, timestamps are
//! raw `u64` microseconds, and nothing here ever touches an RNG, so
//! installing a recorder cannot perturb a simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod hub;
pub mod journey;
pub mod profile;
pub mod trace;

pub use counters::DeliveryCounters;
pub use hub::{ChannelId, MetricsHub, SeriesPoint};
pub use journey::{block_journeys, journeys_to_jsonl, BlockJourney, HopRecord};
pub use profile::SelfProfile;
pub use trace::{
    DropReason, FlightRecorder, TraceData, TraceEvent, TraceSpec, CAT_ALL, CAT_JOURNEY, CAT_PROTO,
    CAT_ROUTE, CAT_SIM, DEFAULT_CAPACITY, NETWORK_NODE,
};
