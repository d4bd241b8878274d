//! # bullet-experiments
//!
//! Scenario configuration, metric collection and per-figure experiment
//! runners for the Bullet reproduction.
//!
//! Every figure of the paper's evaluation (§4) is a plan in [`figures`] or
//! [`scenarios`] and a key in [`SUITE_PLAN_KEYS`]. [`figure_suite_subset`]
//! runs plans by key: each builds the topology and trees the paper
//! describes, runs the systems under comparison at a configurable
//! [`Scale`], and returns the same curves and scalar numbers the paper
//! reports. The `figures` bench in `crates/bench` prints them via
//! [`report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod figures;
pub mod metrics;
pub mod pool;
pub mod protocols;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scenarios;
pub mod suite;

pub use env::{
    build_topology, build_tree, constrained_source_topology, prepare_topology, PreparedTopology,
    TreeKind,
};
pub use figures::FigureResult;
pub use metrics::{BandwidthSeries, Cdf, RateSeries, RunSummary};
pub use pool::{RunPool, Sweep};
pub use protocols::{
    antientropy_run_on, bullet_run_on, bullet_run_resourced_on, gossip_run_on, streaming_run_on,
};
pub use runner::{
    run_metered, run_metered_dynamic_with, run_metered_with, MeteredAgent, RunResult, RunSpec,
    RunTelemetry, TelemetryConfig,
};
pub use scale::Scale;
pub use scenarios::{
    access_link_of, overload_figure_knobs, sustained_crash_script, ADVERSARY_CORRUPT_CHANCE,
    ADVERSARY_FRACTIONS, OVERLOAD_NODE_RESOURCES, OVERLOAD_SLOW_FACTOR, RECOVERY_CRASH_EVERY_SECS,
};
pub use suite::{figure_suite, figure_suite_subset, render_suite, SUITE_PLAN_KEYS};
