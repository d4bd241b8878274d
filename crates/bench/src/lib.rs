//! # bullet-bench
//!
//! Four bench targets: `figures` renders any figure of the evaluation by
//! plan key, `table1_profiles` renders and checks Table 1, and
//! `parallel_suite` and `telemetry_overhead` assert their own wall-clock
//! gates. Each runs at the scale selected by `BULLET_SCALE`
//! (`small`/`default`/`paper`). Costs are not measured here: the ledger
//! under `perf/` times the workloads of record and the hot primitives.

#![warn(missing_docs)]

use bullet_experiments::Scale;

/// Prints the standard banner identifying the experiment and the scale it is
/// being run at, and returns that scale.
pub fn announce(figure: &str) -> Scale {
    let scale = Scale::from_env();
    println!();
    println!("################################################################");
    println!("# {figure}");
    println!(
        "# scale: {scale:?} ({} participants, {} s run) — set BULLET_SCALE=small|default|paper",
        scale.participants(),
        scale.duration_secs()
    );
    println!("################################################################");
    scale
}
