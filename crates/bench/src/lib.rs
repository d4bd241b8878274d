//! # bullet-bench
//!
//! Benchmark harnesses for the Bullet reproduction.
//!
//! Each `benches/figNN_*.rs` target regenerates one table or figure of the
//! paper's evaluation: it runs the corresponding experiment from
//! `bullet-experiments` at the scale selected by `BULLET_SCALE`
//! (`small`/`default`/`paper`) and prints the same series and scalars the
//! paper reports. Costs are not measured here: the ledger under `perf/`
//! times the workloads of record and the hot primitives.

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
