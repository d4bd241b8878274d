//! Parallel figure-suite benchmark: serial vs threaded wall-clock for the
//! whole evaluation grid, plus the per-run setup-sharing win.
//!
//! Two measurements:
//!
//! 1. **Suite wall-clock** — the full figure suite run twice through the
//!    flattened grid: once at `BULLET_THREADS=1`-equivalent (one worker, the
//!    reference execution) and once at the threaded width (`BULLET_THREADS`,
//!    default all cores; `--threads` in spirit). The rendered reports are
//!    compared byte for byte and the bench panics (and so exits non-zero)
//!    if they differ — the determinism claim is re-proven on every
//!    benchmark run, not just in the test suite. At `BULLET_SCALE=paper`
//!    the suite measurement is skipped (a full paper-scale suite is a
//!    multi-hour job; the nightly workflow runs the default scale) and only
//!    the setup measurement below runs.
//!
//! 2. **Per-run setup cost** — on this scale's topology class: the
//!    once-per-class cost (generate topology + build the shared
//!    `NetworkSetup`, i.e. adjacency + ALT landmark tables) versus the
//!    per-run cost of a shared-setup `Network` view versus the old
//!    from-scratch `Network::new` per run. At paper scale the from-scratch
//!    path re-runs the landmark Dijkstras over ~20k routers on every run;
//!    the shared view skips all of it.

use std::time::Instant;

use bullet_bench::{announce, Knobs};
use bullet_experiments::{figure_suite, prepare_topology, render_suite, Scale, Sweep};
use bullet_netsim::Network;
use bullet_topology::{BandwidthProfile, LossProfile};

fn main() {
    let Knobs { scale, sweep, .. } =
        announce("Parallel experiment harness — figure suite serial vs threaded");
    let threads = sweep.pool().threads();
    let seeds = sweep.seeds();

    if scale != Scale::Paper {
        let serial_sweep = Sweep::new(1, seeds);
        println!("\nrunning the figure suite serially (1 worker, {seeds} seed(s))...");
        let start = Instant::now();
        let serial = figure_suite(scale, &serial_sweep);
        let serial_secs = start.elapsed().as_secs_f64();
        println!("serial suite: {serial_secs:.1}s");

        println!("running the figure suite on {threads} worker(s)...");
        let start = Instant::now();
        let threaded = figure_suite(scale, &sweep);
        let threaded_secs = start.elapsed().as_secs_f64();
        println!("threaded suite: {threaded_secs:.1}s");

        let identical = render_suite(&serial) == render_suite(&threaded) && serial == threaded;
        assert!(
            identical,
            "suite output differs between 1 and {threads} threads"
        );
        println!(
            "{} figures byte-identical across thread counts; speedup {:.2}x",
            serial.len(),
            serial_secs / threaded_secs.max(1e-9),
        );
    } else {
        println!("\nBULLET_SCALE=paper: skipping the full-suite timing (multi-hour);");
        println!("measuring the per-run setup sharing win on the paper topology class.");
    }

    // Setup-sharing measurement on this scale's topology class.
    let participants = scale.participants();
    let start = Instant::now();
    let prepared = prepare_topology(
        scale,
        participants,
        BandwidthProfile::Medium,
        LossProfile::None,
        7,
    );
    let class_setup_secs = start.elapsed().as_secs_f64();

    let runs = 3;
    let start = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(prepared.network());
    }
    let shared_view_secs = start.elapsed().as_secs_f64() / runs as f64;

    let start = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(Network::new(prepared.spec()));
    }
    let scratch_secs = start.elapsed().as_secs_f64() / runs as f64;

    println!(
        "\ntopology class ({} routers, {participants} participants): \
         once-per-class setup {class_setup_secs:.3}s; per-run network view \
         {shared_view_secs:.4}s shared vs {scratch_secs:.4}s from scratch ({:.1}x)",
        prepared.spec().routers,
        scratch_secs / shared_view_secs.max(1e-9),
    );
}
