//! Thread-invariance gates for the parallel experiment harness.
//!
//! The run grid of every figure executes on a scoped-thread worker pool
//! (`BULLET_THREADS`), with the expensive immutable setup — generated
//! topology, bandwidth assignment, ALT landmark tables — shared across
//! workers via `Arc` and every mutable piece (network link state, route
//! memo, simulator, RNG) private per run. The contract is absolute: **all
//! `RunResult`s, `FigureResult`s and rendered report bytes are
//! bit-identical at any thread count.** These tests hold that contract at
//! 1 vs 8 threads, over a multi-seed sweep (so result reordering would be
//! caught), and re-run the golden workloads concurrently to pin them
//! against their single-threaded renders.

#[path = "support/golden.rs"]
mod golden;

use bullet_suite::experiments::{figure_suite_subset, render_suite, Scale, Sweep};
use golden::{render, render_traced, Row, ADVERSARY64, BULLET64, CHURN64, FAULTS64, OVERLOAD64};

/// The subset of the suite the invariance gate sweeps: a multi-run paper
/// figure (fig09: three topologies × two protocols), the fig07 grid with
/// its derived fig08 CDF, a scenario-dynamics figure (churn: scripted
/// mid-run membership events), and the failure-recovery figure (recovery:
/// sustained crashes with the §4.6 subsystem on vs off). Two seeds widen
/// every configuration so the grid is large enough that an ordering bug
/// cannot hide.
const GATED_SUBSET: &[&str] = &["fig07", "fig09", "churn", "recovery"];

#[test]
fn figure_suite_is_bit_identical_across_thread_counts() {
    let serial = figure_suite_subset(Scale::Small, GATED_SUBSET, &Sweep::new(1, 2));
    let threaded = figure_suite_subset(Scale::Small, GATED_SUBSET, &Sweep::new(8, 2));
    assert_eq!(
        serial.len(),
        threaded.len(),
        "thread count changed the figure count"
    );
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(a, b, "figure {} differs between 1 and 8 threads", a.id);
    }
    // The rendered reports — what the bench harnesses print — must match
    // byte for byte.
    assert_eq!(render_suite(&serial), render_suite(&threaded));
}

#[test]
fn multi_seed_sweep_widens_the_grid_deterministically() {
    let single = figure_suite_subset(Scale::Small, &["fig07"], &Sweep::new(8, 1));
    let multi = figure_suite_subset(Scale::Small, &["fig07"], &Sweep::new(8, 3));
    // Seed 0 of the sweep reproduces the single-seed figure's series
    // exactly (same run, same label); extra seeds append labelled series
    // plus a spread note.
    let (fig7_single, fig7_multi) = (&single[0], &multi[0]);
    assert_eq!(fig7_multi.series.len(), 3 * fig7_single.series.len());
    assert_eq!(&fig7_multi.series[..3], &fig7_single.series[..]);
    assert!(fig7_multi
        .series
        .iter()
        .any(|s| s.label.contains("[seed 2]")));
    assert_eq!(
        fig7_multi.notes.len(),
        fig7_single.notes.len() + 1,
        "multi-seed figures append one spread note per configuration"
    );
    // The extra seeds are genuinely different runs, not copies.
    assert_ne!(fig7_multi.series[0].kbps, fig7_multi.series[3].kbps);
}

/// Runs `work` once here and eight times at once on worker threads, and
/// holds every concurrent result to the single-threaded one.
fn assert_identical_under_concurrency<T: PartialEq + std::fmt::Debug + Send>(
    work: impl Fn() -> T + Sync,
) {
    let reference = work();
    let concurrent: Vec<T> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8).map(|_| scope.spawn(&work)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    for result in concurrent {
        assert_eq!(result, reference);
    }
}

/// A golden workload re-run on worker threads must reproduce its
/// single-threaded render (`tests/determinism.rs` holds that render to its
/// committed file; this cross-checks it under `BULLET_THREADS=8`-style
/// concurrency).
fn assert_golden_under_concurrency(row: &Row) {
    assert_identical_under_concurrency(|| render(row));
}

#[test]
fn bullet64_golden_is_identical_under_concurrency() {
    assert_golden_under_concurrency(&BULLET64);
}

/// The telemetry gate: a fully instrumented bullet64 run (all-category
/// flight recorder + self-profiling) must produce the *same trace bytes*
/// on every worker thread — sim-time-stamped events only, no wall clock,
/// no thread identity. The deterministic half of the profile compares too
/// (`SelfProfile::eq` ignores its wall-clock fields by design).
#[test]
fn bullet64_trace_is_identical_under_concurrency() {
    assert_identical_under_concurrency(|| render_traced(&BULLET64));
}

/// Scenario-driven runs (mid-run network mutation, epoch-invalidated
/// rerouting, membership churn) are equally thread-context-independent.
#[test]
fn churn64_golden_is_identical_under_concurrency() {
    assert_golden_under_concurrency(&CHURN64);
}

/// The §4.6 recovery subsystem — orphan detection off RanSub-epoch
/// silence, the re-attach ladder, control-RPC retries — together with
/// partition drops and per-node fault-injection draws.
#[test]
fn faults64_golden_is_identical_under_concurrency() {
    assert_golden_under_concurrency(&FAULTS64);
}

/// The data-plane integrity layer — block verification, the adversary
/// stall/corrupt draws and tamper hook, health scoring decay and
/// quarantine evictions.
#[test]
fn adversary64_golden_is_identical_under_concurrency() {
    assert_golden_under_concurrency(&ADVERSARY64);
}

/// The overload-resilience layer — bounded-inbox shedding, join deferral
/// backoffs, working-set budget evictions, slow-receiver demotions, and
/// the join-storm expansion.
#[test]
fn overload64_golden_is_identical_under_concurrency() {
    assert_golden_under_concurrency(&OVERLOAD64);
}
