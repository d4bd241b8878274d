//! Determinism regression tests: every golden workload of
//! `tests/support/golden.rs`, and the small figure suite, held to its
//! committed render under `tests/goldens/`.
//!
//! No refactor, optimisation or deletion may move a simulated timestamp, a
//! drop decision or an RNG draw. A render that moves fails with the moved
//! lines and the `cp` that recaptures its file; a change that moves one on
//! purpose recaptures it, says why in the row's doc comment, and lists the
//! moved lines in CHANGES.md.

#[path = "support/golden.rs"]
mod golden;

use std::fs;
use std::path::Path;

use bullet_suite::experiments::{
    figure_suite_subset, BandwidthSeries, Cdf, FigureResult, Scale, Sweep, SUITE_PLAN_KEYS,
};
use golden::{
    assert_golden, compare, render, render_traced, Row, ADVERSARY64, BULLET64, CHURN64, FAULTS64,
    OVERLOAD64, PAPER_SMOKE,
};

fn assert_pinned(row: &Row) {
    assert_golden(row.name, &render(row));
}

/// Two runs with the same seed render byte-identically, the event count
/// (which covers event ordering, not just outcomes) included.
fn assert_repeats(row: &Row) {
    assert_eq!(render(row), render(row), "{}", row.name);
}

/// The plain run every simulator refactor is held to: event order, route
/// interning, the flight slab and the timer slots all show in its render.
#[test]
fn bullet_64_matches_pre_refactor_golden_run() {
    assert_pinned(&BULLET64);
}

/// A fully instrumented run (all-category flight recorder + self-profiling)
/// renders the same: telemetry is observation only, and the trace it
/// captures is itself deterministic.
#[test]
fn bullet_64_traced_matches_the_same_golden_run() {
    let (render, traced) = render_traced(&BULLET64);
    assert_golden(BULLET64.name, &render);
    // The trace saw the run: sends, deliveries, block journeys.
    assert!(traced.trace_jsonl.contains("\"kind\":\"block_sealed\""));
    assert!(traced.journeys_jsonl.contains("\"seq\":0,"));
    let events = render.lines().find_map(|l| l.strip_prefix("events "));
    assert_eq!(
        events.map(str::trim),
        Some(&*traced.profile.events.to_string())
    );
    assert!(traced.profile.peak_queue_depth > 0);
    // Two instrumented runs produce byte-identical traces.
    assert_eq!(render_traced(&BULLET64).1, traced);
}

#[test]
fn bullet_64_is_deterministic_across_runs() {
    assert_repeats(&BULLET64);
}

/// The scenario driver, the mutable network's route invalidation (one stub
/// outage down and up: `epoch` 2) and the churn paths of the protocol.
#[test]
fn churn_64_matches_golden_run() {
    assert_pinned(&CHURN64);
}

#[test]
fn churn_64_is_deterministic_across_runs() {
    assert_repeats(&CHURN64);
}

/// The §4.6 recovery subsystem: orphan detections, re-attaches, control
/// retries and eviction false positives per node, beside partition and
/// fault-plan drops.
#[test]
fn faults_64_matches_golden_run() {
    assert_pinned(&FAULTS64);
}

#[test]
fn faults_64_is_deterministic_across_runs() {
    assert_repeats(&FAULTS64);
}

/// The integrity layer: blocks verified, corrupt blocks rejected and
/// accepted, health penalties and quarantines per node.
#[test]
fn adversary_64_matches_golden_run() {
    assert_pinned(&ADVERSARY64);
}

#[test]
fn adversary_64_is_deterministic_across_runs() {
    assert_repeats(&ADVERSARY64);
}

/// The overload layer: sheds, join deferrals and later admissions, peak
/// inbox depth, working-set evictions and slow demotions per node.
#[test]
fn overload_64_matches_golden_run() {
    assert_pinned(&OVERLOAD64);
}

#[test]
fn overload_64_is_deterministic_across_runs() {
    assert_repeats(&OVERLOAD64);
}

/// The lazy router at paper scale: its work block shows every first
/// contact answered by a point search with no tree built. Routes are
/// canonical, so contact order cannot move a value.
#[test]
fn paper_scale_smoke_matches_golden_run() {
    assert_pinned(&PAPER_SMOKE);
}

/// Every plan of the figure suite at small scale over two seeds: each
/// title, series, summary, note, scalar and CDF of all 18 figures (17 plan
/// keys; `fig07` also emits `fig08`). The only check of the plans no other
/// test runs (`fig10 fig11 fig13 fig14 fig15 ablations oscillation
/// partition`).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about a minute unoptimised; CI's end-to-end-small job runs it in release"
)]
fn figure_suite_matches_golden_output() {
    let figures = figure_suite_subset(Scale::Small, SUITE_PLAN_KEYS, &Sweep::new(2, 2));
    assert_eq!(figures.len(), 18);
    let mut out = String::new();
    for figure in &figures {
        let FigureResult {
            id,
            title,
            series,
            summaries,
            notes,
            scalars,
            cdf,
        } = figure;
        out += &format!("{id} title {title:?}\n");
        for BandwidthSeries { label, times, kbps } in series {
            out += &format!("{id} series {label:?} times {times:?} kbps {kbps:?}\n");
        }
        for (label, summary) in summaries {
            out += &format!("{id} summary {label:?} {summary:?}\n");
        }
        for note in notes {
            out += &format!("{id} note {note:?}\n");
        }
        for (name, value) in scalars {
            out += &format!("{id} scalar {name:?} {value:?}\n");
        }
        if let Some(Cdf { values }) = cdf {
            out += &format!("{id} cdf {values:?}\n");
        }
    }
    assert_golden("figure_suite_small", &out);
}

/// A moved render fails naming the file, each moved line's number with its
/// old and new text, and the `cp` that recaptures the file from the new
/// render it wrote; a matching render writes nothing.
#[test]
fn a_moved_golden_fails_with_its_lines_and_a_cp() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare_test");
    let _ = fs::remove_dir_all(&dir);
    let committed = Path::new("tests/goldens/example.txt");
    let expected = "p50 1 2\n  0 3 4\n  1 5 6\n";
    assert_eq!(compare(committed, expected, expected, &dir), Ok(()));
    assert!(!dir.exists(), "a matching render wrote {}", dir.display());
    let moved = "p50 1 2\n  0 3 7\n  1 5 6\n";
    let message = compare(committed, expected, moved, &dir).unwrap_err();
    let fresh = dir.join("example.txt");
    assert_eq!(fs::read_to_string(&fresh).unwrap(), moved);
    let cp = format!("cp {} {}", fresh.display(), committed.display());
    for needle in [
        "tests/goldens/example.txt",
        "line 2:",
        "-   0 3 4",
        "+   0 3 7",
        &cp,
    ] {
        assert!(
            message.contains(needle),
            "{needle:?} missing from:\n{message}"
        );
    }
    assert!(!message.contains("line 1:") && !message.contains("line 3:"));
}
