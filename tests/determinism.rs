//! Determinism regression tests: every golden workload of
//! `tests/support/golden.rs`, and the small figure suite, held to its
//! committed render under `tests/goldens/`.
//!
//! No refactor, optimisation or deletion may move a simulated timestamp, a
//! drop decision or an RNG draw. A render that moves fails with the moved
//! lines and the `cp` that recaptures its file; a change that moves one on
//! purpose recaptures it, says why in the row's doc comment, and lists the
//! moved lines in CHANGES.md.

#[macro_use]
#[path = "support/golden.rs"]
mod golden;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use bullet_suite::bullet::BulletMetrics;
use bullet_suite::dynamics::ScenarioStats;
use bullet_suite::experiments::{
    figure_suite_subset, BandwidthSeries, Cdf, FigureResult, Scale, Sweep, SUITE_PLAN_KEYS,
};
use bullet_suite::netsim::telemetry::DeliveryCounters;
use bullet_suite::netsim::{
    Network, NetworkSpec, NodeTraffic, RepairStats, RoutingStats, SimCounters,
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
/// outage down and up: `repair.route_mutations` 2) and the churn paths of
/// the protocol.
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

/// Counters that no committed render shows non-zero, each with the test
/// that reaches it or the reason no pinned run can (ROADMAP item 19(b)).
const ALLOW: [(&str, &str); 6] = [
    (
        "SimCounters.dropped_src_failed",
        "crates/netsim/src/sim.rs::a_node_failed_before_start_drops_its_sends",
    ),
    (
        "ScenarioStats.recoveries",
        "crates/dynamics/src/driver.rs::recover_bootstraps_the_node_through_on_start; \
         no figure or golden row scripts a `recover`",
    ),
    (
        "RoutingStats.batched_queries",
        "0 in every RunResult: the bottleneck-tree oracle builds its rows on a view \
         of its own; crates/netsim/src/network.rs::batched_row_fill_matches_point_queries",
    ),
    (
        "RepairStats.landmark_checks",
        "crates/netsim/src/network.rs::incremental_repair_invalidates_only_affected_routes; \
         ROADMAP item 17 deletes the landmark tables",
    ),
    (
        "RepairStats.landmark_repairs",
        "ROADMAP item 17 deletes the landmark tables",
    ),
    (
        "RepairStats.landmark_nodes_lowered",
        "ROADMAP item 17 deletes the landmark tables",
    ),
];

/// The structs whose fields are the node table's columns in a row render.
const NODE_TABLE: [&str; 3] = ["DeliveryCounters", "BulletMetrics", "NodeTraffic"];

/// Every counter, as `Struct.field`. Each struct is destructured whole, so
/// a field added to one fails to compile here until it is listed.
fn counters() -> Vec<&'static str> {
    let routing = Network::new(&NetworkSpec::new(1)).routing_stats();
    let names = [
        &fields!("BulletMetrics.", BulletMetrics::default() => BulletMetrics {
            orphaned_packets, forwarded_packets, served_packets, orphan_detections, reattaches,
            reattach_wait_us, orphan_window_packets, control_retries, false_positive_evictions,
            blocks_verified, corrupt_blocks_rejected, corrupt_blocks_accepted, health_penalties,
            quarantines, inbox_sheds, joins_deferred, joins_admitted_after_defer,
            peak_inbox_depth, working_set_evictions, slow_demotions
        } skip { delivery })[..],
        &fields!("DeliveryCounters.", DeliveryCounters::default() => DeliveryCounters {
            useful_bytes, raw_bytes, from_parent_bytes, from_peers_bytes, duplicate_packets,
            duplicate_from_parent, total_packets, useful_packets, fresh_bytes, packets_generated
        }),
        &fields!("SimCounters.", SimCounters::default() => SimCounters {
            delivered, dropped_in_network, dropped_dest_failed, dropped_src_failed,
            dropped_partitioned, dropped_faulted, duplicated_faulted, delayed_faulted,
            corrupted_adversary, stalled_adversary, timers_fired, events, dropped_overload
        }),
        &fields!("RepairStats.", RepairStats::default() => RepairStats {
            route_mutations, routes_invalidated, routes_kept, filter_tables, memo_cells_cleared,
            unreachable_cleared, landmark_checks, landmark_repairs, landmark_nodes_lowered
        }),
        // The mode and the landmark table count are settings, not counts.
        &fields!("RoutingStats.", routing => RoutingStats {
            route_queries, batched_queries, trees_built, lazy_searches, routers_settled
        } skip { mode, landmarks }),
        &fields!("ScenarioStats.", ScenarioStats::default() => ScenarioStats {
            crashes, recoveries, leaves, joins, link_mutations, router_mutations, partitions,
            heals, faults, adversaries, slow_nodes
        }),
        &fields!("NodeTraffic.", NodeTraffic::default() => NodeTraffic {
            data_bytes_in, control_bytes_in, data_bytes_out, control_bytes_out
        }),
    ];
    names.concat().into_iter().map(|(name, _)| name).collect()
}

/// The counters that some committed render under `tests/goldens/` shows
/// non-zero, each keyed by the struct that holds the value. A row render
/// keys a value by its line's prefix (`scenario.`, `routing.`, `repair.`,
/// none for `SimCounters`) or by its node-table column. The suite keys a
/// value by the struct around it in a `RunSummary { .. }` line, so the
/// summary's own copies key as `RunSummary.*` and stand in for nothing.
fn reached(counters: &[&str]) -> BTreeSet<String> {
    let column = |name: &str| {
        let owners: Vec<String> = (NODE_TABLE.iter())
            .map(|owner| format!("{owner}.{name}"))
            .filter(|key| counters.contains(&key.as_str()))
            .collect();
        assert_eq!(
            owners.len(),
            1,
            "node-table column {name} has owners {owners:?}"
        );
        owners[0].clone()
    };
    let mut reached = BTreeSet::new();
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    for entry in fs::read_dir(goldens).expect("tests/goldens is readable") {
        let text = fs::read_to_string(entry.expect("a readable entry").path()).expect("a render");
        let mut header = Vec::new();
        for line in text.lines() {
            if let Some(at) = line.find(" RunSummary {") {
                summary_counters(&line[at + 1..], &mut reached);
                continue;
            }
            match line.split_whitespace().collect::<Vec<_>>()[..] {
                ["node", ref columns @ ..] => header = columns.iter().map(|c| column(c)).collect(),
                ["sum", ref sums @ ..] => reached.extend(
                    (header.iter().zip(sums))
                        .filter(|(_, sum)| **sum != "0")
                        .map(|(key, _)| key.clone()),
                ),
                [name, value] if value.parse::<u64>().is_ok_and(|v| v > 0) => {
                    let (owner, field) = match name.split_once('.') {
                        Some(("scenario", field)) => ("ScenarioStats", field),
                        Some(("routing", field)) => ("RoutingStats", field),
                        Some(("repair", field)) => ("RepairStats", field),
                        _ => ("SimCounters", name),
                    };
                    reached.insert(format!("{owner}.{field}"));
                }
                _ => {}
            }
        }
    }
    reached
}

/// Adds each non-zero number in one `Debug` render of a struct to
/// `reached`, keyed `Struct.field` by the innermost struct around it.
fn summary_counters(debug: &str, reached: &mut BTreeSet<String>) {
    let (mut structs, mut previous, mut field) = (Vec::new(), "", "");
    for token in debug.split_whitespace() {
        if token == "{" {
            structs.push(previous);
        } else if token.starts_with('}') {
            structs.pop();
        } else if let Some(name) = token.strip_suffix(':') {
            field = name;
        } else if (token.trim_end_matches(',').parse::<f64>()).is_ok_and(|v| v != 0.0) {
            reached.insert(format!(
                "{}.{field}",
                structs.last().expect("inside a struct")
            ));
        }
        previous = token;
    }
}

/// No dark paths: every counter is non-zero in some committed render, or
/// [`ALLOW`] names the test that reaches it or why no pinned run can. An
/// entry a render does reach, or that names no counter, leaves the list,
/// and every test an entry cites exists.
#[test]
fn every_counter_is_reached_by_a_pinned_run() {
    let counters = counters();
    let reached = reached(&counters);
    let allowed = |counter: &str| ALLOW.iter().any(|&(name, _)| name == counter);
    let dark: Vec<&str> = (counters.iter().copied())
        .filter(|counter| !reached.contains(*counter) && !allowed(counter))
        .collect();
    let stale: Vec<&str> = (ALLOW.iter().map(|&(name, _)| name))
        .filter(|name| reached.contains(*name) || !counters.contains(name))
        .collect();
    assert!(
        dark.is_empty(),
        "no committed render shows these counters non-zero: {dark:?}; \
         reach each in a pinned run, or list it in ALLOW with the test that reaches it"
    );
    assert!(
        stale.is_empty(),
        "these ALLOW entries are reached by a render or name no counter: {stale:?}"
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (name, reason) in ALLOW {
        assert!(
            reason.contains(".rs::") || reason.contains("ROADMAP item"),
            "{name}: name the test that reaches it, or the item that deletes it"
        );
        let cited = reason
            .split_whitespace()
            .map(|word| word.trim_end_matches(';'));
        for (path, test) in cited.filter_map(|word| word.split_once(".rs::")) {
            let text = fs::read_to_string(root.join(format!("{path}.rs"))).unwrap_or_default();
            assert!(
                text.contains(&format!("fn {test}(")),
                "{name}: {path}.rs has no test {test}"
            );
        }
    }
}
