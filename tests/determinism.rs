//! Determinism regression tests: every golden workload of
//! `tests/support/golden.rs` pinned to the values it produced when its
//! layer was built.
//!
//! No refactor, optimisation or deletion may move a simulated timestamp, a
//! drop decision or an RNG draw, so each test is one `assert_eq!` of the
//! row's whole [`Golden`] — the failure message prints the new value in the
//! form it is written here, which is how a golden is recaptured when a
//! change moves one on purpose (say why in the row's comment).

#[path = "support/golden.rs"]
mod golden;

use bullet_suite::dynamics::ScenarioStats;
use bullet_suite::experiments::{figure_suite_subset, Scale, Sweep, SUITE_PLAN_KEYS};
use bullet_suite::netsim::SimCounters;
use golden::{
    fingerprint, fingerprint_traced, mix, Digest, Golden, Row, ADVERSARY64, BULLET64, CHURN64,
    FAULTS64, OVERLOAD64, PAPER_SMOKE,
};

/// Two runs with the same seed must be byte-identical, including the event
/// count (which covers event ordering, not just outcomes).
fn assert_repeats(row: &Row) {
    assert_eq!(fingerprint(row), fingerprint(row), "{}", row.name);
}

fn bullet64_golden() -> Golden {
    Golden {
        counters: SimCounters {
            delivered: 61_237,
            dropped_in_network: 92,
            timers_fired: 7_374,
            events: 252_623,
            ..SimCounters::default()
        },
        digest: Digest(0xb60f_4497_7cd1_2016),
        bytes_sent: 143_402_772,
        epoch: 0,
        scenario: ScenarioStats::default(),
        extra: vec![],
    }
}

/// Captured from the seed commit's simulator (`Vec`-path flights,
/// `BinaryHeap`, cancelled-timer set): the zero-allocation rework (interned
/// `RouteId` routes, pooled flight slab, generation-stamped timer slots,
/// 4-ary event queue with a current-instant FIFO) and everything since must
/// reproduce that run exactly.
#[test]
fn bullet_64_matches_pre_refactor_golden_run() {
    assert_eq!(fingerprint(&BULLET64), bullet64_golden());
}

/// A fully instrumented run (all-category flight recorder + self-profiling)
/// must reproduce the same golden fingerprint: telemetry is observation
/// only, and the trace it captures is itself deterministic.
#[test]
fn bullet_64_traced_matches_the_same_golden_run() {
    let (golden, traced) = fingerprint_traced(&BULLET64);
    assert_eq!(golden, bullet64_golden());
    // The trace saw the run: sends, deliveries, block journeys.
    assert!(!traced.trace_jsonl.is_empty());
    assert!(traced.trace_jsonl.contains("\"kind\":\"block_sealed\""));
    assert!(traced.journeys_jsonl.contains("\"seq\":0,"));
    assert_eq!(traced.profile.events, golden.counters.events);
    assert!(traced.profile.peak_queue_depth > 0);
    // Two instrumented runs produce byte-identical traces.
    assert_eq!(fingerprint_traced(&BULLET64).1, traced);
}

#[test]
fn bullet_64_is_deterministic_across_runs() {
    assert_repeats(&BULLET64);
}

/// Captured on the first scenario-engine build; any divergence means the
/// dynamics driver, the mutable-network invalidation, or the churn protocol
/// paths changed behaviour.
#[test]
fn churn_64_matches_golden_run() {
    assert_eq!(
        fingerprint(&CHURN64),
        Golden {
            counters: SimCounters {
                delivered: 44_032,
                dropped_in_network: 391,
                dropped_dest_failed: 314,
                timers_fired: 6_504,
                events: 184_647,
                ..SimCounters::default()
            },
            digest: Digest(0x5a57_6fcd_5133_257e),
            bytes_sent: 105_616_680,
            // One stub outage down + up: exactly two route-invalidating
            // epochs.
            epoch: 2,
            // The script applied in full: 1 crash, 1 graceful leave, 1
            // rejoin plus 16 flash-crowd joins, 2 capacity mutations, 2
            // router mutations.
            scenario: ScenarioStats {
                crashes: 1,
                leaves: 1,
                joins: 17,
                link_mutations: 2,
                router_mutations: 2,
                ..ScenarioStats::default()
            },
            extra: vec![],
        }
    );
}

/// Scenario application (including epoch-invalidated rerouting) is
/// deterministic.
#[test]
fn churn_64_is_deterministic_across_runs() {
    assert_repeats(&CHURN64);
}

/// Captured on the first recovery build; the digest covers the recovery
/// metrics (orphan detections, re-attaches, control retries, eviction
/// false positives) per node, so any behavioural drift in the
/// failure-recovery subsystem — not just in delivery — moves it. The digest
/// was recaptured (`0x5369_0a92_4fd5_22d4` before) when eviction false
/// positives became what their doc says — *silence* evictions heard from
/// again, no longer every §3.4 waste drop that kept talking: the per-node
/// false-positive counts move and only they; every simulator counter, the
/// event count, the bytes sent and the 95 re-attaches are unchanged.
#[test]
fn faults_64_matches_golden_run() {
    assert_eq!(
        fingerprint(&FAULTS64),
        Golden {
            counters: SimCounters {
                delivered: 68_294,
                dropped_in_network: 737,
                dropped_dest_failed: 796,
                dropped_partitioned: 1_578,
                dropped_faulted: 102,
                duplicated_faulted: 21,
                delayed_faulted: 119,
                timers_fired: 10_564,
                events: 288_283,
                ..SimCounters::default()
            },
            digest: Digest(0x3a01_49c3_c756_a700),
            bytes_sent: 163_201_968,
            // Partitions and faults never touch routes.
            epoch: 0,
            scenario: ScenarioStats {
                crashes: 2,
                partitions: 1,
                heals: 1,
                faults: 2,
                ..ScenarioStats::default()
            },
            // The recovery subsystem actually fired: orphans (and partition
            // survivors that lost their parent path) re-attached.
            extra: vec![("reattaches", 95)],
        }
    );
}

/// Fault injection draws, partition drops and the re-attach ladder are all
/// deterministic.
#[test]
fn faults_64_is_deterministic_across_runs() {
    assert_repeats(&FAULTS64);
}

/// Captured on the first integrity build; the digest covers the integrity
/// metrics (blocks verified, corrupt rejected/accepted, health penalties,
/// quarantines) per node, so any behavioural drift in the defense moves
/// it. The digest was recaptured when the stall-penalty misfire was fixed
/// (penalties now require an outstanding *owed* block): honest idle
/// senders stopped accruing penalties, which moves the per-node penalty
/// counts — and only them; every simulator counter, event count and
/// quarantine decision is unchanged.
#[test]
fn adversary_64_matches_golden_run() {
    assert_eq!(
        fingerprint(&ADVERSARY64),
        Golden {
            counters: SimCounters {
                delivered: 21_894,
                dropped_in_network: 17,
                corrupted_adversary: 47,
                stalled_adversary: 1_075,
                timers_fired: 10_699,
                events: 98_337,
                ..SimCounters::default()
            },
            digest: Digest(0x722f_465c_502e_41d6),
            bytes_sent: 51_218_216,
            // Adversary plans never touch routes.
            epoch: 0,
            // 20% of 63 non-source nodes.
            scenario: ScenarioStats {
                adversaries: 13,
                ..ScenarioStats::default()
            },
            // The defense actually fired.
            extra: vec![("quarantines", 9)],
        }
    );
}

/// The corrupt/stall draws, tamper hook, health scoring and quarantine
/// evictions are all deterministic.
#[test]
fn adversary_64_is_deterministic_across_runs() {
    assert_repeats(&ADVERSARY64);
}

/// The digest covers the overload metrics (sheds, deferrals, later
/// admissions, peak inbox depth, evictions, demotions) per node, so any
/// behavioural drift in the defense moves it. Recaptured when a deferred
/// join came to be retried at the responder whose wait had ended, not at
/// the oldest waiting one: joins are re-asked when their responders said,
/// so more are deferred and more admitted after a deferral, and the
/// storm delivers more.
#[test]
fn overload_64_matches_golden_run() {
    assert_eq!(
        fingerprint(&OVERLOAD64),
        Golden {
            counters: SimCounters {
                delivered: 103_404,
                dropped_in_network: 709,
                dropped_dest_failed: 205,
                timers_fired: 13_746,
                events: 429_359,
                ..SimCounters::default()
            },
            digest: Digest(0x8db6_9204_2530_07b4),
            bytes_sent: 247_768_436,
            epoch: 0,
            // 16 storm joins, 6 slow-node switches.
            scenario: ScenarioStats {
                joins: 16,
                slow_nodes: 6,
                ..ScenarioStats::default()
            },
            // Every overload mechanism actually fired.
            extra: vec![
                ("inbox_sheds", 750),
                ("joins_deferred", 948),
                ("joins_admitted_after_defer", 120),
                ("peak_inbox_depth", 67),
                ("working_set_evictions", 8_486),
                ("slow_demotions", 4),
            ],
        }
    );
}

/// Storm expansion, deferral backoffs, shedding decisions, budget evictions
/// and slow demotions are all deterministic.
#[test]
fn overload_64_is_deterministic_across_runs() {
    assert_repeats(&OVERLOAD64);
}

/// Every plan of the figure suite at small scale over two seeds, folded
/// into one digest of the figures' `Debug` bytes: each label, note, scalar,
/// series and summary of all 18 figures (17 plan keys; `fig07` also emits
/// `fig08`), including the `[seed 1]` series and the spread notes. Captured
/// at the commit before the run-grid builder replaced the per-plan seed
/// loops; it is the only check that holds the plans no other test runs
/// (`fig10 fig11 fig13 fig14 fig15 ablations oscillation partition`).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about a minute unoptimised; CI's end-to-end-small job runs it in release"
)]
fn figure_suite_matches_golden_output() {
    let figures = figure_suite_subset(Scale::Small, SUITE_PLAN_KEYS, &Sweep::new(2, 2));
    assert_eq!(figures.len(), 18);
    let digest = format!("{figures:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| mix(h, u64::from(b)));
    assert_eq!(Digest(digest), Digest(0x63fc_f91f_6168_fc4f));
}

/// Because every route is canonical, route-computation order can never
/// leak into these values — any divergence means the lazy router (or the
/// simulator) changed behaviour.
#[test]
fn paper_scale_smoke_matches_golden_run() {
    assert_eq!(
        fingerprint(&PAPER_SMOKE),
        Golden {
            counters: SimCounters {
                delivered: 18_982,
                dropped_in_network: 246,
                timers_fired: 7_779,
                events: 427_235,
                ..SimCounters::default()
            },
            digest: Digest(0x4f1d_76a4_5a57_617e),
            bytes_sent: 473_096_556,
            epoch: 0,
            scenario: ScenarioStats::default(),
            extra: vec![
                // The acceptance gate for the routing rework: a paper-scale
                // topology built and streamed without ever materializing a
                // per-source shortest-path tree (let alone all-pairs state).
                ("routing.lazy_alt", 1),
                ("routing.trees_built", 0),
                ("routing.route_queries", 627),
                ("routing.lazy_searches", 627),
                // The one work counter in this golden, not behaviour: how
                // far the 627 searches looked, with every route they
                // returned (and so every value above) unchanged. It fell
                // from 1,874,197 when path reconstruction stopped resuming
                // the forward search and read the two balls instead.
                ("routing.routers_settled", 177_967),
                ("routing.landmarks", 8),
            ],
        }
    );
}
