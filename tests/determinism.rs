//! Determinism regression tests for the simulator refactor.
//!
//! The zero-allocation simulator rework (interned `RouteId` routes, pooled
//! flight slab, generation-stamped timer slots, 4-ary event queue with a
//! current-instant FIFO) must not change a single simulated timestamp, drop
//! decision, or RNG draw. The golden values below were captured by running
//! `examples/determinism_probe.rs` against the *pre-refactor* simulator
//! (seed commit, `Vec`-path flights + `BinaryHeap` + cancelled-timer set)
//! and are asserted against the current implementation here. The workload
//! itself lives in `tests/support/bullet64.rs`, shared with the probe.

#[path = "support/adversary64.rs"]
mod adversary64;
#[path = "support/bullet64.rs"]
mod bullet64;
#[path = "support/churn64.rs"]
mod churn64;
#[path = "support/faults64.rs"]
mod faults64;
#[path = "support/overload64.rs"]
mod overload64;
#[path = "support/paper_smoke.rs"]
mod paper_smoke;

use bullet_suite::netsim::RoutingMode;

/// The refactored simulator must reproduce the pre-refactor run exactly.
#[test]
fn bullet_64_matches_pre_refactor_golden_run() {
    let (counters, digest, bytes_sent) = bullet64::fingerprint();
    // Captured from the pre-refactor simulator (see module docs).
    assert_eq!(counters.delivered, 61_237);
    assert_eq!(counters.dropped_in_network, 92);
    assert_eq!(counters.dropped_dest_failed, 0);
    assert_eq!(counters.dropped_src_failed, 0);
    assert_eq!(counters.timers_fired, 7_374);
    assert_eq!(counters.events, 252_623);
    assert_eq!(digest, 0xb60f_4497_7cd1_2016);
    assert_eq!(bytes_sent, 143_402_772);
}

/// A fully instrumented run (all-category flight recorder + self-profiling)
/// must reproduce the same golden fingerprint: telemetry is observation
/// only, and the trace it captures is itself deterministic.
#[test]
fn bullet_64_traced_matches_the_same_golden_run() {
    let traced = bullet64::fingerprint_traced();
    let (counters, digest, bytes_sent) = traced.base;
    assert_eq!(counters.delivered, 61_237);
    assert_eq!(counters.events, 252_623);
    assert_eq!(digest, 0xb60f_4497_7cd1_2016);
    assert_eq!(bytes_sent, 143_402_772);
    // The trace saw the run: sends, deliveries, block journeys.
    assert!(!traced.trace_jsonl.is_empty());
    assert!(traced.trace_jsonl.contains("\"kind\":\"block_sealed\""));
    assert!(traced.journeys_jsonl.contains("\"seq\":0,"));
    assert_eq!(traced.profile.events, counters.events);
    assert!(traced.profile.peak_queue_depth > 0);
    // Two instrumented runs produce byte-identical traces.
    let again = bullet64::fingerprint_traced();
    assert_eq!(again.trace_jsonl, traced.trace_jsonl);
    assert_eq!(again.journeys_jsonl, traced.journeys_jsonl);
    assert_eq!(again.profile, traced.profile);
}

/// Two runs with the same seed must be byte-identical, including the event
/// count (which covers event ordering, not just outcomes).
#[test]
fn bullet_64_is_deterministic_across_runs() {
    let first = bullet64::fingerprint();
    let second = bullet64::fingerprint();
    assert_eq!(first.0, second.0);
    assert_eq!(first.1, second.1);
    assert_eq!(first.2, second.2);
}

/// The 64-node churn run: the bullet64 star driven by the scenario engine
/// through a crash + rejoin, a graceful leave with child handoff, a
/// 16-node flash crowd, an access-link capacity oscillation, and a
/// correlated stub-router outage (two route-invalidating epochs). The
/// goldens below were captured with `examples/churn_probe.rs` on the first
/// scenario-engine build; any divergence means the dynamics driver, the
/// mutable-network invalidation, or the churn protocol paths changed
/// behaviour.
#[test]
fn churn_64_matches_golden_run() {
    let (counters, digest, bytes_sent, epoch, stats) = churn64::fingerprint();
    assert_eq!(counters.delivered, 44_032);
    assert_eq!(counters.dropped_in_network, 391);
    assert_eq!(counters.dropped_dest_failed, 314);
    assert_eq!(counters.dropped_src_failed, 0);
    assert_eq!(counters.timers_fired, 6_504);
    assert_eq!(counters.events, 184_647);
    assert_eq!(digest, 0x5a57_6fcd_5133_257e);
    assert_eq!(bytes_sent, 105_616_680);
    // One stub outage down + up: exactly two route-invalidating epochs.
    assert_eq!(epoch, 2);
    // The script applied in full: 1 crash, 1 graceful leave, 1 rejoin plus
    // 16 flash-crowd joins, 2 capacity mutations, 2 router mutations.
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.leaves, 1);
    assert_eq!(stats.joins, 17);
    assert_eq!(stats.link_mutations, 2);
    assert_eq!(stats.router_mutations, 2);
}

/// Two churn runs with the same seed must be byte-identical: scenario
/// application (including epoch-invalidated rerouting) is deterministic.
#[test]
fn churn_64_is_deterministic_across_runs() {
    assert_eq!(churn64::fingerprint(), churn64::fingerprint());
}

/// The 64-node faults run: the bullet64 star with the §4.6 recovery
/// subsystem enabled, driven through two permanent subtree-orphaning
/// crashes, a 15-node partition/heal cycle, and per-node control-message
/// fault plans (30% drop + 10% duplicate on one node, 50% 20 ms delay on
/// another), all drawn from the deterministic sim RNG. The goldens below
/// were captured with `examples/faults_probe.rs` on the first recovery
/// build; the digest covers the recovery metrics (orphan detections,
/// re-attaches, control retries, eviction false positives) per node, so
/// any behavioural drift in the failure-recovery subsystem moves it.
#[test]
fn faults_64_matches_golden_run() {
    let (counters, digest, bytes_sent, epoch, stats, reattaches) = faults64::fingerprint();
    assert_eq!(counters.delivered, 68_294);
    assert_eq!(counters.dropped_in_network, 737);
    assert_eq!(counters.dropped_dest_failed, 796);
    assert_eq!(counters.dropped_src_failed, 0);
    assert_eq!(counters.dropped_partitioned, 1_578);
    assert_eq!(counters.dropped_faulted, 102);
    assert_eq!(counters.duplicated_faulted, 21);
    assert_eq!(counters.delayed_faulted, 119);
    assert_eq!(counters.timers_fired, 10_564);
    assert_eq!(counters.events, 288_283);
    assert_eq!(digest, 0x5369_0a92_4fd5_22d4);
    assert_eq!(bytes_sent, 163_201_968);
    // Partitions and faults never touch routes: no topology epochs.
    assert_eq!(epoch, 0);
    // The script applied in full.
    assert_eq!(stats.crashes, 2);
    assert_eq!(stats.partitions, 1);
    assert_eq!(stats.heals, 1);
    assert_eq!(stats.faults, 2);
    // The recovery subsystem actually fired: orphans (and partition
    // survivors that lost their parent path) re-attached.
    assert_eq!(reattaches, 95);
}

/// Two faults runs with the same seed must be byte-identical: fault
/// injection draws, partition drops and the re-attach ladder are all
/// deterministic.
#[test]
fn faults_64_is_deterministic_across_runs() {
    assert_eq!(faults64::fingerprint(), faults64::fingerprint());
}

/// The 64-node adversary run: the bullet64 star with the data-plane
/// integrity layer enabled (on top of the §4.6 recovery profile) while an
/// `adversary_fraction` script turns 20% of the overlay adversarial at
/// t=5s — even picks corrupt 75% of the data blocks they relay, odd picks
/// stall completely and falsely advertise phantom content. The goldens
/// below were captured with `examples/adversary_probe.rs` on the first
/// integrity build; the digest covers the integrity metrics (blocks
/// verified, corrupt rejected/accepted, health penalties, quarantines)
/// per node, so any behavioural drift in the defense moves it. The digest
/// was recaptured when the stall-penalty misfire was fixed (penalties now
/// require an outstanding *owed* block): honest idle senders stopped
/// accruing penalties, which moves the per-node penalty counts — and only
/// them; every simulator counter, event count and quarantine decision is
/// unchanged.
#[test]
fn adversary_64_matches_golden_run() {
    let (counters, digest, bytes_sent, epoch, stats, quarantines) = adversary64::fingerprint();
    assert_eq!(counters.delivered, 21_894);
    assert_eq!(counters.dropped_in_network, 17);
    assert_eq!(counters.dropped_dest_failed, 0);
    assert_eq!(counters.dropped_src_failed, 0);
    assert_eq!(counters.dropped_partitioned, 0);
    assert_eq!(counters.dropped_faulted, 0);
    assert_eq!(counters.corrupted_adversary, 47);
    assert_eq!(counters.stalled_adversary, 1_075);
    assert_eq!(counters.timers_fired, 10_699);
    assert_eq!(counters.events, 98_337);
    assert_eq!(digest, 0x722f_465c_502e_41d6);
    assert_eq!(bytes_sent, 51_218_216);
    // Adversary plans never touch routes: no topology epochs.
    assert_eq!(epoch, 0);
    // The script applied in full: 20% of 63 non-source nodes.
    assert_eq!(stats.adversaries, 13);
    // The defense actually fired: misbehaving peers got quarantined.
    assert_eq!(quarantines, 9);
}

/// Two adversary runs with the same seed must be byte-identical: the
/// corrupt/stall draws, tamper hook, health scoring and quarantine
/// evictions are all deterministic.
#[test]
fn adversary_64_is_deterministic_across_runs() {
    assert_eq!(adversary64::fingerprint(), adversary64::fingerprint());
}

/// The 64-node overload run: the bullet64 star with the overload-resilience
/// layer enabled (bounded prioritized inboxes, join admission control,
/// working-set memory budget, slow-receiver demotion) driven through a
/// 16-node join storm and six scripted slow receivers. The goldens below
/// were captured with `examples/overload_probe.rs` on the first overload
/// build; the digest covers the overload metrics (sheds, deferrals,
/// later admissions, peak inbox depth, evictions, demotions) per node, so
/// any behavioural drift in the defense moves it.
#[test]
fn overload_64_matches_golden_run() {
    let (counters, digest, bytes_sent, stats, activity) = overload64::fingerprint();
    assert_eq!(counters.delivered, 94_318);
    assert_eq!(counters.dropped_in_network, 415);
    assert_eq!(counters.dropped_dest_failed, 205);
    assert_eq!(counters.dropped_src_failed, 0);
    assert_eq!(counters.timers_fired, 13_551);
    assert_eq!(counters.events, 392_523);
    assert_eq!(digest, 0x02e0_ef65_ed69_08ad);
    assert_eq!(bytes_sent, 221_772_616);
    // The script applied in full: 16 storm joins, 6 slow-node switches.
    assert_eq!(stats.joins, 16);
    assert_eq!(stats.slow_nodes, 6);
    // Every overload mechanism actually fired.
    assert_eq!(activity.inbox_sheds, 529);
    assert_eq!(activity.joins_deferred, 825);
    assert_eq!(activity.joins_admitted_after_defer, 90);
    assert_eq!(activity.peak_inbox_depth, 74);
    assert_eq!(activity.working_set_evictions, 7_517);
    assert_eq!(activity.slow_demotions, 4);
}

/// Two overload runs with the same seed must be byte-identical: storm
/// expansion, deferral backoffs, shedding decisions, budget evictions and
/// slow demotions are all deterministic.
#[test]
fn overload_64_is_deterministic_across_runs() {
    assert_eq!(overload64::fingerprint(), overload64::fingerprint());
}

/// The `BULLET_SCALE=paper` smoke run: 256 Bullet nodes streaming for a few
/// simulated seconds over a ≥20,000-router paper-class topology, routed by
/// lazy landmark-guided bidirectional search. The goldens below were
/// captured with `examples/paper_smoke_probe.rs`; because every route is
/// canonical, route-computation order can never leak into these values —
/// any divergence means the lazy router (or the simulator) changed
/// behaviour.
#[test]
fn paper_scale_smoke_matches_golden_run() {
    let (counters, digest, bytes_sent, routing) = paper_smoke::fingerprint();
    assert_eq!(counters.delivered, 18_982);
    assert_eq!(counters.dropped_in_network, 246);
    assert_eq!(counters.dropped_dest_failed, 0);
    assert_eq!(counters.dropped_src_failed, 0);
    assert_eq!(counters.timers_fired, 7_779);
    assert_eq!(counters.events, 427_235);
    assert_eq!(digest, 0x4f1d_76a4_5a57_617e);
    assert_eq!(bytes_sent, 473_096_556);

    // The acceptance gate for the routing rework: a paper-scale topology
    // built and streamed without ever materializing a per-source
    // shortest-path tree (let alone all-pairs state).
    assert!(matches!(routing.mode, RoutingMode::LazyAlt { .. }));
    assert_eq!(routing.trees_built, 0, "no SPT may ever be built");
    assert_eq!(routing.route_queries, 627);
    assert_eq!(routing.lazy_searches, 627);
    // The one work counter in this golden, not behaviour: how far the 627
    // searches looked, with every route they returned (and so every value
    // above) unchanged. It fell from 1,874,197 when path reconstruction
    // stopped resuming the forward search and read the two balls instead.
    assert_eq!(routing.routers_settled, 177_967);
    assert_eq!(routing.landmarks, 8);
}
