//! Cross-crate integration tests: topology generation, tree construction,
//! Bullet, and the baselines all working together through the simulator.

use bullet_suite::baselines::{StreamConfig, StreamTransport, StreamingNode};
use bullet_suite::bullet::{BulletConfig, BulletNode};
use bullet_suite::dynamics::{ChurnConfig, ScenarioAction, ScenarioScript};
use bullet_suite::experiments::{
    build_topology, build_tree, bullet_run_on, figure, run_metered, FigureResult, RunResult,
    RunSpec, RunSummary, Scale, Sweep, TreeKind, OVERLOAD_NODE_RESOURCES,
};
use bullet_suite::netsim::{Network, Sim, SimDuration, SimTime};
use bullet_suite::overlay::Tree;
use bullet_suite::topology::{BandwidthProfile, BuiltTopology, LossProfile};

const STREAM_BPS: f64 = 600_000.0;

/// The sweep every `figure` call below runs under: one seed, so each claim
/// reads the figure's base run, on two workers (results do not depend on
/// the worker count, `tests/parallel.rs`).
fn sweep() -> Sweep {
    Sweep::new(2, 1)
}

fn small_env(profile: BandwidthProfile, seed: u64) -> (BuiltTopology, Tree) {
    let topo = build_topology(Scale::Small, 24, profile, LossProfile::None, seed);
    let tree = build_tree(&topo, TreeKind::Random { max_children: 8 }, 0, seed);
    (topo, tree)
}

fn spec(label: &str, secs: u64) -> RunSpec {
    RunSpec::new(
        label,
        SimDuration::from_secs(secs),
        SimDuration::from_secs(3),
    )
}

fn run_bullet(topo: &BuiltTopology, tree: &Tree, seed: u64, secs: u64) -> RunResult {
    let config = BulletConfig {
        stream_rate_bps: STREAM_BPS,
        stream_start: SimTime::from_secs(10),
        ..BulletConfig::default()
    };
    let agents: Vec<BulletNode> = (0..topo.participants())
        .map(|id| BulletNode::new(id, tree, config.clone()))
        .collect();
    run_metered(Sim::new(&topo.spec, agents, seed), &spec("Bullet", secs))
}

fn run_streaming(topo: &BuiltTopology, tree: &Tree, seed: u64, secs: u64) -> RunResult {
    let config = StreamConfig {
        stream_rate_bps: STREAM_BPS,
        stream_start: SimTime::from_secs(10),
        transport: StreamTransport::Tfrc,
    };
    let agents: Vec<StreamingNode> = (0..topo.participants())
        .map(|id| StreamingNode::new(id, tree, config.clone()))
        .collect();
    run_metered(Sim::new(&topo.spec, agents, seed), &spec("Streaming", secs))
}

#[test]
fn bullet_outperforms_streaming_on_a_constrained_random_tree() {
    let (topo, tree) = small_env(BandwidthProfile::Low, 101);
    let bullet = run_bullet(&topo, &tree, 101, 120);
    let streaming = run_streaming(&topo, &tree, 101, 120);
    let bullet_kbps = bullet.steady_state_kbps();
    let streaming_kbps = streaming.steady_state_kbps();
    assert!(
        bullet_kbps > 1.4 * streaming_kbps,
        "expected Bullet ({bullet_kbps:.0} Kbps) to clearly beat tree streaming ({streaming_kbps:.0} Kbps) on a constrained topology"
    );
}

#[test]
fn bullet_matches_the_target_rate_when_bandwidth_is_ample() {
    let (topo, tree) = small_env(BandwidthProfile::High, 102);
    let bullet = run_bullet(&topo, &tree, 102, 120);
    let kbps = bullet.steady_state_kbps();
    assert!(
        kbps > 0.75 * STREAM_BPS / 1_000.0,
        "achieved only {kbps:.0} Kbps of a {:.0} Kbps stream on a high-bandwidth topology",
        STREAM_BPS / 1_000.0
    );
}

#[test]
fn mesh_keeps_descendants_alive_through_a_failure() {
    let (topo, tree) = small_env(BandwidthProfile::Medium, 103);
    let victim = tree
        .children(0)
        .iter()
        .copied()
        .max_by_key(|&c| tree.subtree_size(c))
        .expect("root has children");
    let descendants: Vec<usize> = tree
        .subtree(victim)
        .into_iter()
        .filter(|&n| n != victim)
        .collect();
    if descendants.is_empty() {
        // Extremely unlikely with this seed, but the test would be vacuous.
        panic!("chosen victim has no descendants; adjust the seed");
    }
    let config = BulletConfig {
        stream_rate_bps: STREAM_BPS,
        stream_start: SimTime::from_secs(10),
        ..BulletConfig::default()
    };
    let result = bullet_run_on(
        Network::new(&topo.spec),
        &tree,
        &config,
        &spec("failure", 150),
        &ScenarioScript::single_crash(SimTime::from_secs(80), victim),
        103,
    );

    // Descendants of the failed node must keep making progress afterwards.
    let idx_fail = result.times.iter().position(|&t| t >= 90.0).unwrap();
    let last = result.per_node_useful_bytes.last().unwrap();
    let at_fail = &result.per_node_useful_bytes[idx_fail];
    let still_progressing = descendants
        .iter()
        .filter(|&&n| last[n] > at_fail[n] + 100_000)
        .count();
    assert!(
        still_progressing * 2 >= descendants.len(),
        "only {still_progressing} of {} descendants kept receiving data after their ancestor failed",
        descendants.len()
    );
}

#[test]
fn identical_seeds_reproduce_identical_results() {
    let (topo, tree) = small_env(BandwidthProfile::Medium, 104);
    let a = run_bullet(&topo, &tree, 104, 60);
    let b = run_bullet(&topo, &tree, 104, 60);
    assert_eq!(a.per_node_useful_bytes, b.per_node_useful_bytes);
    assert_eq!(a.useful.kbps, b.useful.kbps);
}

#[test]
fn offline_bottleneck_tree_beats_a_random_tree_for_plain_streaming() {
    let topo = build_topology(
        Scale::Small,
        24,
        BandwidthProfile::Medium,
        LossProfile::None,
        105,
    );
    let random = build_tree(&topo, TreeKind::Random { max_children: 8 }, 0, 105);
    let bottleneck = build_tree(&topo, TreeKind::Bottleneck, 0, 105);
    let random_run = run_streaming(&topo, &random, 105, 120);
    let bottleneck_run = run_streaming(&topo, &bottleneck, 105, 120);
    assert!(
        bottleneck_run.steady_state_kbps() > random_run.steady_state_kbps(),
        "bottleneck tree ({:.0} Kbps) should beat the random tree ({:.0} Kbps)",
        bottleneck_run.steady_state_kbps(),
        random_run.steady_state_kbps()
    );
}

/// Satellite gate for routing Figs. 13/14 through the scenario engine: the
/// one-crash script must reproduce the legacy `RunSpec::failure` injection
/// **exactly** — same sampled series, same summary — because the driver
/// pre-schedules crashes through the simulator's event queue with the same
/// ordering the legacy path used. This replays the `failure_figure_plan` inputs
/// at small scale down both paths and compares bit for bit.
#[test]
fn fig13_through_the_scenario_engine_matches_the_legacy_path() {
    // Mirrors figures::failure_figure_plan at Scale::Small (seed 13, medium
    // bandwidth, 600 Kbps, random tree, worst-case victim at 60% of 90 s).
    let scale = Scale::Small;
    let seed = 13;
    let topo = build_topology(scale, 30, BandwidthProfile::Medium, LossProfile::None, seed);
    let tree = build_tree(&topo, TreeKind::Random { max_children: 10 }, 0, seed);
    let victim = tree
        .children(0)
        .iter()
        .copied()
        .max_by_key(|&c| tree.subtree_size(c))
        .expect("root has children");
    let failure_time = SimTime::from_secs((90.0 * 0.6) as u64);
    let mut config = BulletConfig {
        stream_rate_bps: 600_000.0,
        stream_start: SimTime::from_secs(10),
        ..BulletConfig::default()
    };
    config.ransub_failure_detection = false;
    let mut run = RunSpec::new(
        "Bullet, worst-case failure, no RanSub recovery",
        SimDuration::from_secs(90),
        SimDuration::from_secs(2),
    );

    let script = ScenarioScript::single_crash(failure_time, victim);
    let scripted = bullet_run_on(
        Network::new(&topo.spec),
        &tree,
        &config,
        &run,
        &script,
        seed,
    );

    run.failure = Some((failure_time, victim));
    let legacy = bullet_run_on(
        Network::new(&topo.spec),
        &tree,
        &config,
        &run,
        &ScenarioScript::new(),
        seed,
    );

    assert_eq!(
        legacy.useful.kbps, scripted.useful.kbps,
        "useful series moved"
    );
    assert_eq!(legacy.raw.kbps, scripted.raw.kbps, "raw series moved");
    assert_eq!(
        legacy.from_parent.kbps, scripted.from_parent.kbps,
        "from-parent series moved"
    );
    assert_eq!(
        legacy.per_node_useful_bytes, scripted.per_node_useful_bytes,
        "per-node byte counters moved"
    );
    assert_eq!(legacy.summary, scripted.summary, "summary scalars moved");
}

/// Loss and bandwidth mutations are metadata-only: link costs are
/// propagation delays, so neither can re-route anything, and the repair
/// subsystem must do literally zero work for them. Re-asserting the links'
/// current values mid-run must reproduce the unscripted run bit for bit
/// (identical delivery traces), and even genuinely changed values must not
/// register a single route mutation or invalidation.
#[test]
fn loss_and_bandwidth_scripts_cause_zero_route_repair() {
    let (topo, tree) = small_env(BandwidthProfile::Medium, 41);
    let config = BulletConfig {
        stream_rate_bps: STREAM_BPS,
        stream_start: SimTime::from_secs(10),
        ..BulletConfig::default()
    };
    let run = spec("Bullet, metadata-only mutations", 60);

    let net = || Network::new(&topo.spec);
    let baseline = bullet_run_on(net(), &tree, &config, &run, &ScenarioScript::new(), 41);

    // Same-value re-asserts: metadata writes with no observable effect.
    let mut noop = ScenarioScript::new();
    for (i, at) in [(0usize, 20u64), (1, 30), (2, 40)] {
        noop.push(
            SimTime::from_secs(at),
            ScenarioAction::SetLinkBandwidth {
                link: i,
                bps: topo.spec.links[i].bandwidth_bps,
            },
        );
        noop.push(
            SimTime::from_secs(at + 5),
            ScenarioAction::SetLinkLoss {
                link: i,
                loss: topo.spec.links[i].loss,
            },
        );
    }
    let reasserted = bullet_run_on(net(), &tree, &config, &run, &noop, 41);
    assert_eq!(
        baseline.useful.kbps, reasserted.useful.kbps,
        "same-value loss/bandwidth writes moved the useful series"
    );
    assert_eq!(
        baseline.per_node_useful_bytes, reasserted.per_node_useful_bytes,
        "same-value loss/bandwidth writes moved per-node delivery"
    );
    assert_eq!(
        baseline.summary, reasserted.summary,
        "same-value loss/bandwidth writes moved the summary"
    );
    assert_eq!(
        baseline.summary.route_mutations, 0,
        "repair work registered"
    );

    // Genuinely changed values alter packet fates but still must not touch
    // the routing layers.
    let changed = ScenarioScript::new()
        .at(
            SimTime::from_secs(20),
            ScenarioAction::SetLinkBandwidth {
                link: 0,
                bps: topo.spec.links[0].bandwidth_bps * 0.5,
            },
        )
        .at(
            SimTime::from_secs(30),
            ScenarioAction::SetLinkLoss {
                link: 1,
                loss: 0.05,
            },
        );
    let perturbed = bullet_run_on(net(), &tree, &config, &run, &changed, 41);
    assert_eq!(
        perturbed.summary.route_mutations, 0,
        "loss/bandwidth changes must not count as route mutations"
    );
    assert_eq!(
        perturbed.summary.routes_invalidated, 0,
        "loss/bandwidth changes must not invalidate any route"
    );
    assert_eq!(
        perturbed.summary.landmark_repairs, 0,
        "loss/bandwidth changes must not repair landmark tables"
    );
}

/// A flash crowd absorbed mid-run: the late joiners bootstrap off the mesh
/// and end the run having received a meaningful share of the stream.
#[test]
fn flash_crowd_joiners_catch_up() {
    let figure = figure(Scale::Small, "flashcrowd", &sweep());
    assert_eq!(figure.id, "flashcrowd");
    assert!(!figure.notes.is_empty());
    let steady = figure
        .steady_state_of("flash crowd")
        .expect("figure has a labelled series");
    assert!(
        steady > 150.0,
        "overlay collapsed under the flash crowd: {steady:.0} Kbps steady"
    );
}

/// Continuous crash/rejoin churn of every non-source node: the mesh keeps
/// the median node progressing even while a quarter of the overlay is down
/// at any instant.
#[test]
fn bullet_survives_exponential_churn() {
    let (topo, tree) = small_env(BandwidthProfile::Medium, 107);
    let config = BulletConfig {
        stream_rate_bps: STREAM_BPS,
        stream_start: SimTime::from_secs(10),
        ..BulletConfig::default()
    }
    .churn();
    let script = ScenarioScript::exponential_churn(&ChurnConfig {
        nodes: (1..topo.participants()).collect(),
        start: SimTime::from_secs(15),
        end: SimTime::from_secs(110),
        mean_session_secs: 40.0,
        mean_downtime_secs: 10.0,
        graceful_fraction: 0.2,
        seed: 107,
    });
    assert!(!script.is_empty(), "churn script generated no events");
    let result = bullet_run_on(
        Network::new(&topo.spec),
        &tree,
        &config,
        &spec("Bullet under churn", 120),
        &script,
        107,
    );
    let kbps = result.steady_state_kbps();
    assert!(
        kbps > 100.0,
        "mesh collapsed under churn: {kbps:.0} Kbps steady useful"
    );
    // Churning nodes miss whatever fell out of the recovery horizon while
    // they were down (the working set covers ~30 s of stream), so whole-run
    // delivery fractions sit well below the static-network runs; the gate
    // is that the median node still makes real progress.
    assert!(
        result.summary.median_delivery_fraction > 0.15,
        "median node received only {:.0}% of the stream under churn",
        result.summary.median_delivery_fraction * 100.0
    );
}

#[test]
fn control_overhead_stays_near_the_paper_figure() {
    let (topo, tree) = small_env(BandwidthProfile::Medium, 106);
    let bullet = run_bullet(&topo, &tree, 106, 120);
    let overhead = bullet.summary.control_overhead_kbps;
    assert!(
        overhead < 60.0,
        "per-node control overhead {overhead:.1} Kbps is far above the paper's ~30 Kbps"
    );
}

/// The summary of the figure's run labelled `label`.
fn summary_of<'a>(figure: &'a FigureResult, label: &str) -> &'a RunSummary {
    figure
        .summaries
        .iter()
        .find(|(l, _)| l == label)
        .map(|(_, summary)| summary)
        .unwrap_or_else(|| panic!("figure {} has no run labelled {label:?}", figure.id))
}

/// The figure's scalar outcome named `name`.
fn scalar_of(figure: &FigureResult, name: &str) -> f64 {
    figure
        .scalars
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, value)| value)
        .unwrap_or_else(|| panic!("figure {} has no scalar named {name:?}", figure.id))
}

/// The §4.6 claim: under one interior-node crash every 10 s the recovery
/// subsystem re-attaches orphans and holds at least twice the steady
/// goodput of the same overlay without it (247 vs 54 Kbps, 37 re-attaches,
/// when written).
///
/// Checked by hand against two deliberately broken builds of
/// `recovery_plan`: `recovery: None` in the "on" arm's configuration fails
/// the re-attach assert (0 re-attaches); the recovery profile in both arms
/// fails the ratio assert (247.0 vs 247.0 Kbps).
#[test]
fn recovery_doubles_goodput_under_sustained_crashes() {
    let figure = figure(Scale::Small, "recovery", &sweep());
    let on = summary_of(&figure, "Bullet - recovery on");
    let off = summary_of(&figure, "Bullet - recovery off");
    assert!(on.reattaches > 0, "no orphan ever re-attached");
    assert!(
        on.steady_useful_kbps >= 2.0 * off.steady_useful_kbps,
        "recovery on {:.1} Kbps vs off {:.1} Kbps",
        on.steady_useful_kbps,
        off.steady_useful_kbps
    );
}

/// The integrity claim: with 20% of the overlay corrupting, stalling or
/// falsely advertising, the defended overlay accepts no corrupted block,
/// quarantines, and holds at least twice the undefended clean goodput (423
/// vs 0 Kbps, 47 quarantines, when written).
///
/// Checked by hand against two deliberately broken builds of
/// `adversary_plan`: the defense off in both arms (`defense_cfg` given the
/// recovery profile) fails the first assert with 9,656 tampered blocks
/// accepted; a defense that verifies but never quarantines
/// (`quarantine_threshold: f64::MAX`) fails the quarantine assert.
#[test]
fn integrity_defense_doubles_clean_goodput_at_20pct_adversaries() {
    let figure = figure(Scale::Small, "adversary", &sweep());
    let on = summary_of(&figure, "Bullet - defense on - 20% adversaries");
    let off = summary_of(&figure, "Bullet - defense off - 20% adversaries");
    assert_eq!(
        on.totals.corrupt_blocks_accepted, 0,
        "the defense let tampered blocks in"
    );
    assert!(
        on.totals.quarantines > 0,
        "no misbehaving peer was quarantined"
    );
    assert!(
        on.clean_goodput_kbps >= 2.0 * off.clean_goodput_kbps,
        "clean goodput: defense on {:.1} Kbps vs off {:.1} Kbps",
        on.clean_goodput_kbps,
        off.clean_goodput_kbps
    );
}

/// The overload claim: through a join storm on finite-capacity nodes the
/// bounded arm's ingress backlog stays within its queue budget while the
/// unbounded arm's grows past it, every backpressure mechanism fires (and
/// deferred joiners do get in), and the worst-quartile steady-state
/// members hold at least twice the unbounded arm's timely goodput (peak
/// backlog 60 vs 402, 83 vs 39 Kbps, when written).
///
/// Checked by hand against two deliberately broken builds: the inbox
/// budget lifted in the bounded arm (`overload_figure_knobs` returning
/// `inbox_budget: u32::MAX`) fails the shed assert (the inbox never
/// sheds); `QueueDiscipline::Unbounded` ingress in both arms of
/// `overload_plan` fails the backlog assert (bounded peak 157 against a
/// budget of 60).
#[test]
fn bounded_queues_hold_goodput_through_a_join_storm() {
    let figure = figure(Scale::Small, "overload", &sweep());
    let bounded = summary_of(&figure, "Bullet - bounded queues");
    let unbounded = summary_of(&figure, "Bullet - unbounded queues");
    let budget = u64::from(OVERLOAD_NODE_RESOURCES.queue_budget);
    assert!(
        bounded.ingress_peak_depth <= budget && budget < unbounded.ingress_peak_depth,
        "peak ingress backlog: bounded {} vs unbounded {} (budget {budget})",
        bounded.ingress_peak_depth,
        unbounded.ingress_peak_depth
    );
    assert!(
        bounded.totals.inbox_sheds > 0,
        "the bounded inbox never shed"
    );
    assert!(
        bounded.totals.joins_deferred > 0,
        "no join was ever deferred"
    );
    assert!(
        bounded.totals.joins_admitted_after_defer > 0,
        "deferred joiners were never admitted"
    );
    let (wq_on, wq_off) = (
        scalar_of(&figure, "bounded_worst_quartile_kbps"),
        scalar_of(&figure, "unbounded_worst_quartile_kbps"),
    );
    assert!(
        wq_on >= 2.0 * wq_off,
        "worst-quartile members: bounded {wq_on:.1} Kbps vs unbounded {wq_off:.1} Kbps"
    );
}
