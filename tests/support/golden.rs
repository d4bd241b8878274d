//! The golden workloads: one table, one runner, one fingerprint type.
//!
//! Every row streams Bullet (500 Kbps from t=2s) over a degree-4 random
//! tree and differs only in what the table says: the topology, the seed,
//! the run length, the configuration profile, the scenario script, and
//! which layer metrics its per-node digest folds in between the delivery
//! and traffic counters (that order is part of each golden). Shared (via
//! `#[path]` inclusion) by `tests/determinism.rs`, which pins every row's
//! [`Golden`] with one `assert_eq!` — whose failure message is the
//! recapture — and by `tests/parallel.rs`, which re-runs the rows on
//! worker threads.

// Each includer uses its own subset of the rows.
#![allow(dead_code)]

use bullet_suite::bullet::config::OverloadConfig;
use bullet_suite::bullet::{BulletConfig, BulletMetrics, BulletNode};
use bullet_suite::dynamics::{ScenarioAction, ScenarioDriver, ScenarioScript, ScenarioStats};
use bullet_suite::netsim::telemetry::{block_journeys, journeys_to_jsonl, SelfProfile, TraceSpec};
use bullet_suite::netsim::{
    FaultPlan, LinkSpec, NetworkSpec, RoutingMode, Sim, SimCounters, SimDuration, SimRng, SimTime,
};
use bullet_suite::overlay::random_tree;
use bullet_suite::topology::{generate, TopologyConfig};

/// Participants of the star rows.
const STAR_NODES: usize = 64;
/// Participants of the paper-scale smoke row (a subset of the paper's
/// 1,000 so the golden stays inside a debug-build time budget).
const PAPER_NODES: usize = 256;

/// One golden workload.
pub struct Row {
    pub name: &'static str,
    topology: fn(u64) -> NetworkSpec,
    /// Seeds the topology, the tree, the simulator and (xor a per-script
    /// constant) the script's own draws.
    seed: u64,
    run_secs: u64,
    /// Turns the base stream configuration into the row's profile.
    config: fn(BulletConfig) -> BulletConfig,
    /// `None` runs the simulator bare, without a scenario driver.
    script: Option<fn(u64) -> ScenarioScript>,
    /// The layer metrics of one node, in digest order.
    layer_fields: fn(&BulletMetrics) -> Vec<u64>,
    /// Named overlay-wide values asserted beside the digest, so a golden
    /// also says that the row's layer actually fired.
    extra: fn(&Sim<BulletNode>) -> Vec<(&'static str, u64)>,
}

/// A digest that prints the way the goldens are written.
#[derive(PartialEq)]
pub struct Digest(pub u64);

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({:#018x})", self.0)
    }
}

/// What a row's run is pinned to.
#[derive(Debug, PartialEq)]
pub struct Golden {
    pub counters: SimCounters,
    /// Per-node delivery, layer and traffic counters, folded in node order.
    pub digest: Digest,
    /// Total bytes accepted by physical links.
    pub bytes_sent: u64,
    /// Route-affecting topology mutations applied.
    pub epoch: u64,
    pub scenario: ScenarioStats,
    pub extra: Vec<(&'static str, u64)>,
}

/// The telemetry a fully instrumented run captures.
#[derive(Debug, PartialEq)]
pub struct Traced {
    /// Flight-recorder trace as JSONL (all categories, no eviction).
    pub trace_jsonl: String,
    /// Per-block journey spans as JSONL.
    pub journeys_jsonl: String,
    /// The simulator self-profile (`PartialEq` ignores its wall-clock half).
    pub profile: SelfProfile,
}

/// The plain 64-node run the simulator refactors are held to.
pub const BULLET64: Row = Row {
    name: "bullet64",
    topology: star64,
    seed: 2003,
    run_secs: 20,
    config: |base| base,
    script: None,
    layer_fields: |_| Vec::new(),
    extra: |_| Vec::new(),
};

/// Every dynamics channel at once: a crash with a later rejoin, a graceful
/// leave (child handoff), a flash crowd of late joiners, an oscillating
/// access-link capacity, and a correlated stub outage with recovery.
pub const CHURN64: Row = Row {
    name: "churn64",
    topology: star64,
    seed: 2003,
    run_secs: 20,
    config: BulletConfig::churn,
    script: Some(churn_script),
    layer_fields: |_| Vec::new(),
    extra: |_| Vec::new(),
};

/// The §4.6 recovery subsystem (2-second RanSub epochs so detection fits
/// the window) under every failure channel at once: permanent crashes that
/// orphan subtrees, a partition with a later heal, and per-node
/// control-message fault plans off the deterministic sim RNG.
pub const FAULTS64: Row = Row {
    name: "faults64",
    topology: star64,
    seed: 2003,
    run_secs: 25,
    config: |base| short_epochs(base).recovery(),
    script: Some(faults_script),
    layer_fields: recovery_fields,
    extra: |sim| vec![("reattaches", sum(sim, |m| m.reattaches))],
};

/// The integrity layer while 20% of the non-source nodes turn adversarial
/// at t=5s: even picks corrupt 75% of the data blocks they relay, odd picks
/// stall completely and falsely advertise phantom content.
pub const ADVERSARY64: Row = Row {
    name: "adversary64",
    topology: star64,
    seed: 2004,
    run_secs: 25,
    config: |base| short_epochs(base).integrity(),
    script: Some(|seed| {
        let nodes: Vec<usize> = (1..STAR_NODES).collect();
        ScenarioScript::adversary_fraction(&nodes, 0.2, SimTime::from_secs(5), 0.75, seed ^ 0xAD5A)
    }),
    layer_fields: |m| {
        let mut fields = recovery_fields(m);
        fields.extend([
            m.blocks_verified,
            m.corrupt_blocks_rejected,
            m.corrupt_blocks_accepted,
            m.health_penalties,
            m.quarantines,
        ]);
        fields
    },
    extra: |sim| vec![("quarantines", sum(sim, |m| m.quarantines))],
};

/// The overload layer through a 16-node join storm at t=5s and six
/// scripted slow receivers that understate their intake fivefold. The
/// knobs are tightened well below their defaults so every mechanism fires
/// at this scale: the inbox budget forces sheds and join deferrals during
/// the storm, and the working-set budget forces owed-floor evictions.
pub const OVERLOAD64: Row = Row {
    name: "overload64",
    topology: star64,
    seed: 2005,
    run_secs: 30,
    config: |base| {
        let mut config = BulletConfig {
            filter_refresh_interval: SimDuration::from_secs(2),
            mesh_eval_interval: SimDuration::from_secs(5),
            ..short_epochs(base)
        }
        .overload();
        config.overload = Some(OverloadConfig {
            inbox_budget: 12,
            working_set_budget: 600,
            ..OverloadConfig::default()
        });
        config
    },
    script: Some(overload_script),
    layer_fields: |m| {
        vec![
            m.orphan_detections,
            m.reattaches,
            m.control_retries,
            m.health_penalties,
            m.quarantines,
            m.inbox_sheds,
            m.joins_deferred,
            m.joins_admitted_after_defer,
            m.peak_inbox_depth,
            m.working_set_evictions,
            m.slow_demotions,
        ]
    },
    extra: |sim| {
        let peak = metrics(sim).map(|m| m.peak_inbox_depth).max();
        vec![
            ("inbox_sheds", sum(sim, |m| m.inbox_sheds)),
            ("joins_deferred", sum(sim, |m| m.joins_deferred)),
            (
                "joins_admitted_after_defer",
                sum(sim, |m| m.joins_admitted_after_defer),
            ),
            ("peak_inbox_depth", peak.unwrap_or(0)),
            (
                "working_set_evictions",
                sum(sim, |m| m.working_set_evictions),
            ),
            ("slow_demotions", sum(sim, |m| m.slow_demotions)),
        ]
    },
};

/// 256 Bullet nodes streaming for a few simulated seconds over a full
/// paper-class transit-stub topology (≥ 20,000 routers, degree-one leaf
/// attachment, Table 1 medium bandwidths), routed the way a network of
/// that size routes itself. Routes are canonical (see
/// `bullet_netsim::routing`), so the order in which router pairs are first
/// contacted cannot influence any path or any value here.
pub const PAPER_SMOKE: Row = Row {
    name: "paper_smoke",
    topology: |seed| {
        let spec = generate(&TopologyConfig::paper_scale(PAPER_NODES, seed)).spec;
        assert!(
            spec.routers >= 20_000,
            "paper smoke must run on a paper-sized topology"
        );
        spec
    },
    seed: 2003,
    run_secs: 6,
    config: |base| base,
    script: None,
    layer_fields: |_| Vec::new(),
    extra: |sim| {
        let routing = sim.network().routing_stats();
        let lazy_alt = matches!(routing.mode, RoutingMode::LazyAlt { .. });
        vec![
            ("routing.lazy_alt", lazy_alt as u64),
            ("routing.trees_built", routing.trees_built),
            ("routing.route_queries", routing.route_queries),
            ("routing.lazy_searches", routing.lazy_searches),
            ("routing.routers_settled", routing.routers_settled),
            ("routing.landmarks", routing.landmarks as u64),
        ]
    },
};

/// Star topology: one core router, one stub router per participant.
fn star64(_seed: u64) -> NetworkSpec {
    let mut spec = NetworkSpec::new(STAR_NODES + 1);
    for i in 0..STAR_NODES {
        spec.add_link(LinkSpec::new(
            STAR_NODES,
            i,
            2_000_000.0,
            SimDuration::from_millis(10),
        ));
        spec.attach(i);
    }
    spec
}

fn short_epochs(base: BulletConfig) -> BulletConfig {
    BulletConfig {
        ransub_epoch: SimDuration::from_secs(2),
        ..base
    }
}

fn recovery_fields(m: &BulletMetrics) -> Vec<u64> {
    vec![
        m.orphan_detections,
        m.reattaches,
        m.control_retries,
        m.false_positive_evictions,
    ]
}

fn metrics(sim: &Sim<BulletNode>) -> impl Iterator<Item = &BulletMetrics> {
    (0..sim.network().participants()).map(|n| &sim.agent(n).metrics)
}

fn sum(sim: &Sim<BulletNode>, field: fn(&BulletMetrics) -> u64) -> u64 {
    metrics(sim).map(field).sum()
}

/// Every scenario channel fires at least once inside the 20-second window.
fn churn_script(seed: u64) -> ScenarioScript {
    let script = ScenarioScript::new()
        // Crash + rejoin cycle.
        .at(SimTime::from_secs(6), ScenarioAction::Crash { node: 3 })
        .at(SimTime::from_secs(10), ScenarioAction::Join { node: 3 })
        // Graceful leave: children are handed to the leaver's parent.
        .at(
            SimTime::from_secs(9),
            ScenarioAction::GracefulLeave { node: 5 },
        )
        // Node 1's access link halves in capacity, then recovers.
        .at(
            SimTime::from_secs(7),
            ScenarioAction::SetLinkBandwidth {
                link: 1,
                bps: 1_000_000.0,
            },
        )
        .at(
            SimTime::from_secs(13),
            ScenarioAction::SetLinkBandwidth {
                link: 1,
                bps: 2_000_000.0,
            },
        )
        // Correlated outage of node 7's stub router (route-invalidating).
        .at(
            SimTime::from_secs(11),
            ScenarioAction::SetRouterUp {
                router: 7,
                up: false,
            },
        )
        .at(
            SimTime::from_secs(14),
            ScenarioAction::SetRouterUp {
                router: 7,
                up: true,
            },
        );
    // Flash crowd: the last quarter of the overlay joins at 8..12 s.
    let crowd: Vec<usize> = (48..STAR_NODES).collect();
    script.merge(ScenarioScript::flash_crowd(
        &crowd,
        SimTime::from_secs(8),
        4.0,
        seed ^ 0xF1A5,
    ))
}

/// A subtree-orphaning crash, a partition/heal cycle and two
/// control-message fault plans.
fn faults_script(_seed: u64) -> ScenarioScript {
    ScenarioScript::new()
        // Lossy and slow control planes from early on: node 5 drops 30%
        // and duplicates 10% of its incoming control messages, node 9
        // delays half of its by 20 ms.
        .at(
            SimTime::from_secs(3),
            ScenarioAction::Fault {
                node: 5,
                plan: FaultPlan {
                    drop_chance: 0.3,
                    duplicate_chance: 0.1,
                    ..FaultPlan::default()
                },
            },
        )
        .at(
            SimTime::from_secs(3),
            ScenarioAction::Fault {
                node: 9,
                plan: FaultPlan {
                    delay_chance: 0.5,
                    delay: SimDuration::from_millis(20),
                    ..FaultPlan::default()
                },
            },
        )
        // A permanent crash: node 3's subtree orphans and must re-attach.
        .at(SimTime::from_secs(6), ScenarioAction::Crash { node: 3 })
        // A partition cuts nodes 33-47 off for three epochs, then heals.
        .at(
            SimTime::from_secs(8),
            ScenarioAction::Partition {
                nodes: (33..48).collect(),
            },
        )
        .at(SimTime::from_secs(14), ScenarioAction::Heal)
        // A second permanent crash after the heal.
        .at(SimTime::from_secs(16), ScenarioAction::Crash { node: 11 })
}

/// Six slow receivers (~10% of the overlay) from t=3s, then a 16-node join
/// storm at t=5s ramped over 5 seconds.
fn overload_script(seed: u64) -> ScenarioScript {
    let mut script = ScenarioScript::new();
    for node in [7, 14, 21, 28, 35, 42] {
        script = script.at(
            SimTime::from_secs(3),
            ScenarioAction::SlowNode { node, factor: 0.2 },
        );
    }
    script.at(
        SimTime::from_secs(5),
        ScenarioAction::JoinStorm {
            first: 48,
            count: 16,
            ramp_secs: 5.0,
            seed: seed ^ 0x0B10,
        },
    )
}

/// One step of the digest fold, shared with `tests/determinism.rs`'s
/// whole-suite golden.
pub fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

fn run(row: &Row, traced: bool) -> (Golden, Option<Traced>) {
    let spec = (row.topology)(row.seed);
    let nodes = spec.participants();
    let tree = random_tree(nodes, 0, 4, &mut SimRng::new(row.seed));
    let config = (row.config)(BulletConfig {
        stream_rate_bps: 500_000.0,
        stream_start: SimTime::from_secs(2),
        ..BulletConfig::default()
    });
    let agents: Vec<BulletNode> = (0..nodes)
        .map(|i| BulletNode::new(i, &tree, config.clone()))
        .collect();
    let mut sim = Sim::new(&spec, agents, row.seed);
    if traced {
        // Sized so nothing is evicted.
        let trace = TraceSpec::parse("all,cap=1048576").expect("valid trace spec");
        sim.install_recorder(&trace);
        sim.enable_profiling();
    }
    let until = SimTime::from_secs(row.run_secs);
    let scenario = match row.script {
        None => {
            sim.run_until(until);
            ScenarioStats::default()
        }
        Some(script) => {
            let mut driver = ScenarioDriver::new(&script(row.seed));
            driver.install(&mut sim);
            driver.run_until(&mut sim, until);
            driver.stats
        }
    };

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for node in 0..nodes {
        let m = &sim.agent(node).metrics;
        let t = sim.traffic(node);
        let delivery = [
            m.delivery.useful_packets,
            m.delivery.useful_bytes,
            m.delivery.raw_bytes,
            m.delivery.duplicate_packets,
            m.delivery.total_packets,
        ];
        let traffic = [
            t.data_bytes_in,
            t.control_bytes_in,
            t.data_bytes_out,
            t.control_bytes_out,
        ];
        for v in delivery
            .into_iter()
            .chain((row.layer_fields)(m))
            .chain(traffic)
        {
            digest = mix(digest, v);
        }
    }
    let golden = Golden {
        counters: sim.counters(),
        digest: Digest(digest),
        bytes_sent: sim.network().total_bytes_sent(),
        epoch: sim.network().repair_stats().route_mutations,
        scenario,
        extra: (row.extra)(&sim),
    };
    let telemetry = traced.then(|| {
        let profile = sim.profile().expect("profiling enabled");
        let recorder = sim.take_recorder().expect("recorder installed");
        assert_eq!(recorder.evicted(), 0, "trace ring sized to hold the run");
        Traced {
            trace_jsonl: recorder.to_jsonl(),
            journeys_jsonl: journeys_to_jsonl(&block_journeys(recorder.events()), nodes - 1),
            profile,
        }
    });
    (golden, telemetry)
}

/// Runs a row and returns what it is pinned to.
pub fn fingerprint(row: &Row) -> Golden {
    run(row, false).0
}

/// Runs a row with a full-category flight recorder and self-profiling
/// enabled. The [`Golden`] must equal [`fingerprint`]'s — telemetry is
/// read-only — and the trace itself must be deterministic.
pub fn fingerprint_traced(row: &Row) -> (Golden, Traced) {
    let (golden, telemetry) = run(row, true);
    (golden, telemetry.expect("a traced run captures telemetry"))
}
