//! The four workloads: what each one's inputs are, how a repetition is set
//! up and run, and what is read back from it.
//!
//! Everything here goes through the layers' public functions with explicit
//! configurations. The `*_run_on` wrappers and `Params::bullet_config` are
//! avoided on purpose: they read `BULLET_*` environment knobs.

use std::hash::Hasher;
use std::time::Instant;

use bullet_baselines::{StreamConfig, StreamTransport, StreamingNode};
use bullet_core::{BulletConfig, BulletNode};
use bullet_dynamics::{ChurnConfig, ScenarioAction, ScenarioAgent, ScenarioDriver, ScenarioScript};
use bullet_experiments::{
    run_metered_dynamic_with, run_metered_with, MeteredAgent, RunResult, RunSpec, TelemetryConfig,
};
use bullet_netsim::telemetry::{block_journeys, BlockJourney, SelfProfile, TraceSpec};
use bullet_netsim::{
    FxHasher, Network, NetworkSetup, NetworkSpec, OverlayId, RepairMode, RepairStats, RoutingMode,
    RoutingStats, Sim, SimCounters, SimDuration, SimRng, SimTime,
};
use bullet_overlay::{bottleneck_tree, random_tree, OmbtConfig, Tree};
use bullet_topology::{generate, BandwidthProfile, LossProfile, TopologyConfig};

use crate::spans::SpanLog;

/// The seed of the ledger of record.
pub const DEFAULT_SEED: u64 = 7;

/// The stream every workload carries (the paper's 600 Kbps).
const STREAM_RATE_BPS: f64 = 600_000.0;

/// Series are sampled every 5 simulated seconds, like the figure harness.
const SAMPLE_SECS: u64 = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MeshDefault,
    MeshPaper,
    TreeStream,
    MeshChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MeshDefault,
        Workload::MeshPaper,
        Workload::TreeStream,
        Workload::MeshChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshDefault => "mesh_default",
            Workload::MeshPaper => "mesh_paper",
            Workload::TreeStream => "tree_stream",
            Workload::MeshChurn => "mesh_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether Bullet (and so `bullet`, `content` and `ransub` code) runs.
    pub fn is_mesh(self) -> bool {
        self != Workload::TreeStream
    }

    /// Whether the topology is large enough for lazy ALT routing, where no
    /// per-source shortest-path tree may ever be built.
    pub fn is_paper_scale(self) -> bool {
        self != Workload::MeshDefault
    }
}

/// How large to make a workload. Every recorded number is `Full`; `Smoke`
/// keeps each workload's code paths at a size a debug-build test can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sizing {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreePlan {
    /// Degree-constrained random tree (Bullet's substrate).
    Random { max_children: usize, seed: u64 },
    /// The offline greedy bottleneck-bandwidth tree (an oracle).
    Bottleneck,
}

/// One generated world of a workload — topology, overlay tree, churn
/// script and simulator seed: all the program receives.
pub struct Inputs {
    pub workload: Workload,
    pub topology: TopologyConfig,
    pub tree: TreePlan,
    pub stream_start: SimTime,
    pub script: Option<ScenarioScript>,
    pub run: RunSpec,
    pub sim_seed: u64,
    /// Set-ups timed back to back as one batch, so that a batch lasts at
    /// least 0.2 s where a single set-up is far below the timer's noise.
    pub setup_batch: u64,
}

impl Inputs {
    /// The worlds of `workload` at `seed`, each generated from a world
    /// number of its own drawn from the seed.
    ///
    /// Bullet is chaotic in its inputs: from one world to the next the
    /// simulated metrics of a mesh workload move 10-25 % (interquartile
    /// range over median) and the event count with them, far more than any
    /// change to the code should. A workload is therefore several smaller
    /// worlds whose metrics are averaged, sized so that one pass over them
    /// takes 9-10 s; `tree_stream` hardly moves with its world and keeps
    /// one. See the sizing table in `perf/README.md`.
    pub fn generate(workload: Workload, seed: u64, sizing: Sizing) -> Vec<Inputs> {
        let worlds = match (sizing, workload) {
            (Sizing::Smoke, Workload::TreeStream) => 1,
            (Sizing::Smoke, _) => 2,
            (Sizing::Full, Workload::MeshDefault) => 7,
            (Sizing::Full, Workload::MeshPaper) => 7,
            (Sizing::Full, Workload::TreeStream) => 1,
            (Sizing::Full, Workload::MeshChurn) => 6,
        };
        let mut rng = SimRng::new(seed);
        (0..worlds)
            .map(|_| Inputs::world(workload, rng.next_u64(), sizing))
            .collect()
    }

    fn world(workload: Workload, world: u64, sizing: Sizing) -> Inputs {
        let full = sizing == Sizing::Full;
        let pick = |full_value: u64, smoke_value: u64| if full { full_value } else { smoke_value };
        let (participants, start_secs, duration_secs, setup_batch) = match workload {
            Workload::MeshDefault => (pick(60, 16), pick(20, 5), pick(100, 30), pick(128, 2)),
            Workload::MeshPaper => (pick(100, 40), 5, pick(40, 15), pick(2, 1)),
            Workload::TreeStream => (pick(200, 24), pick(10, 5), pick(110, 25), 1),
            Workload::MeshChurn => (pick(60, 24), pick(10, 5), pick(70, 40), pick(2, 1)),
        };
        let participants = participants as usize;
        let mut topology = match workload {
            Workload::MeshDefault => TopologyConfig::emulation(participants, world),
            _ => TopologyConfig::paper_scale(participants, world),
        };
        topology.bandwidth = BandwidthProfile::Medium;
        topology.loss = LossProfile::None;
        let tree = match workload {
            Workload::TreeStream => TreePlan::Bottleneck,
            _ => TreePlan::Random {
                max_children: 10,
                seed: world ^ 0x7EE,
            },
        };
        let script = (workload == Workload::MeshChurn)
            .then(|| churn_script(&topology, world, start_secs, duration_secs));
        Inputs {
            workload,
            topology,
            tree,
            stream_start: SimTime::from_secs(start_secs),
            script,
            run: RunSpec {
                label: workload.name().to_string(),
                source: 0,
                duration: SimDuration::from_secs(duration_secs),
                sample_interval: SimDuration::from_secs(SAMPLE_SECS),
                failure: None,
            },
            sim_seed: world,
            setup_batch,
        }
    }

    pub fn participants(&self) -> usize {
        self.topology.clients
    }

    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.run.duration
    }

    /// Bullet as the paper configures it, every optional layer off — except
    /// on `mesh_churn`, which turns them all on (`overload` implies the
    /// integrity, recovery and churn profiles).
    fn bullet_config(&self) -> BulletConfig {
        let config = BulletConfig {
            stream_rate_bps: STREAM_RATE_BPS,
            stream_start: self.stream_start,
            ..BulletConfig::default()
        };
        if self.workload == Workload::MeshChurn {
            config.overload()
        } else {
            config
        }
    }

    fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            stream_rate_bps: STREAM_RATE_BPS,
            stream_start: self.stream_start,
            transport: StreamTransport::Tfrc,
            ..StreamConfig::default()
        }
    }

    /// Receivers that are up from `since` until the run ends: not down from
    /// the start, and neither leaving nor joining after `since`. Only these
    /// can fail.
    pub fn up_since(&self, since: SimTime) -> Vec<bool> {
        let mut up = vec![true; self.participants()];
        if let Some(script) = &self.script {
            for &node in script.initially_down() {
                up[node] = false;
            }
            for event in script.sorted_events() {
                match event.action {
                    ScenarioAction::Crash { node } | ScenarioAction::GracefulLeave { node } => {
                        up[node] = false
                    }
                    ScenarioAction::Join { node } | ScenarioAction::Recover { node } => {
                        up[node] = event.at <= since
                    }
                    _ => {}
                }
            }
        }
        up
    }
}

/// The `mesh_churn` script: exponential session churn of every receiver,
/// merged with an outage of some receiver's upstream (leaf) router every
/// 5 s for 2 s. The source and its router are spared.
fn churn_script(
    topology: &TopologyConfig,
    world: u64,
    start_secs: u64,
    duration_secs: u64,
) -> ScenarioScript {
    let built = generate(topology);
    let n = built.participants();
    let upstream = |node: OverlayId| {
        let link = &built.spec.links[built.access_links[node]];
        if link.a == built.spec.attachments[node] {
            link.b
        } else {
            link.a
        }
    };
    let mut script = ScenarioScript::exponential_churn(&ChurnConfig {
        nodes: (1..n).collect(),
        start: SimTime::from_secs(start_secs),
        end: SimTime::from_secs_f64(duration_secs as f64 * 0.95),
        mean_session_secs: 150.0,
        mean_downtime_secs: 10.0,
        graceful_fraction: 0.25,
        seed: world ^ 0xC0_94,
    });
    let mut rng = SimRng::new(world ^ 0x5707);
    let mut at = 5.0;
    while at + 2.0 < duration_secs as f64 {
        let router = loop {
            let router = upstream(rng.range_usize(1, n));
            if router != upstream(0) {
                break router;
            }
        };
        script = script.merge(ScenarioScript::stub_outage(
            router,
            SimTime::from_secs_f64(at),
            2.0,
        ));
        at += 5.0;
    }
    script
}

/// What differs between the protocols the workloads run.
pub trait Protocol {
    type Agent: MeteredAgent + ScenarioAgent;

    /// Span name of agent construction; the layer is the agent's crate.
    const AGENTS_SPAN: &'static str;

    fn agent(&self, id: OverlayId, tree: &Tree) -> Self::Agent;

    /// Counts only this protocol's layers keep, summed over all nodes.
    fn node_counts(sim: &Sim<Self::Agent>) -> Option<NodeCounts>;
}

impl Protocol for BulletConfig {
    type Agent = BulletNode;

    const AGENTS_SPAN: &'static str = "bullet.agents_new";

    fn agent(&self, id: OverlayId, tree: &Tree) -> BulletNode {
        BulletNode::new(id, tree, self.clone())
    }

    fn node_counts(sim: &Sim<BulletNode>) -> Option<NodeCounts> {
        let mut c = NodeCounts::default();
        for node in sim.agents() {
            let m = &node.metrics;
            c.forwarded_packets += m.forwarded_packets;
            c.served_packets += m.served_packets;
            c.orphaned_packets += m.orphaned_packets;
            c.reattaches += m.reattaches;
            c.control_retries += m.control_retries;
            c.false_positive_evictions += m.false_positive_evictions;
            c.inbox_sheds += m.inbox_sheds;
            c.working_set_evictions += m.working_set_evictions;
            c.blocks_verified += m.blocks_verified;
            c.raw_bytes += m.delivery.raw_bytes;
            c.from_peers_bytes += m.delivery.from_peers_bytes;
            c.duplicate_packets += m.delivery.duplicate_packets;
            c.duplicate_from_parent += m.delivery.duplicate_from_parent;
        }
        Some(c)
    }
}

impl Protocol for StreamConfig {
    type Agent = StreamingNode;

    const AGENTS_SPAN: &'static str = "baselines.agents_new";

    fn agent(&self, id: OverlayId, tree: &Tree) -> StreamingNode {
        StreamingNode::new(id, tree, self.clone())
    }

    fn node_counts(_: &Sim<StreamingNode>) -> Option<NodeCounts> {
        None
    }
}

/// Sums of the public `BulletNode.metrics` field over all nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeCounts {
    pub forwarded_packets: u64,
    pub served_packets: u64,
    pub orphaned_packets: u64,
    pub reattaches: u64,
    pub control_retries: u64,
    pub false_positive_evictions: u64,
    pub inbox_sheds: u64,
    pub working_set_evictions: u64,
    pub blocks_verified: u64,
    pub raw_bytes: u64,
    pub from_peers_bytes: u64,
    pub duplicate_packets: u64,
    pub duplicate_from_parent: u64,
}

/// A simulation ready to run its first event.
pub struct SetUp<A: MeteredAgent> {
    pub sim: Sim<A>,
    /// Largest child count in the overlay tree.
    pub fanout: usize,
}

/// The routing set-up the figure harness would build, with the mode fixed
/// from the topology size instead of `BULLET_ROUTING`.
pub fn network_setup(spec: &NetworkSpec) -> NetworkSetup {
    NetworkSetup::with_routing(spec, RoutingMode::auto(spec.routers))
}

/// A per-run network view, with the repair mode fixed instead of
/// `BULLET_REPAIR`.
pub fn network_view(spec: &NetworkSpec, setup: &NetworkSetup) -> Network {
    let mut network = Network::with_setup(spec, setup);
    network.set_repair_mode(RepairMode::Incremental);
    network
}

/// Everything a user pays before the first event, one span per stage.
pub fn set_up<P: Protocol>(inputs: &Inputs, protocol: &P, log: &mut SpanLog) -> SetUp<P::Agent> {
    let topology = log.stage("topology.generate", || generate(&inputs.topology));
    let spec = &topology.spec;
    let setup = log.stage("netsim.network_setup", || network_setup(spec));
    let n = topology.participants();
    let tree = log.stage("overlay.tree_build", || match inputs.tree {
        TreePlan::Random { max_children, seed } => {
            random_tree(n, inputs.run.source, max_children, &mut SimRng::new(seed))
        }
        // The oracle routes on a view of its own, gone before the run's
        // view is made, as in the figure harness.
        TreePlan::Bottleneck => bottleneck_tree(
            &mut network_view(spec, &setup),
            n,
            inputs.run.source,
            &OmbtConfig::default(),
        ),
    });
    let network = log.stage("netsim.network_view", || network_view(spec, &setup));
    let agents: Vec<P::Agent> = log.stage(P::AGENTS_SPAN, || {
        (0..n).map(|id| protocol.agent(id, &tree)).collect()
    });
    let sim = log.stage("netsim.sim_new", || {
        Sim::with_network(network, agents, inputs.sim_seed)
    });
    SetUp {
        sim,
        fanout: tree.max_degree(),
    }
}

/// What one untraced repetition leaves behind once its series are reduced.
#[derive(Clone, Debug, PartialEq)]
pub struct RepOutput {
    pub fingerprint: Fingerprint,
    pub events: u64,
    pub useful_kbps: f64,
    pub delivered_frac: f64,
    pub dup_pct: f64,
    pub control_kbps: f64,
    pub link_stress_mean: f64,
    pub trees_built: u64,
    pub route_mutations: u64,
    pub reattaches: u64,
    /// Receiver sessions, and those that failed.
    pub attempted: u64,
    pub failed: u64,
}

/// What must repeat exactly. `trajectory` is shared with the traced pass
/// (event count, routing work, every node's useful bytes at the end);
/// `outputs` adds the bits of every simulated end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub trajectory: u64,
    pub outputs: u64,
}

impl Fingerprint {
    /// The fingerprint of a workload: its worlds' fingerprints, in order.
    pub fn of_all(worlds: impl Iterator<Item = Fingerprint> + Clone) -> Fingerprint {
        Fingerprint {
            trajectory: hash_words(worlds.clone().map(|f| f.trajectory)),
            outputs: hash_words(worlds.map(|f| f.outputs)),
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.trajectory, self.outputs)
    }
}

fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hasher = FxHasher::default();
    for word in words {
        hasher.write_u64(word);
    }
    hasher.finish()
}

fn trajectory_hash(events: u64, routing: &RoutingStats, useful_bytes: &[u64]) -> u64 {
    hash_words(
        [
            events,
            routing.route_queries,
            routing.batched_queries,
            routing.trees_built,
            routing.lazy_searches,
            routing.routers_settled,
        ]
        .into_iter()
        .chain(useful_bytes.iter().copied()),
    )
}

fn reduce(inputs: &Inputs, result: &RunResult) -> RepOutput {
    let s = &result.summary;
    let last = result
        .per_node_useful_bytes
        .last()
        .expect("a metered run samples at least once");
    let dup_pct = s.duplicate_fraction * 100.0;
    let trajectory = trajectory_hash(s.sim_events, &result.routing, last);
    let outputs = hash_words([
        trajectory,
        s.steady_useful_kbps.to_bits(),
        s.median_delivery_fraction.to_bits(),
        dup_pct.to_bits(),
        s.control_overhead_kbps.to_bits(),
    ]);

    // A receiver session fails if the receiver is up throughout the final
    // quarter of the run and gets no useful bytes during it.
    let quarter_start = inputs.run.duration.as_secs_f64() * 0.75;
    let from = result
        .times
        .iter()
        .rposition(|&t| t <= quarter_start)
        .unwrap_or(0);
    let before = &result.per_node_useful_bytes[from];
    let up = inputs.up_since(SimTime::from_secs_f64(result.times[from]));
    let receivers = (0..last.len()).filter(|&node| node != result.source);
    let failed = receivers
        .clone()
        .filter(|&node| up[node] && last[node] == before[node])
        .count() as u64;

    RepOutput {
        fingerprint: Fingerprint {
            trajectory,
            outputs,
        },
        events: s.sim_events,
        useful_kbps: s.steady_useful_kbps,
        delivered_frac: s.median_delivery_fraction,
        dup_pct,
        control_kbps: s.control_overhead_kbps,
        link_stress_mean: s.link_stress_mean,
        trees_built: result.routing.trees_built,
        route_mutations: s.route_mutations,
        reattaches: s.reattaches,
        attempted: receivers.count() as u64,
        failed,
    }
}

/// One timed repetition: a batch of set-ups, then the run.
pub struct Rep {
    /// The `experiments.setup` span of the batch; the stage spans are its
    /// children.
    pub setup_span: usize,
    /// Seconds per set-up (batch time over batch size).
    pub setup_s: f64,
    pub run_s: f64,
    pub output: RepOutput,
}

fn rep_with<P: Protocol>(inputs: &Inputs, protocol: &P, log: &mut SpanLog) -> Rep {
    let batch = inputs.setup_batch;
    let (span, ready) = log.record("experiments.setup", batch, |log| {
        // All but the last set-up are dropped as soon as they are built, so
        // the batch never holds two simulations and peak memory stays that
        // of one run; only the last one's stages are recorded as spans, so
        // the log stays small whatever the batch size.
        log.muted(|log| {
            for _ in 1..batch {
                drop(std::hint::black_box(set_up(inputs, protocol, log)));
            }
        });
        set_up(inputs, protocol, log)
    });
    let setup_s = log.span(span).secs_per_call();

    let off = TelemetryConfig::disabled();
    let started = Instant::now();
    let result = match &inputs.script {
        Some(script) => run_metered_dynamic_with(ready.sim, &inputs.run, script, &off),
        None => run_metered_with(ready.sim, &inputs.run, &off),
    };
    let run_s = started.elapsed().as_secs_f64();
    let output = reduce(inputs, std::hint::black_box(&result));
    Rep {
        setup_span: span,
        setup_s,
        run_s,
        output,
    }
}

/// What the traced pass reads back through public accessors.
pub struct Traced {
    pub trajectory: u64,
    /// Wall time of the traced event loop.
    pub wall_s: f64,
    /// Wall time inside route-affecting scenario mutations.
    pub repair_s: f64,
    pub counters: SimCounters,
    pub routing: RoutingStats,
    pub repair: RepairStats,
    pub profile: SelfProfile,
    pub trace_events: u64,
    pub trace_evicted: u64,
    pub journeys: Vec<BlockJourney>,
    pub nodes: Option<NodeCounts>,
    pub fanout: usize,
}

fn traced_with<P: Protocol>(
    inputs: &Inputs,
    protocol: &P,
    trace_capacity: u64,
    log: &mut SpanLog,
) -> Traced {
    let SetUp { mut sim, fanout } = log
        .record("experiments.traced_setup", 1, |log| {
            set_up(inputs, protocol, log)
        })
        .1;
    let spec = TraceSpec::parse(&format!("journey,proto,route,cap={trace_capacity}"))
        .expect("a well-formed trace spec");
    sim.install_recorder(&spec);
    sim.enable_profiling();
    let end = inputs.end();
    let every = inputs.run.sample_interval;
    // Read every node's counters at each sample instant, as the metered
    // run's sampler does, so the pass's wall time compares with `run_s`.
    let sample = |_: SimTime, sim: &Sim<P::Agent>| {
        for agent in sim.agents() {
            std::hint::black_box(agent.delivery());
        }
    };
    let (span, repair_s) = log.record("experiments.traced_run", 1, |_| match &inputs.script {
        Some(script) => {
            let mut driver = ScenarioDriver::new(script);
            driver.install(&mut sim);
            driver.run_sampled(&mut sim, end, every, sample);
            driver.repair_wall_secs
        }
        None => {
            sim.run_sampled(end, every, sample);
            0.0
        }
    });

    let recorder = sim.take_recorder().expect("the recorder was installed");
    let useful_bytes: Vec<u64> = sim
        .agents()
        .iter()
        .map(|a| a.delivery().useful_bytes)
        .collect();
    let routing = sim.network().routing_stats();
    let counters = sim.counters();
    Traced {
        trajectory: trajectory_hash(counters.events, &routing, &useful_bytes),
        wall_s: log.span(span).secs(),
        repair_s,
        counters,
        routing,
        repair: sim.network().repair_stats(),
        profile: sim.profile().expect("profiling was enabled"),
        trace_events: recorder.recorded(),
        trace_evicted: recorder.evicted(),
        journeys: block_journeys(recorder.events()),
        nodes: P::node_counts(&sim),
        fanout,
    }
}

/// Runs one timed, untraced repetition of `inputs`.
pub fn rep(inputs: &Inputs, log: &mut SpanLog) -> Rep {
    if inputs.workload.is_mesh() {
        rep_with(inputs, &inputs.bullet_config(), log)
    } else {
        rep_with(inputs, &inputs.stream_config(), log)
    }
}

/// Runs the traced pass: the same set-up and script with the flight
/// recorder (`journey,proto,route`) and self-profiling on, driven through
/// `Sim::run_sampled` / `ScenarioDriver::run_sampled` so the simulation is
/// still there to be read afterwards (`run_metered_with` consumes it).
pub fn traced(inputs: &Inputs, trace_capacity: u64, log: &mut SpanLog) -> Traced {
    if inputs.workload.is_mesh() {
        traced_with(inputs, &inputs.bullet_config(), trace_capacity, log)
    } else {
        traced_with(inputs, &inputs.stream_config(), trace_capacity, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("bullet64"), None);
    }

    #[test]
    fn the_same_seed_gives_the_same_fingerprints_and_another_seed_others() {
        let run = |seed| -> Vec<RepOutput> {
            Inputs::generate(Workload::MeshDefault, seed, Sizing::Smoke)
                .iter()
                .map(|world| rep(world, &mut SpanLog::new()).output)
                .collect()
        };
        let a = run(7);
        assert_eq!(a, run(7));
        assert!(a
            .iter()
            .all(|o| o.useful_kbps > 0.0 && o.delivered_frac > 0.0));
        assert_ne!(
            a[0].fingerprint, a[1].fingerprint,
            "worlds of a seed differ"
        );
        let b = run(8);
        assert!(a
            .iter()
            .all(|x| b.iter().all(|y| x.fingerprint != y.fingerprint)));
    }

    #[test]
    fn the_traced_pass_follows_the_same_trajectory() {
        for workload in [Workload::MeshChurn, Workload::TreeStream] {
            let inputs = &Inputs::generate(workload, DEFAULT_SEED, Sizing::Smoke)[0];
            let mut log = SpanLog::new();
            let rep = rep(inputs, &mut log);
            let traced = traced(inputs, rep.output.events, &mut log);
            assert_eq!(traced.trajectory, rep.output.fingerprint.trajectory);
            assert_eq!(traced.counters.events, rep.output.events);
            assert_eq!(traced.trace_evicted, 0);
            assert_eq!(traced.routing.trees_built, 0, "paper scale routes lazily");
            assert_eq!(traced.nodes.is_some(), workload.is_mesh());
        }
    }

    #[test]
    fn the_churn_script_spares_the_source_and_mutates_routes() {
        for seed in [DEFAULT_SEED, 8] {
            for inputs in Inputs::generate(Workload::MeshChurn, seed, Sizing::Full) {
                let script = inputs.script.as_ref().unwrap();
                let mut outages = 0;
                for event in script.sorted_events() {
                    match event.action {
                        ScenarioAction::Crash { node }
                        | ScenarioAction::GracefulLeave { node }
                        | ScenarioAction::Join { node } => assert_ne!(node, 0),
                        ScenarioAction::SetRouterUp { .. } => outages += 1,
                        ref other => panic!("unexpected action {other:?}"),
                    }
                }
                assert_eq!(outages, 26, "thirteen outages, each a down and an up");
                assert!(inputs.up_since(SimTime::ZERO)[0], "the source stays up");
            }
        }
    }

    #[test]
    fn only_receivers_up_through_the_final_quarter_can_fail() {
        let mut inputs =
            Inputs::generate(Workload::MeshChurn, DEFAULT_SEED, Sizing::Smoke).remove(0);
        let at = SimTime::from_secs;
        let mut script = ScenarioScript::new()
            .at(at(5), ScenarioAction::Crash { node: 1 })
            .at(at(20), ScenarioAction::Join { node: 1 })
            .at(at(5), ScenarioAction::Crash { node: 2 })
            .at(at(31), ScenarioAction::Join { node: 2 })
            .at(at(35), ScenarioAction::GracefulLeave { node: 3 });
        script.down_from_start(4);
        inputs.script = Some(script);
        let up = inputs.up_since(at(30));
        assert_eq!(up[..6], [true, true, false, false, false, true]);
    }
}
