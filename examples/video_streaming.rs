//! Real-time multimedia streaming over Bullet with layered (MDC-style)
//! quality.
//!
//! The paper's second motivating workload is real-time streaming to
//! heterogeneous receivers: with Multiple Description Coding, whatever subset
//! of the stream a receiver manages to pull still yields a usable (lower
//! quality) video. This example streams 600 Kbps split into four 150 Kbps
//! descriptions over a *low*-bandwidth topology, compares Bullet against
//! plain tree streaming on the same tree, and reports how many descriptions
//! each receiver can render.
//!
//! Run with `cargo run --release --example video_streaming`.

use bullet_suite::baselines::{StreamConfig, StreamTransport, StreamingNode};
use bullet_suite::bullet::{BulletConfig, BulletNode};
use bullet_suite::experiments::{run_metered, Cdf, RunResult, RunSpec};
use bullet_suite::netsim::{Sim, SimDuration, SimRng, SimTime};
use bullet_suite::overlay::{random_tree, Tree};
use bullet_suite::topology::{generate, BandwidthProfile, BuiltTopology, TopologyConfig};

const DESCRIPTION_KBPS: f64 = 150.0;
const DESCRIPTIONS: u32 = 4;

fn spec(label: &str) -> RunSpec {
    RunSpec::new(
        label,
        SimDuration::from_secs(150),
        SimDuration::from_secs(5),
    )
}

fn run_bullet(topology: &BuiltTopology, tree: &Tree) -> RunResult {
    let config = BulletConfig {
        stream_rate_bps: DESCRIPTION_KBPS * DESCRIPTIONS as f64 * 1_000.0,
        stream_start: SimTime::from_secs(5),
        ..BulletConfig::default()
    };
    let agents: Vec<BulletNode> = (0..topology.participants())
        .map(|id| BulletNode::new(id, tree, config.clone()))
        .collect();
    run_metered(Sim::new(&topology.spec, agents, 11), &spec("Bullet"))
}

fn run_tree(topology: &BuiltTopology, tree: &Tree) -> RunResult {
    let config = StreamConfig {
        stream_rate_bps: DESCRIPTION_KBPS * DESCRIPTIONS as f64 * 1_000.0,
        stream_start: SimTime::from_secs(5),
        transport: StreamTransport::Tfrc,
        ..StreamConfig::default()
    };
    let agents: Vec<StreamingNode> = (0..topology.participants())
        .map(|id| StreamingNode::new(id, tree, config.clone()))
        .collect();
    run_metered(
        Sim::new(&topology.spec, agents, 11),
        &spec("Tree streaming"),
    )
}

fn describe(label: &str, result: &RunResult) {
    let at = result.times.last().copied().unwrap_or(0.0) * 0.9;
    let cdf: Cdf = result.instantaneous_cdf(at);
    let layers = |kbps: f64| (kbps / DESCRIPTION_KBPS).floor().min(DESCRIPTIONS as f64);
    println!("\n{label}:");
    println!(
        "  steady state useful bandwidth: {:.0} Kbps per node",
        result.steady_state_kbps()
    );
    println!(
        "  per-node instantaneous bandwidth at t={:.0}s: p10 {:.0}, median {:.0}, p90 {:.0} Kbps",
        at,
        cdf.quantile(0.1),
        cdf.quantile(0.5),
        cdf.quantile(0.9)
    );
    println!(
        "  renderable descriptions: worst node {:.0}, median node {:.0}, best node {:.0} (of {DESCRIPTIONS})",
        layers(cdf.quantile(0.0)),
        layers(cdf.quantile(0.5)),
        layers(cdf.quantile(1.0))
    );
    let starved = cdf
        .values
        .iter()
        .filter(|&&kbps| kbps < DESCRIPTION_KBPS)
        .count();
    println!(
        "  receivers below one description ({} Kbps): {starved} of {}",
        DESCRIPTION_KBPS,
        cdf.values.len()
    );
}

fn main() {
    let topology = generate(&TopologyConfig::small(25, 11).with_bandwidth(BandwidthProfile::Low));
    let mut rng = SimRng::new(11);
    let tree = random_tree(topology.participants(), 0, 6, &mut rng);
    println!(
        "streaming {} descriptions x {} Kbps to {} receivers over a low-bandwidth topology",
        DESCRIPTIONS,
        DESCRIPTION_KBPS,
        topology.participants() - 1
    );

    let bullet = run_bullet(&topology, &tree);
    let tree_run = run_tree(&topology, &tree);
    describe("Bullet (mesh over the random tree)", &bullet);
    describe("TFRC streaming over the same tree", &tree_run);

    let gain = bullet.steady_state_kbps() / tree_run.steady_state_kbps().max(1.0);
    println!("\nBullet delivers {gain:.1}x the tree's bandwidth on this topology");
}
