//! Failure resilience: what happens to receivers when an interior node dies.
//!
//! Reproduces the spirit of the paper's §4.6 at example scale: the root child
//! with the most descendants is killed mid-stream, once with RanSub failure
//! detection disabled (peer sets frozen) and once with it enabled. In both
//! cases the mesh keeps delivering data to the failed node's descendants,
//! unlike a plain tree where they would receive nothing until the tree
//! repairs itself.
//!
//! Run with `cargo run --release --example failure_resilience`.

use bullet_suite::bullet::BulletConfig;
use bullet_suite::dynamics::ScenarioScript;
use bullet_suite::experiments::{bullet_run_on, RunResult, RunSpec};
use bullet_suite::netsim::{Network, SimDuration, SimRng, SimTime};
use bullet_suite::overlay::{random_tree, Tree};
use bullet_suite::topology::{generate, BandwidthProfile, BuiltTopology, TopologyConfig};

const DURATION_SECS: u64 = 180;
const FAILURE_SECS: u64 = 100;

fn run(topology: &BuiltTopology, tree: &Tree, victim: usize, failure_detection: bool) -> RunResult {
    let config = BulletConfig {
        stream_rate_bps: 600_000.0,
        stream_start: SimTime::from_secs(10),
        ransub_failure_detection: failure_detection,
        ..BulletConfig::default()
    };
    let label = if failure_detection {
        "RanSub recovery enabled"
    } else {
        "no RanSub recovery"
    };
    bullet_run_on(
        Network::new(&topology.spec),
        tree,
        &config,
        &RunSpec::new(
            label,
            SimDuration::from_secs(DURATION_SECS),
            SimDuration::from_secs(5),
        ),
        &ScenarioScript::single_crash(SimTime::from_secs(FAILURE_SECS), victim),
        23,
    )
}

fn mean_between(result: &RunResult, from: f64, to: f64) -> f64 {
    let samples: Vec<f64> = result
        .times
        .iter()
        .zip(&result.useful.kbps)
        .filter(|(t, _)| **t >= from && **t <= to)
        .map(|(_, k)| *k)
        .collect();
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn main() {
    let topology =
        generate(&TopologyConfig::small(30, 23).with_bandwidth(BandwidthProfile::Medium));
    let mut rng = SimRng::new(23);
    let tree = random_tree(topology.participants(), 0, 5, &mut rng);
    let victim = tree
        .children(0)
        .iter()
        .copied()
        .max_by_key(|&c| tree.subtree_size(c))
        .expect("root has children");
    println!(
        "failing node {victim} at t={FAILURE_SECS}s; it has {} descendants out of {} participants",
        tree.subtree_size(victim) - 1,
        topology.participants()
    );

    for failure_detection in [false, true] {
        let result = run(&topology, &tree, victim, failure_detection);
        let before = mean_between(&result, 40.0, FAILURE_SECS as f64);
        let after = mean_between(&result, FAILURE_SECS as f64 + 15.0, DURATION_SECS as f64);
        println!(
            "\n{}:\n  mean useful bandwidth before failure: {before:>6.0} Kbps\n  mean useful bandwidth after failure:  {after:>6.0} Kbps ({:.0}% retained)",
            result.label,
            after / before.max(1.0) * 100.0
        );
    }
    println!(
        "\nIn a plain streaming tree the {}-node subtree of the failed child would receive 0 Kbps after the failure.",
        tree.subtree_size(victim) - 1
    );
}
