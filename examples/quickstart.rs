//! Quickstart: build a topology, layer Bullet over a random tree, stream for
//! a minute, and print what every receiver achieved. It exits with a panic
//! unless every receiver's useful rate over the run is positive.
//!
//! Run with `cargo run --release --example quickstart`.

use bullet_suite::bullet::{BulletConfig, BulletNode};
use bullet_suite::experiments::{run_metered, RunSpec};
use bullet_suite::netsim::{Sim, SimDuration, SimRng, SimTime};
use bullet_suite::overlay::random_tree;
use bullet_suite::topology::{generate, BandwidthProfile, LossProfile, TopologyConfig};

fn main() {
    // 1. An Internet-like transit-stub topology with 20 participants whose
    //    access links follow the paper's "medium" bandwidth profile.
    let topology = generate(
        &TopologyConfig::small(20, 42)
            .with_bandwidth(BandwidthProfile::Medium)
            .with_loss(LossProfile::None),
    );
    println!(
        "topology: {} routers, {} links, {} participants",
        topology.spec.routers,
        topology.spec.links.len(),
        topology.participants()
    );

    // 2. A random overlay tree rooted at participant 0 (the stream source).
    let mut rng = SimRng::new(42);
    let tree = random_tree(topology.participants(), 0, 6, &mut rng);
    println!(
        "overlay tree: height {}, max degree {}",
        tree.height(),
        tree.max_degree()
    );

    // 3. One Bullet node per participant, streaming 600 Kbps from the root.
    let config = BulletConfig {
        stream_rate_bps: 600_000.0,
        stream_start: SimTime::from_secs(5),
        ..BulletConfig::default()
    };
    let agents: Vec<BulletNode> = (0..topology.participants())
        .map(|id| BulletNode::new(id, &tree, config.clone()))
        .collect();
    let sim = Sim::new(&topology.spec, agents, 42);

    // 4. Run for 90 simulated seconds, sampling bandwidth every 2 seconds.
    let result = run_metered(
        sim,
        &RunSpec::new(
            "Bullet quickstart",
            SimDuration::from_secs(90),
            SimDuration::from_secs(2),
        ),
    );

    println!("\naverage useful bandwidth over time (Kbps):");
    for (t, kbps) in result.times.iter().zip(&result.useful.kbps) {
        if (*t as u64).is_multiple_of(10) {
            println!("  t={t:>5.0}s  {kbps:>7.1}");
        }
    }
    println!(
        "\nsteady state: {:.0} Kbps useful per node",
        result.steady_state_kbps()
    );
    println!(
        "duplicates: {:.1}%   control overhead: {:.1} Kbps/node   median delivery: {:.0}%",
        result.summary.duplicate_fraction * 100.0,
        result.summary.control_overhead_kbps,
        result.summary.median_delivery_fraction * 100.0
    );

    // 5. Every receiver got useful data: its rate from the stream's start to
    //    the last sample is positive.
    let last = result
        .per_node_useful_bytes
        .last()
        .expect("the run sampled");
    let streaming_s =
        result.times.last().expect("the run sampled") - config.stream_start.as_secs_f64();
    let rates: Vec<(usize, f64)> = (last.iter().enumerate())
        .filter(|&(node, _)| node != result.source)
        .map(|(node, &bytes)| (node, bytes as f64 * 8.0 / streaming_s / 1_000.0))
        .collect();
    let (slowest, kbps) = (rates.iter().copied())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("the overlay has receivers");
    println!("slowest receiver: node {slowest} at {kbps:.0} Kbps useful");
    for (node, kbps) in rates {
        assert!(kbps > 0.0, "receiver {node} got no useful data");
    }
}
