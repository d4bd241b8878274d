//! Telemetry overhead benchmark: events/s with the observability layer
//! off, counters-only (metrics hub + self-profiling), and fully tracing.
//!
//! Runs the bullet64-shaped star workload through `run_metered_with`
//! three ways and prints each mode's event rate and its overhead over
//! telemetry-off. The bench is its own gate: it panics (and so exits
//! non-zero) unless the counters-only overhead (hub sampling +
//! self-profiling, no flight recorder) stays within
//! [`COUNTERS_BUDGET_PCT`] of the telemetry-off event rate. The workload is
//! fixed-size on purpose — overhead ratios, not absolute throughput, are
//! the contract. The ledger reports the full-trace cost on its own
//! workloads as `telemetry.trace_overhead_pct`.

use std::time::Instant;

use bullet_bench::announce;
use bullet_core::{BulletConfig, BulletNode};
use bullet_experiments::{run_metered_with, RunSpec, TelemetryConfig};
use bullet_netsim::telemetry::TraceSpec;
use bullet_netsim::{LinkSpec, NetworkSpec, Sim, SimDuration, SimRng, SimTime};
use bullet_overlay::random_tree;

const NODES: usize = 64;
const SEED: u64 = 2003;
const RUN_SECS: u64 = 20;
const ITERATIONS: usize = 3;
/// Most the counters-only mode may cost over telemetry-off, in percent.
const COUNTERS_BUDGET_PCT: f64 = 10.0;

fn build_sim() -> Sim<BulletNode> {
    let mut spec = NetworkSpec::new(NODES + 1);
    for i in 0..NODES {
        spec.add_link(LinkSpec::new(
            NODES,
            i,
            2_000_000.0,
            SimDuration::from_millis(10),
        ));
        spec.attach(i);
    }
    let mut rng = SimRng::new(SEED);
    let tree = random_tree(NODES, 0, 4, &mut rng);
    let config = BulletConfig {
        stream_rate_bps: 500_000.0,
        stream_start: SimTime::from_secs(2),
        ..BulletConfig::default()
    };
    let agents: Vec<BulletNode> = (0..NODES)
        .map(|i| BulletNode::new(i, &tree, config.clone()))
        .collect();
    Sim::new(&spec, agents, SEED)
}

fn run_spec() -> RunSpec {
    RunSpec::new(
        "telemetry_overhead",
        SimDuration::from_secs(RUN_SECS),
        SimDuration::from_secs(2),
    )
}

/// Best-of-N events/s for one telemetry configuration (the minimum wall
/// time is the least-noisy estimator on a shared machine).
fn measure(config: &TelemetryConfig) -> (u64, f64) {
    let spec = run_spec();
    // Warmup run, untimed.
    let _ = run_metered_with(build_sim(), &spec, config);
    let mut events = 0u64;
    let mut best_secs = f64::INFINITY;
    for _ in 0..ITERATIONS {
        let sim = build_sim();
        let start = Instant::now();
        let result = run_metered_with(sim, &spec, config);
        let secs = start.elapsed().as_secs_f64();
        events = result.summary.sim.events;
        if secs < best_secs {
            best_secs = secs;
        }
    }
    (events, events as f64 / best_secs)
}

fn main() {
    announce("Telemetry overhead — events/s off vs counters-only vs full trace");
    println!(
        "# fixed workload: {NODES}-node star, 500 Kbps stream, {RUN_SECS} s sim, \
         best of {ITERATIONS} runs"
    );

    let modes: [(&str, TelemetryConfig); 3] = [
        ("off", TelemetryConfig::disabled()),
        (
            "counters",
            TelemetryConfig {
                trace: None,
                profile: true,
            },
        ),
        (
            "trace",
            TelemetryConfig {
                trace: Some(TraceSpec::parse("all,cap=1048576").expect("valid spec")),
                profile: true,
            },
        ),
    ];

    let mut rates = [0.0f64; 3];
    for (i, (name, config)) in modes.iter().enumerate() {
        let (events, rate) = measure(config);
        rates[i] = rate;
        println!(
            "{name:>8}: {events} events, {rate:.0} events/s, {:+.2}% over off",
            (rates[0] / rate - 1.0) * 100.0
        );
    }

    let counters_overhead_pct = (rates[0] / rates[1] - 1.0) * 100.0;
    assert!(
        counters_overhead_pct <= COUNTERS_BUDGET_PCT,
        "counters-only telemetry costs {counters_overhead_pct:.2}% over off \
         (budget {COUNTERS_BUDGET_PCT}%)"
    );
}
