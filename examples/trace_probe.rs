//! Runs a small instrumented Bullet workload and exports its telemetry:
//! the flight-recorder trace, the metrics-hub series, the per-block
//! journey spans, and the simulator self-profile, each as JSONL/JSON
//! files plus one `trace_probe {json}` summary line on stdout.
//!
//! This is the telemetry subsystem's end-to-end smoke: CI runs it and
//! validates the emitted JSONL with `scripts/check_telemetry_jsonl.py`.
//! The probe itself panics unless at least one block journey crossed a
//! mesh-recovery edge and the self-profile saw a non-empty event queue, so
//! a silent regression cannot pass.
//!
//! Run with `cargo run --release --example trace_probe [out_dir]`
//! (default `target/trace_probe`). `BULLET_TRACE` overrides the trace
//! spec; the default records every category with a ring large enough
//! that nothing is evicted.

use std::fs;
use std::path::PathBuf;

use bullet_suite::bullet::{BulletConfig, BulletNode};
use bullet_suite::experiments::{run_metered_with, RunSpec, TelemetryConfig};
use bullet_suite::netsim::telemetry::TraceSpec;
use bullet_suite::netsim::{LinkSpec, NetworkSpec, Sim, SimDuration, SimRng, SimTime};
use bullet_suite::overlay::random_tree;

const NODES: usize = 48;
const SEED: u64 = 47;

fn count_lines(s: &str) -> usize {
    s.lines().filter(|l| !l.trim().is_empty()).count()
}

/// Journeys whose `mesh_recovery_hops` field is non-zero — blocks at
/// least one node first received across the mesh rather than down its
/// tree edge.
fn mesh_recovery_journeys(journeys_jsonl: &str) -> usize {
    journeys_jsonl
        .lines()
        .filter(|line| {
            line.split("\"mesh_recovery_hops\":")
                .nth(1)
                .and_then(|rest| {
                    rest.split(|c: char| !c.is_ascii_digit())
                        .next()?
                        .parse::<u64>()
                        .ok()
                })
                .is_some_and(|hops| hops > 0)
        })
        .count()
}

fn main() {
    let out_dir: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/trace_probe".into())
        .into();

    // Star topology, Bullet over a degree-4 random tree — the bullet64
    // golden workload's shape, small enough to trace in full.
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
    let sim = Sim::new(&spec, agents, SEED);

    // A malformed spec panics with the parse error: a silently ignored typo
    // would masquerade as "no trace output".
    let trace = match std::env::var("BULLET_TRACE") {
        Ok(spec) if !spec.trim().is_empty() => {
            TraceSpec::parse(&spec).unwrap_or_else(|e| panic!("BULLET_TRACE: {e}"))
        }
        _ => TraceSpec::parse("all,cap=1048576").expect("valid default spec"),
    };
    let telemetry_config = TelemetryConfig {
        trace: Some(trace),
        profile: true,
    };
    let result = run_metered_with(
        sim,
        &RunSpec::new(
            "trace_probe",
            SimDuration::from_secs(20),
            SimDuration::from_secs(2),
        ),
        &telemetry_config,
    );

    let telemetry = result.telemetry.expect("telemetry was configured on");
    let profile = telemetry.profile.expect("profiling was configured on");

    fs::create_dir_all(&out_dir).expect("create output dir");
    fs::write(out_dir.join("trace.jsonl"), &telemetry.trace_jsonl).expect("write trace");
    fs::write(out_dir.join("series.jsonl"), &telemetry.series_jsonl).expect("write series");
    fs::write(out_dir.join("journeys.jsonl"), &telemetry.journeys_jsonl).expect("write journeys");
    fs::write(out_dir.join("profile.json"), profile.to_json()).expect("write profile");

    let journeys = count_lines(&telemetry.journeys_jsonl);
    let mesh_journeys = mesh_recovery_journeys(&telemetry.journeys_jsonl);
    assert!(
        mesh_journeys >= 1,
        "no block journey crossed a mesh-recovery edge — the trace missed \
         Bullet's defining behaviour (journeys={journeys})"
    );
    assert!(
        profile.peak_queue_depth > 0,
        "the self-profile never saw a queued event"
    );

    println!(
        "trace_probe {{\"out_dir\":{:?},\"sim_events\":{},\"trace_lines\":{},\"series_lines\":{},\
         \"journeys\":{},\"mesh_recovery_journeys\":{},\"steady_useful_kbps\":{},\"profile\":{}}}",
        out_dir.display().to_string(),
        result.summary.sim.events,
        count_lines(&telemetry.trace_jsonl),
        count_lines(&telemetry.series_jsonl),
        journeys,
        mesh_journeys,
        result.summary.steady_useful_kbps,
        profile.to_json(),
    );
}
