//! Micro-benchmark of the routing strategies.
//!
//! Builds one transit-stub topology at the selected `BULLET_SCALE` and
//! measures, for each routing mode (eager per-source Dijkstra, lazy
//! bidirectional, lazy ALT):
//!
//! - **setup**: network construction time (includes landmark preprocessing
//!   for ALT — the only precomputation the lazy modes ever do);
//! - **first-contact latency**: time for the first cache-missing `route()`
//!   on a cold network (for the eager reference this includes building the
//!   source's full shortest-path tree);
//! - **paths/sec**: fresh (cache-missing) route computations per second
//!   over a deterministic set of distinct participant pairs.
//!
//! All modes return identical canonical paths, which the harness re-checks
//! here on a sample — the reason CI still runs this bench. The `routing_bench
//! {...}` JSON lines are for reading by eye; the numbers of record for
//! first-contact routing are the perf ledger's `netsim.route_cold_us`,
//! `netsim.routers_settled` and `netsim.lazy_searches` on `mesh_paper`
//! (`perf/README.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

use bullet_bench::announce;
use bullet_experiments::Scale;
use bullet_netsim::{Network, NetworkSpec, RoutingMode, SimRng};
use bullet_topology::{generate, TopologyConfig};

/// Distinct (source, destination) participant pairs queried per mode.
const PAIRS: usize = 400;

fn topology(scale: Scale) -> (NetworkSpec, &'static str) {
    let clients = scale.participants().min(200);
    match scale {
        Scale::Small => (generate(&TopologyConfig::small(clients, 11)).spec, "small"),
        Scale::Default => (
            generate(&TopologyConfig::emulation(clients, 11)).spec,
            "emulation",
        ),
        Scale::Paper => (
            generate(&TopologyConfig::paper_scale(clients, 11)).spec,
            "paper",
        ),
    }
}

fn distinct_pairs(participants: usize, count: usize) -> Vec<(usize, usize)> {
    let mut rng = SimRng::new(0x9A175);
    let mut pairs = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    while pairs.len() < count && seen.len() < participants * (participants - 1) {
        let a = (rng.next_u64() % participants as u64) as usize;
        let b = (rng.next_u64() % participants as u64) as usize;
        if a != b && seen.insert((a, b)) {
            pairs.push((a, b));
        }
    }
    pairs
}

struct ModeReport {
    name: &'static str,
    setup_ms: f64,
    first_contact_us: f64,
    paths_per_sec: f64,
    trees_built: u64,
    routers_settled: u64,
}

fn measure_mode(
    spec: &NetworkSpec,
    mode: RoutingMode,
    name: &'static str,
    pairs: &[(usize, usize)],
) -> ModeReport {
    let setup_start = Instant::now();
    let mut net = Network::with_routing(spec, mode);
    let setup_ms = setup_start.elapsed().as_secs_f64() * 1e3;

    let (first_a, first_b) = pairs[0];
    let first_start = Instant::now();
    let first = net.route(first_a, first_b);
    let first_contact_us = first_start.elapsed().as_secs_f64() * 1e6;
    assert!(first.is_some(), "first pair must be routable");

    let batch_start = Instant::now();
    for &(a, b) in &pairs[1..] {
        net.route(a, b);
    }
    let batch_secs = batch_start.elapsed().as_secs_f64();
    let stats = net.routing_stats();
    ModeReport {
        name,
        setup_ms,
        first_contact_us,
        paths_per_sec: (pairs.len() - 1) as f64 / batch_secs.max(1e-9),
        trees_built: stats.trees_built,
        routers_settled: stats.routers_settled,
    }
}

fn check_equivalence(spec: &NetworkSpec, pairs: &[(usize, usize)]) {
    let mut eager = Network::with_routing(spec, RoutingMode::EagerPerSource);
    let mut bidi = Network::with_routing(spec, RoutingMode::LazyBidirectional);
    let mut alt = Network::with_routing(spec, RoutingMode::LazyAlt { landmarks: 8 });
    for &(a, b) in pairs.iter().take(50) {
        let reference = eager.path(a, b);
        assert_eq!(reference, bidi.path(a, b), "bidirectional diverged");
        assert_eq!(reference, alt.path(a, b), "ALT diverged");
    }
}

fn report(scale: Scale) -> (NetworkSpec, Vec<(usize, usize)>) {
    let (spec, class) = topology(scale);
    let pairs = distinct_pairs(spec.participants(), PAIRS);
    check_equivalence(&spec, &pairs);
    let modes = [
        (RoutingMode::EagerPerSource, "eager"),
        (RoutingMode::LazyBidirectional, "bidir"),
        (RoutingMode::LazyAlt { landmarks: 8 }, "alt"),
    ];
    for (mode, name) in modes {
        let r = measure_mode(&spec, mode, name, &pairs);
        println!(
            "routing_bench {{\"topology\": \"{class}\", \"routers\": {}, \"pairs\": {}, \
             \"mode\": \"{}\", \"setup_ms\": {:.3}, \"first_contact_us\": {:.1}, \
             \"paths_per_sec\": {:.0}, \"trees_built\": {}, \"routers_settled\": {}}}",
            spec.routers,
            pairs.len(),
            r.name,
            r.setup_ms,
            r.first_contact_us,
            r.paths_per_sec,
            r.trees_built,
            r.routers_settled,
        );
    }
    (spec, pairs)
}

fn bench_routing(c: &mut Criterion) {
    let scale = announce("micro_routing — per-pair route computation");
    let (spec, pairs) = report(scale);
    let mut group = c.benchmark_group("routing");
    group.bench_function("alt_fresh_pairs", |b| {
        b.iter(|| {
            let mut net = Network::with_routing(&spec, RoutingMode::LazyAlt { landmarks: 8 });
            for &(a, b) in &pairs {
                net.route(a, b);
            }
            net.routing_stats().routers_settled
        })
    });
    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
