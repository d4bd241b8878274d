//! The golden workloads: one table, one runner, one render.
//!
//! Every row streams Bullet (500 Kbps from t=2s) over a degree-4 random
//! tree and differs only in what the table says: the topology, the seed,
//! the run length, the configuration profile, the scenario script, and
//! which layer metrics its node table shows between the delivery and
//! traffic columns. A run renders as text — a delivery block, one line per
//! node under min/p10/p50/p90/max and sum rows, and a work block — and
//! [`assert_golden`] holds the render to its committed file under
//! `tests/goldens/`. Shared (via `#[path]` inclusion) by
//! `tests/determinism.rs`, which pins every row, and by `tests/parallel.rs`,
//! which re-runs the rows on worker threads.

// Each includer uses its own subset of the rows.
#![allow(dead_code)]

use std::fmt::Write;
use std::fs;
use std::iter::once;
use std::path::Path;

use bullet_suite::bullet::config::OverloadConfig;
use bullet_suite::bullet::{BulletConfig, BulletMetrics, BulletNode};
use bullet_suite::dynamics::{ScenarioDriver, ScenarioScript, ScenarioStats};
use bullet_suite::netsim::telemetry::{
    block_journeys, journeys_to_jsonl, DeliveryCounters, SelfProfile, TraceSpec,
};
use bullet_suite::netsim::{
    LinkSpec, NetworkSpec, NodeTraffic, RepairStats, RoutingStats, Sim, SimCounters, SimDuration,
    SimRng, SimTime,
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
    /// The layer metrics the node table shows, in column order.
    layer: &'static [Column],
}

/// A named node-table column read off one node's [`BulletMetrics`].
type Column = (&'static str, fn(&BulletMetrics) -> u64);

/// `columns![a, b]`: the `BulletMetrics` fields `a` and `b` as columns.
macro_rules! columns {
    ($($field:ident),*) => {
        &[$((stringify!($field), |m: &BulletMetrics| m.$field)),*]
    };
}

/// `fields!("p.", v => T { a, b } skip { c })`: `v`'s fields `a` and `b`
/// as `("p.a", a)` pairs, `c` left to the caller. Every field is named, so
/// a field added to `T` fails to compile here until it is rendered.
macro_rules! fields {
    ($prefix:literal, $value:expr => $ty:ident { $($field:ident),* }
     $(skip { $($skip:ident),* })?) => {{
        let $ty { $($field,)* $($($skip: _,)*)? } = $value;
        [$((concat!($prefix, stringify!($field)), $field)),*]
    }};
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
    layer: &[],
};

/// Every dynamics channel inside the 20-second window: node 3 crashes and
/// rejoins, node 5 leaves gracefully (its children go to its parent), node
/// 1's access link halves in capacity and recovers, node 7's stub router
/// goes down and up (route-invalidating), and the last quarter of the
/// overlay joins as a flash crowd at 8..12 s.
pub const CHURN64: Row = Row {
    name: "churn64",
    topology: star64,
    seed: 2003,
    run_secs: 20,
    config: BulletConfig::churn,
    script: Some(|seed| {
        script(&format!(
            "6 crash 3; 10 join 3; 9 leave 5
             7 link-bw 1 1000000; 13 link-bw 1 2000000
             11 router-down 7; 14 router-up 7
             8 joinstorm 48 16 4 {}",
            seed ^ 0xF1A5
        ))
    }),
    layer: &[],
};

/// The §4.6 recovery subsystem (2-second RanSub epochs so detection fits
/// the window) under every failure channel at once, the fault plans drawn
/// off the deterministic sim RNG: from t=3s node 5 drops 30% and duplicates
/// 10% of its incoming control messages and node 9 delays half of its by
/// 20 ms; node 3 crashes for good at 6 s, orphaning its subtree; nodes
/// 33-47 are cut off for three epochs from 8 s; node 11 crashes at 16 s.
pub const FAULTS64: Row = Row {
    name: "faults64",
    topology: star64,
    seed: 2003,
    run_secs: 25,
    config: |base| short_epochs(base).recovery(),
    script: Some(|_| {
        script(
            "3 fault 5 0.3 0.1 0 0; 3 fault 9 0 0 0.5 0.02; 6 crash 3
             8 partition 33,34,35,36,37,38,39,40,41,42,43,44,45,46,47; 14 heal
             16 crash 11",
        )
    }),
    layer: columns![
        orphan_detections,
        reattaches,
        control_retries,
        false_positive_evictions
    ],
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
    layer: columns![
        orphan_detections,
        reattaches,
        control_retries,
        false_positive_evictions,
        blocks_verified,
        corrupt_blocks_rejected,
        corrupt_blocks_accepted,
        health_penalties,
        quarantines
    ],
};

/// The overload layer through six slow receivers (~10% of the overlay) that
/// understate their intake fivefold from t=3s and a 16-node join storm
/// ramped over 5 s from t=5s. The knobs are tightened well below their
/// defaults so every mechanism fires at this scale: the inbox budget forces
/// sheds and join deferrals during the storm, and the working-set budget
/// forces owed-floor evictions. It is the one row whose liveness detector
/// evicts senders that speak again, so `false_positive_evictions` shows here
/// with the recovery columns.
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
    script: Some(|seed| {
        script(&format!(
            "3 slow_node 7 0.2; 3 slow_node 14 0.2; 3 slow_node 21 0.2
             3 slow_node 28 0.2; 3 slow_node 35 0.2; 3 slow_node 42 0.2
             5 joinstorm 48 16 5 {}",
            seed ^ 0x0B10
        ))
    }),
    layer: columns![
        orphan_detections,
        reattaches,
        control_retries,
        false_positive_evictions,
        health_penalties,
        quarantines,
        inbox_sheds,
        joins_deferred,
        joins_admitted_after_defer,
        peak_inbox_depth,
        working_set_evictions,
        slow_demotions
    ],
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
    layer: &[],
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

/// A script in the text grammar of `ScenarioScript::parse`.
fn script(text: &str) -> ScenarioScript {
    ScenarioScript::parse(text).expect("a valid scenario script")
}

fn run(row: &Row, traced: bool) -> (String, Option<Traced>) {
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

    let render = render_run(row, &sim, scenario);
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
    (render, telemetry)
}

/// One line per node, in node order: its five delivery counters, the row's
/// layer columns, its four traffic counters and its bytes from the parent.
fn node_table(row: &Row, sim: &Sim<BulletNode>) -> Vec<Vec<(&'static str, u64)>> {
    (0..sim.network().participants())
        .map(|node| {
            let m = &sim.agent(node).metrics;
            // Left out: from-peer bytes (raw less from-parent), duplicates
            // from the parent, the timely share of the useful bytes, and
            // the source's packet count.
            let delivery = fields!("", m.delivery => DeliveryCounters {
                useful_packets, useful_bytes, raw_bytes, duplicate_packets, total_packets,
                from_parent_bytes
            } skip { from_peers_bytes, duplicate_from_parent, fresh_bytes, packets_generated });
            let traffic = fields!("", sim.traffic(node) => NodeTraffic {
                data_bytes_in, control_bytes_in, data_bytes_out, control_bytes_out
            });
            let layer = row.layer.iter().map(|&(name, read)| (name, read(m)));
            let (core, from_parent) = delivery.split_at(5);
            core.iter()
                .copied()
                .chain(layer)
                .chain(traffic)
                .chain(from_parent.iter().copied())
                .collect()
        })
        .collect()
}

/// Appends the node table under min/p10/p50/p90/max rows (nearest rank
/// below, over every node) and a sum row, each column right-aligned.
fn write_table(out: &mut String, table: &[Vec<(&'static str, u64)>]) {
    let mut columns: Vec<Vec<u64>> = (0..table[0].len())
        .map(|c| table.iter().map(|line| line[c].1).collect())
        .collect();
    columns.iter_mut().for_each(|column| column.sort_unstable());
    let last = table.len() - 1;
    let ranks = [
        ("min", 0),
        ("p10", last / 10),
        ("p50", last / 2),
        ("p90", last * 9 / 10),
        ("max", last),
    ];
    let mut rows: Vec<(String, Vec<u64>)> = ranks
        .map(|(label, rank)| (label.into(), columns.iter().map(|c| c[rank]).collect()))
        .into();
    rows.push((
        "sum".into(),
        columns.iter().map(|c| c.iter().sum()).collect(),
    ));
    rows.extend(
        table
            .iter()
            .enumerate()
            .map(|(node, line)| (node.to_string(), line.iter().map(|&(_, v)| v).collect())),
    );
    let header = once("node")
        .chain(table[0].iter().map(|&(name, _)| name))
        .map(String::from);
    let mut lines = vec![header.collect::<Vec<_>>()];
    lines.extend(rows.into_iter().map(|(label, values)| {
        once(label)
            .chain(values.iter().map(u64::to_string))
            .collect()
    }));
    let widths: Vec<usize> = (0..lines[0].len())
        .map(|c| lines.iter().map(|cells| cells[c].len()).max().unwrap_or(0))
        .collect();
    out.push_str("\n## nodes (quantiles are nearest rank below, over every node)\n");
    for cells in &lines {
        let aligned: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(cell, w)| format!("{cell:>w$}"))
            .collect();
        writeln!(out, "{}", aligned.join(" ")).unwrap();
    }
}

/// A run's delivery block, its node table and its work block: the text a
/// row is pinned to.
fn render_run(row: &Row, sim: &Sim<BulletNode>, scenario: ScenarioStats) -> String {
    let network = sim.network();
    let (counters, routing, repair) = (
        sim.counters(),
        network.routing_stats(),
        network.repair_stats(),
    );
    let delivery = fields!("", counters => SimCounters {
        delivered, dropped_in_network, dropped_dest_failed, dropped_src_failed,
        dropped_partitioned, dropped_faulted, duplicated_faulted, delayed_faulted,
        corrupted_adversary, stalled_adversary, dropped_overload
    } skip { events, timers_fired })
    .into_iter()
    .chain([("bytes_sent", network.total_bytes_sent())])
    .chain(fields!("scenario.", scenario => ScenarioStats {
        crashes, recoveries, leaves, joins, link_mutations, router_mutations, partitions, heals,
        faults, adversaries, slow_nodes
    }));
    let work = fields!("routing.", routing => RoutingStats {
        route_queries, batched_queries, trees_built, lazy_searches, routers_settled
    } skip { mode, landmarks })
    .into_iter()
    .chain([("routing.landmarks", routing.landmarks as u64)])
    .chain(fields!("repair.", repair => RepairStats {
        route_mutations, routes_invalidated, routes_kept, filter_tables, memo_cells_cleared,
        unreachable_cleared, landmark_checks, landmark_repairs, landmark_nodes_lowered
    }));
    let mut out = format!("# {}\n\n## delivery\n", row.name);
    let write = |out: &mut String, (name, value): (&str, u64)| writeln!(out, "{name:<30} {value}");
    delivery.for_each(|pair| write(&mut out, pair).unwrap());
    write_table(&mut out, &node_table(row, sim));
    out += "\n## work\n";
    write(&mut out, ("events", counters.events)).unwrap();
    write(&mut out, ("timers_fired", counters.timers_fired)).unwrap();
    writeln!(out, "{:<30} {:?}", "routing.mode", routing.mode).unwrap();
    work.for_each(|pair| write(&mut out, pair).unwrap());
    out
}

/// Holds `render` to the committed `tests/goldens/<name>.txt`. On a
/// mismatch it writes the render under the target's temp directory and
/// panics with the differing lines and the `cp` that recaptures the file.
pub fn assert_golden(name: &str, render: &str) {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"));
    let expected = fs::read_to_string(&committed).unwrap_or_default();
    let mismatches = Path::new(env!("CARGO_TARGET_TMPDIR")).join("goldens");
    if let Err(message) = compare(&committed, &expected, render, &mismatches) {
        panic!("{message}");
    }
}

/// [`assert_golden`]'s comparison of `render` with the `expected` text of
/// `committed`, writing a mismatching render into `out_dir`.
pub fn compare(
    committed: &Path,
    expected: &str,
    render: &str,
    out_dir: &Path,
) -> Result<(), String> {
    if render == expected {
        return Ok(());
    }
    let fresh = out_dir.join(committed.file_name().expect("a golden is a file"));
    fs::create_dir_all(out_dir)
        .and_then(|()| fs::write(&fresh, render))
        .expect("the mismatch directory is writable");
    let (old, new): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), render.lines().collect());
    let moved: Vec<usize> = (0..old.len().max(new.len()))
        .filter(|&i| old.get(i) != new.get(i))
        .collect();
    let mut message = format!(
        "{} differs from this run on {} line(s):\n",
        committed.display(),
        moved.len()
    );
    for &i in moved.iter().take(40) {
        let [was, now] = [&old, &new].map(|lines| lines.get(i).copied().unwrap_or("(no line)"));
        writeln!(message, "line {}:\n  - {was}\n  + {now}", i + 1).unwrap();
    }
    if moved.len() > 40 {
        writeln!(message, "(and {} more)", moved.len() - 40).unwrap();
    }
    let (fresh, committed) = (fresh.display(), committed.display());
    message += &format!("if the move is meant, say why and recapture:\n  cp {fresh} {committed}");
    Err(message)
}

/// Runs a row and renders it.
pub fn render(row: &Row) -> String {
    run(row, false).0
}

/// Runs a row with a full-category flight recorder and self-profiling
/// enabled. The render must equal [`render`]'s — telemetry is read-only —
/// and the trace itself must be deterministic.
pub fn render_traced(row: &Row) -> (String, Traced) {
    let (render, telemetry) = run(row, true);
    (render, telemetry.expect("a traced run captures telemetry"))
}
