//! One workload process: timed passes over the worlds, the correctness
//! gate, the traced pass and micro-loops, and the metrics that come out of
//! them.

use std::collections::BTreeMap;
use std::time::Instant;

use bullet_experiments::metrics::median_or_zero;
use bullet_netsim::telemetry::BlockJourney;

use crate::json::Value;
use crate::micro;
use crate::spans::SpanLog;
use crate::workloads::{
    self, Fingerprint, Inputs, NodeCounts, Rep, RepOutput, Sizing, Traced, Workload,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The workloads a metric is reported on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    All,
    /// The three workloads that run Bullet.
    Mesh,
    TreeStream,
}

impl Scope {
    pub fn covers(self, workload: Workload) -> bool {
        match self {
            Scope::All => true,
            Scope::Mesh => workload.is_mesh(),
            Scope::TreeStream => workload == Workload::TreeStream,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub scope: Scope,
}

const fn def(name: &'static str, unit: &'static str, better: Better, scope: Scope) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        scope,
    }
}

use Better::{Higher, Lower};
use Scope::{All, Mesh, TreeStream};

/// What a user of the system sees. Host metrics are what the testbed
/// costs; simulated ones are what the modelled overlay delivers and must be
/// bit-identical for a change that only speeds the simulator up. Bounds
/// live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower, All),
    def("run_s", "s", Lower, All),
    def("peak_rss_mb", "MB", Lower, All),
    def("useful_kbps", "Kbps", Higher, All),
    def("delivered_frac", "fraction", Higher, All),
    def("useful_pct", "%", Higher, All),
    def("control_kbps", "Kbps", Lower, All),
];

/// Single-layer metrics; layer names are crate names. `dup_pct` is the
/// complement of `useful_pct`, kept under its own name but without a bound
/// because it is exactly 0 on `tree_stream`.
pub const PER_LAYER: &[MetricDef] = &[
    def("dup_pct", "%", Lower, All),
    def("topology.generate_s", "s", Lower, All),
    def("netsim.network_setup_s", "s", Lower, All),
    def("netsim.network_view_us", "us", Lower, All),
    def("netsim.sim_new_s", "s", Lower, All),
    def("overlay.tree_build_s", "s", Lower, All),
    def("bullet.agents_new_s", "s", Lower, Mesh),
    def("baselines.agents_new_s", "s", Lower, TreeStream),
    def("netsim.route_cold_us", "us", Lower, All),
    def("netsim.route_warm_ns", "ns", Lower, All),
    def("netsim.route_queries", "count", Lower, All),
    def("netsim.lazy_searches", "count", Lower, All),
    def("netsim.routers_settled", "count", Lower, All),
    def("netsim.trees_built", "count", Lower, All),
    def("netsim.events", "count", Lower, All),
    def("netsim.delivered", "count", Higher, All),
    def("netsim.timers_fired", "count", Lower, All),
    def("netsim.dropped_in_network", "count", Lower, All),
    def("experiments.ns_per_event", "ns", Lower, All),
    def("netsim.events_per_s", "1/s", Higher, All),
    def("experiments.run_s_median", "s", Lower, All),
    def("experiments.run_s_max", "s", Lower, All),
    def("experiments.setup_s_median", "s", Lower, All),
    def("experiments.repetitions", "count", Higher, All),
    def("netsim.core_ns_per_event", "ns", Lower, All),
    def("bullet.above_core_share", "fraction", Lower, All),
    def("netsim.peak_queue_depth", "count", Lower, All),
    def("netsim.mean_queue_depth", "count", Lower, All),
    def("netsim.flight_slots", "count", Lower, All),
    def("netsim.timer_slots", "count", Lower, All),
    def("netsim.repair_s", "s", Lower, All),
    def("netsim.route_mutations", "count", Lower, All),
    def("netsim.routes_invalidated", "count", Lower, All),
    def("netsim.landmark_repairs", "count", Lower, All),
    def("dynamics.script_events", "count", Lower, All),
    def("netsim.link_stress_mean", "ratio", Lower, Mesh),
    def("content.bloom_build_us", "us", Lower, Mesh),
    def("content.bloom_query_ns", "ns", Lower, Mesh),
    def("content.ticket_build_us", "us", Lower, Mesh),
    def("content.missing_scan_us", "us", Lower, Mesh),
    def("content.working_set_insert_ns", "ns", Lower, Mesh),
    def("ransub.compact_us", "us", Lower, Mesh),
    def("transport.tfrc_send_ns", "ns", Lower, All),
    def("transport.tfrc_feedback_ns", "ns", Lower, All),
    def("bullet.forwarded_packets", "count", Higher, Mesh),
    def("bullet.served_packets", "count", Higher, Mesh),
    def("bullet.orphaned_packets", "count", Lower, Mesh),
    def("bullet.mesh_share_pct", "%", Higher, Mesh),
    def("bullet.parent_dup_share_pct", "%", Lower, Mesh),
    def("bullet.tree_pushes", "count", Higher, Mesh),
    def("bullet.mesh_serves", "count", Higher, Mesh),
    def("bullet.mesh_recovery_hops", "count", Higher, Mesh),
    def("bullet.block_reach_p50_ms", "ms", Lower, Mesh),
    def("bullet.block_reach_p95_ms", "ms", Lower, Mesh),
    def("bullet.reattaches", "count", Higher, Mesh),
    def("bullet.control_retries", "count", Lower, Mesh),
    def("bullet.false_positive_evictions", "count", Lower, Mesh),
    def("bullet.inbox_sheds", "count", Lower, Mesh),
    def("bullet.working_set_evictions", "count", Lower, Mesh),
    def("bullet.blocks_verified", "count", Higher, Mesh),
    def("telemetry.trace_overhead_pct", "%", Lower, All),
    def("telemetry.trace_events", "count", Lower, All),
    def("telemetry.trace_evicted", "count", Lower, All),
];

pub fn find_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric values by name. Setting a name the tables do not define is a bug
/// in this program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find_def(name).unwrap_or_else(|| panic!("metric {name:?} is not in the tables"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&name, &value)| (name, value))
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` for the metrics of `defs`.
    /// With `fill_for`, a metric whose layer does not run on that workload
    /// is written as 0 instead of left out.
    pub fn to_json(&self, defs: &[MetricDef], fill_for: Option<Workload>) -> Value {
        Value::object(defs.iter().filter_map(|d| {
            let absent = fill_for.filter(|&w| !d.scope.covers(w)).map(|_| 0.0);
            let value = self.get(d.name).or(absent)?;
            let entry = Value::object([("value", value.into()), ("unit", d.unit.into())]);
            Some((d.name, entry))
        }))
    }
}

/// How long to measure and how hard.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Timed passes go on while the next one still fits in this many
    /// seconds.
    pub seconds: f64,
    /// Each micro-loop lasts at least this long.
    pub micro_floor_s: f64,
}

impl Budget {
    pub fn of(seconds: f64) -> Budget {
        Budget {
            seconds,
            micro_floor_s: 0.05,
        }
    }
}

/// Set-up stage spans: span name, the metric it feeds, and the factor from
/// seconds to the metric's unit.
const STAGE_SPANS: &[(&str, &str, f64)] = &[
    ("topology.generate", "topology.generate_s", 1.0),
    ("netsim.network_setup", "netsim.network_setup_s", 1.0),
    ("netsim.network_view", "netsim.network_view_us", 1e6),
    ("netsim.sim_new", "netsim.sim_new_s", 1.0),
    ("overlay.tree_build", "overlay.tree_build_s", 1.0),
    ("bullet.agents_new", "bullet.agents_new_s", 1.0),
    ("baselines.agents_new", "baselines.agents_new_s", 1.0),
];

/// Micro-loop spans, likewise; a loop that did not run sets nothing.
const MICRO_SPANS: &[(&str, &str, f64)] = &[
    ("netsim.route_cold", "netsim.route_cold_us", 1e6),
    ("netsim.route_warm", "netsim.route_warm_ns", 1e9),
    ("transport.tfrc_send", "transport.tfrc_send_ns", 1e9),
    ("transport.tfrc_feedback", "transport.tfrc_feedback_ns", 1e9),
    ("content.bloom_build", "content.bloom_build_us", 1e6),
    ("content.bloom_query", "content.bloom_query_ns", 1e9),
    ("content.ticket_build", "content.ticket_build_us", 1e6),
    ("content.missing_scan", "content.missing_scan_us", 1e6),
    (
        "content.working_set_insert",
        "content.working_set_insert_ns",
        1e9,
    ),
    ("ransub.compact", "ransub.compact_us", 1e6),
];

/// Never fewer passes than this, whatever the budget: it takes two to see
/// that a world repeats. And never more than `MAX_PASSES`.
const MIN_PASSES: usize = 2;
const MAX_PASSES: usize = 64;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: String,
    /// Why the outputs are not correct; empty when they are.
    pub violations: Vec<String>,
    pub end_to_end: Metrics,
    /// Empty unless the traced pass ran.
    pub per_layer: Metrics,
    /// The harness's spans, when the traced pass ran.
    pub spans_jsonl: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The result line of the benchmark contract: exactly these four keys.
    pub fn line(&self, metrics: Value) -> Value {
        Value::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", (self.attempted as f64).into()),
            ("failed", (self.failed as f64).into()),
            ("metrics", metrics),
        ])
    }

    /// The ledger's record of this workload: the line with every measured
    /// metric, plus the fingerprint.
    pub fn to_json(&self) -> Value {
        let mut metrics = self.end_to_end.to_json(END_TO_END, None);
        if let (Value::Object(all), Value::Object(layers)) =
            (&mut metrics, self.per_layer.to_json(PER_LAYER, None))
        {
            all.extend(layers);
        }
        let mut record = self.line(metrics);
        if let Value::Object(map) = &mut record {
            map.insert("fingerprint".to_string(), self.fingerprint.as_str().into());
        }
        record
    }
}

fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let count = values.len() as f64;
    values.sum::<f64>() / count
}

/// `VmHWM`, the process's peak resident set, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload: timed, untraced passes over the worlds of `seed`,
/// each pass a *set-up then run* of every world, until `budget.seconds` are
/// used; then — with `traced` — one traced pass and the micro-loops.
/// Nothing is printed or written here.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    sizing: Sizing,
    budget: Budget,
    traced: bool,
) -> Outcome {
    let worlds = Inputs::generate(workload, seed, sizing);
    let mut log = SpanLog::new();
    let mut violations = Vec::new();

    // Every pass executes the identical event sequences (checked below), so
    // a world's repetitions differ only by host interference, which only
    // ever adds time: the minimum is the estimate, the median and maximum
    // go out beside it so interference stays visible. A world's repetitions
    // are a whole pass apart, so a burst of interference shorter than a
    // pass spoils one of them at most.
    let started = Instant::now();
    let mut passes: Vec<Vec<Rep>> = Vec::new();
    let mut peak_rss = None;
    loop {
        let before = started.elapsed().as_secs_f64();
        let mut pass = Vec::with_capacity(worlds.len());
        for world in &worlds {
            pass.push(workloads::rep(world, &mut log));
            // One set-up (batch) and run of one world is what a user's
            // process holds, so the peak is read after the very first. Each
            // further world or pass adds up to 1 MB that the allocator does
            // not hand back (the heap fragments), by an amount that moves
            // 10 % from seed to seed; the traced pass, whose ring no user
            // holds, comes later still.
            peak_rss.get_or_insert_with(peak_rss_mb);
        }
        passes.push(pass);
        let spent = started.elapsed().as_secs_f64();
        let next_fits = spent + (spent - before) <= budget.seconds;
        if passes.len() >= MAX_PASSES || (passes.len() >= MIN_PASSES && !next_fits) {
            break;
        }
    }
    let first: Vec<&RepOutput> = passes[0].iter().map(|rep| &rep.output).collect();
    let mut repeats = passes.iter().all(|pass| {
        pass.iter()
            .zip(&first)
            .all(|(rep, &first)| rep.output == *first)
    });

    // The workload is all of its worlds: times and counts add up, each
    // world's time being its best over the passes; simulated metrics are
    // averaged.
    let best = |time: fn(&Rep) -> f64| -> f64 {
        (0..worlds.len())
            .map(|world| min(passes.iter().map(|pass| time(&pass[world]))))
            .sum()
    };
    let pass_totals = |time: fn(&Rep) -> f64| -> Vec<f64> {
        passes
            .iter()
            .map(|pass| pass.iter().map(time).sum())
            .collect()
    };
    let over_worlds = |metric: fn(&RepOutput) -> f64| mean(first.iter().map(|&o| metric(o)));
    let (setup_s, run_s) = (best(|rep| rep.setup_s), best(|rep| rep.run_s));
    let events: u64 = first.iter().map(|o| o.events).sum();
    let delivered_frac = over_worlds(|o| o.delivered_frac);
    let dup_pct = over_worlds(|o| o.dup_pct);

    let mut end_to_end = Metrics::default();
    end_to_end.set("setup_s", setup_s);
    end_to_end.set("run_s", run_s);
    end_to_end.set("peak_rss_mb", peak_rss.unwrap_or(0.0));
    end_to_end.set("useful_kbps", over_worlds(|o| o.useful_kbps));
    end_to_end.set("delivered_frac", delivered_frac);
    end_to_end.set("useful_pct", 100.0 - dup_pct);
    end_to_end.set("control_kbps", over_worlds(|o| o.control_kbps));

    if first
        .iter()
        .any(|o| o.useful_kbps <= 0.0 || o.delivered_frac <= 0.0)
    {
        violations.push("a world delivered no useful data".to_string());
    }
    let trees_built: u64 = first.iter().map(|o| o.trees_built).sum();
    if workload.is_paper_scale() && trees_built != 0 {
        violations.push(format!(
            "{trees_built} per-source shortest-path trees built at paper scale"
        ));
    }
    if workload == Workload::MeshChurn && sizing == Sizing::Full {
        // Whatever the seed, the scripts must keep exercising what the
        // workload is there for: delivery under churn, route repair and
        // re-attachment.
        if delivered_frac < 0.4 {
            violations.push(format!("delivered_frac {delivered_frac} < 0.4"));
        }
        if first.iter().any(|o| o.route_mutations < 20) {
            violations.push("a world has fewer than 20 route mutations".to_string());
        }
        if first.iter().all(|o| o.reattaches == 0) {
            violations.push("no node re-attached".to_string());
        }
    }

    let mut per_layer = Metrics::default();
    let mut spans_jsonl = None;
    if traced {
        // A stage's time is, like `setup_s`, the sum over the worlds of the
        // best of the passes' recorded set-ups (the last of each batch).
        for &(span, metric, scale) in STAGE_SPANS {
            if find_def(metric).is_some_and(|d| d.scope.covers(workload)) {
                let total: f64 = (0..worlds.len())
                    .map(|world| {
                        min(passes.iter().flat_map(|pass| {
                            log.named(span)
                                .filter(|s| s.parent == Some(pass[world].setup_span))
                                .map(|s| s.secs())
                        }))
                    })
                    .sum();
                per_layer.set(metric, total * scale);
            }
        }

        // The ring is sized from the event count so that nothing is
        // evicted: a message costs at least three events (two hops and a
        // delivery) and leaves at most two records (sent, accepted).
        let traced: Vec<Traced> = worlds
            .iter()
            .zip(&first)
            .map(|(world, o)| workloads::traced(world, (o.events / 2).max(65_536), &mut log))
            .collect();
        repeats &= traced
            .iter()
            .zip(&first)
            .all(|(pass, o)| pass.trajectory == o.fingerprint.trajectory);
        let evicted: u64 = traced.iter().map(|pass| pass.trace_evicted).sum();
        if evicted != 0 {
            violations.push(format!("{evicted} trace records evicted"));
        }

        micro::routing(&worlds[0], seed, budget.micro_floor_s, &mut log);
        micro::sim_core(seed, budget.micro_floor_s, &mut log);
        micro::transport(budget.micro_floor_s, &mut log);
        if workload.is_mesh() {
            let fanout = traced.iter().map(|pass| pass.fanout).max().unwrap_or(1);
            micro::content_and_ransub(fanout, seed, budget.micro_floor_s, &mut log);
        }

        per_layer.set("dup_pct", dup_pct);
        if workload.is_mesh() {
            per_layer.set(
                "netsim.link_stress_mean",
                over_worlds(|o| o.link_stress_mean),
            );
        }
        let run_totals = pass_totals(|rep| rep.run_s);
        per_layer.set(
            "experiments.run_s_max",
            run_totals.iter().copied().fold(0.0, f64::max),
        );
        per_layer.set("experiments.run_s_median", median_or_zero(run_totals));
        per_layer.set(
            "experiments.setup_s_median",
            median_or_zero(pass_totals(|rep| rep.setup_s)),
        );
        per_layer.set("experiments.repetitions", passes.len() as f64);
        per_layer.set(
            "dynamics.script_events",
            worlds
                .iter()
                .filter_map(|world| world.script.as_ref())
                .map(|script| script.len())
                .sum::<usize>() as f64,
        );
        traced_metrics(&traced, run_s, &mut per_layer);
        let ns_per_event = run_s / events as f64 * 1e9;
        let core_ns = log.secs_per_call("netsim.core").expect("the loop ran") * 1e9;
        per_layer.set("experiments.ns_per_event", ns_per_event);
        per_layer.set("netsim.events_per_s", events as f64 / run_s);
        per_layer.set("netsim.core_ns_per_event", core_ns);
        per_layer.set("bullet.above_core_share", 1.0 - core_ns / ns_per_event);
        for &(span, metric, scale) in MICRO_SPANS {
            if let Some(per_call) = log.secs_per_call(span) {
                per_layer.set(metric, per_call * scale);
            }
        }
        spans_jsonl = Some(log.to_jsonl());
    }

    if !repeats {
        violations.push("a repetition's fingerprint differs from the first".to_string());
    }
    for (name, value) in end_to_end.iter().chain(per_layer.iter()) {
        if !value.is_finite() {
            violations.push(format!("{name} is not finite"));
        }
    }

    let attempted: u64 = first.iter().map(|o| o.attempted).sum();
    Outcome {
        attempted,
        // Without a repeatable trajectory no session's outcome can be
        // trusted.
        failed: if repeats {
            first.iter().map(|o| o.failed).sum()
        } else {
            attempted
        },
        fingerprint: Fingerprint::of_all(first.iter().map(|o| o.fingerprint)).to_string(),
        violations,
        end_to_end,
        per_layer,
        spans_jsonl,
    }
}

/// The counts and profiles the traced pass read back, by layer: summed
/// over the worlds, except queue depths and slab sizes, which no two
/// worlds hold at once.
fn traced_metrics(worlds: &[Traced], run_s: f64, out: &mut Metrics) {
    let total = |count: fn(&Traced) -> u64| worlds.iter().map(count).sum::<u64>() as f64;
    let largest = |size: fn(&Traced) -> u64| worlds.iter().map(size).max().unwrap_or(0) as f64;
    out.set("netsim.events", total(|w| w.counters.events));
    out.set("netsim.delivered", total(|w| w.counters.delivered));
    out.set("netsim.timers_fired", total(|w| w.counters.timers_fired));
    out.set(
        "netsim.dropped_in_network",
        total(|w| w.counters.dropped_in_network),
    );
    out.set("netsim.route_queries", total(|w| w.routing.route_queries));
    out.set("netsim.lazy_searches", total(|w| w.routing.lazy_searches));
    out.set(
        "netsim.routers_settled",
        total(|w| w.routing.routers_settled),
    );
    out.set("netsim.trees_built", total(|w| w.routing.trees_built));
    out.set(
        "netsim.peak_queue_depth",
        largest(|w| w.profile.peak_queue_depth),
    );
    out.set(
        "netsim.mean_queue_depth",
        mean(worlds.iter().map(|w| w.profile.mean_queue_depth)),
    );
    out.set("netsim.flight_slots", largest(|w| w.profile.flight_slots));
    out.set("netsim.timer_slots", largest(|w| w.profile.timer_slots));
    out.set(
        "netsim.repair_s",
        worlds.iter().map(|w| w.repair_s).sum::<f64>(),
    );
    out.set(
        "netsim.route_mutations",
        total(|w| w.repair.route_mutations),
    );
    out.set(
        "netsim.routes_invalidated",
        total(|w| w.repair.routes_invalidated),
    );
    out.set(
        "netsim.landmark_repairs",
        total(|w| w.repair.landmark_repairs),
    );
    // The traced pass keeps its simulations alive while `run_s` includes
    // tearing them down, so where little is recorded this can dip below 0.
    let wall_s: f64 = worlds.iter().map(|w| w.wall_s).sum();
    out.set(
        "telemetry.trace_overhead_pct",
        (wall_s / run_s - 1.0) * 100.0,
    );
    out.set("telemetry.trace_events", total(|w| w.trace_events));
    out.set("telemetry.trace_evicted", total(|w| w.trace_evicted));

    if worlds.iter().any(|w| w.nodes.is_none()) {
        return;
    }
    let nodes = |count: fn(&NodeCounts) -> u64| -> u64 {
        worlds
            .iter()
            .filter_map(|w| w.nodes.as_ref())
            .map(count)
            .sum()
    };
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64 * 100.0
        }
    };
    out.set(
        "bullet.forwarded_packets",
        nodes(|n| n.forwarded_packets) as f64,
    );
    out.set("bullet.served_packets", nodes(|n| n.served_packets) as f64);
    out.set(
        "bullet.orphaned_packets",
        nodes(|n| n.orphaned_packets) as f64,
    );
    out.set(
        "bullet.mesh_share_pct",
        pct(nodes(|n| n.from_peers_bytes), nodes(|n| n.raw_bytes)),
    );
    out.set(
        "bullet.parent_dup_share_pct",
        pct(
            nodes(|n| n.duplicate_from_parent),
            nodes(|n| n.duplicate_packets),
        ),
    );
    out.set("bullet.reattaches", nodes(|n| n.reattaches) as f64);
    out.set(
        "bullet.control_retries",
        nodes(|n| n.control_retries) as f64,
    );
    out.set(
        "bullet.false_positive_evictions",
        nodes(|n| n.false_positive_evictions) as f64,
    );
    out.set("bullet.inbox_sheds", nodes(|n| n.inbox_sheds) as f64);
    out.set(
        "bullet.working_set_evictions",
        nodes(|n| n.working_set_evictions) as f64,
    );
    out.set(
        "bullet.blocks_verified",
        nodes(|n| n.blocks_verified) as f64,
    );

    let journeys = || worlds.iter().flat_map(|w| &w.journeys);
    let sum = |f: fn(&BlockJourney) -> u64| journeys().map(f).sum::<u64>() as f64;
    out.set("bullet.tree_pushes", sum(|j| j.tree_pushes));
    out.set("bullet.mesh_serves", sum(|j| j.mesh_serves));
    out.set(
        "bullet.mesh_recovery_hops",
        sum(|j| j.mesh_recovery_hops() as u64),
    );
    // Time from sealing until half (95 %) of the nodes that ever got the
    // block had it; median over the blocks of all worlds.
    let reach_ms = |fraction: f64| {
        let reached: Vec<f64> = journeys()
            .filter_map(|j| j.reach_delta_us(j.accepts.len(), fraction))
            .map(|us| us as f64 / 1_000.0)
            .collect();
        median_or_zero(reached)
    };
    out.set("bullet.block_reach_p50_ms", reach_ms(0.50));
    out.set("bullet.block_reach_p95_ms", reach_ms(0.95));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, traced: bool) -> Outcome {
        let budget = Budget {
            seconds: 0.0,
            micro_floor_s: 0.002,
        };
        run_workload(workload, 3, Sizing::Smoke, budget, traced)
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} is defined twice", d.name);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn every_workload_emits_every_metric_its_rows_name() {
        for workload in Workload::ALL {
            let outcome = smoke(workload, true);
            assert!(outcome.correct(), "{workload:?}: {:?}", outcome.violations);
            assert_eq!(outcome.failed, 0, "{workload:?}");
            assert!(outcome.attempted >= 1);
            for d in END_TO_END {
                let value = outcome.end_to_end.get(d.name);
                assert!(
                    value.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{workload:?} {}",
                    d.name
                );
            }
            for d in PER_LAYER {
                let value = outcome.per_layer.get(d.name);
                if d.scope.covers(workload) {
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload:?} lacks {}",
                        d.name
                    );
                } else {
                    assert_eq!(value, None, "{workload:?} reports {}", d.name);
                }
            }
            assert_eq!(outcome.per_layer.get("telemetry.trace_evicted"), Some(0.0));
            let spans = outcome.spans_jsonl.expect("the traced pass records spans");
            assert!(spans.lines().all(|line| Value::parse(line).is_ok()));
        }
    }

    #[test]
    fn no_bullet_code_is_counted_on_the_tree() {
        let tree = smoke(Workload::TreeStream, true);
        assert!(tree
            .per_layer
            .iter()
            .all(|(name, _)| name == "bullet.above_core_share"
                || !["bullet.", "content.", "ransub."]
                    .iter()
                    .any(|p| name.starts_with(p))));
        assert_eq!(tree.per_layer.get("dup_pct"), Some(0.0));
        assert_eq!(tree.per_layer.get("netsim.route_mutations"), Some(0.0));
        let churn = smoke(Workload::MeshChurn, true);
        assert!(churn.per_layer.get("netsim.route_mutations").unwrap() > 0.0);
        assert!(churn.per_layer.get("dynamics.script_events").unwrap() > 0.0);
        assert!(churn.per_layer.get("bullet.blocks_verified").unwrap() > 0.0);
    }

    #[test]
    fn an_untraced_run_reports_only_end_to_end_metrics() {
        let outcome = smoke(Workload::MeshDefault, false);
        assert!(outcome.correct());
        assert_eq!(outcome.per_layer, Metrics::default());
        assert!(outcome.spans_jsonl.is_none());
        let line = outcome
            .end_to_end
            .to_json(END_TO_END, Some(Workload::MeshDefault));
        assert_eq!(line.as_object().unwrap().len(), END_TO_END.len());
    }

    #[test]
    fn the_driver_line_fills_metrics_of_layers_that_do_not_run() {
        let mut metrics = Metrics::default();
        metrics.set("netsim.events", 12.0);
        let filled = metrics.to_json(PER_LAYER, Some(Workload::TreeStream));
        let absent = PER_LAYER.iter().filter(|d| d.scope == Mesh).count();
        assert_eq!(filled.as_object().unwrap().len(), 1 + absent);
        let entry = filled.get("ransub.compact_us").unwrap();
        assert_eq!(entry.get("value").unwrap().as_f64(), Some(0.0));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some("us"));
        assert_eq!(
            metrics.to_json(PER_LAYER, None).as_object().unwrap().len(),
            1
        );
    }
}
