//! Per-figure experiment definitions.
//!
//! One `*_plan` function per figure of the paper's evaluation (§4), named by
//! a key in [`crate::suite::SUITE_PLAN_KEYS`] — the plan and the key are all
//! a figure is; [`crate::suite::figure`] and the `figures` bench run it by
//! key. Each builds the topology and trees the paper describes, runs the
//! systems under comparison, and assembles a [`FigureResult`] containing the
//! same curves the figure plots plus the scalar numbers quoted in the
//! surrounding text.
//!
//! # The run grid
//!
//! Every figure is a **plan**: a grid of independent run tasks
//! (configuration × seed) plus an assembly step that turns the ordered run
//! results into the figure. Plans execute on the scoped-thread
//! [`RunPool`](crate::pool::RunPool) (`BULLET_THREADS`, default all cores),
//! and [`crate::suite::figure_suite`] flattens the plans of *every* figure
//! into one grid so the whole evaluation saturates the machine. Because
//! results are collected in task order and each run owns all of its mutable
//! state (the expensive immutable setup — generated topology, bandwidth
//! assignment, ALT landmark tables — is shared read-only via `Arc`, see
//! [`crate::env::PreparedTopology`]), figure output is bit-identical at any
//! thread count. `BULLET_SEEDS` widens each configuration to a multi-seed
//! sweep; seed index 0 reproduces the historical single-seed output byte
//! for byte, extra seeds append `[seed k]` series and a per-configuration
//! spread note.

use std::sync::Arc;

use bullet_baselines::{AntiEntropyConfig, GossipConfig, StreamConfig, StreamTransport};
use bullet_core::BulletConfig;
use bullet_dynamics::ScenarioScript;
use bullet_netsim::{Network, SimDuration, SimTime};
use bullet_overlay::{good_tree, random_tree, worst_tree};
use bullet_topology::{BandwidthProfile, LossProfile};

use crate::env::{constrained_source_topology, prepare_topology, PreparedTopology, TreeKind};
use crate::metrics::{BandwidthSeries, Cdf, RunSummary};
use crate::pool::{seed_label, Sweep, Task};
use crate::protocols::{
    antientropy_run_on, bullet_run_on, gossip_run_on, streaming_run_on, NO_SCRIPT,
};
use crate::runner::{RunResult, RunSpec};
use crate::scale::Scale;

/// The result of reproducing one figure: the plotted curves plus the scalar
/// numbers the paper quotes around it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FigureResult {
    /// Identifier, e.g. "fig07".
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The curves of the figure.
    pub series: Vec<BandwidthSeries>,
    /// Scalar summaries per run.
    pub summaries: Vec<(String, RunSummary)>,
    /// Free-form observations (crossover points, ratios, ...).
    pub notes: Vec<String>,
    /// Named scalar outcomes derived across runs (e.g. the overload
    /// figure's steady-member goodput per arm) that benches and CI gates
    /// read without re-deriving per-node data. Empty for most figures.
    pub scalars: Vec<(String, f64)>,
    /// The per-node distribution a CDF figure plots (Fig. 8); rendered as
    /// a table after the notes. `None` for every other figure.
    pub cdf: Option<Cdf>,
}

impl FigureResult {
    pub(crate) fn new(id: &str, title: &str) -> Self {
        FigureResult {
            id: id.to_string(),
            title: title.to_string(),
            ..FigureResult::default()
        }
    }

    pub(crate) fn add_run(&mut self, result: &RunResult) {
        self.series.push(result.useful.clone());
        self.summaries
            .push((result.label.clone(), result.summary.clone()));
    }

    /// The steady-state bandwidth of the series whose label contains
    /// `needle`, if any.
    pub fn steady_state_of(&self, needle: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.label.contains(needle))
            .map(|s| s.steady_state_kbps(0.25))
    }
}

/// One unit of figure work: a single metered run, executed on a pool worker.
pub(crate) type RunTask = Task<'static, RunResult>;

/// Turns a figure plan's ordered run results into the finished figure(s).
pub(crate) type AssembleFn = Box<dyn FnOnce(Vec<RunResult>) -> Vec<FigureResult> + Send>;

/// A figure as a run grid plus its assembly step (see the module docs).
/// Most plans assemble exactly one figure; the Fig. 7 plan also derives
/// Fig. 8 from its run.
pub(crate) struct FigurePlan {
    tasks: Vec<RunTask>,
    assemble: AssembleFn,
}

impl FigurePlan {
    pub(crate) fn new(
        tasks: Vec<RunTask>,
        assemble: impl FnOnce(Vec<RunResult>) -> Vec<FigureResult> + Send + 'static,
    ) -> Self {
        FigurePlan {
            tasks,
            assemble: Box::new(assemble),
        }
    }

    /// Number of runs in this plan's grid.
    pub(crate) fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Splits the plan for suite-level flattening.
    pub(crate) fn into_parts(self) -> (Vec<RunTask>, AssembleFn) {
        (self.tasks, self.assemble)
    }
}

/// Splits grid results into per-configuration chunks of `seeds` runs each.
/// This is the one home of the grid-layout contract — configuration-major,
/// seed-minor — shared by every figure and scenario assembly.
pub(crate) fn chunked(results: Vec<RunResult>, seeds: usize) -> Vec<Vec<RunResult>> {
    let mut chunks = Vec::new();
    let mut iter = results.into_iter();
    loop {
        let chunk: Vec<RunResult> = iter.by_ref().take(seeds.max(1)).collect();
        if chunk.is_empty() {
            return chunks;
        }
        chunks.push(chunk);
    }
}

/// Appends one steady-state spread note per multi-seed configuration.
pub(crate) fn push_seed_spread_notes(figure: &mut FigureResult, chunks: &[Vec<RunResult>]) {
    for chunk in chunks {
        if chunk.len() < 2 {
            continue;
        }
        let rates: Vec<f64> = chunk.iter().map(|r| r.steady_state_kbps()).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        figure.notes.push(format!(
            "{}: across {} seeds, steady useful mean {mean:.0} Kbps (min {min:.0}, max {max:.0})",
            chunk[0].label,
            chunk.len(),
        ));
    }
}

/// Shared experiment parameters derived from the scale.
pub(crate) struct Params {
    pub(crate) participants: usize,
    pub(crate) duration: SimDuration,
    pub(crate) sample: SimDuration,
    pub(crate) stream_start: SimTime,
    pub(crate) seed: u64,
}

impl Params {
    pub(crate) fn new(scale: Scale, seed: u64) -> Self {
        Params {
            participants: scale.participants(),
            duration: SimDuration::from_secs(scale.duration_secs()),
            sample: SimDuration::from_secs(scale.sample_secs()),
            stream_start: SimTime::from_secs(scale.stream_start_secs()),
            seed,
        }
    }

    pub(crate) fn run_spec(&self, label: &str) -> RunSpec {
        RunSpec::new(label, self.duration, self.sample)
    }

    pub(crate) fn bullet_config(&self, rate_bps: f64) -> BulletConfig {
        BulletConfig {
            stream_rate_bps: rate_bps,
            stream_start: self.stream_start,
            ..BulletConfig::default()
        }
    }

    pub(crate) fn stream_config(&self, rate_bps: f64) -> StreamConfig {
        StreamConfig {
            stream_rate_bps: rate_bps,
            stream_start: self.stream_start,
            transport: StreamTransport::Tfrc,
            ..StreamConfig::default()
        }
    }
}

const PAPER_RATE_BPS: f64 = 600_000.0;
const EPIDEMIC_RATE_BPS: f64 = 900_000.0;
const PLANETLAB_RATE_BPS: f64 = 1_500_000.0;

/// Table 1: the bandwidth ranges per link class and profile, as `(profile,
/// class, low Kbps, high Kbps)` rows.
pub fn table1_rows() -> Vec<(String, String, u32, u32)> {
    use bullet_topology::LinkClass;
    let mut rows = Vec::new();
    for profile in BandwidthProfile::ALL {
        for class in LinkClass::ALL {
            let range = profile.range(class);
            rows.push((
                profile.name().to_string(),
                class.name().to_string(),
                range.low,
                range.high,
            ));
        }
    }
    rows
}

/// Figure 6: TFRC streaming over the offline bottleneck tree versus a random
/// tree (medium bandwidth, 600 Kbps target).
pub(crate) fn fig06_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 6);
    let topo = prepare_topology(
        scale,
        p.participants,
        BandwidthProfile::Medium,
        LossProfile::None,
        p.seed,
    );
    let stream = p.stream_config(PAPER_RATE_BPS);
    let bottleneck = Arc::new(topo.tree(TreeKind::Bottleneck, 0, p.seed));
    let random = Arc::new(topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed));

    let mut tasks: Vec<RunTask> = Vec::new();
    let seeds = sweep.run_seeds(p.seed);
    for (tree, label) in [
        (bottleneck, "Bottleneck bandwidth tree"),
        (random, "Random tree"),
    ] {
        for (k, &seed) in seeds.iter().enumerate() {
            let topo = topo.clone();
            let tree = tree.clone();
            let stream = stream.clone();
            let run = p.run_spec(&seed_label(label, k));
            tasks.push(Box::new(move || {
                streaming_run_on(topo.network(), &tree, &stream, &run, &NO_SCRIPT, seed)
            }));
        }
    }

    let seeds = seeds.len();
    FigurePlan::new(tasks, move |results| {
        let mut figure = FigureResult::new(
            "fig06",
            "Achieved bandwidth over time for TFRC streaming over the bottleneck bandwidth tree and a random tree",
        );
        let chunks = chunked(results, seeds);
        for chunk in &chunks {
            for result in chunk {
                figure.add_run(result);
            }
        }
        let bottleneck_kbps = figure.steady_state_of("Bottleneck").unwrap_or(0.0);
        let random_kbps = figure.steady_state_of("Random").unwrap_or(0.0);
        figure.notes.push(format!(
            "bottleneck tree {:.0} Kbps vs random tree {:.0} Kbps (paper: ~400 vs <100)",
            bottleneck_kbps, random_kbps
        ));
        push_seed_spread_notes(&mut figure, &chunks);
        vec![figure]
    })
}

/// Figure 7: Bullet over a random tree — raw total, useful total, and
/// from-parent bandwidth over time, plus the §4.2 scalars (control overhead,
/// duplicate ratio, link stress). One Bullet-over-random-tree configuration
/// × seeds; the plan also emits Fig. 8, a CDF over the same run.
pub(crate) fn fig07_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 7);
    let topo = prepare_topology(
        scale,
        p.participants,
        BandwidthProfile::Medium,
        LossProfile::None,
        p.seed,
    );
    let tree = Arc::new(topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed));
    let config = p.bullet_config(PAPER_RATE_BPS);
    let seeds = sweep.run_seeds(p.seed);
    let tasks: Vec<RunTask> = seeds
        .iter()
        .enumerate()
        .map(|(k, &seed)| {
            let topo = topo.clone();
            let tree = tree.clone();
            let config = config.clone();
            let run = p.run_spec(&seed_label("Bullet (random tree)", k));
            Box::new(move || bullet_run_on(topo.network(), &tree, &config, &run, &NO_SCRIPT, seed))
                as RunTask
        })
        .collect();

    let seeds = seeds.len();
    FigurePlan::new(tasks, move |results| {
        let runs = chunked(results, seeds).remove(0);
        let mut figure = FigureResult::new(
            "fig07",
            "Achieved bandwidth over time for Bullet over a random tree",
        );
        for result in &runs {
            figure.series.push(result.raw.clone());
            figure.series.push(result.useful.clone());
            figure.series.push(result.from_parent.clone());
            figure
                .summaries
                .push((result.label.clone(), result.summary.clone()));
        }
        let result = &runs[0];
        figure.notes.push(format!(
            "useful {:.0} Kbps, raw {:.0} Kbps, duplicates {:.1}% ({:.0}% of them parent relays), control {:.1} Kbps/node, link stress mean {:.2} max {}",
            result.summary.steady_useful_kbps,
            result.summary.steady_raw_kbps,
            result.summary.duplicate_fraction * 100.0,
            result.summary.parent_relay_duplicate_share * 100.0,
            result.summary.control_overhead_kbps,
            result.summary.link_stress_mean,
            result.summary.link_stress_max,
        ));
        push_seed_spread_notes(&mut figure, std::slice::from_ref(&runs));
        vec![figure, fig08_from(result)]
    })
}

/// Figure 8: CDF of instantaneous per-node bandwidth near the end of the
/// Fig. 7 run (computed from that run rather than re-running it).
fn fig08_from(run: &RunResult) -> FigureResult {
    let at = run.times.last().copied().unwrap_or(0.0) * 0.9;
    let cdf = run.instantaneous_cdf(at);
    let mut figure = FigureResult::new(
        "fig08",
        "CDF of instantaneous achieved bandwidth across nodes late in the Bullet run",
    );
    figure.notes.push(format!(
        "median {:.0} Kbps, 10th percentile {:.0} Kbps, 90th percentile {:.0} Kbps at t={:.0}s",
        cdf.quantile(0.5),
        cdf.quantile(0.1),
        cdf.quantile(0.9),
        at
    ));
    figure.cdf = Some(cdf);
    figure
}

/// Figure 9: Bullet versus the bottleneck tree across the low, medium and
/// high bandwidth profiles of Table 1.
pub(crate) fn fig09_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    bandwidth_sweep_plan(scale, sweep, LossProfile::None, "fig09",
        "Achieved bandwidth for Bullet and the bottleneck tree across low/medium/high bandwidth topologies")
}

/// Figure 12: the same sweep over lossy topologies (§4.5).
pub(crate) fn fig12_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    bandwidth_sweep_plan(
        scale,
        sweep,
        LossProfile::paper_lossy(),
        "fig12",
        "Achieved bandwidth for Bullet and the bottleneck tree over lossy network topologies",
    )
}

fn bandwidth_sweep_plan(
    scale: Scale,
    sweep: &Sweep,
    loss: LossProfile,
    id: &str,
    title: &str,
) -> FigurePlan {
    let mut tasks: Vec<RunTask> = Vec::new();
    let mut profile_names = Vec::new();
    for (profile, name) in [
        (BandwidthProfile::High, "High Bandwidth"),
        (BandwidthProfile::Medium, "Medium Bandwidth"),
        (BandwidthProfile::Low, "Low Bandwidth"),
    ] {
        let p = Params::new(scale, 9 + profile as u64);
        let topo = prepare_topology(scale, p.participants, profile, loss, p.seed);
        let random = Arc::new(topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed));
        let bottleneck = Arc::new(topo.tree(TreeKind::Bottleneck, 0, p.seed));
        let bullet_cfg = p.bullet_config(PAPER_RATE_BPS);
        let stream_cfg = p.stream_config(PAPER_RATE_BPS);
        let seeds = sweep.run_seeds(p.seed);
        for (k, &seed) in seeds.iter().enumerate() {
            let topo = topo.clone();
            let tree = random.clone();
            let config = bullet_cfg.clone();
            let run = p.run_spec(&seed_label(&format!("Bullet - {name}"), k));
            tasks.push(Box::new(move || {
                bullet_run_on(topo.network(), &tree, &config, &run, &NO_SCRIPT, seed)
            }));
        }
        for (k, &seed) in seeds.iter().enumerate() {
            let topo = topo.clone();
            let tree = bottleneck.clone();
            let config = stream_cfg.clone();
            let run = p.run_spec(&seed_label(&format!("Bottleneck tree - {name}"), k));
            tasks.push(Box::new(move || {
                streaming_run_on(topo.network(), &tree, &config, &run, &NO_SCRIPT, seed)
            }));
        }
        profile_names.push(name);
    }
    let seeds = sweep.seeds();
    let (id, title) = (id.to_string(), title.to_string());
    FigurePlan::new(tasks, move |results| {
        let mut figure = FigureResult::new(&id, &title);
        let chunks = chunked(results, seeds);
        for (i, name) in profile_names.iter().enumerate() {
            let bullet_runs = &chunks[2 * i];
            let tree_runs = &chunks[2 * i + 1];
            for run in bullet_runs {
                figure.add_run(run);
            }
            for run in tree_runs {
                figure.add_run(run);
            }
            let bullet = &bullet_runs[0];
            let tree = &tree_runs[0];
            let ratio = bullet.steady_state_kbps() / tree.steady_state_kbps().max(1.0);
            figure.notes.push(format!(
                "{name}: Bullet {:.0} Kbps vs bottleneck tree {:.0} Kbps (x{:.2})",
                bullet.steady_state_kbps(),
                tree.steady_state_kbps(),
                ratio
            ));
        }
        push_seed_spread_notes(&mut figure, &chunks);
        vec![figure]
    })
}

/// Figure 10: the non-disjoint transmission strategy (every parent tries to
/// send everything to every child).
pub(crate) fn fig10_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 10);
    let topo = prepare_topology(
        scale,
        p.participants,
        BandwidthProfile::Medium,
        LossProfile::None,
        p.seed,
    );
    let tree = Arc::new(topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed));
    let mut config = p.bullet_config(PAPER_RATE_BPS);
    config.disjoint_send = false;

    let seeds = sweep.run_seeds(p.seed);
    let tasks: Vec<RunTask> = seeds
        .iter()
        .enumerate()
        .map(|(k, &seed)| {
            let topo = topo.clone();
            let tree = tree.clone();
            let config = config.clone();
            let run = p.run_spec(&seed_label("Bullet (non-disjoint strategy)", k));
            Box::new(move || bullet_run_on(topo.network(), &tree, &config, &run, &NO_SCRIPT, seed))
                as RunTask
        })
        .collect();

    let seeds = seeds.len();
    FigurePlan::new(tasks, move |results| {
        let runs = chunked(results, seeds).remove(0);
        let mut figure = FigureResult::new(
            "fig10",
            "Achieved bandwidth over time using non-disjoint data transmission",
        );
        for result in &runs {
            figure.series.push(result.raw.clone());
            figure.series.push(result.useful.clone());
            figure.series.push(result.from_parent.clone());
            figure
                .summaries
                .push((result.label.clone(), result.summary.clone()));
        }
        figure.notes.push(format!(
            "useful {:.0} Kbps with the disjoint strategy disabled (paper: ~25% below Fig. 7)",
            runs[0].summary.steady_useful_kbps
        ));
        push_seed_spread_notes(&mut figure, std::slice::from_ref(&runs));
        vec![figure]
    })
}

/// Figure 11: Bullet versus push gossip and streaming with anti-entropy
/// recovery (900 Kbps target, loss-free topology, full membership for the
/// epidemics).
pub(crate) fn fig11_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let mut p = Params::new(scale, 11);
    p.participants = scale.epidemic_participants();
    let topo = prepare_topology(
        scale,
        p.participants,
        BandwidthProfile::Medium,
        LossProfile::None,
        p.seed,
    );
    let random = Arc::new(topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed));
    let bottleneck = Arc::new(topo.tree(TreeKind::Bottleneck, 0, p.seed));
    let bullet_cfg = p.bullet_config(EPIDEMIC_RATE_BPS);
    let gossip_cfg = GossipConfig {
        stream_rate_bps: EPIDEMIC_RATE_BPS,
        stream_start: p.stream_start,
        ..GossipConfig::default()
    };
    let ae_cfg = AntiEntropyConfig {
        stream_rate_bps: EPIDEMIC_RATE_BPS,
        stream_start: p.stream_start,
        ..AntiEntropyConfig::default()
    };

    let seeds = sweep.run_seeds(p.seed);
    let mut tasks: Vec<RunTask> = Vec::new();
    for (k, &seed) in seeds.iter().enumerate() {
        let topo = topo.clone();
        let tree = random.clone();
        let config = bullet_cfg.clone();
        let run = p.run_spec(&seed_label("Bullet", k));
        tasks.push(Box::new(move || {
            bullet_run_on(topo.network(), &tree, &config, &run, &NO_SCRIPT, seed)
        }));
    }
    for (k, &seed) in seeds.iter().enumerate() {
        let topo = topo.clone();
        let config = gossip_cfg.clone();
        let run = p.run_spec(&seed_label("Push gossiping", k));
        tasks.push(Box::new(move || {
            gossip_run_on(topo.network(), 0, &config, &run, &NO_SCRIPT, seed)
        }));
    }
    for (k, &seed) in seeds.iter().enumerate() {
        let topo = topo.clone();
        let tree = bottleneck.clone();
        let config = ae_cfg.clone();
        let run = p.run_spec(&seed_label("Streaming w/AE", k));
        tasks.push(Box::new(move || {
            antientropy_run_on(topo.network(), &tree, &config, &run, &NO_SCRIPT, seed)
        }));
    }

    let seeds = seeds.len();
    FigurePlan::new(tasks, move |results| {
        let mut figure = FigureResult::new(
            "fig11",
            "Achieved bandwidth over time for Bullet and epidemic approaches",
        );
        let chunks = chunked(results, seeds);
        for chunk in &chunks {
            for result in chunk {
                figure.series.push(result.raw.clone());
                figure.add_run(result);
            }
        }
        let (bullet, gossip, ae) = (&chunks[0][0], &chunks[1][0], &chunks[2][0]);
        figure.notes.push(format!(
            "useful: Bullet {:.0} Kbps, push gossip {:.0} Kbps, streaming w/AE {:.0} Kbps (paper: Bullet ~60% above both)",
            bullet.steady_state_kbps(),
            gossip.steady_state_kbps(),
            ae.steady_state_kbps()
        ));
        figure.notes.push(format!(
            "duplicate fractions: Bullet {:.1}%, gossip {:.1}%, AE {:.1}%",
            bullet.summary.duplicate_fraction * 100.0,
            gossip.summary.duplicate_fraction * 100.0,
            ae.summary.duplicate_fraction * 100.0
        ));
        push_seed_spread_notes(&mut figure, &chunks);
        vec![figure]
    })
}

/// Figures 13 and 14: bandwidth over time when one of the root's children
/// (the one with the most descendants) fails mid-run, without (Fig. 13, key
/// `fig13`) and with (Fig. 14, key `fig14`) RanSub epoch-timeout failure
/// detection.
pub(crate) fn failure_figure_plan(
    scale: Scale,
    sweep: &Sweep,
    ransub_failure_detection: bool,
) -> FigurePlan {
    let p = Params::new(scale, 13);
    let topo = prepare_topology(
        scale,
        p.participants,
        BandwidthProfile::Medium,
        LossProfile::None,
        p.seed,
    );
    let tree = Arc::new(topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed));
    // Fail the root child with the largest subtree, as in the paper's
    // worst-case single failure.
    let victim = tree
        .children(0)
        .iter()
        .copied()
        .max_by_key(|&c| tree.subtree_size(c))
        .expect("root has children");
    let descendants = tree.subtree_size(victim) - 1;
    let failure_time = SimTime::from_secs((p.duration.as_secs_f64() * 0.6) as u64);

    let mut config = p.bullet_config(PAPER_RATE_BPS);
    config.ransub_failure_detection = ransub_failure_detection;
    let label = if ransub_failure_detection {
        "Bullet, worst-case failure, RanSub recovery enabled"
    } else {
        "Bullet, worst-case failure, no RanSub recovery"
    };
    // The failure is a one-event scenario script. The driver pre-schedules
    // crashes through the simulator's event queue exactly like the legacy
    // `RunSpec::failure` injection, so the figure's numbers are unchanged
    // (asserted by `fig13_through_the_scenario_engine_matches_the_legacy_path`
    // in tests/end_to_end.rs).
    let script = Arc::new(ScenarioScript::single_crash(failure_time, victim));

    let seeds = sweep.run_seeds(p.seed);
    let tasks: Vec<RunTask> = seeds
        .iter()
        .enumerate()
        .map(|(k, &seed)| {
            let topo = topo.clone();
            let tree = tree.clone();
            let config = config.clone();
            let script = script.clone();
            let run = p.run_spec(&seed_label(label, k));
            Box::new(move || bullet_run_on(topo.network(), &tree, &config, &run, &script, seed))
                as RunTask
        })
        .collect();

    let seeds = seeds.len();
    let stream_start_secs = p.stream_start.as_secs_f64();
    FigurePlan::new(tasks, move |results| {
        let runs = chunked(results, seeds).remove(0);
        let (id, title) = if ransub_failure_detection {
            (
                "fig14",
                "Bandwidth over time with a worst-case node failure and RanSub recovery enabled",
            )
        } else {
            (
                "fig13",
                "Bandwidth over time with a worst-case node failure and no RanSub recovery",
            )
        };
        let mut figure = FigureResult::new(id, title);
        for result in &runs {
            figure.series.push(result.raw.clone());
            figure.series.push(result.useful.clone());
            figure.series.push(result.from_parent.clone());
            figure
                .summaries
                .push((result.label.clone(), result.summary.clone()));
        }

        // Quantify the drop: average useful bandwidth before vs after failure.
        let result = &runs[0];
        let before: Vec<f64> = result
            .times
            .iter()
            .zip(&result.useful.kbps)
            .filter(|(t, _)| **t > stream_start_secs + 20.0 && **t < failure_time.as_secs_f64())
            .map(|(_, k)| *k)
            .collect();
        let after: Vec<f64> = result
            .times
            .iter()
            .zip(&result.useful.kbps)
            .filter(|(t, _)| **t > failure_time.as_secs_f64() + 10.0)
            .map(|(_, k)| *k)
            .collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        figure.notes.push(format!(
            "failed node {victim} ({descendants} descendants) at t={:.0}s; useful bandwidth {:.0} Kbps before vs {:.0} Kbps after",
            failure_time.as_secs_f64(),
            mean(&before),
            mean(&after)
        ));
        push_seed_spread_notes(&mut figure, std::slice::from_ref(&runs));
        vec![figure]
    })
}

/// Figure 15: the constrained-source experiment standing in for the
/// PlanetLab deployment — Bullet over a random tree versus streaming over
/// hand-crafted good and worst trees at a 1.5 Mbps target.
pub(crate) fn fig15_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 15);
    let (regional, remote) = match scale {
        Scale::Small => (5, 15),
        Scale::Default => (10, 36),
        Scale::Paper => (10, 36),
    };
    let constrained = constrained_source_topology(regional, remote, true, p.seed);
    let source = constrained.source;
    let participants = constrained.spec.participants();
    let access_bps = constrained.access_bps.clone();
    let net = PreparedTopology::new(constrained.spec);

    let bullet_tree = Arc::new({
        let mut rng = bullet_netsim::SimRng::new(p.seed ^ 0x7EE);
        random_tree(participants, source, 10, &mut rng)
    });
    let good = Arc::new(good_tree(source, &access_bps, 3));
    let worst = Arc::new(worst_tree(source, &access_bps, 3));

    // Follow-up run: a well-provisioned source; both Bullet and a good tree
    // should reach (close to) the full 1.5 Mbps rate.
    let open = constrained_source_topology(regional, remote, false, p.seed);
    let open_source = open.source;
    let open_participants = open.spec.participants();
    let open_access = open.access_bps.clone();
    let open_net = PreparedTopology::new(open.spec);
    let open_tree = Arc::new({
        let mut rng = bullet_netsim::SimRng::new(p.seed ^ 0x7EE);
        random_tree(open_participants, open_source, 10, &mut rng)
    });
    let open_good = Arc::new(good_tree(open_source, &open_access, 3));

    let bullet_cfg = p.bullet_config(PLANETLAB_RATE_BPS);
    let stream_cfg = p.stream_config(PLANETLAB_RATE_BPS);
    let seeds = sweep.run_seeds(p.seed);
    let mut tasks: Vec<RunTask> = Vec::new();
    for (k, &seed) in seeds.iter().enumerate() {
        let net = net.clone();
        let tree = bullet_tree.clone();
        let config = bullet_cfg.clone();
        let run = p.run_spec(&seed_label("Bullet", k));
        tasks.push(Box::new(move || {
            bullet_run_on(net.network(), &tree, &config, &run, &NO_SCRIPT, seed)
        }));
    }
    for (tree, label) in [(good, "Good Tree"), (worst, "Worst Tree")] {
        for (k, &seed) in seeds.iter().enumerate() {
            let net = net.clone();
            let tree = tree.clone();
            let config = stream_cfg.clone();
            let run = p.run_spec(&seed_label(label, k));
            tasks.push(Box::new(move || {
                streaming_run_on(net.network(), &tree, &config, &run, &NO_SCRIPT, seed)
            }));
        }
    }
    for (k, &seed) in seeds.iter().enumerate() {
        let net = open_net.clone();
        let tree = open_tree.clone();
        let config = bullet_cfg.clone();
        let run = p.run_spec(&seed_label("Bullet (unconstrained source)", k));
        tasks.push(Box::new(move || {
            bullet_run_on(net.network(), &tree, &config, &run, &NO_SCRIPT, seed)
        }));
    }
    for (k, &seed) in seeds.iter().enumerate() {
        let net = open_net.clone();
        let tree = open_good.clone();
        let config = stream_cfg.clone();
        let run = p.run_spec(&seed_label("Good Tree (unconstrained source)", k));
        tasks.push(Box::new(move || {
            streaming_run_on(net.network(), &tree, &config, &run, &NO_SCRIPT, seed)
        }));
    }

    let seeds = seeds.len();
    FigurePlan::new(tasks, move |results| {
        let mut figure = FigureResult::new(
            "fig15",
            "Achieved bandwidth over time for Bullet and TFRC streaming over hand-crafted trees with a constrained source",
        );
        let chunks = chunked(results, seeds);
        for chunk in &chunks[0..3] {
            for result in chunk {
                figure.add_run(result);
            }
        }
        figure.notes.push(format!(
            "constrained source: Bullet {:.0} Kbps vs good tree {:.0} Kbps vs worst tree {:.0} Kbps (paper: Bullet well above both, good tree ~300 Kbps)",
            chunks[0][0].steady_state_kbps(),
            chunks[1][0].steady_state_kbps(),
            chunks[2][0].steady_state_kbps()
        ));
        figure.notes.push(format!(
            "unconstrained source: Bullet {:.0} Kbps vs good tree {:.0} Kbps (paper: both ~1.5 Mbps)",
            chunks[3][0].steady_state_kbps(),
            chunks[4][0].steady_state_kbps()
        ));
        for chunk in &chunks[3..5] {
            for result in chunk {
                figure.add_run(result);
            }
        }
        push_seed_spread_notes(&mut figure, &chunks);
        vec![figure]
    })
}

/// Ablations of Bullet's design choices (not a paper figure): disjoint send
/// on/off, resemblance-guided peering vs random peering.
pub(crate) fn ablations_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 20);
    let topo = prepare_topology(
        scale,
        p.participants,
        BandwidthProfile::Medium,
        LossProfile::None,
        p.seed,
    );
    let tree = Arc::new(topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed));

    let full = p.bullet_config(PAPER_RATE_BPS);
    let mut no_disjoint = full.clone();
    no_disjoint.disjoint_send = false;
    let mut random_peers = full.clone();
    random_peers.resemblance_peering = false;
    let variants: Vec<(&'static str, BulletConfig)> = vec![
        ("Bullet (full)", full),
        ("No disjoint send", no_disjoint),
        ("Random peer choice", random_peers),
    ];

    let seeds = sweep.run_seeds(p.seed);
    let mut tasks: Vec<RunTask> = Vec::new();
    for (label, config) in &variants {
        for (k, &seed) in seeds.iter().enumerate() {
            let topo = topo.clone();
            let tree = tree.clone();
            let config = config.clone();
            let run = p.run_spec(&seed_label(label, k));
            tasks.push(Box::new(move || {
                bullet_run_on(topo.network(), &tree, &config, &run, &NO_SCRIPT, seed)
            }));
        }
    }

    let seeds = seeds.len();
    FigurePlan::new(tasks, move |results| {
        let mut figure = FigureResult::new(
            "ablations",
            "Bullet design ablations: disjoint send and resemblance-guided peering",
        );
        let chunks = chunked(results, seeds);
        for chunk in &chunks {
            let result = &chunk[0];
            figure.notes.push(format!(
                "{}: useful {:.0} Kbps, duplicates {:.1}%",
                result.label,
                result.summary.steady_useful_kbps,
                result.summary.duplicate_fraction * 100.0
            ));
            for result in chunk {
                figure.add_run(result);
            }
        }
        push_seed_spread_notes(&mut figure, &chunks);
        vec![figure]
    })
}

/// Convenience used by tests and the quickstart example: a single small
/// Bullet run over a generated topology.
pub fn quick_bullet_demo(participants: usize, seconds: u64, seed: u64) -> RunResult {
    let topo = crate::env::build_topology(
        Scale::Small,
        participants,
        BandwidthProfile::Medium,
        LossProfile::None,
        seed,
    );
    let tree = crate::env::build_tree(&topo, TreeKind::Random { max_children: 6 }, 0, seed);
    let config = BulletConfig {
        stream_start: SimTime::from_secs(5),
        ..BulletConfig::default()
    };
    bullet_run_on(
        Network::new(&topo.spec),
        &tree,
        &config,
        &RunSpec::new(
            "Bullet demo",
            SimDuration::from_secs(seconds),
            SimDuration::from_secs(2),
        ),
        &NO_SCRIPT,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_twelve_rows_matching_the_paper() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().any(|(p, c, lo, hi)| p == "Low bandwidth"
            && c == "Client-Stub"
            && *lo == 300
            && *hi == 600));
        assert!(rows.iter().any(|(p, c, lo, hi)| p == "High bandwidth"
            && c == "Transit-Transit"
            && *lo == 10_000
            && *hi == 20_000));
    }

    #[test]
    fn quick_demo_delivers_data() {
        let result = quick_bullet_demo(15, 40, 1);
        assert!(result.steady_state_kbps() > 150.0);
        assert!(result.summary.median_delivery_fraction > 0.5);
    }

    #[test]
    fn figure_result_lookup_by_label() {
        let mut figure = FigureResult::new("x", "t");
        let mut series = BandwidthSeries::new("Bullet - Medium");
        series.push(1.0, 100.0);
        figure.series.push(series);
        assert!(figure.steady_state_of("Medium").is_some());
        assert!(figure.steady_state_of("High").is_none());
    }

    #[test]
    fn chunking_is_configuration_major() {
        let run = |label: &str| RunResult {
            label: label.into(),
            times: Vec::new(),
            useful: BandwidthSeries::new(label),
            raw: BandwidthSeries::new(label),
            from_parent: BandwidthSeries::new(label),
            per_node_useful_bytes: Vec::new(),
            per_node_fresh_bytes: Vec::new(),
            source: 0,
            summary: RunSummary::default(),
            routing: bullet_netsim::RoutingStats {
                mode: bullet_netsim::RoutingMode::EagerPerSource,
                route_queries: 0,
                batched_queries: 0,
                trees_built: 0,
                lazy_searches: 0,
                routers_settled: 0,
                landmarks: 0,
            },
            telemetry: None,
        };
        let results = vec![run("a0"), run("a1"), run("b0"), run("b1")];
        let chunks = chunked(results, 2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0][1].label, "a1");
        assert_eq!(chunks[1][0].label, "b0");
    }
}
