//! Per-figure experiment definitions.
//!
//! One `*_plan` function per figure of the paper's evaluation (§4), named by
//! a key in [`crate::suite::SUITE_PLAN_KEYS`] — the plan and the key are all
//! a figure is; [`crate::suite::figure_suite_subset`] and the `figures` bench
//! run it by key. Each builds the topology and trees the paper describes,
//! runs the systems under comparison, and assembles a [`FigureResult`]
//! containing the same curves the figure plots plus the scalar numbers
//! quoted in the surrounding text.
//!
//! # The run grid
//!
//! Every figure is a **plan**: the arms it compares plus an assembly step
//! that turns their results into the figure. A plan names its arms — one
//! closure per arm that performs a run under a given [`RunSpec`] and seed —
//! and the grid builder (`RunGrid`) owns the rest: the seeds of the
//! caller's [`Sweep`] (index 0 is the arm's base seed, so a one-seed sweep
//! renders the output the goldens pin), the `[seed k]` labels
//! of the extra seeds, one run task per (arm, seed), the arm-major,
//! seed-minor split of the results the assembly receives, and one
//! steady-state spread note per multi-seed arm, appended after the plan's
//! own notes on the first figure it returns.
//!
//! Plans execute on the sweep's scoped-thread
//! [`RunPool`](crate::pool::RunPool), and
//! [`crate::suite::figure_suite`] flattens the plans of *every* figure into
//! one grid so the whole evaluation saturates the machine. Because results
//! are collected in task order and each run owns all of its mutable state
//! (the expensive immutable setup — generated topology, bandwidth
//! assignment, ALT landmark tables — is shared read-only via `Arc`, see
//! [`crate::env::PreparedTopology`]), figure output is bit-identical at any
//! thread count.

use std::sync::Arc;

use bullet_baselines::{StreamConfig, StreamTransport};
use bullet_core::BulletConfig;
use bullet_dynamics::ScenarioScript;
use bullet_netsim::{SimDuration, SimTime};
use bullet_overlay::{good_tree, worst_tree};
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
        self.series.push(result.curve(&result.useful));
        self.summaries
            .push((result.label.clone(), result.summary.clone()));
    }

    /// Adds a Bullet run's raw, useful and from-parent curves and its
    /// summary (Figs. 7, 10, 13 and 14).
    fn add_breakdown(&mut self, result: &RunResult) {
        for series in [&result.raw, &result.useful, &result.from_parent] {
            self.series.push(result.curve(series));
        }
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

/// A figure as a run grid plus its assembly step (see the module docs),
/// built by [`RunGrid`]. Most plans assemble exactly one figure; the Fig. 7
/// plan also derives Fig. 8 from its run.
pub(crate) struct FigurePlan {
    tasks: Vec<RunTask>,
    assemble: AssembleFn,
}

impl FigurePlan {
    /// Number of runs in this plan's grid.
    pub(crate) fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Splits the plan for suite-level flattening.
    pub(crate) fn into_parts(self) -> (Vec<RunTask>, AssembleFn) {
        (self.tasks, self.assemble)
    }
}

/// The one builder of [`FigurePlan`]s: a plan names its arms, the grid owns
/// the sweep (see the module docs).
pub(crate) struct RunGrid {
    sweep: Sweep,
    tasks: Vec<RunTask>,
}

impl RunGrid {
    pub(crate) fn new(sweep: &Sweep) -> Self {
        RunGrid {
            sweep: *sweep,
            tasks: Vec::new(),
        }
    }

    /// Adds the arm `label`: `run(spec, seed)` once per sweep seed, the
    /// first being `p.seed`, under `p`'s run spec labelled `label` and then
    /// `label [seed k]`.
    pub(crate) fn arm(
        &mut self,
        p: &Params,
        label: &str,
        run: impl Fn(&RunSpec, u64) -> RunResult + Send + Sync + 'static,
    ) {
        let run = Arc::new(run);
        for (k, seed) in self.sweep.run_seeds(p.seed).into_iter().enumerate() {
            let (run, spec) = (run.clone(), p.run_spec(&seed_label(label, k)));
            self.tasks.push(Box::new(move || run(&spec, seed)));
        }
    }

    /// Finishes the plan: `assemble` receives the results arm by arm, in the
    /// order the arms were added, each arm's runs in seed order; one spread
    /// note per multi-seed arm follows its notes on the first figure.
    pub(crate) fn assemble(
        self,
        assemble: impl FnOnce(&[Vec<RunResult>]) -> Vec<FigureResult> + Send + 'static,
    ) -> FigurePlan {
        let seeds = self.sweep.seeds();
        FigurePlan {
            tasks: self.tasks,
            assemble: Box::new(move |results| {
                let mut results = results.into_iter();
                let arms: Vec<Vec<RunResult>> = (0..results.len() / seeds)
                    .map(|_| results.by_ref().take(seeds).collect())
                    .collect();
                let mut figures = assemble(&arms);
                for arm in arms.iter().filter(|arm| arm.len() > 1) {
                    let rates: Vec<f64> = arm.iter().map(RunResult::steady_state_kbps).collect();
                    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
                    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    figures[0].notes.push(format!(
                        "{}: across {seeds} seeds, steady useful mean {mean:.0} Kbps (min {min:.0}, max {max:.0})",
                        arm[0].label,
                    ));
                }
                figures
            }),
        }
    }
}

/// Shared experiment parameters derived from the scale, and one arm's base
/// seed.
#[derive(Clone, Copy)]
pub(crate) struct Params {
    scale: Scale,
    pub(crate) participants: usize,
    pub(crate) duration: SimDuration,
    pub(crate) sample: SimDuration,
    pub(crate) stream_start: SimTime,
    pub(crate) seed: u64,
}

impl Params {
    pub(crate) fn new(scale: Scale, seed: u64) -> Self {
        Params {
            scale,
            participants: scale.participants(),
            duration: SimDuration::from_secs(scale.duration_secs()),
            sample: SimDuration::from_secs(scale.sample_secs()),
            stream_start: SimTime::from_secs(scale.stream_start_secs()),
            seed,
        }
    }

    /// The figure's generated topology: `participants` nodes at the scale,
    /// drawn from the base seed.
    pub(crate) fn topology(
        &self,
        profile: BandwidthProfile,
        loss: LossProfile,
    ) -> PreparedTopology {
        prepare_topology(self.scale, self.participants, profile, loss, self.seed)
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
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let stream = p.stream_config(PAPER_RATE_BPS);
    let mut plan = RunGrid::new(sweep);
    for (kind, label) in [
        (TreeKind::Bottleneck, "Bottleneck bandwidth tree"),
        (TreeKind::Random { max_children: 10 }, "Random tree"),
    ] {
        let (topo, tree, stream) = (topo.clone(), topo.tree(kind, 0, p.seed), stream.clone());
        plan.arm(&p, label, move |run, seed| {
            streaming_run_on(topo.network(), &tree, &stream, run, &NO_SCRIPT, seed)
        });
    }
    plan.assemble(|arms| {
        let mut figure = FigureResult::new(
            "fig06",
            "Achieved bandwidth over time for TFRC streaming over the bottleneck bandwidth tree and a random tree",
        );
        for result in arms.iter().flatten() {
            figure.add_run(result);
        }
        let bottleneck_kbps = figure.steady_state_of("Bottleneck").unwrap_or(0.0);
        let random_kbps = figure.steady_state_of("Random").unwrap_or(0.0);
        figure.notes.push(format!(
            "bottleneck tree {:.0} Kbps vs random tree {:.0} Kbps (paper: ~400 vs <100)",
            bottleneck_kbps, random_kbps
        ));
        vec![figure]
    })
}

/// Figure 7: Bullet over a random tree — raw total, useful total, and
/// from-parent bandwidth over time, plus the §4.2 scalars (control overhead,
/// duplicate ratio, link stress). One Bullet-over-random-tree arm; the plan
/// also emits Fig. 8, a CDF over the same run.
pub(crate) fn fig07_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 7);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
    let config = p.bullet_config(PAPER_RATE_BPS);
    let mut plan = RunGrid::new(sweep);
    plan.arm(&p, "Bullet (random tree)", move |run, seed| {
        bullet_run_on(topo.network(), &tree, &config, run, &NO_SCRIPT, seed)
    });
    plan.assemble(|arms| {
        let mut figure = FigureResult::new(
            "fig07",
            "Achieved bandwidth over time for Bullet over a random tree",
        );
        for result in &arms[0] {
            figure.add_breakdown(result);
        }
        let result = &arms[0][0];
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

/// The profiles of the bandwidth sweeps, in figure order.
const SWEPT_PROFILES: [(BandwidthProfile, &str); 3] = [
    (BandwidthProfile::High, "High Bandwidth"),
    (BandwidthProfile::Medium, "Medium Bandwidth"),
    (BandwidthProfile::Low, "Low Bandwidth"),
];

/// Two arms per profile, Bullet then the bottleneck tree, each profile on
/// its own topology and base seed.
fn bandwidth_sweep_plan(
    scale: Scale,
    sweep: &Sweep,
    loss: LossProfile,
    id: &str,
    title: &str,
) -> FigurePlan {
    let mut plan = RunGrid::new(sweep);
    for (profile, name) in SWEPT_PROFILES {
        let p = Params::new(scale, 9 + profile as u64);
        let topo = p.topology(profile, loss);
        let random = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
        let (bullet_topo, config) = (topo.clone(), p.bullet_config(PAPER_RATE_BPS));
        plan.arm(&p, &format!("Bullet - {name}"), move |run, seed| {
            bullet_run_on(
                bullet_topo.network(),
                &random,
                &config,
                run,
                &NO_SCRIPT,
                seed,
            )
        });
        let bottleneck = topo.tree(TreeKind::Bottleneck, 0, p.seed);
        let stream = p.stream_config(PAPER_RATE_BPS);
        plan.arm(
            &p,
            &format!("Bottleneck tree - {name}"),
            move |run, seed| {
                streaming_run_on(topo.network(), &bottleneck, &stream, run, &NO_SCRIPT, seed)
            },
        );
    }
    let (id, title) = (id.to_string(), title.to_string());
    plan.assemble(move |arms| {
        let mut figure = FigureResult::new(&id, &title);
        for (pair, (_, name)) in arms.chunks(2).zip(SWEPT_PROFILES) {
            for run in pair.iter().flatten() {
                figure.add_run(run);
            }
            let (bullet, tree) = (&pair[0][0], &pair[1][0]);
            let ratio = bullet.steady_state_kbps() / tree.steady_state_kbps().max(1.0);
            figure.notes.push(format!(
                "{name}: Bullet {:.0} Kbps vs bottleneck tree {:.0} Kbps (x{:.2})",
                bullet.steady_state_kbps(),
                tree.steady_state_kbps(),
                ratio
            ));
        }
        vec![figure]
    })
}

/// Figure 10: the non-disjoint transmission strategy (every parent tries to
/// send everything to every child).
pub(crate) fn fig10_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 10);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
    let mut config = p.bullet_config(PAPER_RATE_BPS);
    config.disjoint_send = false;
    let mut plan = RunGrid::new(sweep);
    plan.arm(&p, "Bullet (non-disjoint strategy)", move |run, seed| {
        bullet_run_on(topo.network(), &tree, &config, run, &NO_SCRIPT, seed)
    });
    plan.assemble(|arms| {
        let mut figure = FigureResult::new(
            "fig10",
            "Achieved bandwidth over time using non-disjoint data transmission",
        );
        for result in &arms[0] {
            figure.add_breakdown(result);
        }
        figure.notes.push(format!(
            "useful {:.0} Kbps with the disjoint strategy disabled (paper: ~25% below Fig. 7)",
            arms[0][0].summary.steady_useful_kbps
        ));
        vec![figure]
    })
}

/// Figure 11: Bullet versus push gossip and streaming with anti-entropy
/// recovery (900 Kbps target, loss-free topology, full membership for the
/// epidemics).
pub(crate) fn fig11_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let mut p = Params::new(scale, 11);
    p.participants = scale.epidemic_participants();
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let mut plan = RunGrid::new(sweep);

    let random = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
    let (bullet_topo, config) = (topo.clone(), p.bullet_config(EPIDEMIC_RATE_BPS));
    plan.arm(&p, "Bullet", move |run, seed| {
        bullet_run_on(
            bullet_topo.network(),
            &random,
            &config,
            run,
            &NO_SCRIPT,
            seed,
        )
    });
    let stream = p.stream_config(EPIDEMIC_RATE_BPS);
    let (gossip_topo, gossip) = (topo.clone(), stream.clone());
    plan.arm(&p, "Push gossiping", move |run, seed| {
        gossip_run_on(gossip_topo.network(), 0, &gossip, run, &NO_SCRIPT, seed)
    });
    let bottleneck = topo.tree(TreeKind::Bottleneck, 0, p.seed);
    plan.arm(&p, "Streaming w/AE", move |run, seed| {
        antientropy_run_on(topo.network(), &bottleneck, &stream, run, &NO_SCRIPT, seed)
    });

    plan.assemble(|arms| {
        let mut figure = FigureResult::new(
            "fig11",
            "Achieved bandwidth over time for Bullet and epidemic approaches",
        );
        for result in arms.iter().flatten() {
            figure.series.push(result.curve(&result.raw));
            figure.add_run(result);
        }
        let (bullet, gossip, ae) = (&arms[0][0], &arms[1][0], &arms[2][0]);
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
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
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
    let (id, title, label) = if ransub_failure_detection {
        (
            "fig14",
            "Bandwidth over time with a worst-case node failure and RanSub recovery enabled",
            "Bullet, worst-case failure, RanSub recovery enabled",
        )
    } else {
        (
            "fig13",
            "Bandwidth over time with a worst-case node failure and no RanSub recovery",
            "Bullet, worst-case failure, no RanSub recovery",
        )
    };
    // The failure is a one-event scenario script. The driver pre-schedules
    // crashes through the simulator's event queue exactly like the legacy
    // `RunSpec::failure` injection, so the figure's numbers are unchanged
    // (asserted by `fig13_through_the_scenario_engine_matches_the_legacy_path`
    // in tests/end_to_end.rs).
    let script = ScenarioScript::single_crash(failure_time, victim);
    let mut plan = RunGrid::new(sweep);
    plan.arm(&p, label, move |run, seed| {
        bullet_run_on(topo.network(), &tree, &config, run, &script, seed)
    });

    let stream_start_secs = p.stream_start.as_secs_f64();
    plan.assemble(move |arms| {
        let mut figure = FigureResult::new(id, title);
        for result in &arms[0] {
            figure.add_breakdown(result);
        }

        // Quantify the drop: average useful bandwidth before vs after failure.
        let result = &arms[0][0];
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
        vec![figure]
    })
}

/// Figure 15: the constrained-source experiment standing in for the
/// PlanetLab deployment — Bullet over a random tree versus streaming over
/// hand-crafted good and worst trees at a 1.5 Mbps target — then, on a
/// well-provisioned source, Bullet and the good tree, which should both
/// reach (close to) the full rate.
pub(crate) fn fig15_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 15);
    let (regional, remote) = match scale {
        Scale::Small => (5, 15),
        Scale::Default => (10, 36),
        Scale::Paper => (10, 36),
    };
    let bullet_cfg = p.bullet_config(PLANETLAB_RATE_BPS);
    let stream_cfg = p.stream_config(PLANETLAB_RATE_BPS);
    let mut plan = RunGrid::new(sweep);
    for (constrain, suffix) in [(true, ""), (false, " (unconstrained source)")] {
        let env = constrained_source_topology(regional, remote, constrain, p.seed);
        let (source, access) = (env.source, env.access_bps);
        let net = PreparedTopology::new(env.spec);
        let tree = net.tree(TreeKind::Random { max_children: 10 }, source, p.seed);
        let (bullet_net, config) = (net.clone(), bullet_cfg.clone());
        plan.arm(&p, &format!("Bullet{suffix}"), move |run, seed| {
            bullet_run_on(bullet_net.network(), &tree, &config, run, &NO_SCRIPT, seed)
        });
        let mut trees = vec![("Good Tree", good_tree(source, &access, 3))];
        if constrain {
            trees.push(("Worst Tree", worst_tree(source, &access, 3)));
        }
        for (label, tree) in trees {
            let (net, stream) = (net.clone(), stream_cfg.clone());
            plan.arm(&p, &format!("{label}{suffix}"), move |run, seed| {
                streaming_run_on(net.network(), &tree, &stream, run, &NO_SCRIPT, seed)
            });
        }
    }

    plan.assemble(|arms| {
        let mut figure = FigureResult::new(
            "fig15",
            "Achieved bandwidth over time for Bullet and TFRC streaming over hand-crafted trees with a constrained source",
        );
        for result in arms[0..3].iter().flatten() {
            figure.add_run(result);
        }
        figure.notes.push(format!(
            "constrained source: Bullet {:.0} Kbps vs good tree {:.0} Kbps vs worst tree {:.0} Kbps (paper: Bullet well above both, good tree ~300 Kbps)",
            arms[0][0].steady_state_kbps(),
            arms[1][0].steady_state_kbps(),
            arms[2][0].steady_state_kbps()
        ));
        figure.notes.push(format!(
            "unconstrained source: Bullet {:.0} Kbps vs good tree {:.0} Kbps (paper: both ~1.5 Mbps)",
            arms[3][0].steady_state_kbps(),
            arms[4][0].steady_state_kbps()
        ));
        for result in arms[3..5].iter().flatten() {
            figure.add_run(result);
        }
        vec![figure]
    })
}

/// Ablations of Bullet's design choices (not a paper figure): disjoint send
/// on/off, resemblance-guided peering vs random peering.
pub(crate) fn ablations_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 20);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);

    let full = p.bullet_config(PAPER_RATE_BPS);
    let mut no_disjoint = full.clone();
    no_disjoint.disjoint_send = false;
    let mut random_peers = full.clone();
    random_peers.resemblance_peering = false;
    let mut plan = RunGrid::new(sweep);
    for (label, config) in [
        ("Bullet (full)", full),
        ("No disjoint send", no_disjoint),
        ("Random peer choice", random_peers),
    ] {
        let (topo, tree) = (topo.clone(), tree.clone());
        plan.arm(&p, label, move |run, seed| {
            bullet_run_on(topo.network(), &tree, &config, run, &NO_SCRIPT, seed)
        });
    }

    plan.assemble(|arms| {
        let mut figure = FigureResult::new(
            "ablations",
            "Bullet design ablations: disjoint send and resemblance-guided peering",
        );
        for arm in arms {
            let result = &arm[0];
            figure.notes.push(format!(
                "{}: useful {:.0} Kbps, duplicates {:.1}%",
                result.label,
                result.summary.steady_useful_kbps,
                result.summary.duplicate_fraction * 100.0
            ));
            for result in arm {
                figure.add_run(result);
            }
        }
        vec![figure]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RateSeries;
    use bullet_netsim::Network;

    /// A single small Bullet run over a generated topology.
    fn quick_bullet_demo(participants: usize, seconds: u64, seed: u64) -> RunResult {
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
        figure.series.push(BandwidthSeries {
            label: "Bullet - Medium".into(),
            times: vec![1.0],
            kbps: vec![100.0],
        });
        assert!(figure.steady_state_of("Medium").is_some());
        assert!(figure.steady_state_of("High").is_none());
    }

    /// A run that simulates nothing: it carries its spec's label and, in
    /// `source`, the seed it was handed.
    fn placeholder(run: &RunSpec, seed: u64) -> RunResult {
        let empty = || RateSeries {
            label: run.label.clone(),
            kbps: Vec::new(),
        };
        RunResult {
            label: run.label.clone(),
            times: Vec::new(),
            useful: empty(),
            raw: empty(),
            from_parent: empty(),
            per_node_useful_bytes: Vec::new(),
            per_node_fresh_bytes: Vec::new(),
            source: seed as usize,
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
        }
    }

    /// Runs a two-arm placeholder grid (arms `a` and `b` on base seeds 5
    /// and 9) over `seeds` seeds; each figure note the assembly writes is
    /// one arm's `label@seed` runs.
    fn placeholder_grid(seeds: usize) -> Vec<FigureResult> {
        let sweep = Sweep::new(2, seeds);
        let mut plan = RunGrid::new(&sweep);
        for (label, base) in [("a", 5), ("b", 9)] {
            plan.arm(&Params::new(Scale::Small, base), label, placeholder);
        }
        let (tasks, assemble) = plan
            .assemble(|arms| {
                let mut figure = FigureResult::new("x", "grid");
                for arm in arms {
                    let runs: Vec<String> = arm
                        .iter()
                        .map(|r| format!("{}@{}", r.label, r.source))
                        .collect();
                    figure.notes.push(runs.join(", "));
                }
                vec![figure, FigureResult::new("y", "second")]
            })
            .into_parts();
        assemble(sweep.pool().run(tasks))
    }

    #[test]
    fn run_grid_hands_assembly_its_arms_seed_minor_and_adds_spread_notes() {
        let figures = placeholder_grid(3);
        assert_eq!(figures.len(), 2);
        let notes = &figures[0].notes;
        // Arm-major, seed-minor; the seed-0 label is bare and each arm's
        // first run gets its own base seed.
        for (note, (label, base)) in notes.iter().zip([("a", 5), ("b", 9)]) {
            let seeds = Sweep::new(1, 3).run_seeds(base);
            assert_eq!(seeds[0], base);
            assert_eq!(
                *note,
                format!(
                    "{label}@{base}, {label} [seed 1]@{}, {label} [seed 2]@{}",
                    seeds[1], seeds[2]
                )
            );
        }
        // One spread note per arm, after the plan's notes, on the first
        // figure only.
        assert_eq!(notes.len(), 4);
        assert!(notes[2].starts_with("a: across 3 seeds, steady useful mean"));
        assert!(notes[3].starts_with("b: across 3 seeds, steady useful mean"));
        assert!(figures[1].notes.is_empty());
    }

    #[test]
    fn a_one_seed_grid_adds_no_spread_note() {
        let figures = placeholder_grid(1);
        assert_eq!(figures[0].notes, ["a@5", "b@9"]);
        assert!(figures[1].notes.is_empty());
    }
}
