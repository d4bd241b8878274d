//! The figure suite: every figure of the evaluation as one flattened,
//! parallel, deterministic run grid.
//!
//! [`figure_suite`] concatenates the run grids of every figure plan
//! (paper figures 6–15, the ablations, and the scenario-dynamics figures)
//! and executes them on a single [`RunPool`](crate::pool::RunPool) — the
//! pool packs long and short runs onto workers greedily, so the whole
//! evaluation saturates the machine instead of each figure draining its
//! own small grid. Results are collected in task order and each figure is
//! assembled from its own ordered slice, so the suite's output — every
//! [`FigureResult`] and every rendered report byte — is identical at any
//! thread count (`tests/parallel.rs` gates this at 1 vs 8 threads). The
//! caller hands every entry point its [`Sweep`].

use crate::figures::{
    ablations_plan, failure_figure_plan, fig06_plan, fig07_plan, fig09_plan, fig10_plan,
    fig11_plan, fig12_plan, fig15_plan, FigurePlan, FigureResult,
};
use crate::pool::Sweep;
use crate::report::render_figure;
use crate::scale::Scale;
use crate::scenarios::{
    adversary_plan, churn_plan, flash_crowd_plan, oscillating_bottleneck_plan, overload_plan,
    partition_plan, recovery_plan,
};

/// The plan keys of the full suite, in assembly order. Subset requests
/// ([`figure_suite_subset`]) name plans by these keys; the `fig07` plan
/// also emits `fig08` (the CDF is derived from the Fig. 7 run).
pub const SUITE_PLAN_KEYS: &[&str] = &[
    "fig06",
    "fig07",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablations",
    "churn",
    "flashcrowd",
    "oscillation",
    "recovery",
    "partition",
    "adversary",
    "overload",
];

/// Builds the plans selected by `keys` (see [`SUITE_PLAN_KEYS`]).
///
/// Plan construction is itself grid work — it generates the figure's
/// topology, builds its shared `NetworkSetup`, and runs the oracle tree
/// constructions, which dominate per-figure setup at paper scale — so the
/// plans are built as pool tasks too, one per key, before the flattened
/// run grid starts. Each plan builder is deterministic and independent,
/// and results come back in key order, so this changes nothing about the
/// output.
///
/// # Panics
///
/// Panics on an unknown key — a silently skipped figure would make a
/// "suite is bit-identical" claim vacuous.
fn plans_for(scale: Scale, sweep: &Sweep, keys: &[&str]) -> Vec<FigurePlan> {
    let builders: Vec<crate::pool::Task<'_, FigurePlan>> = keys
        .iter()
        .map(|&key| {
            Box::new(move || match key {
                "fig06" => fig06_plan(scale, sweep),
                "fig07" => fig07_plan(scale, sweep),
                "fig09" => fig09_plan(scale, sweep),
                "fig10" => fig10_plan(scale, sweep),
                "fig11" => fig11_plan(scale, sweep),
                "fig12" => fig12_plan(scale, sweep),
                "fig13" => failure_figure_plan(scale, sweep, false),
                "fig14" => failure_figure_plan(scale, sweep, true),
                "fig15" => fig15_plan(scale, sweep),
                "ablations" => ablations_plan(scale, sweep),
                "churn" => churn_plan(scale, sweep),
                "flashcrowd" => flash_crowd_plan(scale, sweep),
                "oscillation" => oscillating_bottleneck_plan(scale, sweep),
                "recovery" => recovery_plan(scale, sweep),
                "partition" => partition_plan(scale, sweep),
                "adversary" => adversary_plan(scale, sweep),
                "overload" => overload_plan(scale, sweep),
                other => panic!("unknown figure plan key {other:?} (see SUITE_PLAN_KEYS)"),
            }) as crate::pool::Task<'_, FigurePlan>
        })
        .collect();
    sweep.pool().run(builders)
}

/// Runs the full figure suite (see the module docs) and returns the
/// assembled figures in [`SUITE_PLAN_KEYS`] order.
pub fn figure_suite(scale: Scale, sweep: &Sweep) -> Vec<FigureResult> {
    figure_suite_subset(scale, SUITE_PLAN_KEYS, sweep)
}

/// Runs the named subset of the suite as one flattened grid (used by the
/// thread-invariance tests and the `figures` bench; keys per
/// [`SUITE_PLAN_KEYS`]).
pub fn figure_suite_subset(scale: Scale, keys: &[&str], sweep: &Sweep) -> Vec<FigureResult> {
    let plans = plans_for(scale, sweep, keys);
    let mut tasks = Vec::new();
    let mut grid_widths = Vec::new();
    let mut assembles = Vec::new();
    for plan in plans {
        grid_widths.push(plan.task_count());
        let (plan_tasks, assemble) = plan.into_parts();
        tasks.extend(plan_tasks);
        assembles.push(assemble);
    }
    let mut results = sweep.pool().run(tasks);
    let mut figures = Vec::new();
    for (width, assemble) in grid_widths.into_iter().zip(assembles) {
        let rest = results.split_off(width);
        let own = std::mem::replace(&mut results, rest);
        figures.extend(assemble(own));
    }
    figures
}

/// Renders a whole suite the way the `figures` bench does, one report
/// after another. Byte-identical across thread counts by construction;
/// the thread-invariance gate compares these strings directly.
pub fn render_suite(figures: &[FigureResult]) -> String {
    let mut out = String::new();
    for figure in figures {
        out.push_str(&render_figure(figure));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown figure plan key")]
    fn unknown_subset_keys_are_rejected() {
        figure_suite_subset(Scale::Small, &["fig99"], &Sweep::new(1, 1));
    }

    #[test]
    fn subset_runs_one_flattened_grid() {
        // The cheapest real subset: one figure, one seed, serial — the
        // reference execution. (Thread invariance of the same subset is
        // gated in tests/parallel.rs at the workspace level.)
        let figures = figure_suite_subset(Scale::Small, &["fig06"], &Sweep::new(1, 1));
        assert_eq!(figures.len(), 1);
        assert_eq!(figures[0].id, "fig06");
        assert_eq!(figures[0].series.len(), 2);
    }
}
