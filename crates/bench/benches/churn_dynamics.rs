//! Scenario-dynamics figures: churn, flash crowd, oscillating bottleneck.
//!
//! Renders the three scenario figures from `bullet_experiments::scenarios`
//! at the selected `BULLET_SCALE`.
//!
//! Setting `BULLET_SCENARIO` additionally runs a Bullet random-tree figure
//! under that custom script (see the README's "Scenarios" section for the
//! format) — a harness for one-off what-if runs.

use bullet_bench::announce;
use bullet_dynamics::ScenarioScript;
use bullet_experiments::{
    build_topology, build_tree, bullet_run_scenario, report, scenarios, FigureResult, RunSpec,
    Scale, TreeKind,
};
use bullet_netsim::{SimDuration, SimTime};
use bullet_topology::{BandwidthProfile, LossProfile};

fn main() {
    let scale = announce("Scenario dynamics — churn, flash crowd, oscillating bottleneck");

    for (name, build) in [
        (
            "churn",
            scenarios::churn_figure as fn(Scale) -> FigureResult,
        ),
        ("flashcrowd", scenarios::flash_crowd_figure),
        ("oscillation", scenarios::oscillating_bottleneck_figure),
    ] {
        println!("\n== {name} ==");
        print!("{}", report::render_figure(&build(scale)));
    }

    if let Some(script) = ScenarioScript::from_env() {
        println!("\n== custom BULLET_SCENARIO ==");
        let seed = 99;
        let topo = build_topology(
            scale,
            scale.participants(),
            BandwidthProfile::Medium,
            LossProfile::None,
            seed,
        );
        let tree = build_tree(&topo, TreeKind::Random { max_children: 10 }, 0, seed);
        let config = bullet_core::BulletConfig {
            stream_rate_bps: 600_000.0,
            stream_start: SimTime::from_secs(scale.stream_start_secs()),
            ..bullet_core::BulletConfig::default()
        }
        .churn();
        let run = RunSpec {
            label: format!("Bullet - custom scenario ({} events)", script.len()),
            source: 0,
            duration: SimDuration::from_secs(scale.duration_secs()),
            sample_interval: SimDuration::from_secs(scale.sample_secs()),
            failure: None,
        };
        let result = bullet_run_scenario(&topo.spec, &tree, &config, &run, &script, seed);
        let mut figure = FigureResult {
            id: "custom".into(),
            title: "Bullet under the BULLET_SCENARIO script".into(),
            ..FigureResult::default()
        };
        figure.series.push(result.useful.clone());
        figure
            .summaries
            .push((result.label.clone(), result.summary.clone()));
        print!("{}", report::render_figure(&figure));
    }
}
