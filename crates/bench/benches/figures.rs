//! Every figure of the evaluation, by plan key: `cargo bench -p bullet-bench
//! --bench figures -- fig07 overload` runs the named plans
//! (`bullet_experiments::SUITE_PLAN_KEYS`; `fig07` also emits Fig. 8 with its
//! CDF table) as one flattened grid at `BULLET_SCALE` and prints their
//! reports. No keys runs the whole suite; an unknown key panics. The
//! bench-side key `table1` prints Table 1 (the bandwidth range of each link
//! class under each profile) first; alone, it prints only the table. The
//! claims behind the recovery, adversary and overload figures are tests in
//! `tests/end_to_end.rs`. Setting `BULLET_SCENARIO` additionally runs a
//! Bullet random-tree figure under that custom script (format: README,
//! "Scenarios") — a harness for one-off what-if runs.

use bullet_bench::{announce, Knobs};
use bullet_experiments::{
    bullet_run_on, figure_suite_subset, figures, prepare_topology, render_suite, report,
    FigureResult, RunSpec, TreeKind, SUITE_PLAN_KEYS,
};
use bullet_netsim::{SimDuration, SimTime};
use bullet_topology::{BandwidthProfile, LossProfile};

fn main() {
    // Cargo appends its own `--bench` flag to the keys.
    let args: Vec<String> = std::env::args().filter(|a| !a.starts_with("--")).collect();
    let mut keys: Vec<&str> = args.iter().skip(1).map(String::as_str).collect();
    let table1 = keys.contains(&"table1");
    if keys.is_empty() {
        keys = SUITE_PLAN_KEYS.to_vec();
    }
    let Knobs {
        scale,
        sweep,
        scenario,
    } = announce(&format!("Figures — {}", keys.join(", ")));
    if table1 {
        print!("{}", report::render_table1(&figures::table1_rows()));
        keys.retain(|&key| key != "table1");
    }
    if !keys.is_empty() {
        print!(
            "{}",
            render_suite(&figure_suite_subset(scale, &keys, &sweep))
        );
    }

    if let Some(script) = scenario {
        let seed = 99;
        let topo = prepare_topology(
            scale,
            scale.participants(),
            BandwidthProfile::Medium,
            LossProfile::None,
            seed,
        );
        let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, seed);
        let config = bullet_core::BulletConfig {
            stream_rate_bps: 600_000.0,
            stream_start: SimTime::from_secs(scale.stream_start_secs()),
            ..bullet_core::BulletConfig::default()
        }
        .churn();
        let run = RunSpec::new(
            format!("Bullet - custom scenario ({} events)", script.len()),
            SimDuration::from_secs(scale.duration_secs()),
            SimDuration::from_secs(scale.sample_secs()),
        );
        let result = bullet_run_on(topo.network(), &tree, &config, &run, &script, seed);
        let figure = FigureResult {
            id: "custom".into(),
            title: "Bullet under the BULLET_SCENARIO script".into(),
            series: vec![result.curve(&result.useful)],
            summaries: vec![(result.label, result.summary)],
            ..FigureResult::default()
        };
        print!("{}", report::render_figure(&figure));
    }
}
