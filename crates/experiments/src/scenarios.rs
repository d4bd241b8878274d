//! Scenario-dynamics experiment figures (beyond the paper's evaluation).
//!
//! The paper freezes the network for the length of every run and scripts at
//! most one node failure; these figures exercise the regimes fault-
//! resilient streaming overlays are actually judged on — continuous churn,
//! flash crowds and time-varying bottlenecks — using the
//! `bullet-dynamics` scenario engine. Each is a plan on the same run grid
//! as the paper figures (arms named by the plan, seeds, labels and spread
//! notes owned by the builder; see "The run grid" in the
//! [`crate::figures`] module docs), so the report printers and the
//! `figures` bench consume them unchanged. An arm whose script is drawn
//! from a seed builds it inside the arm from the seed it is handed, so
//! extra sweep seeds sample genuinely different event sequences (churn,
//! crowd arrivals, partitions, adversary placement, storms), not just
//! different protocol RNG draws; a note quoting a script fact quotes the
//! base seed's script.

use bullet_core::config::FRESHNESS_DEADLINE;
use bullet_core::OverloadConfig;
use bullet_dynamics::{ChurnConfig, ScenarioAction, ScenarioScript};
use bullet_netsim::{FaultPlan, NetworkSpec, NodeResources, OverlayId, QueueDiscipline, SimTime};
use bullet_topology::{BandwidthProfile, LossProfile};

use crate::env::TreeKind;
use crate::figures::{FigurePlan, FigureResult, Params, RunGrid};
use crate::pool::Sweep;
use crate::protocols::{bullet_run_on, bullet_run_resourced_on, streaming_run_on, NO_SCRIPT};
use crate::runner::RunResult;
use crate::scale::Scale;

/// The target stream rate the scenario figures use (the paper's 600 Kbps).
const SCENARIO_RATE_BPS: f64 = 600_000.0;

/// The physical (spec) link index of `node`'s access link — the first link
/// incident to its attachment router. With the generated topologies'
/// degree-one leaf attachment this is *the* access link, i.e. the node's
/// bottleneck.
pub fn access_link_of(spec: &NetworkSpec, node: OverlayId) -> usize {
    let router = spec.attachments[node];
    spec.links
        .iter()
        .position(|l| l.a == router || l.b == router)
        .expect("participant routers have an access link")
}

/// Exponential session-time churn sweep: Bullet under increasingly rapid
/// crash/rejoin churn of every non-source node, against a churn-free
/// baseline on the same topology and tree.
///
/// Each sweep point runs with mean session times of 1×, 1/2× and 1/4× the
/// post-settling run window (CliqueStream-style session churn); downtime
/// averages a quarter of the session time. The Bullet configuration uses
/// the churn profile (dead senders evicted after two idle evaluation
/// windows) so reconciliation rows are restriped off crashed peers.
pub(crate) fn churn_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 31);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
    let config = p.bullet_config(SCENARIO_RATE_BPS).churn();
    let window = p.duration.as_secs_f64() - p.stream_start.as_secs_f64();
    let sessions = [1.0, 2.0, 4.0].map(|divisor| window / divisor);
    // Each sweep seed regenerates the churn script under its own RNG:
    // multi-seed figures sample different event sequences.
    let churn = move |mean_session: f64, seed: u64| {
        ScenarioScript::exponential_churn(&ChurnConfig {
            nodes: (1..p.participants).collect(),
            start: p.stream_start,
            end: SimTime::from_secs_f64(p.duration.as_secs_f64() * 0.95),
            mean_session_secs: mean_session,
            mean_downtime_secs: mean_session / 4.0,
            graceful_fraction: 0.25,
            seed: seed ^ 0xC0_94,
        })
    };

    let mut plan = RunGrid::new(sweep);
    // The churn-free baseline, then one arm per mean session time.
    for session in [None].into_iter().chain(sessions.map(Some)) {
        let (topo, tree, config) = (topo.clone(), tree.clone(), config.clone());
        let label = match session {
            None => "Bullet - no churn".to_string(),
            Some(mean_session) => format!("Bullet - mean session {mean_session:.0}s"),
        };
        plan.arm(&p, &label, move |run, seed| {
            let script = session.map_or(NO_SCRIPT, |mean_session| churn(mean_session, seed));
            bullet_run_on(topo.network(), &tree, &config, run, &script, seed)
        });
    }

    plan.assemble(move |arms| {
        let mut figure = FigureResult::new(
            "churn",
            "Achieved bandwidth under exponential session-time churn (crash/rejoin of every non-source node)",
        );
        for run in &arms[0] {
            figure.add_run(run);
        }
        let baseline = &arms[0][0];
        for (&mean_session, arm) in sessions.iter().zip(&arms[1..]) {
            let result = &arm[0];
            figure.notes.push(format!(
                "mean session {mean_session:.0}s ({} scripted events): useful {:.0} Kbps vs {:.0} Kbps churn-free, median delivery {:.0}%",
                churn(mean_session, p.seed).len(),
                result.summary.steady_useful_kbps,
                baseline.summary.steady_useful_kbps,
                result.summary.median_delivery_fraction * 100.0,
            ));
            for run in arm {
                figure.add_run(run);
            }
        }
        vec![figure]
    })
}

/// Flash crowd: 60% of the overlay starts the run down and joins over a
/// short ramp mid-stream. The figure tracks the bandwidth dip while the
/// crowd bootstraps and its recovery as the mesh absorbs the joiners.
pub(crate) fn flash_crowd_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 32);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
    let config = p.bullet_config(SCENARIO_RATE_BPS).churn();

    let first = (p.participants - (p.participants * 6 / 10)).max(1);
    let crowd: Vec<OverlayId> = (first..p.participants).collect();
    let window = p.duration.as_secs_f64() - p.stream_start.as_secs_f64();
    let join_at = SimTime::from_secs_f64(p.stream_start.as_secs_f64() + window * 0.4);
    let ramp = window * 0.1;

    let mut plan = RunGrid::new(sweep);
    let count = crowd.len();
    plan.arm(&p, "Bullet - flash crowd", move |run, seed| {
        let storm = ScenarioAction::JoinStorm {
            first,
            count,
            ramp_secs: ramp,
            seed: seed ^ 0xF1A5,
        };
        let script = ScenarioScript::new().at(join_at, storm);
        bullet_run_on(topo.network(), &tree, &config, run, &script, seed)
    });

    plan.assemble(move |arms| {
        let mut figure = FigureResult::new(
            "flashcrowd",
            "Achieved bandwidth while a flash crowd (60% of the overlay) joins mid-stream",
        );
        // Useful first (add_run), raw second: `steady_state_of("flash crowd")`
        // finds the first matching label, and gates must read useful bandwidth.
        for result in &arms[0] {
            figure.add_run(result);
            figure.series.push(result.curve(&result.raw));
        }
        let result = &arms[0][0];

        // How long after the last join until per-crowd-member delivery catches
        // up to a healthy rate.
        let catch_up = crowd_catch_up_secs(result, &crowd, join_at.as_secs_f64() + ramp);
        figure.notes.push(format!(
            "{count} joiners over {ramp:.0}s starting at t={:.0}s; steady useful {:.0} Kbps; crowd reached half the steady rate {} after the ramp",
            join_at.as_secs_f64(),
            result.summary.steady_useful_kbps,
            match catch_up {
                Some(secs) => format!("{secs:.0}s"),
                None => "never".into(),
            },
        ));
        vec![figure]
    })
}

/// First sample time at which the crowd's average instantaneous useful
/// bandwidth reaches half the run's steady-state rate, as seconds after
/// `after_secs`.
fn crowd_catch_up_secs(result: &RunResult, crowd: &[OverlayId], after_secs: f64) -> Option<f64> {
    let target = result.summary.steady_useful_kbps / 2.0;
    let mut prev: Option<(f64, &Vec<u64>)> = None;
    for (idx, t) in result.times.iter().copied().enumerate() {
        let row = &result.per_node_useful_bytes[idx];
        if let Some((pt, prow)) = prev {
            let dt = (t - pt).max(1e-9);
            let kbps = crowd
                .iter()
                .map(|&n| (row[n].saturating_sub(prow[n])) as f64 * 8.0 / dt / 1_000.0)
                .sum::<f64>()
                / crowd.len().max(1) as f64;
            if t > after_secs && kbps >= target {
                return Some(t - after_secs);
            }
        }
        prev = Some((t, row));
    }
    None
}

/// Oscillating bottleneck: the access link of the root child with the most
/// descendants — the Fig. 13 worst-case victim, but throttled periodically
/// instead of crashed — square-waves between its provisioned rate and a
/// quarter of the stream rate. Bullet over the tree is compared against
/// TFRC streaming over the *same* tree under the same oscillation: the
/// tree loses the whole subtree during every trough, while the mesh routes
/// recovery traffic around the throttled uplink.
pub(crate) fn oscillating_bottleneck_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 33);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
    let victim = tree
        .children(0)
        .iter()
        .copied()
        .max_by_key(|&c| tree.subtree_size(c))
        .expect("root has children");
    let descendants = tree.subtree_size(victim) - 1;
    let link = access_link_of(topo.spec(), victim);
    let high_bps = topo.spec().links[link].bandwidth_bps;
    let low_bps = SCENARIO_RATE_BPS / 4.0;
    let window = p.duration.as_secs_f64() - p.stream_start.as_secs_f64();
    let script = ScenarioScript::oscillating_link(
        link,
        high_bps,
        low_bps,
        window / 8.0,
        SimTime::from_secs_f64(p.stream_start.as_secs_f64() + window * 0.2),
        SimTime::from_secs_f64(p.duration.as_secs_f64() * 0.95),
    );

    let mut plan = RunGrid::new(sweep);
    let (net, arm_tree, arm_script) = (topo.clone(), tree.clone(), script.clone());
    let config = p.bullet_config(SCENARIO_RATE_BPS);
    plan.arm(&p, "Bullet - oscillating bottleneck", move |run, seed| {
        bullet_run_on(net.network(), &arm_tree, &config, run, &arm_script, seed)
    });
    let stream = p.stream_config(SCENARIO_RATE_BPS);
    plan.arm(
        &p,
        "Tree streaming - oscillating bottleneck",
        move |run, seed| streaming_run_on(topo.network(), &tree, &stream, run, &script, seed),
    );

    plan.assemble(move |arms| {
        let mut figure = FigureResult::new(
            "oscillation",
            "Achieved bandwidth while the worst-case root child's access link oscillates between its provisioned rate and a quarter of the stream rate",
        );
        for run in arms.iter().flatten() {
            figure.add_run(run);
        }
        let (bullet, streaming) = (&arms[0][0], &arms[1][0]);
        figure.notes.push(format!(
            "node {victim} ({descendants} descendants) access link {link} square-waves {:.1} Mbps <-> {:.0} Kbps every {:.0}s: Bullet {:.0} Kbps vs tree streaming {:.0} Kbps steady useful",
            high_bps / 1e6,
            low_bps / 1e3,
            window / 8.0,
            bullet.summary.steady_useful_kbps,
            streaming.summary.steady_useful_kbps,
        ));
        vec![figure]
    })
}

/// The sustained-crash script of the recovery figure:
/// one crash every `RECOVERY_CRASH_EVERY_SECS` from shortly after stream
/// start until 90% of the run, biggest subtrees first.
pub fn sustained_crash_script(
    tree: &bullet_overlay::Tree,
    participants: usize,
    stream_start: SimTime,
    duration_secs: f64,
) -> (ScenarioScript, usize) {
    let mut victims: Vec<OverlayId> = (1..participants)
        .filter(|&n| !tree.children(n).is_empty())
        .collect();
    victims.sort_by_key(|&n| std::cmp::Reverse(tree.subtree_size(n)));
    victims.extend((1..participants).filter(|&n| tree.children(n).is_empty()));
    let mut script = ScenarioScript::new();
    let mut t = stream_start.as_secs_f64() + 10.0;
    let end = duration_secs * 0.9;
    let mut crashed = 0;
    while t < end && crashed < victims.len() {
        script.push(
            SimTime::from_secs_f64(t),
            ScenarioAction::Crash {
                node: victims[crashed],
            },
        );
        crashed += 1;
        t += RECOVERY_CRASH_EVERY_SECS;
    }
    (script, crashed)
}

/// Crash cadence of the sustained-crash recovery scenario (the §4.6
/// acceptance floor: at least one node per 10 s at the default scale).
pub const RECOVERY_CRASH_EVERY_SECS: f64 = 10.0;

/// Sustained-crash recovery figure (§4.6 evaluation): one node crashes —
/// and stays down — every 10 seconds, interior (largest-subtree) victims
/// first so every crash orphans a subtree. Bullet with the recovery
/// subsystem (orphan re-attach, peer liveness, control retries) is
/// compared against the recovery-off churn profile under the *same* crash
/// script: the delta is the goodput the §4.6 detect-and-re-attach path
/// buys once the tree, not the mesh, is what keeps subtrees fed. The claim
/// — orphans re-attach, and recovery-on holds at least twice recovery-off's
/// steady goodput — is `recovery_doubles_goodput_under_sustained_crashes`
/// in `tests/end_to_end.rs`.
pub(crate) fn recovery_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 34);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
    let recovery_cfg = p.bullet_config(SCENARIO_RATE_BPS).recovery();
    let baseline_cfg = p.bullet_config(SCENARIO_RATE_BPS).churn();
    let (script, crashes) = sustained_crash_script(
        &tree,
        p.participants,
        p.stream_start,
        p.duration.as_secs_f64(),
    );
    let epoch_secs = recovery_cfg.ransub_epoch.as_secs_f64();

    let mut plan = RunGrid::new(sweep);
    for (label, config) in [
        ("Bullet - recovery on", recovery_cfg),
        ("Bullet - recovery off", baseline_cfg),
    ] {
        let (topo, tree, script) = (topo.clone(), tree.clone(), script.clone());
        plan.arm(&p, label, move |run, seed| {
            bullet_run_on(topo.network(), &tree, &config, run, &script, seed)
        });
    }

    plan.assemble(move |arms| {
        let mut figure = FigureResult::new(
            "recovery",
            "Achieved bandwidth under sustained crashes (one interior node per 10 s, never rejoining): §4.6 recovery subsystem on vs off",
        );
        for run in arms.iter().flatten() {
            figure.add_run(run);
        }
        let (on, off) = (&arms[0][0], &arms[1][0]);
        let s = &on.summary;
        let ratio = s.steady_useful_kbps / off.summary.steady_useful_kbps.max(1e-9);
        figure.notes.push(format!(
            "{crashes} crashes: recovery-on {:.0} Kbps vs recovery-off {:.0} Kbps steady useful ({ratio:.1}x)",
            s.steady_useful_kbps, off.summary.steady_useful_kbps,
        ));
        figure.notes.push(format!(
            "{} orphan detections, {} re-attaches, median re-attach {:.2}s / mean {:.2}s ({:.0}s epochs), {} orphan-window packets, {} control retries, {} false-positive evictions",
            s.totals.orphan_detections,
            s.reattaches,
            s.median_reattach_secs,
            s.mean_reattach_secs,
            epoch_secs,
            s.totals.orphan_window_packets,
            s.totals.control_retries,
            s.totals.false_positive_evictions,
        ));
        vec![figure]
    })
}

/// Partition figure: a deterministic half of the overlay repeatedly
/// partitions away from the rest (and heals), while a tenth of the nodes
/// drop 20% of their control messages throughout. Recovery-on re-forms a
/// tree inside each side and repairs it after every heal; recovery-off
/// rides out each episode on whatever mesh state survives.
pub(crate) fn partition_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 35);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
    let recovery_cfg = p.bullet_config(SCENARIO_RATE_BPS).recovery();
    let baseline_cfg = p.bullet_config(SCENARIO_RATE_BPS).churn();
    let epoch_secs = recovery_cfg.ransub_epoch.as_secs_f64();

    // The partitioned side: every other non-source node.
    let side: Vec<OverlayId> = (1..p.participants).step_by(2).collect();
    let side_len = side.len();
    let window = p.duration.as_secs_f64() - p.stream_start.as_secs_f64();
    // Per-seed scripts: each sweep seed samples its own partition episode
    // sequence (like the churn figure's scripts). Also returns the number
    // of episodes.
    let script = move |seed: u64| {
        let mut script = ScenarioScript::partition_churn(
            &side,
            SimTime::from_secs_f64(p.stream_start.as_secs_f64() + window * 0.2),
            SimTime::from_secs_f64(p.duration.as_secs_f64() * 0.9),
            window / 4.0,
            (epoch_secs * 3.0).min(window / 6.0),
            seed ^ 0x9A27,
        );
        let episodes = script.len() / 2;
        for node in (1..p.participants).step_by(10) {
            script.push(
                p.stream_start,
                ScenarioAction::Fault {
                    node,
                    plan: FaultPlan {
                        drop_chance: 0.2,
                        ..FaultPlan::default()
                    },
                },
            );
        }
        (script, episodes)
    };

    let mut plan = RunGrid::new(sweep);
    for (label, config) in [
        ("Bullet - recovery on", recovery_cfg),
        ("Bullet - recovery off", baseline_cfg),
    ] {
        let (topo, tree, script) = (topo.clone(), tree.clone(), script.clone());
        plan.arm(&p, label, move |run, seed| {
            bullet_run_on(topo.network(), &tree, &config, run, &script(seed).0, seed)
        });
    }

    plan.assemble(move |arms| {
        let mut figure = FigureResult::new(
            "partition",
            "Achieved bandwidth under repeated network partitions of half the overlay plus 20% control-message loss on a tenth of the nodes: §4.6 recovery subsystem on vs off",
        );
        for run in arms.iter().flatten() {
            figure.add_run(run);
        }
        let (on, off) = (&arms[0][0], &arms[1][0]);
        let s = &on.summary;
        figure.notes.push(format!(
            "{side_len} nodes partition away {} times: recovery-on {:.0} Kbps vs recovery-off {:.0} Kbps steady useful; {} re-attaches (median {:.2}s), {} control retries, {} false-positive evictions",
            script(p.seed).1,
            s.steady_useful_kbps,
            off.summary.steady_useful_kbps,
            s.reattaches,
            s.median_reattach_secs,
            s.totals.control_retries,
            s.totals.false_positive_evictions,
        ));
        vec![figure]
    })
}

/// Adversary fractions the sweep runs (fraction of non-source nodes).
pub const ADVERSARY_FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// Per-relay corruption probability of the even-pick (corrupter) persona.
pub const ADVERSARY_CORRUPT_CHANCE: f64 = 0.75;

/// Misbehaving-peer sweep: a growing fraction of the overlay turns
/// adversarial mid-stream — even picks corrupt every data block they relay,
/// odd picks stall and falsely advertise phantom content — and Bullet with
/// the integrity layer (block verification, health scoring, quarantine) is
/// compared against the same overlay defenseless under the *same*
/// adversary script. The headline number is the clean-goodput ratio at
/// each fraction: without verification, tampered blocks count toward raw
/// delivery but carry nothing usable. The claim at 20% adversaries is
/// `integrity_defense_doubles_clean_goodput_at_20pct_adversaries` in
/// `tests/end_to_end.rs`.
pub(crate) fn adversary_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 36);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);
    // Both arms share the recovery profile, making integrity the only
    // delta.
    let defense_cfg = p.bullet_config(SCENARIO_RATE_BPS).integrity();
    let baseline_cfg = p.bullet_config(SCENARIO_RATE_BPS).recovery();
    let nodes: Vec<OverlayId> = (1..p.participants).collect();
    let window = p.duration.as_secs_f64() - p.stream_start.as_secs_f64();
    let turn_at = SimTime::from_secs_f64(p.stream_start.as_secs_f64() + window * 0.2);

    let mut plan = RunGrid::new(sweep);
    for (defense, config) in [("defense on", defense_cfg), ("defense off", baseline_cfg)] {
        for fraction in ADVERSARY_FRACTIONS {
            let (topo, tree, config, nodes) =
                (topo.clone(), tree.clone(), config.clone(), nodes.clone());
            let label = format!("Bullet - {defense} - {:.0}% adversaries", fraction * 100.0);
            plan.arm(&p, &label, move |run, seed| {
                // Per-seed scripts: each sweep seed samples its own
                // adversary placement (same convention as the churn
                // figure). Both arms at the same (fraction, seed) get the
                // identical script.
                let script = ScenarioScript::adversary_fraction(
                    &nodes,
                    fraction,
                    turn_at,
                    ADVERSARY_CORRUPT_CHANCE,
                    seed ^ 0xAD5A,
                );
                bullet_run_on(topo.network(), &tree, &config, run, &script, seed)
            });
        }
    }

    plan.assemble(|arms| {
        let mut figure = FigureResult::new(
            "adversary",
            "Clean goodput while a growing fraction of the overlay corrupts, stalls or falsely advertises: integrity defense (verification + health scoring + quarantine) on vs off",
        );
        for run in arms.iter().flatten() {
            figure.add_run(run);
        }
        let (defended, exposed) = arms.split_at(ADVERSARY_FRACTIONS.len());
        for ((fraction, on), off) in ADVERSARY_FRACTIONS.iter().zip(defended).zip(exposed) {
            let (on, off) = (&on[0].summary, &off[0].summary);
            let ratio = if off.clean_goodput_kbps > 0.0 {
                format!("{:.1}x", on.clean_goodput_kbps / off.clean_goodput_kbps)
            } else {
                "every defense-off receiver poisoned".to_string()
            };
            figure.notes.push(format!(
                "{:.0}% adversaries: defense-on clean {:.0} Kbps vs defense-off {:.0} Kbps ({ratio}); on: {} rejected, {} quarantines, {} accepted; off: {} accepted",
                fraction * 100.0,
                on.clean_goodput_kbps,
                off.clean_goodput_kbps,
                on.totals.corrupt_blocks_rejected,
                on.totals.quarantines,
                on.totals.corrupt_blocks_accepted,
                off.totals.corrupt_blocks_accepted,
            ));
        }
        vec![figure]
    })
}

/// Intake-understatement factor of the overload figure's slow receivers.
pub const OVERLOAD_SLOW_FACTOR: f64 = 0.2;

/// The per-node ingress processing capacity both overload-figure arms run
/// under: enough headroom for the stream plus routine control, not enough
/// to absorb a join storm without either shedding (bounded arm) or
/// falling behind (unbounded arm). The drain rate is identical across the
/// arms — the figure compares queue *disciplines* on identical
/// processors: the bounded arm presents a drop-tail queue at this budget
/// (its overload layer sheds before work piles up, so its queueing delay
/// is capped at `queue_budget / drain_per_sec`), while the unbounded arm
/// runs [`QueueDiscipline::Unbounded`] — nothing is ever refused, the
/// backlog grows for as long as the storm outpaces the drain, and every
/// message (data included) is served ever later.
pub const OVERLOAD_NODE_RESOURCES: NodeResources = NodeResources {
    queue_budget: 60,
    drain_per_sec: 60.0,
    discipline: QueueDiscipline::DropTail,
};

/// Fraction of the stream window at which the storm opens.
pub const OVERLOAD_STORM_FROM: f64 = 0.30;

/// Fraction of the stream window at which the last storm cohort lands
/// (and at which the acceptance window closes — the ratio is the members'
/// goodput *under* the assault, not after a calm tail has let the
/// unbounded arm drain its backlog).
pub const OVERLOAD_STORM_TO: f64 = 0.95;

/// The storm suffix is split into this many cohorts on staggered
/// crash-and-rejoin cycles, so some cohort is always mid-join: pressure
/// on the steady-state members is sustained for the whole storm span
/// instead of arriving in synchronized waves with calm gaps the
/// unbounded arm uses to drain its backlog.
pub const OVERLOAD_STORM_COHORTS: usize = 6;

/// Each cohort's crash-and-rejoin cycle length, as a fraction of the
/// stream window.
pub const OVERLOAD_STORM_PERIOD: f64 = 0.10;

/// The tightened overload knobs of the bounded arm (the defaults target
/// paper-scale overlays; at figure scale the storm has to hit the budgets
/// for the mechanisms to fire).
pub fn overload_figure_knobs() -> OverloadConfig {
    OverloadConfig {
        inbox_budget: 10,
        working_set_budget: 450,
        defer_max_exponent: 6,
    }
}

/// Overload figure: a join storm with the flash crowd's 60% joiner suffix
/// compressed into a tenth of its ramp slams the overlay mid-stream — in
/// repeated crash-and-rejoin waves — while roughly a tenth of the
/// steady-state receivers understate their intake fivefold for the whole
/// run, on nodes with finite processing capacity ([`NodeResources`]).
/// Bullet with the overload layer (bounded prioritized inboxes,
/// deferred-join admission control, working-set budget, slow-receiver
/// demotion; the node's ingress is a drop-tail queue at its budget) is
/// compared against the same overlay with unbounded queues (nothing shed,
/// the backlog and with it every message's queueing delay growing for as
/// long as the storm outpaces the drain) under the identical storm; the
/// headline number is the steady-state members' goodput ratio measured
/// through the storm.
///
/// The figure scores *timely* goodput — first deliveries landing within
/// the playout deadline of their generation slot, the only bytes a live
/// stream can use. Receive livelock does not destroy the unbounded arm's
/// data, it makes the data late; an unbounded queue at a saturated node
/// serves everything eventually and on time never. The claim is
/// `bounded_queues_hold_goodput_through_a_join_storm` in
/// `tests/end_to_end.rs`.
pub(crate) fn overload_plan(scale: Scale, sweep: &Sweep) -> FigurePlan {
    let p = Params::new(scale, 37);
    let topo = p.topology(BandwidthProfile::Medium, LossProfile::None);
    let tree = topo.tree(TreeKind::Random { max_children: 10 }, 0, p.seed);

    // Both arms share the integrity profile and the same finite ingress
    // resources; the overload layer is the only delta.
    let knobs = overload_figure_knobs();
    let mut bounded_cfg = p.bullet_config(SCENARIO_RATE_BPS).overload();
    bounded_cfg.overload = Some(knobs);
    let unbounded_cfg = p.bullet_config(SCENARIO_RATE_BPS).integrity();

    // The storm: the flash crowd's 60% joiner suffix, arriving over a ramp
    // compressed tenfold (a "10x join storm" relative to the flashcrowd
    // figure's arrival rate).
    let storm_first = p.participants - (p.participants * 6 / 10);
    let storm_count = p.participants - storm_first;
    let window = p.duration.as_secs_f64() - p.stream_start.as_secs_f64();
    let ramp = window * 0.01;
    // The acceptance ratio is measured *during the storm*: from the first
    // cohort's arrival to the last cohort's landing. Stopping there (not
    // at run end) keeps the post-storm calm out of the window — that calm
    // is exactly when the unbounded arm finally drains its backlog.
    let storm_from = p.stream_start.as_secs_f64() + window * OVERLOAD_STORM_FROM;
    let storm_to = p.stream_start.as_secs_f64() + window * OVERLOAD_STORM_TO;

    // Slow receivers: every tenth steady-state member understates its
    // intake from stream start on.
    let slow: Vec<OverlayId> = (1..storm_first).step_by(10).collect();
    let slow_len = slow.len();
    // The steady-state members the acceptance ratio is measured over: in
    // the overlay before the storm and not scripted slow (the slow ones
    // are *deliberately* degraded — that is the graceful part).
    let members: Vec<OverlayId> = (1..storm_first).filter(|n| !slow.contains(n)).collect();
    // Identical processors, different queue disciplines (see
    // [`OVERLOAD_NODE_RESOURCES`]): the bounded arm's nodes shed at their
    // budget, the unbounded arm's nodes queue everything and fall behind.
    let arm_resources = |discipline: QueueDiscipline| -> Vec<(OverlayId, NodeResources)> {
        (1..p.participants)
            .map(|n| {
                (
                    n,
                    NodeResources {
                        discipline,
                        ..OVERLOAD_NODE_RESOURCES
                    },
                )
            })
            .collect()
    };
    // Each sweep seed regenerates the storm under its own RNG.
    let storm = move |seed: u64| {
        let mut script = ScenarioScript::new();
        for &node in &slow {
            script.push(
                p.stream_start,
                ScenarioAction::SlowNode {
                    node,
                    factor: OVERLOAD_SLOW_FACTOR,
                },
            );
        }
        // Rolling cohorts: each sixth of the suffix crashes and re-storms
        // on its own staggered cycle, so a fresh join burst lands every
        // `period / cohorts` seconds for the whole storm span — sustained
        // pressure, no calm gaps.
        let cohort_len = storm_count.div_ceil(OVERLOAD_STORM_COHORTS);
        let period = window * OVERLOAD_STORM_PERIOD;
        let stagger = period / OVERLOAD_STORM_COHORTS as f64;
        let mut wave = 0u64;
        for c in 0..OVERLOAD_STORM_COHORTS {
            let first = storm_first + c * cohort_len;
            if first >= p.participants {
                break;
            }
            let count = cohort_len.min(p.participants - first);
            let mut at = storm_from + stagger * c as f64;
            let mut cycle = 0u32;
            while at + ramp <= storm_to {
                if cycle > 0 {
                    // The cohort crashes out a couple of seconds before it
                    // re-storms, so every cycle is a fresh cold-state join
                    // burst.
                    for node in first..first + count {
                        script.push(
                            SimTime::from_secs_f64(at - ramp - 2.0),
                            ScenarioAction::Crash { node },
                        );
                    }
                }
                script.push(
                    SimTime::from_secs_f64(at),
                    ScenarioAction::JoinStorm {
                        first,
                        count,
                        ramp_secs: ramp,
                        seed: seed ^ (0x0B57 + wave),
                    },
                );
                wave += 1;
                at += period;
                cycle += 1;
            }
        }
        script
    };

    let mut plan = RunGrid::new(sweep);
    for (label, config, discipline) in [
        (
            "Bullet - bounded queues",
            bounded_cfg,
            QueueDiscipline::DropTail,
        ),
        (
            "Bullet - unbounded queues",
            unbounded_cfg,
            QueueDiscipline::Unbounded,
        ),
    ] {
        let (topo, tree, storm) = (topo.clone(), tree.clone(), storm.clone());
        let resources = arm_resources(discipline);
        plan.arm(&p, label, move |run, seed| {
            let script = storm(seed);
            bullet_run_resourced_on(
                topo.network(),
                &tree,
                &config,
                run,
                &script,
                &resources,
                seed,
            )
        });
    }

    plan.assemble(move |arms| {
        let mut figure = FigureResult::new(
            "overload",
            "Achieved bandwidth through a 10x join storm plus persistent slow receivers on finite-capacity nodes: overload layer (bounded queues, backpressure, graceful degradation) on vs off",
        );
        for run in arms.iter().flatten() {
            figure.add_run(run);
        }
        let (bounded, unbounded) = (&arms[0][0], &arms[1][0]);
        let member_on = member_goodput_kbps(bounded, &members, storm_from, storm_to);
        let member_off = member_goodput_kbps(unbounded, &members, storm_from, storm_to);
        figure
            .scalars
            .push(("bounded_member_goodput_kbps".into(), member_on));
        figure
            .scalars
            .push(("unbounded_member_goodput_kbps".into(), member_off));
        let ratio = member_on / member_off.max(1e-9);
        // The members hurt most by receive livelock are the ones behind
        // the saturated interior nodes: compare the worst quartile of the
        // per-member distribution, not just the mean.
        let worst_quartile = |run: &RunResult| -> f64 {
            let mut per: Vec<f64> = members
                .iter()
                .map(|&n| member_goodput_kbps(run, &[n], storm_from, storm_to))
                .collect();
            per.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let q = (per.len() / 4).max(1);
            per[..q].iter().sum::<f64>() / q as f64
        };
        let (wq_on, wq_off) = (worst_quartile(bounded), worst_quartile(unbounded));
        figure
            .scalars
            .push(("bounded_worst_quartile_kbps".into(), wq_on));
        figure
            .scalars
            .push(("unbounded_worst_quartile_kbps".into(), wq_off));
        figure.notes.push(format!(
            "{storm_count} joiners in {OVERLOAD_STORM_COHORTS} rolling crash-and-rejoin cohorts (ramp {ramp:.1}s, cycle {:.0}s), plus {slow_len} slow receivers (factor {OVERLOAD_SLOW_FACTOR}); every node drains {}/s — bounded arm drop-tails at {} queued messages, unbounded arm queues everything and falls behind",
            window * OVERLOAD_STORM_PERIOD,
            OVERLOAD_NODE_RESOURCES.drain_per_sec,
            OVERLOAD_NODE_RESOURCES.queue_budget,
        ));
        figure.notes.push(format!(
            "steady-state members through the storm, timely within the {}s playout deadline: bounded {member_on:.0} Kbps vs unbounded {member_off:.0} Kbps ({ratio:.1}x mean, {:.1}x for the worst-quartile members at {wq_on:.0} vs {wq_off:.0} Kbps); overlay-wide steady useful {:.0} vs {:.0} Kbps",
            FRESHNESS_DEADLINE.as_secs_f64(),
            wq_on / wq_off.max(1e-9),
            bounded.summary.steady_useful_kbps, unbounded.summary.steady_useful_kbps,
        ));
        let s = &bounded.summary;
        figure.notes.push(format!(
            "bounded arm: {} inbox sheds (peak window depth {} vs budget {}), {} joins deferred / {} admitted after backoff, {} working-set evictions (budget {}), {} slow demotions; ingress peak backlog {} (sheds {}) vs {} unbounded (grows unshed)",
            s.totals.inbox_sheds,
            s.totals.peak_inbox_depth,
            knobs.inbox_budget,
            s.totals.joins_deferred,
            s.totals.joins_admitted_after_defer,
            s.totals.working_set_evictions,
            knobs.working_set_budget,
            s.totals.slow_demotions,
            s.ingress_peak_depth,
            s.sim.dropped_overload,
            unbounded.summary.ingress_peak_depth,
        ));
        if arms[0].len() > 1 {
            // Extra sweep seeds regenerate the storm under fresh RNG: show
            // the headline ratio's stability across them.
            let spread: Vec<String> = arms[0]
                .iter()
                .zip(&arms[1])
                .map(|(on, off)| {
                    format!(
                        "{:.0}/{:.0}",
                        member_goodput_kbps(on, &members, storm_from, storm_to),
                        member_goodput_kbps(off, &members, storm_from, storm_to),
                    )
                })
                .collect();
            figure.notes.push(format!(
                "per-seed member goodput (bounded/unbounded Kbps): {}",
                spread.join(", ")
            ));
        }
        vec![figure]
    })
}

/// Mean *timely* useful bandwidth (Kbps) of `nodes` between `from_secs`
/// and `to_secs` (clamped to the sampled range), from the per-node
/// cumulative fresh-byte rows: only first deliveries inside the playout
/// freshness deadline count — a block that spent longer than the deadline
/// in queues is useless to a live viewer however intact it arrives. The
/// overload figure measures its steady-state members from the first storm
/// cohort's arrival to the last one's landing.
fn member_goodput_kbps(
    result: &RunResult,
    nodes: &[OverlayId],
    from_secs: f64,
    to_secs: f64,
) -> f64 {
    let len = result.times.len();
    if len < 2 || nodes.is_empty() {
        return 0.0;
    }
    let start = result
        .times
        .iter()
        .position(|&t| t >= from_secs)
        .unwrap_or(len - 2)
        .min(len - 2);
    let end = result
        .times
        .iter()
        .rposition(|&t| t <= to_secs)
        .unwrap_or(len - 1)
        .max(start + 1);
    let dt = (result.times[end] - result.times[start]).max(1e-9);
    let first = &result.per_node_fresh_bytes[start];
    let last = &result.per_node_fresh_bytes[end];
    nodes
        .iter()
        .map(|&n| last[n].saturating_sub(first[n]) as f64 * 8.0 / dt / 1_000.0)
        .sum::<f64>()
        / nodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::build_topology;

    #[test]
    fn access_link_lookup_finds_the_attachment_link() {
        let topo = build_topology(
            Scale::Small,
            10,
            BandwidthProfile::Medium,
            LossProfile::None,
            5,
        );
        for node in 0..10 {
            let link = access_link_of(&topo.spec, node);
            let spec = &topo.spec.links[link];
            let router = topo.spec.attachments[node];
            assert!(spec.a == router || spec.b == router);
        }
    }
}
