//! The scenario driver: applies a [`ScenarioScript`] to a running
//! simulation.
//!
//! Two application channels keep semantics precise:
//!
//! * **Pre-scheduled events** (crashes) go through the simulator's own
//!   event queue at install time, in script order. A one-crash script is
//!   therefore *event-for-event identical* to the legacy
//!   `RunSpec::failure` injection — same sequence numbers, same ordering
//!   against messages at the failure instant — which is what lets the
//!   Figs. 13/14 harness route through the engine without moving its
//!   golden numbers.
//! * **Stepped events** (recoveries, graceful leaves, joins, partitions,
//!   fault plans, link and router mutations) need either an agent callback
//!   or `&mut` access to the network/simulator, which the event queue
//!   cannot deliver. The driver runs the simulator up to the event's
//!   instant and applies the action *after every simulator event at that
//!   instant* — a fixed, documented interleaving that keeps runs
//!   deterministic. Recoveries step (rather than pre-schedule) because
//!   clearing a failed flag on a running simulation bootstraps the node:
//!   [`Sim::set_node_failed`] cancels its old timers and runs its
//!   [`Agent::on_start`], exactly as for a late joiner.

use bullet_netsim::{Agent, Context, FaultPlan, Sim, SimDuration, SimRng, SimTime};

use crate::script::{ScenarioAction, ScenarioEvent, ScenarioScript};

/// The lifecycle contract protocol agents opt into to participate in
/// scripted membership dynamics. Every hook defaults to a no-op, so a
/// protocol that ignores churn still runs under any script. A node that
/// comes up (a join or a recovery) needs no hook here: the simulator
/// bootstraps it through [`Agent::on_start`], as at the start of the run.
pub trait ScenarioAgent: Agent {
    /// The node is about to leave gracefully: say goodbye (hand children
    /// off, tear down peerings). Emitted sends still go out; immediately
    /// after this returns the node is failed.
    fn on_graceful_leave(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// The node was scripted to misbehave (or to stop misbehaving — the
    /// plan's flags may all be clear). The simulator injects the plan's
    /// packet-level behaviors (stalls, payload corruption) itself; this
    /// hook lets the agent adopt the *protocol-level* behaviors, such as
    /// advertising content it does not hold when
    /// [`FaultPlan::false_advertise`] is set. Runs right after the plan
    /// is installed.
    fn on_adversary(&mut self, _ctx: &mut Context<'_, Self::Msg>, _plan: FaultPlan) {}

    /// The node was scripted slow (overload evaluation): it should present
    /// as a persistent laggard to its mesh senders — e.g. by scaling the
    /// intake figure it reports to them by `factor`. A factor of `1.0`
    /// restores normal reporting.
    fn on_slow_node(&mut self, _ctx: &mut Context<'_, Self::Msg>, _factor: f64) {}
}

/// Counters of the actions a driver has applied, for harness assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScenarioStats {
    /// Crashes pre-scheduled at install.
    pub crashes: u64,
    /// Crash recoveries applied (failed flag cleared, node bootstrapped).
    pub recoveries: u64,
    /// Graceful leaves applied.
    pub leaves: u64,
    /// Joins applied.
    pub joins: u64,
    /// Link mutations applied (capacity, loss, up/down).
    pub link_mutations: u64,
    /// Router (correlated stub) mutations applied.
    pub router_mutations: u64,
    /// Partitions applied.
    pub partitions: u64,
    /// Partition heals applied.
    pub heals: u64,
    /// Fault plans installed.
    pub faults: u64,
    /// Adversary plans installed (fault plan + agent behavior hook).
    pub adversaries: u64,
    /// Slow-node switches applied (agent reporting hook).
    pub slow_nodes: u64,
}

/// Drives one [`ScenarioScript`] over one simulation run.
pub struct ScenarioDriver {
    initially_down: Vec<usize>,
    prescheduled: Vec<ScenarioEvent>,
    stepped: Vec<ScenarioEvent>,
    next: usize,
    installed: bool,
    /// What has been applied so far.
    pub stats: ScenarioStats,
    /// Wall-clock seconds spent inside route-affecting mutations (link
    /// bandwidth/loss/up, router up) — the simulator repairs or invalidates
    /// routes synchronously inside these calls, so this is the driver's
    /// share of routing-repair time. Excluded from [`ScenarioStats`] so the
    /// stats stay comparable across runs; feed it to self-profiling instead.
    pub repair_wall_secs: f64,
}

impl ScenarioDriver {
    /// Builds a driver for `script`. Call [`ScenarioDriver::install`]
    /// before the first run step.
    pub fn new(script: &ScenarioScript) -> Self {
        let mut initially_down = script.initially_down().to_vec();
        let mut prescheduled = Vec::new();
        let mut stepped = Vec::new();
        for event in script.sorted_events() {
            if event.action.is_prescheduled() {
                prescheduled.push(event);
            } else if let ScenarioAction::JoinStorm {
                first,
                count,
                ramp_secs,
                seed,
            } = event.action
            {
                // Expand the storm deterministically: the cohort starts the
                // run down and joins at seeded uniform offsets inside the
                // ramp, drawn in node order.
                let mut rng = SimRng::new(seed);
                for node in first..first + count {
                    if !initially_down.contains(&node) {
                        initially_down.push(node);
                    }
                    let offset = rng.next_f64() * ramp_secs;
                    stepped.push(ScenarioEvent {
                        at: SimTime::from_secs_f64(event.at.as_secs_f64() + offset),
                        action: ScenarioAction::Join { node },
                    });
                }
            } else {
                stepped.push(event);
            }
        }
        // Storm expansion lands joins at arbitrary offsets; re-sort (stably,
        // so equal-time events keep script order) for the stepping walk.
        stepped.sort_by_key(|e| e.at.as_micros());
        ScenarioDriver {
            initially_down,
            prescheduled,
            stepped,
            next: 0,
            installed: false,
            stats: ScenarioStats::default(),
            repair_wall_secs: 0.0,
        }
    }

    /// Installs the script into a fresh simulation: marks late joiners
    /// failed and pre-schedules crashes through the simulator's event
    /// queue (in script order, before any other event is scheduled —
    /// exactly like the legacy failure injection).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn install<A: ScenarioAgent>(&mut self, sim: &mut Sim<A>) {
        assert!(!self.installed, "driver installed twice");
        self.installed = true;
        for &node in &self.initially_down {
            sim.set_node_failed(node, true);
        }
        for event in &self.prescheduled {
            match event.action {
                ScenarioAction::Crash { node } => {
                    sim.schedule_failure(event.at, node);
                    self.stats.crashes += 1;
                }
                ref other => unreachable!("not a prescheduled action: {other:?}"),
            }
        }
    }

    /// Runs the simulation until `end`, applying every stepped event whose
    /// time has come. An event at time `t` applies after all simulator
    /// events at `t`.
    ///
    /// # Panics
    ///
    /// Panics if [`ScenarioDriver::install`] has not run.
    pub fn run_until<A: ScenarioAgent>(&mut self, sim: &mut Sim<A>, end: SimTime) {
        assert!(self.installed, "call install() before running");
        while self.next < self.stepped.len() && self.stepped[self.next].at <= end {
            let event = self.stepped[self.next].clone();
            self.next += 1;
            sim.run_until(event.at);
            self.apply(sim, &event.action);
        }
        sim.run_until(end);
    }

    /// Runs until `end`, invoking `sample` every `interval` of simulated
    /// time (including at `end`) — the scenario-aware mirror of
    /// [`Sim::run_sampled`].
    pub fn run_sampled<A: ScenarioAgent, F>(
        &mut self,
        sim: &mut Sim<A>,
        end: SimTime,
        interval: SimDuration,
        mut sample: F,
    ) where
        F: FnMut(SimTime, &Sim<A>),
    {
        assert!(!interval.is_zero(), "sampling interval must be non-zero");
        let mut next = sim.now() + interval;
        while next < end {
            self.run_until(sim, next);
            sample(next, sim);
            next += interval;
        }
        self.run_until(sim, end);
        sample(end, sim);
    }

    fn apply<A: ScenarioAgent>(&mut self, sim: &mut Sim<A>, action: &ScenarioAction) {
        match action {
            &ScenarioAction::Recover { node } => {
                sim.set_node_failed(node, false);
                self.stats.recoveries += 1;
            }
            &ScenarioAction::GracefulLeave { node } => {
                if !sim.is_failed(node) {
                    sim.invoke_agent(node, |agent, ctx| agent.on_graceful_leave(ctx));
                }
                sim.set_node_failed(node, true);
                self.stats.leaves += 1;
            }
            &ScenarioAction::Join { node } => {
                sim.set_node_failed(node, false);
                self.stats.joins += 1;
            }
            &ScenarioAction::SetLinkBandwidth { link, bps } => {
                let started = std::time::Instant::now();
                sim.network_mut().set_link_bandwidth(link, bps);
                self.repair_wall_secs += started.elapsed().as_secs_f64();
                sim.record_route_repair();
                self.stats.link_mutations += 1;
            }
            &ScenarioAction::SetLinkLoss { link, loss } => {
                let started = std::time::Instant::now();
                sim.network_mut().set_link_loss(link, loss);
                self.repair_wall_secs += started.elapsed().as_secs_f64();
                sim.record_route_repair();
                self.stats.link_mutations += 1;
            }
            &ScenarioAction::SetLinkUp { link, up } => {
                let started = std::time::Instant::now();
                sim.network_mut().set_link_up(link, up);
                self.repair_wall_secs += started.elapsed().as_secs_f64();
                sim.record_route_repair();
                self.stats.link_mutations += 1;
            }
            &ScenarioAction::SetRouterUp { router, up } => {
                let started = std::time::Instant::now();
                sim.network_mut().set_router_up(router, up);
                self.repair_wall_secs += started.elapsed().as_secs_f64();
                sim.record_route_repair();
                self.stats.router_mutations += 1;
            }
            ScenarioAction::Partition { nodes } => {
                sim.set_partition(nodes);
                self.stats.partitions += 1;
            }
            ScenarioAction::Heal => {
                sim.heal_partition();
                self.stats.heals += 1;
            }
            &ScenarioAction::Fault { node, plan } => {
                sim.set_fault_plan(node, plan);
                self.stats.faults += 1;
            }
            &ScenarioAction::Adversary { node, plan } => {
                sim.set_fault_plan(node, plan);
                if !sim.is_failed(node) {
                    sim.invoke_agent(node, |agent, ctx| agent.on_adversary(ctx, plan));
                }
                self.stats.adversaries += 1;
            }
            &ScenarioAction::SlowNode { node, factor } => {
                if !sim.is_failed(node) {
                    sim.invoke_agent(node, |agent, ctx| agent.on_slow_node(ctx, factor));
                }
                self.stats.slow_nodes += 1;
            }
            ScenarioAction::Crash { .. } => {
                unreachable!("prescheduled actions never reach the stepping path")
            }
            ScenarioAction::JoinStorm { .. } => {
                unreachable!("join storms are expanded at driver construction")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_netsim::{LinkSpec, NetworkSpec, OverlayId, SimCounters};

    /// A heartbeat protocol: every node broadcasts a beat each second and
    /// counts beats it hears; `on_start` and the scenario hooks record their
    /// invocations.
    struct BeatAgent {
        peers: Vec<OverlayId>,
        heard: u64,
        leaves: Vec<SimTime>,
        starts: Vec<SimTime>,
        adversary_plans: Vec<FaultPlan>,
        slow_factors: Vec<f64>,
    }

    impl BeatAgent {
        fn new(peers: Vec<OverlayId>) -> Self {
            BeatAgent {
                peers,
                heard: 0,
                leaves: Vec::new(),
                starts: Vec::new(),
                adversary_plans: Vec::new(),
                slow_factors: Vec::new(),
            }
        }
    }

    impl Agent for BeatAgent {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            self.starts.push(ctx.now());
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: OverlayId, _msg: ()) {
            self.heard += 1;
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _tag: u64) {
            for &peer in &self.peers.clone() {
                ctx.send_data(peer, (), 100);
            }
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
    }

    impl ScenarioAgent for BeatAgent {
        fn on_graceful_leave(&mut self, ctx: &mut Context<'_, ()>) {
            self.leaves.push(ctx.now());
            for &peer in &self.peers.clone() {
                ctx.send_data(peer, (), 100);
            }
        }

        fn on_adversary(&mut self, _ctx: &mut Context<'_, ()>, plan: FaultPlan) {
            self.adversary_plans.push(plan);
        }

        fn on_slow_node(&mut self, _ctx: &mut Context<'_, ()>, factor: f64) {
            self.slow_factors.push(factor);
        }
    }

    fn hub(n: usize) -> NetworkSpec {
        let mut spec = NetworkSpec::new(n + 1);
        for i in 0..n {
            spec.add_link(LinkSpec::new(
                n,
                i,
                10_000_000.0,
                SimDuration::from_millis(5),
            ));
            spec.attach(i);
        }
        spec
    }

    fn beat_sim(n: usize) -> Sim<BeatAgent> {
        let agents = (0..n)
            .map(|i| BeatAgent::new((0..n).filter(|&p| p != i).collect()))
            .collect();
        Sim::new(&hub(n), agents, 42)
    }

    #[test]
    fn lifecycle_hooks_run_at_scripted_times() {
        let script = ScenarioScript::new()
            .at(
                SimTime::from_secs(3),
                ScenarioAction::GracefulLeave { node: 1 },
            )
            .at(SimTime::from_secs(6), ScenarioAction::Join { node: 1 });
        let mut driver = ScenarioDriver::new(&script);
        let mut sim = beat_sim(3);
        driver.install(&mut sim);
        driver.run_until(&mut sim, SimTime::from_secs(10));
        assert_eq!(sim.agent(1).leaves, vec![SimTime::from_secs(3)]);
        assert_eq!(
            sim.agent(1).starts,
            vec![SimTime::ZERO, SimTime::from_secs(6)]
        );
        assert!(!sim.is_failed(1), "rejoined node must be up");
        assert_eq!(driver.stats.leaves, 1);
        assert_eq!(driver.stats.joins, 1);
        assert_eq!(driver.next, driver.stepped.len());
        // The goodbye beats emitted in on_graceful_leave were delivered.
        assert!(sim.agent(0).heard > 0);
    }

    #[test]
    fn crash_via_driver_is_event_identical_to_schedule_failure() {
        let legacy: SimCounters = {
            let mut sim = beat_sim(4);
            sim.schedule_failure(SimTime::from_secs(5), 2);
            sim.run_until(SimTime::from_secs(12));
            sim.counters()
        };
        let scripted: SimCounters = {
            let script = ScenarioScript::single_crash(SimTime::from_secs(5), 2);
            let mut driver = ScenarioDriver::new(&script);
            let mut sim = beat_sim(4);
            driver.install(&mut sim);
            driver.run_until(&mut sim, SimTime::from_secs(12));
            assert_eq!(driver.stats.crashes, 1);
            sim.counters()
        };
        assert_eq!(
            legacy, scripted,
            "one-crash script must be event-for-event identical to the legacy injection"
        );
    }

    #[test]
    fn recover_bootstraps_the_node_through_on_start() {
        let script = ScenarioScript::new()
            .at(SimTime::from_secs(3), ScenarioAction::Crash { node: 1 })
            .at(SimTime::from_secs(6), ScenarioAction::Recover { node: 1 });
        let mut driver = ScenarioDriver::new(&script);
        let mut sim = beat_sim(3);
        driver.install(&mut sim);
        driver.run_until(&mut sim, SimTime::from_secs(10));
        assert_eq!(
            sim.agent(1).starts,
            vec![SimTime::ZERO, SimTime::from_secs(6)],
            "recovery must bootstrap the node through on_start"
        );
        assert!(!sim.is_failed(1), "recovered node must be up");
        assert!(sim.agent(1).heard > 0, "recovered node rejoins the stream");
        assert_eq!(driver.stats.crashes, 1);
        assert_eq!(driver.stats.recoveries, 1);
        assert_eq!(driver.stats.joins, 0, "recoveries are counted separately");
    }

    #[test]
    fn partition_heal_and_fault_apply_between_steps() {
        let script = ScenarioScript::new()
            .at(
                SimTime::from_secs(2),
                ScenarioAction::Partition { nodes: vec![1] },
            )
            .at(SimTime::from_secs(5), ScenarioAction::Heal)
            .at(
                SimTime::from_secs(7),
                ScenarioAction::Fault {
                    node: 0,
                    plan: bullet_netsim::FaultPlan {
                        drop_chance: 1.0,
                        ..Default::default()
                    },
                },
            );
        let mut driver = ScenarioDriver::new(&script);
        let mut sim = beat_sim(3);
        driver.install(&mut sim);
        driver.run_until(&mut sim, SimTime::from_secs(4));
        assert!(sim.is_partitioned(), "cut active inside the window");
        let isolated_heard = sim.agent(1).heard;
        driver.run_until(&mut sim, SimTime::from_secs(6));
        assert!(!sim.is_partitioned(), "heal clears the cut");
        driver.run_until(&mut sim, SimTime::from_secs(10));
        assert!(
            sim.agent(1).heard > isolated_heard,
            "healed node hears beats again"
        );
        assert_eq!(
            sim.fault_plan(0).map(|plan| plan.drop_chance),
            Some(1.0),
            "fault plan installed"
        );
        assert_eq!(driver.stats.partitions, 1);
        assert_eq!(driver.stats.heals, 1);
        assert_eq!(driver.stats.faults, 1);
    }

    #[test]
    fn adversary_installs_the_plan_and_runs_the_agent_hook() {
        let plan = FaultPlan {
            corrupt_chance: 0.5,
            false_advertise: true,
            ..Default::default()
        };
        let script = ScenarioScript::new().at(
            SimTime::from_secs(2),
            ScenarioAction::Adversary { node: 1, plan },
        );
        let mut driver = ScenarioDriver::new(&script);
        let mut sim = beat_sim(3);
        driver.install(&mut sim);
        driver.run_until(&mut sim, SimTime::from_secs(4));
        assert_eq!(
            sim.fault_plan(1).map(|p| p.corrupt_chance),
            Some(0.5),
            "adversary plan installed at the simulator"
        );
        assert_eq!(
            sim.agent(1).adversary_plans,
            vec![plan],
            "agent hook ran with the plan"
        );
        assert_eq!(driver.stats.adversaries, 1);
        assert_eq!(driver.stats.faults, 0, "adversaries are counted separately");
    }

    #[test]
    fn initially_down_nodes_stay_silent_until_joined() {
        let mut script = ScenarioScript::new();
        script.down_from_start(2);
        script.push(SimTime::from_secs(5), ScenarioAction::Join { node: 2 });
        let mut driver = ScenarioDriver::new(&script);
        let mut sim = beat_sim(3);
        driver.install(&mut sim);
        driver.run_until(&mut sim, SimTime::from_secs(4));
        assert_eq!(
            sim.agent(2).heard,
            0,
            "down node must not receive while down"
        );
        let heard_by_0_before = sim.agent(0).heard;
        driver.run_until(&mut sim, SimTime::from_secs(10));
        assert!(sim.agent(2).heard > 0, "joined node hears beats");
        assert!(
            sim.agent(0).heard > heard_by_0_before,
            "joined node beats again"
        );
    }

    #[test]
    fn link_mutations_apply_between_steps() {
        let script = ScenarioScript::new()
            .at(
                SimTime::from_secs(2),
                ScenarioAction::SetLinkBandwidth {
                    link: 0,
                    bps: 1_000.0,
                },
            )
            .at(
                SimTime::from_secs(4),
                ScenarioAction::SetLinkUp { link: 1, up: false },
            )
            .at(
                SimTime::from_secs(6),
                ScenarioAction::SetRouterUp {
                    router: 3,
                    up: false,
                },
            );
        let mut driver = ScenarioDriver::new(&script);
        let mut sim = beat_sim(3);
        driver.install(&mut sim);
        driver.run_until(&mut sim, SimTime::from_secs(3));
        let (fwd, _) = bullet_netsim::Network::directed_ids(0);
        assert_eq!(sim.network().link(fwd).bandwidth_bps(), 1_000.0);
        assert_eq!(sim.network().repair_stats().route_mutations, 0);
        driver.run_until(&mut sim, SimTime::from_secs(5));
        assert_eq!(
            sim.network().repair_stats().route_mutations,
            1,
            "link-down invalidates"
        );
        driver.run_until(&mut sim, SimTime::from_secs(8));
        assert_eq!(
            sim.network().repair_stats().route_mutations,
            2,
            "hub outage invalidates"
        );
        assert_eq!(driver.stats.link_mutations, 2);
        assert_eq!(driver.stats.router_mutations, 1);
    }

    #[test]
    fn run_sampled_samples_every_interval_across_events() {
        let script = ScenarioScript::single_crash(SimTime::from_secs(3), 1);
        let mut driver = ScenarioDriver::new(&script);
        let mut sim = beat_sim(2);
        driver.install(&mut sim);
        let mut samples = Vec::new();
        driver.run_sampled(
            &mut sim,
            SimTime::from_secs(10),
            SimDuration::from_secs(2),
            |t, _| samples.push(t.as_micros()),
        );
        assert_eq!(
            samples,
            vec![2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000]
        );
    }

    #[test]
    fn join_storm_expands_to_deterministic_joins_inside_the_ramp() {
        let script = ScenarioScript::new().at(
            SimTime::from_secs(5),
            ScenarioAction::JoinStorm {
                first: 2,
                count: 3,
                ramp_secs: 4.0,
                seed: 37,
            },
        );
        let joins_of = |driver: &mut ScenarioDriver| {
            let mut sim = beat_sim(5);
            driver.install(&mut sim);
            driver.run_until(&mut sim, SimTime::from_secs(15));
            (2..5)
                .map(|node| sim.agent(node).starts.clone())
                .collect::<Vec<_>>()
        };
        let mut driver = ScenarioDriver::new(&script);
        // The storm expands to the cohort marked down from the start and
        // one join per member inside `[t, t + ramp)`.
        assert_eq!(driver.initially_down, vec![2, 3, 4]);
        assert_eq!(driver.stepped.len(), 3, "one join per cohort member");
        for event in &driver.stepped {
            assert!(matches!(event.action, ScenarioAction::Join { .. }));
            assert!(event.at >= SimTime::from_secs(5));
            assert!(event.at < SimTime::from_secs(9));
        }
        let first = joins_of(&mut driver);
        assert_eq!(driver.stats.joins, 3, "every storm member joins");
        for starts in &first {
            // The run's start, made while down, then the join's.
            assert_eq!(starts.len(), 2, "each member joins exactly once");
            assert!(starts[1] >= SimTime::from_secs(5), "not before the storm");
            assert!(starts[1] <= SimTime::from_secs(9), "inside the ramp");
        }
        // Storm members start the run down: node 2 heard nothing at t=0..5.
        let again = joins_of(&mut ScenarioDriver::new(&script));
        assert_eq!(first, again, "expansion is seed-deterministic");
    }

    #[test]
    fn storm_members_start_down_and_slow_node_runs_the_agent_hook() {
        let script = ScenarioScript::new()
            .at(
                SimTime::from_secs(6),
                ScenarioAction::JoinStorm {
                    first: 2,
                    count: 2,
                    ramp_secs: 1.0,
                    seed: 9,
                },
            )
            .at(
                SimTime::from_secs(2),
                ScenarioAction::SlowNode {
                    node: 1,
                    factor: 0.25,
                },
            )
            .at(
                SimTime::from_secs(3),
                ScenarioAction::SlowNode {
                    node: 2,
                    factor: 0.5,
                },
            );
        let mut driver = ScenarioDriver::new(&script);
        let mut sim = beat_sim(4);
        driver.install(&mut sim);
        driver.run_until(&mut sim, SimTime::from_secs(5));
        assert_eq!(
            sim.agent(2).heard,
            0,
            "storm members are down from the start"
        );
        assert_eq!(
            sim.agent(1).slow_factors,
            vec![0.25],
            "hook ran with factor"
        );
        assert_eq!(
            sim.agent(2).slow_factors,
            Vec::<f64>::new(),
            "slow_node on a down node is skipped"
        );
        assert_eq!(driver.stats.slow_nodes, 2, "counted even when skipped");
        driver.run_until(&mut sim, SimTime::from_secs(12));
        assert!(sim.agent(2).heard > 0, "storm member joined the stream");
    }

    #[test]
    #[should_panic(expected = "call install() before running")]
    fn running_without_install_panics() {
        let mut driver = ScenarioDriver::new(&ScenarioScript::new());
        let mut sim = beat_sim(2);
        driver.run_until(&mut sim, SimTime::from_secs(1));
    }
}
