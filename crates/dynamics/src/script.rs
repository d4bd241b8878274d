//! Scenario scripts: deterministic, time-sorted mid-run event lists.
//!
//! A script is data, not behaviour: it can be built explicitly, generated
//! from churn/oscillation/outage distributions, or parsed from a text
//! format (the one the `figures` bench reads from `BULLET_SCENARIO`). The
//! [`crate::ScenarioDriver`] applies it to a running simulation.

use bullet_netsim::{FaultPlan, OverlayId, RouterId, SimDuration, SimRng, SimTime};

/// One scripted action against the running simulation.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioAction {
    /// Crash-fail an overlay node: it stops sending, receiving and firing
    /// timers, with no goodbye. Pre-scheduled through the simulator's own
    /// event queue (same ordering as the legacy `RunSpec::failure` path).
    Crash {
        /// The failing node.
        node: OverlayId,
    },
    /// Recovery from a crash: the node's failed flag clears, cancelling
    /// every timer it armed before, and [`bullet_netsim::Agent::on_start`]
    /// bootstraps it again, exactly as for a late join. Counted separately
    /// from [`ScenarioAction::Join`] in the driver's stats.
    Recover {
        /// The recovering node.
        node: OverlayId,
    },
    /// Graceful departure: the agent's
    /// [`crate::ScenarioAgent::on_graceful_leave`] hook runs (Bullet hands
    /// its children to its parent and tears down mesh peerings), then the
    /// node fails.
    GracefulLeave {
        /// The departing node.
        node: OverlayId,
    },
    /// Late join or rejoin: the node's failed flag clears, cancelling every
    /// timer it armed before, and [`bullet_netsim::Agent::on_start`]
    /// bootstraps it.
    Join {
        /// The joining node.
        node: OverlayId,
    },
    /// Set the capacity of one physical link (both directions), in bits per
    /// second. Does not re-route (link costs are propagation delays).
    SetLinkBandwidth {
        /// Physical (spec) link index.
        link: usize,
        /// New capacity in bits per second.
        bps: f64,
    },
    /// Set the random loss probability of one physical link.
    SetLinkLoss {
        /// Physical (spec) link index.
        link: usize,
        /// New loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Take one physical link administratively up or down. Route-affecting:
    /// the network epoch-invalidates its lookup layers.
    SetLinkUp {
        /// Physical (spec) link index.
        link: usize,
        /// New administrative state.
        up: bool,
    },
    /// Take every link incident to a router up or down — a correlated stub
    /// outage. Route-affecting.
    SetRouterUp {
        /// The router whose links change state.
        router: RouterId,
        /// New administrative state.
        up: bool,
    },
    /// Partition the overlay: the listed nodes land on one side of a cut,
    /// everyone else on the other, and every message crossing it is dropped
    /// until a [`ScenarioAction::Heal`]. Replaces any active partition.
    Partition {
        /// The nodes isolated on one side of the cut.
        nodes: Vec<OverlayId>,
    },
    /// Heal any active partition.
    Heal,
    /// Install (or replace) a node's control-plane [`FaultPlan`]: its
    /// control messages are dropped/duplicated/delayed off the simulator
    /// RNG from this instant on. An all-zero plan effectively clears it.
    Fault {
        /// The node whose control traffic is faulted.
        node: OverlayId,
        /// The fault probabilities and delay.
        plan: FaultPlan,
    },
    /// Turn a node into a misbehaving peer: the plan's data-plane knobs
    /// (stall/corrupt chances) are injected by the simulator, and the
    /// agent's [`crate::ScenarioAgent::on_adversary`] hook runs so it can
    /// adopt protocol-level misbehavior (false advertisement). A plan
    /// with every adversary flag clear reforms the node.
    Adversary {
        /// The misbehaving node.
        node: OverlayId,
        /// The adversary behaviors (see [`FaultPlan`]'s
        /// `stall_chance`/`corrupt_chance`/`false_advertise`).
        plan: FaultPlan,
    },
    /// A join storm (overload evaluation): the cohort `first .. first +
    /// count` starts the run down and joins at seeded uniform times inside
    /// `[t, t + ramp_secs)`. Kept first-class — rather than pre-expanded
    /// into `down` markers and [`ScenarioAction::Join`] events — so a
    /// storm stays one script line and `parse`/`format` round-trips
    /// losslessly; the [`crate::ScenarioDriver`] expands it
    /// deterministically at construction.
    JoinStorm {
        /// First node of the joining cohort.
        first: OverlayId,
        /// Cohort size (nodes `first .. first + count`).
        count: usize,
        /// Ramp length in seconds: join times land uniformly inside it.
        ramp_secs: f64,
        /// Seed for the deterministic join offsets.
        seed: u64,
    },
    /// Make a node a slow receiver: from this instant its `ReceiverReport`s
    /// under-state its intake by `factor` (the agent's
    /// [`crate::ScenarioAgent::on_slow_node`] hook), presenting it to its
    /// mesh senders as a persistent laggard. A factor of `1.0` restores
    /// honest reporting.
    SlowNode {
        /// The slowed node.
        node: OverlayId,
        /// Multiplier applied to the node's reported intake, in `[0, 1]`.
        factor: f64,
    },
}

impl ScenarioAction {
    /// Whether the driver pre-schedules this action through the simulator's
    /// event queue (crashes only) rather than applying it between
    /// event-loop steps.
    pub fn is_prescheduled(&self) -> bool {
        matches!(self, ScenarioAction::Crash { .. })
    }
}

/// A timed scripted action.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioEvent {
    /// Absolute simulated time at which the action applies.
    pub at: SimTime,
    /// The action.
    pub action: ScenarioAction,
}

/// Parameters of the exponential session-time churn generator.
///
/// Each node alternates exponentially distributed up (session) and down
/// periods, crashing at session end and rejoining afterwards — the
/// standard churn model of the peer-to-peer literature. A configurable
/// fraction of nodes instead departs *gracefully* at the end of its first
/// session and never returns.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// The nodes subject to churn (exclude the source and any other node
    /// that must stay up).
    pub nodes: Vec<OverlayId>,
    /// Churn begins here (give the overlay time to settle first).
    pub start: SimTime,
    /// No churn events are generated at or after this time.
    pub end: SimTime,
    /// Mean session (up) time.
    pub mean_session_secs: f64,
    /// Mean downtime between sessions.
    pub mean_downtime_secs: f64,
    /// Fraction of nodes that leave gracefully (once, permanently) instead
    /// of crash/rejoin cycling.
    pub graceful_fraction: f64,
    /// Seed for the generator's deterministic randomness.
    pub seed: u64,
}

/// A deterministic scenario: timed events plus the set of nodes that start
/// the run down (late joiners).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioScript {
    events: Vec<ScenarioEvent>,
    initially_down: Vec<OverlayId>,
}

impl ScenarioScript {
    /// An empty script (the run plays out exactly as without a driver).
    pub const fn new() -> Self {
        ScenarioScript {
            events: Vec::new(),
            initially_down: Vec::new(),
        }
    }

    /// Appends an action at `at`. Events at equal times apply in insertion
    /// order.
    pub fn at(mut self, at: SimTime, action: ScenarioAction) -> Self {
        self.push(at, action);
        self
    }

    /// Appends an action at `at` (by-reference form of [`Self::at`]).
    pub fn push(&mut self, at: SimTime, action: ScenarioAction) {
        self.events.push(ScenarioEvent { at, action });
    }

    /// Marks `node` as down from the start of the run (a late joiner: its
    /// first `on_start`'s sends are dropped and its timers stay silent until
    /// a [`ScenarioAction::Join`] bootstraps it again).
    pub fn down_from_start(&mut self, node: OverlayId) {
        if !self.initially_down.contains(&node) {
            self.initially_down.push(node);
        }
    }

    /// The nodes down from the start of the run.
    pub fn initially_down(&self) -> &[OverlayId] {
        &self.initially_down
    }

    /// The scripted events, sorted by time (stable: equal times keep
    /// insertion order).
    pub fn sorted_events(&self) -> Vec<ScenarioEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at.as_micros());
        events
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script holds no events and no initially-down nodes.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.initially_down.is_empty()
    }

    /// Merges `other`'s events and initially-down set into `self`.
    pub fn merge(mut self, other: ScenarioScript) -> Self {
        self.events.extend(other.events);
        for node in other.initially_down {
            self.down_from_start(node);
        }
        self
    }

    /// The paper's worst-case single failure (Figs. 13/14) as a one-event
    /// script. Event-for-event identical to the legacy `RunSpec::failure`
    /// injection.
    pub fn single_crash(at: SimTime, node: OverlayId) -> Self {
        Self::new().at(at, ScenarioAction::Crash { node })
    }

    /// Exponential session-time churn over the configured nodes (see
    /// [`ChurnConfig`]). Fully deterministic in the seed; each node draws
    /// from its own decorrelated stream, so the node set can change without
    /// perturbing other nodes' schedules.
    pub fn exponential_churn(config: &ChurnConfig) -> Self {
        let mut script = Self::new();
        for &node in &config.nodes {
            let mut rng = SimRng::new(
                config
                    .seed
                    .wrapping_add((node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            let graceful = rng.chance(config.graceful_fraction);
            let mut t = config.start.as_secs_f64() + rng.exponential(config.mean_session_secs);
            let end = config.end.as_secs_f64();
            loop {
                if t >= end {
                    break;
                }
                let leave_at = SimTime::from_secs_f64(t);
                if graceful {
                    script.push(leave_at, ScenarioAction::GracefulLeave { node });
                    break;
                }
                script.push(leave_at, ScenarioAction::Crash { node });
                t += rng.exponential(config.mean_downtime_secs);
                if t >= end {
                    break;
                }
                script.push(SimTime::from_secs_f64(t), ScenarioAction::Join { node });
                t += rng.exponential(config.mean_session_secs);
            }
        }
        script
    }

    /// An oscillating bottleneck: the link's capacity drops to `low_bps` at
    /// `start`, toggles between low and `high_bps` every `half_period`, and
    /// is restored to `high_bps` at `end`.
    pub fn oscillating_link(
        link: usize,
        high_bps: f64,
        low_bps: f64,
        half_period_secs: f64,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        let mut script = Self::new();
        let mut t = start.as_secs_f64();
        let mut low = true;
        while t < end.as_secs_f64() {
            script.push(
                SimTime::from_secs_f64(t),
                ScenarioAction::SetLinkBandwidth {
                    link,
                    bps: if low { low_bps } else { high_bps },
                },
            );
            low = !low;
            t += half_period_secs;
        }
        script.push(
            end,
            ScenarioAction::SetLinkBandwidth {
                link,
                bps: high_bps,
            },
        );
        script
    }

    /// Marks a deterministic fraction of `nodes` as misbehaving peers from
    /// `at` on. The adversaries are a seeded uniform sample (sorted, for
    /// reproducible scripts) alternating between two personas: payload
    /// corrupters (every data packet they forward is tampered with
    /// probability `corrupt_chance`) and false advertisers (they claim
    /// phantom content, stall on every block they owe, and serve nothing).
    /// Fully deterministic in the seed.
    pub fn adversary_fraction(
        nodes: &[OverlayId],
        fraction: f64,
        at: SimTime,
        corrupt_chance: f64,
        seed: u64,
    ) -> Self {
        let mut script = Self::new();
        let count = ((nodes.len() as f64 * fraction).round() as usize).min(nodes.len());
        if count == 0 {
            return script;
        }
        let mut rng = SimRng::new(seed);
        let mut chosen = rng.sample(nodes, count);
        chosen.sort_unstable();
        for (i, &node) in chosen.iter().enumerate() {
            let plan = if i % 2 == 0 {
                FaultPlan {
                    corrupt_chance,
                    ..FaultPlan::default()
                }
            } else {
                FaultPlan {
                    stall_chance: 1.0,
                    false_advertise: true,
                    ..FaultPlan::default()
                }
            };
            script.push(at, ScenarioAction::Adversary { node, plan });
        }
        script
    }

    /// A correlated stub outage: every link incident to `router` goes down
    /// at `at` and comes back after `duration_secs`.
    pub fn stub_outage(router: RouterId, at: SimTime, duration_secs: f64) -> Self {
        Self::new()
            .at(at, ScenarioAction::SetRouterUp { router, up: false })
            .at(
                SimTime::from_secs_f64(at.as_secs_f64() + duration_secs),
                ScenarioAction::SetRouterUp { router, up: true },
            )
    }

    /// Alternating partition/heal churn: starting after an exponentially
    /// distributed whole period (mean `mean_whole_secs`) past `start`, the
    /// overlay splits for an exponentially distributed period (mean
    /// `mean_partition_secs`), then heals, and the cycle repeats until
    /// `end`. Each cut isolates a fresh uniformly-sized random subset of
    /// `nodes` (sorted, for reproducible scripts). Fully deterministic in
    /// the seed, and the script always ends with a heal so no partition
    /// outlives the window.
    pub fn partition_churn(
        nodes: &[OverlayId],
        start: SimTime,
        end: SimTime,
        mean_whole_secs: f64,
        mean_partition_secs: f64,
        seed: u64,
    ) -> Self {
        let mut script = Self::new();
        if nodes.is_empty() {
            return script;
        }
        let mut rng = SimRng::new(seed);
        let end_secs = end.as_secs_f64();
        let mut t = start.as_secs_f64() + rng.exponential(mean_whole_secs);
        while t < end_secs {
            let size = rng.range_usize(1, nodes.len() + 1);
            let mut side = rng.sample(nodes, size);
            side.sort_unstable();
            script.push(
                SimTime::from_secs_f64(t),
                ScenarioAction::Partition { nodes: side },
            );
            t += rng.exponential(mean_partition_secs);
            let heal_at = SimTime::from_secs_f64(t.min(end_secs));
            script.push(heal_at, ScenarioAction::Heal);
            t += rng.exponential(mean_whole_secs);
        }
        script
    }

    /// Parses the text scenario format (the `figures` bench reads it from
    /// `BULLET_SCENARIO`).
    ///
    /// Events are separated by `;` or newlines. Each event is
    /// whitespace-separated fields; the first is the time in (possibly
    /// fractional) seconds, except for the time-less `down` marker:
    ///
    /// ```text
    /// down <node>                  node starts the run down (late joiner)
    /// <t> crash <node>             crash-fail
    /// <t> leave <node>             graceful leave
    /// <t> join <node>              (re)join
    /// <t> recover <node>           recovery from a crash (re-bootstraps)
    /// <t> link-bw <link> <bps>     set link capacity
    /// <t> link-loss <link> <p>     set link loss probability
    /// <t> link-down <link>         take link down
    /// <t> link-up <link>           bring link up
    /// <t> router-down <router>     correlated stub outage
    /// <t> router-up <router>       end of the outage
    /// <t> partition <n1,n2,...>    isolate the listed nodes from the rest
    /// <t> heal                     heal any active partition
    /// <t> fault <node> <drop> <dup> <delayp> <delaysecs>
    ///                              install a control-plane fault plan
    /// <t> adversary <node> <corrupt> <stall> <false-adv 0|1>
    ///                              turn the node into a misbehaving peer
    /// <t> joinstorm <first> <count> <ramp-secs> <seed>
    ///                              cohort starts down, joins inside the ramp
    /// <t> slow_node <node> <factor>
    ///                              scale the node's reported intake by factor
    /// ```
    ///
    /// Errors name the (1-based) line of the offending entry, so a typo in
    /// a long `BULLET_SCENARIO` value is findable.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut script = Self::new();
        for (index, line) in text.lines().enumerate() {
            for raw in line.split(';') {
                let entry = raw.trim();
                if entry.is_empty() || entry.starts_with('#') {
                    continue;
                }
                script
                    .parse_entry(entry)
                    .map_err(|what| format!("line {}: {what}", index + 1))?;
            }
        }
        Ok(script)
    }

    /// Parses one `;`-free scenario entry into the script.
    fn parse_entry(&mut self, entry: &str) -> Result<(), String> {
        let script = self;
        {
            let fields: Vec<&str> = entry.split_whitespace().collect();
            let err = |what: &str| format!("scenario entry {entry:?}: {what}");
            if fields[0] == "down" {
                let node = Self::field::<OverlayId>(&fields, 1, entry)?;
                script.down_from_start(node);
                return Ok(());
            }
            let secs: f64 = fields[0]
                .parse()
                .map_err(|_| err("expected a time in seconds"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(err("time must be a non-negative number"));
            }
            let at = SimTime::from_secs_f64(secs);
            let verb = *fields.get(1).ok_or_else(|| err("missing action"))?;
            let action = match verb {
                "crash" => ScenarioAction::Crash {
                    node: Self::field(&fields, 2, entry)?,
                },
                "leave" => ScenarioAction::GracefulLeave {
                    node: Self::field(&fields, 2, entry)?,
                },
                "join" => ScenarioAction::Join {
                    node: Self::field(&fields, 2, entry)?,
                },
                "recover" => ScenarioAction::Recover {
                    node: Self::field(&fields, 2, entry)?,
                },
                "link-bw" => ScenarioAction::SetLinkBandwidth {
                    link: Self::field(&fields, 2, entry)?,
                    bps: Self::field(&fields, 3, entry)?,
                },
                "link-loss" => ScenarioAction::SetLinkLoss {
                    link: Self::field(&fields, 2, entry)?,
                    loss: Self::field(&fields, 3, entry)?,
                },
                "link-down" => ScenarioAction::SetLinkUp {
                    link: Self::field(&fields, 2, entry)?,
                    up: false,
                },
                "link-up" => ScenarioAction::SetLinkUp {
                    link: Self::field(&fields, 2, entry)?,
                    up: true,
                },
                "router-down" => ScenarioAction::SetRouterUp {
                    router: Self::field(&fields, 2, entry)?,
                    up: false,
                },
                "router-up" => ScenarioAction::SetRouterUp {
                    router: Self::field(&fields, 2, entry)?,
                    up: true,
                },
                "partition" => {
                    let list = *fields.get(2).ok_or_else(|| err("missing node list"))?;
                    let mut nodes = Vec::new();
                    for part in list.split(',') {
                        nodes.push(
                            part.parse::<OverlayId>()
                                .map_err(|_| err(&format!("bad partition node {part:?}")))?,
                        );
                    }
                    ScenarioAction::Partition { nodes }
                }
                "heal" => ScenarioAction::Heal,
                "fault" => {
                    let drop_chance: f64 = Self::field(&fields, 3, entry)?;
                    let duplicate_chance: f64 = Self::field(&fields, 4, entry)?;
                    let delay_chance: f64 = Self::field(&fields, 5, entry)?;
                    let delay_secs: f64 = Self::field(&fields, 6, entry)?;
                    for p in [drop_chance, duplicate_chance, delay_chance] {
                        if !(0.0..=1.0).contains(&p) {
                            return Err(err("fault probabilities must be in [0, 1]"));
                        }
                    }
                    if !delay_secs.is_finite() || delay_secs < 0.0 {
                        return Err(err("fault delay must be a non-negative number"));
                    }
                    ScenarioAction::Fault {
                        node: Self::field(&fields, 2, entry)?,
                        plan: FaultPlan {
                            drop_chance,
                            duplicate_chance,
                            delay_chance,
                            delay: SimDuration::from_secs_f64(delay_secs),
                            ..FaultPlan::default()
                        },
                    }
                }
                "adversary" => {
                    let corrupt_chance: f64 = Self::field(&fields, 3, entry)?;
                    let stall_chance: f64 = Self::field(&fields, 4, entry)?;
                    for p in [corrupt_chance, stall_chance] {
                        if !(0.0..=1.0).contains(&p) {
                            return Err(err("adversary probabilities must be in [0, 1]"));
                        }
                    }
                    let false_advertise =
                        match *fields.get(5).ok_or_else(|| err("missing field 5"))? {
                            "0" => false,
                            "1" => true,
                            other => {
                                return Err(err(&format!(
                                    "false-advertise must be 0 or 1, got {other:?}"
                                )))
                            }
                        };
                    ScenarioAction::Adversary {
                        node: Self::field(&fields, 2, entry)?,
                        plan: FaultPlan {
                            stall_chance,
                            corrupt_chance,
                            false_advertise,
                            ..FaultPlan::default()
                        },
                    }
                }
                "joinstorm" => {
                    let ramp_secs: f64 = Self::field(&fields, 4, entry)?;
                    if !ramp_secs.is_finite() || ramp_secs < 0.0 {
                        return Err(err("join-storm ramp must be a non-negative number"));
                    }
                    ScenarioAction::JoinStorm {
                        first: Self::field(&fields, 2, entry)?,
                        count: Self::field(&fields, 3, entry)?,
                        ramp_secs,
                        seed: Self::field(&fields, 5, entry)?,
                    }
                }
                "slow_node" => {
                    let factor: f64 = Self::field(&fields, 3, entry)?;
                    if !(0.0..=1.0).contains(&factor) {
                        return Err(err("slow-node factor must be in [0, 1]"));
                    }
                    ScenarioAction::SlowNode {
                        node: Self::field(&fields, 2, entry)?,
                        factor,
                    }
                }
                other => return Err(err(&format!("unknown action {other:?}"))),
            };
            script.push(at, action);
        }
        Ok(())
    }

    fn field<T: std::str::FromStr>(
        fields: &[&str],
        index: usize,
        entry: &str,
    ) -> Result<T, String> {
        fields
            .get(index)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("scenario entry {entry:?}: bad or missing field {index}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The round-trip oracle: `script` in the text format
    /// [`ScenarioScript::parse`] accepts, one entry per line, `down` markers
    /// first, then events in insertion order. `parse(&format(&script))`
    /// must reconstruct `script` exactly (times are microsecond-resolution
    /// and floats print at full precision).
    fn format(script: &ScenarioScript) -> String {
        let mut lines = Vec::with_capacity(script.initially_down.len() + script.events.len());
        for &node in &script.initially_down {
            lines.push(format!("down {node}"));
        }
        for event in &script.events {
            let t = event.at.as_secs_f64();
            lines.push(match &event.action {
                ScenarioAction::Crash { node } => format!("{t} crash {node}"),
                ScenarioAction::Recover { node } => format!("{t} recover {node}"),
                ScenarioAction::GracefulLeave { node } => format!("{t} leave {node}"),
                ScenarioAction::Join { node } => format!("{t} join {node}"),
                ScenarioAction::SetLinkBandwidth { link, bps } => {
                    format!("{t} link-bw {link} {bps}")
                }
                ScenarioAction::SetLinkLoss { link, loss } => {
                    format!("{t} link-loss {link} {loss}")
                }
                ScenarioAction::SetLinkUp { link, up: false } => format!("{t} link-down {link}"),
                ScenarioAction::SetLinkUp { link, up: true } => format!("{t} link-up {link}"),
                ScenarioAction::SetRouterUp { router, up: false } => {
                    format!("{t} router-down {router}")
                }
                ScenarioAction::SetRouterUp { router, up: true } => {
                    format!("{t} router-up {router}")
                }
                ScenarioAction::Partition { nodes } => {
                    let list: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
                    format!("{t} partition {}", list.join(","))
                }
                ScenarioAction::Heal => format!("{t} heal"),
                ScenarioAction::Fault { node, plan } => format!(
                    "{t} fault {node} {} {} {} {}",
                    plan.drop_chance,
                    plan.duplicate_chance,
                    plan.delay_chance,
                    plan.delay.as_secs_f64()
                ),
                ScenarioAction::Adversary { node, plan } => format!(
                    "{t} adversary {node} {} {} {}",
                    plan.corrupt_chance,
                    plan.stall_chance,
                    u8::from(plan.false_advertise)
                ),
                ScenarioAction::JoinStorm {
                    first,
                    count,
                    ramp_secs,
                    seed,
                } => format!("{t} joinstorm {first} {count} {ramp_secs} {seed}"),
                ScenarioAction::SlowNode { node, factor } => {
                    format!("{t} slow_node {node} {factor}")
                }
            });
        }
        lines.join("\n")
    }

    #[test]
    fn events_sort_stably_by_time() {
        let t = SimTime::from_secs(5);
        let script = ScenarioScript::new()
            .at(SimTime::from_secs(9), ScenarioAction::Crash { node: 9 })
            .at(t, ScenarioAction::Crash { node: 1 })
            .at(t, ScenarioAction::Join { node: 2 });
        let sorted = script.sorted_events();
        assert_eq!(sorted[0].at, t);
        assert_eq!(sorted[0].action, ScenarioAction::Crash { node: 1 });
        assert_eq!(sorted[1].action, ScenarioAction::Join { node: 2 });
        assert_eq!(sorted[2].at, SimTime::from_secs(9));
    }

    #[test]
    fn exponential_churn_is_deterministic_and_well_formed() {
        let config = ChurnConfig {
            nodes: (1..20).collect(),
            start: SimTime::from_secs(20),
            end: SimTime::from_secs(200),
            mean_session_secs: 40.0,
            mean_downtime_secs: 10.0,
            graceful_fraction: 0.2,
            seed: 7,
        };
        let a = ScenarioScript::exponential_churn(&config);
        let b = ScenarioScript::exponential_churn(&config);
        assert_eq!(a, b, "same config must generate the same script");
        assert!(!a.is_empty(), "200 s of churn generated no events");
        // Per node: alternating leave/join starting with a leave, inside
        // the window; graceful leavers never rejoin.
        for &node in &config.nodes {
            let mut up = true;
            let mut left_gracefully = false;
            for event in a.sorted_events() {
                let (is_node, joins) = match event.action {
                    ScenarioAction::Crash { node: n } => (n == node, false),
                    ScenarioAction::GracefulLeave { node: n } => (n == node, false),
                    ScenarioAction::Join { node: n } => (n == node, true),
                    _ => (false, false),
                };
                if !is_node {
                    continue;
                }
                assert!(event.at >= config.start && event.at < config.end);
                assert!(!left_gracefully, "node {node} acted after a graceful leave");
                assert_ne!(
                    up,
                    joins,
                    "node {node} double-{}",
                    if joins { "joined" } else { "left" }
                );
                up = joins;
                if matches!(event.action, ScenarioAction::GracefulLeave { .. }) {
                    left_gracefully = true;
                }
            }
        }
    }

    #[test]
    fn oscillating_link_alternates_and_restores() {
        let script = ScenarioScript::oscillating_link(
            4,
            1e6,
            2.5e5,
            10.0,
            SimTime::from_secs(100),
            SimTime::from_secs(140),
        );
        let events = script.sorted_events();
        let rates: Vec<f64> = events
            .iter()
            .map(|e| match e.action {
                ScenarioAction::SetLinkBandwidth { link, bps } => {
                    assert_eq!(link, 4);
                    bps
                }
                ref other => panic!("unexpected action {other:?}"),
            })
            .collect();
        assert_eq!(rates, vec![2.5e5, 1e6, 2.5e5, 1e6, 1e6]);
        assert_eq!(events.last().unwrap().at, SimTime::from_secs(140));
    }

    #[test]
    fn stub_outage_brackets_the_window() {
        let script = ScenarioScript::stub_outage(17, SimTime::from_secs(30), 12.5);
        let events = script.sorted_events();
        assert_eq!(
            events[0].action,
            ScenarioAction::SetRouterUp {
                router: 17,
                up: false
            }
        );
        assert_eq!(
            events[1].action,
            ScenarioAction::SetRouterUp {
                router: 17,
                up: true
            }
        );
        assert_eq!(events[1].at, SimTime::from_secs_f64(42.5));
    }

    #[test]
    fn parses_the_env_format() {
        let script = ScenarioScript::parse(
            "down 7; 10 crash 3; 20.5 join 3\n30 link-bw 2 250000; 40 link-loss 2 0.1; \
             50 link-down 2; 60 link-up 2; 70 router-down 9; 80 router-up 9; 90 leave 4; \
             # a comment\n95 recover 3",
        )
        .expect("valid script");
        assert_eq!(script.initially_down(), &[7]);
        let events = script.sorted_events();
        assert_eq!(events.len(), 10);
        assert_eq!(events[0].action, ScenarioAction::Crash { node: 3 });
        assert_eq!(events[1].at, SimTime::from_secs_f64(20.5));
        assert_eq!(
            events[2].action,
            ScenarioAction::SetLinkBandwidth {
                link: 2,
                bps: 250_000.0
            }
        );
        assert_eq!(events[8].action, ScenarioAction::GracefulLeave { node: 4 });
        assert_eq!(events[9].action, ScenarioAction::Recover { node: 3 });
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        assert!(ScenarioScript::parse("ten crash 3").is_err());
        assert!(ScenarioScript::parse("10 explode 3").is_err());
        assert!(ScenarioScript::parse("10 crash").is_err());
        assert!(ScenarioScript::parse("-5 crash 3").is_err());
        assert!(ScenarioScript::parse("10 link-bw 2").is_err());
    }

    #[test]
    fn parses_partition_heal_and_fault_verbs() {
        let script =
            ScenarioScript::parse("5 partition 1,2,7; 9 heal; 12 fault 4 0.25 0 0.5 0.125")
                .expect("valid script");
        let events = script.sorted_events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].action,
            ScenarioAction::Partition {
                nodes: vec![1, 2, 7]
            }
        );
        assert_eq!(events[1].action, ScenarioAction::Heal);
        assert_eq!(
            events[2].action,
            ScenarioAction::Fault {
                node: 4,
                plan: FaultPlan {
                    drop_chance: 0.25,
                    duplicate_chance: 0.0,
                    delay_chance: 0.5,
                    delay: SimDuration::from_secs_f64(0.125),
                    ..FaultPlan::default()
                }
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_partition_and_fault_entries() {
        assert!(ScenarioScript::parse("5 partition").is_err());
        assert!(ScenarioScript::parse("5 partition 1,x,3").is_err());
        assert!(
            ScenarioScript::parse("5 fault 4 1.5 0 0 0").is_err(),
            "p > 1"
        );
        assert!(
            ScenarioScript::parse("5 fault 4 0 -0.1 0 0").is_err(),
            "p < 0"
        );
        assert!(
            ScenarioScript::parse("5 fault 4 0 0 0 -1").is_err(),
            "delay < 0"
        );
        assert!(
            ScenarioScript::parse("5 fault 4 0 0 0").is_err(),
            "missing field"
        );
    }

    #[test]
    fn parses_the_adversary_verb() {
        let script = ScenarioScript::parse("5 adversary 9 0.75 0.25 1; 8 adversary 4 0.5 0 0")
            .expect("valid script");
        let events = script.sorted_events();
        assert_eq!(
            events[0].action,
            ScenarioAction::Adversary {
                node: 9,
                plan: FaultPlan {
                    corrupt_chance: 0.75,
                    stall_chance: 0.25,
                    false_advertise: true,
                    ..FaultPlan::default()
                }
            }
        );
        assert_eq!(
            events[1].action,
            ScenarioAction::Adversary {
                node: 4,
                plan: FaultPlan {
                    corrupt_chance: 0.5,
                    ..FaultPlan::default()
                }
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_adversary_entries() {
        assert!(
            ScenarioScript::parse("5 adversary 9 1.5 0 0").is_err(),
            "p > 1"
        );
        assert!(
            ScenarioScript::parse("5 adversary 9 0 -1 0").is_err(),
            "p < 0"
        );
        assert!(
            ScenarioScript::parse("5 adversary 9 0.5 0 yes").is_err(),
            "false-advertise flag must be 0/1"
        );
        assert!(
            ScenarioScript::parse("5 adversary 9 0.5 0").is_err(),
            "missing field"
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = ScenarioScript::parse("down 3\n10 crash 4; 12 heal\n13 explode 9")
            .expect_err("bad verb must fail");
        assert!(
            err.starts_with("line 3:"),
            "error should name line 3, got: {err}"
        );
        assert!(err.contains("explode"), "error names the bad verb: {err}");
        let err = ScenarioScript::parse("10 crash 4; ten heal").expect_err("bad time must fail");
        assert!(
            err.starts_with("line 1:"),
            "same-line entries report line 1, got: {err}"
        );
    }

    #[test]
    fn adversary_fraction_is_deterministic_and_alternates_personas() {
        let nodes: Vec<usize> = (1..41).collect();
        let at = SimTime::from_secs(15);
        let a = ScenarioScript::adversary_fraction(&nodes, 0.25, at, 0.8, 11);
        let b = ScenarioScript::adversary_fraction(&nodes, 0.25, at, 0.8, 11);
        assert_eq!(a, b, "same seed must pick the same adversaries");
        let events = a.sorted_events();
        assert_eq!(events.len(), 10, "25% of 40 nodes");
        let mut corrupters = 0;
        let mut liars = 0;
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.at, at);
            let ScenarioAction::Adversary { node, plan } = &event.action else {
                panic!("unexpected action {:?}", event.action);
            };
            assert!(nodes.contains(node));
            if i % 2 == 0 {
                assert_eq!(plan.corrupt_chance, 0.8);
                assert!(!plan.false_advertise);
                corrupters += 1;
            } else {
                assert!(plan.false_advertise);
                assert_eq!(plan.stall_chance, 1.0);
                liars += 1;
            }
        }
        assert_eq!((corrupters, liars), (5, 5));
        assert!(
            ScenarioScript::adversary_fraction(&nodes, 0.0, at, 0.8, 11).is_empty(),
            "zero fraction generates nothing"
        );
    }

    #[test]
    fn format_round_trips_every_verb() {
        let mut script = ScenarioScript::new()
            .at(SimTime::from_secs(6), ScenarioAction::Crash { node: 3 })
            .at(
                SimTime::from_secs_f64(7.25),
                ScenarioAction::Recover { node: 3 },
            )
            .at(
                SimTime::from_secs(9),
                ScenarioAction::GracefulLeave { node: 5 },
            )
            .at(SimTime::from_secs(10), ScenarioAction::Join { node: 6 })
            .at(
                SimTime::from_secs(11),
                ScenarioAction::SetLinkBandwidth {
                    link: 1,
                    bps: 250_000.5,
                },
            )
            .at(
                SimTime::from_secs(12),
                ScenarioAction::SetLinkLoss { link: 2, loss: 0.1 },
            )
            .at(
                SimTime::from_secs(13),
                ScenarioAction::SetLinkUp { link: 2, up: false },
            )
            .at(
                SimTime::from_secs(14),
                ScenarioAction::SetLinkUp { link: 2, up: true },
            )
            .at(
                SimTime::from_secs(15),
                ScenarioAction::SetRouterUp {
                    router: 9,
                    up: false,
                },
            )
            .at(
                SimTime::from_secs(16),
                ScenarioAction::SetRouterUp {
                    router: 9,
                    up: true,
                },
            )
            .at(
                SimTime::from_secs_f64(17.125),
                ScenarioAction::Partition {
                    nodes: vec![1, 4, 9],
                },
            )
            .at(SimTime::from_secs(18), ScenarioAction::Heal)
            .at(
                SimTime::from_secs(19),
                ScenarioAction::Fault {
                    node: 7,
                    plan: FaultPlan {
                        drop_chance: 0.125,
                        duplicate_chance: 0.0625,
                        delay_chance: 0.5,
                        delay: SimDuration::from_millis(250),
                        ..FaultPlan::default()
                    },
                },
            )
            .at(
                SimTime::from_secs(20),
                ScenarioAction::Adversary {
                    node: 8,
                    plan: FaultPlan {
                        corrupt_chance: 0.75,
                        stall_chance: 0.125,
                        false_advertise: true,
                        ..FaultPlan::default()
                    },
                },
            )
            .at(
                SimTime::from_secs(21),
                ScenarioAction::JoinStorm {
                    first: 12,
                    count: 24,
                    ramp_secs: 7.5,
                    seed: 37,
                },
            )
            .at(
                SimTime::from_secs(22),
                ScenarioAction::SlowNode {
                    node: 4,
                    factor: 0.25,
                },
            );
        script.down_from_start(7);
        script.down_from_start(11);
        let reparsed = ScenarioScript::parse(&format(&script)).expect("formatted script parses");
        assert_eq!(reparsed, script, "parse(format(s)) must reconstruct s");
    }

    #[test]
    fn parses_and_round_trips_the_overload_verbs() {
        let script = ScenarioScript::parse("30 joinstorm 8 24 10 37; 45.5 slow_node 3 0.25")
            .expect("valid script");
        let events = script.sorted_events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].action,
            ScenarioAction::JoinStorm {
                first: 8,
                count: 24,
                ramp_secs: 10.0,
                seed: 37,
            }
        );
        assert_eq!(
            events[1].action,
            ScenarioAction::SlowNode {
                node: 3,
                factor: 0.25,
            }
        );
        assert_eq!(events[1].at, SimTime::from_secs_f64(45.5));
        let reparsed = ScenarioScript::parse(&format(&script)).expect("formatted script parses");
        assert_eq!(reparsed, script, "overload verbs must round-trip");
    }

    #[test]
    fn parse_rejects_malformed_overload_entries_with_line_numbers() {
        assert!(
            ScenarioScript::parse("5 joinstorm 8 24 10").is_err(),
            "missing seed"
        );
        assert!(
            ScenarioScript::parse("5 joinstorm 8 24 -1 7").is_err(),
            "negative ramp"
        );
        assert!(
            ScenarioScript::parse("5 joinstorm 8 many 10 7").is_err(),
            "non-numeric count"
        );
        assert!(
            ScenarioScript::parse("5 slow_node 3 1.5").is_err(),
            "factor > 1"
        );
        assert!(
            ScenarioScript::parse("5 slow_node 3 -0.1").is_err(),
            "factor < 0"
        );
        assert!(
            ScenarioScript::parse("5 slow_node 3").is_err(),
            "missing factor"
        );
        let err = ScenarioScript::parse("down 1\n10 crash 2\n12 slow_node 3 nine")
            .expect_err("bad factor must fail");
        assert!(
            err.starts_with("line 3:"),
            "error should name line 3, got: {err}"
        );
        let err = ScenarioScript::parse("10 crash 2\n11 joinstorm 8 24 10")
            .expect_err("short storm must fail");
        assert!(
            err.starts_with("line 2:"),
            "error should name line 2, got: {err}"
        );
    }

    #[test]
    fn format_round_trips_generated_scripts() {
        let script = ScenarioScript::exponential_churn(&ChurnConfig {
            nodes: (1..10).collect(),
            start: SimTime::from_secs(5),
            end: SimTime::from_secs(60),
            mean_session_secs: 13.0,
            mean_downtime_secs: 4.0,
            graceful_fraction: 0.25,
            seed: 21,
        })
        .merge(ScenarioScript::partition_churn(
            &[1, 2, 3, 4, 5],
            SimTime::from_secs(5),
            SimTime::from_secs(60),
            9.0,
            3.0,
            77,
        ));
        let reparsed = ScenarioScript::parse(&format(&script)).expect("formatted script parses");
        assert_eq!(reparsed, script);
    }

    #[test]
    fn partition_churn_alternates_and_ends_healed() {
        let nodes: Vec<usize> = (1..12).collect();
        let a = ScenarioScript::partition_churn(
            &nodes,
            SimTime::from_secs(10),
            SimTime::from_secs(120),
            15.0,
            6.0,
            5,
        );
        let b = ScenarioScript::partition_churn(
            &nodes,
            SimTime::from_secs(10),
            SimTime::from_secs(120),
            15.0,
            6.0,
            5,
        );
        assert_eq!(a, b, "same config must generate the same script");
        assert!(
            !a.is_empty(),
            "110 s of partition churn generated no events"
        );
        let events = a.sorted_events();
        let mut partitioned = false;
        for event in &events {
            match &event.action {
                ScenarioAction::Partition { nodes: side } => {
                    assert!(!partitioned, "partition while already partitioned");
                    assert!(!side.is_empty());
                    let mut sorted = side.clone();
                    sorted.sort_unstable();
                    assert_eq!(&sorted, side, "sides are emitted sorted");
                    assert!(side.iter().all(|n| nodes.contains(n)));
                    assert!(event.at >= SimTime::from_secs(10));
                    partitioned = true;
                }
                ScenarioAction::Heal => {
                    assert!(partitioned, "heal without a partition");
                    partitioned = false;
                }
                other => panic!("unexpected action {other:?}"),
            }
            assert!(event.at <= SimTime::from_secs(120));
        }
        assert!(!partitioned, "script must end healed");
    }

    #[test]
    fn merge_combines_events_and_down_sets() {
        let a = ScenarioScript::single_crash(SimTime::from_secs(10), 1);
        let mut b = ScenarioScript::new();
        b.down_from_start(5);
        b.push(SimTime::from_secs(5), ScenarioAction::Join { node: 5 });
        let merged = a.merge(b);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.initially_down(), &[5]);
        assert_eq!(
            merged.sorted_events()[0].action,
            ScenarioAction::Join { node: 5 }
        );
    }
}
