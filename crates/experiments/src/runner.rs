//! Generic experiment runner.
//!
//! Every protocol under evaluation (Bullet, tree streaming, gossip,
//! anti-entropy) exposes the same cumulative delivery counters through
//! [`MeteredAgent`]; the runner samples them on a fixed interval while the
//! simulation advances and turns them into the bandwidth-over-time series,
//! CDFs and scalar summaries the paper's figures are built from.
//!
//! Sampling goes through the [`MetricsHub`]: each delivery counter is a
//! registered rate channel, differenced and folded by the hub in node
//! order, the `f64` accumulation order the goldens pin. When a run is
//! configured with a [`TelemetryConfig`], the result additionally carries
//! a [`RunTelemetry`]: the flight-recorder trace, the hub series,
//! per-block journey spans and the simulator's self-profile. The caller
//! chooses the switches; [`run_metered`] and every figure run keep them
//! off.

use bullet_baselines::{AntiEntropyNode, GossipNode, StreamingNode};
use bullet_core::{BulletMetrics, BulletNode};
use bullet_dynamics::{ScenarioAgent, ScenarioDriver, ScenarioScript};
use bullet_netsim::telemetry::{
    block_journeys, journeys_to_jsonl, ChannelId, DeliveryCounters, MetricsHub, SelfProfile,
    TraceSpec,
};
use bullet_netsim::{OverlayId, RoutingStats, Sim, SimDuration, SimTime};

use crate::metrics::{
    mean_secs_from_us, median_or_zero, ratio_or_zero, BandwidthSeries, Cdf, RateSeries, RunSummary,
};

/// A protocol agent whose delivery progress the runner can observe. Every
/// metered run goes through the scenario driver (a static run is an empty
/// script), hence the [`ScenarioAgent`] bound.
pub trait MeteredAgent: ScenarioAgent {
    /// The node's cumulative delivery counters — the core every protocol
    /// keeps, sampled once per node per interval.
    fn delivery(&self) -> DeliveryCounters;

    /// Everything the node counts, read once at the end of the run. The
    /// baselines keep only the delivery core; Bullet hands out its layer
    /// counters with it.
    fn counters(&self) -> BulletMetrics {
        BulletMetrics {
            delivery: self.delivery(),
            ..BulletMetrics::default()
        }
    }
}

impl MeteredAgent for BulletNode {
    fn delivery(&self) -> DeliveryCounters {
        self.metrics.delivery
    }

    fn counters(&self) -> BulletMetrics {
        self.metrics
    }
}

macro_rules! impl_metered_for_baseline {
    ($ty:ty) => {
        impl MeteredAgent for $ty {
            fn delivery(&self) -> DeliveryCounters {
                self.metrics
            }
        }
    };
}

impl_metered_for_baseline!(StreamingNode);
impl_metered_for_baseline!(GossipNode);
impl_metered_for_baseline!(AntiEntropyNode);

/// Telemetry switches for one metered run. The default is everything off:
/// no recorder is installed and the sim's hot path only checks one
/// `Option`. Telemetry observes only, so a traced run of the same spec
/// simulates exactly the same events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Install a flight recorder with this spec before the run.
    pub trace: Option<TraceSpec>,
    /// Enable simulator self-profiling (queue-depth tracking).
    pub profile: bool,
}

impl TelemetryConfig {
    /// Everything off — the zero-cost default.
    pub fn disabled() -> Self {
        TelemetryConfig::default()
    }

    /// Whether the run should skip telemetry collection entirely.
    pub fn is_off(&self) -> bool {
        self.trace.is_none() && !self.profile
    }
}

/// Telemetry captured by one run; present on [`RunResult::telemetry`] only
/// when the run was configured with tracing or profiling.
///
/// Every field except the wall-clock half of the profile is a pure function
/// of the simulation, so two runs of the same configuration compare equal
/// across thread counts and hosts ([`SelfProfile`]'s `PartialEq` ignores
/// its wall-clock fields).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTelemetry {
    /// Flight-recorder events as JSONL (empty when tracing was off).
    pub trace_jsonl: String,
    /// Metrics-hub series as JSONL (one line per windowed point).
    pub series_jsonl: String,
    /// Per-block journey spans as JSONL (empty when tracing was off).
    pub journeys_jsonl: String,
    /// Simulator self-profile (`None` unless profiling was enabled).
    pub profile: Option<SelfProfile>,
}

/// The full outcome of one run: per-curve series plus scalar summary.
///
/// `PartialEq` compares every sampled value bit for bit — the
/// thread-invariance gates assert whole `RunResult`s equal across
/// thread counts. Telemetry participates in the comparison
/// (traces are deterministic); only the profile's wall-clock fields are
/// exempt.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Curve label.
    pub label: String,
    /// Sample times in seconds, shared by every series and per-sample row
    /// of the run.
    pub times: Vec<f64>,
    /// Average per-node useful bandwidth over time.
    pub useful: RateSeries,
    /// Average per-node raw bandwidth over time.
    pub raw: RateSeries,
    /// Average per-node bandwidth received from the tree parent over time.
    pub from_parent: RateSeries,
    /// Per-sample, per-node cumulative useful bytes (`[sample][node]`),
    /// source included; used to derive CDFs at arbitrary instants.
    pub per_node_useful_bytes: Vec<Vec<u64>>,
    /// Per-sample, per-node cumulative *timely* useful bytes — first
    /// deliveries within the protocol's playout freshness deadline of
    /// their generation (`[sample][node]`, source included). Equal to
    /// `per_node_useful_bytes` for protocols without block-age tracking.
    pub per_node_fresh_bytes: Vec<Vec<u64>>,
    /// The source node (excluded from per-node averages).
    pub source: OverlayId,
    /// Scalar summary of the run.
    pub summary: RunSummary,
    /// Routing work the underlying network performed. At `BULLET_SCALE=paper`
    /// this is how harnesses verify that no per-source shortest-path tree
    /// was ever materialized (`trees_built == 0`).
    pub routing: RoutingStats,
    /// Captured telemetry; `None` for runs configured with
    /// [`TelemetryConfig::disabled`] (the default).
    pub telemetry: Option<RunTelemetry>,
}

impl RunResult {
    /// CDF of per-node instantaneous useful bandwidth (Kbps) over the sample
    /// interval ending closest to `at_secs` (Fig. 8).
    pub fn instantaneous_cdf(&self, at_secs: f64) -> Cdf {
        if self.per_node_useful_bytes.len() < 2 {
            return Cdf::from_samples(Vec::new());
        }
        let idx = self
            .times
            .iter()
            .position(|&t| t >= at_secs)
            .unwrap_or(self.times.len() - 1)
            .max(1);
        let dt = (self.times[idx] - self.times[idx - 1]).max(1e-9);
        let now = &self.per_node_useful_bytes[idx];
        let before = &self.per_node_useful_bytes[idx - 1];
        let samples: Vec<f64> = now
            .iter()
            .zip(before)
            .enumerate()
            .filter(|(node, _)| *node != self.source)
            .map(|(_, (&a, &b))| (a.saturating_sub(b)) as f64 * 8.0 / dt / 1_000.0)
            .collect();
        Cdf::from_samples(samples)
    }

    /// Mean useful bandwidth over the last quarter of the run, in Kbps.
    pub fn steady_state_kbps(&self) -> f64 {
        self.useful.steady_state_kbps(0.25)
    }

    /// One of this run's series as a figure curve, at the run's sample
    /// times.
    pub fn curve(&self, series: &RateSeries) -> BandwidthSeries {
        BandwidthSeries {
            label: series.label.clone(),
            times: self.times.clone(),
            kbps: series.kbps.clone(),
        }
    }
}

/// Parameters of one metered run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Curve label used in reports.
    pub label: String,
    /// The source node.
    pub source: OverlayId,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Sampling interval.
    pub sample_interval: SimDuration,
    /// Optional crash failure to inject: `(time, node)`.
    pub failure: Option<(SimTime, OverlayId)>,
}

impl RunSpec {
    /// A run sourced at node 0 with no failure injected.
    pub fn new(
        label: impl Into<String>,
        duration: SimDuration,
        sample_interval: SimDuration,
    ) -> Self {
        RunSpec {
            label: label.into(),
            source: 0,
            duration,
            sample_interval,
            failure: None,
        }
    }
}

/// The sampling state of one metered run.
struct Meter {
    n: usize,
    per_node_useful: Vec<Vec<u64>>,
    per_node_fresh: Vec<Vec<u64>>,
    hub: MetricsHub,
    ch_useful: ChannelId,
    ch_raw: ChannelId,
    ch_parent: ChannelId,
    ch_control: ChannelId,
}

impl Meter {
    fn new(n: usize, spec: &RunSpec) -> Self {
        let mut hub = MetricsHub::new(n, spec.source);
        let ch_useful = hub.counter_rate("useful_kbps");
        let ch_raw = hub.counter_rate("raw_kbps");
        let ch_parent = hub.counter_rate("from_parent_kbps");
        let ch_control = hub.counter_rate("control_in_kbps");
        Meter {
            n,
            per_node_useful: Vec::new(),
            per_node_fresh: Vec::new(),
            hub,
            ch_useful,
            ch_raw,
            ch_parent,
            ch_control,
        }
    }

    fn sample<A: MeteredAgent>(&mut self, now: SimTime, sim: &Sim<A>) {
        self.hub.begin_window(now.as_secs_f64());
        let mut row = Vec::with_capacity(self.n);
        let mut fresh_row = Vec::with_capacity(self.n);
        for node in 0..self.n {
            let d = sim.agent(node).delivery();
            row.push(d.useful_bytes);
            fresh_row.push(d.fresh_bytes);
            self.hub.observe_node(self.ch_useful, node, d.useful_bytes);
            self.hub.observe_node(self.ch_raw, node, d.raw_bytes);
            self.hub
                .observe_node(self.ch_parent, node, d.from_parent_bytes);
            self.hub
                .observe_node(self.ch_control, node, sim.traffic(node).control_bytes_in);
        }
        self.hub.end_window();
        self.per_node_useful.push(row);
        self.per_node_fresh.push(fresh_row);
    }

    fn finish<A: MeteredAgent>(
        self,
        sim: &mut Sim<A>,
        spec: &RunSpec,
        telemetry: &TelemetryConfig,
        wall_secs: f64,
        driver: &ScenarioDriver,
    ) -> RunResult {
        let n = self.n;
        // Every channel has one point per sample window, at the window's end.
        let times = (self.hub.points(self.ch_useful).iter())
            .map(|point| point.t_secs)
            .collect();
        let series = |ch: ChannelId, label: String| RateSeries {
            label,
            kbps: self
                .hub
                .points(ch)
                .iter()
                .map(|point| point.value)
                .collect(),
        };
        let useful = series(self.ch_useful, spec.label.clone());
        let raw = series(self.ch_raw, format!("{} (raw)", spec.label));
        let from_parent = series(self.ch_parent, format!("{} (from parent)", spec.label));

        // The profile's wall-clock half, which `SelfProfile::eq` ignores.
        let mut profile = sim.profile();
        if let Some(p) = &mut profile {
            p.wall_secs = wall_secs;
            p.events_per_sec = ratio_or_zero(p.events as f64, wall_secs);
            p.repair_wall_secs = driver.repair_wall_secs;
        }
        let captured = if telemetry.is_off() {
            None
        } else {
            let recorder = sim.take_recorder();
            let receivers = n.saturating_sub(1).max(1);
            let (trace_jsonl, journeys_jsonl) = match &recorder {
                Some(rec) => (
                    rec.to_jsonl(),
                    journeys_to_jsonl(&block_journeys(rec.events()), receivers),
                ),
                None => (String::new(), String::new()),
            };
            Some(RunTelemetry {
                trace_jsonl,
                series_jsonl: self.hub.to_jsonl(),
                journeys_jsonl,
                profile,
            })
        };

        let mut totals = BulletMetrics::default();
        let mut delivery_fractions: Vec<f64> = Vec::new();
        let generated = sim.agent(spec.source).delivery().packets_generated;
        let mut control_bytes = 0u64;
        let mut node_reattach_secs: Vec<f64> = Vec::new();
        let mut receivers = 0u64;
        let mut poisoned_receivers = 0u64;
        for node in 0..n {
            let m = sim.agent(node).counters();
            totals.absorb(&m);
            if m.reattaches > 0 {
                node_reattach_secs.push(mean_secs_from_us(m.reattach_wait_us, m.reattaches));
            }
            control_bytes += sim.traffic(node).control_bytes_in;
            if node != spec.source {
                receivers += 1;
                if m.corrupt_blocks_accepted > 0 {
                    poisoned_receivers += 1;
                }
                if generated > 0 {
                    delivery_fractions.push(m.delivery.useful_packets as f64 / generated as f64);
                }
            }
        }
        let stress = sim.network().stress_stats();
        let repair = sim.network().repair_stats();
        let duration_secs = spec.duration.as_secs_f64().max(1e-9);
        let summary = RunSummary {
            steady_useful_kbps: useful.steady_state_kbps(0.25),
            steady_raw_kbps: raw.steady_state_kbps(0.25),
            duplicate_fraction: totals.duplicate_fraction(),
            parent_relay_duplicate_share: ratio_or_zero(
                totals.delivery.duplicate_from_parent as f64,
                totals.delivery.duplicate_packets as f64,
            ),
            control_overhead_kbps: control_bytes as f64 * 8.0 / duration_secs / 1_000.0 / n as f64,
            link_stress_mean: stress.mean,
            link_stress_max: stress.max,
            median_delivery_fraction: median_or_zero(delivery_fractions),
            reattaches: totals.reattaches,
            mean_reattach_secs: mean_secs_from_us(totals.reattach_wait_us, totals.reattaches),
            median_reattach_secs: median_or_zero(node_reattach_secs),
            route_mutations: repair.route_mutations,
            totals,
            sim: sim.counters(),
            repair,
            scenario: driver.stats,
            clean_goodput_kbps: {
                // Goodput credited only to *clean* receivers. Blocks feed
                // the downstream decoder, so a receiver whose working set
                // accepted even one tampered block reconstructs a poisoned
                // stream — its goodput is worthless, not merely diluted.
                // With the defense off this is most of the overlay; with
                // it on, verification keeps every working set clean.
                let clean_fraction = if receivers == 0 {
                    1.0
                } else {
                    (receivers - poisoned_receivers) as f64 / receivers as f64
                };
                useful.steady_state_kbps(0.25) * clean_fraction
            },
            ingress_peak_depth: sim.overload_stats().peak_depth as u64,
            sim_events: sim.counters().events,
        };

        RunResult {
            label: spec.label.clone(),
            times,
            useful,
            raw,
            from_parent,
            per_node_useful_bytes: self.per_node_useful,
            per_node_fresh_bytes: self.per_node_fresh,
            source: spec.source,
            summary,
            routing: sim.network().routing_stats(),
            telemetry: captured,
        }
    }
}

/// Runs the simulation to completion while sampling every agent's delivery
/// counters, producing the standard [`RunResult`]. Telemetry is off.
pub fn run_metered<A: MeteredAgent>(sim: Sim<A>, spec: &RunSpec) -> RunResult {
    run_metered_with(sim, spec, &TelemetryConfig::disabled())
}

/// [`run_metered`] with telemetry switches. A static run is a scenario run
/// with an empty script: with nothing to step,
/// `ScenarioDriver::run_sampled` is `Sim::run_sampled` line for line.
pub fn run_metered_with<A: MeteredAgent>(
    sim: Sim<A>,
    spec: &RunSpec,
    telemetry: &TelemetryConfig,
) -> RunResult {
    run_metered_dynamic_with(sim, spec, &ScenarioScript::new(), telemetry)
}

/// Runs the simulation under a [`ScenarioScript`] with telemetry switches,
/// sampling exactly like [`run_metered`] — the one runner body every
/// metered run ends in.
///
/// Crashes in the script pre-schedule through the simulator's event queue
/// before anything else — the same ordering as `RunSpec::failure` — so a
/// one-crash script reproduces `RunSpec::failure`'s injection event for
/// event. Lifecycle and link events apply between event-loop steps at
/// their scripted instants.
pub fn run_metered_dynamic_with<A: MeteredAgent>(
    mut sim: Sim<A>,
    spec: &RunSpec,
    script: &ScenarioScript,
    telemetry: &TelemetryConfig,
) -> RunResult {
    if let Some(trace) = &telemetry.trace {
        sim.install_recorder(trace);
    }
    if telemetry.profile {
        sim.enable_profiling();
    }
    let mut driver = ScenarioDriver::new(script);
    driver.install(&mut sim);
    if let Some((at, node)) = spec.failure {
        sim.schedule_failure(at, node);
    }
    let mut meter = Meter::new(sim.agents().len(), spec);
    let end = SimTime::ZERO + spec.duration;
    let started = std::time::Instant::now();
    driver.run_sampled(&mut sim, end, spec.sample_interval, |now, sim| {
        meter.sample(now, sim)
    });
    let wall_secs = started.elapsed().as_secs_f64();
    meter.finish(&mut sim, spec, telemetry, wall_secs, &driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_baselines::{StreamConfig, StreamTransport};
    use bullet_netsim::{LinkSpec, NetworkSpec, SimRng};
    use bullet_overlay::random_tree;

    fn hub(n: usize, access_bps: f64) -> NetworkSpec {
        let mut spec = NetworkSpec::new(n + 1);
        for i in 0..n {
            spec.add_link(LinkSpec::new(
                n,
                i,
                access_bps,
                SimDuration::from_millis(10),
            ));
            spec.attach(i);
        }
        spec
    }

    fn streaming_sim(n: usize) -> Sim<StreamingNode> {
        let spec = hub(n, 2_000_000.0);
        let mut rng = SimRng::new(1);
        let tree = random_tree(n, 0, 3, &mut rng);
        let config = StreamConfig {
            stream_rate_bps: 400_000.0,
            stream_start: SimTime::from_secs(2),
            transport: StreamTransport::Tfrc,
        };
        let agents = (0..n)
            .map(|i| StreamingNode::new(i, &tree, config.clone()))
            .collect();
        Sim::new(&spec, agents, 1)
    }

    fn streaming_spec(secs: u64) -> RunSpec {
        RunSpec::new(
            "streaming",
            SimDuration::from_secs(secs),
            SimDuration::from_secs(2),
        )
    }

    fn streaming_run(n: usize, secs: u64) -> RunResult {
        run_metered_with(
            streaming_sim(n),
            &streaming_spec(secs),
            &TelemetryConfig::disabled(),
        )
    }

    #[test]
    fn series_have_one_point_per_sample() {
        let result = streaming_run(8, 20);
        assert_eq!(result.times.len(), 10);
        assert_eq!(result.useful.kbps.len(), 10);
        assert_eq!(result.per_node_useful_bytes.len(), 10);
        assert_eq!(result.per_node_useful_bytes[0].len(), 8);
    }

    #[test]
    fn bandwidth_approaches_the_stream_rate() {
        let result = streaming_run(8, 40);
        let steady = result.steady_state_kbps();
        assert!(
            (250.0..=450.0).contains(&steady),
            "steady state {steady} Kbps for a 400 Kbps stream"
        );
        assert!(result.summary.median_delivery_fraction > 0.8);
    }

    #[test]
    fn cdf_reflects_per_node_rates() {
        let result = streaming_run(8, 40);
        let cdf = result.instantaneous_cdf(38.0);
        assert_eq!(cdf.values.len(), 7, "one sample per non-source node");
        assert!(cdf.quantile(0.5) > 200.0);
    }

    #[test]
    fn failure_injection_stops_a_node() {
        let spec = hub(6, 2_000_000.0);
        let mut rng = SimRng::new(2);
        let tree = random_tree(6, 0, 2, &mut rng);
        let config = StreamConfig {
            stream_rate_bps: 400_000.0,
            stream_start: SimTime::from_secs(2),
            ..StreamConfig::default()
        };
        let agents = (0..6)
            .map(|i| StreamingNode::new(i, &tree, config.clone()))
            .collect();
        let sim = Sim::new(&spec, agents, 2);
        let victim = tree.children(0)[0];
        let result = run_metered_dynamic_with(
            sim,
            &streaming_spec(30),
            &ScenarioScript::single_crash(SimTime::from_secs(10), victim),
            &TelemetryConfig::disabled(),
        );
        // The victim's cumulative useful bytes freeze after the failure.
        let idx_at_12 = result.times.iter().position(|&t| t >= 12.0).unwrap();
        let last = result.per_node_useful_bytes.last().unwrap()[victim];
        let at_12 = result.per_node_useful_bytes[idx_at_12][victim];
        assert_eq!(last, at_12, "failed node kept receiving data");
    }

    #[test]
    fn telemetry_off_run_carries_no_telemetry() {
        let result = streaming_run(6, 10);
        assert!(result.telemetry.is_none());
        assert!(
            result.summary.sim.events > 0,
            "sim counters always populated"
        );
    }

    #[test]
    fn telemetry_observes_without_changing_the_run() {
        let plain = streaming_run(8, 20);
        let config = TelemetryConfig {
            trace: Some(TraceSpec::parse("all").unwrap()),
            profile: true,
        };
        let traced = run_metered_with(streaming_sim(8), &streaming_spec(20), &config);

        // Telemetry must be read-only: every sampled value matches.
        assert_eq!(traced.times, plain.times);
        assert_eq!(traced.useful, plain.useful);
        assert_eq!(traced.raw, plain.raw);
        assert_eq!(traced.from_parent, plain.from_parent);
        assert_eq!(traced.per_node_useful_bytes, plain.per_node_useful_bytes);
        assert_eq!(traced.summary, plain.summary);

        let telemetry = traced.telemetry.expect("telemetry captured");
        assert!(!telemetry.trace_jsonl.is_empty());
        assert!(telemetry
            .series_jsonl
            .contains("\"series\":\"useful_kbps\""));
        let profile = telemetry.profile.expect("profile captured");
        assert_eq!(profile.events, traced.summary.sim.events);
        assert!(profile.peak_queue_depth > 0);
    }
}
