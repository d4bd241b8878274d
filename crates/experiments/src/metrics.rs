//! Series and summary statistics for experiment results.

use bullet_core::BulletMetrics;
use bullet_dynamics::ScenarioStats;
use bullet_netsim::{RepairStats, SimCounters};

/// `numerator / denominator`, or `0.0` when the denominator is zero — the
/// guard every summary ratio shares so a degenerate run (no packets, no
/// duplicates) folds to zero instead of NaN.
pub fn ratio_or_zero(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Sorts `values` and returns the element at index `len / 2` — the upper
/// middle for an even length, which the goldens pin — or `0.0` when the input is
/// empty (e.g. a source-only run with no receivers).
pub fn median_or_zero(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// Mean seconds per completion from a cumulative microsecond total, or
/// `0.0` when nothing completed.
pub fn mean_secs_from_us(total_us: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_us as f64 / 1e6 / count as f64
    }
}

/// A labelled bandwidth-over-time series (the unit of every figure's plot).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BandwidthSeries {
    /// Curve label (e.g. "Bullet - Medium Bandwidth").
    pub label: String,
    /// Sample times, in seconds since the start of the run.
    pub times: Vec<f64>,
    /// Average per-node bandwidth at each sample, in Kbps.
    pub kbps: Vec<f64>,
}

impl BandwidthSeries {
    /// Mean bandwidth over the final `fraction` of the samples — the
    /// "steady-state achieved bandwidth" number quoted in the text of the
    /// paper (e.g. "approximately 500 Kbps" for Fig. 7).
    pub fn steady_state_kbps(&self, fraction: f64) -> f64 {
        steady_state_kbps(&self.kbps, fraction)
    }
}

/// One of a run's rate series: a labelled value per sample, in Kbps. Its
/// sample times are the run's, held once in `RunResult::times`;
/// `RunResult::curve` pairs the two into a figure's [`BandwidthSeries`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RateSeries {
    /// Curve label.
    pub label: String,
    /// Average per-node bandwidth at each sample, in Kbps.
    pub kbps: Vec<f64>,
}

impl RateSeries {
    /// Mean bandwidth over the final `fraction` of the samples, as
    /// [`BandwidthSeries::steady_state_kbps`].
    pub fn steady_state_kbps(&self, fraction: f64) -> f64 {
        steady_state_kbps(&self.kbps, fraction)
    }
}

/// The mean of the final `fraction` of `kbps` (at least 5 %, and at least
/// one sample), or 0 for no samples.
fn steady_state_kbps(kbps: &[f64], fraction: f64) -> f64 {
    if kbps.is_empty() {
        return 0.0;
    }
    let fraction = fraction.clamp(0.05, 1.0);
    let start = ((kbps.len() as f64) * (1.0 - fraction)).floor() as usize;
    let tail = &kbps[start.min(kbps.len() - 1)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// An empirical CDF over per-node values (Fig. 8).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cdf {
    /// Sorted sample values.
    pub values: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF from unsorted samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Cdf { values: samples }
    }

    /// The `q`-quantile (q in [0, 1]).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let idx = ((self.values.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.values[idx]
    }

    /// Iterates `(value, cumulative fraction)` pairs for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.values.len() as f64;
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i + 1) as f64 / n))
    }
}

/// Scalar summary of one run, covering the numbers quoted in the text of
/// §4.2 (control overhead, duplicate ratio, link stress). Each counter has
/// one home, a field of its own struct, and the summary carries those
/// structs whole: `totals`, `sim`, `repair` and `scenario`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Mean per-node useful bandwidth in steady state, Kbps.
    pub steady_useful_kbps: f64,
    /// Mean per-node raw (including duplicates) bandwidth in steady state,
    /// Kbps.
    pub steady_raw_kbps: f64,
    /// Fraction of received data packets that were duplicates.
    pub duplicate_fraction: f64,
    /// Of the duplicates, the fraction that arrived from tree parents
    /// (relays of recovered packets down the tree).
    pub parent_relay_duplicate_share: f64,
    /// Mean per-node control overhead, Kbps.
    pub control_overhead_kbps: f64,
    /// Mean link stress over traced packets.
    pub link_stress_mean: f64,
    /// Maximum link stress observed.
    pub link_stress_max: u64,
    /// Fraction of the generated stream the median node received.
    pub median_delivery_fraction: f64,
    /// Total completed orphan re-attaches across nodes: a copy of
    /// `totals.reattaches`, kept because `perf/src/workloads.rs` reads
    /// `summary.reattaches` and a product PR may not edit `perf/`. It goes
    /// once perf reads `totals.reattaches` (ROADMAP item 1(d)).
    pub reattaches: u64,
    /// Mean seconds from orphan detection to re-attach acceptance (zero
    /// when nothing re-attached).
    pub mean_reattach_secs: f64,
    /// Median across re-attached nodes of their mean detection-to-accept
    /// time, seconds (the §4.6 acceptance number).
    pub median_reattach_secs: f64,
    /// A copy of `repair.route_mutations`, kept while perf reads it; it goes
    /// once perf reads `summary.repair.route_mutations` (ROADMAP item 1(d)).
    pub route_mutations: u64,
    /// Every per-node counter folded over the overlay
    /// ([`BulletMetrics::absorb`]: sums, and the maximum of
    /// `peak_inbox_depth`): read a layer counter as
    /// `summary.totals.quarantines`. The baselines keep only the delivery
    /// core, so their layer counters are zero.
    pub totals: BulletMetrics,
    /// The simulator's counters at the end of the run: events, deliveries
    /// and every drop reason.
    pub sim: SimCounters,
    /// The network's route-repair counters (all zero on a static topology).
    pub repair: RepairStats,
    /// The scenario actions the driver applied (all zero for an empty
    /// script).
    pub scenario: ScenarioStats,
    /// Steady-state goodput credited only to receivers whose working set
    /// accepted zero tampered blocks, Kbps (`steady_useful_kbps` scaled by
    /// the clean-receiver fraction — one accepted forgery poisons that
    /// receiver's reconstructed stream). Equals `steady_useful_kbps` when
    /// every working set stayed clean; the defense-on/off comparison in
    /// the adversary figure is a ratio of these.
    pub clean_goodput_kbps: f64,
    /// Deepest simulated ingress backlog observed across resourced nodes
    /// (the netsim `NodeResources` model; zero when none is installed).
    pub ingress_peak_depth: u64,
    /// A copy of `sim.events`, kept while perf reads it; it goes once perf
    /// reads `summary.sim.events` (ROADMAP item 1(d)).
    pub sim_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_uses_the_tail() {
        // Ramp from 0 to 990, then read the last 10%.
        let s = RateSeries {
            label: "test".into(),
            kbps: (0..100).map(|i| (i * 10) as f64).collect(),
        };
        let tail = s.steady_state_kbps(0.1);
        assert!(tail > 900.0, "tail mean {tail}");
    }

    #[test]
    fn steady_state_of_empty_series_is_zero() {
        assert_eq!(RateSeries::default().steady_state_kbps(0.2), 0.0);
        assert_eq!(BandwidthSeries::default().steady_state_kbps(0.2), 0.0);
    }

    #[test]
    fn cdf_fractions_and_quantiles() {
        let cdf = Cdf::from_samples(vec![500.0, 100.0, 300.0, 400.0, 200.0]);
        assert_eq!(cdf.quantile(0.0), 100.0);
        assert_eq!(cdf.quantile(1.0), 500.0);
        assert_eq!(cdf.quantile(0.5), 300.0);
        let points: Vec<_> = cdf.points().collect();
        assert_eq!(points.len(), 5);
        assert_eq!(points[0], (100.0, 0.2));
    }

    #[test]
    fn cdf_of_nothing_is_degenerate() {
        let cdf = Cdf::from_samples(Vec::new());
        assert_eq!(cdf.points().count(), 0);
        assert_eq!(cdf.quantile(0.5), 0.0);
    }

    #[test]
    fn ratio_guards_zero_denominators() {
        assert_eq!(ratio_or_zero(5.0, 0.0), 0.0);
        assert_eq!(ratio_or_zero(0.0, 0.0), 0.0);
        assert_eq!(ratio_or_zero(3.0, 4.0), 0.75);
    }

    #[test]
    fn median_of_source_only_run_is_zero_not_nan() {
        // A run whose only participant is the source produces no per-node
        // fractions at all; the median must fold to 0, never NaN.
        let median = median_or_zero(Vec::new());
        assert_eq!(median, 0.0);
        assert!(!median.is_nan());
    }

    #[test]
    fn median_uses_the_historical_len_over_two_pick() {
        assert_eq!(median_or_zero(vec![3.0, 1.0, 2.0]), 2.0);
        // Even length picks the upper-middle element.
        assert_eq!(median_or_zero(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn mean_secs_with_zero_completions_is_zero() {
        assert_eq!(mean_secs_from_us(5_000_000, 0), 0.0);
        assert_eq!(mean_secs_from_us(3_000_000, 2), 1.5);
    }
}
