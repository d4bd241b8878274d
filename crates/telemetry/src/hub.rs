//! The metrics hub: a registry of named per-node counters, gauges and
//! histograms sampled into windowed time series.
//!
//! One sampler replaces the ad-hoc cumulative-counter differencing that
//! used to be copied between the experiment harness and the baseline
//! metrics path. A sampling window is driven externally (the harness
//! calls [`MetricsHub::begin_window`] at each sample instant, feeds every
//! channel, then [`MetricsHub::end_window`]); the hub differences counter
//! channels against their previous cumulative values and folds the
//! deltas into one point per window.
//!
//! The arithmetic is deliberately bit-compatible with the historical
//! harness: counter deltas accumulate in node order as `f64`, and rate
//! channels scale by `* 8.0 / dt / 1_000.0 / receivers` — so series built
//! through the hub are byte-identical to the pre-hub output.

use std::fmt::Write as _;

/// Handle to one registered channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelId(usize);

/// One sampled point of a windowed series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Window end, in simulated seconds.
    pub t_secs: f64,
    /// The folded window value (rate or mean depending on kind).
    pub value: f64,
}

const HIST_BUCKETS: usize = 33;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChannelKind {
    /// Per-node cumulative counter, folded to a per-receiver rate in
    /// Kbps: `sum(deltas) * 8 / dt / 1000 / receivers`.
    CounterRate,
    /// Point-in-time observations, folded to their window mean.
    Gauge,
    /// Power-of-two bucketed distribution over the whole run (no series).
    Histogram,
}

#[derive(Debug)]
struct Channel {
    name: String,
    kind: ChannelKind,
    prev: Vec<u64>,
    window_sum: f64,
    window_count: u64,
    points: Vec<SeriesPoint>,
    buckets: [u64; HIST_BUCKETS],
    samples: u64,
}

/// The hub. See the module docs.
#[derive(Debug)]
pub struct MetricsHub {
    nodes: usize,
    exclude: Option<usize>,
    receivers: f64,
    channels: Vec<Channel>,
    last_t: f64,
    window_t: f64,
    window_dt: f64,
}

impl MetricsHub {
    /// A hub sampling `nodes` nodes; `exclude` (typically the stream
    /// source) is skipped when summing counter deltas, matching the
    /// harness convention of averaging over receivers only.
    pub fn new(nodes: usize, exclude: Option<usize>) -> MetricsHub {
        let receivers = if exclude.is_some() {
            (nodes.saturating_sub(1)).max(1) as f64
        } else {
            nodes.max(1) as f64
        };
        MetricsHub {
            nodes,
            exclude,
            receivers,
            channels: Vec::new(),
            last_t: 0.0,
            window_t: 0.0,
            window_dt: 1e-9,
        }
    }

    fn register(&mut self, name: &str, kind: ChannelKind) -> ChannelId {
        self.channels.push(Channel {
            name: name.to_string(),
            kind,
            prev: vec![0; self.nodes],
            window_sum: 0.0,
            window_count: 0,
            points: Vec::new(),
            buckets: [0; HIST_BUCKETS],
            samples: 0,
        });
        ChannelId(self.channels.len() - 1)
    }

    /// Register a per-node counter folded to a per-receiver Kbps rate.
    pub fn counter_rate(&mut self, name: &str) -> ChannelId {
        self.register(name, ChannelKind::CounterRate)
    }

    /// Register a gauge folded to its per-window observation mean.
    pub fn gauge(&mut self, name: &str) -> ChannelId {
        self.register(name, ChannelKind::Gauge)
    }

    /// Register a run-wide power-of-two histogram.
    pub fn histogram(&mut self, name: &str) -> ChannelId {
        self.register(name, ChannelKind::Histogram)
    }

    /// The receiver count every rate channel divides by.
    pub fn receivers(&self) -> f64 {
        self.receivers
    }

    /// Open a sampling window ending at `t_secs`. The window length is
    /// the distance from the previous window end, floored at 1 ns —
    /// exactly the historical `dt` guard.
    pub fn begin_window(&mut self, t_secs: f64) {
        self.window_dt = (t_secs - self.last_t).max(1e-9);
        self.window_t = t_secs;
        self.last_t = t_secs;
        for ch in &mut self.channels {
            ch.window_sum = 0.0;
            ch.window_count = 0;
        }
    }

    /// Feed one node's cumulative counter value into a counter channel.
    /// Must be called in ascending node order within a window so the
    /// `f64` accumulation order matches the historical sampler.
    #[inline]
    pub fn observe_node(&mut self, ch: ChannelId, node: usize, cumulative: u64) {
        let exclude = self.exclude;
        let ch = &mut self.channels[ch.0];
        debug_assert_eq!(ch.kind, ChannelKind::CounterRate);
        if Some(node) != exclude {
            ch.window_sum += (cumulative - ch.prev[node]) as f64;
        }
        ch.prev[node] = cumulative;
    }

    /// Feed one observation into a gauge channel.
    #[inline]
    pub fn observe_value(&mut self, ch: ChannelId, value: f64) {
        let ch = &mut self.channels[ch.0];
        debug_assert_eq!(ch.kind, ChannelKind::Gauge);
        ch.window_sum += value;
        ch.window_count += 1;
    }

    /// Feed one sample into a histogram channel (bucketed by bit width).
    #[inline]
    pub fn observe_sample(&mut self, ch: ChannelId, value: u64) {
        let ch = &mut self.channels[ch.0];
        debug_assert_eq!(ch.kind, ChannelKind::Histogram);
        let bucket = (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        ch.buckets[bucket] += 1;
        ch.samples += 1;
    }

    /// Close the window: fold every channel's accumulation into a point.
    pub fn end_window(&mut self) {
        let (t, dt, receivers) = (self.window_t, self.window_dt, self.receivers);
        for ch in &mut self.channels {
            let value = match ch.kind {
                ChannelKind::CounterRate => ch.window_sum * 8.0 / dt / 1_000.0 / receivers,
                ChannelKind::Gauge => {
                    if ch.window_count == 0 {
                        continue;
                    }
                    ch.window_sum / ch.window_count as f64
                }
                ChannelKind::Histogram => continue,
            };
            ch.points.push(SeriesPoint { t_secs: t, value });
        }
    }

    /// The folded series of one channel (empty for histograms).
    pub fn points(&self, ch: ChannelId) -> &[SeriesPoint] {
        &self.channels[ch.0].points
    }

    /// The registered name of one channel.
    pub fn name(&self, ch: ChannelId) -> &str {
        &self.channels[ch.0].name
    }

    /// Render every channel as JSONL: one line per series point, plus one
    /// summary line per histogram.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ch in &self.channels {
            if ch.kind == ChannelKind::Histogram {
                let _ = write!(
                    out,
                    "{{\"series\":\"{}\",\"kind\":\"histogram\",\"samples\":{},\"buckets\":[",
                    ch.name, ch.samples
                );
                let top = ch
                    .buckets
                    .iter()
                    .rposition(|&c| c != 0)
                    .map_or(0, |i| i + 1);
                for (i, count) in ch.buckets[..top.max(1)].iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{count}");
                }
                out.push_str("]}\n");
                continue;
            }
            for point in &ch.points {
                let _ = writeln!(
                    out,
                    "{{\"series\":\"{}\",\"t_secs\":{},\"value\":{}}}",
                    ch.name, point.t_secs, point.value
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_channel_reproduces_the_harness_formula() {
        let mut hub = MetricsHub::new(3, Some(0));
        let ch = hub.counter_rate("useful_kbps");
        hub.begin_window(2.0);
        hub.observe_node(ch, 0, 9_999); // excluded source
        hub.observe_node(ch, 1, 1_000);
        hub.observe_node(ch, 2, 3_000);
        hub.end_window();
        // Hand-computed: (1000 + 3000) * 8 / 2.0 / 1000 / 2 receivers.
        let expected = 4_000.0 * 8.0 / 2.0 / 1_000.0 / 2.0;
        assert_eq!(
            hub.points(ch),
            &[SeriesPoint {
                t_secs: 2.0,
                value: expected
            }]
        );
        // Second window differences against the stored cumulative values.
        hub.begin_window(4.0);
        hub.observe_node(ch, 0, 9_999);
        hub.observe_node(ch, 1, 1_500);
        hub.observe_node(ch, 2, 3_000);
        hub.end_window();
        let expected2 = 500.0 * 8.0 / 2.0 / 1_000.0 / 2.0;
        assert_eq!(hub.points(ch)[1].value, expected2);
    }

    #[test]
    fn zero_length_window_is_floored_not_divided_by_zero() {
        let mut hub = MetricsHub::new(2, Some(0));
        let ch = hub.counter_rate("r");
        hub.begin_window(0.0);
        hub.observe_node(ch, 0, 0);
        hub.observe_node(ch, 1, 100);
        hub.end_window();
        assert!(hub.points(ch)[0].value.is_finite());
    }

    #[test]
    fn gauge_folds_to_window_mean_and_skips_empty_windows() {
        let mut hub = MetricsHub::new(1, None);
        let ch = hub.gauge("depth");
        hub.begin_window(1.0);
        hub.observe_value(ch, 4.0);
        hub.observe_value(ch, 8.0);
        hub.end_window();
        hub.begin_window(2.0); // no observations
        hub.end_window();
        assert_eq!(
            hub.points(ch),
            &[SeriesPoint {
                t_secs: 1.0,
                value: 6.0
            }]
        );
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        let mut hub = MetricsHub::new(1, None);
        let ch = hub.histogram("h");
        for v in [0u64, 1, 2, 3, 700] {
            hub.observe_sample(ch, v);
        }
        let jsonl = hub.to_jsonl();
        // 0 → bucket 0, 1 → bucket 1, {2,3} → bucket 2, 700 → bucket 10.
        assert_eq!(
            jsonl.trim(),
            "{\"series\":\"h\",\"kind\":\"histogram\",\"samples\":5,\"buckets\":[1,1,2,0,0,0,0,0,0,0,1]}"
        );
    }
}
