//! The metrics hub: a registry of named per-node counters sampled into
//! windowed rate series.
//!
//! One sampler does the cumulative-counter differencing for the experiment
//! harness and every protocol it meters. A sampling window is driven
//! externally (the harness calls [`MetricsHub::begin_window`] at each
//! sample instant, feeds every channel, then [`MetricsHub::end_window`]);
//! the hub differences each channel against its previous cumulative values
//! and folds the deltas into one point per window.
//!
//! The arithmetic is fixed because the determinism goldens read it:
//! counter deltas accumulate in node order as `f64`, and every channel
//! scales by `* 8.0 / dt / 1_000.0 / receivers`.

use std::fmt::Write as _;

/// Handle to one registered channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelId(usize);

/// One sampled point of a windowed series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Window end, in simulated seconds.
    pub t_secs: f64,
    /// The window's per-receiver rate, in Kbps.
    pub value: f64,
}

/// A per-node cumulative counter, folded to a per-receiver rate in Kbps:
/// `sum(deltas) * 8 / dt / 1000 / receivers`.
#[derive(Debug)]
struct Channel {
    name: String,
    prev: Vec<u64>,
    window_sum: f64,
    points: Vec<SeriesPoint>,
}

/// The hub. See the module docs.
#[derive(Debug)]
pub struct MetricsHub {
    nodes: usize,
    source: usize,
    receivers: f64,
    channels: Vec<Channel>,
    last_t: f64,
    window_t: f64,
    window_dt: f64,
}

impl MetricsHub {
    /// A hub sampling `nodes` nodes; `source` (the stream source) is
    /// skipped when summing counter deltas, matching the harness convention
    /// of averaging over receivers only.
    pub fn new(nodes: usize, source: usize) -> MetricsHub {
        MetricsHub {
            nodes,
            source,
            receivers: nodes.saturating_sub(1).max(1) as f64,
            channels: Vec::new(),
            last_t: 0.0,
            window_t: 0.0,
            window_dt: 1e-9,
        }
    }

    /// Register a per-node counter folded to a per-receiver Kbps rate.
    pub fn counter_rate(&mut self, name: &str) -> ChannelId {
        self.channels.push(Channel {
            name: name.to_string(),
            prev: vec![0; self.nodes],
            window_sum: 0.0,
            points: Vec::new(),
        });
        ChannelId(self.channels.len() - 1)
    }

    /// Open a sampling window ending at `t_secs`. The window length is
    /// the distance from the previous window end, floored at 1 ns so a
    /// zero-length window divides by a positive `dt`.
    pub fn begin_window(&mut self, t_secs: f64) {
        self.window_dt = (t_secs - self.last_t).max(1e-9);
        self.window_t = t_secs;
        self.last_t = t_secs;
        for ch in &mut self.channels {
            ch.window_sum = 0.0;
        }
    }

    /// Feed one node's cumulative counter value into a channel. Must be
    /// called in ascending node order within a window: the `f64` sum is
    /// order-dependent, and the goldens pin this order.
    #[inline]
    pub fn observe_node(&mut self, ch: ChannelId, node: usize, cumulative: u64) {
        let ch = &mut self.channels[ch.0];
        if node != self.source {
            ch.window_sum += (cumulative - ch.prev[node]) as f64;
        }
        ch.prev[node] = cumulative;
    }

    /// Close the window: fold every channel's accumulation into a point.
    pub fn end_window(&mut self) {
        let (t, dt, receivers) = (self.window_t, self.window_dt, self.receivers);
        for ch in &mut self.channels {
            let value = ch.window_sum * 8.0 / dt / 1_000.0 / receivers;
            ch.points.push(SeriesPoint { t_secs: t, value });
        }
    }

    /// The folded series of one channel.
    pub fn points(&self, ch: ChannelId) -> &[SeriesPoint] {
        &self.channels[ch.0].points
    }

    /// Render every channel as JSONL: one line per series point.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ch in &self.channels {
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
        let mut hub = MetricsHub::new(3, 0);
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
        let mut hub = MetricsHub::new(2, 0);
        let ch = hub.counter_rate("r");
        hub.begin_window(0.0);
        hub.observe_node(ch, 0, 0);
        hub.observe_node(ch, 1, 100);
        hub.end_window();
        assert!(hub.points(ch)[0].value.is_finite());
    }

    /// The source is left out of the sum wherever it sits, not only at node
    /// 0, and the rate still divides by every other node.
    #[test]
    fn the_source_is_excluded_wherever_it_sits() {
        let nodes = 4;
        for source in 0..nodes {
            let mut hub = MetricsHub::new(nodes, source);
            let ch = hub.counter_rate("useful_kbps");
            hub.begin_window(1.0);
            for node in 0..nodes {
                let bytes = if node == source { 1_000_000 } else { 1_000 };
                hub.observe_node(ch, node, bytes);
            }
            hub.end_window();
            // Three receivers at 1,000 bytes each, averaged over three.
            let expected = 3_000.0 * 8.0 / 1.0 / 1_000.0 / 3.0;
            assert_eq!(hub.points(ch)[0].value, expected, "source {source}");
        }
    }
}
