//! Loss-event detection and the loss interval history (paper §2.4).
//!
//! A TFRC receiver detects losses from gaps in the transport sequence space,
//! groups losses that occur within one round-trip time into a single *loss
//! event*, and maintains the last eight *loss intervals* (packets received
//! between consecutive loss events). The reported loss event rate is the
//! inverse of the weighted average of those intervals.

use bullet_netsim::{SimDuration, SimTime};

/// TFRC weights for the eight most recent loss intervals, newest first.
const INTERVAL_WEIGHTS: [f64; 8] = [1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2];

/// History of loss intervals with TFRC's weighted averaging.
#[derive(Clone, Debug, Default)]
pub struct LossIntervalHistory {
    /// Closed intervals, newest first; at most eight are kept.
    intervals: Vec<u64>,
}

impl LossIntervalHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the length of a newly closed loss interval (number of packets
    /// between the previous loss event and this one).
    pub fn push(&mut self, interval: u64) {
        self.intervals.insert(0, interval.max(1));
        self.intervals.truncate(INTERVAL_WEIGHTS.len());
    }

    /// Number of intervals currently stored.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Returns `true` when no loss event has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The weighted average loss interval, including the still-open interval
    /// `current` (packets received since the most recent loss event). TFRC
    /// uses the open interval only when doing so *decreases* the loss rate,
    /// so that the estimate reacts quickly to new losses but slowly to the
    /// absence of losses.
    pub fn average_interval(&self, current: u64) -> f64 {
        if self.intervals.is_empty() {
            return f64::INFINITY;
        }
        let closed = self.weighted(&self.intervals);
        // Shift the window by one: treat the open interval as interval 0.
        let mut with_open: Vec<u64> = Vec::with_capacity(self.intervals.len() + 1);
        with_open.push(current.max(1));
        with_open.extend_from_slice(&self.intervals);
        with_open.truncate(INTERVAL_WEIGHTS.len());
        let open = self.weighted(&with_open);
        closed.max(open)
    }

    fn weighted(&self, intervals: &[u64]) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &interval) in intervals.iter().enumerate().take(INTERVAL_WEIGHTS.len()) {
            num += interval as f64 * INTERVAL_WEIGHTS[i];
            den += INTERVAL_WEIGHTS[i];
        }
        num / den
    }

    /// The loss event rate `p` implied by the history.
    pub fn loss_event_rate(&self, current_interval: u64) -> f64 {
        let avg = self.average_interval(current_interval);
        if avg.is_infinite() {
            0.0
        } else {
            (1.0 / avg).min(1.0)
        }
    }
}

/// Per-connection loss-event detector run by the receiver.
#[derive(Clone, Debug)]
pub struct LossDetector {
    history: LossIntervalHistory,
    /// Highest transport sequence number seen so far, if any.
    highest_seq: Option<u64>,
    /// Packets received since the last loss event started.
    packets_since_event: u64,
    /// Start time of the most recent loss event, used for RTT grouping.
    last_event_time: Option<SimTime>,
    /// Total packets received.
    pub packets_received: u64,
    /// Total packets detected as lost.
    pub packets_lost: u64,
}

impl Default for LossDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl LossDetector {
    /// Creates a detector with an empty history.
    pub fn new() -> Self {
        LossDetector {
            history: LossIntervalHistory::new(),
            highest_seq: None,
            packets_since_event: 0,
            last_event_time: None,
            packets_received: 0,
            packets_lost: 0,
        }
    }

    /// Processes the arrival of transport sequence number `seq` at `now`.
    ///
    /// `rtt` is the sender's current RTT estimate (carried in the data packet
    /// header); losses within one RTT of the start of a loss event are folded
    /// into that same event.
    pub fn on_packet(&mut self, now: SimTime, seq: u64, rtt: SimDuration) {
        self.packets_received += 1;
        match self.highest_seq {
            None => {
                self.highest_seq = Some(seq);
                self.packets_since_event += 1;
            }
            Some(highest) if seq > highest => {
                let gap = seq - highest - 1;
                if gap > 0 {
                    self.packets_lost += gap;
                    let new_event = match self.last_event_time {
                        Some(start) => now.saturating_since(start) > rtt,
                        None => true,
                    };
                    if new_event {
                        self.history.push(self.packets_since_event);
                        self.packets_since_event = 0;
                        self.last_event_time = Some(now);
                    }
                }
                self.highest_seq = Some(seq);
                self.packets_since_event += 1;
            }
            Some(_) => {
                // Reordered or duplicate packet; count it but do not reopen
                // the loss accounting (retransmissions do not exist in the
                // unreliable TFRC variant Bullet uses).
                self.packets_since_event += 1;
            }
        }
    }

    /// The current loss event rate `p` reported in feedback packets.
    pub fn loss_event_rate(&self) -> f64 {
        self.history.loss_event_rate(self.packets_since_event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_loss_means_zero_rate() {
        let mut det = LossDetector::new();
        for seq in 0..100 {
            det.on_packet(
                SimTime::from_millis(seq * 10),
                seq,
                SimDuration::from_millis(50),
            );
        }
        assert_eq!(det.loss_event_rate(), 0.0);
        assert_eq!(det.packets_lost, 0);
    }

    #[test]
    fn single_gap_creates_one_event() {
        let mut det = LossDetector::new();
        let rtt = SimDuration::from_millis(50);
        for seq in 0..50 {
            det.on_packet(SimTime::from_millis(seq * 10), seq, rtt);
        }
        // Sequence 50 is lost.
        det.on_packet(SimTime::from_millis(510), 51, rtt);
        assert_eq!(det.packets_lost, 1);
        let p = det.loss_event_rate();
        assert!(p > 0.0 && p < 0.1, "unexpected loss event rate {p}");
    }

    #[test]
    fn losses_within_one_rtt_fold_into_one_event() {
        let mut det = LossDetector::new();
        let rtt = SimDuration::from_millis(100);
        for seq in 0..20 {
            det.on_packet(SimTime::from_millis(seq), seq, rtt);
        }
        // Two gaps 10 ms apart: both within one RTT of the first event.
        det.on_packet(SimTime::from_millis(30), 21, rtt);
        det.on_packet(SimTime::from_millis(40), 23, rtt);
        assert_eq!(det.history.len(), 1);
        // A gap much later forms a second event.
        det.on_packet(SimTime::from_millis(500), 30, rtt);
        assert_eq!(det.history.len(), 2);
    }

    #[test]
    fn higher_loss_density_gives_higher_rate() {
        let run = |period: u64| {
            let mut det = LossDetector::new();
            let rtt = SimDuration::from_millis(10);
            for i in 0..2_000u64 {
                // Drop every `period`-th packet; the sequence number is `i`.
                if i % period != 0 {
                    det.on_packet(SimTime::from_millis(i * 20), i, rtt);
                }
            }
            det.loss_event_rate()
        };
        let frequent = run(10);
        let rare = run(100);
        assert!(frequent > rare);
        assert!((frequent - 0.1).abs() < 0.05, "p={frequent}");
        assert!((rare - 0.01).abs() < 0.005, "p={rare}");
    }

    #[test]
    fn history_keeps_only_eight_intervals() {
        let mut hist = LossIntervalHistory::new();
        for i in 1..=20 {
            hist.push(i);
        }
        assert_eq!(hist.len(), 8);
        // Most recent intervals dominate the average.
        let avg = hist.average_interval(1);
        assert!(avg > 13.0 && avg < 20.0, "avg={avg}");
    }

    #[test]
    fn open_interval_only_lowers_rate_when_long() {
        let mut hist = LossIntervalHistory::new();
        for _ in 0..8 {
            hist.push(10);
        }
        let base = hist.loss_event_rate(1);
        // A long open interval (no recent losses) should reduce p.
        let with_open = hist.loss_event_rate(1_000);
        assert!(with_open < base);
        // A short open interval must not *increase* p above the closed-history value.
        let with_short_open = hist.loss_event_rate(1);
        assert!(with_short_open <= base + 1e-12);
    }

    #[test]
    fn duplicates_do_not_count_as_losses() {
        let mut det = LossDetector::new();
        let rtt = SimDuration::from_millis(50);
        det.on_packet(SimTime::from_millis(0), 0, rtt);
        det.on_packet(SimTime::from_millis(1), 1, rtt);
        det.on_packet(SimTime::from_millis(2), 1, rtt);
        det.on_packet(SimTime::from_millis(3), 0, rtt);
        assert_eq!(det.packets_lost, 0);
        assert_eq!(det.packets_received, 4);
    }
}
