//! TCP Friendly Rate Control (paper §2.4), in its unreliable variant.
//!
//! Bullet uses TFRC without retransmissions: lost packets are recovered from
//! other peers rather than from the original sender, so the transport only
//! has to provide a TCP-friendly, smooth sending rate. The sender adjusts its
//! rate from receiver feedback using the TCP response function; the receiver
//! detects loss events and reports the loss event rate and receive rate once
//! per round-trip time.

use bullet_netsim::{SimDuration, SimTime};

use crate::equation::tcp_throughput;
use crate::loss::LossDetector;
use crate::rate::{RateLimiter, SendOutcome};

/// Transport-level header stamped on every TFRC data packet.
///
/// The receiver needs the sender's timestamp (to compute the RTT echoed in
/// feedback) and the sender's current RTT estimate (to group losses into loss
/// events and pace its feedback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TfrcHeader {
    /// Transport-level sequence number, private to this connection.
    pub seq: u64,
    /// Sender timestamp at transmission time.
    pub timestamp: SimTime,
    /// Sender's current RTT estimate.
    pub rtt_estimate: SimDuration,
}

/// Feedback packet sent by the receiver roughly once per RTT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TfrcFeedback {
    /// Timestamp of the most recent data packet, echoed for RTT measurement.
    pub echo_timestamp: SimTime,
    /// Receiver processing delay between receiving that packet and sending
    /// this feedback (zero in the simulator, kept for API fidelity).
    pub echo_delay: SimDuration,
    /// Receive rate over the last feedback interval, in bytes per second.
    pub receive_rate: f64,
    /// Loss event rate `p`.
    pub loss_event_rate: f64,
}

/// Wire size of a data packet in bytes, headers included. Bullet and every
/// baseline stream 1,500-byte packets (paper §2.4 and §4), so this is also
/// the size `s` in every TFRC response function.
pub const DATA_PACKET_BYTES: u32 = 1_500;

/// Fixed per-message header overhead (IP + UDP + protocol framing), in
/// bytes: the wire size of a control message with no body.
pub const HEADER_BYTES: u32 = 40;

/// Wire size of a feedback packet in bytes (IP + UDP + TFRC feedback).
pub const FEEDBACK_PACKET_BYTES: u32 = 60;

/// Interval between packet generations at a source streaming `rate_bps`
/// bits per second in [`DATA_PACKET_BYTES`] packets.
pub fn packet_interval(rate_bps: f64) -> SimDuration {
    let per_sec = rate_bps / (DATA_PACKET_BYTES as f64 * 8.0);
    SimDuration::from_secs_f64(1.0 / per_sec.max(0.01))
}

/// RTT estimate a sender uses before the first feedback arrives.
const INITIAL_RTT: SimDuration = SimDuration::from_millis(200);

/// Burst allowance of a sender's token bucket, in packets.
pub const BURST_PACKETS: u32 = 4;

/// Upper bound on a sender's rate, in bytes per second (1 Gbps): never
/// reached by a stream, so in effect no bound.
const MAX_RATE: f64 = 1e9 / 8.0;

/// The one settable TFRC parameter: the packet size `s` of the response
/// function. Every connection uses the default, [`DATA_PACKET_BYTES`]
/// ([`crate::Connections`] builds each sender from it); the type stays
/// because the perf ledger's micro-benchmarks build a [`TfrcSender`] from it
/// and read the size back. The other parameters are constants: the initial
/// RTT, the burst ([`BURST_PACKETS`]) and the rate cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TfrcConfig {
    /// Nominal packet size `s` used in the response function, in bytes.
    pub packet_size: u32,
}

impl Default for TfrcConfig {
    fn default() -> Self {
        TfrcConfig {
            packet_size: DATA_PACKET_BYTES,
        }
    }
}

/// The sending half of a TFRC connection.
#[derive(Clone, Debug)]
pub struct TfrcSender {
    /// The packet size `s` of the response function, in bytes.
    packet_size: u32,
    limiter: RateLimiter,
    /// Smoothed RTT estimate.
    rtt: SimDuration,
    has_rtt_sample: bool,
    /// Current allowed sending rate in bytes per second.
    rate: f64,
    /// True until the first loss is reported (slow-start doubling phase).
    slow_start: bool,
    next_seq: u64,
    last_feedback: Option<SimTime>,
    /// Statistics: accepted sends.
    pub packets_sent: u64,
    /// Statistics: sends refused because the transport would block.
    pub sends_blocked: u64,
}

impl TfrcSender {
    /// Creates a sender with the given configuration.
    pub fn new(config: TfrcConfig) -> Self {
        let packet_size = config.packet_size;
        let initial_rate = packet_size as f64 / INITIAL_RTT.as_secs_f64().max(1e-3);
        let burst = (BURST_PACKETS * packet_size) as f64;
        TfrcSender {
            packet_size,
            limiter: RateLimiter::new(initial_rate, burst),
            rtt: INITIAL_RTT,
            has_rtt_sample: false,
            rate: initial_rate,
            slow_start: true,
            next_seq: 0,
            last_feedback: None,
            packets_sent: 0,
            sends_blocked: 0,
        }
    }

    /// The current allowed sending rate, in bytes per second.
    pub fn allowed_rate(&self) -> f64 {
        self.rate
    }

    /// The current smoothed RTT estimate.
    pub fn rtt(&self) -> SimDuration {
        self.rtt
    }

    /// Whether the connection is still in the slow-start doubling phase.
    pub fn in_slow_start(&self) -> bool {
        self.slow_start
    }

    /// Attempts to send a packet of `size_bytes` at `now`.
    ///
    /// On success returns the header to stamp on the packet; on failure the
    /// packet is *not* sent and the caller decides what to do (Bullet counts
    /// it as an unsuccessful send attempt and offers the data elsewhere).
    pub fn try_send(&mut self, now: SimTime, size_bytes: u32) -> Result<TfrcHeader, SendOutcome> {
        match self.limiter.try_consume(now, size_bytes) {
            SendOutcome::Accepted => {
                let header = TfrcHeader {
                    seq: self.next_seq,
                    timestamp: now,
                    rtt_estimate: self.rtt,
                };
                self.next_seq += 1;
                self.packets_sent += 1;
                Ok(header)
            }
            SendOutcome::WouldBlock => {
                self.sends_blocked += 1;
                Err(SendOutcome::WouldBlock)
            }
        }
    }

    /// Processes a feedback packet from the receiver.
    pub fn on_feedback(&mut self, now: SimTime, feedback: &TfrcFeedback) {
        // RTT sample: now - echo_timestamp - receiver processing delay.
        let sample = now.saturating_since(feedback.echo_timestamp) - feedback.echo_delay;
        if sample > SimDuration::ZERO {
            if self.has_rtt_sample {
                // Standard EWMA with q = 0.9.
                let smoothed = 0.9 * self.rtt.as_secs_f64() + 0.1 * sample.as_secs_f64();
                self.rtt = SimDuration::from_secs_f64(smoothed);
            } else {
                self.rtt = sample;
                self.has_rtt_sample = true;
            }
        }
        let p = feedback.loss_event_rate;
        if p <= 0.0 && self.slow_start {
            // No loss yet: double the rate each feedback, as TCP slow start
            // does, but never beyond twice the rate the receiver reports.
            let doubled = (self.rate * 2.0).max(self.packet_size as f64);
            let cap = (feedback.receive_rate * 2.0).max(self.packet_size as f64);
            self.rate = doubled.min(cap);
        } else {
            self.slow_start = false;
            let t_rto = 4.0 * self.rtt.as_secs_f64();
            let eq_rate = tcp_throughput(
                self.packet_size as f64,
                self.rtt.as_secs_f64(),
                p.max(1e-6),
                t_rto,
            )
            .bytes_per_sec;
            // TFRC never sends at more than twice the receiver's reported
            // receive rate; this bounds the rate when p is tiny.
            let cap = (feedback.receive_rate * 2.0).max(self.packet_size as f64);
            self.rate = eq_rate.min(cap);
        }
        self.rate = self.rate.min(MAX_RATE);
        self.limiter.set_rate(self.rate);
        self.last_feedback = Some(now);
    }

    /// Handles the expiry of the no-feedback timer.
    ///
    /// Call this periodically (e.g. from a housekeeping timer). If no
    /// feedback has arrived within `4 * RTT` (with a floor of two seconds, as
    /// in the TFRC specification's initial timeout), the sending rate is
    /// halved — the congestion signal for a completely silent path. Returns
    /// `true` if the rate was reduced.
    pub fn maybe_nofeedback_timeout(&mut self, now: SimTime) -> bool {
        let deadline = self.rtt.saturating_mul(4).max(SimDuration::from_secs(2));
        let since = match self.last_feedback {
            Some(t) => now.saturating_since(t),
            // Never had feedback: only back off once we have sent something.
            None if self.packets_sent > 0 => deadline + SimDuration::from_micros(1),
            None => SimDuration::ZERO,
        };
        if since > deadline {
            self.rate = (self.rate / 2.0).max(self.packet_size as f64 / 2.0);
            self.limiter.set_rate(self.rate);
            // Restart the timeout window so repeated calls halve gradually.
            self.last_feedback = Some(now);
            true
        } else {
            false
        }
    }
}

/// The receiving half of a TFRC connection.
#[derive(Clone, Debug)]
pub struct TfrcReceiver {
    detector: LossDetector,
    last_feedback_time: Option<SimTime>,
    last_header: Option<TfrcHeader>,
    bytes_since_feedback: u64,
    /// Statistics: total data bytes received on this connection.
    pub bytes_received: u64,
    /// Statistics: total data packets received on this connection.
    pub packets_received: u64,
}

impl Default for TfrcReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl TfrcReceiver {
    /// Creates a receiver.
    pub fn new() -> Self {
        TfrcReceiver {
            detector: LossDetector::new(),
            last_feedback_time: None,
            last_header: None,
            bytes_since_feedback: 0,
            bytes_received: 0,
            packets_received: 0,
        }
    }

    /// Processes an arriving data packet. Returns a feedback packet when one
    /// is due (roughly once per RTT).
    pub fn on_data(
        &mut self,
        now: SimTime,
        header: TfrcHeader,
        size_bytes: u32,
    ) -> Option<TfrcFeedback> {
        self.detector
            .on_packet(now, header.seq, header.rtt_estimate);
        self.bytes_received += size_bytes as u64;
        self.bytes_since_feedback += size_bytes as u64;
        self.packets_received += 1;
        self.last_header = Some(header);
        let due = match self.last_feedback_time {
            None => true,
            Some(last) => now.saturating_since(last) >= header.rtt_estimate,
        };
        if !due {
            return None;
        }
        let interval = match self.last_feedback_time {
            Some(last) => now.saturating_since(last).as_secs_f64(),
            None => header.rtt_estimate.as_secs_f64(),
        }
        .max(1e-3);
        let feedback = TfrcFeedback {
            echo_timestamp: header.timestamp,
            echo_delay: SimDuration::ZERO,
            receive_rate: self.bytes_since_feedback as f64 / interval,
            loss_event_rate: self.detector.loss_event_rate(),
        };
        self.last_feedback_time = Some(now);
        self.bytes_since_feedback = 0;
        Some(feedback)
    }

    /// Current loss event rate estimate.
    pub fn loss_event_rate(&self) -> f64 {
        self.detector.loss_event_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_lossless(rounds: usize) -> (TfrcSender, TfrcReceiver) {
        // A crude in-test loop: every 100 ms the sender sends as much as it
        // may, packets arrive 50 ms later, feedback returns 50 ms after that.
        let mut sender = TfrcSender::new(TfrcConfig::default());
        let mut receiver = TfrcReceiver::new();
        let mut pending_feedback: Vec<(SimTime, TfrcFeedback)> = Vec::new();
        for round in 0..rounds {
            let now = SimTime::from_millis(round as u64 * 100);
            for (at, fb) in pending_feedback.drain(..) {
                sender.on_feedback(at, &fb);
            }
            while let Ok(header) = sender.try_send(now, DATA_PACKET_BYTES) {
                let arrive = now + SimDuration::from_millis(50);
                if let Some(fb) = receiver.on_data(arrive, header, DATA_PACKET_BYTES) {
                    pending_feedback.push((arrive + SimDuration::from_millis(50), fb));
                }
            }
        }
        (sender, receiver)
    }

    #[test]
    fn slow_start_doubles_until_substantial_rate() {
        let (sender, receiver) = drive_lossless(50);
        // With no loss the sender should have ramped well past its initial
        // one-packet-per-RTT rate.
        assert!(
            sender.allowed_rate() > 50_000.0,
            "rate={}",
            sender.allowed_rate()
        );
        assert!(receiver.loss_event_rate() == 0.0);
        assert!(sender.packets_sent > 100);
    }

    #[test]
    fn rtt_estimate_converges_to_path_rtt() {
        let (sender, _) = drive_lossless(50);
        let rtt = sender.rtt().as_secs_f64();
        assert!((0.08..0.25).contains(&rtt), "rtt={rtt}");
    }

    #[test]
    fn loss_feedback_reduces_rate_to_equation_value() {
        let mut sender = TfrcSender::new(TfrcConfig::default());
        // Ramp up through slow start first: repeated no-loss feedback.
        for i in 1..=10u64 {
            sender.on_feedback(
                SimTime::from_millis(100 * i),
                &TfrcFeedback {
                    echo_timestamp: SimTime::from_millis(100 * (i - 1)),
                    echo_delay: SimDuration::ZERO,
                    receive_rate: 1e6,
                    loss_event_rate: 0.0,
                },
            );
        }
        let before = sender.allowed_rate();
        assert!(
            before > 500_000.0,
            "slow start should have ramped up, rate={before}"
        );
        sender.on_feedback(
            SimTime::from_millis(1_200),
            &TfrcFeedback {
                echo_timestamp: SimTime::from_millis(1_100),
                echo_delay: SimDuration::ZERO,
                receive_rate: 1e6,
                loss_event_rate: 0.05,
            },
        );
        let after = sender.allowed_rate();
        assert!(
            after < before,
            "rate should drop on loss ({before} -> {after})"
        );
        assert!(!sender.in_slow_start());
        // And it should be close to the response-function value.
        let expected = tcp_throughput(
            DATA_PACKET_BYTES as f64,
            sender.rtt().as_secs_f64(),
            0.05,
            4.0 * sender.rtt().as_secs_f64(),
        )
        .bytes_per_sec;
        let ratio = after / expected;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "after={after} expected={expected}"
        );
    }

    #[test]
    fn would_block_when_rate_exhausted() {
        let mut sender = TfrcSender::new(TfrcConfig::default());
        let now = SimTime::ZERO;
        let mut accepted = 0;
        for _ in 0..100 {
            if sender.try_send(now, DATA_PACKET_BYTES).is_ok() {
                accepted += 1;
            }
        }
        // Only the burst allowance may be accepted instantaneously.
        assert_eq!(accepted, BURST_PACKETS as usize);
        assert!(sender.sends_blocked > 0);
    }

    /// Every settable value, spelled out with no `..`: a new field fails to
    /// compile here, so a parameter cannot be added without being seen. The
    /// value is the default, and a sender built from it starts at one packet
    /// per initial RTT.
    #[test]
    fn the_settable_values_are_these() {
        let config = TfrcConfig {
            packet_size: DATA_PACKET_BYTES,
        };
        assert_eq!(config, TfrcConfig::default());
        assert_eq!(TfrcSender::new(config).allowed_rate(), 7_500.0);
    }

    #[test]
    fn nofeedback_timeout_halves_rate() {
        let mut sender = TfrcSender::new(TfrcConfig::default());
        sender.on_feedback(
            SimTime::from_millis(100),
            &TfrcFeedback {
                echo_timestamp: SimTime::ZERO,
                echo_delay: SimDuration::ZERO,
                receive_rate: 1e6,
                loss_event_rate: 0.0,
            },
        );
        let before = sender.allowed_rate();
        assert!(!sender.maybe_nofeedback_timeout(SimTime::from_millis(600)));
        assert!(sender.maybe_nofeedback_timeout(SimTime::from_secs(10)));
        assert!(sender.allowed_rate() < before);
    }

    #[test]
    fn receiver_paces_feedback_to_about_one_per_rtt() {
        let mut receiver = TfrcReceiver::new();
        let rtt = SimDuration::from_millis(100);
        let mut feedbacks = 0;
        for i in 0..100u64 {
            let now = SimTime::from_millis(i * 10);
            let header = TfrcHeader {
                seq: i,
                timestamp: now,
                rtt_estimate: rtt,
            };
            if receiver.on_data(now, header, DATA_PACKET_BYTES).is_some() {
                feedbacks += 1;
            }
        }
        // 1 second of data, 100 ms RTT: roughly 10 feedback packets.
        assert!((8..=12).contains(&feedbacks), "feedbacks={feedbacks}");
    }

    #[test]
    fn receive_rate_reflects_delivered_bytes() {
        let mut receiver = TfrcReceiver::new();
        let rtt = SimDuration::from_millis(100);
        let mut last_rate = 0.0;
        for i in 0..200u64 {
            let now = SimTime::from_millis(i * 10);
            let header = TfrcHeader {
                seq: i,
                timestamp: now,
                rtt_estimate: rtt,
            };
            if let Some(fb) = receiver.on_data(now, header, DATA_PACKET_BYTES) {
                last_rate = fb.receive_rate;
            }
        }
        // 1500 B every 10 ms = 150 KB/s.
        assert!(
            (100_000.0..200_000.0).contains(&last_rate),
            "rate={last_rate}"
        );
    }
}
