//! Token-bucket rate limiting with non-blocking send semantics.
//!
//! Bullet's disjoint-send routine (paper Fig. 5) keys on whether "the
//! transport would block" on a send. We model a non-blocking transport
//! socket as a token bucket refilled at the connection's allowed rate: a send
//! is *accepted* when enough tokens are available and *would block*
//! otherwise.

use bullet_netsim::SimTime;

/// Outcome of offering a packet to a non-blocking transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The transport accepted the packet; it was sent on the wire.
    Accepted,
    /// Sending now would exceed the TCP-friendly fair share; the packet was
    /// not sent (the paper counts this as an unsuccessful send attempt).
    WouldBlock,
}

/// A token bucket expressed in bytes.
#[derive(Clone, Debug)]
pub struct RateLimiter {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl RateLimiter {
    /// Creates a limiter with the given sustained rate and burst allowance.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64) -> Self {
        RateLimiter {
            rate_bytes_per_sec: rate_bytes_per_sec.max(0.0),
            burst_bytes: burst_bytes.max(1.0),
            tokens: burst_bytes.max(1.0),
            last_refill: SimTime::ZERO,
        }
    }

    /// Updates the sustained rate, keeping accumulated tokens.
    pub fn set_rate(&mut self, rate_bytes_per_sec: f64) {
        self.rate_bytes_per_sec = rate_bytes_per_sec.max(0.0);
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_refill).as_secs_f64();
        if elapsed > 0.0 {
            self.tokens = (self.tokens + elapsed * self.rate_bytes_per_sec).min(self.burst_bytes);
            self.last_refill = now;
        }
    }

    /// Attempts to consume `bytes` tokens at time `now`.
    pub fn try_consume(&mut self, now: SimTime, bytes: u32) -> SendOutcome {
        self.refill(now);
        let needed = bytes as f64;
        if self.tokens >= needed {
            self.tokens -= needed;
            SendOutcome::Accepted
        } else {
            SendOutcome::WouldBlock
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_netsim::SimDuration;

    #[test]
    fn burst_is_available_immediately() {
        let mut rl = RateLimiter::new(1_000.0, 3_000.0);
        let now = SimTime::ZERO;
        assert_eq!(rl.try_consume(now, 1_500), SendOutcome::Accepted);
        assert_eq!(rl.try_consume(now, 1_500), SendOutcome::Accepted);
        assert_eq!(rl.try_consume(now, 1_500), SendOutcome::WouldBlock);
    }

    #[test]
    fn tokens_refill_at_the_configured_rate() {
        let mut rl = RateLimiter::new(1_000.0, 1_000.0);
        let mut now = SimTime::ZERO;
        assert_eq!(rl.try_consume(now, 1_000), SendOutcome::Accepted);
        assert_eq!(rl.try_consume(now, 500), SendOutcome::WouldBlock);
        now += SimDuration::from_millis(500);
        // 500 ms at 1000 B/s = 500 bytes.
        assert_eq!(rl.try_consume(now, 500), SendOutcome::Accepted);
        assert_eq!(rl.try_consume(now, 100), SendOutcome::WouldBlock);
    }

    #[test]
    fn tokens_cap_at_burst() {
        let mut rl = RateLimiter::new(1_000_000.0, 2_000.0);
        let later = SimTime::from_secs(100);
        rl.refill(later);
        assert!((rl.tokens - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn rate_change_takes_effect() {
        let mut rl = RateLimiter::new(0.0, 100.0);
        let mut now = SimTime::ZERO;
        assert_eq!(rl.try_consume(now, 100), SendOutcome::Accepted);
        now += SimDuration::from_secs(10);
        assert_eq!(rl.try_consume(now, 100), SendOutcome::WouldBlock);
        rl.set_rate(1_000.0);
        now += SimDuration::from_secs(1);
        assert_eq!(rl.try_consume(now, 100), SendOutcome::Accepted);
    }

    #[test]
    fn zero_rate_never_accepts_after_burst() {
        let mut rl = RateLimiter::new(0.0, 10.0);
        assert_eq!(rl.try_consume(SimTime::ZERO, 10), SendOutcome::Accepted);
        assert_eq!(
            rl.try_consume(SimTime::from_secs(1_000), 1),
            SendOutcome::WouldBlock
        );
    }
}
