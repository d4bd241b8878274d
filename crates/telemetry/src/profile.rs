//! Self-profiling: what did the simulator itself do, and how fast.
//!
//! The profile splits into two halves with different determinism
//! contracts. The **sim-derived** half (events processed, event-queue
//! depth, pool occupancy) is a pure function of the simulation and is
//! byte-identical across hosts and thread counts. The **wall-clock**
//! half (run wall time, events/s, scenario-mutation wall share) is where
//! real-clock readings are quarantined: those fields are excluded from
//! `PartialEq` so a `RunResult` carrying a profile still compares equal
//! across `BULLET_THREADS` settings, and they surface only in
//! `trace_probe` output and the perf ledger.

use std::fmt::Write as _;

/// A per-run simulator profile. See the module docs for the equality
/// contract.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfProfile {
    /// Events dispatched by the event loop (deterministic).
    pub events: u64,
    /// Peak event-queue depth observed, heap + current-instant FIFO
    /// (deterministic).
    pub peak_queue_depth: u64,
    /// Mean event-queue depth over all dispatches (deterministic).
    pub mean_queue_depth: f64,
    /// Flight-slab slots allocated — the in-flight message high-water
    /// mark (deterministic).
    pub flight_slots: u64,
    /// Flight-slab slots free at the end of the run (deterministic).
    pub flight_free_slots: u64,
    /// Timer slots allocated (deterministic).
    pub timer_slots: u64,
    /// Timers still live at the end of the run (deterministic).
    pub live_timers: u64,
    /// Wall-clock seconds the run loop took (wall; excluded from `==`).
    pub wall_secs: f64,
    /// Event-loop throughput, events per wall second (wall; excluded
    /// from `==`).
    pub events_per_sec: f64,
    /// Wall-clock seconds spent applying route-affecting scenario
    /// mutations — the routing-repair share of the run (wall; excluded
    /// from `==`).
    pub repair_wall_secs: f64,
}

impl PartialEq for SelfProfile {
    /// Wall-clock fields are deliberately ignored: two profiles of the
    /// same run on different machines are "equal".
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
            && self.peak_queue_depth == other.peak_queue_depth
            && self.mean_queue_depth == other.mean_queue_depth
            && self.flight_slots == other.flight_slots
            && self.flight_free_slots == other.flight_free_slots
            && self.timer_slots == other.timer_slots
            && self.live_timers == other.live_timers
    }
}

impl SelfProfile {
    /// Render as one JSON object (deterministic fields first, wall-clock
    /// fields last).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"events\":{},\"peak_queue_depth\":{},\"mean_queue_depth\":{},\
             \"flight_slots\":{},\"flight_free_slots\":{},\"timer_slots\":{},\"live_timers\":{},\
             \"wall_secs\":{},\"events_per_sec\":{},\"repair_wall_secs\":{}}}",
            self.events,
            self.peak_queue_depth,
            self.mean_queue_depth,
            self.flight_slots,
            self.flight_free_slots,
            self.timer_slots,
            self.live_timers,
            self.wall_secs,
            self.events_per_sec,
            self.repair_wall_secs,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_wall_clock_fields() {
        let a = SelfProfile {
            events: 10,
            peak_queue_depth: 4,
            wall_secs: 1.5,
            events_per_sec: 6.7,
            ..SelfProfile::default()
        };
        let b = SelfProfile {
            wall_secs: 99.0,
            events_per_sec: 0.1,
            ..a
        };
        assert_eq!(a, b, "wall-clock drift must not break thread invariance");
        let c = SelfProfile { events: 11, ..a };
        assert_ne!(a, c, "deterministic fields still compare");
    }

    #[test]
    fn json_carries_every_field() {
        let p = SelfProfile {
            events: 3,
            mean_queue_depth: 1.5,
            ..SelfProfile::default()
        };
        let json = p.to_json();
        assert!(json.starts_with("{\"events\":3,"));
        assert!(json.contains("\"mean_queue_depth\":1.5"));
        assert!(json.contains("\"events_per_sec\":0"));
        assert!(json.ends_with('}'));
    }
}
