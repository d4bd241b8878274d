//! Experiment scale selection.
//!
//! The paper's ModelNet runs use 20,000-router topologies with 1,000 overlay
//! participants and 400–500 second runs — feasible on a 50-machine cluster,
//! slow on one laptop. Every figure harness therefore supports three scales;
//! the default keeps a full `cargo bench` run in the minutes range while
//! preserving the qualitative shape of every result. [`Scale::Paper`]
//! reproduces the paper-sized runs; the bench targets select a scale with
//! `BULLET_SCALE` (`crates/bench`).

/// How large an experiment to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny runs used by integration tests (tens of nodes, ~90 s).
    Small,
    /// Default benchmarking scale (≈60 participants, ~200 s).
    Default,
    /// The paper's scale (≈1,000 participants on a ≈20,000-router topology).
    Paper,
}

impl Scale {
    /// Number of overlay participants at this scale (the paper's headline
    /// experiments use 1,000).
    pub fn participants(self) -> usize {
        match self {
            Scale::Small => 30,
            Scale::Default => 60,
            Scale::Paper => 1_000,
        }
    }

    /// Participants for the epidemic comparison (the paper's Fig. 11 uses
    /// 100 participants on a 5,000-node topology).
    pub fn epidemic_participants(self) -> usize {
        match self {
            Scale::Small => 25,
            Scale::Default => 50,
            Scale::Paper => 100,
        }
    }

    /// Duration of one run, in seconds (the paper streams for 300–500 s).
    pub fn duration_secs(self) -> u64 {
        match self {
            Scale::Small => 90,
            Scale::Default => 200,
            Scale::Paper => 400,
        }
    }

    /// Time at which the source starts streaming (the paper waits 50–100 s
    /// for the overlay to settle).
    pub fn stream_start_secs(self) -> u64 {
        match self {
            Scale::Small => 10,
            Scale::Default => 20,
            Scale::Paper => 100,
        }
    }

    /// Sampling interval for bandwidth-over-time series, in seconds.
    pub fn sample_secs(self) -> u64 {
        match self {
            Scale::Small => 2,
            Scale::Default => 5,
            Scale::Paper => 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_paper_parameters() {
        assert_eq!(Scale::Paper.participants(), 1_000);
        assert_eq!(Scale::Paper.epidemic_participants(), 100);
        assert!(Scale::Paper.duration_secs() >= 400);
        assert_eq!(Scale::Paper.stream_start_secs(), 100);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Small.participants() < Scale::Default.participants());
        assert!(Scale::Default.participants() < Scale::Paper.participants());
        assert!(Scale::Small.duration_secs() < Scale::Paper.duration_secs());
    }

    #[test]
    fn stream_start_is_before_the_end_of_the_run() {
        for scale in [Scale::Small, Scale::Default, Scale::Paper] {
            assert!(scale.stream_start_secs() < scale.duration_secs());
        }
    }
}
