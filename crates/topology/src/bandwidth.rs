//! Bandwidth profiles (paper Table 1).
//!
//! Each link class has a bandwidth range; each link's capacity is drawn
//! uniformly at random from the range of its class. The low / medium / high
//! profiles are the three constraint levels the paper sweeps relative to its
//! 600–1000 Kbps streaming rates.

use bullet_netsim::SimRng;

use crate::classes::LinkClass;

/// A half-open bandwidth range in Kbps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KbpsRange {
    /// Lower bound (inclusive), in Kbps.
    pub low: u32,
    /// Upper bound (inclusive), in Kbps.
    pub high: u32,
}

impl KbpsRange {
    /// Creates a range.
    pub const fn new(low: u32, high: u32) -> Self {
        KbpsRange { low, high }
    }

    /// Draws a uniform sample from the range, in bits per second.
    pub fn sample_bps(&self, rng: &mut SimRng) -> f64 {
        let kbps = if self.low == self.high {
            self.low as f64
        } else {
            rng.range_f64(self.low as f64, self.high as f64)
        };
        kbps * 1_000.0
    }
}

/// The three bandwidth-constraint levels of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BandwidthProfile {
    /// Heavily constrained relative to the 600 Kbps target stream.
    Low,
    /// Slightly insufficient for traditional tree streaming.
    Medium,
    /// More than enough bandwidth for the target rate.
    High,
}

impl BandwidthProfile {
    /// All profiles, in Table 1 row order.
    pub const ALL: [BandwidthProfile; 3] = [
        BandwidthProfile::Low,
        BandwidthProfile::Medium,
        BandwidthProfile::High,
    ];

    /// Human-readable name matching Table 1.
    pub fn name(self) -> &'static str {
        match self {
            BandwidthProfile::Low => "Low bandwidth",
            BandwidthProfile::Medium => "Medium bandwidth",
            BandwidthProfile::High => "High bandwidth",
        }
    }

    /// The Table 1 bandwidth range for a link class under this profile.
    pub fn range(self, class: LinkClass) -> KbpsRange {
        use BandwidthProfile::*;
        use LinkClass::*;
        match (self, class) {
            (Low, ClientStub) => KbpsRange::new(300, 600),
            (Low, StubStub) => KbpsRange::new(500, 1_000),
            (Low, TransitStub) => KbpsRange::new(1_000, 2_000),
            (Low, TransitTransit) => KbpsRange::new(2_000, 4_000),

            (Medium, ClientStub) => KbpsRange::new(800, 2_800),
            (Medium, StubStub) => KbpsRange::new(1_000, 4_000),
            (Medium, TransitStub) => KbpsRange::new(1_000, 4_000),
            (Medium, TransitTransit) => KbpsRange::new(5_000, 10_000),

            (High, ClientStub) => KbpsRange::new(1_600, 5_600),
            (High, StubStub) => KbpsRange::new(2_000, 8_000),
            (High, TransitStub) => KbpsRange::new(2_000, 8_000),
            (High, TransitTransit) => KbpsRange::new(10_000, 20_000),
        }
    }

    /// Draws a link capacity (bits/second) for a link of the given class.
    pub fn sample_bps(self, class: LinkClass, rng: &mut SimRng) -> f64 {
        self.range(class).sample_bps(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl KbpsRange {
        /// Returns `true` if `bps` lies inside the range (with a small
        /// tolerance for floating point sampling at the boundaries).
        pub(crate) fn contains_bps(&self, bps: f64) -> bool {
            let kbps = bps / 1_000.0;
            kbps >= self.low as f64 - 1e-9 && kbps <= self.high as f64 + 1e-9
        }
    }

    #[test]
    fn table1_values_are_reproduced() {
        let medium = BandwidthProfile::Medium;
        assert_eq!(
            medium.range(LinkClass::ClientStub),
            KbpsRange::new(800, 2_800)
        );
        assert_eq!(
            medium.range(LinkClass::TransitTransit),
            KbpsRange::new(5_000, 10_000)
        );
        let low = BandwidthProfile::Low;
        assert_eq!(low.range(LinkClass::ClientStub), KbpsRange::new(300, 600));
        let high = BandwidthProfile::High;
        assert_eq!(
            high.range(LinkClass::StubStub),
            KbpsRange::new(2_000, 8_000)
        );
    }

    #[test]
    fn samples_fall_within_the_declared_range() {
        let mut rng = SimRng::new(5);
        for profile in BandwidthProfile::ALL {
            for class in LinkClass::ALL {
                let range = profile.range(class);
                for _ in 0..200 {
                    let bps = profile.sample_bps(class, &mut rng);
                    assert!(
                        range.contains_bps(bps),
                        "{profile:?}/{class:?}: {bps} outside {range:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn profiles_are_ordered_by_capacity() {
        // For every class, low <= medium <= high on both bounds.
        for class in LinkClass::ALL {
            let low = BandwidthProfile::Low.range(class);
            let med = BandwidthProfile::Medium.range(class);
            let high = BandwidthProfile::High.range(class);
            assert!(low.low <= med.low && med.low <= high.low);
            assert!(low.high <= med.high && med.high <= high.high);
        }
    }

    #[test]
    fn degenerate_range_samples_its_single_value() {
        let mut rng = SimRng::new(1);
        let range = KbpsRange::new(500, 500);
        assert_eq!(range.sample_bps(&mut rng), 500_000.0);
    }
}
