//! Bullet configuration.

use bullet_netsim::{SimDuration, SimTime};
use bullet_transport::DATA_PACKET_BYTES;

// ---- failure detection and recovery (§4.6), on under `recovery` ----

/// A non-root node that sees no RanSub `Distribute` from its parent for this
/// many consecutive epoch lengths declares the parent dead and re-attaches
/// elsewhere.
pub const ORPHAN_EPOCHS: u32 = 2;

/// Evict a mesh peer (sender or receiver) after this many consecutive
/// mesh-evaluation windows without any traffic or control activity from it.
/// Senders are judged by it under [`BulletConfig::evict_idle_senders`] or
/// `recovery`; receivers under `recovery` only.
pub const PEER_IDLE_WINDOWS: u32 = 2;

/// Give up on a control RPC (`PeeringRequest`, `Reattach`) after this many
/// sends to one target.
pub const MAX_RETRIES: u32 = 3;

/// Delay before the first control-RPC retry; successive retries back off
/// exponentially (doubling per attempt).
pub const RETRY_BASE: SimDuration = SimDuration::from_millis(500);

// ---- data-plane integrity, on under `integrity` ----

/// Misbehavior score added per corrupted block received from a peer.
pub const CORRUPT_PENALTY: f64 = 1.0;

/// Misbehavior score added per mesh-evaluation window in which a sending
/// peer that owes us reconciliation rows delivered nothing (a stall, or a
/// false advertisement that never materialized).
pub const STALL_PENALTY: f64 = 0.5;

/// Multiplicative decay applied to every peer's misbehavior score at each
/// mesh-evaluation window, so isolated incidents are forgiven.
pub const HEALTH_DECAY: f64 = 0.5;

/// A peer whose score reaches this threshold is quarantined: evicted from
/// the mesh (reconciliation rows restriped), excluded from the RanSub
/// candidate set and the re-attach ladder, and refused peerings for
/// [`QUARANTINE_BACKOFF`].
pub const QUARANTINE_THRESHOLD: f64 = 2.0;

/// How long a quarantined peer stays excluded.
pub const QUARANTINE_BACKOFF: SimDuration = SimDuration::from_secs(60);

// ---- overload resilience, on under `overload` ----

/// Fraction of [`OverloadConfig::inbox_budget`] past which the node
/// considers itself under pressure: peering/join traffic (the lowest
/// priority class) is shed first, from this threshold on, while
/// reconciliation traffic is still admitted up to the full budget.
pub const PRESSURE_FRACTION: f64 = 0.5;

/// First deferral a pressured node hands a joining peer; successive
/// deferrals of the same peer back off exponentially (doubling per strike,
/// capped by [`OverloadConfig::defer_max_exponent`]).
pub const DEFER_BASE: SimDuration = SimDuration::from_millis(500);

/// A mesh receiver whose reported intake stays below
/// [`SLOW_RECEIVER_FRACTION`] of the mean across receivers for this many
/// consecutive evaluation windows is demoted (dropped from the sender slot)
/// before any healthy peer is touched.
pub const SLOW_RECEIVER_WINDOWS: u32 = 3;

/// The lag threshold, as a fraction of the mean reported intake.
pub const SLOW_RECEIVER_FRACTION: f64 = 0.25;

// ---- the protocol core ----

/// A sending peer is dropped when more than this fraction of the packets it
/// delivered in the last evaluation window were duplicates.
pub const DUPLICATE_DROP_THRESHOLD: f64 = 0.5;

/// Interval at which a sending peer scans for missing keys to forward to
/// each of its receivers.
pub const PEER_SERVICE_INTERVAL: SimDuration = SimDuration::from_millis(250);

/// How far (in packets) the top of the requested recovery range lags the
/// newest sequence number the node has seen. Packets younger than this are
/// still expected to arrive from the parent (or are in flight), so asking
/// peers for them mostly produces duplicates; the paper's Fig. 4 shows the
/// requested (Low, High) range advancing behind the live edge.
pub const RECOVERY_LAG_PACKETS: u64 = 150;

/// Trace one data packet in this many for link-stress accounting.
pub const TRACE_INTERVAL: u64 = 100;

/// Playout freshness deadline: a first-delivery block older than this
/// (measured from its generation slot at the source, `stream_start +
/// seq * packet_interval(stream_rate_bps)`) is counted as late in the
/// delivery metrics (`fresh_bytes`) — a live playout that far behind the
/// source cannot use it. Purely observational: no protocol decision
/// consults it.
pub const FRESHNESS_DEADLINE: SimDuration = SimDuration::from_secs(10);

/// Overload-resilience parameters: bounded prioritized inboxes, a
/// working-set memory budget, join admission control and slow-receiver
/// demotion. The three fields are the values scenarios and tests set; the
/// layer's other parameters are the [`PRESSURE_FRACTION`] …
/// [`SLOW_RECEIVER_FRACTION`] constants.
///
/// `None` in [`BulletConfig::overload`] disables the layer entirely: no
/// message is shed, no join is deferred, no block is evicted beyond the
/// ordinary working-set window and no peer is demoted for lagging.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverloadConfig {
    /// Control messages (reconciliation + peering classes together)
    /// accepted per housekeeping window (1 s) before shedding begins.
    /// Data and transport feedback are never shed.
    pub inbox_budget: u32,
    /// Maximum blocks retained in the working set under memory pressure;
    /// blocks still owed to mesh receivers are never evicted, so the
    /// effective floor is the oldest outstanding receiver request.
    pub working_set_budget: usize,
    /// Cap on the deferral doubling (`retry_after <= DEFER_BASE <<
    /// defer_max_exponent`), so deferred joiners are never starved.
    pub defer_max_exponent: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            inbox_budget: 200,
            working_set_budget: 1_500,
            defer_max_exponent: 4,
        }
    }
}

/// Tunable parameters of a Bullet node.
///
/// Defaults follow the paper: a 600 Kbps target stream (of
/// [`DATA_PACKET_BYTES`] packets, over TFRC with its defaults), 5-second
/// RanSub epochs with 10-entry sets, up to 10 senders and 10
/// receivers per node, and sender eviction when more than half of the packets
/// it delivers are duplicates.
#[derive(Clone, Debug)]
pub struct BulletConfig {
    /// Target streaming rate at the source, in bits per second.
    pub stream_rate_bps: f64,
    /// Time at which the source starts streaming.
    pub stream_start: SimTime,
    /// RanSub epoch length (collect/distribute period).
    pub ransub_epoch: SimDuration,
    /// Number of summary tickets carried per RanSub set.
    pub ransub_set_size: usize,
    /// Whether the RanSub root starts a new epoch on timeout even when some
    /// collect sets are missing (failure detection, §4.6).
    pub ransub_failure_detection: bool,
    /// Maximum number of sending peers a node will receive data from.
    pub max_senders: usize,
    /// Maximum number of receiving peers a node will serve.
    pub max_receivers: usize,
    /// Interval between Bloom filter refreshes pushed to sending peers.
    pub filter_refresh_interval: SimDuration,
    /// Interval between peer-set evaluations ("every few RanSub epochs").
    pub mesh_eval_interval: SimDuration,
    /// Number of recent packets kept in the working set (the recovery
    /// horizon); older packets are pruned from the set, the summary ticket
    /// and the Bloom filter.
    pub working_set_window: usize,
    /// Bloom filter size in bits.
    pub bloom_bits: usize,
    /// Number of Bloom filter hash functions.
    pub bloom_hashes: u32,
    /// Maximum keys forwarded to one receiver per service round. It also
    /// sizes the *service window*: a round only looks at the first
    /// `4 × peer_service_batch` keys the receiver's request wants, counting
    /// the ones already sent, so a receiver gets at most that many keys
    /// (256 by default) per installed request — once they have all gone out
    /// it is served nothing more until its next `FilterRefresh`, even if it
    /// wants later keys. Intentional and pinned by the determinism goldens;
    /// see [`bullet_content::OfferIndex::batch`].
    pub peer_service_batch: usize,
    /// Whether the parent picks disjoint data per child (Fig. 5). Disabling
    /// this reproduces the non-disjoint strategy of Fig. 10.
    pub disjoint_send: bool,
    /// Whether peers are chosen by lowest summary-ticket resemblance.
    /// Disabling this picks a uniformly random candidate instead (ablation).
    pub resemblance_peering: bool,
    /// Drop a sending peer after [`PEER_IDLE_WINDOWS`] consecutive
    /// mesh-evaluation windows with zero packets from it.
    ///
    /// Under churn a crashed sender otherwise survives forever: it delivers
    /// nothing, so the duplicate/usefulness eviction rules never judge it,
    /// while its row of the reconciliation stripe (Fig. 4) stays assigned
    /// to a corpse and those sequence numbers are never re-requested from
    /// live peers. Static-network runs keep the paper behaviour (`false`);
    /// churn scenarios enable it.
    pub evict_idle_senders: bool,
    /// Failure-detection and recovery (§4.6): orphan re-attach, peer
    /// liveness eviction and control-RPC retries, tuned by [`ORPHAN_EPOCHS`],
    /// [`PEER_IDLE_WINDOWS`], [`MAX_RETRIES`] and [`RETRY_BASE`]. Off (the
    /// default), no orphan-detection or retry timer is armed, no extra
    /// message is sent and no extra randomness is drawn: zero behavioural
    /// footprint.
    pub recovery: bool,
    /// Data-plane integrity and misbehaving-peer defense: block
    /// verification on receive, decaying per-peer health scores, and
    /// quarantine of threshold-crossing peers, tuned by the
    /// [`CORRUPT_PENALTY`] … [`QUARANTINE_BACKOFF`] constants. Off (the
    /// default), no block is rejected and no peer is scored or quarantined:
    /// zero behavioural footprint. Block digests are still computed and
    /// carried; verification is RNG-free and inert with the layer off, which
    /// is what lets defense-off runs *meter* the corruption they accept.
    pub integrity: bool,
    /// Overload resilience: bounded prioritized inboxes, working-set
    /// memory budget, join admission control and slow-receiver demotion.
    /// `None` (the default) disables the layer with zero behavioural
    /// footprint.
    pub overload: Option<OverloadConfig>,
}

impl Default for BulletConfig {
    fn default() -> Self {
        BulletConfig {
            stream_rate_bps: 600_000.0,
            stream_start: SimTime::from_secs(10),
            ransub_epoch: SimDuration::from_secs(5),
            ransub_set_size: 10,
            ransub_failure_detection: true,
            max_senders: 10,
            max_receivers: 10,
            filter_refresh_interval: SimDuration::from_secs(5),
            mesh_eval_interval: SimDuration::from_secs(15),
            working_set_window: 1_500,
            bloom_bits: 16_384,
            bloom_hashes: 6,
            peer_service_batch: 64,
            disjoint_send: true,
            resemblance_peering: true,
            evict_idle_senders: false,
            recovery: false,
            integrity: false,
            overload: None,
        }
    }
}

impl BulletConfig {
    /// The configuration profile for churn scenarios: the paper defaults
    /// plus dead-sender eviction after two idle evaluation windows, so a
    /// crashed peer's reconciliation row is reassigned to live senders.
    pub fn churn(self) -> Self {
        BulletConfig {
            evict_idle_senders: true,
            ..self
        }
    }

    /// The configuration profile for failure-recovery scenarios: the churn
    /// profile plus the §4.6 detect-and-re-attach subsystem (2-epoch orphan
    /// detection, 2-window peer liveness, 3 control retries on a 500 ms
    /// exponential backoff).
    pub fn recovery(self) -> Self {
        BulletConfig {
            recovery: true,
            ..self.churn()
        }
    }

    /// The configuration profile for misbehaving-peer scenarios: the
    /// recovery profile plus the data-plane integrity layer (block
    /// verification, decaying health scores, quarantine at score 2.0 with a
    /// 60 s backoff).
    pub fn integrity(self) -> Self {
        BulletConfig {
            integrity: true,
            ..self.recovery()
        }
    }

    /// The configuration profile for overload scenarios: the integrity
    /// profile plus the overload-resilience layer with its default knobs
    /// (bounded prioritized inboxes, working-set budget, deferred-join
    /// admission control, slow-receiver demotion).
    pub fn overload(self) -> Self {
        BulletConfig {
            overload: Some(OverloadConfig::default()),
            ..self.integrity()
        }
    }

    /// Expected number of data packets per RanSub epoch, used to size the
    /// per-epoch limiting-factor adjustment step.
    pub fn packets_per_epoch(&self) -> f64 {
        let per_sec = self.stream_rate_bps / (DATA_PACKET_BYTES as f64 * 8.0);
        (per_sec * self.ransub_epoch.as_secs_f64()).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use bullet_transport::packet_interval;

    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let config = BulletConfig::default();
        assert_eq!(config.stream_rate_bps, 600_000.0);
        assert_eq!(config.ransub_set_size, 10);
        assert_eq!(config.max_senders, 10);
        assert_eq!(config.max_receivers, 10);
        assert_eq!(config.ransub_epoch, SimDuration::from_secs(5));
        assert!(config.disjoint_send);
    }

    /// Every settable value, spelled out with no `..`: a new field fails to
    /// compile here, so a knob cannot be added without being seen. The
    /// values are the defaults.
    #[test]
    fn the_settable_values_are_these() {
        let overload = OverloadConfig {
            inbox_budget: 200,
            working_set_budget: 1_500,
            defer_max_exponent: 4,
        };
        assert_eq!(overload, OverloadConfig::default());
        let config = BulletConfig {
            stream_rate_bps: 600_000.0,
            stream_start: SimTime::from_secs(10),
            ransub_epoch: SimDuration::from_secs(5),
            ransub_set_size: 10,
            ransub_failure_detection: true,
            max_senders: 10,
            max_receivers: 10,
            filter_refresh_interval: SimDuration::from_secs(5),
            mesh_eval_interval: SimDuration::from_secs(15),
            working_set_window: 1_500,
            bloom_bits: 16_384,
            bloom_hashes: 6,
            peer_service_batch: 64,
            disjoint_send: true,
            resemblance_peering: true,
            evict_idle_senders: false,
            recovery: false,
            integrity: false,
            overload: None,
        };
        assert_eq!(
            format!("{config:?}"),
            format!("{:?}", BulletConfig::default())
        );
        let overloaded = config.overload();
        assert_eq!(overloaded.overload, Some(overload));
        assert!(overloaded.recovery && overloaded.integrity);
        assert!(overloaded.evict_idle_senders);
    }

    #[test]
    fn packet_interval_matches_rate() {
        let config = BulletConfig::default();
        // 600 Kbps / (1500 B * 8) = 50 packets/s => 20 ms.
        let interval = packet_interval(config.stream_rate_bps);
        assert_eq!(interval.as_micros(), 20_000);
        assert!((config.packets_per_epoch() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn packet_interval_handles_tiny_rates() {
        assert!(packet_interval(1.0) <= SimDuration::from_secs(100));
        let config = BulletConfig {
            stream_rate_bps: 1.0,
            ..BulletConfig::default()
        };
        assert_eq!(config.packets_per_epoch(), 1.0);
    }
}
