//! Experiment environments: topologies and trees.
//!
//! Small helpers that turn a [`Scale`] plus the paper's per-figure settings
//! (bandwidth profile, loss profile, participant count) into a generated
//! topology, and the overlay trees the generated-topology figures need
//! (random, offline bottleneck). Fig. 15's hand-crafted good/worst trees
//! come straight from its constrained topology's access bandwidths.

use std::sync::Arc;

use bullet_netsim::{LinkSpec, Network, NetworkSetup, NetworkSpec, OverlayId, SimDuration, SimRng};
use bullet_overlay::{bottleneck_tree, random_tree, OmbtConfig, Tree};
use bullet_topology::{generate, BandwidthProfile, BuiltTopology, LossProfile, TopologyConfig};

use crate::scale::Scale;

/// A network spec bundled with its shared immutable setup
/// ([`NetworkSetup`]: link parameters, adjacency and ALT landmark tables) —
/// generated ([`prepare_topology`]) or hand-built (Fig. 15's constrained
/// source).
///
/// This is the unit of setup sharing in the parallel harness: the expensive
/// pieces are built **once per topology class** when the spec is prepared,
/// and every run — on any worker thread — gets its own cheap mutable
/// [`Network`] view over them through [`PreparedTopology::network`]. The
/// view's link clocks, route arena, caches and participant route memo are
/// private per run; routes are bit-identical to constructing
/// `Network::new(spec)` from scratch (gated in `bullet_netsim` and by the
/// figure thread-invariance tests). Cloning is two `Arc` bumps, so figure
/// grids move clones into their run tasks.
#[derive(Clone)]
pub struct PreparedTopology {
    spec: Arc<NetworkSpec>,
    setup: Arc<NetworkSetup>,
}

impl PreparedTopology {
    /// Prepares `spec`, building the shared routing setup (the routing mode
    /// resolves from the topology size exactly like `Sim::new`).
    pub fn new(spec: NetworkSpec) -> Self {
        let setup = Arc::new(NetworkSetup::new(&spec));
        PreparedTopology {
            spec: Arc::new(spec),
            setup,
        }
    }

    /// The underlying network spec.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Number of overlay participants.
    pub fn participants(&self) -> usize {
        self.spec.participants()
    }

    /// A fresh per-run network view over the shared setup.
    pub fn network(&self) -> Network {
        Network::with_setup(&self.spec, &self.setup)
    }

    /// Builds an overlay tree like [`build_tree`], with the oracle-backed
    /// bottleneck tree running over a shared-setup network view instead of
    /// a from-scratch network — at paper scale that skips a second landmark
    /// construction per figure. Trees are identical to [`build_tree`]'s
    /// (routes are canonical either way).
    pub fn tree(&self, kind: TreeKind, root: OverlayId, seed: u64) -> Tree {
        build_tree_on(self.participants(), || self.network(), kind, root, seed)
    }
}

/// Generates and prepares the topology for one experiment: the topology
/// *and* its routing setup are built once here and shared (via `Arc`)
/// across every run of the figure's grid.
pub fn prepare_topology(
    scale: Scale,
    participants: usize,
    bandwidth: BandwidthProfile,
    loss: LossProfile,
    seed: u64,
) -> PreparedTopology {
    PreparedTopology::new(build_topology(scale, participants, bandwidth, loss, seed).spec)
}

/// Builds the transit-stub topology for one experiment.
pub fn build_topology(
    scale: Scale,
    participants: usize,
    bandwidth: BandwidthProfile,
    loss: LossProfile,
    seed: u64,
) -> BuiltTopology {
    let mut config = match scale {
        Scale::Small => TopologyConfig::small(participants, seed),
        Scale::Default => TopologyConfig::emulation(participants, seed),
        Scale::Paper => TopologyConfig::paper_scale(participants, seed),
    };
    config.bandwidth = bandwidth;
    config.loss = loss;
    generate(&config)
}

/// The overlay tree constructions used across the figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeKind {
    /// Degree-constrained random tree (Bullet's usual substrate).
    Random {
        /// Maximum children per node.
        max_children: usize,
    },
    /// The offline greedy bottleneck-bandwidth tree of §4.1.
    Bottleneck,
}

/// Builds the requested tree over the participants of `topo`.
pub fn build_tree(topo: &BuiltTopology, kind: TreeKind, root: OverlayId, seed: u64) -> Tree {
    build_tree_on(
        topo.participants(),
        || Network::new(&topo.spec),
        kind,
        root,
        seed,
    )
}

/// [`build_tree`] with an explicit network factory, so callers holding a
/// [`PreparedTopology`] reuse its shared routing setup for the oracle-backed
/// bottleneck tree.
fn build_tree_on(
    participants: usize,
    make_network: impl Fn() -> Network,
    kind: TreeKind,
    root: OverlayId,
    seed: u64,
) -> Tree {
    match kind {
        TreeKind::Random { max_children } => {
            let mut rng = SimRng::new(seed ^ 0x7EE);
            random_tree(participants, root, max_children, &mut rng)
        }
        TreeKind::Bottleneck => {
            let mut net = make_network();
            bottleneck_tree(&mut net, participants, root, &OmbtConfig::default())
        }
    }
}

/// The constrained-source environment standing in for the PlanetLab
/// deployment of §4.7.
#[derive(Clone, Debug)]
pub struct ConstrainedSourceTopology {
    /// Simulator network spec.
    pub spec: NetworkSpec,
    /// Per-participant access bandwidth, bits per second.
    pub access_bps: Vec<f64>,
    /// The source participant (attached behind the constrained uplink).
    pub source: OverlayId,
}

/// Builds the constrained-source topology: the source and `regional` other
/// nodes sit behind modest access links in one region, `remote` nodes sit in
/// a well-provisioned region, and the two regions are joined by a wide
/// transit link. When `constrain_source` is false every node (including the
/// source) gets a fast access link, reproducing the paper's follow-up run
/// where Bullet and a good tree both reach the full streaming rate.
pub fn constrained_source_topology(
    regional: usize,
    remote: usize,
    constrain_source: bool,
    seed: u64,
) -> ConstrainedSourceTopology {
    let mut rng = SimRng::new(seed ^ 0xF1615);
    // Routers: 0 = regional hub, 1 = remote hub.
    let participants = 1 + regional + remote;
    let mut spec = NetworkSpec::new(2 + participants);
    spec.add_link(LinkSpec::new(0, 1, 200e6, SimDuration::from_millis(40)));
    let mut access_bps = Vec::with_capacity(participants);
    for node in 0..participants {
        let router = 2 + node;
        let (hub, bps) = if node == 0 {
            // The source.
            let bps = if constrain_source {
                2_500_000.0
            } else {
                15_000_000.0
            };
            (0, bps)
        } else if node <= regional {
            (0, rng.range_f64(2_000_000.0, 4_000_000.0))
        } else {
            (1, rng.range_f64(10_000_000.0, 20_000_000.0))
        };
        spec.add_link(LinkSpec::new(hub, router, bps, SimDuration::from_millis(5)));
        spec.attach(router);
        access_bps.push(bps);
    }
    ConstrainedSourceTopology {
        spec,
        access_bps,
        source: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a → b` on `net`: the links of its interned route.
    fn path(net: &mut Network, a: usize, b: usize) -> Option<Vec<u32>> {
        let id = net.route(a, b)?;
        Some(net.route_links(id).to_vec())
    }

    #[test]
    fn topology_scales_with_scale() {
        let small = build_topology(
            Scale::Small,
            20,
            BandwidthProfile::Medium,
            LossProfile::None,
            1,
        );
        let default = build_topology(
            Scale::Default,
            20,
            BandwidthProfile::Medium,
            LossProfile::None,
            1,
        );
        assert!(default.spec.routers > small.spec.routers);
        assert_eq!(small.participants(), 20);
    }

    #[test]
    fn all_tree_kinds_build_valid_trees() {
        let topo = build_topology(
            Scale::Small,
            15,
            BandwidthProfile::Medium,
            LossProfile::None,
            3,
        );
        for kind in [TreeKind::Random { max_children: 4 }, TreeKind::Bottleneck] {
            let tree = build_tree(&topo, kind, 0, 3);
            assert_eq!(tree.len(), 15, "{kind:?}");
            assert_eq!(tree.parent(0), None, "{kind:?}");
            assert_eq!(tree.subtree_size(0), 15, "{kind:?}");
        }
    }

    #[test]
    fn constrained_source_topology_shape() {
        let topo = constrained_source_topology(10, 36, true, 7);
        assert_eq!(topo.access_bps.len(), 47);
        assert_eq!(topo.spec.participants(), 47);
        assert!(
            topo.access_bps[0] < 3_000_000.0,
            "source must be constrained"
        );
        // Remote nodes are fast.
        assert!(topo.access_bps[20] >= 10_000_000.0);
        let unconstrained = constrained_source_topology(10, 36, false, 7);
        assert!(unconstrained.access_bps[0] > 10_000_000.0);
    }

    #[test]
    fn prepared_topology_builds_identical_trees_and_networks() {
        let topo = build_topology(
            Scale::Small,
            15,
            BandwidthProfile::Medium,
            LossProfile::None,
            3,
        );
        let prepared = prepare_topology(
            Scale::Small,
            15,
            BandwidthProfile::Medium,
            LossProfile::None,
            3,
        );
        for kind in [TreeKind::Random { max_children: 4 }, TreeKind::Bottleneck] {
            assert_eq!(
                build_tree(&topo, kind, 0, 3),
                prepared.tree(kind, 0, 3),
                "{kind:?}: shared-setup tree diverged"
            );
        }
        // Two per-run views (and a from-scratch network) route identically.
        let mut fresh = Network::new(&topo.spec);
        let mut view_a = prepared.network();
        let mut view_b = prepared.network();
        for a in 0..5 {
            for b in 0..5 {
                assert_eq!(path(&mut fresh, a, b), path(&mut view_a, a, b), "{a}->{b}");
                assert_eq!(path(&mut fresh, a, b), path(&mut view_b, a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn prepared_spec_views_match_fresh_networks() {
        let raw = constrained_source_topology(4, 6, true, 7);
        let prepared = PreparedTopology::new(raw.spec.clone());
        assert_eq!(prepared.participants(), raw.spec.participants());
        let mut fresh = Network::new(&raw.spec);
        let mut view = prepared.network();
        for a in 0..prepared.participants() {
            assert_eq!(path(&mut fresh, a, 0), path(&mut view, a, 0), "{a}->0");
            assert_eq!(path(&mut fresh, 0, a), path(&mut view, 0, a), "0->{a}");
        }
    }
}
