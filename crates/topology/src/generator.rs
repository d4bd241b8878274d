//! Transit-stub topology generation.
//!
//! The paper evaluates on 20,000-node INET-generated topologies with
//! participants attached to degree-one stub nodes and link bandwidths drawn
//! per class from Table 1. INET itself is a closed tool; we generate
//! transit-stub topologies (the Calvert/Doar/Zegura model the paper's link
//! classification comes from) with routers placed in a plane so that
//! propagation delays follow geometric distance, as the paper's INET
//! placement does. The generator is parameterized so both laptop-scale and
//! paper-scale topologies can be produced.

use bullet_netsim::{LinkSpec, NetworkSpec, RouterId, SimDuration, SimRng};

use crate::bandwidth::BandwidthProfile;
use crate::classes::{LinkClass, NodeClass};
use crate::loss::LossProfile;

/// Probability of an extra chord between two routers of the same transit
/// domain (beyond the connecting ring).
const TRANSIT_CHORD_PROB: f64 = 0.3;
/// One-way delay, in milliseconds, corresponding to crossing the entire
/// placement plane. Link delays scale with Euclidean distance.
const PLANE_DELAY_MS: f64 = 40.0;
/// Queue depth expressed as seconds of buffering at the link rate.
const QUEUE_SECONDS: f64 = 0.2;

/// Configuration for the transit-stub generator.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Number of transit (backbone) domains.
    pub transit_domains: usize,
    /// Routers per transit domain.
    pub transit_per_domain: usize,
    /// Stub domains hanging off each transit router.
    pub stubs_per_transit: usize,
    /// Routers per stub domain (the connected ring part).
    pub routers_per_stub: usize,
    /// Degree-one leaf routers per stub domain, each hanging off one ring
    /// router by a single link. The paper's INET topologies attach all
    /// overlay participants to degree-one stub nodes; when this is non-zero
    /// clients are attached exclusively to leaf routers.
    pub leaf_routers_per_stub: usize,
    /// Number of overlay participants (clients attached to stub routers).
    pub clients: usize,
    /// Probability of an extra inter-domain transit link per domain pair
    /// (beyond the connecting ring).
    pub interdomain_link_prob: f64,
    /// Expected number of extra stub-to-stub links per stub domain.
    pub stub_stub_links_per_domain: f64,
    /// Bandwidth profile (Table 1 row).
    pub bandwidth: BandwidthProfile,
    /// Loss profile (§4.5).
    pub loss: LossProfile,
    /// Seed for all topology randomness.
    pub seed: u64,
}

impl TopologyConfig {
    /// A small topology (≈100 routers) suitable for unit tests.
    pub fn small(clients: usize, seed: u64) -> Self {
        TopologyConfig {
            transit_domains: 2,
            transit_per_domain: 4,
            stubs_per_transit: 2,
            routers_per_stub: 4,
            leaf_routers_per_stub: 0,
            clients,
            interdomain_link_prob: 0.5,
            stub_stub_links_per_domain: 0.5,
            bandwidth: BandwidthProfile::Medium,
            loss: LossProfile::None,
            seed,
        }
    }

    /// A medium topology (≈1,000–2,500 routers) used by the default-scale
    /// experiment harnesses.
    pub fn emulation(clients: usize, seed: u64) -> Self {
        TopologyConfig {
            transit_domains: 4,
            transit_per_domain: 8,
            stubs_per_transit: 4,
            routers_per_stub: 8,
            leaf_routers_per_stub: 0,
            clients,
            interdomain_link_prob: 0.5,
            stub_stub_links_per_domain: 1.0,
            bandwidth: BandwidthProfile::Medium,
            loss: LossProfile::None,
            seed,
        }
    }

    /// A paper-scale topology (≈20,000 routers, as in the ModelNet runs).
    pub fn paper_scale(clients: usize, seed: u64) -> Self {
        TopologyConfig {
            transit_domains: 10,
            transit_per_domain: 10,
            stubs_per_transit: 10,
            routers_per_stub: 16,
            leaf_routers_per_stub: 4,
            clients,
            interdomain_link_prob: 0.4,
            stub_stub_links_per_domain: 1.0,
            bandwidth: BandwidthProfile::Medium,
            loss: LossProfile::None,
            seed,
        }
    }

    /// Sets the bandwidth profile.
    pub fn with_bandwidth(mut self, profile: BandwidthProfile) -> Self {
        self.bandwidth = profile;
        self
    }

    /// Sets the loss profile.
    pub fn with_loss(mut self, loss: LossProfile) -> Self {
        self.loss = loss;
        self
    }
}

/// Per-class counts, useful for reports and sanity tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopologyStats {
    /// Number of transit routers.
    pub transit_routers: usize,
    /// Number of stub routers.
    pub stub_routers: usize,
    /// Number of client end hosts.
    pub clients: usize,
    /// Links per class, indexed in [`LinkClass::ALL`] order.
    pub links_by_class: [usize; 4],
}

/// A generated topology: the simulator spec plus classification metadata.
#[derive(Clone, Debug)]
pub struct BuiltTopology {
    /// Network spec consumable by `bullet_netsim::Sim`.
    pub spec: NetworkSpec,
    /// Class of every router (indexed by router id).
    pub node_classes: Vec<NodeClass>,
    /// Class of every bidirectional link (parallel to `spec.links`).
    pub link_classes: Vec<LinkClass>,
    /// The access (client-stub) link index of every overlay participant.
    pub access_links: Vec<usize>,
    /// Aggregate statistics.
    pub stats: TopologyStats,
}

impl BuiltTopology {
    /// Number of overlay participants.
    pub fn participants(&self) -> usize {
        self.spec.participants()
    }
}

struct Position {
    x: f64,
    y: f64,
}

/// The routers `config` generates, client end hosts excluded.
fn router_count(config: &TopologyConfig) -> usize {
    let transit = config.transit_domains * config.transit_per_domain;
    let per_stub = config.routers_per_stub + config.leaf_routers_per_stub;
    transit + transit * config.stubs_per_transit * per_stub
}

/// Generates a transit-stub topology from `config`.
pub fn generate(config: &TopologyConfig) -> BuiltTopology {
    assert!(
        config.transit_domains > 0,
        "need at least one transit domain"
    );
    assert!(config.transit_per_domain > 0, "need transit routers");
    let mut rng = SimRng::new(config.seed ^ 0x70706F);

    // Every router and client end host, known from the configuration.
    let nodes = router_count(config) + config.clients;
    let mut positions: Vec<Position> = Vec::with_capacity(nodes);
    let mut node_classes: Vec<NodeClass> = Vec::with_capacity(nodes);
    let mut pending_links: Vec<(RouterId, RouterId)> = Vec::new();

    // 1. Transit domains: routers in a ring plus random chords.
    let mut transit_routers: Vec<Vec<RouterId>> = Vec::new();
    for _ in 0..config.transit_domains {
        let cx = rng.range_f64(0.1, 0.9);
        let cy = rng.range_f64(0.1, 0.9);
        let mut domain = Vec::new();
        for _ in 0..config.transit_per_domain {
            let id = positions.len();
            positions.push(Position {
                x: cx + rng.range_f64(-0.05, 0.05),
                y: cy + rng.range_f64(-0.05, 0.05),
            });
            node_classes.push(NodeClass::Transit);
            domain.push(id);
        }
        for i in 0..domain.len() {
            if domain.len() > 1 {
                pending_links.push((domain[i], domain[(i + 1) % domain.len()]));
            }
            for j in i + 2..domain.len() {
                if rng.chance(TRANSIT_CHORD_PROB) {
                    pending_links.push((domain[i], domain[j]));
                }
            }
        }
        transit_routers.push(domain);
    }

    // 2. Inter-domain transit links: a ring over domains plus random extras.
    for d in 0..config.transit_domains {
        if config.transit_domains > 1 {
            let next = (d + 1) % config.transit_domains;
            let a = *rng.choose(&transit_routers[d]).expect("non-empty domain");
            let b = *rng
                .choose(&transit_routers[next])
                .expect("non-empty domain");
            pending_links.push((a, b));
        }
        for e in d + 2..config.transit_domains {
            if rng.chance(config.interdomain_link_prob) {
                let a = *rng.choose(&transit_routers[d]).expect("non-empty domain");
                let b = *rng.choose(&transit_routers[e]).expect("non-empty domain");
                pending_links.push((a, b));
            }
        }
    }

    // 3. Stub domains hanging off each transit router.
    let mut stub_domains: Vec<Vec<RouterId>> = Vec::new();
    let mut leaf_routers: Vec<RouterId> = Vec::new();
    for domain in &transit_routers {
        for &transit in domain {
            for _ in 0..config.stubs_per_transit {
                let scx = positions[transit].x + rng.range_f64(-0.08, 0.08);
                let scy = positions[transit].y + rng.range_f64(-0.08, 0.08);
                let mut stub = Vec::new();
                for _ in 0..config.routers_per_stub {
                    let id = positions.len();
                    positions.push(Position {
                        x: scx + rng.range_f64(-0.02, 0.02),
                        y: scy + rng.range_f64(-0.02, 0.02),
                    });
                    node_classes.push(NodeClass::Stub);
                    stub.push(id);
                }
                // Intra-stub ring keeps the domain connected.
                for i in 0..stub.len() {
                    if stub.len() > 1 {
                        pending_links.push((stub[i], stub[(i + 1) % stub.len()]));
                    }
                }
                // One transit-stub uplink.
                let gateway = *rng.choose(&stub).expect("non-empty stub");
                pending_links.push((gateway, transit));
                // Degree-one leaf routers, each hanging off one ring router.
                // They are kept out of `stub` so gateway selection and the
                // stub-to-stub chords below never touch them, preserving
                // their degree-one property (paper client attachment).
                for _ in 0..config.leaf_routers_per_stub {
                    let anchor = *rng.choose(&stub).expect("non-empty stub");
                    let id = positions.len();
                    positions.push(Position {
                        x: positions[anchor].x + rng.range_f64(-0.01, 0.01),
                        y: positions[anchor].y + rng.range_f64(-0.01, 0.01),
                    });
                    node_classes.push(NodeClass::Stub);
                    pending_links.push((id, anchor));
                    leaf_routers.push(id);
                }
                stub_domains.push(stub);
            }
        }
    }

    // 4. Extra stub-to-stub links between different stub domains.
    if stub_domains.len() > 1 {
        let expected = config.stub_stub_links_per_domain * stub_domains.len() as f64;
        let count = expected.round() as usize;
        for _ in 0..count {
            let a_dom = rng.range_usize(0, stub_domains.len());
            let mut b_dom = rng.range_usize(0, stub_domains.len());
            if a_dom == b_dom {
                b_dom = (b_dom + 1) % stub_domains.len();
            }
            let a = *rng.choose(&stub_domains[a_dom]).expect("non-empty stub");
            let b = *rng.choose(&stub_domains[b_dom]).expect("non-empty stub");
            pending_links.push((a, b));
        }
    }

    // 5. Clients: each participant is a new end host attached by a
    //    client-stub access link — to a random degree-one leaf router when
    //    the configuration has them (paper attachment model), otherwise to
    //    a random stub ring router.
    let all_stub_routers: Vec<RouterId> = stub_domains.iter().flatten().copied().collect();
    assert!(
        !all_stub_routers.is_empty(),
        "configuration produced no stub routers to attach clients to"
    );
    let attach_candidates: &[RouterId] = if leaf_routers.is_empty() {
        &all_stub_routers
    } else {
        &leaf_routers
    };
    let mut client_routers = Vec::with_capacity(config.clients);
    for _ in 0..config.clients {
        let stub = *rng.choose(attach_candidates).expect("non-empty stub set");
        let id = positions.len();
        positions.push(Position {
            x: positions[stub].x + rng.range_f64(-0.005, 0.005),
            y: positions[stub].y + rng.range_f64(-0.005, 0.005),
        });
        node_classes.push(NodeClass::Client);
        pending_links.push((id, stub));
        client_routers.push(id);
    }

    // 6. Materialize links: class, bandwidth, delay, loss, queueing.
    let mut spec = NetworkSpec::new(positions.len());
    spec.links.reserve_exact(pending_links.len());
    spec.attachments.reserve_exact(config.clients);
    let mut link_classes = Vec::with_capacity(pending_links.len());
    let mut access_links = vec![usize::MAX; config.clients];
    let mut stats = TopologyStats {
        transit_routers: config.transit_domains * config.transit_per_domain,
        stub_routers: all_stub_routers.len() + leaf_routers.len(),
        clients: config.clients,
        links_by_class: [0; 4],
    };
    for (a, b) in pending_links {
        let class = LinkClass::from_endpoints(node_classes[a], node_classes[b]);
        let bandwidth = config.bandwidth.sample_bps(class, &mut rng);
        let dx = positions[a].x - positions[b].x;
        let dy = positions[a].y - positions[b].y;
        let dist = (dx * dx + dy * dy).sqrt();
        let delay_ms = (dist * PLANE_DELAY_MS).max(0.5);
        let overloaded = rng.chance(config.loss.overloaded_fraction());
        let loss = config.loss.sample(class, overloaded, &mut rng);
        let queue_bytes = ((bandwidth * QUEUE_SECONDS / 8.0) as u32).max(16_000);
        let link_idx = spec.add_link(
            LinkSpec::new(
                a,
                b,
                bandwidth,
                SimDuration::from_secs_f64(delay_ms / 1_000.0),
            )
            .with_loss(loss)
            .with_queue(queue_bytes),
        );
        link_classes.push(class);
        let class_idx = LinkClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("known class");
        stats.links_by_class[class_idx] += 1;
        if class == LinkClass::ClientStub {
            // Identify which participant this access link belongs to.
            let client = if node_classes[a] == NodeClass::Client {
                a
            } else {
                b
            };
            if let Some(idx) = client_routers.iter().position(|&c| c == client) {
                access_links[idx] = link_idx;
            }
        }
    }

    for &router in &client_routers {
        spec.attach(router);
    }

    BuiltTopology {
        spec,
        node_classes,
        link_classes,
        access_links,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_netsim::Network;

    #[test]
    fn small_topology_has_expected_router_count() {
        let config = TopologyConfig::small(10, 1);
        let topo = generate(&config);
        // Routers = transit + stub; clients are extra end hosts.
        assert_eq!(router_count(&config), 2 * 4 + 2 * 4 * 2 * 4);
        assert_eq!(topo.spec.routers, router_count(&config) + 10);
        assert_eq!(topo.participants(), 10);
    }

    #[test]
    fn every_participant_has_an_access_link() {
        let topo = generate(&TopologyConfig::small(25, 3));
        for node in 0..topo.participants() {
            let bw = topo.spec.links[topo.access_links[node]].bandwidth_bps;
            assert!(bw > 0.0);
            assert_eq!(
                topo.link_classes[topo.access_links[node]],
                LinkClass::ClientStub
            );
        }
    }

    #[test]
    fn all_participant_pairs_are_routable() {
        let topo = generate(&TopologyConfig::small(12, 7));
        let mut net = Network::new(&topo.spec);
        for a in 0..topo.participants() {
            for b in 0..topo.participants() {
                if a != b {
                    assert!(
                        net.route(a, b).is_some(),
                        "no route between participants {a} and {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn link_classes_cover_all_four_types() {
        let topo = generate(&TopologyConfig::emulation(30, 11));
        for (idx, class) in LinkClass::ALL.iter().enumerate() {
            assert!(
                topo.stats.links_by_class[idx] > 0,
                "expected at least one {} link",
                class.name()
            );
        }
    }

    #[test]
    fn bandwidths_respect_the_profile() {
        let config = TopologyConfig::small(10, 5).with_bandwidth(BandwidthProfile::Low);
        let topo = generate(&config);
        for (link, class) in topo.spec.links.iter().zip(&topo.link_classes) {
            let range = BandwidthProfile::Low.range(*class);
            assert!(
                range.contains_bps(link.bandwidth_bps),
                "{:?} link at {} bps outside {:?}",
                class,
                link.bandwidth_bps,
                range
            );
        }
    }

    #[test]
    fn lossy_profile_assigns_losses() {
        let config = TopologyConfig::emulation(20, 9).with_loss(LossProfile::paper_lossy());
        let topo = generate(&config);
        let lossy_links = topo.spec.links.iter().filter(|l| l.loss > 0.0).count();
        assert!(lossy_links > topo.spec.links.len() / 2);
        let max_loss = topo
            .spec
            .links
            .iter()
            .map(|l| l.loss)
            .fold(0.0f64, f64::max);
        assert!(max_loss <= 0.10 + 1e-12);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&TopologyConfig::small(10, 42));
        let b = generate(&TopologyConfig::small(10, 42));
        assert_eq!(a.spec.links.len(), b.spec.links.len());
        for (la, lb) in a.spec.links.iter().zip(&b.spec.links) {
            assert_eq!(la, lb);
        }
        let c = generate(&TopologyConfig::small(10, 43));
        let same = a
            .spec
            .links
            .iter()
            .zip(&c.spec.links)
            .filter(|(x, y)| x == y)
            .count();
        assert!(same < a.spec.links.len());
    }

    /// A generated topology holds no growth slack: its links, attachments
    /// and classes are allocated at their final lengths, which the
    /// configuration and the link list fix before they are filled.
    #[test]
    fn generated_tables_are_allocated_at_their_lengths() {
        for config in [
            TopologyConfig::paper_scale(200, 7),
            TopologyConfig::small(12, 3),
        ] {
            let topo = generate(&config);
            let capacities = [
                (topo.spec.links.capacity(), topo.spec.links.len()),
                (topo.spec.attachments.capacity(), topo.spec.attachments.len()),
                (topo.node_classes.capacity(), topo.node_classes.len()),
                (topo.link_classes.capacity(), topo.link_classes.len()),
            ];
            for (capacity, len) in capacities {
                assert_eq!(capacity, len, "{capacities:?}");
            }
        }
    }

    #[test]
    fn paper_scale_config_reaches_twenty_thousand_routers() {
        let config = TopologyConfig::paper_scale(1000, 1);
        assert!(router_count(&config) >= 20_000);
    }

    #[test]
    fn paper_scale_attaches_clients_to_degree_one_leaf_stubs() {
        let config = TopologyConfig::paper_scale(50, 13);
        let topo = generate(&config);
        assert_eq!(topo.spec.routers, router_count(&config) + 50);
        assert!(topo.spec.routers >= 20_000);
        // Router-to-router degree of each attachment router must be exactly
        // one: clients hang off degree-one leaf stubs, as in the paper's
        // INET placement.
        let mut degree = vec![0usize; topo.spec.routers];
        for link in &topo.spec.links {
            if topo.node_classes[link.a] != NodeClass::Client
                && topo.node_classes[link.b] != NodeClass::Client
            {
                degree[link.a] += 1;
                degree[link.b] += 1;
            }
        }
        for node in 0..topo.participants() {
            // The stub end of the participant's access link must be a
            // degree-one leaf router.
            let access = &topo.spec.links[topo.access_links[node]];
            let stub = if topo.node_classes[access.a] == NodeClass::Client {
                access.b
            } else {
                access.a
            };
            assert_eq!(topo.node_classes[stub], NodeClass::Stub);
            assert_eq!(
                degree[stub], 1,
                "participant {node} attached to stub router {stub} of degree {}",
                degree[stub]
            );
        }
    }

    #[test]
    fn leaf_free_configs_are_unchanged_by_the_leaf_extension() {
        // The leaf-router code paths draw no randomness when the count is
        // zero, so pre-existing topology classes stay byte-identical.
        let topo = generate(&TopologyConfig::small(10, 42));
        assert_eq!(topo.stats.stub_routers, 2 * 4 * 2 * 4);
        for node in 0..topo.participants() {
            assert_eq!(
                topo.link_classes[topo.access_links[node]],
                LinkClass::ClientStub
            );
        }
    }
}
