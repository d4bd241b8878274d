//! Routing-equivalence harness.
//!
//! The lazy bidirectional router and its ALT (landmark) variant must return
//! the *same* canonical route — identical hop sequence, hence identical
//! cost — as the eager per-source reference Dijkstra, for every router pair
//! the overlay can use; the one-search-per-source row trees
//! (`Network::row_tree`) must reproduce those same routes again. This module cross-checks all strategies over one
//! `NetworkSpec` and is shared (via `#[path]` inclusion) by
//! `tests/properties.rs` and the paper-scale tests, so every generated
//! topology class goes through the same gate.

use bullet_suite::netsim::{
    DirectedLinkId, LinkSpec, Network, NetworkSpec, RouterId, RoutingMode, RowTree, SimDuration,
    SimRng,
};

/// Number of landmarks the harness gives the ALT router. Deliberately small
/// so the landmark bounds do real pruning work instead of degenerating.
pub const HARNESS_LANDMARKS: usize = 4;

/// Builds the three networks under comparison.
fn networks(spec: &NetworkSpec) -> (Network, Network, Network) {
    (
        Network::with_routing(spec, RoutingMode::EagerPerSource),
        Network::with_routing(spec, RoutingMode::LazyAlt { landmarks: 0 }),
        Network::with_routing(
            spec,
            RoutingMode::LazyAlt {
                landmarks: HARNESS_LANDMARKS,
            },
        ),
    )
}

/// Builds the network the row trees are read from. A row tree runs the same
/// whole-graph search in every routing mode, and this network is asked for
/// nothing else, so its lazy router never runs.
fn row_network(spec: &NetworkSpec) -> Network {
    Network::with_routing(
        spec,
        RoutingMode::LazyAlt {
            landmarks: HARNESS_LANDMARKS,
        },
    )
}

/// `a → b` read off `a`'s row tree.
fn row_path(row: &RowTree, b: usize) -> Option<Vec<DirectedLinkId>> {
    let mut path = Vec::new();
    row.path_into(b, &mut path).then_some(path)
}

/// `a → b` by a point query on `net`, as an owned link sequence.
pub fn path(net: &mut Network, a: usize, b: usize) -> Option<Vec<DirectedLinkId>> {
    let id = net.route(a, b)?;
    Some(
        net.route_links(id)
            .iter()
            .map(|&l| l as DirectedLinkId)
            .collect(),
    )
}

/// Asserts that one participant pair routes identically under all three
/// pairwise strategies (path hop sequence and propagation cost) and on the
/// source's row tree.
#[allow(clippy::too_many_arguments)]
fn assert_pair(
    eager: &mut Network,
    bidi: &mut Network,
    alt: &mut Network,
    row: &RowTree,
    a: usize,
    b: usize,
    label: &str,
) {
    let reference = path(eager, a, b);
    let lazy = path(bidi, a, b);
    let guided = path(alt, a, b);
    assert_eq!(
        reference, lazy,
        "{label}: participants {a}->{b}: bidirectional path diverges from reference"
    );
    assert_eq!(
        reference, guided,
        "{label}: participants {a}->{b}: ALT path diverges from reference"
    );
    assert_eq!(
        reference,
        row_path(row, b),
        "{label}: participants {a}->{b}: row tree diverges from reference"
    );
    if reference.is_some() {
        let cost = eager.propagation_delay(a, b);
        assert_eq!(
            cost,
            bidi.propagation_delay(a, b),
            "{label}: {a}->{b}: bidirectional cost diverges"
        );
        assert_eq!(
            cost,
            alt.propagation_delay(a, b),
            "{label}: {a}->{b}: ALT cost diverges"
        );
    }
}

/// Cross-checks every ordered participant pair of `spec` across the routing
/// strategies (pairwise and row trees), then verifies each strategy did what
/// it claims (the reference built trees, the lazy routers built none, the
/// row network ran one search per row and nothing else).
pub fn assert_all_participant_pairs_equivalent(spec: &NetworkSpec, label: &str) {
    let (mut eager, mut bidi, mut alt) = networks(spec);
    let mut rows = row_network(spec);
    let n = spec.participants();
    let sources: Vec<usize> = (0..n).collect();
    for (a, row) in rows.row_trees(&sources).iter().enumerate() {
        for b in (0..n).filter(|&b| b != a) {
            assert_pair(&mut eager, &mut bidi, &mut alt, row, a, b, label);
        }
    }
    check_strategy_invariants(&eager, &bidi, &alt, label);
    check_row_invariants(&rows, n, label);
}

/// Cross-checks a sampled subset of ordered participant pairs — used at
/// paper scale where all-pairs would run 20k-router reference Dijkstras for
/// every source.
pub fn assert_sampled_pairs_equivalent(spec: &NetworkSpec, pairs: &[(usize, usize)], label: &str) {
    let (mut eager, mut bidi, mut alt) = networks(spec);
    let mut net = row_network(spec);
    let mut sources: Vec<usize> = (pairs.iter())
        .filter(|&&(a, b)| a != b)
        .map(|&(a, _)| a)
        .collect();
    sources.sort_unstable();
    sources.dedup();
    let rows = net.row_trees(&sources);
    for &(a, b) in pairs.iter().filter(|&&(a, b)| a != b) {
        let row = &rows[sources.binary_search(&a).expect("a sampled source")];
        assert_pair(&mut eager, &mut bidi, &mut alt, row, a, b, label);
    }
    check_strategy_invariants(&eager, &bidi, &alt, label);
    check_row_invariants(&net, sources.len(), label);
}

/// Three uniform-delay topologies built to defeat a lazy router that
/// rebuilds the canonical path from its two search balls instead of resuming
/// a search (`netsim::routing`, "Reconstruction"), each with a participant
/// wherever a query can usefully start or end: a torus (many shortest paths
/// per pair, through routers neither side need settle to find *one*), a
/// ring of rings with a participant on a leaf off every ring router (the
/// transit-stub shape), and a grid with one far participant hanging off its
/// first column by long spokes, whose unguided forward ball is the source
/// alone. `netsim`'s own `reconstruction_matches_reference_on_tie_adversarial_graphs`
/// runs the same shapes at the `LazyRouter` level (and as directed graphs,
/// which a `NetworkSpec` cannot express) and lists the mutants they kill;
/// here they go through `Network` — route cache, arena and row trees.
pub fn tie_adversarial_specs() -> Vec<(&'static str, NetworkSpec)> {
    let hop = SimDuration::from_millis(1);
    let link = |a: RouterId, b: RouterId, delay: SimDuration| LinkSpec::new(a, b, 1e6, delay);

    let (w, h) = (7, 6);
    let mut torus = NetworkSpec::new(w * h);
    for y in 0..h {
        for x in 0..w {
            torus.add_link(link(y * w + x, y * w + (x + 1) % w, hop));
            torus.add_link(link(y * w + x, ((y + 1) % h) * w + x, hop));
            torus.attach(y * w + x);
        }
    }

    let (rings, len) = (5, 6);
    let mut ring_of_rings = NetworkSpec::new(2 * rings * len);
    for r in 0..rings {
        // Router `r * len` is ring `r`'s hub on the core ring.
        ring_of_rings.add_link(link(r * len, ((r + 1) % rings) * len, hop));
        for i in 0..len {
            let leaf = rings * len + r * len + i;
            ring_of_rings.add_link(link(r * len + i, r * len + (i + 1) % len, hop));
            ring_of_rings.add_link(link(r * len + i, leaf, hop));
            ring_of_rings.attach(leaf);
        }
    }

    let side = 6;
    let far = side * side;
    let mut far_source = NetworkSpec::new(far + 1);
    for y in 0..side {
        for x in 0..side {
            if x + 1 < side {
                far_source.add_link(link(y * side + x, y * side + x + 1, hop));
            }
            if y + 1 < side {
                far_source.add_link(link(y * side + x, (y + 1) * side + x, hop));
            }
            far_source.attach(y * side + x);
        }
        far_source.add_link(link(far, y * side, SimDuration::from_millis(50)));
    }
    far_source.attach(far);

    vec![
        ("torus7x6", torus),
        ("ring-of-rings", ring_of_rings),
        ("far-source", far_source),
    ]
}

fn check_strategy_invariants(eager: &Network, bidi: &Network, alt: &Network, label: &str) {
    let e = eager.routing_stats();
    assert_eq!(e.lazy_searches, 0, "{label}: reference ran lazy searches");
    let b = bidi.routing_stats();
    assert_eq!(b.trees_built, 0, "{label}: lazy router built SPT trees");
    let g = alt.routing_stats();
    assert_eq!(g.trees_built, 0, "{label}: ALT router built SPT trees");
    // The comparison must not be vacuous: each strategy must actually have
    // run its claimed algorithm on the pairs it was handed.
    if e.route_queries > 0 {
        assert!(e.trees_built > 0, "{label}: reference built no trees");
        assert!(b.lazy_searches > 0, "{label}: bidi ran no searches");
        assert!(b.routers_settled > 0, "{label}: bidi settled nothing");
        assert!(g.lazy_searches > 0, "{label}: ALT ran no searches");
        assert!(g.landmarks > 0, "{label}: ALT router holds no landmarks");
    }
}

/// One scripted topology mutation, applied identically to a live
/// [`Network`] (incremental, epoch-invalidated path) and to a
/// [`NetworkSpec`] (from which a fresh network is rebuilt for comparison).
#[derive(Clone, Copy, Debug)]
pub enum TopoMutation {
    /// Set a physical link's capacity (not route-affecting).
    Bandwidth(usize, f64),
    /// Set a physical link's loss probability (not route-affecting).
    Loss(usize, f64),
    /// Set a physical link's propagation delay (route-affecting).
    Delay(usize, SimDuration),
    /// Take a physical link up/down (route-affecting).
    LinkUp(usize, bool),
    /// Take every link of a router up/down (route-affecting).
    RouterUp(RouterId, bool),
}

impl TopoMutation {
    fn apply_to_network(self, net: &mut Network) {
        match self {
            TopoMutation::Bandwidth(link, bps) => net.set_link_bandwidth(link, bps),
            TopoMutation::Loss(link, loss) => net.set_link_loss(link, loss),
            TopoMutation::Delay(link, delay) => net.set_link_delay(link, delay),
            TopoMutation::LinkUp(link, up) => net.set_link_up(link, up),
            TopoMutation::RouterUp(router, up) => net.set_router_up(router, up),
        }
    }

    fn apply_to_spec(self, spec: &mut NetworkSpec) {
        match self {
            TopoMutation::Bandwidth(link, bps) => spec.set_link_bandwidth(link, bps),
            TopoMutation::Loss(link, loss) => spec.set_link_loss(link, loss),
            TopoMutation::Delay(link, delay) => spec.set_link_delay(link, delay),
            TopoMutation::LinkUp(link, up) => spec.set_link_up(link, up),
            TopoMutation::RouterUp(router, up) => spec.set_router_up(router, up),
        }
    }
}

/// The mutation gate of the scenario-dynamics engine: after **each** step
/// of `mutations`, every ordered participant-pair route served by the
/// incrementally invalidated networks (all three strategies) and every row
/// tree read off the patched graph must be bit-identical to a *freshly
/// rebuilt* eager network on the mutated spec — and the incremental
/// networks' link state (capacity, loss, delay, up) must match the rebuilt
/// one's too.
///
/// Every pairwise network is warmed with a full all-pairs sweep before the
/// first mutation so that stale caches, memo rows and router workspaces
/// actually exist to be invalidated. A row tree is a snapshot that nothing
/// repairs, so the rows are built afresh after every step.
pub fn assert_mutation_equivalence(spec: &NetworkSpec, mutations: &[TopoMutation], label: &str) {
    let (mut eager, mut bidi, mut alt) = networks(spec);
    let mut rows = row_network(spec);
    let n = spec.participants();
    let sources: Vec<usize> = (0..n).collect();
    let warm = |net: &mut Network| {
        for a in 0..n {
            for b in 0..n {
                let _ = net.route(a, b);
            }
        }
    };
    for net in [&mut eager, &mut bidi, &mut alt] {
        warm(net);
    }
    let mut mutated_spec = spec.clone();
    for (step, &mutation) in mutations.iter().enumerate() {
        mutation.apply_to_spec(&mut mutated_spec);
        for net in [&mut eager, &mut bidi, &mut alt, &mut rows] {
            mutation.apply_to_network(net);
        }
        let mut fresh = Network::with_routing(&mutated_spec, RoutingMode::EagerPerSource);
        for (a, row) in rows.row_trees(&sources).iter().enumerate() {
            for b in (0..n).filter(|&b| b != a) {
                let reference = path(&mut fresh, a, b);
                let ctx = format!("{label}: step {step} ({mutation:?}): {a}->{b}");
                assert_eq!(
                    reference,
                    path(&mut eager, a, b),
                    "{ctx}: incremental eager"
                );
                assert_eq!(reference, path(&mut bidi, a, b), "{ctx}: incremental bidi");
                assert_eq!(reference, path(&mut alt, a, b), "{ctx}: incremental alt");
                assert_eq!(reference, row_path(row, b), "{ctx}: patched row tree");
            }
        }
        // Link state followed the mutation on every incremental network.
        for id in 0..fresh.directed_links() {
            for (net, name) in [(&eager, "eager"), (&bidi, "bidi"), (&alt, "alt")] {
                let ctx = format!("{label}: step {step} ({mutation:?}): link {id} on {name}");
                assert_eq!(net.link(id), fresh.link(id), "{ctx}: parameters");
                assert_eq!(net.link_up(id), fresh.link_up(id), "{ctx}: up");
            }
        }
    }
    // Route-affecting mutations (and only those) moved the epoch.
    let route_affecting = mutations
        .iter()
        .filter(|m| {
            matches!(
                m,
                TopoMutation::Delay(..) | TopoMutation::LinkUp(..) | TopoMutation::RouterUp(..)
            )
        })
        .count() as u64;
    assert!(
        eager.repair_stats().route_mutations <= route_affecting,
        "{label}: {} route mutations counted for {} route-affecting ones",
        eager.repair_stats().route_mutations,
        route_affecting
    );
    if route_affecting > 0 {
        assert!(
            eager.repair_stats().route_mutations > 0,
            "{label}: no route mutation counted"
        );
    }
}

/// Randomized mutation-sequence equivalence fuzzer for incremental route
/// repair: drives `steps` seeded random mutations — bandwidth, loss, delay
/// raises/lowers, exact-restore delay oscillations, link toggles, no-op
/// re-asserts, correlated router outages and heals — over `spec`, and after
/// **every** step asserts that all incrementally repaired networks (the
/// three strategies) and the row trees of the patched graph serve routes
/// bit-identical to a network freshly built on the mutated spec.
///
/// After the random phase, a deterministic heal epilogue restores every
/// downed router and link and every changed delay (plus one raise/restore
/// oscillation), so every run is guaranteed to exercise the improving-
/// mutation machinery — landmark admissibility checks, the lower-bound
/// survival filter, unreachable-pair reopening — regardless of seed.
///
/// The closing asserts make sure the fuzz run actually exercised the repair
/// machinery (route-affecting mutations and ALT admissibility checks > 0).
pub fn assert_incremental_equivalence(spec: &NetworkSpec, seed: u64, steps: usize, label: &str) {
    let mut rng = SimRng::new(seed);
    let (mut eager, mut bidi, mut alt) = networks(spec);
    let mut rows = row_network(spec);
    let n = spec.participants();
    // Warm every cache layer so there is real state to invalidate.
    for a in 0..n {
        for b in 0..n {
            for net in [&mut eager, &mut bidi, &mut alt] {
                let _ = net.route(a, b);
            }
        }
    }
    // Applies one mutation to the spec and every network under test, then
    // checks every ordered participant pair against a network freshly built
    // on the mutated spec.
    #[allow(clippy::too_many_arguments)]
    fn apply_and_verify(
        mutation: TopoMutation,
        mutated_spec: &mut NetworkSpec,
        eager: &mut Network,
        bidi: &mut Network,
        alt: &mut Network,
        rows: &mut Network,
        n: usize,
        step_label: &str,
    ) {
        mutation.apply_to_spec(mutated_spec);
        for net in [&mut *eager, &mut *bidi, &mut *alt, &mut *rows] {
            mutation.apply_to_network(net);
        }
        // Ground truth: a network freshly built on the mutated spec.
        let mut fresh = Network::with_routing(mutated_spec, RoutingMode::EagerPerSource);
        let sources: Vec<usize> = (0..n).collect();
        for (a, row) in rows.row_trees(&sources).iter().enumerate() {
            for b in (0..n).filter(|&b| b != a) {
                let reference = path(&mut fresh, a, b);
                let ctx = format!("{step_label} ({mutation:?}): {a}->{b}");
                assert_eq!(reference, path(eager, a, b), "{ctx}: incremental eager");
                assert_eq!(reference, path(bidi, a, b), "{ctx}: incremental bidi");
                assert_eq!(reference, path(alt, a, b), "{ctx}: incremental alt");
                assert_eq!(reference, row_path(row, b), "{ctx}: patched row tree");
                if reference.is_some() {
                    assert_eq!(
                        fresh.propagation_delay(a, b),
                        alt.propagation_delay(a, b),
                        "{ctx}: ALT cost diverges"
                    );
                }
            }
        }
    }
    let mut mutated_spec = spec.clone();
    let links = mutated_spec.links.len();
    let original_delays: Vec<SimDuration> =
        mutated_spec.links.iter().map(|link| link.delay).collect();
    let mut downed_routers: Vec<RouterId> = Vec::new();
    for step in 0..steps {
        let mutation = loop {
            match rng.range_usize(0, 8) {
                0 => {
                    break TopoMutation::Bandwidth(
                        rng.range_usize(0, links),
                        rng.range_f64(1e6, 20e6),
                    )
                }
                1 => break TopoMutation::Loss(rng.range_usize(0, links), rng.range_f64(0.0, 0.3)),
                // A delay move in either direction (including onto a down
                // link, where it must stay metadata-only until the heal).
                2 => {
                    break TopoMutation::Delay(
                        rng.range_usize(0, links),
                        SimDuration::from_micros(500 + rng.next_below(59_500)),
                    )
                }
                // Exact-restore oscillation: landmark repair must cost zero.
                3 => {
                    let link = rng.range_usize(0, links);
                    break TopoMutation::Delay(link, original_delays[link]);
                }
                4 => {
                    let link = rng.range_usize(0, links);
                    break TopoMutation::LinkUp(link, !mutated_spec.links[link].up);
                }
                // Re-asserting the current state must be a complete no-op.
                5 => {
                    let link = rng.range_usize(0, links);
                    break TopoMutation::LinkUp(link, mutated_spec.links[link].up);
                }
                // A correlated outage of any router — stub or transit.
                6 => {
                    if downed_routers.len() >= 2 {
                        continue;
                    }
                    let router = rng.range_usize(0, mutated_spec.routers);
                    if downed_routers.contains(&router) {
                        continue;
                    }
                    downed_routers.push(router);
                    break TopoMutation::RouterUp(router, false);
                }
                _ => {
                    if downed_routers.is_empty() {
                        continue;
                    }
                    let i = rng.range_usize(0, downed_routers.len());
                    break TopoMutation::RouterUp(downed_routers.swap_remove(i), true);
                }
            }
        };
        apply_and_verify(
            mutation,
            &mut mutated_spec,
            &mut eager,
            &mut bidi,
            &mut alt,
            &mut rows,
            n,
            &format!("{label}: step {step}"),
        );
    }
    // Deterministic heal epilogue: bring every downed router and link back
    // up, restore every changed delay, and finish with one raise/restore
    // oscillation — so every seed exercises edge additions and cost lowers
    // (the improving-mutation machinery) no matter what the random phase
    // happened to draw.
    let mut epilogue: Vec<TopoMutation> = Vec::new();
    for router in downed_routers.drain(..) {
        epilogue.push(TopoMutation::RouterUp(router, true));
    }
    for (link, state) in mutated_spec.links.iter().enumerate() {
        if !state.up {
            epilogue.push(TopoMutation::LinkUp(link, true));
        }
    }
    for (link, &original) in original_delays.iter().enumerate() {
        if mutated_spec.links[link].delay != original {
            epilogue.push(TopoMutation::Delay(link, original));
        }
    }
    epilogue.push(TopoMutation::Delay(
        0,
        original_delays[0] + SimDuration::from_millis(50),
    ));
    epilogue.push(TopoMutation::Delay(0, original_delays[0]));
    for (step, mutation) in epilogue.into_iter().enumerate() {
        apply_and_verify(
            mutation,
            &mut mutated_spec,
            &mut eager,
            &mut bidi,
            &mut alt,
            &mut rows,
            n,
            &format!("{label}: heal step {step}"),
        );
    }
    // The run must have exercised the machinery it gates.
    let rs = alt.repair_stats();
    assert!(
        rs.route_mutations > 0,
        "{label}: fuzz produced no route-affecting mutations"
    );
    assert!(
        rs.landmark_checks > 0,
        "{label}: fuzz produced no improving mutations (no ALT admissibility checks ran)"
    );
}

/// A row network runs one whole-graph search per row it was asked for and
/// nothing else: no cached trees, no point searches, no memo misses.
fn check_row_invariants(rows: &Network, built: usize, label: &str) {
    let s = rows.routing_stats();
    assert_eq!(
        (
            s.trees_built,
            s.lazy_searches,
            s.routers_settled,
            s.route_queries
        ),
        (0, 0, 0, 0),
        "{label}: the row network ran more than row searches"
    );
    assert_eq!(
        s.batched_queries, built as u64,
        "{label}: one search per row tree"
    );
}
