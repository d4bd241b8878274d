//! The emulated physical network.
//!
//! A [`Network`] owns the directed links, the routing state, and the mapping
//! from overlay participants to the router they are attached to. The
//! simulator asks it to route packets hop by hop; the network applies each
//! link's queueing, loss, and delay and reports when (and whether) the packet
//! reaches the next hop.

use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::link::{routing_cost, DirectedLink, DirectedLinkId, HopOutcome, LinkSpec, RouterId};
use crate::rng::SimRng;
use crate::routing::{
    edge_cost, select_landmarks, Adjacency, LazyRouter, RoutingMode, ShortestPaths,
};
use crate::time::{SimDuration, SimTime};

/// Best ALT lower bound on `dist(a, b)` over the landmark tables (raw cost
/// units): `max_L |d_L(a) − d_L(b)|`, by the triangle inequality on each
/// table's per-edge-consistent entries. Zero — the trivial bound — with no
/// tables or when a landmark reaches only one of the two routers.
fn landmark_lb(tables: &[Vec<u32>], a: RouterId, b: RouterId) -> u64 {
    let mut best = 0;
    for table in tables {
        let (da, db) = (table[a], table[b]);
        if da == u32::MAX || db == u32::MAX {
            continue;
        }
        best = best.max(da.abs_diff(db));
    }
    u64::from(best)
}

/// The router, if there is one, whose in- and out-edges in the patched
/// `adjacency` are exactly the `improved` edges of a mutation — what
/// [`Network::set_router_up`]`(r, true)` produces, or a cost drop on a leaf
/// router's only link. Any path through an improved edge then passes through
/// that router, and any path through the router (between two distinct ends)
/// crosses an improved edge, so the incremental repair filters routes through
/// the router instead of through each edge. `improved` holds distinct
/// directed links, all present in `adjacency`, so covering every edge of the
/// router is a matter of counting.
fn healed_router(
    adjacency: &Adjacency,
    improved: &[(RouterId, RouterId, u64)],
) -> Option<RouterId> {
    let &(a, b, _) = improved.first()?;
    [a, b].into_iter().find(|&r| {
        improved.iter().all(|&(u, v, _)| u == r || v == r)
            && adjacency.neighbors(r).len() + adjacency.in_neighbors(r).len() == improved.len()
    })
}

/// Identifier of an overlay participant (an end host running a protocol
/// agent), as opposed to a [`RouterId`] in the physical topology.
pub type OverlayId = usize;

/// Static description of the physical network handed to the simulator.
#[derive(Clone, Debug, Default)]
pub struct NetworkSpec {
    /// Number of physical routers.
    pub routers: usize,
    /// Bidirectional physical links.
    pub links: Vec<LinkSpec>,
    /// For each overlay participant, the router it is attached to.
    pub attachments: Vec<RouterId>,
}

impl NetworkSpec {
    /// Creates an empty spec with `routers` physical nodes.
    pub fn new(routers: usize) -> Self {
        NetworkSpec {
            routers,
            links: Vec::new(),
            attachments: Vec::new(),
        }
    }

    /// Adds a bidirectional link and returns its index.
    pub fn add_link(&mut self, spec: LinkSpec) -> usize {
        self.links.push(spec);
        self.links.len() - 1
    }

    /// Attaches a new overlay participant to `router`, returning its id.
    pub fn attach(&mut self, router: RouterId) -> OverlayId {
        self.attachments.push(router);
        self.attachments.len() - 1
    }

    /// Number of overlay participants.
    pub fn participants(&self) -> usize {
        self.attachments.len()
    }

    /// Sets the capacity of physical link `index` (both directions).
    ///
    /// The spec-side mutators mirror the live [`Network`] mutation API so the
    /// routing-equivalence harness can rebuild a fresh network from the
    /// mutated spec and compare it against the incrementally invalidated one.
    pub fn set_link_bandwidth(&mut self, index: usize, bandwidth_bps: f64) {
        self.links[index].bandwidth_bps = bandwidth_bps;
    }

    /// Sets the random loss probability of physical link `index`.
    pub fn set_link_loss(&mut self, index: usize, loss: f64) {
        self.links[index].loss = loss;
    }

    /// Sets the propagation delay of physical link `index`.
    pub fn set_link_delay(&mut self, index: usize, delay: crate::time::SimDuration) {
        self.links[index].delay = delay;
    }

    /// Sets the administrative state of physical link `index`.
    pub fn set_link_up(&mut self, index: usize, up: bool) {
        self.links[index].up = up;
    }

    /// Sets the administrative state of every physical link incident to
    /// `router` (a correlated stub outage).
    pub fn set_router_up(&mut self, router: RouterId, up: bool) {
        for link in &mut self.links {
            if link.a == router || link.b == router {
                link.up = up;
            }
        }
    }
}

/// Aggregate link-stress statistics for traced packets (paper §4.2).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StressStats {
    /// Mean, over traced packets, of the average number of copies crossing
    /// each physical link that carried the packet at least once.
    pub mean: f64,
    /// Largest number of copies of a single traced packet observed on any
    /// single physical link.
    pub max: u64,
    /// Number of traced packets that contributed to the statistics.
    pub traced_packets: usize,
}

/// Handle to an interned route in a [`Network`]'s route arena.
///
/// A route is interned when a participant pair is first routed (and again
/// when a topology mutation invalidates it) and lives for the lifetime of
/// the network, so a `RouteId` is a stable, `Copy` 4-byte handle the
/// simulator can store in in-flight messages instead of an owned link vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RouteId(u32);

impl RouteId {
    /// The reserved empty route used when both participants share an
    /// attachment router (loopback delivery; crosses no modelled link).
    pub const EMPTY: RouteId = RouteId(0);
}

/// Append-only arena of interned routes: one flat buffer of 4-byte link ids
/// plus `(start, len)` spans indexed by [`RouteId`], and the repair metadata
/// incremental invalidation needs — per-route endpoints, cost and a stale
/// flag.
///
/// Nothing indexes routes by link: a repair finds the live routes that
/// cross a changed link in the same pass over [`RouteArena::live`] that runs
/// the improving filter (see `Network::apply_route_mutation`).
#[derive(Clone, Debug)]
struct RouteArena {
    links: Vec<u32>,
    spans: Vec<(u32, u32)>,
    /// `(source router, destination router)` per route.
    ends: Vec<(u32, u32)>,
    /// Canonical path cost (raw, unscaled units) per route at intern time —
    /// still current for every live route, because any mutation of a link on
    /// the route marks it stale first.
    cost: Vec<u64>,
    /// A stale route has been superseded; its links stay readable for
    /// in-flight packets, but repair skips it.
    stale: Vec<bool>,
}

impl RouteArena {
    fn new() -> Self {
        RouteArena {
            links: Vec::new(),
            // Slot 0 is the reserved empty route (RouteId::EMPTY).
            spans: vec![(0, 0)],
            ends: vec![(0, 0)],
            cost: vec![0],
            stale: vec![false],
        }
    }

    /// Interns `path`. Router and link ids fit in a `u32`: the
    /// [`Adjacency`] every path is read off checks them when it is built.
    fn intern(
        &mut self,
        path: &[DirectedLinkId],
        src: RouterId,
        dst: RouterId,
        cost: u64,
    ) -> RouteId {
        // Stay clear of the route-memo sentinels (u32::MAX and u32::MAX - 1).
        assert!(
            self.spans.len() < (u32::MAX - 2) as usize,
            "route arena exhausted"
        );
        let start = u32::try_from(self.links.len()).expect("route arena offset fits in u32");
        self.links.extend(path.iter().map(|&link| link as u32));
        self.spans.push((start, path.len() as u32));
        self.ends.push((src as u32, dst as u32));
        self.cost.push(cost);
        self.stale.push(false);
        RouteId((self.spans.len() - 1) as u32)
    }

    #[inline]
    fn links(&self, id: RouteId) -> &[u32] {
        let (start, len) = self.spans[id.0 as usize];
        &self.links[start as usize..start as usize + len as usize]
    }

    #[inline]
    fn ends(&self, raw: u32) -> (RouterId, RouterId) {
        let (src, dst) = self.ends[raw as usize];
        (src as RouterId, dst as RouterId)
    }

    #[inline]
    fn cost(&self, raw: u32) -> u64 {
        self.cost[raw as usize]
    }

    #[inline]
    fn mark_stale(&mut self, raw: u32) {
        self.stale[raw as usize] = true;
    }

    /// The live routes (slot 0, the empty route, has no router pair to
    /// repair and is not one of them).
    fn live(&self) -> impl Iterator<Item = u32> + '_ {
        (1..self.spans.len() as u32).filter(|&raw| !self.stale[raw as usize])
    }
}

/// Flat `participants × participants` route-memo table: the one lookup in
/// front of the [`RouteArena`].
///
/// A hit on the simulator's per-send hot path is one multiply-add and a
/// 4-byte load, and the batched oracle path ([`Network::route_all_from`])
/// records whole rows of routes in it at once. The table is `n²` 4-byte
/// entries with no cap — 4 MB at the paper's 1,000 participants. Entries are
/// `RouteId` raw values with two sentinels.
#[derive(Clone, Debug)]
struct RouteMemo {
    n: usize,
    table: Vec<u32>,
    /// Pairs currently memoized [`RouteMemo::UNREACHABLE`]. Incremental
    /// repair clears exactly these on an improving mutation (an improvement
    /// can connect pairs, and a pair with no route has no interned route for
    /// the repair pass to find);
    /// the list is bounded by the table and emptied by every clear.
    unreachable: Vec<(u32, u32)>,
}

impl RouteMemo {
    /// The pair has not been routed yet.
    const UNKNOWN: u32 = u32::MAX;
    /// The destination is unreachable (memoized negative result).
    const UNREACHABLE: u32 = u32::MAX - 1;

    fn new(n: usize) -> Self {
        RouteMemo {
            n,
            table: vec![Self::UNKNOWN; n * n],
            unreachable: Vec::new(),
        }
    }

    #[inline]
    fn get(&self, from: OverlayId, to: OverlayId) -> u32 {
        self.table[from * self.n + to]
    }

    #[inline]
    fn set(&mut self, from: OverlayId, to: OverlayId, route: Option<RouteId>) {
        self.table[from * self.n + to] = match route {
            Some(id) => id.0,
            None => {
                self.unreachable.push((from as u32, to as u32));
                Self::UNREACHABLE
            }
        };
    }

    /// Clears every `from × to` participant pair (the memo rows/cells of one
    /// invalidated router pair), returning how many memoized cells were
    /// dropped.
    fn clear_pairs(&mut self, from: &[u32], to: &[u32]) -> u64 {
        let mut cleared = 0;
        for &f in from {
            let row = f as usize * self.n;
            for &t in to {
                let cell = &mut self.table[row + t as usize];
                if *cell != Self::UNKNOWN {
                    *cell = Self::UNKNOWN;
                    cleared += 1;
                }
            }
        }
        cleared
    }

    /// Clears every memoized-unreachable pair (improving mutation),
    /// returning how many cells were reopened.
    fn clear_unreachable(&mut self) -> u64 {
        let mut cleared = 0;
        for (f, t) in std::mem::take(&mut self.unreachable) {
            let cell = &mut self.table[f as usize * self.n + t as usize];
            // A pair cleared earlier (e.g. by `clear_pairs`) may have been
            // re-memoized as a real route since; only drop true negatives.
            if *cell == Self::UNREACHABLE {
                *cell = Self::UNKNOWN;
                cleared += 1;
            }
        }
        cleared
    }
}

/// The route computation strategy behind [`Network::route`]. All variants
/// return the same canonical paths (see `routing` module docs); they differ
/// only in how much work a memo-missing query costs and what is kept
/// resident.
enum RouteComputer {
    /// Cached full shortest-path trees, one per source router: one 4-byte
    /// predecessor link per router.
    Eager {
        trees: FxHashMap<RouterId, ShortestPaths>,
        trees_built: u64,
    },
    /// Lazy bidirectional, landmark-guided point-to-point search; nothing
    /// per-source is kept. Boxed: the router's workspace is much larger
    /// than the eager variant's two fields.
    Lazy(Box<LazyRouter>),
}

/// Counters describing the routing work a [`Network`] has done. Exposed so
/// tests and benchmarks can prove that paper-scale runs never build
/// per-source shortest-path trees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingStats {
    /// The mode the network routes with.
    pub mode: RoutingMode,
    /// Route computations (route-memo misses); memo hits are not counted.
    /// Pairs computed by a batched row fill count individually.
    pub route_queries: u64,
    /// Whole-graph row fills run ([`Network::route_all_from`]), in either
    /// mode.
    pub batched_queries: u64,
    /// Per-source Dijkstra trees the eager mode built and *cached*. The tree
    /// a lazy-mode row fill runs is dropped when the row is done and is
    /// counted by `batched_queries` alone.
    pub trees_built: u64,
    /// Lazy point-to-point searches run.
    pub lazy_searches: u64,
    /// Routers settled across all lazy searches.
    pub routers_settled: u64,
    /// Landmark tables held by the lazy router.
    pub landmarks: usize,
}

/// How a [`Network`] absorbs a route-affecting topology mutation. There is
/// one way — see [`Network::set_repair_mode`] for why the name is still
/// here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepairMode {
    /// Affected-region repair: only routes a mutation can change are
    /// invalidated, ALT landmark tables are kept and re-validated, and
    /// lazy-router workspaces survive untouched.
    #[default]
    Incremental,
}

/// Counters describing the route-repair work a [`Network`] has done across
/// topology mutations. Exposed so tests can pin partial-invalidation
/// behavior (e.g. a loss change clears nothing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Route-affecting mutations applied (epoch bumps).
    pub route_mutations: u64,
    /// Routes invalidated by affected-region repair.
    pub routes_invalidated: u64,
    /// Cached routes that survived an improving mutation because the exact
    /// distance filter proved no shorter-or-equal path can run through any
    /// improved edge.
    pub routes_kept: u64,
    /// Exact distance tables (targeted Dijkstras on the patched graph)
    /// computed by the improving-edge filter — the dominant repair cost, a
    /// handful per improving mutation.
    pub filter_tables: u64,
    /// Participant-memo cells cleared by partial invalidation.
    pub memo_cells_cleared: u64,
    /// Memoized-unreachable pairs reopened by improving mutations.
    pub unreachable_cleared: u64,
    /// Landmark tables checked for admissibility after improving mutations.
    pub landmark_checks: u64,
    /// Landmark tables whose admissibility check failed and were repaired.
    pub landmark_repairs: u64,
    /// Landmark table entries lowered across all repairs.
    pub landmark_nodes_lowered: u64,
}

/// The graph-level effect of one directed-link change, as classified by the
/// mutators: what incremental repair needs to know.
#[derive(Clone, Copy, Debug)]
enum EdgeChange {
    /// The edge left the graph (link or router down).
    Removed,
    /// The edge joined the graph (link or router back up), at its current
    /// cost.
    Added,
    /// The edge's cost changed in place; `lowered` classifies the mutation
    /// as improving (more pairs may connect or get cheaper) or worsening.
    Cost { new_cost: u64, lowered: bool },
}

/// Per-trace aggregate maintained incrementally as traced copies cross
/// links.
#[derive(Clone, Copy, Debug, Default)]
struct TraceAgg {
    /// Distinct links this traced packet has crossed at least once.
    links: u64,
    /// Total copies of the packet summed over those links.
    copies: u64,
}

/// The immutable, shareable half of a [`Network`]: the routing adjacency
/// and the ALT landmark distance tables, both pure functions of a
/// [`NetworkSpec`] and a [`RoutingMode`].
///
/// Building these is the expensive part of network construction at paper
/// scale (the landmark tables alone are several full-graph Dijkstras over
/// 20k routers), yet every run over the same topology needs identical
/// copies. A parallel experiment harness therefore builds one `NetworkSetup`
/// per topology class and hands each run a cheap mutable view via
/// [`Network::with_setup`]; the `Arc`s inside are shared across worker
/// threads. [`Network::new`] builds a setup of its own the same way, so a
/// shared view routes bit-identically to it (asserted by
/// `shared_setup_matches_per_run_construction` in this module's tests and by
/// the experiments-crate gates).
#[derive(Clone, Debug)]
pub struct NetworkSetup {
    routers: usize,
    /// Physical (spec) link count the adjacency was built over; checked
    /// against the spec on every [`Network::with_setup`] so a stale setup
    /// cannot silently mis-index a different link table.
    spec_links: usize,
    mode: RoutingMode,
    adjacency: Arc<Adjacency>,
    /// Landmark distance tables ([`RoutingMode::LazyAlt`] only; empty
    /// otherwise).
    landmarks: Arc<Vec<Vec<u32>>>,
}

impl NetworkSetup {
    /// Builds the shared setup for `spec`, picking the routing mode from
    /// the topology size exactly like [`Network::new`] does.
    pub fn new(spec: &NetworkSpec) -> Self {
        Self::with_routing(spec, RoutingMode::auto(spec.routers))
    }

    /// Builds the shared setup for `spec` with an explicit routing mode.
    pub fn with_routing(spec: &NetworkSpec, mode: RoutingMode) -> Self {
        // Every directed link gets a slot, so a link that is down now can
        // come back up in place.
        let links = spec.links.iter().enumerate().flat_map(|(i, link)| {
            let ((fwd, rev), cost) = (Network::directed_ids(i), routing_cost(link.delay));
            [
                (link.a, link.b, fwd, cost, link.up),
                (link.b, link.a, rev, cost, link.up),
            ]
        });
        let adjacency = Arc::new(Adjacency::new(spec.routers, links));
        let landmarks = match mode {
            RoutingMode::LazyAlt { landmarks } => Arc::new(select_landmarks(&adjacency, landmarks)),
            RoutingMode::EagerPerSource => Arc::new(Vec::new()),
        };
        NetworkSetup {
            routers: spec.routers,
            spec_links: spec.links.len(),
            mode,
            adjacency,
            landmarks,
        }
    }

    /// The routing mode this setup was built for.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// Number of physical routers the setup covers.
    pub fn routers(&self) -> usize {
        self.routers
    }
}

/// The live network: directed links plus routing and tracing state.
pub struct Network {
    links: Vec<DirectedLink>,
    /// Routing adjacency. Shared with the originating [`NetworkSetup`] (and
    /// sibling runs) until a topology mutation patches this network's
    /// private copy (clone-on-write).
    adjacency: Arc<Adjacency>,
    attachments: Vec<RouterId>,
    /// Route computation strategy (eager per-source trees or lazy search).
    mode: RoutingMode,
    computer: RouteComputer,
    /// Route computations performed (route-memo misses).
    route_queries: u64,
    /// Interned routes; steady-state sends never allocate or copy a path.
    routes: RouteArena,
    /// Flat participant-pair route memo (see [`RouteMemo`]).
    memo: RouteMemo,
    /// Scratch for a path read off a [`ShortestPaths`] tree on its way into
    /// the arena.
    path_buf: Vec<DirectedLinkId>,
    /// Row fills performed (see [`Network::route_all_from`]).
    batched_queries: u64,
    /// Copies per trace id, for each directed link that has carried a traced
    /// copy. Only a sample of packets is traced, so most links never get an
    /// entry; and each link's map grows on its own, never one big table.
    link_traces: FxHashMap<DirectedLinkId, FxHashMap<u64, u64>>,
    /// Per-trace aggregates, updated incrementally on every traced hop.
    trace_aggs: FxHashMap<u64, TraceAgg>,
    /// Running sum over traces of (copies / distinct links), kept in sync
    /// with `trace_aggs` so [`Network::stress_stats`] is O(1).
    stress_ratio_sum: f64,
    /// Largest per-(trace, link) copy count seen so far.
    stress_max: u64,
    /// Bytes accepted across all links (see [`Network::offer_hop`]).
    bytes_sent: u64,
    /// Bumped by every route-affecting topology mutation. Epoch `e` routes
    /// in the arena stay valid for flights already in the air, but the
    /// participant memo and the router workspaces only ever serve the
    /// current epoch.
    topology_epoch: u64,
    /// Repair work counters (see [`RepairStats`]).
    repair: RepairStats,
    /// Overlay participants attached to each router, for partial memo
    /// invalidation: an invalidated router pair `(s, d)` clears exactly the
    /// memo cells `parts(s) × parts(d)`.
    router_parts: FxHashMap<RouterId, Vec<u32>>,
}

impl Network {
    /// Builds the live network from a spec, picking the routing mode from
    /// the topology size (see [`RoutingMode::auto`]). Both modes return
    /// identical canonical routes.
    pub fn new(spec: &NetworkSpec) -> Self {
        Self::with_routing(spec, RoutingMode::auto(spec.routers))
    }

    /// Builds the live network from a spec with an explicit routing mode.
    pub fn with_routing(spec: &NetworkSpec, mode: RoutingMode) -> Self {
        Self::with_setup(spec, &NetworkSetup::with_routing(spec, mode))
    }

    /// Builds a live network over a shared [`NetworkSetup`], skipping the
    /// adjacency and landmark construction. This is the cheap per-run view a
    /// parallel harness hands each worker: link queues, route arena and the
    /// participant memo are private to this network; only the
    /// immutable setup is shared. `spec` must be the spec the setup was
    /// built from (same routers and links) — routes are then bit-identical
    /// to [`Network::with_routing`] on that spec.
    ///
    /// # Panics
    ///
    /// Panics if `spec`'s router or link count differs from what the setup
    /// was built over, or if a link names a router id that does not fit in
    /// a `u32`.
    pub fn with_setup(spec: &NetworkSpec, setup: &NetworkSetup) -> Self {
        assert_eq!(
            (spec.routers, spec.links.len()),
            (setup.routers, setup.spec_links),
            "NetworkSetup was built for a different topology"
        );
        assert!(
            (spec.links.iter()).all(|link| link.a.max(link.b) <= u32::MAX as usize),
            "router ids fit in a u32"
        );
        let mut links = Vec::with_capacity(2 * spec.links.len());
        for link in &spec.links {
            links.extend([false, true].map(|reverse| DirectedLink::from_spec(link, reverse)));
        }
        let adjacency = setup.adjacency.clone();
        let mode = setup.mode;
        let computer = match mode {
            RoutingMode::EagerPerSource => RouteComputer::Eager {
                trees: FxHashMap::default(),
                trees_built: 0,
            },
            RoutingMode::LazyAlt { .. } => RouteComputer::Lazy(Box::new(
                LazyRouter::with_landmarks(&adjacency, setup.landmarks.clone()),
            )),
        };
        let mut router_parts: FxHashMap<RouterId, Vec<u32>> = FxHashMap::default();
        for (p, &r) in spec.attachments.iter().enumerate() {
            router_parts.entry(r).or_default().push(p as u32);
        }
        Network {
            links,
            adjacency,
            attachments: spec.attachments.clone(),
            mode,
            computer,
            route_queries: 0,
            routes: RouteArena::new(),
            memo: RouteMemo::new(spec.attachments.len()),
            path_buf: Vec::new(),
            batched_queries: 0,
            link_traces: FxHashMap::default(),
            trace_aggs: FxHashMap::default(),
            stress_ratio_sum: 0.0,
            stress_max: 0,
            bytes_sent: 0,
            topology_epoch: 0,
            repair: RepairStats::default(),
            router_parts,
        }
    }

    /// Number of overlay participants.
    pub fn participants(&self) -> usize {
        self.attachments.len()
    }

    /// Number of physical routers.
    pub fn routers(&self) -> usize {
        self.adjacency.len()
    }

    /// Read-only view of a directed link.
    pub fn link(&self, id: DirectedLinkId) -> &DirectedLink {
        &self.links[id]
    }

    /// All directed links.
    pub fn links(&self) -> &[DirectedLink] {
        &self.links
    }

    /// The interned route between two overlay participants.
    ///
    /// Returns [`RouteId::EMPTY`] when both participants share an attachment
    /// router, and `None` when the destination is unreachable. After the
    /// first lookup for a participant pair the route is served from the flat
    /// route-memo table with no allocation or path copy — this is the
    /// simulator's per-send hot path. A miss runs one point-to-point
    /// computation in the network's [`RoutingMode`].
    pub fn route(&mut self, from: OverlayId, to: OverlayId) -> Option<RouteId> {
        let entry = self.memo.get(from, to);
        if entry != RouteMemo::UNKNOWN {
            return (entry != RouteMemo::UNREACHABLE).then_some(RouteId(entry));
        }
        let id = self.compute_route(from, to);
        self.memo.set(from, to, id);
        id
    }

    /// Computes and interns the route between two participants, without
    /// consulting or updating the participant memo.
    fn compute_route(&mut self, from: OverlayId, to: OverlayId) -> Option<RouteId> {
        let (src, dst) = (self.attachments[from], self.attachments[to]);
        if src == dst {
            return Some(RouteId::EMPTY);
        }
        self.route_queries += 1;
        let adjacency = &self.adjacency;
        let (path, cost): (&[DirectedLinkId], u64) = match &mut self.computer {
            RouteComputer::Eager { trees, trees_built } => {
                let sp = trees.entry(src).or_insert_with(|| {
                    *trees_built += 1;
                    ShortestPaths::compute(adjacency, src)
                });
                let cost = sp.path_into(adjacency, dst, &mut self.path_buf)?;
                (&self.path_buf, cost)
            }
            RouteComputer::Lazy(router) => {
                let (cost, path) = router.query(adjacency, src, dst)?;
                (path, cost)
            }
        };
        Some(self.routes.intern(path, src, dst, cost))
    }

    /// The interned route between two overlay participants, computing the
    /// **entire row** of routes out of `from` on a memo miss (see
    /// [`Network::route_all_from`]).
    ///
    /// This is the oracle-side lookup: offline tree constructions evaluate a
    /// candidate source against many destinations (and, over their run, the
    /// reverse pairs of every participant), so amortizing a whole row per
    /// miss turns their O(participants²) point searches into O(participants)
    /// whole-graph ones. Routes are canonical either way — bit-identical to
    /// what [`Network::route`] returns.
    pub fn route_batched(&mut self, from: OverlayId, to: OverlayId) -> Option<RouteId> {
        if self.memo.get(from, to) == RouteMemo::UNKNOWN {
            self.route_all_from(from);
        }
        let entry = self.memo.get(from, to);
        debug_assert_ne!(entry, RouteMemo::UNKNOWN, "row fill covers every pair");
        (entry != RouteMemo::UNREACHABLE).then_some(RouteId(entry))
    }

    /// Computes and memoizes the routes from `from` to **every**
    /// participant: pairs already known are kept, the rest are read off one
    /// whole-graph shortest-path tree rooted at `from`'s router — the eager
    /// mode's cached tree, or in the lazy modes a transient one, since the
    /// targets of a row span the graph and no goal-directed search prunes
    /// anything (`routing` module docs, "Row fills").
    pub fn route_all_from(&mut self, from: OverlayId) {
        let src = self.attachments[from];
        let mut pending: Vec<OverlayId> = Vec::new();
        for (t, &dst) in self.attachments.iter().enumerate() {
            if self.memo.get(from, t) != RouteMemo::UNKNOWN {
                continue;
            }
            if dst == src {
                self.memo.set(from, t, Some(RouteId::EMPTY));
            } else {
                pending.push(t);
            }
        }
        if pending.is_empty() {
            return;
        }
        self.batched_queries += 1;
        self.route_queries += pending.len() as u64;
        let adjacency = &self.adjacency;
        let transient;
        let sp = match &mut self.computer {
            RouteComputer::Eager { trees, trees_built } => trees.entry(src).or_insert_with(|| {
                *trees_built += 1;
                ShortestPaths::compute(adjacency, src)
            }),
            RouteComputer::Lazy(_) => {
                transient = ShortestPaths::compute(adjacency, src);
                &transient
            }
        };
        for t in pending {
            let dst = self.attachments[t];
            let id = (sp.path_into(adjacency, dst, &mut self.path_buf))
                .map(|cost| self.routes.intern(&self.path_buf, src, dst, cost));
            self.memo.set(from, t, id);
        }
    }

    /// Counters describing the routing work done so far. Totals accumulate
    /// across topology mutations (the route computer outlives them).
    pub fn routing_stats(&self) -> RoutingStats {
        let (trees_built, lazy_searches, routers_settled, landmarks) = match &self.computer {
            RouteComputer::Eager { trees_built, .. } => (*trees_built, 0, 0, 0),
            RouteComputer::Lazy(router) => {
                let s = router.stats();
                (0, s.searches, s.settled, s.landmarks)
            }
        };
        RoutingStats {
            mode: self.mode,
            route_queries: self.route_queries,
            batched_queries: self.batched_queries,
            trees_built,
            lazy_searches,
            routers_settled,
            landmarks,
        }
    }

    /// The topology mutation epoch: 0 for a pristine network, bumped by
    /// every route-affecting mutation ([`Network::set_link_up`],
    /// [`Network::set_link_delay`], [`Network::set_router_up`]). Capacity
    /// and loss mutations do not move it — link costs are propagation
    /// delays, so those changes cannot re-route anything — and neither do
    /// mutations with no graph effect (repeating a link's current state, or
    /// a delay change too small to move the integer-microsecond cost).
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    /// Does nothing: affected-region repair is the only way a network
    /// absorbs a mutation. The setter and the one-variant [`RepairMode`]
    /// exist only because the perf ledger (`perf/src/workloads.rs`, which
    /// product PRs may not edit) still names both; the next `benchmark` PR
    /// removes that call and then these two items.
    pub fn set_repair_mode(&mut self, _mode: RepairMode) {}

    /// Route-repair work counters (see [`RepairStats`]).
    pub fn repair_stats(&self) -> RepairStats {
        self.repair
    }

    /// The current ALT lower bound on the path cost between two overlay
    /// participants (raw cost units), or `None` when the network routes
    /// without landmarks. Introspection for the admissibility property
    /// tests: after any mutation sequence this must never exceed the true
    /// cost returned by [`Network::propagation_delay`].
    pub fn alt_lower_bound(&self, from: OverlayId, to: OverlayId) -> Option<u64> {
        match &self.computer {
            RouteComputer::Lazy(router) if !router.landmark_tables().is_empty() => {
                Some(landmark_lb(
                    router.landmark_tables(),
                    self.attachments[from],
                    self.attachments[to],
                ))
            }
            _ => None,
        }
    }

    /// Sets the capacity of physical link `index` (both directions), in bits
    /// per second. Routes are unaffected (costs are delays); oracles see the
    /// new capacity immediately because they re-read link state on every
    /// estimate.
    pub fn set_link_bandwidth(&mut self, index: usize, bandwidth_bps: f64) {
        let (fwd, rev) = Self::directed_ids(index);
        self.links[fwd].set_bandwidth(bandwidth_bps);
        self.links[rev].set_bandwidth(bandwidth_bps);
    }

    /// Sets the random loss probability of physical link `index` (both
    /// directions). Routes are unaffected.
    pub fn set_link_loss(&mut self, index: usize, loss: f64) {
        let (fwd, rev) = Self::directed_ids(index);
        self.links[fwd].loss = loss;
        self.links[rev].loss = loss;
    }

    /// Sets the propagation delay of physical link `index` (both
    /// directions). Delay is the routing cost, so this invalidates the
    /// routes crossing the link — but only when the integer-microsecond
    /// cost actually moves; a sub-microsecond wiggle is metadata-only.
    ///
    /// # Panics
    ///
    /// Panics, naming the link, if `delay` is more than `u32::MAX`
    /// microseconds (see [`LinkSpec::delay`]), whether the link is up or
    /// down.
    pub fn set_link_delay(&mut self, index: usize, delay: SimDuration) {
        let (fwd, rev) = Self::directed_ids(index);
        // The graph stores a cost in a `u32`: check before anything changes.
        edge_cost(fwd, routing_cost(delay));
        let old_cost = self.links[fwd].cost();
        self.links[fwd].delay = delay;
        self.links[rev].delay = delay;
        let new_cost = self.links[fwd].cost();
        if new_cost == old_cost {
            return;
        }
        let lowered = new_cost < old_cost;
        // A down link is not in the graph; its stored delay changes but no
        // edge does (the new cost is picked up when the link comes back up).
        let changes: Vec<(DirectedLinkId, EdgeChange)> = [fwd, rev]
            .into_iter()
            .filter(|&id| self.links[id].up)
            .map(|id| (id, EdgeChange::Cost { new_cost, lowered }))
            .collect();
        self.apply_route_mutation(changes);
    }

    /// Takes physical link `index` administratively up or down (both
    /// directions) and invalidates the routes crossing it. Packets offered
    /// to a down link are dropped ([`HopOutcome::DroppedDown`]); flights
    /// already past it continue unharmed.
    pub fn set_link_up(&mut self, index: usize, up: bool) {
        let (fwd, rev) = Self::directed_ids(index);
        let mut changes: Vec<(DirectedLinkId, EdgeChange)> = Vec::new();
        for id in [fwd, rev] {
            if self.links[id].up != up {
                self.links[id].up = up;
                changes.push((
                    id,
                    if up {
                        EdgeChange::Added
                    } else {
                        EdgeChange::Removed
                    },
                ));
            }
        }
        self.apply_route_mutation(changes);
    }

    /// Takes every physical link incident to `router` up or down — a
    /// correlated outage of a stub router and all its attachments — and
    /// invalidates the routes crossing any of them.
    pub fn set_router_up(&mut self, router: RouterId, up: bool) {
        let changes = self.router_changes(router, up);
        self.apply_route_mutation(changes);
    }

    /// Sets every directed link at `router` to `up` and returns the ones
    /// that changed, in ascending id order. The links are the router's slots
    /// in the adjacency — every directed link has one at its tail and one at
    /// its head, up or down — so this reads the router's own edges, not the
    /// whole link table.
    fn router_changes(&mut self, router: RouterId, up: bool) -> Vec<(DirectedLinkId, EdgeChange)> {
        let mut ids: Vec<DirectedLinkId> = self.adjacency.incident_links(router).collect();
        ids.sort_unstable();
        ids.dedup();
        let change = if up {
            EdgeChange::Added
        } else {
            EdgeChange::Removed
        };
        let mut changes = Vec::new();
        for id in ids {
            if self.links[id].up != up {
                self.links[id].up = up;
                changes.push((id, change));
            }
        }
        changes
    }

    /// The two directed-link ids of physical (spec) link `index`.
    pub fn directed_ids(index: usize) -> (DirectedLinkId, DirectedLinkId) {
        (2 * index, 2 * index + 1)
    }

    /// Applies a classified route-affecting mutation: bumps the epoch and
    /// repairs the affected region — instead of dumping the whole memo,
    /// identifies exactly the routes the mutation can change and moves only
    /// their memo cells to the new epoch, keeping the adjacency, the
    /// route computer and the ALT landmark tables alive. A no-op for an
    /// empty change set (the mutation had no graph effect).
    ///
    /// The interned route arena is append-only — [`RouteId`]s held by
    /// in-flight messages stay valid, so packets already launched keep
    /// following the path they were routed on, exactly like packets in the
    /// air when a real route change converges — and the next send per
    /// invalidated pair recomputes and re-interns its canonical route, so
    /// post-mutation routes are bit-identical to a freshly built network on
    /// the mutated topology.
    ///
    /// Soundness of the two invalidation rules (the fuzz harness in
    /// `tests/support/routing_equiv.rs` checks the result against a fresh
    /// build at every step):
    ///
    /// - **Worsening** changes (edge removed, cost raised) can only break
    ///   paths that *use* a changed edge, and cannot create a new shorter or
    ///   tie-winning alternative anywhere — so invalidating the live routes
    ///   that cross a changed directed link is exact: every other cached
    ///   route is still the canonical shortest path.
    /// - **Improving** changes (edge added, cost lowered) can reroute pairs
    ///   whose old route never touched a changed link. A surviving cached
    ///   route of cost `c` from `s` to `d` is still canonical iff no path
    ///   through an improved edge `(a, b)` of cost `w` ties or beats it.
    ///   The cheapest such path costs exactly `dist(s,a) + w + dist(b,d)`
    ///   on the *patched* graph, so the filter computes exact distance
    ///   tables to each improved tail and from each improved head (a few
    ///   targeted Dijkstras, deduplicated per endpoint) and keeps the route
    ///   only when that sum *strictly* exceeds `c` (a tie must invalidate —
    ///   the canonical tie-break might prefer the new path). Any strictly
    ///   better new path
    ///   must cross an improved edge, and a tying path that avoids them
    ///   already lost the tie-break when the cached route was computed, so
    ///   kept routes are provably still canonical. When the improved edges
    ///   are *all* the edges of one router `r` (a healed router), a path
    ///   crosses one of them iff it passes through `r`, so the cheapest such
    ///   path costs `dist(s,r) + dist(r,d)` and two tables decide the same
    ///   doomed set ([`healed_router`]). Improvements can also connect
    ///   previously unreachable pairs, so every memoized negative result is
    ///   reopened.
    ///
    /// Both rules run in one pass over the live routes. A route that crosses
    /// a changed link — found by a binary search of the sorted changed ids
    /// per route link — is invalidated by the worsening rule whatever the
    /// mutation's kind, since its interned cost may no longer be its cost;
    /// every other route faces the improving filter, if there is one. A
    /// route crossing several changed links is invalidated once, and clearing
    /// memo cells does not depend on order, so the pass invalidates exactly
    /// the routes the two rules name, and the repair counters count each
    /// once.
    fn apply_route_mutation(&mut self, changes: Vec<(DirectedLinkId, EdgeChange)>) {
        if changes.is_empty() {
            return;
        }
        self.topology_epoch += 1;
        self.repair.route_mutations += 1;
        // 1. Patch the adjacency in place (clone-on-write: a shared
        //    NetworkSetup and its sibling runs keep the unmutated graph).
        let mut improved: Vec<(RouterId, RouterId, u64)> = Vec::new();
        {
            let adjacency = Arc::make_mut(&mut self.adjacency);
            for &(id, change) in &changes {
                let link = &self.links[id];
                let (from, to) = (link.from as RouterId, link.to as RouterId);
                match change {
                    EdgeChange::Removed => adjacency.remove_edge(from, to, id),
                    EdgeChange::Added => {
                        let cost = link.cost();
                        adjacency.add_edge(from, to, id, cost);
                        improved.push((from, to, cost));
                    }
                    EdgeChange::Cost { new_cost, lowered } => {
                        adjacency.set_edge_cost(from, to, id, new_cost);
                        if lowered {
                            improved.push((from, to, new_cost));
                        }
                    }
                }
            }
        }
        // 2. Re-validate the ALT landmark tables *before* any lower bound is
        //    used (worsening mutations keep them admissible for free).
        if !improved.is_empty() {
            if let RouteComputer::Lazy(router) = &mut self.computer {
                let r = router.repair_landmarks(&self.adjacency, &improved);
                self.repair.landmark_checks += r.checks;
                self.repair.landmark_repairs += r.repairs;
                self.repair.landmark_nodes_lowered += r.nodes_lowered;
            }
        }
        // 3. One pass over the live routes applies both rules. A route that
        //    crosses a changed link is stale (the worsening rule, and a
        //    route's cost is only current while none of its links changed).
        //    Any other route faces the improving filter: one reverse table
        //    per distinct improved-edge tail and one forward table per
        //    distinct head, all on the patched graph — or, for a healed
        //    router `r`, just the two tables of the zero-cost pseudo-edge
        //    `r → r`. The tables are built when the first route needs them.
        let mut changed: Vec<u32> = changes.iter().map(|&(id, _)| id as u32).collect();
        changed.sort_unstable();
        let healed = healed_router(&self.adjacency, &improved).map(|r| [(r, r, 0)]);
        let crossings: &[(RouterId, RouterId, u64)] = match &healed {
            Some(through_router) => through_router,
            None => &improved,
        };
        type Tables = FxHashMap<RouterId, Vec<u64>>;
        let mut tables: Option<(Tables, Tables)> = None;
        let mut invalidated: Vec<u32> = Vec::new();
        for raw in self.routes.live() {
            let crosses = (self.routes.links(RouteId(raw)).iter())
                .any(|link| changed.binary_search(link).is_ok());
            if !crosses {
                if improved.is_empty() {
                    continue;
                }
                let (to_tail, from_head) = tables.get_or_insert_with(|| {
                    let (mut to_tail, mut from_head) = (Tables::default(), Tables::default());
                    for &(a, b, _) in crossings {
                        to_tail
                            .entry(a)
                            .or_insert_with(|| self.adjacency.distances_to(a));
                        from_head
                            .entry(b)
                            .or_insert_with(|| self.adjacency.distances_from(b));
                    }
                    (to_tail, from_head)
                });
                let (src, dst) = self.routes.ends(raw);
                let cost = self.routes.cost(raw);
                let survives = crossings.iter().all(|&(a, b, w)| {
                    to_tail[&a][src]
                        .saturating_add(w)
                        .saturating_add(from_head[&b][dst])
                        > cost
                });
                if survives {
                    self.repair.routes_kept += 1;
                    continue;
                }
            }
            invalidated.push(raw);
        }
        if let Some((to_tail, from_head)) = &tables {
            self.repair.filter_tables += (to_tail.len() + from_head.len()) as u64;
        }
        // 4. Move each invalidated route's participant-memo cells
        //    (`parts(src) × parts(dst)`) to the new epoch. Every interned
        //    route joins two routers that have participants.
        self.repair.routes_invalidated += invalidated.len() as u64;
        for raw in invalidated {
            self.routes.mark_stale(raw);
            let (src, dst) = self.routes.ends(raw);
            let (from, to) = (&self.router_parts[&src], &self.router_parts[&dst]);
            self.repair.memo_cells_cleared += self.memo.clear_pairs(from, to);
        }
        // 5. Improvements can connect pairs memoized unreachable.
        if !improved.is_empty() {
            self.repair.unreachable_cleared += self.memo.clear_unreachable();
        }
        // 6. Eager trees span the whole graph, so any route-affecting
        //    mutation can bend them, and a tree reads its paths off the graph
        //    it was computed on; drop the cache (the build counter survives
        //    — it lives in the variant and the variant is kept).
        //    Lazy workspaces are epoch-stamped per query and read the
        //    adjacency fresh each time: nothing to do.
        if let RouteComputer::Eager { trees, .. } = &mut self.computer {
            trees.clear();
        }
    }

    /// The directed links of an interned route, in hop order, as the arena
    /// stores them: 4-byte ids, widened to [`DirectedLinkId`] at the index.
    #[inline]
    pub fn route_links(&self, id: RouteId) -> &[u32] {
        self.routes.links(id)
    }

    /// The routed path (directed link ids) between two overlay participants,
    /// as an owned vector.
    ///
    /// Returns an empty path when both participants share an attachment
    /// router, and `None` when the destination is unreachable. This is a
    /// convenience wrapper over [`Network::route`] for oracles and tests;
    /// the simulator itself stores [`RouteId`]s and never copies paths.
    pub fn path(&mut self, from: OverlayId, to: OverlayId) -> Option<Vec<DirectedLinkId>> {
        let id = self.route(from, to)?;
        let links = self.routes.links(id);
        Some(links.iter().map(|&link| link as DirectedLinkId).collect())
    }

    /// One-way propagation delay (sum of link delays) between two overlay
    /// participants, ignoring queueing. Used for oracle baselines such as the
    /// offline tree algorithms.
    pub fn propagation_delay(
        &mut self,
        from: OverlayId,
        to: OverlayId,
    ) -> Option<crate::time::SimDuration> {
        let id = self.route(from, to)?;
        let mut total = crate::time::SimDuration::ZERO;
        for &link in self.routes.links(id) {
            total = total + self.links[link as usize].delay;
        }
        Some(total)
    }

    /// Offers a packet to one directed link. Its bytes count towards
    /// [`Network::total_bytes_sent`] when the link accepted it: it arrives,
    /// or the loss process drops it on the wire.
    pub fn offer_hop(
        &mut self,
        now: SimTime,
        link: DirectedLinkId,
        size_bytes: u32,
        trace_id: Option<u64>,
        rng: &mut SimRng,
    ) -> HopOutcome {
        if let Some(id) = trace_id {
            self.record_trace(id, link);
        }
        let outcome = self.links[link].offer(now, size_bytes, rng);
        if matches!(outcome, HopOutcome::Arrive(_) | HopOutcome::DroppedLoss) {
            self.bytes_sent += u64::from(size_bytes);
        }
        outcome
    }

    /// Updates the per-link trace counts and the incremental link-stress
    /// aggregates for one traced copy crossing `link`.
    fn record_trace(&mut self, trace: u64, link: DirectedLinkId) {
        let count = self
            .link_traces
            .entry(link)
            .or_default()
            .entry(trace)
            .or_insert(0);
        *count += 1;
        let count = *count;
        let agg = self.trace_aggs.entry(trace).or_default();
        let old_ratio = if agg.links == 0 {
            0.0
        } else {
            agg.copies as f64 / agg.links as f64
        };
        if count == 1 {
            agg.links += 1;
        }
        agg.copies += 1;
        let new_ratio = agg.copies as f64 / agg.links as f64;
        self.stress_ratio_sum += new_ratio - old_ratio;
        self.stress_max = self.stress_max.max(count);
    }

    /// Link-stress statistics over all traced packets.
    ///
    /// The aggregates are maintained incrementally as traced copies cross
    /// links, so this is O(1) and safe to poll from sampling harnesses. It
    /// is also fully deterministic: the old implementation rebuilt the
    /// statistics by iterating a randomly-seeded `HashMap`, which made the
    /// floating-point summation order (and thus the reported mean's low
    /// bits) vary from process to process.
    pub fn stress_stats(&self) -> StressStats {
        let traced = self.trace_aggs.len();
        if traced == 0 {
            return StressStats::default();
        }
        StressStats {
            mean: self.stress_ratio_sum / traced as f64,
            max: self.stress_max,
            traced_packets: traced,
        }
    }

    /// Total bytes accepted across all links (a rough global utilization
    /// number used in tests and reports).
    pub fn total_bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::collections::BTreeSet;

    /// Two clients attached to stubs joined through a single transit router.
    ///
    /// ```text
    /// c0 -- r0 -- r1(transit) -- r2 -- c1
    /// ```
    fn dumbbell() -> NetworkSpec {
        let mut spec = NetworkSpec::new(3);
        spec.add_link(LinkSpec::new(0, 1, 10e6, SimDuration::from_millis(5)));
        spec.add_link(LinkSpec::new(1, 2, 10e6, SimDuration::from_millis(5)));
        spec.attach(0);
        spec.attach(2);
        spec
    }

    /// The links of an interned route, widened to the ids
    /// [`Network::path`] returns.
    fn links_of(net: &Network, id: RouteId) -> Vec<DirectedLinkId> {
        (net.route_links(id).iter())
            .map(|&link| link as DirectedLinkId)
            .collect()
    }

    #[test]
    fn routes_between_participants() {
        let mut net = Network::new(&dumbbell());
        let path = net.path(0, 1).expect("path exists");
        assert_eq!(path.len(), 2);
        // Forward direction uses the even (forward) directed links.
        assert_eq!(net.link(path[0]).from, 0);
        assert_eq!(net.link(path[1]).to, 2);
    }

    #[test]
    fn reverse_path_differs_from_forward_path() {
        let mut net = Network::new(&dumbbell());
        let fwd = net.path(0, 1).unwrap();
        let rev = net.path(1, 0).unwrap();
        assert_eq!(fwd.len(), rev.len());
        assert_ne!(fwd, rev);
    }

    #[test]
    fn same_attachment_router_gives_empty_path() {
        let mut spec = dumbbell();
        let extra = spec.attach(0);
        let mut net = Network::new(&spec);
        assert_eq!(net.path(0, extra), Some(vec![]));
        assert_eq!(net.route(0, extra), Some(RouteId::EMPTY));
        assert!(net.route_links(RouteId::EMPTY).is_empty());
    }

    #[test]
    fn routes_are_interned_once_per_participant_pair() {
        let mut net = Network::new(&dumbbell());
        let first = net.route(0, 1).expect("route exists");
        let second = net.route(0, 1).expect("route exists");
        assert_eq!(first, second, "repeat lookups return the same handle");
        let owned = net.path(0, 1).unwrap();
        assert_eq!(links_of(&net, first), owned);
        // The reverse direction interns its own route.
        let rev = net.route(1, 0).expect("route exists");
        assert_ne!(first, rev);
    }

    #[test]
    fn unreachable_destination_has_no_route() {
        // Participant 1 is attached to an isolated router.
        let mut spec = NetworkSpec::new(3);
        spec.add_link(LinkSpec::new(0, 1, 10e6, SimDuration::from_millis(5)));
        spec.attach(0);
        spec.attach(2);
        let mut net = Network::new(&spec);
        assert_eq!(net.route(0, 1), None);
        assert_eq!(net.path(0, 1), None);
    }

    #[test]
    fn propagation_delay_sums_link_delays() {
        let mut net = Network::new(&dumbbell());
        let d = net.propagation_delay(0, 1).unwrap();
        assert_eq!(d.as_micros(), 10_000);
    }

    #[test]
    fn stress_counts_traced_copies() {
        let mut net = Network::new(&dumbbell());
        let mut rng = SimRng::new(1);
        let path = net.path(0, 1).unwrap();
        // The same traced packet crosses the first link twice (two copies).
        net.offer_hop(SimTime::ZERO, path[0], 100, Some(7), &mut rng);
        net.offer_hop(SimTime::ZERO, path[0], 100, Some(7), &mut rng);
        net.offer_hop(SimTime::ZERO, path[1], 100, Some(7), &mut rng);
        let stats = net.stress_stats();
        assert_eq!(stats.traced_packets, 1);
        assert_eq!(stats.max, 2);
        assert!((stats.mean - 1.5).abs() < 1e-9);
    }

    #[test]
    fn stress_stats_accumulate_incrementally_between_polls() {
        let mut net = Network::new(&dumbbell());
        let mut rng = SimRng::new(1);
        let path = net.path(0, 1).unwrap();
        assert_eq!(net.stress_stats(), StressStats::default());
        net.offer_hop(SimTime::ZERO, path[0], 100, Some(1), &mut rng);
        let first = net.stress_stats();
        assert_eq!(first.traced_packets, 1);
        assert_eq!(first.max, 1);
        assert!((first.mean - 1.0).abs() < 1e-12);
        // Polling must not disturb the accumulated state.
        assert_eq!(net.stress_stats(), first);
        // A second traced packet crossing both links twice.
        for _ in 0..2 {
            net.offer_hop(SimTime::ZERO, path[0], 100, Some(2), &mut rng);
            net.offer_hop(SimTime::ZERO, path[1], 100, Some(2), &mut rng);
        }
        let second = net.stress_stats();
        assert_eq!(second.traced_packets, 2);
        assert_eq!(second.max, 2);
        // Trace 1: 1 copy / 1 link = 1.0; trace 2: 4 copies / 2 links = 2.0.
        assert!((second.mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn all_routing_modes_return_identical_routes() {
        let spec = dumbbell();
        let mut eager = Network::with_routing(&spec, RoutingMode::EagerPerSource);
        let mut bidi = Network::with_routing(&spec, RoutingMode::LazyAlt { landmarks: 0 });
        let mut alt = Network::with_routing(&spec, RoutingMode::LazyAlt { landmarks: 2 });
        for (a, b) in [(0, 1), (1, 0)] {
            let reference = eager.path(a, b);
            assert_eq!(reference, bidi.path(a, b));
            assert_eq!(reference, alt.path(a, b));
        }
        assert_eq!(eager.routing_stats().trees_built, 2);
        assert_eq!(bidi.routing_stats().trees_built, 0);
        assert_eq!(bidi.routing_stats().lazy_searches, 2);
        assert_eq!(alt.routing_stats().landmarks, 2);
    }

    #[test]
    fn routing_stats_count_cache_misses_only() {
        let mut net = Network::with_routing(&dumbbell(), RoutingMode::LazyAlt { landmarks: 0 });
        net.route(0, 1);
        net.route(0, 1);
        net.route(0, 1);
        let stats = net.routing_stats();
        assert_eq!(stats.route_queries, 1, "repeat lookups hit the memo");
        assert_eq!(stats.lazy_searches, 1);
        assert!(stats.routers_settled > 0);
        assert_eq!(stats.mode, RoutingMode::LazyAlt { landmarks: 0 });
    }

    #[test]
    fn batched_row_fill_matches_point_queries() {
        for mode in [
            RoutingMode::EagerPerSource,
            RoutingMode::LazyAlt { landmarks: 0 },
            RoutingMode::LazyAlt { landmarks: 2 },
        ] {
            let spec = dumbbell();
            let mut point = Network::with_routing(&spec, mode);
            let mut batched = Network::with_routing(&spec, mode);
            for a in 0..spec.participants() {
                for b in 0..spec.participants() {
                    let reference = point.path(a, b);
                    let via_batch = batched.route_batched(a, b);
                    let got = via_batch.map(|id| links_of(&batched, id));
                    assert_eq!(reference, got, "{mode:?}: {a}->{b}");
                    // After the row fill, the plain hot-path lookup agrees.
                    assert_eq!(batched.route(a, b), via_batch, "{mode:?}: {a}->{b}");
                }
            }
            let stats = batched.routing_stats();
            assert!(stats.batched_queries > 0, "{mode:?}: no row fill ran");
            if mode != RoutingMode::EagerPerSource {
                assert_eq!(stats.trees_built, 0, "{mode:?}: batched built SPTs");
                assert_eq!(stats.lazy_searches, 0, "{mode:?}: fell back to point");
            }
        }
    }

    #[test]
    fn batched_row_fill_memoizes_unreachable_destinations() {
        // Participant 1 sits on an isolated router.
        let mut spec = NetworkSpec::new(3);
        spec.add_link(LinkSpec::new(0, 1, 10e6, SimDuration::from_millis(5)));
        spec.attach(0);
        spec.attach(2);
        let mut net = Network::with_routing(&spec, RoutingMode::LazyAlt { landmarks: 0 });
        assert_eq!(net.route_batched(0, 1), None);
        let queries = net.routing_stats().route_queries;
        // Served from the memo: no further computation.
        assert_eq!(net.route_batched(0, 1), None);
        assert_eq!(net.route(0, 1), None);
        assert_eq!(net.routing_stats().route_queries, queries);
    }

    #[test]
    fn route_all_from_prefills_the_hot_path() {
        let spec = dumbbell();
        let mut net = Network::with_routing(&spec, RoutingMode::LazyAlt { landmarks: 2 });
        net.route_all_from(0);
        let stats = net.routing_stats();
        assert_eq!(stats.batched_queries, 1);
        // Subsequent hot-path lookups are memo hits: no new computations.
        net.route(0, 1).expect("route exists");
        assert_eq!(net.routing_stats().route_queries, stats.route_queries);
        // A second row fill finds nothing left to do.
        net.route_all_from(0);
        assert_eq!(net.routing_stats().batched_queries, 1);
    }

    /// Two disjoint router paths between the participants' routers:
    /// a fast one through router 1 and a slow one through router 3.
    fn diamond() -> NetworkSpec {
        let mut spec = NetworkSpec::new(4);
        spec.add_link(LinkSpec::new(0, 1, 10e6, SimDuration::from_millis(2))); // 0
        spec.add_link(LinkSpec::new(1, 2, 10e6, SimDuration::from_millis(2))); // 1
        spec.add_link(LinkSpec::new(0, 3, 10e6, SimDuration::from_millis(20))); // 2
        spec.add_link(LinkSpec::new(3, 2, 10e6, SimDuration::from_millis(20))); // 3
        spec.attach(0);
        spec.attach(2);
        spec
    }

    #[test]
    fn link_down_invalidates_and_reroutes() {
        for mode in [
            RoutingMode::EagerPerSource,
            RoutingMode::LazyAlt { landmarks: 0 },
            RoutingMode::LazyAlt { landmarks: 2 },
        ] {
            let mut net = Network::with_routing(&diamond(), mode);
            let fast = net.path(0, 1).expect("path exists");
            let fast_id = net.route(0, 1).unwrap();
            assert_eq!(net.topology_epoch(), 0);
            net.set_link_up(0, false); // take the fast branch down
            assert_eq!(net.topology_epoch(), 1);
            let slow = net.path(0, 1).expect("detour exists");
            assert_ne!(fast, slow, "{mode:?}: route did not move off the dead link");
            assert_eq!(slow, vec![4, 6], "{mode:?}: detour through router 3");
            // The old interned route is still readable (in-flight packets).
            assert_eq!(links_of(&net, fast_id), fast);
            // Bringing the link back re-invalidates and restores the route.
            net.set_link_up(0, true);
            assert_eq!(net.topology_epoch(), 2);
            assert_eq!(net.path(0, 1), Some(fast.clone()), "{mode:?}");
            // Idempotent flips do not churn the epoch.
            net.set_link_up(0, true);
            assert_eq!(net.topology_epoch(), 2);
        }
    }

    /// Participants that share attachment routers have a memo cell and an
    /// interned route each, over one router pair: the cells must route alike,
    /// and a mutation on the path must move all of them — to what a network
    /// freshly built on the mutated spec routes.
    #[test]
    fn participants_sharing_a_router_route_and_repair_alike() {
        let mut spec = diamond();
        let (a2, b2) = (spec.attach(0), spec.attach(2));
        for mode in [
            RoutingMode::EagerPerSource,
            RoutingMode::LazyAlt { landmarks: 0 },
            RoutingMode::LazyAlt { landmarks: 2 },
        ] {
            let mut net = Network::with_routing(&spec, mode);
            let mut mutated = spec.clone();
            let check = |net: &mut Network, mutated: &NetworkSpec, want: &[DirectedLinkId]| {
                let mut fresh = Network::with_routing(mutated, mode);
                for (a, b) in [(0, 1), (a2, b2), (0, b2), (a2, 1)] {
                    assert_eq!(net.path(a, b).as_deref(), Some(want), "{mode:?}: {a}->{b}");
                    assert_eq!(net.path(a, b), fresh.path(a, b), "{mode:?}: {a}->{b}");
                    assert_eq!(net.path(b, a), fresh.path(b, a), "{mode:?}: {b}->{a}");
                }
            };
            check(&mut net, &mutated, &[0, 2]);
            net.set_link_up(0, false);
            mutated.set_link_up(0, false);
            check(&mut net, &mutated, &[4, 6]);
            net.set_link_up(0, true);
            mutated.set_link_up(0, true);
            check(&mut net, &mutated, &[0, 2]);
            // Eight cells (four each way), each routed three times; both
            // mutations invalidated all eight routes, cell by cell.
            assert_eq!(net.routing_stats().route_queries, 24, "{mode:?}");
            let repair = net.repair_stats();
            assert_eq!(repair.routes_invalidated, 16, "{mode:?}");
            assert_eq!(repair.memo_cells_cleared, 16, "{mode:?}");
        }
    }

    #[test]
    fn mutated_network_routes_match_a_fresh_build() {
        let mut spec = diamond();
        let mut net = Network::with_routing(&spec, RoutingMode::LazyAlt { landmarks: 0 });
        net.path(0, 1);
        net.set_link_up(1, false);
        net.set_link_delay(2, SimDuration::from_millis(1));
        spec.set_link_up(1, false);
        spec.set_link_delay(2, SimDuration::from_millis(1));
        let mut fresh = Network::with_routing(&spec, RoutingMode::LazyAlt { landmarks: 0 });
        for (a, b) in [(0, 1), (1, 0)] {
            assert_eq!(net.path(a, b), fresh.path(a, b), "{a}->{b}");
        }
    }

    /// A line 0-1-2-3-4-5 (5 ms per hop) with participants attached at
    /// routers 0, 2, 3 and 5; spec link `i` joins routers `i` and `i+1`.
    fn line6() -> NetworkSpec {
        let mut spec = NetworkSpec::new(6);
        for i in 0..5 {
            spec.add_link(LinkSpec::new(i, i + 1, 10e6, SimDuration::from_millis(5)));
        }
        for r in [0, 2, 3, 5] {
            spec.attach(r);
        }
        spec
    }

    /// The tentpole regression: a mutation at one end of a line invalidates
    /// exactly the routes (and memo cells) that cross the mutated link —
    /// counter-pinned — while every other pair keeps serving from the memo,
    /// and healing reopens exactly the memoized-unreachable pairs.
    #[test]
    fn incremental_repair_invalidates_only_affected_routes() {
        let mut net = Network::with_routing(&line6(), RoutingMode::LazyAlt { landmarks: 2 });
        let warm_all = |net: &mut Network| {
            for a in 0..4 {
                for b in 0..4 {
                    net.route(a, b);
                }
            }
        };
        warm_all(&mut net);
        // 4 participants on distinct routers: 12 directed router pairs.
        assert_eq!(net.routing_stats().route_queries, 12);

        // Down the 0-1 link: the 6 routes involving router 0 cross it.
        net.set_link_up(0, false);
        let stats = net.repair_stats();
        assert_eq!(stats.route_mutations, 1);
        assert_eq!(stats.routes_invalidated, 6);
        assert_eq!(stats.memo_cells_cleared, 6, "one cell per router pair");
        // The 6 unaffected pairs are still memo hits; the 6 affected pairs
        // recompute (to unreachable).
        warm_all(&mut net);
        assert_eq!(net.routing_stats().route_queries, 18);
        assert_eq!(net.route(0, 3), None, "router 0 is cut off");
        assert!(net.route(1, 2).is_some());

        // Heal. The improving repair must reopen exactly the 6 memoized
        // negatives and keep all 6 surviving routes (the landmark filter
        // proves no path through the healed edge beats them).
        net.set_link_up(0, true);
        let stats = net.repair_stats();
        assert_eq!(stats.route_mutations, 2);
        assert_eq!(stats.routes_invalidated, 6, "heal invalidated nothing");
        assert_eq!(stats.routes_kept, 6);
        assert_eq!(stats.unreachable_cleared, 6);
        assert_eq!(stats.landmark_checks, 2, "both ALT tables checked");
        assert_eq!(stats.landmark_repairs, 0, "exact restore needs no repair");
        warm_all(&mut net);
        assert_eq!(net.routing_stats().route_queries, 24);
        // Everything routes as on a fresh network again.
        let mut fresh = Network::with_routing(&line6(), RoutingMode::LazyAlt { landmarks: 2 });
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(net.path(a, b), fresh.path(a, b), "{a}->{b}");
            }
        }
    }

    /// Takes one direction of a link up or down. The public mutators move
    /// both directions of a physical link together; a one-way change is what
    /// tells a repair that matches directed links from one that matches
    /// physical links.
    fn set_direction_up(net: &mut Network, id: DirectedLinkId, up: bool) {
        if net.links[id].up != up {
            net.links[id].up = up;
            let change = if up {
                EdgeChange::Added
            } else {
                EdgeChange::Removed
            };
            net.apply_route_mutation(vec![(id, change)]);
        }
    }

    /// A seeded topology of 6–10 routers — a random spanning tree plus a few
    /// chords, no self-loops — with 4–8 participants, some sharing a router.
    /// Delays are whole milliseconds, returned beside the spec, so every
    /// delay change moves the cost.
    fn random_spec(rng: &mut SimRng) -> (NetworkSpec, Vec<u64>) {
        let routers = rng.range_usize(6, 11);
        let mut spec = NetworkSpec::new(routers);
        let mut delay_ms: Vec<u64> = Vec::new();
        let mut add_link = |spec: &mut NetworkSpec, rng: &mut SimRng, a, b| {
            delay_ms.push(1 + rng.next_below(20));
            let delay = SimDuration::from_millis(*delay_ms.last().unwrap());
            spec.add_link(LinkSpec::new(a, b, 10e6, delay));
        };
        for r in 1..routers {
            let parent = rng.range_usize(0, r);
            add_link(&mut spec, rng, r, parent);
        }
        for _ in 0..rng.range_usize(2, routers) {
            let (a, b) = (rng.range_usize(0, routers), rng.range_usize(0, routers));
            if a != b {
                add_link(&mut spec, rng, a, b);
            }
        }
        for _ in 0..rng.range_usize(4, 9) {
            spec.attach(rng.range_usize(0, routers));
        }
        (spec, delay_ms)
    }

    /// The fused repair pass against a model of the route memo. Seeded
    /// topologies of [`random_spec`] with every pair warm take 200 random
    /// mutations each: a link, one direction of a link or a router taken
    /// down or up, a link's delay raised or lowered. The model records every pair's `RouteId` and links
    /// before each mutation. After a worsening one, exactly the pairs whose
    /// route crossed a changed directed link get a new id, and
    /// `routes_invalidated` grows by the number of distinct live ids that
    /// crossed one. After every mutation, every pair routes as on a graph
    /// built afresh from the model's link state.
    ///
    /// Mutants this test kills, each checked by hand:
    /// - scanning only `changes[0]`;
    /// - scanning stale routes too;
    /// - matching the physical link, so the reverse direction is
    ///   invalidated too.
    #[test]
    fn fused_repair_pass_matches_a_route_model() {
        let mut rng = SimRng::new(0xF05ED);
        for case in 0..24 {
            let (spec, mut delay_ms) = random_spec(&mut rng);
            let routers = spec.routers;
            let mode = if case % 2 == 0 {
                RoutingMode::EagerPerSource
            } else {
                RoutingMode::LazyAlt { landmarks: 2 }
            };
            let mut net = Network::with_routing(&spec, mode);
            let mut up = vec![true; 2 * spec.links.len()];
            let parts = spec.participants();
            let record = |net: &mut Network| -> Vec<(Option<RouteId>, Vec<DirectedLinkId>)> {
                let mut memo = Vec::new();
                for a in 0..parts {
                    for b in 0..parts {
                        let id = net.route(a, b);
                        memo.push((id, id.map(|id| links_of(net, id)).unwrap_or_default()));
                    }
                }
                memo
            };
            let mut before = record(&mut net);
            for step in 0..200 {
                let link = rng.range_usize(0, spec.links.len());
                let (fwd, rev) = Network::directed_ids(link);
                let kind = rng.range_usize(0, 8);
                let invalidated = net.repair_stats().routes_invalidated;
                // The directed links whose edge the mutation changes.
                let mut changed: Vec<DirectedLinkId> = Vec::new();
                let mut flip = |up: &mut [bool], ids: &[DirectedLinkId], to: bool| {
                    for &id in ids {
                        if up[id] != to {
                            up[id] = to;
                            changed.push(id);
                        }
                    }
                };
                let worsening = match kind {
                    0 | 1 => {
                        net.set_link_up(link, kind == 1);
                        flip(&mut up, &[fwd, rev], kind == 1);
                        kind == 0
                    }
                    2 | 3 => {
                        let old = delay_ms[link];
                        let new = if kind == 2 {
                            old + 1 + rng.next_below(10)
                        } else {
                            old.saturating_sub(1 + rng.next_below(10)).max(1)
                        };
                        net.set_link_delay(link, SimDuration::from_millis(new));
                        delay_ms[link] = new;
                        if new != old {
                            changed.extend([fwd, rev].into_iter().filter(|&id| up[id]));
                        }
                        kind == 2
                    }
                    4 | 5 => {
                        let router = rng.range_usize(0, routers);
                        net.set_router_up(router, kind == 5);
                        for (i, l) in spec.links.iter().enumerate() {
                            if l.a == router || l.b == router {
                                let (f, r) = Network::directed_ids(i);
                                flip(&mut up, &[f, r], kind == 5);
                            }
                        }
                        kind == 4
                    }
                    _ => {
                        let id = if rng.chance(0.5) { fwd } else { rev };
                        set_direction_up(&mut net, id, kind == 7);
                        flip(&mut up, &[id], kind == 7);
                        kind == 6
                    }
                };
                let label = format!("case {case}, step {step}, kind {kind}, changed {changed:?}");
                let after = record(&mut net);
                if worsening {
                    let mut doomed = BTreeSet::new();
                    for (pair, (old, new)) in before.iter().zip(&after).enumerate() {
                        let (a, b) = (pair / parts, pair % parts);
                        if old.1.iter().any(|link| changed.contains(link)) {
                            doomed.insert(old.0.expect("a route crossed the link").0);
                            assert_ne!(new.0, old.0, "{label}: {a}->{b} kept a stale route");
                        } else {
                            assert_eq!(new.0, old.0, "{label}: {a}->{b} lost a live route");
                        }
                    }
                    assert_eq!(
                        net.repair_stats().routes_invalidated - invalidated,
                        doomed.len() as u64,
                        "{label}"
                    );
                }
                let fresh = Adjacency::new(
                    routers,
                    spec.links.iter().enumerate().flat_map(|(i, l)| {
                        let ((f, r), cost) = (Network::directed_ids(i), delay_ms[i] * 1000);
                        [(l.a, l.b, f, cost, up[f]), (l.b, l.a, r, cost, up[r])]
                    }),
                );
                for a in 0..parts {
                    let tree = ShortestPaths::compute(&fresh, spec.attachments[a]);
                    for b in 0..parts {
                        let (id, links) = &after[a * parts + b];
                        let got = id.map(|_| links.clone());
                        let want = tree.path_to(&fresh, spec.attachments[b]).map(|(_, p)| p);
                        assert_eq!(got, want, "{label}: {a}->{b}");
                    }
                }
                before = after;
            }
        }
    }

    /// `set_router_up` reads a router's links off its slots in the
    /// adjacency instead of scanning the whole link table. On topologies of
    /// [`random_spec`], under random sequences of router outages and heals
    /// mixed with one-link and one-direction flips (so a router's links are
    /// in mixed states), its change list equals a full scan's: the same
    /// links, in ascending id order, with the same kind.
    #[test]
    fn router_changes_match_a_full_link_scan() {
        let mut rng = SimRng::new(0x5CA7);
        for case in 0..24 {
            let (spec, _) = random_spec(&mut rng);
            let mut net = Network::new(&spec);
            for step in 0..100 {
                match rng.range_usize(0, 4) {
                    0 => net.set_link_up(rng.range_usize(0, spec.links.len()), rng.chance(0.5)),
                    1 => {
                        set_direction_up(&mut net, rng.range_usize(0, 2 * spec.links.len()), false)
                    }
                    _ => {}
                }
                let (router, up) = (rng.range_usize(0, spec.routers), rng.chance(0.5));
                let want: Vec<(DirectedLinkId, bool)> = (net.links.iter().enumerate())
                    .filter(|(_, l)| l.from as usize == router || l.to as usize == router)
                    .filter(|(_, l)| l.up != up)
                    .map(|(id, _)| (id, up))
                    .collect();
                let changes = net.router_changes(router, up);
                let got: Vec<(DirectedLinkId, bool)> = (changes.iter())
                    .map(|&(id, change)| (id, matches!(change, EdgeChange::Added)))
                    .collect();
                assert_eq!(
                    got, want,
                    "case {case}, step {step}: router {router} up {up}"
                );
                assert!(changes.iter().all(|&(id, _)| net.links[id].up == up));
                net.apply_route_mutation(changes);
            }
        }
    }

    /// A link's routing cost is stored in a `u32` of microseconds: a longer
    /// delay panics naming the link, even while the link is down.
    #[test]
    #[should_panic(expected = "directed link 2: routing cost 4294967296 us")]
    fn a_delay_beyond_u32_microseconds_panics_naming_the_link() {
        let mut net = Network::new(&diamond());
        let at_max = SimDuration::from_micros(u64::from(u32::MAX));
        net.set_link_delay(1, at_max);
        assert_eq!(net.link(2).cost(), u64::from(u32::MAX));
        net.set_link_up(1, false);
        net.set_link_delay(1, at_max + SimDuration::from_micros(1));
    }

    /// The improving filter as it stood before the healed-router rule, kept
    /// as the reference: a route of `cost` from `s` to `d` is doomed iff some
    /// improved edge `(a, b, w)` has `dist(s,a) + w + dist(b,d) <= cost`,
    /// with one distance table per distinct tail and per distinct head.
    /// Returns the doomed pairs and the number of tables that rule computes.
    fn per_edge_filter(
        adjacency: &Adjacency,
        improved: &[(RouterId, RouterId, u64)],
        routes: &[((RouterId, RouterId), u64)],
    ) -> (Vec<(RouterId, RouterId)>, u64) {
        let mut to_tail: FxHashMap<RouterId, Vec<u64>> = FxHashMap::default();
        let mut from_head: FxHashMap<RouterId, Vec<u64>> = FxHashMap::default();
        for &(a, b, _) in improved {
            to_tail
                .entry(a)
                .or_insert_with(|| adjacency.distances_to(a));
            from_head
                .entry(b)
                .or_insert_with(|| adjacency.distances_from(b));
        }
        let mut doomed: Vec<(RouterId, RouterId)> = routes
            .iter()
            .filter(|&&((s, d), cost)| {
                improved.iter().any(|&(a, b, w)| {
                    to_tail[&a][s]
                        .saturating_add(w)
                        .saturating_add(from_head[&b][d])
                        <= cost
                })
            })
            .map(|&(pair, _)| pair)
            .collect();
        doomed.sort_unstable();
        (doomed, (to_tail.len() + from_head.len()) as u64)
    }

    /// Healing a router filters the surviving routes through the router
    /// itself — two distance tables — and must doom exactly the pairs the
    /// per-edge rule dooms with its two tables per neighbour. A 3×3 grid
    /// with the degree-4 centre healed has all three kinds of cached route:
    /// ones the centre now beats (1→7), ones it ties (0→8) and ones it
    /// cannot touch (0→2).
    #[test]
    fn healed_router_filter_matches_the_per_edge_rule() {
        let mut spec = NetworkSpec::new(9);
        for r in 0..9 {
            if r % 3 != 2 {
                spec.add_link(LinkSpec::new(r, r + 1, 10e6, SimDuration::from_millis(5)));
            }
            if r + 3 < 9 {
                spec.add_link(LinkSpec::new(r, r + 3, 10e6, SimDuration::from_millis(5)));
            }
            spec.attach(r);
        }
        const CENTRE: RouterId = 4;
        for mode in [
            RoutingMode::EagerPerSource,
            RoutingMode::LazyAlt { landmarks: 2 },
        ] {
            let mut net = Network::with_routing(&spec, mode);
            let warm_all = |net: &mut Network| {
                for a in 0..9 {
                    for b in 0..9 {
                        net.route(a, b);
                    }
                }
            };
            warm_all(&mut net);
            net.set_router_up(CENTRE, false);
            warm_all(&mut net);
            let live: Vec<u32> = net.routes.live().collect();
            let cached: Vec<((RouterId, RouterId), u64)> = live
                .iter()
                .map(|&raw| (net.routes.ends(raw), net.routes.cost(raw)))
                .collect();
            assert_eq!(
                cached.len(),
                8 * 7,
                "{mode:?}: every pair avoiding the centre"
            );
            let before = net.repair_stats();

            net.set_router_up(CENTRE, true);

            let improved: Vec<(RouterId, RouterId, u64)> = net
                .adjacency
                .neighbors(CENTRE)
                .iter()
                .map(|&(v, _, cost)| (CENTRE, v as usize, u64::from(cost)))
                .chain(
                    net.adjacency
                        .in_neighbors(CENTRE)
                        .iter()
                        .map(|&(u, _, cost)| (u as usize, CENTRE, u64::from(cost))),
                )
                .collect();
            assert_eq!(improved.len(), 8, "the centre has degree 4");
            assert_eq!(healed_router(&net.adjacency, &improved), Some(CENTRE));
            let (want, per_edge_tables) = per_edge_filter(&net.adjacency, &improved, &cached);
            let mut got: Vec<(RouterId, RouterId)> = live
                .iter()
                .filter(|&&raw| net.routes.stale[raw as usize])
                .map(|&raw| net.routes.ends(raw))
                .collect();
            got.sort_unstable();
            assert_eq!(got, want, "{mode:?}: doomed pairs");
            assert!(want.contains(&(1, 7)) && want.contains(&(0, 8)), "{mode:?}");
            assert!(!want.contains(&(0, 2)), "{mode:?}");

            let after = net.repair_stats();
            assert_eq!(
                after.routes_invalidated - before.routes_invalidated,
                want.len() as u64,
                "{mode:?}"
            );
            assert_eq!(
                after.routes_kept - before.routes_kept,
                (cached.len() - want.len()) as u64,
                "{mode:?}"
            );
            assert_eq!(after.filter_tables - before.filter_tables, 2, "{mode:?}");
            assert_eq!(
                per_edge_tables, 10,
                "{mode:?}: centre plus four neighbours, twice"
            );
        }
    }

    /// A mutation that improves only *some* of a router's edges, or edges of
    /// more than one router, is not a heal and keeps the per-edge rule.
    #[test]
    fn healed_router_needs_every_edge_of_one_router() {
        let net = Network::new(&line6());
        // Link 0 is all of leaf router 0's edges: a heal of router 0.
        assert_eq!(
            healed_router(&net.adjacency, &[(0, 1, 5_000), (1, 0, 5_000)]),
            Some(0)
        );
        // Link 2 joins two degree-2 routers: neither is covered.
        assert_eq!(
            healed_router(&net.adjacency, &[(2, 3, 5_000), (3, 2, 5_000)]),
            None
        );
        // Edges of two routers, even if one of them is covered.
        assert_eq!(
            healed_router(
                &net.adjacency,
                &[(0, 1, 5_000), (1, 0, 5_000), (2, 3, 5_000), (3, 2, 5_000)]
            ),
            None
        );
        assert_eq!(healed_router(&net.adjacency, &[]), None);
    }

    /// Loss and capacity mutations are metadata-only: zero repair work of
    /// any kind, pinned on the counters.
    #[test]
    fn loss_and_bandwidth_mutations_cause_zero_repair_work() {
        let mut net = Network::new(&diamond());
        net.route(0, 1);
        net.route(1, 0);
        net.set_link_loss(0, 0.25);
        net.set_link_loss(1, 0.10);
        net.set_link_bandwidth(0, 1e6);
        assert_eq!(net.repair_stats(), RepairStats::default());
        assert_eq!(net.topology_epoch(), 0);
        // A delay write that does not move the integer-microsecond cost is
        // metadata-only too.
        net.set_link_delay(0, SimDuration::from_millis(2));
        assert_eq!(net.repair_stats(), RepairStats::default());
        assert_eq!(net.topology_epoch(), 0);
    }

    /// In-flight [`RouteId`]s survive incremental invalidation: the arena is
    /// append-only, so a handle taken before a mutation reads the same links
    /// after it, even though the lookup layers have moved on.
    #[test]
    fn in_flight_route_ids_survive_incremental_repair() {
        let mut net = Network::new(&line6());
        let id = net.route(0, 3).expect("route exists");
        let links_before = net.route_links(id).to_vec();
        net.set_link_up(2, false); // mid-line: every 0<->5 route crosses it
        net.set_link_delay(4, SimDuration::from_millis(1));
        assert_eq!(net.route_links(id), links_before.as_slice());
        assert_eq!(net.route(0, 3), None, "lookups see the new topology");
    }

    #[test]
    fn capacity_and_loss_mutations_do_not_touch_routes() {
        let mut net = Network::new(&diamond());
        let before = net.path(0, 1).unwrap();
        let queries = net.routing_stats().route_queries;
        net.set_link_bandwidth(0, 1e6);
        net.set_link_loss(0, 0.25);
        assert_eq!(net.topology_epoch(), 0, "capacity/loss must not re-route");
        assert_eq!(net.path(0, 1), Some(before));
        assert_eq!(
            net.routing_stats().route_queries,
            queries,
            "memo survived the mutation"
        );
        let (fwd, _) = Network::directed_ids(0);
        assert_eq!(net.link(fwd).bandwidth_bps, 1e6);
        assert_eq!(net.link(fwd).loss, 0.25);
    }

    #[test]
    fn router_outage_disconnects_and_recovers() {
        let mut spec = NetworkSpec::new(3);
        spec.add_link(LinkSpec::new(0, 1, 10e6, SimDuration::from_millis(5)));
        spec.add_link(LinkSpec::new(1, 2, 10e6, SimDuration::from_millis(5)));
        spec.attach(0);
        spec.attach(2);
        let mut net = Network::new(&spec);
        assert!(net.route(0, 1).is_some());
        net.set_router_up(1, false);
        assert_eq!(net.route(0, 1), None, "transit outage disconnects");
        assert_eq!(net.route_batched(0, 1), None);
        net.set_router_up(1, true);
        assert!(net.route(0, 1).is_some(), "recovery restores the route");
    }

    #[test]
    fn routing_work_counters_accumulate_across_mutations() {
        let mut net = Network::with_routing(&diamond(), RoutingMode::LazyAlt { landmarks: 0 });
        net.path(0, 1);
        let before = net.routing_stats();
        assert!(before.lazy_searches > 0);
        net.set_link_up(0, false);
        net.path(0, 1);
        let after = net.routing_stats();
        assert!(
            after.lazy_searches > before.lazy_searches,
            "a mutation must not reset the totals, got {after:?}"
        );
        assert!(after.routers_settled > before.routers_settled);
    }

    #[test]
    fn shared_setup_matches_per_run_construction() {
        // A NetworkSetup built once and shared must yield networks whose
        // routes, stats and mutation behaviour are bit-identical to plain
        // per-run construction — the correctness gate for the parallel
        // harness's setup sharing.
        for mode in [
            RoutingMode::EagerPerSource,
            RoutingMode::LazyAlt { landmarks: 0 },
            RoutingMode::LazyAlt { landmarks: 2 },
        ] {
            let spec = diamond();
            let setup = NetworkSetup::with_routing(&spec, mode);
            assert_eq!(setup.mode(), mode);
            assert_eq!(setup.routers(), spec.routers);
            let mut fresh = Network::with_routing(&spec, mode);
            let mut shared_a = Network::with_setup(&spec, &setup);
            let mut shared_b = Network::with_setup(&spec, &setup);
            for (a, b) in [(0, 1), (1, 0)] {
                let reference = fresh.path(a, b);
                assert_eq!(reference, shared_a.path(a, b), "{mode:?}: {a}->{b}");
                assert_eq!(reference, shared_b.path(a, b), "{mode:?}: {a}->{b}");
            }
            assert_eq!(
                fresh.routing_stats(),
                shared_a.routing_stats(),
                "{mode:?}: shared-setup view did different routing work"
            );
            // Mutating one shared view must not leak into its siblings.
            shared_a.set_link_up(0, false);
            assert_ne!(shared_a.path(0, 1), shared_b.path(0, 1), "{mode:?}");
            assert_eq!(shared_b.path(0, 1), fresh.path(0, 1), "{mode:?}");
            assert_eq!(shared_b.topology_epoch(), 0, "{mode:?}");
            // And the mutated view reroutes exactly like a mutated fresh one.
            fresh.set_link_up(0, false);
            assert_eq!(shared_a.path(0, 1), fresh.path(0, 1), "{mode:?}");
        }
    }

    #[test]
    fn network_and_setup_are_send_and_sync_where_required() {
        fn send<T: Send>() {}
        fn send_sync<T: Send + Sync>() {}
        // Runs move their private Network into worker threads...
        send::<Network>();
        // ...while the setup (and the spec it came from) is shared by
        // reference across all of them.
        send_sync::<NetworkSetup>();
        send_sync::<NetworkSpec>();
    }

    #[test]
    fn counters_accumulate() {
        let mut net = Network::new(&dumbbell());
        let mut rng = SimRng::new(1);
        let path = net.path(0, 1).unwrap();
        for _ in 0..5 {
            net.offer_hop(SimTime::ZERO, path[0], 1000, None, &mut rng);
        }
        assert_eq!(net.total_bytes_sent(), 5_000);
    }
}
