//! Shortest-path routing over the physical topology.
//!
//! The paper assumes fixed IP unicast routing between overlay participants
//! (OMBT assumption 1). We model that with shortest paths over link
//! propagation delay, which is how the INET-placed topologies derive their
//! routes.
//!
//! # Canonical paths
//!
//! Several equal-cost shortest paths can exist between a router pair, so
//! "the" route must be pinned down independently of which algorithm (or
//! query order) computes it. We define the **canonical shortest path** from
//! `s` to `t` by walking back from `t`: at every node `v`, follow the
//! *tight* incoming edge `(u, link)` (one with `dist(s, u) + cost == dist(s,
//! v)`) with the smallest directed link id. Because the distance array of a
//! graph is unique and every edge cost is at least 1 (as [`Network`]
//! guarantees via `delay.as_micros().max(1)`), this predecessor chain is a
//! pure function of the graph — both the whole-graph search
//! ([`ShortestPaths`]) and the lazy bidirectional searches ([`LazyRouter`])
//! reproduce it hop for hop, which is what the routing-equivalence test
//! harness in `tests/support/routing_equiv.rs` asserts. The reference for
//! both is the binary-heap Dijkstra kept in this module's tests.
//!
//! # Reconstruction
//!
//! A point-to-point [`LazyRouter::query`] never resumes a search to break
//! ties: it decides every "is `dist(s, u) == target`?" question from the
//! labels its two frontiers already hold. What makes that exact is the
//! **strict stop**: the bidirectional search ends only when `top_f + top_b >
//! μ` (strictly), where `top_*` are the smallest unsettled keys and `μ` the
//! best meeting cost. A router `x` on *any* shortest `s → t` path has
//! `key_f(x) + key_b(x) = μ` (the potentials cancel), and a side that has
//! not settled `x` has `key(x) ≥ top`; so were `x` settled by neither side,
//! `μ ≥ top_f + top_b > μ`. Hence every router on every shortest path is
//! settled, with its exact distance, by at least one side.
//!
//! Walking back from `t`, an in-edge `(u → v, c)` of a path node `v` is
//! tight iff `dist(s, u) == target` with `target = dist(s, v) − c`, and a
//! tight `u` lies on a shortest `s → t` path itself. Three cases decide it:
//!
//! 1. `u == s`, or `u` is forward-settled: compare the exact forward
//!    distance (`0` for `s`) with `target`.
//! 2. `u` is settled only by the backward side, so `dist(u, t)` is known:
//!    tight iff `dist(u, t) + target == μ` **and** `u` is on a shortest
//!    `s → t` path — otherwise `dist(s, u) > μ − dist(u, t)`. Membership is
//!    the same question one hop further out: some in-edge `(w → u, cw)`
//!    has `dist(s, w) == μ − dist(u, t) − cw`, answered by these same three
//!    cases (a backward-settled `w` then needs `dist(w, t) == dist(u, t) +
//!    cw` and membership of its own). Backward distances strictly grow along
//!    the walk, so it terminates inside the backward ball; verdicts are
//!    memoised per query.
//! 3. `u` is settled by neither side: not tight, by the lemma.
//!
//! Nothing here uses cost symmetry, so plain bidirectional search on
//! directed graphs reconstructs the same way.
//!
//! # Row fills
//!
//! A whole row of routes out of one source ([`Network::route_all_from`])
//! runs the whole-graph search, [`ShortestPaths::compute`], in both routing
//! modes. Its targets are every participant, scattered over the whole
//! graph, so settling all of them settles nearly everything: no goal
//! direction can prune a search whose goals span the graph. What it can save
//! is the queue: it keeps a bucket queue, not a heap (see `dijkstra`).
//!
//! # The graph
//!
//! Every search walks one [`Adjacency`]: a flat table per direction in which
//! each directed link of the topology owns a fixed slot, whether it is up or
//! down. Topology mutations patch those slots in place rather than rebuild
//! anything. A router's live edges may come out of a patch in another
//! order, but no search above depends on that order, so a patched graph
//! routes exactly as a freshly built one.
//!
//! # Widths
//!
//! Routing state is stored at the width of what it holds and widened to
//! `u64` for arithmetic, so every sum is the one a `u64` store would give:
//!
//! - An edge slot is 12 bytes: `u32` router, link and cost. A cost is a
//!   delay in whole microseconds, so a link may be up to `u32::MAX` µs
//!   (about 71.6 minutes); a longer one panics, naming the link, where it
//!   enters the graph.
//! - A landmark table holds one `u32` distance per router, `u32::MAX` for
//!   unreachable; a finite distance must stay below it.
//! - A [`LazyRouter`]'s search workspace — two frontier labels of 12 bytes
//!   (a distance, and an epoch stamp whose low bit marks a settled router),
//!   the landmark potential cache and the reconstruction memo, 41 bytes per
//!   router — is allocated by its first point query. A router that only
//!   serves row fills, as the bottleneck-tree oracle's does, never holds
//!   one.
//! - A cached [`ShortestPaths`] tree is one `u32` predecessor link per
//!   router. A path is walked back over its head's in-edges, and its cost
//!   is the sum of its links' costs.
//!
//! [`Network`]: crate::network::Network
//! [`Network::route_all_from`]: crate::network::Network::route_all_from

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::link::{DirectedLinkId, RouterId};

/// How a [`Network`](crate::network::Network) computes routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// One full Dijkstra shortest-path tree per source router, cached for
    /// the network's lifetime. Fast for small graphs whose participants talk
    /// to everyone, but at paper scale (20k routers) each first contact
    /// costs a whole-graph scan and each source pins an O(routers) tree.
    EagerPerSource,
    /// On-demand bidirectional Dijkstra per router pair, guided by ALT (A*,
    /// landmarks, triangle inequality) lower bounds: two frontiers grow from
    /// source and destination and stop as soon as the best meeting cost is
    /// proven optimal, so only the routers near the query are ever touched.
    /// A handful of landmark distance tables are built once (a few full
    /// Dijkstras); every query then prunes its frontiers with the landmark
    /// potentials. Requires symmetric link costs, which every
    /// [`NetworkSpec`](crate::network::NetworkSpec)-built topology has.
    LazyAlt {
        /// Number of landmarks. 0 is plain bidirectional search (zero
        /// potentials, nothing precomputed) — the reference the equivalence
        /// tests run beside the guided search.
        landmarks: usize,
    },
}

impl RoutingMode {
    /// Router count at which [`RoutingMode::auto`] switches from the eager
    /// per-source trees to lazy landmark-guided search.
    pub const AUTO_LAZY_ROUTERS: usize = 4_096;

    /// Default landmark count for [`RoutingMode::LazyAlt`].
    pub const DEFAULT_LANDMARKS: usize = 8;

    /// Picks a mode from the topology size: small graphs keep the eager
    /// per-source trees, paper-scale graphs get lazy ALT search.
    pub fn auto(routers: usize) -> RoutingMode {
        if routers >= Self::AUTO_LAZY_ROUTERS {
            RoutingMode::LazyAlt {
                landmarks: Self::DEFAULT_LANDMARKS,
            }
        } else {
            RoutingMode::EagerPerSource
        }
    }
}

/// One slot of an [`Adjacency`]: `(router, directed link id, cost)`.
type Edge = (u32, u32, u32);

/// The routing cost of directed link `link` at the width an edge stores it.
///
/// # Panics
///
/// Panics, naming the link, if `cost` does not fit in a `u32`: a delay of
/// more than `u32::MAX` microseconds, about 71.6 minutes.
pub(crate) fn edge_cost(link: DirectedLinkId, cost: u64) -> u32 {
    u32::try_from(cost).unwrap_or_else(|_| {
        panic!("directed link {link}: routing cost {cost} us does not fit in a u32")
    })
}

/// A distance at the width a landmark table stores it: `u32::MAX` for
/// unreachable (`u64::MAX`).
///
/// # Panics
///
/// Panics if a finite distance is `u32::MAX` or more.
fn landmark_entry(dist: u64) -> u32 {
    if dist == u64::MAX {
        return u32::MAX;
    }
    (u32::try_from(dist).ok())
        .filter(|&d| d != u32::MAX)
        .unwrap_or_else(|| panic!("landmark distance {dist} us does not fit in a u32"))
}

/// A landmark table entry widened back for arithmetic: `u64::MAX` for
/// unreachable.
#[inline]
fn widen_landmark(entry: u32) -> u64 {
    if entry == u32::MAX {
        u64::MAX
    } else {
        u64::from(entry)
    }
}

/// One direction of an [`Adjacency`] in compressed-sparse-row form: router
/// `r` owns the slots `edges[start_r .. ranges[r + 1].0]`, where `(start_r,
/// live_r) = ranges[r]`, and the first `live_r` of them are its live edges.
/// The rest are its links that are down, kept in place for when they return.
#[derive(Clone, Debug, Default)]
struct Csr {
    /// `(start, live)` per router, then a sentinel `(edges.len(), 0)`.
    ranges: Vec<(u32, u32)>,
    /// `(router, directed link id, cost)`: the far end of an out-edge, the
    /// near end of an in-edge. 12 bytes a slot.
    edges: Vec<Edge>,
}

impl Csr {
    /// Lays out one slot per `(owner, edge, up)`, the up edges of each
    /// owner in the live prefix of its range.
    fn new(routers: usize, slots: impl Iterator<Item = (RouterId, Edge, bool)> + Clone) -> Self {
        let mut ranges = vec![(0u32, 0u32); routers + 1];
        for (owner, _, _) in slots.clone() {
            ranges[owner + 1].0 += 1;
        }
        for r in 0..routers {
            ranges[r + 1].0 += ranges[r].0;
        }
        let mut edges = vec![(0, 0, 0); ranges[routers].0 as usize];
        // Down slots fill each range from its end.
        let mut down = vec![0u32; routers];
        for (owner, edge, up) in slots {
            let at = if up {
                ranges[owner].1 += 1;
                ranges[owner].0 + ranges[owner].1 - 1
            } else {
                down[owner] += 1;
                ranges[owner + 1].0 - down[owner]
            };
            edges[at as usize] = edge;
        }
        Csr { ranges, edges }
    }

    #[inline]
    fn live(&self, r: RouterId) -> &[Edge] {
        let (start, live) = self.ranges[r];
        &self.edges[start as usize..(start + live) as usize]
    }

    /// All of `r`'s slots, live and down.
    fn slots(&self, r: RouterId) -> &[Edge] {
        &self.edges[self.ranges[r].0 as usize..self.ranges[r + 1].0 as usize]
    }

    /// The slot of `link` among `r`'s live edges (`up`), or its down ones.
    fn find(&self, r: RouterId, link: DirectedLinkId, up: bool) -> Option<usize> {
        let (start, live) = self.ranges[r];
        let (lo, hi) = if up {
            (start, start + live)
        } else {
            (start + live, self.ranges[r + 1].0)
        };
        (lo as usize..hi as usize).find(|&i| self.edges[i].1 as usize == link)
    }

    /// Moves a live `link` just past the shrunk live prefix.
    fn remove(&mut self, r: RouterId, link: DirectedLinkId) {
        if let Some(i) = self.find(r, link, true) {
            let (start, live) = &mut self.ranges[r];
            *live -= 1;
            self.edges.swap(i, (*start + *live) as usize);
        }
    }

    /// Moves a down `link` to the end of the grown live prefix, at `cost`.
    fn add(&mut self, r: RouterId, link: DirectedLinkId, cost: u32) {
        let i = (self.find(r, link, false))
            .unwrap_or_else(|| panic!("link {link} has no down slot at router {r}"));
        let (start, live) = &mut self.ranges[r];
        let at = (*start + *live) as usize;
        *live += 1;
        self.edges.swap(i, at);
        self.edges[at].2 = cost;
    }

    fn set_cost(&mut self, r: RouterId, link: DirectedLinkId, cost: u32) {
        if let Some(i) = self.find(r, link, true) {
            self.edges[i].2 = cost;
        }
    }
}

/// The routing graph: for each router, its live `(neighbor, directed link
/// id, cost)` out-edges, plus the mirrored in-edges the bidirectional
/// searches walk. Router ids, link ids and costs must fit in a `u32`.
///
/// Each direction is one flat compressed-sparse-row table whose slots are
/// fixed at construction: every directed link, up or down, owns one slot in
/// its tail's out-range and one in its head's in-range, and no edge ever
/// leaves its owner's range. A removal swaps the edge to just past the
/// shrunk live prefix, a re-added link is swapped back to the end of the
/// grown one, and a cost change rewrites the slot. So a router's live edges
/// are always exactly its up links at their current costs, in some order.
/// No search depends on that order: relaxation scans the whole live range,
/// and the canonical tie-break compares link ids, not positions. In-place
/// mutation is therefore bit-identical to building the mutated graph afresh.
#[derive(Clone, Debug, Default)]
pub struct Adjacency {
    out_edges: Csr,
    in_edges: Csr,
    /// The lowest and highest edge cost ever set: bounds on every live cost,
    /// which size the bucket queue of the whole-graph search.
    min_cost: u64,
    max_cost: u64,
}

impl Adjacency {
    /// Builds the graph of `routers` routers over every directed link that
    /// may ever be up, as `(from, to, link, cost, up)`: links that are down
    /// get a slot but no edge until [`Adjacency::add_edge`].
    ///
    /// # Panics
    ///
    /// Panics if a router or link id does not fit in a `u32`, or if a cost
    /// does not (the message names the link).
    pub fn new<I>(routers: usize, links: I) -> Self
    where
        I: Iterator<Item = (RouterId, RouterId, DirectedLinkId, u64, bool)> + Clone,
    {
        let (mut min_cost, mut max_cost) = (u64::MAX, 0);
        for (_, _, _, cost, _) in links.clone().filter(|l| l.4) {
            (min_cost, max_cost) = (min_cost.min(cost), max_cost.max(cost));
        }
        let id = |id: usize| u32::try_from(id).expect("router and link ids fit in a u32");
        let slot = move |end: RouterId, link: DirectedLinkId, cost| {
            (id(end), id(link), edge_cost(link, cost))
        };
        Adjacency {
            out_edges: Csr::new(
                routers,
                (links.clone())
                    .map(move |(from, to, link, cost, up)| (from, slot(to, link, cost), up)),
            ),
            in_edges: Csr::new(
                routers,
                links.map(move |(from, to, link, cost, up)| (to, slot(from, link, cost), up)),
            ),
            min_cost,
            max_cost,
        }
    }

    /// Brings a down directed link back, at `cost`.
    ///
    /// # Panics
    ///
    /// Panics if the link is not a down link of the graph: it was not given
    /// to [`Adjacency::new`], or it is already up. Panics as `new` does if
    /// `cost` does not fit in a `u32`.
    pub fn add_edge(&mut self, from: RouterId, to: RouterId, link: DirectedLinkId, cost: u64) {
        let cost = self.narrow_cost(link, cost);
        self.out_edges.add(from, link, cost);
        self.in_edges.add(to, link, cost);
    }

    /// Updates the cost of a live directed edge in place. A no-op if the
    /// link is down (its cost is given again when it comes back up).
    ///
    /// # Panics
    ///
    /// Panics as [`Adjacency::new`] does if `cost` does not fit in a `u32`.
    pub fn set_edge_cost(&mut self, from: RouterId, to: RouterId, link: DirectedLinkId, cost: u64) {
        let cost = self.narrow_cost(link, cost);
        self.out_edges.set_cost(from, link, cost);
        self.in_edges.set_cost(to, link, cost);
    }

    /// Narrows `link`'s new `cost` to an edge's width, widening the cost
    /// bounds to cover it.
    fn narrow_cost(&mut self, link: DirectedLinkId, cost: u64) -> u32 {
        let narrow = edge_cost(link, cost);
        self.min_cost = self.min_cost.min(cost);
        self.max_cost = self.max_cost.max(cost);
        narrow
    }

    /// Takes a directed edge down; a no-op if it is down already.
    pub fn remove_edge(&mut self, from: RouterId, to: RouterId, link: DirectedLinkId) {
        self.out_edges.remove(from, link);
        self.in_edges.remove(to, link);
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.out_edges.ranges.len().saturating_sub(1)
    }

    /// Returns `true` if the topology has no routers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live edges leaving `router`, as `(to, link, cost)`.
    pub fn neighbors(&self, router: RouterId) -> &[(u32, u32, u32)] {
        self.out_edges.live(router)
    }

    /// Live edges arriving at `router`, as `(from, link, cost)`.
    pub fn in_neighbors(&self, router: RouterId) -> &[(u32, u32, u32)] {
        self.in_edges.live(router)
    }

    /// Every directed link leaving or entering `router`, up or down: the
    /// links of its slots in both tables, in slot order (a self-loop twice).
    pub(crate) fn incident_links(
        &self,
        router: RouterId,
    ) -> impl Iterator<Item = DirectedLinkId> + '_ {
        (self.out_edges.slots(router).iter())
            .chain(self.in_edges.slots(router))
            .map(|&(_, link, _)| link as DirectedLinkId)
    }

    /// Dijkstra distances from `source` to every router (`u64::MAX` marks
    /// unreachable). One full-graph scan — used by the incremental repair's
    /// exact improving-edge filter, where a handful of these replaces
    /// recomputing every cached route — and the landmark tables.
    pub fn distances_from(&self, source: RouterId) -> Vec<u64> {
        dijkstra(self, source, Dir::Forward, &mut [])
    }

    /// Dijkstra distances from every router *to* `target`, the same search
    /// run over the in-edge lists — exact even on asymmetric graphs.
    pub fn distances_to(&self, target: RouterId) -> Vec<u64> {
        dijkstra(self, target, Dir::Backward, &mut [])
    }

    /// The edges a search in direction `dir` follows out of `router`.
    fn edges(&self, dir: Dir, router: RouterId) -> &[Edge] {
        match dir {
            Dir::Forward => self.out_edges.live(router),
            Dir::Backward => self.in_edges.live(router),
        }
    }
}

/// `prev` entry of a router with no predecessor link (the source, or
/// unreachable).
const NO_LINK: u32 = u32::MAX;

/// The shortest path tree rooted at one source router, as one 4-byte
/// predecessor link per router.
///
/// Its predecessor array follows the canonical tie-break (smallest link id
/// among tight in-edges), so `path_into` is a pure function of the graph,
/// whatever order the search settles routers in. The tree keeps no
/// distances: a path is walked back over the adjacency it was computed on,
/// and its cost is the sum of its links' costs.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    source: RouterId,
    /// For each router, the directed link it is reached through on the
    /// canonical shortest path from `source`; [`NO_LINK`] for the source and
    /// unreachable routers.
    prev: Vec<u32>,
}

impl ShortestPaths {
    /// Runs Dijkstra from `source` over the adjacency structure.
    pub fn compute(adj: &Adjacency, source: RouterId) -> Self {
        let mut prev = vec![NO_LINK; adj.len()];
        dijkstra(adj, source, Dir::Forward, &mut prev);
        ShortestPaths { source, prev }
    }

    /// The source router this tree is rooted at.
    pub fn source(&self) -> RouterId {
        self.source
    }

    /// Writes the canonical path (directed link ids, source to `dst`) into
    /// `out` and returns its cost, or `None` if `dst` is unreachable. `adj`
    /// must be the graph the tree was computed on: each hop's tail and cost
    /// are read off its head's in-edges.
    pub fn path_into(
        &self,
        adj: &Adjacency,
        dst: RouterId,
        out: &mut Vec<DirectedLinkId>,
    ) -> Option<u64> {
        out.clear();
        let mut cost = 0;
        let mut cur = dst;
        while cur != self.source {
            // A reachable router's predecessor chain ends at the source.
            let link = self.prev[cur];
            if link == NO_LINK {
                return None;
            }
            let &(tail, _, c) = (adj.in_neighbors(cur).iter())
                .find(|&&(_, l, _)| l == link)
                .expect("a tree link is a live in-edge of its head");
            out.push(link as DirectedLinkId);
            cost += u64::from(c);
            cur = tail as RouterId;
        }
        out.reverse();
        Some(cost)
    }

    /// The cost of the canonical path from the source to `dst` and its
    /// directed link ids, or `None` if `dst` is unreachable.
    pub fn path_to(&self, adj: &Adjacency, dst: RouterId) -> Option<(u64, Vec<DirectedLinkId>)> {
        let mut path = Vec::new();
        let cost = self.path_into(adj, dst, &mut path)?;
        Some((cost, path))
    }
}

/// Most buckets a [`dijkstra`] queue spans.
const MAX_BUCKETS: u64 = 256;

/// The one whole-graph search: distances from `root` (to it, over in-edges,
/// for [`Dir::Backward`]), and each router's canonical predecessor link
/// written into `prev` unless it is empty.
///
/// A monotone bucket queue: buckets of width `w = max(min_cost, ⌈max_cost /
/// MAX_BUCKETS⌉)` in a ring of `max_cost / w + 2` slots, which no relaxation
/// can wrap. Entries are router ids; `queued` marks a router's one live
/// entry, in the bucket of its label. With every cost ≥ `w` — as in every
/// generated topology, whose delays are ≥ 0.5 ms — a relaxation lands in a
/// later bucket and each router is settled once. A wider spread can land
/// one in the bucket being drained, where it is queued again (Δ-stepping's
/// label correction). Distances and the tie-break stay exact: an edge whose
/// tail is not final cannot be tight at the head's final distance. A router
/// whose one onward edge leads back to its improver is labelled but never
/// queued, since that edge can neither improve nor tie.
fn dijkstra(adj: &Adjacency, root: RouterId, dir: Dir, prev: &mut [u32]) -> Vec<u64> {
    let width = adj.min_cost.max(adj.max_cost.div_ceil(MAX_BUCKETS)).max(1);
    let slots = adj.max_cost / width + 2;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); slots as usize];
    let mut dist = vec![u64::MAX; adj.len()];
    let mut queued = vec![false; adj.len()];
    dist[root] = 0;
    queued[root] = true;
    buckets[0].push(root as u32);
    let (mut pending, mut bucket) = (1usize, 0u64);
    while pending > 0 {
        let slot = (bucket % slots) as usize;
        while let Some(u) = buckets[slot].pop() {
            pending -= 1;
            let u = u as usize;
            if !std::mem::take(&mut queued[u]) {
                continue; // stale: relabelled or settled since
            }
            debug_assert_eq!(dist[u] / width, bucket);
            let du = dist[u];
            for &(v32, link, cost) in adj.edges(dir, u) {
                let v = v32 as usize;
                let (nd, old) = (du.saturating_add(u64::from(cost)), dist[v]);
                if nd < old {
                    dist[v] = nd;
                    if !prev.is_empty() {
                        prev[v] = link;
                    }
                    if matches!(adj.edges(dir, v), [(back, _, _)] if *back as usize == u) {
                        queued[v] = false; // a dead end
                    } else if !queued[v] || old / width != nd / width {
                        queued[v] = true;
                        buckets[(nd / width % slots) as usize].push(v32);
                        pending += 1;
                    }
                } else if nd == old && nd != u64::MAX && !prev.is_empty() {
                    // The canonical tie-break: the smallest tight link id.
                    prev[v] = prev[v].min(link);
                }
            }
        }
        bucket += 1;
    }
    dist
}

/// Farthest-point landmark selection: each landmark maximizes the minimum
/// distance to the ones already chosen, so landmarks spread to the graph's
/// periphery (and into other components, since unreachable counts as
/// farthest). Returns one full distance table per landmark, in `u32`
/// entries (`u32::MAX` marks unreachable).
///
/// # Panics
///
/// Panics if a finite distance does not fit below `u32::MAX`.
pub(crate) fn select_landmarks(adj: &Adjacency, count: usize) -> Vec<Vec<u32>> {
    let n = adj.len();
    if n == 0 || count == 0 {
        return Vec::new();
    }
    let mut tables: Vec<Vec<u32>> = Vec::new();
    let mut closest = adj.distances_from(0);
    for _ in 0..count.min(n) {
        let mut next = 0;
        for (v, &c) in closest.iter().enumerate() {
            if c > closest[next] {
                next = v;
            }
        }
        if !tables.is_empty() && closest[next] == 0 {
            break; // every router is already a landmark
        }
        let table = adj.distances_from(next);
        for (c, &d) in closest.iter_mut().zip(&table) {
            *c = (*c).min(d);
        }
        tables.push(table.iter().copied().map(landmark_entry).collect());
    }
    tables
}

/// Adds a (possibly negative) potential to a scaled distance, clamping into
/// `u64` key space. Valid labels never go negative (potentials are lower
/// bounds), so the clamp only defends saturated sentinel arithmetic.
#[inline]
fn add_pot(d: u64, p: i64) -> u64 {
    (d as i128 + p as i128).clamp(0, u64::MAX as i128) as u64
}

/// One frontier of a bidirectional search: a 12-byte label per router. All
/// labels are stamped with the query epoch, so starting a new query is
/// O(1) — no clearing.
///
/// The heap holds no key per router to tell a stale entry from a fresh one.
/// It needs none: every improvement of a router pushes a strictly smaller
/// key (its potential is fixed for the query), so the first entry of an
/// unsettled router to reach the top is its freshest, and every entry after
/// it finds the router settled.
#[derive(Debug)]
struct SearchSide {
    /// Tentative distance in *scaled* (doubled) cost units.
    dist: Vec<u64>,
    /// The (even) epoch in which `dist` was last written, plus 1 once the
    /// router is settled.
    stamp: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl SearchSide {
    fn new(n: usize) -> Self {
        SearchSide {
            dist: vec![0; n],
            stamp: vec![0; n],
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn labeled(&self, epoch: u32, v: RouterId) -> bool {
        self.stamp[v] & !1 == epoch
    }

    #[inline]
    fn settled(&self, epoch: u32, v: RouterId) -> bool {
        self.stamp[v] == epoch | 1
    }

    /// Lowers `v`'s tentative distance to `d` if it improves; returns
    /// whether it did. Consistent potentials never improve a settled
    /// router, which would lose its settled bit.
    #[inline]
    fn improve(&mut self, epoch: u32, v: RouterId, d: u64) -> bool {
        if self.labeled(epoch, v) && d >= self.dist[v] {
            return false;
        }
        debug_assert!(
            !self.settled(epoch, v),
            "router {v} improved after settling"
        );
        self.stamp[v] = epoch;
        self.dist[v] = d;
        true
    }

    /// Smallest key of an entry whose router is unsettled, popping the
    /// stale entries of settled routers off the top. `None` once the
    /// frontier is exhausted.
    fn peek_fresh(&mut self, epoch: u32) -> Option<u64> {
        while let Some(&Reverse((key, v))) = self.heap.peek() {
            if self.settled(epoch, v as usize) {
                self.heap.pop();
                continue;
            }
            return Some(key);
        }
        None
    }
}

/// Per-query landmark potential cache. The potential `p(v) = π_t(v) −
/// π_s(v)` (difference of the landmark lower bounds toward destination and
/// source) is consistent for the forward search and, negated, for the
/// backward search; working in doubled cost units keeps it integral.
#[derive(Debug)]
struct PotCache {
    stamp: Vec<u32>,
    val: Vec<i64>,
    epoch: u32,
    active: bool,
    /// Landmark distances to the query source / destination.
    at_src: Vec<u32>,
    at_dst: Vec<u32>,
}

impl PotCache {
    fn new(n: usize) -> Self {
        PotCache {
            stamp: vec![0; n],
            val: vec![0; n],
            epoch: 0,
            active: false,
            at_src: Vec::new(),
            at_dst: Vec::new(),
        }
    }

    fn begin(&mut self, epoch: u32, landmarks: &[Vec<u32>], src: RouterId, dst: RouterId) {
        self.epoch = epoch;
        self.active = !landmarks.is_empty();
        self.at_src.clear();
        self.at_dst.clear();
        for table in landmarks {
            self.at_src.push(table[src]);
            self.at_dst.push(table[dst]);
        }
    }

    /// The potential of `v` for the current query (0 without landmarks).
    fn get(&mut self, landmarks: &[Vec<u32>], v: RouterId) -> i64 {
        if !self.active {
            return 0;
        }
        if self.stamp[v] == self.epoch {
            return self.val[v];
        }
        let mut pi_dst = 0i64;
        let mut pi_src = 0i64;
        for (l, table) in landmarks.iter().enumerate() {
            let dv = table[v];
            if dv == u32::MAX {
                continue; // landmark in another component: no bound
            }
            let dv = i64::from(dv);
            let dt = self.at_dst[l];
            if dt != u32::MAX {
                pi_dst = pi_dst.max((dv - i64::from(dt)).abs());
            }
            let ds = self.at_src[l];
            if ds != u32::MAX {
                pi_src = pi_src.max((dv - i64::from(ds)).abs());
            }
        }
        let p = pi_dst - pi_src;
        self.stamp[v] = self.epoch;
        self.val[v] = p;
        p
    }
}

/// Which frontier an [`advance`] step grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Forward,
    Backward,
}

/// Settles the router at the top of `side`, relaxing its edges and
/// tightening the meeting upper bound `mu` against the `other` side's
/// labels. The top entry is fresh: the query loop calls
/// [`SearchSide::peek_fresh`] on `side` just before, and steps only a side
/// that has an entry.
#[allow(clippy::too_many_arguments)]
fn advance(
    epoch: u32,
    adj: &Adjacency,
    dir: Dir,
    side: &mut SearchSide,
    other: &SearchSide,
    pot: &mut PotCache,
    landmarks: &[Vec<u32>],
    mu: &mut u64,
    settled: &mut u64,
) {
    let Reverse((_, v)) = side.heap.pop().expect("the stepped side has an entry");
    let v = v as usize;
    debug_assert!(!side.settled(epoch, v), "peek_fresh left a stale top");
    side.stamp[v] = epoch | 1;
    *settled += 1;
    let dv = side.dist[v];
    if other.labeled(epoch, v) {
        // Any label on the other side is the cost of a real path, so the sum
        // is a valid upper bound on the s→t distance.
        *mu = (*mu).min(dv.saturating_add(other.dist[v]));
    }
    for &(u, _link, cost) in adj.edges(dir, v) {
        let u = u as usize;
        let nd = dv.saturating_add(2 * u64::from(cost));
        if other.labeled(epoch, u) {
            *mu = (*mu).min(nd.saturating_add(other.dist[u]));
        }
        if side.improve(epoch, u, nd) {
            let p = pot.get(landmarks, u);
            let key = match dir {
                Dir::Forward => add_pot(nd, p),
                Dir::Backward => add_pot(nd, -p),
            };
            side.heap.push(Reverse((key, u as u32)));
        }
    }
}

/// What the labels of one router say about "is its true forward distance
/// exactly this target?" after a strictly stopped bidirectional search.
#[derive(Clone, Copy, Debug)]
enum Tight {
    Yes,
    No,
    /// The backward side alone settled the router, at the one distance from
    /// the destination a tight router could have: tight iff the router is on
    /// a shortest source → destination path at all.
    IfOnShortestPath,
}

/// Counters describing the work a [`LazyRouter`] has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LazyRouterStats {
    /// Point-to-point searches run (route-memo misses).
    pub searches: u64,
    /// Routers settled across all searches, by either frontier.
    /// Reconstruction settles nothing: it reads the two search balls.
    pub settled: u64,
    /// Landmark tables built at construction.
    pub landmarks: usize,
}

/// Outcome of a [`LazyRouter::repair_landmarks`] pass (see there for the
/// invariant it restores).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LandmarkRepair {
    /// Landmark tables checked for per-edge consistency.
    pub checks: u64,
    /// Tables that failed the check and were repaired.
    pub repairs: u64,
    /// Table entries lowered across all repairs.
    pub nodes_lowered: u64,
}

/// The per-router state of point queries: both frontiers, the potential
/// cache and the reconstruction's memo, 41 bytes per router. A
/// [`LazyRouter`] allocates it on its first query, so a router that only
/// ever serves row fills never holds one.
#[derive(Debug)]
struct Workspace {
    fwd: SearchSide,
    bwd: SearchSide,
    pot: PotCache,
    /// Memoised "is on a shortest s→t path" verdicts of the current query
    /// for routers only the backward side settled (see `on_shortest_path`).
    on_sp_stamp: Vec<u32>,
    on_sp: Vec<bool>,
    on_sp_stack: Vec<(RouterId, usize)>,
    rev_buf: Vec<DirectedLinkId>,
}

impl Workspace {
    fn new(n: usize) -> Self {
        Workspace {
            fwd: SearchSide::new(n),
            bwd: SearchSide::new(n),
            pot: PotCache::new(n),
            on_sp_stamp: vec![0; n],
            on_sp: vec![false; n],
            on_sp_stack: Vec::new(),
            rev_buf: Vec::new(),
        }
    }

    /// The three-way rule of the module docs' "Reconstruction" section, as
    /// far as `u`'s own labels decide it.
    fn tightness(&self, epoch: u32, src: RouterId, mu: u64, u: RouterId, target: u64) -> Tight {
        if u == src || self.fwd.settled(epoch, u) {
            // Exact forward distance (the source's label is 0 from the start).
            if self.fwd.dist[u] == target {
                Tight::Yes
            } else {
                Tight::No
            }
        } else if self.bwd.settled(epoch, u) && self.bwd.dist[u].checked_add(target) == Some(mu) {
            Tight::IfOnShortestPath
        } else {
            // Settled by neither side, or at the wrong backward distance: a
            // tight `u` would be on a shortest path, `μ − target` from `dst`.
            Tight::No
        }
    }

    /// Whether `u` — settled by the backward side only, no further than `mu`
    /// from `dst` — lies on a shortest `src → dst` path, i.e. whether its
    /// true forward distance is `mu − bwd.dist[u]`: some in-edge `(w → u)`
    /// must be tight against that distance, by the same rule. A `w` that
    /// answers [`Tight::IfOnShortestPath`] is strictly farther from `dst`,
    /// so this is a depth-first walk over the backward ball — iterative,
    /// because nothing smaller bounds its depth — memoised per query.
    fn on_shortest_path(
        &mut self,
        epoch: u32,
        adj: &Adjacency,
        src: RouterId,
        mu: u64,
        u: RouterId,
    ) -> bool {
        let mut stack = std::mem::take(&mut self.on_sp_stack);
        stack.clear();
        if self.on_sp_stamp[u] != epoch {
            stack.push((u, 0));
        }
        while let Some(&(x, resume_at)) = stack.last() {
            let need = mu - self.bwd.dist[x];
            let edges = adj.in_neighbors(x);
            let mut on = false;
            let mut descend = None;
            let mut i = resume_at;
            while i < edges.len() {
                let (w, _link, cost) = edges[i];
                let (w, step) = (w as usize, 2 * u64::from(cost));
                if step <= need {
                    match self.tightness(epoch, src, mu, w, need - step) {
                        Tight::Yes => on = true,
                        Tight::No => {}
                        Tight::IfOnShortestPath if self.on_sp_stamp[w] == epoch => {
                            on = self.on_sp[w];
                        }
                        Tight::IfOnShortestPath => {
                            descend = Some(w);
                            break;
                        }
                    }
                    if on {
                        break;
                    }
                }
                i += 1;
            }
            if let Some(w) = descend {
                // Look at edge `i` again once `w` has a verdict.
                let frame = stack.len() - 1;
                stack[frame].1 = i;
                stack.push((w, 0));
            } else {
                self.on_sp_stamp[x] = epoch;
                self.on_sp[x] = on;
                stack.pop();
            }
        }
        self.on_sp_stack = stack;
        self.on_sp[u]
    }
}

/// On-demand point-to-point router: lazy bidirectional Dijkstra with an
/// optional ALT (landmark) lower-bound mode.
///
/// A query grows a forward frontier from the source and a backward frontier
/// from the destination until every router on a shortest path is settled by
/// one of them (`top_f + top_b > μ`), then reconstructs the *canonical* path
/// by walking tight in-edges back from the destination, deciding tightness
/// from the two balls alone (see "Reconstruction" in the module docs). All
/// distances run in doubled cost units so the landmark potentials stay
/// integral; all per-node state is epoch-stamped so a query does no
/// O(routers) clearing.
///
/// The ALT potentials assume symmetric edge costs (`cost(u→v) == cost(v→u)`),
/// which holds for every topology built from a `NetworkSpec`.
#[derive(Debug)]
pub struct LazyRouter {
    /// Even, bumped by 2 per query: [`SearchSide`] keeps the settled bit in
    /// the low bit of its stamps.
    epoch: u32,
    /// Landmark distance tables, sharable across routers over the same
    /// graph: building them is the only whole-graph precomputation a lazy
    /// router does (a few full Dijkstras — dozens of milliseconds and ~80 KB
    /// per table at paper scale), so parallel experiment harnesses build
    /// them once per topology and hand every per-run router the same `Arc`.
    landmark_dists: Arc<Vec<Vec<u32>>>,
    /// Allocated by the first query.
    workspace: Option<Workspace>,
    path_buf: Vec<DirectedLinkId>,
    searches: u64,
    settled: u64,
}

impl LazyRouter {
    /// Builds a lazy router over `adj`. `landmarks > 0` precomputes that
    /// many farthest-point landmark distance tables (a few full Dijkstras —
    /// the only precomputation; nothing per-source is ever built).
    pub fn new(adj: &Adjacency, landmarks: usize) -> Self {
        Self::with_landmarks(adj, Arc::new(select_landmarks(adj, landmarks)))
    }

    /// Builds a lazy router over `adj` reusing already-computed landmark
    /// distance tables (see [`LazyRouter::new`]; pass an empty vector for
    /// plain bidirectional search). The tables must have been computed over
    /// the same graph, or lower bounds — and therefore paths — would be
    /// wrong. The per-query workspace is private to this router, and
    /// allocated by its first [`LazyRouter::query`]; only the immutable
    /// tables are shared.
    pub fn with_landmarks(adj: &Adjacency, tables: Arc<Vec<Vec<u32>>>) -> Self {
        // A release assert: tables from a different graph would make the ALT
        // lower bounds — and thus every returned path — silently wrong, and
        // the check is a handful of `len` reads per router construction.
        assert!(
            tables.iter().all(|t| t.len() == adj.len()),
            "landmark tables must cover every router of the graph"
        );
        LazyRouter {
            epoch: 0,
            landmark_dists: tables,
            workspace: None,
            path_buf: Vec::new(),
            searches: 0,
            settled: 0,
        }
    }

    /// Work counters.
    pub fn stats(&self) -> LazyRouterStats {
        LazyRouterStats {
            searches: self.searches,
            settled: self.settled,
            landmarks: self.landmark_dists.len(),
        }
    }

    /// The landmark distance tables this router computes potentials from
    /// (raw, unscaled cost units; `u32::MAX` marks an unreachable router).
    pub fn landmark_tables(&self) -> &[Vec<u32>] {
        &self.landmark_dists
    }

    /// Restores landmark admissibility after graph mutations that *improved*
    /// connectivity (edges added or costs lowered), without recomputing any
    /// table from scratch.
    ///
    /// The invariant maintained is per-edge consistency: for every up edge
    /// `(u, v)` of cost `c`, each table satisfies `d[v] ≤ d[u] + c`. By
    /// induction along any path this implies `|d[a] − d[b]|` is a true lower
    /// bound on `dist(a, b)` — the only property ALT needs; the tables never
    /// have to be *exact* distances. Worsening mutations (removals, cost
    /// increases) keep the invariant for free — stale entries are merely too
    /// low, which is still a lower bound — so callers only pass the improved
    /// edges. Consistency can only break *at* an improved edge, so the check
    /// is `O(tables × improved edges)`; a table that fails is repaired with a
    /// decrease-only Dijkstra seeded from the violated edges, touching just
    /// the region whose entries actually drop. Entries decrease monotonically
    /// and never rise, so a cost oscillation that returns an edge to its
    /// original value needs zero repair work.
    ///
    /// `improved` holds `(from, to, new_cost)` directed edges, in raw cost
    /// units; both orientations of a symmetric link must be present when both
    /// changed. Tables are cloned on first write if still shared with sibling
    /// routers ([`LazyRouter::with_landmarks`] sharing stays sound — sharers
    /// keep their own consistent snapshot of the pre-mutation graph).
    ///
    /// # Panics
    ///
    /// Panics if an entry lowered from unreachable does not fit below
    /// `u32::MAX`.
    pub fn repair_landmarks(
        &mut self,
        adj: &Adjacency,
        improved: &[(RouterId, RouterId, u64)],
    ) -> LandmarkRepair {
        let mut out = LandmarkRepair::default();
        if self.landmark_dists.is_empty() || improved.is_empty() {
            return out;
        }
        // Read-only pass first: only clone the shared tables when a repair is
        // actually needed.
        let violated: Vec<usize> = self
            .landmark_dists
            .iter()
            .enumerate()
            .filter_map(|(i, table)| {
                out.checks += 1;
                improved
                    .iter()
                    .any(|&(u, v, c)| {
                        widen_landmark(table[u]).saturating_add(c) < widen_landmark(table[v])
                    })
                    .then_some(i)
            })
            .collect();
        if violated.is_empty() {
            return out;
        }
        let tables = Arc::make_mut(&mut self.landmark_dists);
        let mut heap: BinaryHeap<Reverse<(u64, RouterId)>> = BinaryHeap::new();
        for i in violated {
            out.repairs += 1;
            let dist = &mut tables[i];
            heap.clear();
            for &(u, v, c) in improved {
                let nd = widen_landmark(dist[u]).saturating_add(c);
                if nd < widen_landmark(dist[v]) {
                    dist[v] = landmark_entry(nd);
                    heap.push(Reverse((nd, v)));
                }
            }
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > widen_landmark(dist[u]) {
                    continue;
                }
                out.nodes_lowered += 1;
                for &(v, _, cost) in adj.neighbors(u) {
                    let (v, nd) = (v as usize, d.saturating_add(u64::from(cost)));
                    if nd < widen_landmark(dist[v]) {
                        dist[v] = landmark_entry(nd);
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
        out
    }

    /// Computes the canonical shortest path from `src` to `dst`, returning
    /// its cost and directed link sequence (borrowed from an internal
    /// buffer), or `None` if unreachable. Identical to
    /// [`ShortestPaths::path_to`] on the same graph. The first query
    /// allocates the router's workspace.
    pub fn query(
        &mut self,
        adj: &Adjacency,
        src: RouterId,
        dst: RouterId,
    ) -> Option<(u64, &[DirectedLinkId])> {
        self.path_buf.clear();
        if src == dst {
            return Some((0, &self.path_buf));
        }
        self.searches += 1;
        self.epoch = self.epoch.checked_add(2).expect("routing epoch overflow");
        let epoch = self.epoch;
        let ws = (self.workspace).get_or_insert_with(|| Workspace::new(adj.len()));
        let landmarks = &self.landmark_dists;
        ws.pot.begin(epoch, landmarks, src, dst);
        ws.fwd.heap.clear();
        ws.bwd.heap.clear();

        let ps = ws.pot.get(landmarks, src);
        ws.fwd.improve(epoch, src, 0);
        ws.fwd.heap.push(Reverse((add_pot(0, ps), src as u32)));
        let pd = ws.pot.get(landmarks, dst);
        ws.bwd.improve(epoch, dst, 0);
        ws.bwd.heap.push(Reverse((add_pot(0, -pd), dst as u32)));

        // Phase 1: alternate the cheaper frontier until the meeting bound
        // is proven optimal. With consistent potentials the per-node keys
        // satisfy `true_dist(v) + p(v) ≥ top`, so once `top_f + top_b > μ`
        // no node both sides left unsettled can lie on a path of cost ≤ μ
        // (the potentials cancel in the sum). The stop is strict because
        // phase 2 needs the tying paths' routers settled too.
        let mut mu = u64::MAX;
        loop {
            let kf = ws.fwd.peek_fresh(epoch);
            let kb = ws.bwd.peek_fresh(epoch);
            if mu == u64::MAX {
                // A frontier exhausted before the searches met: if the
                // destination were reachable it would have been settled (and
                // μ set) by the exhausted side.
                if kf.is_none() || kb.is_none() {
                    return None;
                }
            } else if kf
                .unwrap_or(u64::MAX)
                .saturating_add(kb.unwrap_or(u64::MAX))
                > mu
            {
                break;
            }
            let (dir, side, other) = if kf.unwrap_or(u64::MAX) <= kb.unwrap_or(u64::MAX) {
                (Dir::Forward, &mut ws.fwd, &ws.bwd)
            } else {
                (Dir::Backward, &mut ws.bwd, &ws.fwd)
            };
            advance(
                epoch,
                adj,
                dir,
                side,
                other,
                &mut ws.pot,
                landmarks,
                &mut mu,
                &mut self.settled,
            );
        }

        // Phase 2: canonical reconstruction. Walk back from the destination
        // choosing, at every node, the tight in-edge with the smallest link
        // id — exactly the whole-graph search's tie-break. Tightness of an
        // in-neighbor is read off the two balls phase 1 left behind; no
        // search is resumed.
        let mut rev = std::mem::take(&mut ws.rev_buf);
        rev.clear();
        let mut v = dst;
        let mut dv = mu;
        while v != src {
            let mut best: Option<(DirectedLinkId, RouterId, u64)> = None;
            for &(u, link, cost) in adj.in_neighbors(v) {
                let (u, link) = (u as usize, link as usize);
                if let Some((best_link, _, _)) = best {
                    if link >= best_link {
                        continue; // only a smaller link id can win
                    }
                }
                let step = 2 * u64::from(cost);
                if step > dv {
                    continue;
                }
                // Is `u`'s true forward (scaled) distance exactly `target`?
                let target = dv - step;
                let tight = match ws.tightness(epoch, src, mu, u, target) {
                    Tight::Yes => true,
                    Tight::No => false,
                    Tight::IfOnShortestPath => ws.on_shortest_path(epoch, adj, src, mu, u),
                };
                if tight {
                    best = Some((link, u, target));
                }
            }
            let (link, u, target) =
                best.expect("a shortest path always has a tight canonical predecessor");
            rev.push(link);
            v = u;
            dv = target;
        }
        self.path_buf.extend(rev.iter().rev());
        ws.rev_buf = rev;
        Some((mu / 2, &self.path_buf))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::link::LinkSpec;
    use crate::network::{Network, NetworkSpec, RouteId};
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    /// `(a, b, cost)`, for both directions.
    type UndirectedEdge = (RouterId, RouterId, u64);

    /// `(from, to, link, cost)`.
    type DirectedEdge = (RouterId, RouterId, DirectedLinkId, u64);

    /// The digraph of `n` routers whose live edges are `edges`, with a down
    /// slot reserved for each of `reserved`.
    fn digraph_reserving(n: usize, edges: &[DirectedEdge], reserved: &[DirectedEdge]) -> Adjacency {
        let up = edges
            .iter()
            .map(|&(a, b, link, cost)| (a, b, link, cost, true));
        let down = reserved
            .iter()
            .map(|&(a, b, link, cost)| (a, b, link, cost, false));
        Adjacency::new(n, up.chain(down))
    }

    fn digraph(n: usize, edges: &[DirectedEdge]) -> Adjacency {
        digraph_reserving(n, edges, &[])
    }

    /// The directed edges of an undirected edge list: edge `i` is directed
    /// link `2 * i` from `a` to `b` and `2 * i + 1` back, as a
    /// [`NetworkSpec`] numbers them.
    fn symmetric_edges(edges: &[UndirectedEdge]) -> Vec<DirectedEdge> {
        (edges.iter().enumerate())
            .flat_map(|(i, &(a, b, cost))| [(a, b, 2 * i, cost), (b, a, 2 * i + 1, cost)])
            .collect()
    }

    fn symmetric_adjacency(n: usize, edges: &[UndirectedEdge]) -> Adjacency {
        digraph(n, &symmetric_edges(edges))
    }

    /// The unit-cost line 0 - 1 - … - `n - 1`.
    fn line_edges(n: usize) -> Vec<UndirectedEdge> {
        (0..n - 1).map(|i| (i, i + 1, 1)).collect()
    }

    /// Builds a line topology 0 - 1 - 2 - 3 with unit costs, where the
    /// directed link id from i to i+1 is `2*i` and the reverse is `2*i+1`.
    fn line(n: usize) -> Adjacency {
        symmetric_adjacency(n, &line_edges(n))
    }

    #[test]
    fn path_on_a_line() {
        let adj = line(4);
        let sp = ShortestPaths::compute(&adj, 0);
        assert_eq!(sp.path_to(&adj, 3), Some((3, vec![0, 2, 4])));
        assert_eq!(sp.path_to(&adj, 0), Some((0, vec![])));
    }

    #[test]
    fn unreachable_node_reports_none() {
        let adj = digraph(3, &[(0, 1, 0, 1), (1, 0, 1, 1)]);
        let sp = ShortestPaths::compute(&adj, 0);
        assert_eq!(sp.path_to(&adj, 2), None);
        let mut lazy = LazyRouter::new(&adj, 0);
        assert!(lazy.query(&adj, 0, 2).is_none());
        let mut alt = LazyRouter::new(&adj, 2);
        assert!(alt.query(&adj, 0, 2).is_none());
    }

    #[test]
    fn picks_cheaper_of_two_routes() {
        // 0 -> 1 -> 2 costs 2; direct 0 -> 2 costs 5.
        let adj = digraph(3, &[(0, 1, 0, 1), (1, 2, 1, 1), (0, 2, 2, 5)]);
        let sp = ShortestPaths::compute(&adj, 0);
        assert_eq!(sp.path_to(&adj, 2), Some((2, vec![0, 1])));
        let mut lazy = LazyRouter::new(&adj, 0);
        let (cost, path) = lazy.query(&adj, 0, 2).unwrap();
        assert_eq!(cost, 2);
        assert_eq!(path, &[0, 1]);
    }

    #[test]
    fn reverse_direction_uses_reverse_links() {
        let adj = line(3);
        let sp = ShortestPaths::compute(&adj, 2);
        assert_eq!(sp.path_to(&adj, 0), Some((2, vec![3, 1])));
        let mut lazy = LazyRouter::new(&adj, 0);
        assert_eq!(lazy.query(&adj, 2, 0).unwrap().1, &[3, 1]);
    }

    #[test]
    fn equal_cost_diamond_resolves_to_the_canonical_path() {
        // Two equal-cost paths 0→1→3 (links 0,4) and 0→2→3 (links 2,6).
        // The canonical rule (smallest tight in-link at every node, walking
        // back from the destination) picks link 4 into node 3, so the route
        // is [0, 4] — for the reference and both lazy modes.
        let adj = symmetric_adjacency(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
        let sp = ShortestPaths::compute(&adj, 0);
        assert_eq!(sp.path_to(&adj, 3), Some((2, vec![0, 4])));
        let mut bidi = LazyRouter::new(&adj, 0);
        assert_eq!(bidi.query(&adj, 0, 3).unwrap(), (2, &[0, 4][..]));
        let mut alt = LazyRouter::new(&adj, 3);
        assert_eq!(alt.query(&adj, 0, 3).unwrap(), (2, &[0, 4][..]));
    }

    /// A [`heap_model`] result: each router's distance, and its canonical
    /// predecessor router and link.
    type ModelTree = (Vec<u64>, Vec<Option<(RouterId, DirectedLinkId)>>);

    /// The reference model of [`dijkstra`]: the binary-heap search it
    /// replaced. Distances from `root` (to it, for [`Dir::Backward`]) and
    /// the canonical predecessors.
    fn heap_model(adj: &Adjacency, root: RouterId, dir: Dir) -> ModelTree {
        let n = adj.len();
        let mut dist = vec![u64::MAX; n];
        let mut prev: Vec<Option<(RouterId, DirectedLinkId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[root] = 0;
        heap.push(Reverse((0u64, root)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, link, cost) in adj.edges(dir, u) {
                let (v, link, nd) = (v as usize, link as usize, d.saturating_add(u64::from(cost)));
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = Some((u, link));
                    heap.push(Reverse((nd, v)));
                } else if nd == dist[v] && nd != u64::MAX {
                    if let Some((_, prev_link)) = prev[v] {
                        if link < prev_link {
                            prev[v] = Some((u, link));
                        }
                    }
                }
            }
        }
        (dist, prev)
    }

    /// A seeded digraph for the kernel harness, over the cost range `costs`
    /// (log-uniform): a core ring and chords with independent per-direction
    /// costs, some one-way, some parallel; leaf chains hanging off the core
    /// (degree-1 routers); one-way chains and routers with no way back
    /// (directed dead ends); and routers the core cannot reach. Link ids are
    /// shuffled so that the first tight in-edge found is seldom the
    /// canonical one. Returns the router count and the edges.
    fn random_digraph(rng: &mut SimRng, costs: (u64, u64)) -> (usize, Vec<DirectedEdge>) {
        let cost = |rng: &mut SimRng| {
            let (lo, hi) = (costs.0 as f64, costs.1 as f64);
            ((lo.ln() + rng.next_f64() * (hi.ln() - lo.ln())).exp() as u64).clamp(costs.0, costs.1)
        };
        let core = rng.range_usize(4, 30);
        let mut edges: Vec<(RouterId, RouterId, u64)> = Vec::new();
        let mut n = core;
        for i in 0..core {
            let j = (i + 1) % core;
            edges.push((i, j, cost(rng)));
            if !rng.chance(0.15) {
                edges.push((j, i, cost(rng)));
            }
        }
        for _ in 0..core {
            let (a, b) = (rng.range_usize(0, core), rng.range_usize(0, core));
            edges.push((a, b, cost(rng)));
            if rng.chance(0.5) {
                edges.push((b, a, cost(rng)));
            }
            if rng.chance(0.2) {
                edges.push((a, b, cost(rng))); // a parallel edge
            }
        }
        for _ in 0..rng.range_usize(1, 5) {
            // A leaf chain both ways, or a one-way chain ending in a sink or
            // in a router whose one out-edge leads elsewhere.
            let one_way = rng.chance(0.4);
            let mut at = rng.range_usize(0, core);
            for _ in 0..rng.range_usize(1, 4) {
                edges.push((at, n, cost(rng)));
                if !one_way {
                    edges.push((n, at, cost(rng)));
                }
                at = n;
                n += 1;
            }
            if one_way && rng.chance(0.5) {
                edges.push((at, rng.range_usize(0, core), cost(rng)));
            }
        }
        // Routers the core cannot reach: isolated ones, and a pair whose
        // only edges lead into the core.
        n += rng.range_usize(0, 3);
        edges.push((n, n + 1, cost(rng)));
        edges.push((n + 1, n, cost(rng)));
        edges.push((n + 1, rng.range_usize(0, core), cost(rng)));
        n += 2;
        let mut links: Vec<DirectedLinkId> = (0..edges.len()).collect();
        rng.shuffle(&mut links);
        let edges = (edges.iter().zip(&links))
            .map(|(&(a, b, c), &link)| (a, b, link, c))
            .collect();
        (n, edges)
    }

    /// [`dijkstra`] with predecessors, [`Adjacency::distances_from`] and
    /// [`Adjacency::distances_to`] against [`heap_model`], from every root:
    /// equal distances, and equal predecessor links for every router.
    fn assert_kernel_matches_model(adj: &Adjacency, label: &str) {
        for root in 0..adj.len() {
            let model = heap_model(adj, root, Dir::Forward);
            assert_tree_matches(adj, root, &model, label);
            assert_eq!(adj.distances_from(root), model.0, "{label}: from {root}");
            let (to, _) = heap_model(adj, root, Dir::Backward);
            assert_eq!(adj.distances_to(root), to, "{label}: distances to {root}");
        }
    }

    /// The tree [`ShortestPaths::compute`] builds from `root` over `adj`,
    /// and the distances [`dijkstra`] finds on the way, are a [`heap_model`]
    /// tree's: equal distances, equal predecessor links.
    fn assert_tree_matches(adj: &Adjacency, root: RouterId, (dist, prev): &ModelTree, label: &str) {
        let model_prev: Vec<u32> = (prev.iter())
            .map(|p| p.map_or(NO_LINK, |(_, link)| link as u32))
            .collect();
        let mut kernel_prev = vec![NO_LINK; adj.len()];
        let kernel_dist = dijkstra(adj, root, Dir::Forward, &mut kernel_prev);
        assert_eq!(&kernel_dist, dist, "{label}: distances from {root}");
        assert_eq!(kernel_prev, model_prev, "{label}: predecessors from {root}");
        assert_eq!(
            ShortestPaths::compute(adj, root).prev,
            model_prev,
            "{label}: tree"
        );
    }

    /// The slots under seeded mutation, against a model: 64 digraphs of
    /// [`random_digraph`], a fifth of their links starting down, each put
    /// through 300 steps of `remove_edge`, `add_edge` and `set_edge_cost` on
    /// random links. Repeats, both directions of a pair and patches of a down
    /// link all come up. After every step each router's live out- and
    /// in-edges equal the model's `BTreeSet`s, and [`ShortestPaths::compute`]
    /// from three roots equals [`heap_model`] on the model's graph built
    /// afresh.
    ///
    /// Mutants this test kills, each checked by hand:
    /// - `remove_edge` that skips the in-half;
    /// - `add_edge` writing at the range's start instead of after the live
    ///   prefix;
    /// - `remove_edge` that shrinks the live prefix without the swap.
    #[test]
    fn adjacency_mutation_matches_a_btreeset_model() {
        let mut rng = SimRng::new(0xAD7AC);
        for case in 0..64 {
            let costs = [(1, 3), (500, 40_000), (1, 10_000_000)][case % 3];
            let (n, edges) = random_digraph(&mut rng, costs);
            // Each edge's current cost, `None` while it is down.
            let mut now: Vec<Option<u64>> = (edges.iter())
                .map(|e| (!rng.chance(0.2)).then_some(e.3))
                .collect();
            let mut adj = Adjacency::new(
                n,
                (edges.iter().zip(&now))
                    .map(|(&(a, b, link, c), now)| (a, b, link, c, now.is_some())),
            );
            for step in 0..300 {
                let e = rng.range_usize(0, edges.len());
                let (a, b, link, _) = edges[e];
                let cost = costs.0 + rng.next_below(costs.1 - costs.0 + 1);
                match rng.range_usize(0, 3) {
                    0 => {
                        adj.remove_edge(a, b, link);
                        now[e] = None;
                    }
                    1 if now[e].is_none() => {
                        adj.add_edge(a, b, link, cost);
                        now[e] = Some(cost);
                    }
                    _ => {
                        adj.set_edge_cost(a, b, link, cost);
                        now[e] = now[e].map(|_| cost);
                    }
                }
                let live: Vec<DirectedEdge> = (edges.iter().zip(&now))
                    .filter_map(|(&(a, b, link, _), c)| c.map(|c| (a, b, link, c)))
                    .collect();
                let mut model_out = vec![BTreeSet::new(); n];
                let mut model_in = vec![BTreeSet::new(); n];
                for &(a, b, link, c) in &live {
                    model_out[a].insert((b as u32, link as u32, c as u32));
                    model_in[b].insert((a as u32, link as u32, c as u32));
                }
                let label = format!("case {case}, step {step}");
                for r in 0..n {
                    for (got, want) in [
                        (adj.neighbors(r), &model_out[r]),
                        (adj.in_neighbors(r), &model_in[r]),
                    ] {
                        let mut got = got.to_vec();
                        got.sort_unstable();
                        assert!(got.iter().eq(want), "{label}: router {r}: {got:?}");
                    }
                }
                let fresh = digraph(n, &live);
                for root in [0, n / 2, n - 1] {
                    let model = heap_model(&fresh, root, Dir::Forward);
                    assert_tree_matches(&adj, root, &model, &label);
                }
            }
        }
    }

    /// The bucket-queue kernel is exact: on seeded digraphs of three cost
    /// ranges (tie-heavy 1–3; 500 µs–40 ms like the generated topologies;
    /// 1 µs–10 s, which makes the bucket width exceed the cheapest edge and
    /// the kernel label-correcting) and on the 7×7 unit grid, it agrees with
    /// the binary-heap model from every root.
    ///
    /// Mutants this test kills, each checked by hand:
    /// - the tie-break applied only on strict improvement;
    /// - no re-queue into the bucket being drained when `w > min_cost`;
    /// - the dead-end skip without its "leads back to `u`" check.
    #[test]
    fn bucket_kernel_matches_a_binary_heap_model() {
        let mut rng = SimRng::new(0xB0C4E7);
        let mut label_correcting = 0;
        for case in 0..64 {
            for costs in [(1, 3), (500, 40_000), (1, 10_000_000)] {
                let (n, edges) = random_digraph(&mut rng, costs);
                let adj = digraph(n, &edges);
                label_correcting += usize::from(adj.max_cost.div_ceil(MAX_BUCKETS) > adj.min_cost);
                assert_kernel_matches_model(&adj, &format!("case {case}, costs {costs:?}"));
            }
        }
        assert!(
            label_correcting >= 32,
            "only {label_correcting} wide-spread cases"
        );
        let side = 7;
        let mut grid = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    grid.push((y * side + x, y * side + x + 1, 1));
                }
                if y + 1 < side {
                    grid.push((y * side + x, (y + 1) * side + x, 1));
                }
            }
        }
        assert_kernel_matches_model(&symmetric_adjacency(side * side, &grid), "7x7 grid");
    }

    /// Every ordered pair of `adj` must route — cost and hop sequence — as the
    /// reference Dijkstra does, on a lazy router with each of the given
    /// landmark counts (0 is plain bidirectional search).
    fn assert_all_pairs_canonical(adj: &Adjacency, landmark_counts: &[usize], label: &str) {
        let mut routers: Vec<LazyRouter> = landmark_counts
            .iter()
            .map(|&landmarks| LazyRouter::new(adj, landmarks))
            .collect();
        for src in 0..adj.len() {
            let sp = ShortestPaths::compute(adj, src);
            for dst in 0..adj.len() {
                let want = sp.path_to(adj, dst);
                for (router, landmarks) in routers.iter_mut().zip(landmark_counts) {
                    let got = router.query(adj, src, dst).map(|(c, p)| (c, p.to_vec()));
                    assert_eq!(got, want, "{label}: {src}->{dst}, {landmarks} landmarks");
                }
            }
        }
    }

    /// A random graph with tiny integer costs (maximally tie-heavy): a ring
    /// keeps most of it connected, chords add ties.
    fn random_tie_heavy_edges(rng: &mut SimRng) -> (usize, Vec<UndirectedEdge>) {
        let n = 8 + (rng.next_u64() % 40) as usize;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n, 1 + rng.next_u64() % 3));
        }
        for _ in 0..n {
            let a = (rng.next_u64() % n as u64) as usize;
            let b = (rng.next_u64() % n as u64) as usize;
            if a != b {
                edges.push((a, b, 1 + rng.next_u64() % 3));
            }
        }
        (n, edges)
    }

    /// Random tie-heavy graphs must give identical paths from the reference
    /// and both lazy modes, for every pair.
    #[test]
    fn lazy_matches_reference_on_random_tie_heavy_graphs() {
        let mut rng = SimRng::new(0xD1785);
        for case in 0..30 {
            let (n, edges) = random_tie_heavy_edges(&mut rng);
            let adj = symmetric_adjacency(n, &edges);
            assert_all_pairs_canonical(&adj, &[0, 3], &format!("case {case}"));
        }
    }

    /// Undirected edge lists of three shapes built to defeat a
    /// reconstruction that reads the two search balls, each with its router
    /// count: a unit-cost torus (every pair has many shortest paths, through
    /// routers neither side need settle to find *one*), a ring of rings with
    /// a leaf on every router (the transit-stub shape: every query starts
    /// and ends on a degree-one router), and a unit-cost grid whose last
    /// router `far_source` hangs off its first column by long spokes.
    fn tie_adversarial_shapes() -> Vec<(&'static str, usize, Vec<UndirectedEdge>)> {
        let (w, h) = (7, 6);
        let mut torus = Vec::new();
        for y in 0..h {
            for x in 0..w {
                torus.push((y * w + x, y * w + (x + 1) % w, 1));
                torus.push((y * w + x, ((y + 1) % h) * w + x, 1));
            }
        }
        let (rings, len) = (5, 6);
        let mut ring_of_rings = Vec::new();
        for r in 0..rings {
            // Router `r * len` is ring `r`'s hub on the core ring.
            ring_of_rings.push((r * len, ((r + 1) % rings) * len, 1));
            for i in 0..len {
                ring_of_rings.push((r * len + i, r * len + (i + 1) % len, 1));
                ring_of_rings.push((r * len + i, rings * len + r * len + i, 1));
            }
        }
        let side = 6;
        let far_source = side * side;
        let mut spokes = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    spokes.push((y * side + x, y * side + x + 1, 1));
                }
                if y + 1 < side {
                    spokes.push((y * side + x, (y + 1) * side + x, 1));
                }
            }
            spokes.push((far_source, y * side, 50));
        }
        vec![
            ("torus", w * h, torus),
            ("ring-of-rings", 2 * rings * len, ring_of_rings),
            ("far-source", far_source + 1, spokes),
        ]
    }

    /// The canonical path is rebuilt from the two search balls without
    /// resuming a search (module docs, "Reconstruction"), so these shapes
    /// must route hop for hop like the reference for every ordered pair:
    /// symmetric under plain bidirectional search and ALT, and as directed
    /// graphs with independent per-direction costs (and some one-way edges)
    /// under plain bidirectional search, since the argument never uses
    /// symmetry. On the far-source shape an unguided forward ball is the
    /// source alone — everything past it is dearer than the whole grid — so
    /// every other path router is decided by the backward-settled rule and
    /// the on-shortest-path walk runs the length of the path. (The source
    /// itself is never backward-only: both sides open with the same key and
    /// the forward side takes the tie.)
    ///
    /// Mutants this test kills, each checked by hand against this test and
    /// `lazy_matches_reference_on_random_tie_heavy_graphs`:
    /// - `>=` instead of `>` at the phase-1 stop;
    /// - dropping the `bwd.dist[u] + target == μ` guard where the path walk
    ///   asks (a backward-settled `u` that is on a shortest path, but past
    ///   `v`, passes for tight); inside the on-shortest-path walk the same
    ///   guard is what makes backward distances grow, so dropping it there
    ///   does not terminate, and relaxing `==` to `>=` changes nothing
    ///   (`dist(s,u) ≥ target` always, by the triangle inequality);
    /// - dropping the on-shortest-path walk (`IfOnShortestPath` ⇒ tight);
    /// - treating "settled by neither side" as tight.
    #[test]
    fn reconstruction_matches_reference_on_tie_adversarial_graphs() {
        let mut rng = SimRng::new(0x71E5);
        for (label, n, edges) in tie_adversarial_shapes() {
            let symmetric = symmetric_adjacency(n, &edges);
            let mut one_way = Vec::new();
            for (i, &(a, b, cost)) in edges.iter().enumerate() {
                one_way.push((a, b, 2 * i, cost + rng.next_below(2)));
                if !rng.chance(0.1) {
                    one_way.push((b, a, 2 * i + 1, cost + rng.next_below(2)));
                }
            }
            let directed = digraph(n, &one_way);
            assert_all_pairs_canonical(&symmetric, &[0, 3], label);
            assert_all_pairs_canonical(&directed, &[0], &format!("{label}/directed"));

            if label == "far-source" {
                let mut router = LazyRouter::new(&symmetric, 0);
                let (cost, path) = router.query(&symmetric, n - 1, n - 2).unwrap();
                let hops = path.len();
                assert_eq!((cost, hops), (55, 6));
                let ball =
                    |side: &SearchSide| (0..n).filter(|&v| side.settled(router.epoch, v)).count();
                let ws = router.workspace.as_ref().expect("a query ran");
                assert_eq!(ball(&ws.fwd), 1, "the forward ball is the source alone");
                assert!(ball(&ws.bwd) >= hops);
            }
        }
    }

    /// The frontier as the search kept it before it dropped the key, the
    /// model of [`SearchSide`]: each router's freshest heap key and the
    /// epoch it was settled in, beside its distance and stamp. An entry is
    /// stale unless its router is labelled, unsettled and holds its key.
    struct KeyedSide {
        dist: Vec<u64>,
        key: Vec<u64>,
        stamp: Vec<u32>,
        settled_at: Vec<u32>,
        heap: BinaryHeap<Reverse<(u64, u32)>>,
    }

    impl KeyedSide {
        const EPOCH: u32 = 1;

        fn new(n: usize) -> Self {
            KeyedSide {
                dist: vec![0; n],
                key: vec![0; n],
                stamp: vec![0; n],
                settled_at: vec![0; n],
                heap: BinaryHeap::new(),
            }
        }

        fn labeled(&self, v: RouterId) -> bool {
            self.stamp[v] == Self::EPOCH
        }

        fn stale(&self, key: u64, v: RouterId) -> bool {
            !self.labeled(v) || self.settled_at[v] == Self::EPOCH || key != self.key[v]
        }

        fn label(&mut self, v: RouterId, dist: u64, key: u64) {
            self.stamp[v] = Self::EPOCH;
            self.dist[v] = dist;
            self.key[v] = key;
            self.heap.push(Reverse((key, v as u32)));
        }

        fn peek_fresh(&mut self) -> Option<u64> {
            while let Some(&Reverse((key, v))) = self.heap.peek() {
                if !self.stale(key, v as usize) {
                    return Some(key);
                }
                self.heap.pop();
            }
            None
        }
    }

    /// The landmark potential of `v` for a query from `src` to `dst`, read
    /// straight off the tables: the model of [`PotCache`].
    fn model_potential(tables: &[Vec<u32>], src: RouterId, dst: RouterId, v: RouterId) -> i64 {
        let bound = |a: RouterId, b: RouterId| {
            (tables.iter())
                .filter(|t| t[a] != u32::MAX && t[b] != u32::MAX)
                .map(|t| (i64::from(t[a]) - i64::from(t[b])).abs())
                .max()
                .unwrap_or(0)
        };
        bound(v, dst) - bound(v, src)
    }

    /// What phase 1 of a point query left with keyed frontiers: the meeting
    /// cost `μ` in scaled units (`None` if unreachable), the routers settled,
    /// and each side's settled set.
    type KeyedOutcome = (Option<u64>, u64, Vec<bool>, Vec<bool>);

    /// Phase 1 of [`LazyRouter::query`] over [`KeyedSide`]s, as it ran
    /// before the key was dropped.
    fn keyed_model_search(
        adj: &Adjacency,
        tables: &[Vec<u32>],
        src: RouterId,
        dst: RouterId,
    ) -> KeyedOutcome {
        let n = adj.len();
        let pot = |v: RouterId| model_potential(tables, src, dst, v);
        let (mut fwd, mut bwd) = (KeyedSide::new(n), KeyedSide::new(n));
        fwd.label(src, 0, add_pot(0, pot(src)));
        bwd.label(dst, 0, add_pot(0, -pot(dst)));
        let (mut mu, mut settled) = (u64::MAX, 0);
        loop {
            let (kf, kb) = (fwd.peek_fresh(), bwd.peek_fresh());
            if mu == u64::MAX {
                if kf.is_none() || kb.is_none() {
                    break;
                }
            } else if kf
                .unwrap_or(u64::MAX)
                .saturating_add(kb.unwrap_or(u64::MAX))
                > mu
            {
                break;
            }
            let (dir, side, other) = if kf.unwrap_or(u64::MAX) <= kb.unwrap_or(u64::MAX) {
                (Dir::Forward, &mut fwd, &bwd)
            } else {
                (Dir::Backward, &mut bwd, &fwd)
            };
            while let Some(Reverse((key, v))) = side.heap.pop() {
                let v = v as usize;
                if side.stale(key, v) {
                    continue;
                }
                side.settled_at[v] = KeyedSide::EPOCH;
                settled += 1;
                let dv = side.dist[v];
                if other.labeled(v) {
                    mu = mu.min(dv.saturating_add(other.dist[v]));
                }
                for &(u, _, cost) in adj.edges(dir, v) {
                    let (u, nd) = (u as usize, dv + 2 * u64::from(cost));
                    if other.labeled(u) {
                        mu = mu.min(nd.saturating_add(other.dist[u]));
                    }
                    if !side.labeled(u) || nd < side.dist[u] {
                        let key = match dir {
                            Dir::Forward => add_pot(nd, pot(u)),
                            Dir::Backward => add_pot(nd, -pot(u)),
                        };
                        side.label(u, nd, key);
                    }
                }
                break;
            }
        }
        let ball = |side: &KeyedSide| {
            (0..n)
                .map(|v| side.settled_at[v] == KeyedSide::EPOCH)
                .collect()
        };
        let mu = (mu != u64::MAX).then_some(mu);
        (mu, settled, ball(&fwd), ball(&bwd))
    }

    /// The keyless frontiers search exactly as the keyed ones did. On
    /// symmetric graphs made from the kernel harness's digraphs (every edge
    /// both ways at one cost, in its three cost ranges), with 0, 2 and 8
    /// landmarks, every query equals [`keyed_model_search`]: the same cost,
    /// the same settled count and the same two settled balls — so the same
    /// reconstruction — and a path equal to the reference tree's.
    ///
    /// Mutants this test kills, each checked by hand:
    /// - dropping the settled check in `peek_fresh`;
    /// - leaving the potential out of the heap key;
    /// - setting the settled bit on the other side.
    #[test]
    fn keyless_search_matches_the_keyed_model() {
        let mut rng = SimRng::new(0x4E71E55);
        for case in 0..18 {
            let costs = [(1, 3), (500, 40_000), (1, 10_000_000)][case % 3];
            let (n, directed) = random_digraph(&mut rng, costs);
            let edges: Vec<UndirectedEdge> = (directed.iter())
                .map(|&(a, b, _, cost)| (a, b, cost))
                .collect();
            let adj = symmetric_adjacency(n, &edges);
            for landmarks in [0, 2, 8] {
                let mut router = LazyRouter::new(&adj, landmarks);
                for src in 0..n {
                    let reference = ShortestPaths::compute(&adj, src);
                    for dst in (0..n).filter(|&dst| dst != src) {
                        let label = format!("case {case}, {landmarks} landmarks: {src}->{dst}");
                        let before = router.stats().settled;
                        let got = router.query(&adj, src, dst).map(|(c, p)| (c, p.to_vec()));
                        let settled = router.stats().settled - before;
                        let (mu, model_settled, fwd, bwd) =
                            keyed_model_search(&adj, router.landmark_tables(), src, dst);
                        let want = reference.path_to(&adj, dst);
                        assert_eq!(got, want, "{label}");
                        assert_eq!(mu.map(|mu| mu / 2), want.map(|(cost, _)| cost), "{label}");
                        assert_eq!(settled, model_settled, "{label}: settled count");
                        let ws = router.workspace.as_ref().expect("a query ran");
                        let ball = |side: &SearchSide| -> Vec<bool> {
                            (0..n).map(|v| side.settled(router.epoch, v)).collect()
                        };
                        assert_eq!(ball(&ws.fwd), fwd, "{label}: forward ball");
                        assert_eq!(ball(&ws.bwd), bwd, "{label}: backward ball");
                    }
                }
            }
        }
    }

    /// Costs and landmark distances are stored in `u32`s. A cost above
    /// `u32::MAX` panics where it enters the graph, naming the link.
    #[test]
    #[should_panic(expected = "directed link 3: routing cost 4294967296 us")]
    fn a_cost_beyond_u32_panics_naming_the_link() {
        let at_max = u64::from(u32::MAX);
        let adj = digraph(2, &[(0, 1, 2, at_max)]);
        assert_eq!(adj.neighbors(0), &[(1, 2, u32::MAX)]);
        digraph(2, &[(0, 1, 2, at_max), (1, 0, 3, at_max + 1)]);
    }

    /// The widest finite landmark entry, `u32::MAX - 1`, round-trips exactly
    /// and bounds a query exactly; `u32::MAX` is the unreachable sentinel,
    /// so a finite distance that large panics.
    #[test]
    fn a_landmark_distance_of_u32_max_minus_one_round_trips() {
        let far = u64::from(u32::MAX) - 1;
        let adj = symmetric_adjacency(3, &[(0, 1, far - 1), (1, 2, 1)]);
        let tables = select_landmarks(&adj, 2);
        assert_eq!(tables, [vec![u32::MAX - 1, 1, 0], vec![u32::MAX - 2, 0, 1]]);
        for table in &tables {
            let landmark = table.iter().position(|&d| d == 0).unwrap();
            let widened: Vec<u64> = table.iter().copied().map(widen_landmark).collect();
            assert_eq!(widened, adj.distances_from(landmark));
        }
        let mut router = LazyRouter::new(&adj, 2);
        assert_eq!(router.query(&adj, 2, 0), Some((far, &[3, 1][..])));
        assert_eq!(widen_landmark(landmark_entry(u64::MAX)), u64::MAX);
        let overflow = std::panic::catch_unwind(|| landmark_entry(u64::from(u32::MAX)));
        assert!(
            overflow.is_err(),
            "a finite u32::MAX would read as unreachable"
        );
    }

    #[test]
    fn lazy_router_counts_its_work() {
        let adj = line(6);
        let mut lazy = LazyRouter::new(&adj, 0);
        assert_eq!(lazy.stats(), LazyRouterStats::default());
        lazy.query(&adj, 0, 5).unwrap();
        let stats = lazy.stats();
        assert_eq!(stats.searches, 1);
        assert!(stats.settled > 0 && stats.settled <= 12);
        // Same-router queries do not run a search.
        lazy.query(&adj, 2, 2).unwrap();
        assert_eq!(lazy.stats().searches, 1);
    }

    #[test]
    fn landmark_selection_spreads_and_caps() {
        let adj = line(10);
        let tables = select_landmarks(&adj, 3);
        assert_eq!(tables.len(), 3);
        // The first landmark is the node farthest from router 0.
        assert_eq!(tables[0][9], 0);
        // More landmarks than routers caps out.
        let small = line(2);
        assert!(select_landmarks(&small, 8).len() <= 2);
    }

    /// A [`RoutingMode::LazyAlt`] network over an undirected edge list (a
    /// cost is a delay in microseconds) with participant `r` on router `r`,
    /// so participant pairs are router pairs and link ids are
    /// [`symmetric_adjacency`]'s.
    fn lazy_network(n: usize, edges: &[UndirectedEdge], landmarks: usize) -> Network {
        let mut spec = NetworkSpec::new(n);
        for &(a, b, cost) in edges {
            spec.add_link(LinkSpec::new(a, b, 1e6, SimDuration::from_micros(cost)));
        }
        for r in 0..n {
            spec.attach(r);
        }
        Network::with_routing(&spec, RoutingMode::LazyAlt { landmarks })
    }

    /// `from → to` through a row fill, as an owned link sequence.
    fn batched_path(net: &mut Network, from: usize, to: usize) -> Option<Vec<DirectedLinkId>> {
        let id = net.route_batched(from, to)?;
        let links = net.route_links(id);
        Some(links.iter().map(|&link| link as DirectedLinkId).collect())
    }

    // In a lazy-mode network a row fill runs the reference Dijkstra and a
    // point query runs `LazyRouter::query`: the four tests below compare two
    // implementations, each on a network of its own so neither is served
    // from the other's memo.

    #[test]
    fn batched_paths_match_the_reference_on_a_line() {
        let mut rows = lazy_network(5, &line_edges(5), 0);
        let mut points = lazy_network(5, &line_edges(5), 0);
        for t in [4, 0, 1, 3, 4] {
            // out of order, the source itself, a repeat
            assert_eq!(batched_path(&mut rows, 1, t), points.path(1, t), "1->{t}");
        }
        assert_eq!(batched_path(&mut rows, 1, 4), Some(vec![2, 4, 6]));
        let stats = rows.routing_stats();
        assert_eq!((stats.batched_queries, stats.lazy_searches), (1, 0));
        assert_eq!(points.routing_stats().lazy_searches, 3);
    }

    #[test]
    fn batched_paths_report_unreachable_targets() {
        // Routers 2 and 3 form a separate component.
        let edges = [(0, 1, 1), (2, 3, 1)];
        for landmarks in [0, 2] {
            let mut rows = lazy_network(4, &edges, landmarks);
            let mut points = lazy_network(4, &edges, landmarks);
            assert_eq!(batched_path(&mut rows, 0, 1), Some(vec![0]));
            assert_eq!(batched_path(&mut rows, 0, 2), None, "landmarks {landmarks}");
            assert_eq!(batched_path(&mut rows, 0, 3), None, "landmarks {landmarks}");
            assert_eq!(rows.route_batched(0, 0), Some(RouteId::EMPTY));
            for t in 0..4 {
                assert_eq!(batched_path(&mut rows, 0, t), points.path(0, t), "0->{t}");
            }
        }
    }

    /// Row fills must return bit-identical canonical paths to the pairwise
    /// lazy searches on tie-heavy random graphs, with and without landmarks.
    #[test]
    fn batched_paths_match_reference_on_random_tie_heavy_graphs() {
        let mut rng = SimRng::new(0xBA7C4);
        for case in 0..20 {
            let (n, edges) = random_tie_heavy_edges(&mut rng);
            for landmarks in [0, 3] {
                let mut rows = lazy_network(n, &edges, landmarks);
                let mut points = lazy_network(n, &edges, landmarks);
                for src in 0..n {
                    for dst in 0..n {
                        assert_eq!(
                            batched_path(&mut rows, src, dst),
                            points.path(src, dst),
                            "case {case}: {src}->{dst}, {landmarks} landmarks"
                        );
                    }
                }
                assert_eq!(rows.routing_stats().lazy_searches, 0);
                assert_eq!(points.routing_stats().batched_queries, 0);
            }
        }
    }

    /// Row fills interleave with point queries on one network: a fill keeps
    /// the pairs already routed and the lazy router's workspace is none of
    /// its business.
    #[test]
    fn batched_and_pairwise_queries_interleave() {
        let mut net = lazy_network(6, &line_edges(6), 2);
        let first = net.route(0, 5).expect("connected");
        assert_eq!(net.route_batched(0, 2), net.route(0, 2));
        assert_eq!(batched_path(&mut net, 0, 2), Some(vec![0, 2]));
        assert_eq!(net.route_batched(0, 5), Some(first), "the fill kept 0->5");
        let back = net.route(5, 0).expect("connected");
        assert_eq!(net.route_links(back), &[9, 7, 5, 3, 1]);
        let stats = net.routing_stats();
        assert_eq!((stats.lazy_searches, stats.batched_queries), (2, 1));
        // One point search, four filled pairs (0->0 crosses no link), one
        // point search.
        assert_eq!(stats.route_queries, 6);
    }

    #[test]
    fn auto_mode_switches_at_the_threshold() {
        assert_eq!(RoutingMode::auto(100), RoutingMode::EagerPerSource);
        assert_eq!(
            RoutingMode::auto(RoutingMode::AUTO_LAZY_ROUTERS),
            RoutingMode::LazyAlt {
                landmarks: RoutingMode::DEFAULT_LANDMARKS
            }
        );
    }

    /// In-place adjacency patching must be indistinguishable from building
    /// the mutated graph fresh: same canonical path for every pair.
    #[test]
    fn in_place_mutators_match_a_freshly_built_graph() {
        // The line 0 - … - 4, with a down 0-4 shortcut (links 8 and 9).
        let mut adj = digraph_reserving(
            5,
            &symmetric_edges(&line_edges(5)),
            &[(0, 4, 8, 50), (4, 0, 9, 50)],
        );
        // Mutate: drop the 1-2 hop, bring the 0-4 shortcut up at cost 3,
        // raise 2-3 to 7.
        adj.remove_edge(1, 2, 2);
        adj.remove_edge(2, 1, 3);
        adj.add_edge(0, 4, 8, 3);
        adj.add_edge(4, 0, 9, 3);
        adj.set_edge_cost(2, 3, 4, 7);
        adj.set_edge_cost(3, 2, 5, 7);
        // Fresh build of the same final graph.
        let fresh = digraph(
            5,
            &[
                (0, 1, 0, 1),
                (1, 0, 1, 1),
                (2, 3, 4, 7),
                (3, 2, 5, 7),
                (3, 4, 6, 1),
                (4, 3, 7, 1),
                (0, 4, 8, 3),
                (4, 0, 9, 3),
            ],
        );
        for src in 0..5 {
            let a = ShortestPaths::compute(&adj, src);
            let b = ShortestPaths::compute(&fresh, src);
            for dst in 0..5 {
                assert_eq!(a.path_to(&adj, dst), b.path_to(&fresh, dst), "{src}->{dst}");
            }
        }
        // Removing a down edge twice or patching a missing edge is a no-op.
        adj.remove_edge(1, 2, 2);
        adj.set_edge_cost(1, 2, 2, 9);
        assert_eq!(adj.neighbors(1).len(), 1);
    }

    /// Landmark repair restores per-edge consistency (and with it
    /// admissibility) after improvements, does nothing for worsenings, and
    /// does zero work when an oscillation restores the original cost.
    #[test]
    fn landmark_repair_restores_admissibility() {
        // The line 0 - … - 5, with a down 0-5 shortcut (links 10 and 11).
        let mut adj = digraph_reserving(
            6,
            &symmetric_edges(&line_edges(6)),
            &[(0, 5, 10, 1), (5, 0, 11, 1)],
        );
        let mut router = LazyRouter::new(&adj, 2);
        let tables = router.landmark_tables().to_vec();

        // Worsening: raise 2-3 to 9. Tables are now stale-low but still
        // admissible; no repair pass is run (callers pass improvements only).
        adj.set_edge_cost(2, 3, 4, 9);
        adj.set_edge_cost(3, 2, 5, 9);
        assert_eq!(router.landmark_tables(), &tables[..]);

        // Improving: restore 2-3 to 1 — exactly the original graph, so the
        // (unchanged) tables are already consistent and repair is free.
        adj.set_edge_cost(2, 3, 4, 1);
        adj.set_edge_cost(3, 2, 5, 1);
        let r = router.repair_landmarks(&adj, &[(2, 3, 1), (3, 2, 1)]);
        assert_eq!(r.checks, 2);
        assert_eq!(r.repairs, 0);
        assert_eq!(r.nodes_lowered, 0);

        // Improving below the original: a 0-5 shortcut of cost 1 breaks
        // consistency at the new edge; repair must lower entries and end
        // with true lower bounds everywhere.
        adj.add_edge(0, 5, 10, 1);
        adj.add_edge(5, 0, 11, 1);
        let r = router.repair_landmarks(&adj, &[(0, 5, 1), (5, 0, 1)]);
        assert!(r.repairs > 0);
        assert!(r.nodes_lowered > 0);
        for table in router.landmark_tables() {
            for u in 0..6 {
                for &(v, _, c) in adj.neighbors(u) {
                    assert!(
                        table[v as usize] <= table[u].saturating_add(c),
                        "consistency broken at {u}->{v}"
                    );
                }
            }
        }
        // Admissibility against true distances on the mutated graph.
        for src in 0..6 {
            let sp = ShortestPaths::compute(&adj, src);
            for dst in 0..6 {
                let (true_dist, _) = sp.path_to(&adj, dst).unwrap();
                for table in router.landmark_tables() {
                    assert!(u64::from(table[src].abs_diff(table[dst])) <= true_dist);
                }
            }
        }
        // And queries still return canonical paths with correct costs.
        let sp = ShortestPaths::compute(&adj, 1);
        let (cost, path) = router.query(&adj, 1, 5).unwrap();
        assert_eq!(Some((cost, path.to_vec())), sp.path_to(&adj, 5));
    }
}
