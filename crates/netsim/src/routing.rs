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
//! pure function of the graph — both the whole-graph search behind a
//! [`RowTree`] and the lazy bidirectional searches ([`LazyRouter`])
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
//! # Row trees
//!
//! The routes out of one source to every participant come from one
//! whole-graph search kept as a [`RowTree`]. Two callers build rows: the
//! bottleneck-tree oracle, in both routing modes, which asks
//! [`Network::row_trees`] for every participant's row at once, and
//! [`RoutingMode::EagerPerSource`], which caches one row per source
//! participant and reads each of its point routes off it. The oracle's
//! searches only read the graph, so they run as one ordered scoped map
//! ([`crate::workers`]) at the width the calling thread may use, and each
//! row is placed by its source's index: the rows are the same at any worker
//! count. Each worker reuses one search workspace for every row it builds.
//! A row's targets are every participant, scattered over the whole graph,
//! so settling all of them settles nearly everything: no goal direction can
//! prune a search whose goals span the graph. What it can save is the
//! queue, a bucket queue and not a heap, and the graph it walks (below).
//! The search keeps distances only. Each target's path is then read back
//! from them, one canonical predecessor at a time, only as far as the first
//! router already in the row, which is a prefix tree: the canonical routes
//! out of one source share most of their links, so the tree holds each
//! shared link once.
//!
//! # The contracted graph
//!
//! Most of a paper-class graph is trees and chains: of the 20,300 routers
//! of `paper_scale(200, 7)`, 4,200 hang in trees off the rest (the leaf
//! routers and the clients on them), and of the 16,100 left, 13,252 are
//! *interior*, with exactly two neighbours there. A search from many roots
//! over one graph, as the oracle's rows and the landmark tables are, first
//! folds it into a `Contracted` index: the *branch* routers, each chain
//! between two of them as one arc per direction, and each hanging router
//! as its attachment's distance plus its cost down the tree. The same
//! bucket kernel walks the folded graph, and every router's distance
//! follows from its chain ends' or its attachment's, so predecessors, read
//! from distances, are the plain graph's. The index is built by
//! [`Network::row_trees`] and `select_landmarks` for one call and dropped
//! when it returns; a single search, such as [`Adjacency::distances_from`]
//! or an eager row, walks the plain graph.
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
//!   router — is allocated by its first point query. A network that only
//!   builds row trees, as the bottleneck-tree oracle's does, never holds
//!   one.
//! - A [`RowTree`] is one `u32` entry per distinct link of its row, one
//!   more per branch that does not continue from the entry before it, and
//!   a `u32` leaf per target. Its search keeps 16 bytes per router it walks
//!   (a distance and two bucket-list links), 4 bytes per router for the
//!   row's tree nodes and a scratch copy of the row being read off. Each
//!   worker keeps one such workspace for all the rows it builds, so up to
//!   one is live per worker, and each row is allocated once, at its exact
//!   length.
//! - A `Contracted` index holds 4 bytes per router (its place), 12 per
//!   arc and 8 per branch router (the folded graph's slots), 16 per
//!   interior router (its two chain ends and its cost from each) and 20
//!   per hanging router (its attachment, parent, subtree end and costs down
//!   and up). Its searches walk the branch routers only: 2,848 of the
//!   20,300 routers of `paper_scale(200, 7)`, over 9,938 arcs.
//!
//! [`Network`]: crate::network::Network
//! [`Network::row_trees`]: crate::network::Network::row_trees

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::link::{DirectedLinkId, RouterId};

/// How a [`Network`](crate::network::Network) computes routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// One row tree per source participant ([`RowTree`]): the first route
    /// out of a participant runs one whole-graph search and keeps its
    /// canonical paths to every participant, and each later route from it
    /// is read off that row. Every route-affecting mutation drops the rows.
    /// Fast for small graphs whose participants talk to everyone, but at
    /// paper scale (20k routers) each first contact costs a whole-graph
    /// scan.
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
    /// per-source rows to lazy landmark-guided search.
    pub const AUTO_LAZY_ROUTERS: usize = 4_096;

    /// Default landmark count for [`RoutingMode::LazyAlt`].
    pub const DEFAULT_LANDMARKS: usize = 8;

    /// Picks a mode from the topology size: small graphs keep the eager
    /// per-source rows, paper-scale graphs get lazy ALT search.
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

    /// Number of routers.
    fn len(&self) -> usize {
        self.ranges.len().saturating_sub(1)
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
        self.out_edges.len()
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
        dijkstra(self, source, Dir::Forward)
    }

    /// Dijkstra distances from every router *to* `target`, the same search
    /// run over the in-edge lists — exact even on asymmetric graphs.
    pub fn distances_to(&self, target: RouterId) -> Vec<u64> {
        dijkstra(self, target, Dir::Backward)
    }

    /// The edges a search in direction `dir` follows out of `router`.
    fn edges(&self, dir: Dir, router: RouterId) -> &[Edge] {
        self.graph(dir).edges.live(router)
    }

    /// The graph a whole-graph search in direction `dir` walks.
    fn graph(&self, dir: Dir) -> Graph<'_> {
        Graph {
            edges: match dir {
                Dir::Forward => &self.out_edges,
                Dir::Backward => &self.in_edges,
            },
            min_cost: self.min_cost,
            max_cost: self.max_cost,
        }
    }
}

/// [`RowTree`] node of a target its source cannot reach.
const NO_NODE: u32 = u32::MAX;

/// The top bit of a [`RowTree`] entry: set on a branch marker, whose low 31
/// bits are the node the branch hangs off. Every directed link id is below
/// it (`Network::with_setup` asserts as much), so a link entry never has
/// it set.
pub(crate) const BRANCH: u32 = 1 << 31;

/// The canonical paths from one source router to a list of targets, kept as
/// a prefix tree: the paths out of one source share most of their links, so
/// the tree holds each of them once.
///
/// The tree is one run of `u32` entries, its branches laid end to end. Node
/// 0 is the source router and node `i + 1` is entry `i`. A link entry is
/// the directed link into its node's router, and its parent is the node of
/// the entry before it (node 0 for the first entry). A branch that does not
/// continue from the entry before it starts with one marker entry, `BRANCH
/// | parent node`, which no leaf names. Each target holds one leaf, the node
/// of its router. Every root-to-leaf walk follows canonical predecessor
/// links, so [`RowTree::path_into`] returns the canonical path, and
/// [`RowTree::reaches`] answers reachability from the leaf alone. The tree
/// is a snapshot of the graph it was computed on, and no topology mutation
/// repairs it: the eager routing mode drops its cached rows at every
/// route-affecting mutation. A row depends on the graph, the source and the
/// targets alone, so the rows [`Network::row_trees`] builds on several
/// workers, over the contracted graph, equal those built one at a time over
/// the plain one.
///
/// [`Network::row_trees`]: crate::network::Network::row_trees
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowTree {
    /// Link entries and branch markers, in node order.
    entries: Box<[u32]>,
    /// Each target's node, or [`NO_NODE`] if it is unreachable.
    leaves: Box<[u32]>,
}

impl RowTree {
    /// Runs one whole-graph search from `source` and keeps the canonical
    /// paths to every router of `targets`, on a workspace of its own.
    pub(crate) fn compute(adj: &Adjacency, source: RouterId, targets: &[RouterId]) -> Self {
        RowSearch::default().row(adj, None, source, targets)
    }

    /// Whether the source reaches target `target`: one leaf read, no walk.
    pub fn reaches(&self, target: usize) -> bool {
        self.leaves[target] != NO_NODE
    }

    /// Writes the canonical path to target `target` (directed link ids,
    /// source first) into `out`. Returns `false`, with `out` empty, if the
    /// target is unreachable.
    pub fn path_into(&self, target: usize, out: &mut Vec<DirectedLinkId>) -> bool {
        out.clear();
        let mut node = self.leaves[target];
        if node == NO_NODE {
            return false;
        }
        // Back one entry at a time, jumping at a branch marker.
        while node != 0 {
            let entry = self.entries[node as usize - 1];
            if entry & BRANCH != 0 {
                node = entry & !BRANCH;
            } else {
                out.push(entry as DirectedLinkId);
                node -= 1;
            }
        }
        out.reverse();
        true
    }
}

/// The buffers one row search needs, kept from one row to the next: the
/// search's distances and bucket lists, each router's node in the row being
/// read off, and that row. A worker that builds many rows allocates them
/// once, and each row once, at its exact length.
#[derive(Default)]
pub(crate) struct RowSearch {
    search: Search,
    /// Each router's node in the row being read off, [`NO_NODE`] outside
    /// it. Every entry is [`NO_NODE`] again once a row is built.
    node_of: Vec<u32>,
    /// The routers given a node, whose `node_of` entries a built row clears.
    in_tree: Vec<u32>,
    /// A new branch as `(router, link into it)`, read from its far end.
    branch: Vec<(RouterId, u32)>,
    entries: Vec<u32>,
}

impl RowSearch {
    /// Runs one whole-graph search from `source` and keeps the canonical
    /// paths to every router of `targets`: over `index` where it is given,
    /// over `adj` itself otherwise, with the same row either way
    /// ([`Search::forward`]). Each path is read back from its target only
    /// as far as the first router already in the tree, one canonical
    /// predecessor link at a time ([`Labels::link_into`]), and the new
    /// branch hangs off that router's node. Over `index` the search labels
    /// only branch routers; a path through a chain expands it into the
    /// chain's links as it reads them, and no other interior router is
    /// labelled.
    pub(crate) fn row(
        &mut self,
        adj: &Adjacency,
        index: Option<&Contracted>,
        source: RouterId,
        targets: &[RouterId],
    ) -> RowTree {
        let labels = self.search.forward(adj, index, source);
        let dist = &self.search.dist;
        if self.node_of.len() != adj.len() {
            reset(&mut self.node_of, adj.len(), NO_NODE);
        }
        let (node_of, in_tree) = (&mut self.node_of, &mut self.in_tree);
        let (branch, entries) = (&mut self.branch, &mut self.entries);
        entries.clear();
        node_of[source] = 0;
        in_tree.push(source as u32);
        let mut leaves = Vec::with_capacity(targets.len());
        for &target in targets {
            let mut cur = target;
            while node_of[cur] == NO_NODE {
                let Some((link, tail)) = labels.link_into(adj, cur, dist) else {
                    break;
                };
                branch.push((cur, link));
                cur = tail;
            }
            // Only an unreachable target stops outside the tree, at once: its
            // branch is empty and its leaf is `NO_NODE`.
            let mut node = node_of[cur];
            if !branch.is_empty() && node as usize != entries.len() {
                entries.push(BRANCH | node);
            }
            for (router, link) in branch.drain(..).rev() {
                entries.push(link);
                node = entries.len() as u32;
                node_of[router] = node;
                in_tree.push(router as u32);
            }
            leaves.push(node);
        }
        for router in in_tree.drain(..) {
            node_of[router as usize] = NO_NODE;
        }
        // Every node, a marker's among them, is at most the entry count.
        assert!(
            entries.len() < BRANCH as usize,
            "a row's nodes fit in 31 bits"
        );
        RowTree {
            entries: entries.as_slice().into(),
            leaves: leaves.into_boxed_slice(),
        }
    }
}

/// Refills `buf` with `len` copies of `value`, in the capacity it has.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// What one [`Search`] walks: a table of live out-edges, and bounds on
/// their costs that size its bucket ring. An [`Adjacency`] gives one per
/// direction ([`Adjacency::graph`]), a [`Contracted`] index one over its
/// branch routers.
#[derive(Clone, Copy)]
struct Graph<'a> {
    edges: &'a Csr,
    /// A bound on the cheapest edge: the bucket width is at least it.
    min_cost: u64,
    /// At least the dearest edge, so that no relaxation wraps the ring.
    max_cost: u64,
}

/// Most buckets a [`dijkstra`] queue spans.
const MAX_BUCKETS: u64 = 256;

/// The one whole-graph search: distances from `root` (to it, over in-edges,
/// for [`Dir::Backward`]), on buffers of its own; [`Search::run`] is the
/// same search on buffers kept between searches.
fn dijkstra(adj: &Adjacency, root: RouterId, dir: Dir) -> Vec<u64> {
    let mut search = Search::default();
    search.run(adj.graph(dir), &[(root, 0)]);
    search.dist
}

/// [`Buckets`] entry for no router: an empty slot, a list's end, a router
/// that is not queued.
const NIL: u32 = u32::MAX;

/// The top bit of a [`Buckets::back`] entry: set on the first router of a
/// list, whose low bits are the list's slot.
const HEAD: u32 = 1 << 31;

/// The bucket ring of a [`Search`]: one doubly linked list per slot,
/// threaded through two `u32`s per router, so a relabelled router moves to
/// its new bucket in place and a search allocates nothing once its buffers
/// are sized to the largest graph it has walked.
#[derive(Default)]
struct Buckets {
    /// Each slot's first router, or [`NIL`].
    heads: Vec<u32>,
    /// A queued router's successor in its list, or [`NIL`].
    next: Vec<u32>,
    /// A queued router's predecessor in its list, or `HEAD | slot` for the
    /// first of one; [`NIL`] for a router that is not queued.
    back: Vec<u32>,
}

impl Buckets {
    /// `slots` empty lists over `routers` routers.
    fn reset(&mut self, routers: usize, slots: usize) {
        assert!(
            routers <= HEAD as usize,
            "a search's routers fit in 31 bits"
        );
        reset(&mut self.heads, slots, NIL);
        reset(&mut self.back, routers, NIL);
        // A successor is written each time its router is queued.
        self.next.resize(routers, NIL);
    }

    #[inline]
    fn is_queued(&self, v: usize) -> bool {
        self.back[v] != NIL
    }

    /// Queues `v`, which is not queued, in `slot`.
    #[inline]
    fn push(&mut self, v: usize, slot: usize) {
        let first = self.heads[slot];
        if first != NIL {
            self.back[first as usize] = v as u32;
        }
        (self.next[v], self.back[v]) = (first, HEAD | slot as u32);
        self.heads[slot] = v as u32;
    }

    /// Takes the queued `v` out of its list.
    #[inline]
    fn unlink(&mut self, v: usize) {
        let (next, back) = (self.next[v], self.back[v]);
        if back & HEAD != 0 {
            self.heads[(back & !HEAD) as usize] = next;
        } else {
            self.next[back as usize] = next;
        }
        if next != NIL {
            self.back[next as usize] = back;
        }
        self.back[v] = NIL;
    }

    #[inline]
    fn pop(&mut self, slot: usize) -> Option<usize> {
        let first = self.heads[slot];
        (first != NIL).then(|| {
            self.unlink(first as usize);
            first as usize
        })
    }
}

/// The per-router buffers of one [`dijkstra`]: each router's distance and
/// its links in the bucket lists. They are sized to the graph a search
/// walks and kept for the next: a worker's search allocates nothing after
/// its first.
#[derive(Default)]
struct Search {
    dist: Vec<u64>,
    queue: Buckets,
}

impl Search {
    /// Leaves the distances from `seeds` in `self.dist`. A seed `(router,
    /// distance)` labels its router as an edge of that cost from a virtual
    /// root would; a plain search has one seed, its root at 0.
    ///
    /// A monotone bucket queue: buckets of width `w = max(min_cost,
    /// ⌈max_cost / MAX_BUCKETS⌉)` in a ring of `max_cost / w + 2` slots,
    /// which no relaxation can wrap. The scan starts at the cheapest seed's
    /// bucket, and no seed is dearer than it by more than an edge. Each queued router sits in the list of its label's bucket,
    /// and a relabel that changes the bucket moves it. With every cost ≥
    /// `w` — as in every generated topology, whose delays are ≥ 0.5 ms — a
    /// relaxation lands in a later bucket and each router is settled once.
    /// A wider spread can land one in the bucket being drained, where it is
    /// queued again (Δ-stepping's label correction); the distances stay
    /// exact. A router whose one onward edge leads back to its improver is
    /// labelled but not queued, since that edge cannot improve anything.
    fn run(&mut self, graph: Graph<'_>, seeds: &[(usize, u64)]) {
        let width = graph
            .min_cost
            .max(graph.max_cost.div_ceil(MAX_BUCKETS))
            .max(1);
        let slots = graph.max_cost / width + 2;
        let slot = |d: u64| (d / width % slots) as usize;
        let Search { dist, queue } = self;
        reset(dist, graph.edges.len(), u64::MAX);
        queue.reset(graph.edges.len(), slots as usize);
        let mut pending = 0usize;
        for &(v, d) in seeds {
            if d < dist[v] {
                if queue.is_queued(v) {
                    queue.unlink(v);
                } else {
                    pending += 1;
                }
                dist[v] = d;
                queue.push(v, slot(d));
            }
        }
        let mut bucket = seeds.iter().map(|&(_, d)| d).min().unwrap_or(0) / width;
        while pending > 0 {
            while let Some(u) = queue.pop((bucket % slots) as usize) {
                pending -= 1;
                debug_assert_eq!(dist[u] / width, bucket);
                let du = dist[u];
                for &(v32, _, cost) in graph.edges.live(u) {
                    let v = v32 as usize;
                    let (nd, old) = (du.saturating_add(u64::from(cost)), dist[v]);
                    if nd >= old {
                        continue;
                    }
                    dist[v] = nd;
                    let queued = queue.is_queued(v);
                    if matches!(graph.edges.live(v), [(back, _, _)] if *back as usize == u) {
                        // A dead end.
                        if queued {
                            queue.unlink(v);
                            pending -= 1;
                        }
                    } else if !queued || old / width != nd / width {
                        if queued {
                            queue.unlink(v);
                        } else {
                            pending += 1;
                        }
                        queue.push(v, slot(nd));
                    }
                }
            }
            bucket += 1;
        }
    }

    /// Runs the search forward from `root`: over `index` where it has one
    /// that can start there ([`Contracted::start`]), over `adj` otherwise.
    /// Returns how to read every router's label off the result.
    fn forward<'a>(
        &mut self,
        adj: &Adjacency,
        index: Option<&'a Contracted>,
        root: RouterId,
    ) -> Labels<'a> {
        match index.and_then(|index| Some((index, index.start(adj, root)?))) {
            Some((index, (seeds, root))) => {
                self.run(index.graph(), &seeds);
                Labels::Folded(index, root)
            }
            None => {
                self.run(adj.graph(Dir::Forward), &[(root, 0)]);
                Labels::Plain
            }
        }
    }
}

/// How to read any router's label off a forward [`Search`]'s distances:
/// straight, or through the [`Contracted`] index it ran over, from where the
/// root sits in it.
enum Labels<'a> {
    Plain,
    Folded(&'a Contracted, Root),
}

impl Labels<'_> {
    /// Router `r`'s distance from the root (`u64::MAX` if unreachable),
    /// given the search's `dist`.
    fn distance(&self, r: RouterId, dist: &[u64]) -> u64 {
        match self {
            Labels::Plain => dist[r],
            Labels::Folded(index, root) => index.distance(r, root, dist),
        }
    }

    /// Router `r`'s canonical predecessor, as `(link, tail)`: of the live
    /// in-edges that are tight at its distance, the one with the smallest
    /// link id. `None` for the root and for an unreachable router.
    fn link_into(&self, adj: &Adjacency, r: RouterId, dist: &[u64]) -> Option<(u32, RouterId)> {
        let d = self.distance(r, dist);
        if d == u64::MAX {
            return None;
        }
        (adj.in_neighbors(r).iter())
            .filter(|&&(u, _, cost)| {
                self.distance(u as RouterId, dist)
                    .saturating_add(u64::from(cost))
                    == d
            })
            .min_by_key(|&&(_, link, _)| link)
            .map(|&(u, link, _)| (link, u as RouterId))
    }

    /// Passes every router's distance to `each`, reading the search's
    /// arrays in sequence: by router after a plain search; after a folded
    /// one, branch routers by index, then interior ones chain by chain and
    /// hanging ones tree by tree, `routers` being the index's
    /// [`Contracted::routers`].
    fn each_distance(&self, dist: &[u64], routers: &[u32], mut each: impl FnMut(RouterId, u64)) {
        match self {
            Labels::Plain => dist.iter().enumerate().for_each(|(r, &d)| each(r, d)),
            Labels::Folded(index, root) => {
                let (branch, folded) = routers.split_at(dist.len());
                for (&r, &d) in branch.iter().zip(dist) {
                    each(r as RouterId, d);
                }
                let (interior, hanging) = folded.split_at(index.reach.len());
                for (i, &r) in (0..).zip(interior) {
                    each(r as RouterId, index.interior(i, root, dist));
                }
                for (h, &r) in (0..).zip(hanging) {
                    each(r as RouterId, index.hanging(h, root, dist));
                }
            }
        }
    }
}

/// [`Contracted::place`] bit of an interior router, whose low bits are its
/// index in [`Contracted::reach`].
const INTERIOR: u32 = 1 << 31;

/// [`Contracted::place`] bit of a hanging router, whose low bits are its
/// index in [`Contracted::hangs`].
const HANGING: u32 = 1 << 30;

/// No router: a [`Reach`] end that no branch router holds (both ends of a
/// cycle of interior routers, which no branch router reaches), the parent
/// of a router that hangs off its attachment itself, and of a core router.
const NO_END: u32 = u32::MAX;

/// An interior router's two ways in, one per end of its chain: the end's
/// branch index ([`NO_END`] on a cycle) and the cost from that end along
/// the chain to the router. Way 0 is the end the chain was walked from.
type Reach = [(u32, u32); 2];

/// A router of a hanging tree ([`Contracted::peel`]): the core router the
/// tree hangs off, its place in the tree, and its costs from and to that
/// attachment, summed along the tree's links.
#[derive(Clone, Copy, Debug)]
struct Hang {
    /// The attachment, by router id.
    attach: u32,
    /// Its parent's index in [`Contracted::hangs`], or [`NO_END`] if it
    /// hangs off the attachment itself.
    parent: u32,
    /// One past its subtree's last index: the routers of a tree take
    /// consecutive indices in depth-first preorder, so the subtree of the
    /// router at index `h` is `h..end`.
    end: u32,
    /// The cost down the tree from the attachment to it.
    down: u32,
    /// The cost up the tree from it to the attachment.
    up: u32,
}

/// The seeds of a search over a [`Contracted`] index, as `(branch index,
/// distance)`: its root's core router's, twice, or that router's chain's
/// two ends.
type Seeds = [(usize, u64); 2];

/// Where the root of a search over a [`Contracted`] index sits in it,
/// beyond its seeds. A core root's *core router* is itself; a hanging
/// root's is its attachment.
#[derive(Default)]
struct Root {
    /// The core router's own chain, if it is an interior router.
    chain: Option<RootChain>,
    /// The root's index in [`Contracted::hangs`] if it hangs.
    hang: Option<u32>,
    /// The root's cost up to its core router: 0 for a core root.
    up: u64,
}

/// The own chain of a search's core router that is an interior router: its
/// index in [`Contracted::reach`], the first and last index of the chain
/// (whose routers take consecutive indices, in the order of way 0's walk),
/// and its cost from each end.
struct RootChain {
    at: u32,
    span: (u32, u32),
    cost: [u32; 2],
}

/// Whether core router `r` is an *interior* router: exactly two live
/// out-edges and two live in-edges to and from `core` routers, to and from
/// the same two distinct neighbours, neither of them `r`. Its edges to and
/// from hanging routers do not count.
fn is_interior(adj: &Adjacency, core: impl Fn(u32) -> bool, r: RouterId) -> bool {
    let pair = |edges: &[Edge]| {
        let mut ends = edges.iter().map(|&(x, ..)| x).filter(|&x| core(x));
        match (ends.next(), ends.next(), ends.next()) {
            (Some(p), Some(q), None) => Some((p, q)),
            _ => None,
        }
    };
    let (Some((p, q)), Some((a, b))) = (pair(adj.neighbors(r)), pair(adj.in_neighbors(r))) else {
        return false;
    };
    p != q && r != p as usize && r != q as usize && ((a, b) == (p, q) || (a, b) == (q, p))
}

/// What a [`Contracted`] index makes of a router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A router of the folded graph.
    Branch,
    /// A router of a chain ([`is_interior`]).
    Interior,
    /// A router of a hanging tree ([`Contracted::peel`]).
    Hanging,
}

/// Where a [`Contracted`] index keeps a router: its index among the
/// routers of its [`Kind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Place {
    /// In the folded graph.
    Branch(u32),
    /// In [`Contracted::reach`].
    Interior(u32),
    /// In [`Contracted::hangs`].
    Hanging(u32),
}

/// Follows `from`'s out-edge `edge` through the interior routers it enters,
/// calling `visit(router)` at each, and returns the router the chain ends
/// at and its cost from `from`. An interior router's onward edge is the one
/// into a core router that does not lead back. The walk must reach a router
/// that is not interior.
fn walk_chain(
    adj: &Adjacency,
    kind: impl Fn(RouterId) -> Kind,
    mut from: RouterId,
    (to, _, cost): Edge,
    mut visit: impl FnMut(RouterId),
) -> (RouterId, u64) {
    let (mut at, mut cost) = (to as RouterId, u64::from(cost));
    while kind(at) == Kind::Interior {
        visit(at);
        let &(next, _, step) = (adj.neighbors(at).iter())
            .find(|&&(next, ..)| {
                let next = next as RouterId;
                next != from && kind(next) != Kind::Hanging
            })
            .expect("an interior router has two core out-neighbours");
        (from, at) = (at, next as RouterId);
        cost += u64::from(step);
    }
    (at, cost)
}

/// A peeled router's parent and the costs of its edges from and to it
/// ([`Contracted::peel`]); [`NO_END`] as the parent of a core router.
type Peeled = (u32, u32, u32);

/// The routing graph with its hanging trees and chains folded, for searches
/// that run from many roots over one graph. It is built from an
/// [`Adjacency`] by the caller that runs those searches and dropped when
/// they end, so a topology mutation never meets one.
///
/// Most of a paper-class graph is trees that hang off the rest, and chains.
/// The trees are peeled first ([`Contracted::peel`]): what is left is the
/// *core*, and each tree hangs off one core router, its *attachment*. Of
/// the core, chains of *interior* routers ([`is_interior`], on core
/// neighbours only) fold, and every other router is a *branch* router. The
/// index holds the branch routers, in id order, as a graph of their own:
/// each live edge between two of them, and one *arc* per chain direction
/// from branch router `A` through interior `x₁ … x_k` to branch router `B`.
/// An arc costs the chain's summed cost in its direction, and its link is
/// the real directed link `x_k → B`. A chain whose cost, either way, does
/// not fit the arc's `u32` stays expanded: its routers are branch routers.
///
/// An interior router keeps its chain's ends and its cost from each
/// ([`Reach`]), so its distance is `min(d(A) + Fᵢ, d(B) + Rᵢ)`; a hanging
/// router keeps its attachment and its cost down from it ([`Hang`]), so its
/// distance is its attachment's plus that cost; a cycle of interior routers
/// has no end, and no branch router reaches it. So one search over the
/// branch routers yields every router's distance, and the same kernel
/// ([`Search::run`]) walks both graphs. Every predecessor is then read from
/// the distances ([`Labels::link_into`]), so the tie-break is the plain
/// graph's by construction; as every edge costs at least 1, a hanging
/// router is never tight for its attachment.
///
/// A search from an interior router seeds its chain's ends with their costs
/// from it, and on its own chain the side facing the root costs the stretch
/// from the root instead. A search from a hanging router runs as one from
/// its attachment, every cost raised by the root's cost up to it, and a
/// router of the root's own tree costs the tree path through their lowest
/// common ancestor. Only a root on a cycle of interior routers, or hanging
/// off one, searches the plain graph.
pub(crate) struct Contracted {
    /// Per router: its branch index, `INTERIOR | its index in reach` for an
    /// interior router, or `HANGING | its index in hangs` for a hanging one.
    place: Vec<u32>,
    /// Edges and arcs between branch routers, by branch index.
    arcs: Csr,
    min_cost: u64,
    max_cost: u64,
    reach: Vec<Reach>,
    /// The hanging routers, tree by tree in their attachments' id order.
    hangs: Vec<Hang>,
}

impl Contracted {
    /// Peels the hanging trees of `adj` and folds the chains of its core.
    pub(crate) fn new(adj: &Adjacency) -> Self {
        let n = adj.len();
        assert!(n <= HANGING as usize, "a contracted graph's routers fit in 30 bits");
        let (hangs, hung) = Self::hang(adj, &Self::peel(adj));
        let core = |r: u32| hung[r as usize] == NO_END;
        let mut kind: Vec<Kind> = (0..n)
            .map(|r| match () {
                _ if !core(r as u32) => Kind::Hanging,
                _ if is_interior(adj, core, r) => Kind::Interior,
                _ => Kind::Branch,
            })
            .collect();
        let mut chain = Vec::new();
        loop {
            match Self::fold(adj, &kind, &hung) {
                Ok(index) => return Contracted { hangs, ..index },
                Err((a, edge)) => {
                    chain.clear();
                    walk_chain(adj, |r| kind[r], a, edge, |x| chain.push(x));
                    chain.iter().for_each(|&x| kind[x] = Kind::Branch);
                }
            }
        }
    }

    /// Each router's [`Peeled`] parent and edge costs. The *pendant rule*
    /// peels a router whose only live out-edge and in-edge to and from
    /// routers not yet peeled lead to and from one other router, its
    /// parent. It is applied to every router in id order, and again to a
    /// parent each time it loses a child. A router whose subtree would cost
    /// more than a `u32` from its parent, either way, is not peeled, and a
    /// tree with no core keeps its last router, which the tree then hangs
    /// off.
    fn peel(adj: &Adjacency) -> Vec<Peeled> {
        let n = adj.len();
        let mut peeled: Vec<Peeled> = vec![(NO_END, 0, 0); n];
        // Each router's live out- and in-edges to and from routers not yet
        // peeled, and the dearest costs down from and up to it within its
        // peeled subtree.
        let mut left: Vec<[u32; 2]> = (0..n)
            .map(|r| [adj.neighbors(r).len(), adj.in_neighbors(r).len()].map(|k| k as u32))
            .collect();
        let mut height = vec![[0u32; 2]; n];
        for r in 0..n {
            let mut x = r;
            while peeled[x].0 == NO_END && left[x] == [1, 1] {
                let one = |edges: &[Edge]| {
                    *(edges.iter())
                        .find(|&&(y, ..)| peeled[y as usize].0 == NO_END)
                        .expect("a router's count of edges left is exact")
                };
                let ((p, _, up), (q, _, down)) = (one(adj.neighbors(x)), one(adj.in_neighbors(x)));
                let [below_down, below_up] = height[x].map(u64::from);
                let (down_sum, up_sum) = (below_down + u64::from(down), below_up + u64::from(up));
                if p != q || p as RouterId == x || down_sum.max(up_sum) > u64::from(u32::MAX) {
                    break;
                }
                let p = p as RouterId;
                peeled[x] = (p as u32, down, up);
                let [d, u] = &mut height[p];
                (*d, *u) = ((*d).max(down_sum as u32), (*u).max(up_sum as u32));
                left[p] = left[p].map(|k| k - 1);
                x = p;
            }
        }
        peeled
    }

    /// Lays out the routers that `peeled` hangs as [`Hang`]s: the trees off
    /// each attachment in its id order, each tree in depth-first preorder,
    /// with costs summed from the attachment. Returns them and each
    /// router's place as a hanging router, [`NO_END`] for a core router.
    fn hang(adj: &Adjacency, peeled: &[Peeled]) -> (Vec<Hang>, Vec<u32>) {
        let mut place = vec![NO_END; adj.len()];
        let mut hangs: Vec<Hang> = Vec::new();
        // The routers that hang off `x` itself.
        let children = |x: RouterId| {
            (adj.neighbors(x).iter())
                .map(|&(y, ..)| y as RouterId)
                .filter(move |&y| peeled[y].0 == x as u32)
        };
        // `(router, its parent's index)`, popped in preorder.
        let mut stack: Vec<(RouterId, u32)> = Vec::new();
        for a in (0..adj.len()).filter(|&a| peeled[a].0 == NO_END) {
            let first = hangs.len();
            stack.extend(children(a).map(|y| (y, NO_END)));
            while let Some((x, parent)) = stack.pop() {
                let (_, down, up) = peeled[x];
                let (above_down, above_up) = match parent {
                    NO_END => (0, 0),
                    p => (hangs[p as usize].down, hangs[p as usize].up),
                };
                let h = hangs.len() as u32;
                place[x] = HANGING | h;
                hangs.push(Hang {
                    attach: a as u32,
                    parent,
                    end: h + 1,
                    down: above_down + down,
                    up: above_up + up,
                });
                stack.extend(children(x).map(|y| (y, h)));
            }
            // A subtree ends where the last of its routers' subtrees does.
            for h in (first..hangs.len()).rev() {
                let Hang { parent, end, .. } = hangs[h];
                if let Some(above) = hangs.get_mut(parent as usize) {
                    above.end = above.end.max(end);
                }
            }
        }
        (hangs, place)
    }

    /// Folds every chain of a graph whose routers are of `kind`, the
    /// hanging ones at their places in `hung`, or returns the branch router
    /// and out-edge that start a chain whose cost does not fit an arc. Each
    /// chain is walked once, from the end whose out-edge comes first, and
    /// that walk writes both of its arcs: an arc takes its tail's slot for
    /// the out-edge that starts it.
    fn fold(adj: &Adjacency, kind: &[Kind], hung: &[u32]) -> Result<Self, (RouterId, Edge)> {
        let n = adj.len();
        let is = |r: u32, k: Kind| kind[r as usize] == k;
        // A router's out-edges to core routers: a branch router's arcs
        // replace them, and an interior router has two.
        let core_edges = |a: RouterId| {
            (adj.neighbors(a).iter()).filter(move |&&(to, ..)| !is(to, Kind::Hanging))
        };
        let mut place = hung.to_vec();
        let (mut ranges, mut slots) = (Vec::new(), 0);
        for a in (0..n).filter(|&a| kind[a] == Kind::Branch) {
            place[a] = ranges.len() as u32;
            let out = core_edges(a).count() as u32;
            ranges.push((slots, out));
            slots += out;
        }
        ranges.push((slots, 0));
        // An arc's head is `NO_END` until a walk writes it.
        let mut arcs: Vec<Edge> = vec![(NO_END, 0, 0); slots as usize];
        let interior = kind.iter().filter(|&&k| k == Kind::Interior).count();
        let mut reach: Vec<Reach> = Vec::with_capacity(interior);
        for a in (0..n).filter(|&a| kind[a] == Kind::Branch) {
            let first = ranges[place[a] as usize].0 as usize;
            for (slot, &edge) in (first..).zip(core_edges(a)) {
                if arcs[slot].0 != NO_END {
                    continue; // written by the walk from the chain's other end
                }
                let (to, link, cost) = edge;
                if is(to, Kind::Branch) {
                    arcs[slot] = (place[to as usize], link, cost);
                    continue;
                }
                // Way 0 of each router gets its cost from `a`; way 1, until
                // the walk ends, the cost of the reverse links walked so far.
                let lo = reach.len();
                let (mut from, mut at, mut link) = (a, to as RouterId, link);
                let (mut fwd, mut rev, mut first_back) = (u64::from(cost), 0, 0);
                while kind[at] == Kind::Interior {
                    let mut out = core_edges(at);
                    let (Some(&e), Some(&f)) = (out.next(), out.next()) else {
                        unreachable!("an interior router has two core out-edges")
                    };
                    let (back, onward) = if e.0 as RouterId == from {
                        (e, f)
                    } else {
                        (f, e)
                    };
                    if reach.len() == lo {
                        first_back = back.1;
                    }
                    rev += u64::from(back.2);
                    place[at] = INTERIOR | reach.len() as u32;
                    reach.push([(place[a], fwd as u32), (NO_END, rev as u32)]);
                    (from, at, link) = (at, onward.0 as RouterId, onward.1);
                    fwd += u64::from(onward.2);
                }
                let b_first = ranges[place[at] as usize].0 as usize;
                let (j, &(_, _, step)) = (core_edges(at).enumerate())
                    .find(|(_, &(to, ..))| to as RouterId == from)
                    .expect("a chain's end has an edge into it");
                rev += u64::from(step);
                if fwd.max(rev) > u64::from(u32::MAX) {
                    return Err((a, edge));
                }
                for [_, (end, cost)] in &mut reach[lo..] {
                    (*end, *cost) = (place[at], (rev - u64::from(*cost)) as u32);
                }
                arcs[slot] = (place[at], link, fwd as u32);
                arcs[b_first + j] = (place[a], first_back, rev as u32);
            }
        }
        // What no walk met is on a cycle of interior routers.
        for at in place.iter_mut().filter(|at| **at == NO_END) {
            *at = INTERIOR | reach.len() as u32;
            reach.push([(NO_END, 0); 2]);
        }
        let (min_cost, max_cost) = (arcs.iter()).fold((u64::MAX, 0), |(lo, hi), &(_, _, cost)| {
            (lo.min(u64::from(cost)), hi.max(u64::from(cost)))
        });
        Ok(Contracted {
            place,
            arcs: Csr {
                ranges,
                edges: arcs,
            },
            min_cost,
            max_cost,
            reach,
            hangs: Vec::new(),
        })
    }

    fn place(&self, r: RouterId) -> Place {
        match self.place[r] {
            place if place & INTERIOR != 0 => Place::Interior(place & !INTERIOR),
            place if place & HANGING != 0 => Place::Hanging(place & !HANGING),
            place => Place::Branch(place),
        }
    }

    fn kind(&self, r: RouterId) -> Kind {
        match self.place(r) {
            Place::Branch(_) => Kind::Branch,
            Place::Interior(_) => Kind::Interior,
            Place::Hanging(_) => Kind::Hanging,
        }
    }

    fn graph(&self) -> Graph<'_> {
        Graph {
            edges: &self.arcs,
            min_cost: self.min_cost,
            max_cost: self.max_cost,
        }
    }

    /// The seeds of a search from `root` over this index, and where the
    /// root sits in it; `None` for a root on a cycle of interior routers,
    /// or hanging off one.
    fn start(&self, adj: &Adjacency, root: RouterId) -> Option<(Seeds, Root)> {
        let (core, hang, up) = match self.place(root) {
            Place::Hanging(h) => {
                let hang = self.hangs[h as usize];
                (hang.attach as RouterId, Some(h), u64::from(hang.up))
            }
            _ => (root, None, 0),
        };
        let at = match self.place(core) {
            Place::Branch(b) => {
                let root = Root {
                    chain: None,
                    hang,
                    up,
                };
                return Some(([(b as usize, up); 2], root));
            }
            Place::Interior(at) => at,
            Place::Hanging(_) => unreachable!("a tree hangs off a core router"),
        };
        let ways = self.reach[at as usize];
        if ways[0].0 == NO_END {
            return None;
        }
        let mut span = (at, at);
        let kind = |r: RouterId| self.kind(r);
        let mut out = (adj.neighbors(core).iter()).filter(|&&(to, ..)| kind(to as RouterId) != Kind::Hanging);
        let seeds = [(); 2].map(|()| {
            let edge = *out.next().expect("an interior router has two core out-edges");
            let (end, cost) = walk_chain(adj, kind, core, edge, |x| {
                let i = self.place[x] & !INTERIOR;
                span = (span.0.min(i), span.1.max(i));
            });
            (self.place[end] as usize, up + cost)
        });
        let cost = ways.map(|(_, cost)| cost);
        let chain = Some(RootChain { at, span, cost });
        Some((seeds, Root { chain, hang, up }))
    }

    /// Router `r`'s distance (`u64::MAX` if unreachable) from a search over
    /// this index that started at `root`: `dist` is by branch index.
    fn distance(&self, r: RouterId, root: &Root, dist: &[u64]) -> u64 {
        match self.place(r) {
            Place::Branch(b) => dist[b as usize],
            Place::Interior(i) => self.interior(i, root, dist),
            Place::Hanging(h) => self.hanging(h, root, dist),
        }
    }

    /// [`Contracted::distance`] of the interior router at `reach[i]`.
    fn interior(&self, i: u32, root: &Root, dist: &[u64]) -> u64 {
        let reach = self.reach[i as usize];
        let mut ways = reach.map(|(end, cost)| match end {
            NO_END => u64::MAX,
            end => dist[end as usize].saturating_add(u64::from(cost)),
        });
        if let Some(chain) = (root.chain.as_ref()).filter(|c| (c.span.0..=c.span.1).contains(&i)) {
            if i == chain.at {
                return root.up;
            }
            // The side facing the root, way 0 past it and way 1 before it,
            // costs the stretch from the root.
            let toward = usize::from(i < chain.at);
            ways[toward] = root.up + u64::from(reach[toward].1 - chain.cost[toward]);
        }
        ways[0].min(ways[1])
    }

    /// [`Contracted::distance`] of the hanging router at `hangs[h]`: its
    /// attachment's plus its cost down from there, unless the root hangs
    /// in its subtree or beside it, when it is the tree path through the
    /// two's lowest common ancestor.
    fn hanging(&self, h: u32, root: &Root, dist: &[u64]) -> u64 {
        let hang = self.hangs[h as usize];
        if let Some(x) = root.hang.filter(|&x| self.hangs[x as usize].attach == hang.attach) {
            // The lowest router at or above `h` whose subtree holds the root.
            let mut at = h;
            while let Some(above) = self.hangs.get(at as usize) {
                if (at..above.end).contains(&x) {
                    let up = self.hangs[x as usize].up - above.up;
                    return u64::from(up) + u64::from(hang.down - above.down);
                }
                at = above.parent;
            }
        }
        let attach = self.distance(hang.attach as RouterId, root, dist);
        attach.saturating_add(u64::from(hang.down))
    }

    /// Every router, branch routers by index, then interior ones by their
    /// index in `reach` and hanging ones by theirs in `hangs`: the order in
    /// which [`Labels::each_distance`] reads a search's labels in sequence.
    fn routers(&self) -> Vec<u32> {
        let branches = self.arcs.len() as u32;
        let hanging = branches + self.reach.len() as u32;
        let mut routers = vec![0; self.place.len()];
        for r in 0..self.place.len() {
            let at = match self.place(r) {
                Place::Branch(b) => b,
                Place::Interior(i) => branches + i,
                Place::Hanging(h) => hanging + h,
            };
            routers[at as usize] = r as u32;
        }
        routers
    }
}

/// Farthest-point landmark selection: each landmark maximizes the minimum
/// distance to the ones already chosen, so landmarks spread to the graph's
/// periphery (and into other components, since unreachable counts as
/// farthest). Returns one full distance table per landmark, in `u32`
/// entries (`u32::MAX` marks unreachable).
///
/// Every search runs over one [`Contracted`] index, built here and dropped
/// on return, and writes its distances straight into its table.
///
/// # Panics
///
/// Panics if a finite distance does not fit below `u32::MAX`.
pub(crate) fn select_landmarks(adj: &Adjacency, count: usize) -> Vec<Vec<u32>> {
    let n = adj.len();
    if n == 0 || count == 0 {
        return Vec::new();
    }
    let (index, mut search) = (Contracted::new(adj), Search::default());
    let routers = index.routers();
    let mut distances = |root: RouterId, each: &mut dyn FnMut(RouterId, u64)| {
        let labels = search.forward(adj, Some(&index), root);
        labels.each_distance(&search.dist, &routers, each);
    };
    let mut closest = vec![0; n];
    distances(0, &mut |r, d| closest[r] = d);
    let mut tables: Vec<Vec<u32>> = Vec::new();
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
        let mut table = vec![0; n];
        distances(next, &mut |r, d| {
            closest[r] = closest[r].min(d);
            table[r] = landmark_entry(d);
        });
        tables.push(table);
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
/// [`LazyRouter`] allocates it on its first query, so the router of a
/// network that only builds row trees never holds one.
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
    /// Builds a lazy router over `adj` with already-computed landmark
    /// distance tables (the farthest-point tables a
    /// [`NetworkSetup`](crate::network::NetworkSetup) holds; pass an empty
    /// vector for plain bidirectional search). Nothing per-source is ever
    /// built. The tables must have been computed over the same graph, or
    /// lower bounds — and therefore paths — would be wrong. The per-query
    /// workspace is private to this router, and allocated by its first
    /// [`LazyRouter::query`]; only the immutable tables are shared.
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
    /// buffer), or `None` if unreachable: the canonical path, as a
    /// [`RowTree`] on the same graph holds it. The first query
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

/// The test module's binary-heap model, for the network's route tests.
#[cfg(test)]
pub(crate) use tests::model_paths;

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};

    use super::*;
    use crate::link::LinkSpec;
    use crate::network::{Network, NetworkSpec};
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

    /// A lazy router over `adj` with `landmarks` farthest-point tables, as
    /// a [`NetworkSetup`](crate::network::NetworkSetup) selects them.
    fn lazy_router(adj: &Adjacency, landmarks: usize) -> LazyRouter {
        LazyRouter::with_landmarks(adj, Arc::new(select_landmarks(adj, landmarks)))
    }

    #[test]
    fn path_on_a_line() {
        let adj = line(4);
        let model = model_paths(&adj, 0);
        assert_eq!(model[3], Some((3, vec![0, 2, 4])));
        assert_eq!(model[0], Some((0, vec![])));
        let mut lazy = lazy_router(&adj, 0);
        assert_eq!(lazy.query(&adj, 0, 3).unwrap(), (3, &[0, 2, 4][..]));
    }

    #[test]
    fn unreachable_node_reports_none() {
        let adj = digraph(3, &[(0, 1, 0, 1), (1, 0, 1, 1)]);
        assert_eq!(model_paths(&adj, 0)[2], None);
        let mut lazy = lazy_router(&adj, 0);
        assert!(lazy.query(&adj, 0, 2).is_none());
        let mut alt = lazy_router(&adj, 2);
        assert!(alt.query(&adj, 0, 2).is_none());
    }

    #[test]
    fn picks_cheaper_of_two_routes() {
        // 0 -> 1 -> 2 costs 2; direct 0 -> 2 costs 5.
        let adj = digraph(3, &[(0, 1, 0, 1), (1, 2, 1, 1), (0, 2, 2, 5)]);
        assert_eq!(model_paths(&adj, 0)[2], Some((2, vec![0, 1])));
        let mut lazy = lazy_router(&adj, 0);
        let (cost, path) = lazy.query(&adj, 0, 2).unwrap();
        assert_eq!(cost, 2);
        assert_eq!(path, &[0, 1]);
    }

    #[test]
    fn reverse_direction_uses_reverse_links() {
        let adj = line(3);
        assert_eq!(model_paths(&adj, 2)[0], Some((2, vec![3, 1])));
        let mut lazy = lazy_router(&adj, 0);
        assert_eq!(lazy.query(&adj, 2, 0).unwrap().1, &[3, 1]);
    }

    #[test]
    fn equal_cost_diamond_resolves_to_the_canonical_path() {
        // Two equal-cost paths 0→1→3 (links 0,4) and 0→2→3 (links 2,6).
        // The canonical rule (smallest tight in-link at every node, walking
        // back from the destination) picks link 4 into node 3, so the route
        // is [0, 4] — for the reference and both lazy modes.
        let adj = symmetric_adjacency(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
        assert_eq!(model_paths(&adj, 0)[3], Some((2, vec![0, 4])));
        let mut bidi = lazy_router(&adj, 0);
        assert_eq!(bidi.query(&adj, 0, 3).unwrap(), (2, &[0, 4][..]));
        let mut alt = lazy_router(&adj, 3);
        assert_eq!(alt.query(&adj, 0, 3).unwrap(), (2, &[0, 4][..]));
    }

    /// A [`heap_model`] result: each router's distance, and its canonical
    /// predecessor router and link.
    type ModelTree = (Vec<u64>, Vec<Option<(RouterId, DirectedLinkId)>>);

    /// A [`model_paths`] entry: the cost and links of one canonical path.
    pub(crate) type ModelPath = Option<(u64, Vec<DirectedLinkId>)>;

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

    /// The canonical path from `root` to every router of `adj`, read off
    /// [`heap_model`]'s tree: its cost and its links, or `None` if the
    /// router is unreachable.
    pub(crate) fn model_paths(adj: &Adjacency, root: RouterId) -> Vec<ModelPath> {
        let (dist, prev) = heap_model(adj, root, Dir::Forward);
        (0..adj.len())
            .map(|dst| (dist[dst] != u64::MAX).then(|| (dist[dst], model_links(&prev, dst))))
            .collect()
    }

    /// The links of the path to `dst` in a [`heap_model`] tree, root first
    /// (none if `dst` is the root or unreachable).
    fn model_links(
        prev: &[Option<(RouterId, DirectedLinkId)>],
        dst: RouterId,
    ) -> Vec<DirectedLinkId> {
        let (mut path, mut cur) = (Vec::new(), dst);
        while let Some((tail, link)) = prev[cur] {
            path.push(link);
            cur = tail;
        }
        path.reverse();
        path
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

    /// [`dijkstra`], [`Adjacency::distances_from`] and
    /// [`Adjacency::distances_to`] against [`heap_model`], from every root:
    /// equal distances, and equal predecessor links for every router.
    ///
    /// One [`RowSearch`] is also reused from root to root, its search run
    /// backward in between, and must build every row as a fresh one does.
    fn assert_kernel_matches_model(adj: &Adjacency, label: &str) {
        let routers: Vec<RouterId> = (0..adj.len()).collect();
        let mut reused = RowSearch::default();
        for root in 0..adj.len() {
            let model = heap_model(adj, root, Dir::Forward);
            assert_tree_matches(adj, root, &model, label);
            assert_eq!(adj.distances_from(root), model.0, "{label}: from {root}");
            let (to, _) = heap_model(adj, root, Dir::Backward);
            assert_eq!(adj.distances_to(root), to, "{label}: distances to {root}");
            assert_eq!(
                reused.row(adj, None, root, &routers),
                RowTree::compute(adj, root, &routers),
                "{label}: a reused workspace from {root}"
            );
            reused.search.run(adj.graph(Dir::Backward), &[(root, 0)]);
            assert_eq!(reused.search.dist, to, "{label}: reused, to {root}");
        }
    }

    /// The distances [`dijkstra`] finds from `root` over `adj` are a
    /// [`heap_model`] tree's, so is every router's canonical predecessor
    /// read from them ([`Labels::link_into`]), and a [`RowTree`] over every
    /// router holds the model's path to each.
    fn assert_tree_matches(adj: &Adjacency, root: RouterId, (dist, prev): &ModelTree, label: &str) {
        let kernel = dijkstra(adj, root, Dir::Forward);
        assert_eq!(&kernel, dist, "{label}: distances from {root}");
        let links: Vec<_> = (0..adj.len())
            .map(|r| Labels::Plain.link_into(adj, r, &kernel))
            .map(|link| link.map(|(link, tail)| (tail, link as DirectedLinkId)))
            .collect();
        assert_eq!(&links, prev, "{label}: predecessors from {root}");
        let model: Vec<_> = (0..adj.len())
            .map(|dst| (dist[dst] != u64::MAX).then(|| model_links(prev, dst)))
            .collect();
        assert_eq!(
            row_paths(adj, root),
            model,
            "{label}: row paths from {root}"
        );
    }

    /// The path to every router of `adj`, read off one [`RowTree`] from
    /// `root` that targets them all.
    fn row_paths(adj: &Adjacency, root: RouterId) -> Vec<Option<Vec<DirectedLinkId>>> {
        let routers: Vec<RouterId> = (0..adj.len()).collect();
        let row = RowTree::compute(adj, root, &routers);
        (routers.iter())
            .map(|&dst| {
                let mut path = Vec::new();
                row.path_into(dst, &mut path).then_some(path)
            })
            .collect()
    }

    /// The slots under seeded mutation, against a model: 64 digraphs of
    /// [`random_digraph`], a fifth of their links starting down, each put
    /// through 300 steps of `remove_edge`, `add_edge` and `set_edge_cost` on
    /// random links. Repeats, both directions of a pair and patches of a down
    /// link all come up. After every step each router's live out- and
    /// in-edges equal the model's `BTreeSet`s, and [`dijkstra`] and a
    /// [`RowTree`] from three roots equal [`heap_model`] on the model's graph
    /// built afresh.
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
    /// - the first tight in-edge read as the predecessor, not the one with
    ///   the smallest link id;
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

    /// [`random_digraph`] with chains added for the contraction harness:
    /// two-way chains of one to four routers between two routers of the
    /// graph (a ring when both are one router), with independent costs per
    /// direction; two cycles of three to five routers, one that nothing
    /// else touches and one that only a tree touches; an `A → A` loop; a parallel link and a one-way hop on a
    /// chain, which leave its routers on either side of them branch
    /// routers; trees hanging off the cycle, a chain and other routers, one
    /// tree with no core, and a leaf whose parallel link stops the peel.
    /// Link ids are shuffled again, and about a tenth of the links start
    /// down, with a slot to come back to. Returns the router count, the
    /// live edges and the down ones.
    fn chained_digraph(
        rng: &mut SimRng,
        costs: (u64, u64),
    ) -> (usize, Vec<DirectedEdge>, Vec<DirectedEdge>) {
        let cost = |rng: &mut SimRng| costs.0 + rng.next_below(costs.1 - costs.0 + 1);
        let (mut n, edges) = random_digraph(rng, costs);
        let mut edges: Vec<(RouterId, RouterId, u64)> =
            edges.iter().map(|&(a, b, _, c)| (a, b, c)).collect();
        let first_chain = n;
        for _ in 0..rng.range_usize(2, 7) {
            let a = rng.range_usize(0, first_chain);
            let b = if rng.chance(0.3) {
                a
            } else {
                rng.range_usize(0, first_chain)
            };
            let mut at = a;
            for _ in 0..rng.range_usize(1, 5) {
                edges.push((at, n, cost(rng)));
                edges.push((n, at, cost(rng)));
                at = n;
                n += 1;
            }
            edges.push((at, b, cost(rng)));
            edges.push((b, at, cost(rng)));
        }
        // Two cycles: one that nothing else touches, and one a tree hangs
        // off.
        let chained = n;
        let mut cycle = 0;
        for _ in 0..2 {
            cycle = rng.range_usize(3, 6);
            for i in 0..cycle {
                let j = n + (i + 1) % cycle;
                edges.push((n + i, j, cost(rng)));
                edges.push((j, n + i, cost(rng)));
            }
            n += cycle;
        }
        let on_chain = |rng: &mut SimRng| rng.range_usize(first_chain, chained);
        let looped = on_chain(rng);
        edges.push((looped, looped, cost(rng)));
        let parallel = edges[rng.range_usize(0, edges.len())];
        edges.push((parallel.0, parallel.1, cost(rng)));
        let one_way = on_chain(rng);
        edges.push((one_way, n, cost(rng)));
        n += 1;
        // Trees of one to five routers, each added below a random router of
        // its tree: one off the cycle, one off a chain router, the rest off
        // any router so far, and one with no core.
        for t in 0..rng.range_usize(4, 8) {
            let mut tree = match t {
                0 => vec![rng.range_usize(n - cycle - 1, n - 1)],
                1 => vec![on_chain(rng)],
                2 => Vec::new(),
                _ => vec![rng.range_usize(0, chained)],
            };
            for _ in 0..rng.range_usize(1, 6) {
                if let Some(&parent) = tree.get(rng.range_usize(0, tree.len().max(1))) {
                    edges.push((parent, n, cost(rng)));
                    edges.push((n, parent, cost(rng)));
                }
                tree.push(n);
                n += 1;
            }
        }
        // A leaf tied to its router by a parallel link, which keeps it in
        // the core.
        let tied = rng.range_usize(0, chained);
        edges.extend([(tied, n, cost(rng)), (n, tied, cost(rng))]);
        edges.push(if rng.chance(0.5) {
            (tied, n, cost(rng))
        } else {
            (n, tied, cost(rng))
        });
        n += 1;
        let mut links: Vec<DirectedLinkId> = (0..edges.len()).collect();
        rng.shuffle(&mut links);
        let (mut live, mut down) = (Vec::new(), Vec::new());
        for (&(a, b, c), &link) in edges.iter().zip(&links) {
            let to = if rng.chance(0.1) {
                &mut down
            } else {
                &mut live
            };
            to.push((a, b, link, c));
        }
        (n, live, down)
    }

    /// The plain-kernel reference for [`select_landmarks`]: the same
    /// farthest-point choice over [`heap_model`] distances.
    fn model_landmarks(adj: &Adjacency, count: usize) -> Vec<Vec<u32>> {
        let mut closest = heap_model(adj, 0, Dir::Forward).0;
        let mut tables: Vec<Vec<u32>> = Vec::new();
        for _ in 0..count.min(adj.len()) {
            let mut next = 0;
            for (v, &c) in closest.iter().enumerate() {
                if c > closest[next] {
                    next = v;
                }
            }
            if !tables.is_empty() && closest[next] == 0 {
                break;
            }
            let table = heap_model(adj, next, Dir::Forward).0;
            for (c, &d) in closest.iter_mut().zip(&table) {
                *c = (*c).min(d);
            }
            tables.push(table.into_iter().map(landmark_entry).collect());
        }
        tables
    }

    /// What [`assert_contraction_matches_model`] met.
    #[derive(Default, Debug)]
    struct Folded {
        /// Interior routers.
        interior: usize,
        /// Hanging routers.
        hanging: usize,
        /// Hanging routers two or more links below a branch router.
        deep_off_branch: usize,
        /// Hanging routers two or more links below an interior router.
        deep_off_interior: usize,
        /// Hanging routers off a cycle of interior routers.
        off_cycles: usize,
        /// Trees with no core: a branch router with no core neighbour that
        /// a tree hangs off.
        tree_components: usize,
        /// Core routers whose live edges all lead to and from one other
        /// router, more than once one way: a parallel link stops the peel.
        parallel_stops: usize,
        /// Roots whose core router is an interior router.
        interior_roots: usize,
        /// Hanging roots.
        hanging_roots: usize,
        /// A hanging root and another router of its tree that share an
        /// ancestor in it, so their path stays in the tree.
        shared_trees: usize,
        /// Interior routers on cycles.
        on_cycles: usize,
        /// Interior routers on rings (a chain from a router back to itself).
        on_rings: usize,
        /// Interior labels decided by a tie between the chain's two sides.
        side_ties: usize,
    }

    /// The index of `h` and of each router above it in its tree, in
    /// [`Contracted::hangs`].
    fn tree_path(index: &Contracted, mut h: u32) -> Vec<u32> {
        let mut path = Vec::new();
        while h != NO_END {
            path.push(h);
            h = index.hangs[h as usize].parent;
        }
        path
    }

    /// From every root of `adj`, a search over its [`Contracted`] index
    /// labels every router with [`heap_model`]'s distance and canonical
    /// predecessor link; a [`RowSearch`] reused from root to root over the
    /// index builds each row a fresh plain [`RowTree::compute`] does; and
    /// [`select_landmarks`] picks [`model_landmarks`]' `landmarks` tables.
    /// Every hanging router's live edges lead to and from its parent once
    /// each, and otherwise to and from its children only; every interior
    /// router is one on its core neighbours.
    fn assert_contraction_matches_model(
        adj: &Adjacency,
        landmarks: usize,
        label: &str,
        seen: &mut Folded,
    ) {
        let index = Contracted::new(adj);
        let routers: Vec<RouterId> = (0..adj.len()).collect();
        let order = index.routers();
        let hang_router = |h: u32| order[index.arcs.len() + index.reach.len() + h as usize];
        let core = |r: u32| index.kind(r as RouterId) != Kind::Hanging;
        for r in 0..adj.len() {
            let (out, into) = (adj.neighbors(r), adj.in_neighbors(r));
            match index.place(r) {
                Place::Branch(_) => {
                    let ends = |edges: &[Edge]| {
                        let ends = edges.iter().map(|&(x, ..)| x).filter(|&x| core(x));
                        (ends.clone().count(), ends.collect::<BTreeSet<u32>>())
                    };
                    let ((outs, to), (ins, from)) = (ends(out), ends(into));
                    let hung = out.iter().any(|&(y, ..)| {
                        matches!(index.place(y as RouterId), Place::Hanging(c)
                            if index.hangs[c as usize].attach as RouterId == r)
                    });
                    seen.tree_components += usize::from(outs + ins == 0 && hung);
                    let one = to.len() == 1 && to == from && !to.contains(&(r as u32));
                    seen.parallel_stops += usize::from(one && (outs, ins) != (1, 1));
                }
                Place::Interior(i) => {
                    seen.interior += 1;
                    assert!(is_interior(adj, core, r), "{label}: {r} is not interior");
                    let [(a, _), (b, _)] = index.reach[i as usize];
                    seen.on_cycles += usize::from(a == NO_END);
                    seen.on_rings += usize::from(a == b && a != NO_END);
                }
                Place::Hanging(h) => {
                    seen.hanging += 1;
                    let hang = index.hangs[h as usize];
                    let parent = match hang.parent {
                        NO_END => hang.attach,
                        p => hang_router(p),
                    };
                    let child = |y: u32| {
                        matches!(index.place(y as RouterId), Place::Hanging(c)
                            if index.hangs[c as usize].parent == h)
                    };
                    for edges in [out, into] {
                        let up = edges.iter().filter(|&&(y, ..)| y == parent).count();
                        assert!(
                            up == 1 && edges.iter().all(|&(y, ..)| y == parent || child(y)),
                            "{label}: {r} does not hang off {parent}"
                        );
                    }
                    let deep = usize::from(hang.parent != NO_END);
                    match index.place(hang.attach as RouterId) {
                        Place::Branch(_) => seen.deep_off_branch += deep,
                        Place::Interior(i) => {
                            seen.deep_off_interior += deep;
                            seen.off_cycles += usize::from(index.reach[i as usize][0].0 == NO_END);
                        }
                        Place::Hanging(_) => panic!("{label}: {r} hangs off a hanging router"),
                    }
                }
            }
        }
        let (mut search, mut rows) = (Search::default(), RowSearch::default());
        for root in 0..adj.len() {
            let (dist, model_prev) = heap_model(adj, root, Dir::Forward);
            let labels = search.forward(adj, Some(&index), root);
            let (chain, hang) = match &labels {
                Labels::Folded(_, start) => (start.chain.is_some(), start.hang),
                Labels::Plain => (false, None),
            };
            seen.interior_roots += usize::from(chain);
            seen.hanging_roots += usize::from(hang.is_some());
            let root_path = hang.map_or_else(Vec::new, |x| tree_path(&index, x));
            for r in 0..adj.len() {
                let got = (
                    labels.distance(r, &search.dist),
                    (labels.link_into(adj, r, &search.dist))
                        .map(|(link, tail)| (tail, link as DirectedLinkId)),
                );
                assert_eq!(got, (dist[r], model_prev[r]), "{label}: {r} from {root}");
                match (&labels, index.place(r)) {
                    (Labels::Folded(..), Place::Interior(i)) if !chain => {
                        let [x, y] = index.reach[i as usize].map(|(end, cost)| match end {
                            NO_END => u64::MAX,
                            end => search.dist[end as usize].saturating_add(u64::from(cost)),
                        });
                        seen.side_ties += usize::from(x == y && x != u64::MAX);
                    }
                    (Labels::Folded(..), Place::Hanging(h)) if hang != Some(h) => {
                        let shared = tree_path(&index, h).iter().any(|a| root_path.contains(a));
                        seen.shared_trees += usize::from(shared);
                    }
                    _ => {}
                }
            }
            assert_eq!(
                rows.row(adj, Some(&index), root, &routers),
                RowTree::compute(adj, root, &routers),
                "{label}: the row from {root}"
            );
        }
        assert_eq!(
            select_landmarks(adj, landmarks),
            model_landmarks(adj, landmarks),
            "{label}: landmark tables"
        );
    }

    /// The contracted graph is exact: on seeded [`chained_digraph`]s in
    /// the kernel harness's three cost ranges, before and after 40 steps of
    /// `remove_edge`, `add_edge` and `set_edge_cost`, every router's label
    /// from every root, every row and the landmark tables equal the plain
    /// models' (see [`assert_contraction_matches_model`]). The graphs have
    /// interior and hanging roots and targets, trees two or more links deep
    /// off branch and interior routers, roots and targets in one tree, trees
    /// with no core and trees off cycles, rings, cycles, ties between a
    /// chain's two sides, parallel links that stop a peel, loops, down links
    /// and asymmetric costs, and the test counts that they do.
    ///
    /// Mutants this test kills, each checked by hand:
    /// - `is_interior` without its "same two neighbours" check;
    /// - way 1's cost left as the sum of the reverse links walked;
    /// - a root's own chain read through its ends only;
    /// - a hanging router's cost summed from its parent's edge only;
    /// - a root's own tree routed through its attachment;
    /// - the peel counting neighbours, not edges, so a parallel link does
    ///   not stop it.
    #[test]
    fn contraction_matches_the_plain_models() {
        let mut rng = SimRng::new(0xC0417AC7);
        let mut seen = Folded::default();
        for case in 0..64 {
            let costs = [(1, 3), (500, 40_000), (1, 10_000_000)][case % 3];
            let (n, live, down) = chained_digraph(&mut rng, costs);
            let mut adj = digraph_reserving(n, &live, &down);
            assert_contraction_matches_model(&adj, 4, &format!("case {case}"), &mut seen);
            let all: Vec<DirectedEdge> = live.iter().chain(&down).copied().collect();
            let mut up: Vec<bool> = (0..all.len()).map(|e| e < live.len()).collect();
            for _ in 0..40 {
                let e = rng.range_usize(0, all.len());
                let (a, b, link, _) = all[e];
                match (rng.range_usize(0, 3), up[e]) {
                    (0, true) => adj.remove_edge(a, b, link),
                    (1, false) => adj.add_edge(a, b, link, costs.0 + rng.next_below(costs.1)),
                    _ => adj.set_edge_cost(a, b, link, costs.0 + rng.next_below(costs.1)),
                }
                up[e] = adj.neighbors(a).iter().any(|&(_, l, _)| l as usize == link);
            }
            let label = format!("case {case}, mutated");
            assert_contraction_matches_model(&adj, 4, &label, &mut seen);
        }
        assert!(
            seen.interior >= 1_000
                && seen.hanging >= 120
                && seen.deep_off_branch >= 200
                && seen.deep_off_interior >= 40
                && seen.off_cycles >= 20
                && seen.tree_components >= 40
                && seen.parallel_stops >= 50
                && seen.interior_roots >= 1_000
                && seen.hanging_roots >= 800
                && seen.shared_trees >= 800
                && seen.on_cycles >= 120
                && seen.on_rings >= 30
                && seen.side_ties >= 150,
            "{seen:?}"
        );
    }

    /// A chain that costs more than an arc's `u32` either way stays
    /// expanded, and one that costs exactly `u32::MAX` folds; a tree that
    /// costs more than a `u32` from its attachment stops its peel below,
    /// and one that costs exactly `u32::MAX` hangs. All route as the plain
    /// models do.
    #[test]
    fn a_chain_beyond_u32_stays_expanded() {
        let max = u64::from(u32::MAX);
        // 0 - 1 - 2 - 3 - 4 costs more than u32::MAX one way and less the
        // other; 4 - 5 - 6 costs at most u32::MAX both ways. A ring of two
        // on each of 0, 4 and 6 keeps them branch routers.
        let mut edges = Vec::new();
        let chain = [
            (0, 1, max - 2, 1),
            (1, 2, 1, max),
            (2, 3, 1, 1),
            (3, 4, max / 2, 1),
        ];
        let fits = [(4, 5, max / 2 + 1, max - 1), (5, 6, 1, 1)];
        let rings = [
            (0, 7, 1, 1),
            (7, 8, 1, 1),
            (8, 0, 1, 1),
            (4, 9, 1, 1),
            (9, 10, 1, 1),
            (10, 4, 1, 1),
            (6, 11, 1, 1),
            (11, 12, 1, 1),
            (12, 6, 1, 1),
        ];
        // 6 - 13 - 14 costs exactly u32::MAX down; 0 - 15 - 16 one more.
        let trees = [(6, 13, max - 1, 1), (13, 14, 1, 1), (0, 15, max, 1), (15, 16, 1, 1)];
        for &(a, b, fwd, rev) in chain.iter().chain(&fits).chain(&rings).chain(&trees) {
            edges.extend([(a, b, fwd), (b, a, rev)]);
        }
        let directed: Vec<DirectedEdge> = (edges.iter().enumerate())
            .map(|(link, &(a, b, c))| (a, b, link, c))
            .collect();
        let adj = digraph(17, &directed);
        let index = Contracted::new(&adj);
        let of = |kind| (0..17).filter(|&r| index.kind(r) == kind).collect::<Vec<RouterId>>();
        assert_eq!(of(Kind::Hanging), [13, 14, 16], "the trees that fit hang");
        assert_eq!(
            of(Kind::Interior),
            [5, 7, 8, 9, 10, 11, 12],
            "the chain that fits and the rings fold"
        );
        let core = |r: u32| index.kind(r as RouterId) != Kind::Hanging;
        assert!([1, 2, 3].iter().all(|&r| is_interior(&adj, core, r)));
        // Its distances do not fit a landmark table.
        assert_contraction_matches_model(&adj, 0, "u32 chains", &mut Folded::default());
    }

    /// The counted target of the contracted graph, on the 20,300 routers of
    /// `paper_scale(200, 7)`: the index hangs exactly the routers that a
    /// plain peel model removes (a queue of routers with one live link
    /// left, which is enough where every link runs both ways), and its
    /// branch routers are exactly the rest with three or more links left.
    /// Prints and pins the folded graph's size.
    #[test]
    fn paper_class_branch_routers_are_the_core_of_degree_three() {
        let config = bullet_topology::TopologyConfig::paper_scale(200, 7);
        let spec = bullet_topology::generate(&config).spec;
        let links = spec.links.iter().enumerate().flat_map(|(i, link)| {
            let cost = link.delay.as_micros().max(1);
            [
                (link.a, link.b, 2 * i, cost, link.up),
                (link.b, link.a, 2 * i + 1, cost, link.up),
            ]
        });
        let adj = Adjacency::new(spec.routers, links);
        let n = adj.len();
        let mut left: Vec<usize> = (0..n).map(|r| adj.neighbors(r).len()).collect();
        let mut peeled = vec![false; n];
        let mut queue: VecDeque<RouterId> = (0..n).filter(|&r| left[r] == 1).collect();
        while let Some(r) = queue.pop_front() {
            if peeled[r] || left[r] != 1 {
                continue;
            }
            peeled[r] = true;
            for &(p, ..) in adj.neighbors(r) {
                let p = p as RouterId;
                if !peeled[p] {
                    left[p] -= 1;
                    if left[p] == 1 {
                        queue.push_back(p);
                    }
                }
            }
        }
        let index = Contracted::new(&adj);
        let of = |kind| (0..n).filter(|&r| index.kind(r) == kind).collect::<Vec<RouterId>>();
        let hanging: Vec<RouterId> = (0..n).filter(|&r| peeled[r]).collect();
        let core3: Vec<RouterId> = (0..n).filter(|&r| !peeled[r] && left[r] >= 3).collect();
        assert_eq!(of(Kind::Hanging), hanging);
        assert_eq!(of(Kind::Branch), core3);
        let counts = (n, core3.len(), index.arcs.edges.len(), hanging.len());
        println!("routers, branch routers, arcs, hanging routers: {counts:?}");
        assert_eq!(counts, (20_300, 2_848, 9_938, 4_200));
    }

    /// Every ordered pair of `adj` must route — cost and hop sequence — as the
    /// reference Dijkstra does, on a lazy router with each of the given
    /// landmark counts (0 is plain bidirectional search).
    fn assert_all_pairs_canonical(adj: &Adjacency, landmark_counts: &[usize], label: &str) {
        let mut routers: Vec<LazyRouter> = landmark_counts
            .iter()
            .map(|&landmarks| lazy_router(adj, landmarks))
            .collect();
        for src in 0..adj.len() {
            let model = model_paths(adj, src);
            for (dst, want) in model.into_iter().enumerate() {
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
                let mut router = lazy_router(&symmetric, 0);
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
                let mut router = lazy_router(&adj, landmarks);
                for src in 0..n {
                    let model = model_paths(&adj, src);
                    for dst in (0..n).filter(|&dst| dst != src) {
                        let label = format!("case {case}, {landmarks} landmarks: {src}->{dst}");
                        let before = router.stats().settled;
                        let got = router.query(&adj, src, dst).map(|(c, p)| (c, p.to_vec()));
                        let settled = router.stats().settled - before;
                        let (mu, model_settled, fwd, bwd) =
                            keyed_model_search(&adj, router.landmark_tables(), src, dst);
                        let want = model[dst].clone();
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
        let mut router = lazy_router(&adj, 2);
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
        let mut lazy = lazy_router(&adj, 0);
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

    /// `from → to` by a point query, as an owned link sequence.
    fn point_path(net: &mut Network, from: usize, to: usize) -> Option<Vec<DirectedLinkId>> {
        let id = net.route(from, to)?;
        Some(
            net.route_links(id)
                .iter()
                .map(|&l| l as DirectedLinkId)
                .collect(),
        )
    }

    /// `from → to` read off `from`'s row tree, as an owned link sequence.
    fn batched_path(net: &mut Network, from: usize, to: usize) -> Option<Vec<DirectedLinkId>> {
        let mut path = Vec::new();
        net.row_trees(&[from])[0]
            .path_into(to, &mut path)
            .then_some(path)
    }

    // In a lazy-mode network a row tree runs the reference Dijkstra and a
    // point query runs `LazyRouter::query`: the four tests below compare two
    // implementations, each on a network of its own so neither is served
    // from the other's memo.

    #[test]
    fn batched_paths_match_the_reference_on_a_line() {
        let mut rows = lazy_network(5, &line_edges(5), 0);
        let mut points = lazy_network(5, &line_edges(5), 0);
        let row = &rows.row_trees(&[1])[0];
        let mut path = Vec::new();
        for t in [4, 0, 1, 3, 4] {
            // out of order, the source itself, a repeat
            let got = row.path_into(t, &mut path).then(|| path.clone());
            assert_eq!(got, point_path(&mut points, 1, t), "1->{t}");
        }
        assert_eq!(batched_path(&mut rows, 1, 4), Some(vec![2, 4, 6]));
        let stats = rows.routing_stats();
        assert_eq!((stats.batched_queries, stats.lazy_searches), (2, 0));
        assert_eq!(points.routing_stats().lazy_searches, 3);
    }

    /// A row's branches hang off the first tree router they meet: on a
    /// star of two-hop spokes with one shared first hop, the tree holds
    /// each link once, and a branch anchored at the root would lose the
    /// shared hop. A branch that does not continue from the entry before it
    /// costs one marker entry, and only such a branch does.
    #[test]
    fn row_trees_share_the_links_of_common_prefixes() {
        // 0 - 1, then 1 - 2, 1 - 3 and 1 - 4: every path out of 0 starts
        // with link 0.
        let edges = [(0, 1, 5), (1, 2, 5), (1, 3, 5), (1, 4, 5)];
        let mut net = lazy_network(5, &edges, 0);
        let row = &net.row_trees(&[0])[0];
        // Target 2's branch continues from link 0's entry; targets 3 and 4
        // each start a branch at node 1 with a marker.
        let markers = row.entries.iter().filter(|&&e| e & BRANCH != 0).count();
        assert_eq!(
            (row.entries.len() - markers, markers),
            (4, 2),
            "one entry per distinct link, one marker per branch off an earlier node"
        );
        assert_eq!(&*row.entries, [0, 2, BRANCH | 1, 4, BRANCH | 1, 6]);
        let mut path = Vec::new();
        for (t, last) in [(2, 2), (3, 4), (4, 6)] {
            assert!(row.path_into(t, &mut path));
            assert_eq!(path, [0, last], "0->{t}");
        }
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
            assert_eq!(batched_path(&mut rows, 0, 0), Some(vec![]));
            for t in 0..4 {
                assert_eq!(
                    batched_path(&mut rows, 0, t),
                    point_path(&mut points, 0, t),
                    "0->{t}"
                );
            }
        }
    }

    /// Row trees must return bit-identical canonical paths to the pairwise
    /// lazy searches on tie-heavy random graphs, with and without landmarks.
    #[test]
    fn batched_paths_match_reference_on_random_tie_heavy_graphs() {
        let mut rng = SimRng::new(0xBA7C4);
        let mut path = Vec::new();
        for case in 0..20 {
            let (n, edges) = random_tie_heavy_edges(&mut rng);
            for landmarks in [0, 3] {
                let mut rows = lazy_network(n, &edges, landmarks);
                let mut points = lazy_network(n, &edges, landmarks);
                let sources: Vec<usize> = (0..n).collect();
                for (src, row) in rows.row_trees(&sources).iter().enumerate() {
                    for dst in 0..n {
                        assert_eq!(
                            row.path_into(dst, &mut path).then(|| path.clone()),
                            point_path(&mut points, src, dst),
                            "case {case}: {src}->{dst}, {landmarks} landmarks"
                        );
                    }
                }
                assert_eq!(rows.routing_stats().lazy_searches, 0);
                assert_eq!(points.routing_stats().batched_queries, 0);
            }
        }
    }

    /// Row trees interleave with point queries on one network: a row
    /// touches neither the memo nor the lazy router's workspace.
    #[test]
    fn batched_and_pairwise_queries_interleave() {
        let mut net = lazy_network(6, &line_edges(6), 2);
        let first = net.route(0, 5).expect("connected");
        assert_eq!(batched_path(&mut net, 0, 2), point_path(&mut net, 0, 2));
        assert_eq!(batched_path(&mut net, 0, 2), Some(vec![0, 2]));
        assert_eq!(net.route(0, 5), Some(first), "the row kept 0->5");
        let back = net.route(5, 0).expect("connected");
        assert_eq!(net.route_links(back), &[9, 7, 5, 3, 1]);
        assert_eq!(batched_path(&mut net, 5, 0), Some(vec![9, 7, 5, 3, 1]));
        let stats = net.routing_stats();
        assert_eq!((stats.lazy_searches, stats.batched_queries), (3, 3));
        // Three point searches; the rows count none.
        assert_eq!(stats.route_queries, 3);
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
            let model = model_paths(&fresh, src);
            assert_eq!(model_paths(&adj, src), model, "from {src}");
            let links: Vec<_> = model
                .into_iter()
                .map(|p| p.map(|(_, links)| links))
                .collect();
            assert_eq!(row_paths(&adj, src), links, "row from {src}");
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
        let mut router = lazy_router(&adj, 2);
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
            let (true_dists, _) = heap_model(&adj, src, Dir::Forward);
            for (dst, &true_dist) in true_dists.iter().enumerate() {
                for table in router.landmark_tables() {
                    assert!(u64::from(table[src].abs_diff(table[dst])) <= true_dist);
                }
            }
        }
        // And queries still return canonical paths with correct costs.
        let (cost, path) = router.query(&adj, 1, 5).unwrap();
        assert_eq!(Some((cost, path.to_vec())), model_paths(&adj, 1)[5]);
    }
}
