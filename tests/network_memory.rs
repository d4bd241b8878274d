//! Pins, as counts, what a paper-scale network keeps in memory.
//!
//! A counting global allocator tracks live bytes and live allocations. On
//! the 100-participant paper topology class (≈ 20k routers, ≈ 45k directed
//! links) the test measures what `NetworkSetup::new` holds — the routing
//! graph and the landmark tables — and what one `Network::with_setup` view
//! adds on top, and keeps both under ceilings. The graph is two flat tables,
//! so the setup is a handful of allocations; a graph with one edge list per
//! router would hold tens of thousands and fail here. The view's search
//! workspace must appear at its first point query and not before. The test
//! then builds the offline bottleneck tree over 40 participants, which
//! interns a route for every participant pair, and bounds what the view
//! grows by per interned route link: a 4-byte link id plus each route's
//! share of its span, endpoints, cost and stale flag; the tree's view never
//! holds a workspace. Last, on the small emulation class, the eager
//! per-source trees must hold 4 bytes per router and source.
//!
//! The counts are the same on every run for a given toolchain. This file
//! contains exactly one test so no concurrent test can touch the
//! process-wide counters during the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use bullet_suite::netsim::{Network, NetworkSetup, RoutingMode, SimDuration};
use bullet_suite::overlay::{bottleneck_tree, OmbtConfig};
use bullet_suite::topology::{generate, TopologyConfig};

struct CountingAllocator;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_ALLOCATIONS: AtomicI64 = AtomicI64::new(0);

fn count_alloc(size: usize) {
    LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed);
    LIVE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        LIVE_ALLOCATIONS.fetch_sub(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Ceiling on the bytes a paper-scale `NetworkSetup` holds.
const SETUP_CEILING: i64 = 2_103_000;

/// Ceiling on the bytes a paper-scale `Network` view holds before its first
/// point query.
const VIEW_CEILING: i64 = 2_624_000;

/// `(live bytes, live allocations)` right now.
fn live() -> (i64, i64) {
    (
        LIVE_BYTES.load(Ordering::SeqCst),
        LIVE_ALLOCATIONS.load(Ordering::SeqCst),
    )
}

/// What became live since `before`.
fn held_since(before: (i64, i64)) -> (i64, i64) {
    let now = live();
    (now.0 - before.0, now.1 - before.1)
}

#[test]
fn a_paper_scale_network_holds_flat_routing_state() {
    let topo = generate(&TopologyConfig::paper_scale(100, 7));
    let (routers, links) = (topo.spec.routers, 2 * topo.spec.links.len());
    assert!(routers >= 20_000, "paper class must be paper-sized");

    let before = live();
    let setup = NetworkSetup::new(&topo.spec);
    let (setup_bytes, setup_allocations) = held_since(before);
    assert!(matches!(setup.mode(), RoutingMode::LazyAlt { .. }));

    let before = live();
    let mut view = Network::with_setup(&topo.spec, &setup);
    let (view_bytes, view_allocations) = held_since(before);
    assert_eq!(view.routers(), routers);

    let report = format!(
        "{routers} routers, {links} directed links: setup {setup_bytes} B in \
         {setup_allocations} allocations, view {view_bytes} B in {view_allocations}"
    );
    // Measured on 20,200 routers and 44,642 directed links: the setup holds
    // 2,041,384 B in 15 allocations — two 12-byte edge slots per directed
    // link and eight tables of 4-byte landmark distances — and a view
    // 2,547,017 B in 109, nearly all of it 56-byte directed links. The
    // ceilings leave 3 % on bytes and a few allocations. A graph of one
    // edge-list `Vec` per router and direction holds over 40,000
    // allocations; 16-byte edges and 8-byte landmark entries make the setup
    // 3.04 MB, and a workspace built with the view makes it 4.2 MB.
    assert!(setup_bytes <= SETUP_CEILING, "{report}");
    assert!(setup_allocations <= 20, "{report}");
    assert!(view_bytes <= VIEW_CEILING, "{report}");
    assert!(view_allocations <= 115, "{report}");

    // The view's first point query allocates the search workspace, a 41-byte
    // label set per router (two 12-byte frontier labels, a 12-byte potential
    // and a 5-byte reconstruction memo); the next query finds it there.
    let attachments = &topo.spec.attachments;
    let far = (1..attachments.len())
        .find(|&p| attachments[p] != attachments[0])
        .expect("participants on two routers");
    let workspace = 41 * routers as i64;
    let before = live();
    view.route(0, far).expect("the paper topology is connected");
    let (first_query, _) = held_since(before);
    let before = live();
    view.route(far, 0).expect("the paper topology is connected");
    let (second_query, _) = held_since(before);
    let report = format!(
        "workspace {workspace} B: the first query grew the view by {first_query} B, \
         the second by {second_query} B"
    );
    // Measured: 830,083 B, then 580 B.
    let at_first_query_only = (workspace..=workspace + 16_384).contains(&first_query);
    assert!(
        at_first_query_only && second_query <= workspace / 10,
        "{report}"
    );

    let topo = generate(&TopologyConfig::paper_scale(40, 7));
    let participants = topo.spec.participants();
    let setup = NetworkSetup::new(&topo.spec);
    let before = live();
    let mut view = Network::with_setup(&topo.spec, &setup);
    let (fresh_view, _) = held_since(before);
    let before = live();
    let tree = bottleneck_tree(&mut view, participants, 0, &OmbtConfig::default());
    drop(tree);
    let (grown, _) = held_since(before);
    // Every pair is a memo hit now, so these are the routes the tree interned.
    let queries = view.routing_stats().route_queries;
    let mut route_links = 0;
    for a in 0..participants {
        for b in 0..participants {
            let id = view.route(a, b).expect("the paper topology is connected");
            route_links += view.route_links(id).len();
        }
    }
    assert_eq!(view.routing_stats().route_queries, queries);
    assert_eq!(
        view.routing_stats().lazy_searches,
        0,
        "the tree ran row fills only"
    );
    let per_link = grown as f64 / route_links as f64;
    let report = format!(
        "{participants} participants: a fresh view of {fresh_view} B, which the tree \
         grew by {grown} B over {route_links} interned route links, {per_link:.2} B each"
    );
    // Measured: a fresh view of 2,503,145 B grew by 190,951 B over 31,250
    // route links, 6.11 B each. A route arena of 8-byte link ids with a
    // link→routes back-index holds 17.4 B a link.
    assert!(per_link <= 8.0, "{report}");
    // The tree's row fills need no search workspace, so the view holds its
    // links, memo and routes alone: a workspace would add 0.83 MB.
    assert!(
        fresh_view + grown <= VIEW_CEILING + 8 * route_links as i64,
        "{report}"
    );

    // Small topologies route with eager per-source trees. Warm every pair of
    // the emulation class, then drop the tree cache with a route-affecting
    // mutation: what it frees is what the trees held, one 4-byte predecessor
    // link per router and source. The first mutation gives the view its own
    // copy of the graph, so the measured one allocates none.
    let topo = generate(&TopologyConfig::emulation(60, 7));
    let (routers, participants) = (topo.spec.routers, topo.spec.participants());
    let setup = NetworkSetup::with_routing(&topo.spec, RoutingMode::EagerPerSource);
    let mut view = Network::with_setup(&topo.spec, &setup);
    let delay = topo.spec.links[0].delay;
    view.set_link_delay(0, delay + SimDuration::from_millis(1));
    for a in 0..participants {
        for b in 0..participants {
            view.route(a, b);
        }
    }
    let sources = view.routing_stats().trees_built as i64;
    let before = live();
    view.set_link_delay(0, delay + SimDuration::from_millis(2));
    let (freed, _) = held_since(before);
    let per_router = -freed as f64 / (sources * routers as i64) as f64;
    let report = format!(
        "{sources} cached trees over {routers} routers freed {} B, {per_router:.2} B per \
         router and source",
        -freed
    );
    // Measured: 60 trees over 1,116 routers freed 267,840 B, 4.00 B each. A
    // tree of 8-byte predecessors and 8-byte distances frees 16.
    assert!(
        sources >= 40 && (3.5..=4.0).contains(&per_router),
        "{report}"
    );
}
