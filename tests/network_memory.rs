//! Pins, as counts, what a paper-scale network keeps in memory.
//!
//! A counting global allocator tracks live bytes and live allocations. On
//! the 100-participant paper topology class (≈ 20k routers, ≈ 45k directed
//! links) the test measures what `NetworkSetup::new` holds — the routing
//! graph and the landmark tables — and what one `Network::with_setup` view
//! adds on top, and keeps both under ceilings. The graph is two flat tables,
//! so the setup is a handful of allocations; a graph with one edge list per
//! router would hold tens of thousands and fail here. It then builds the
//! offline bottleneck tree over 40 participants, which interns a route for
//! every participant pair, and bounds what the view grows by per interned
//! route link: a 4-byte link id plus each route's share of its span,
//! endpoints, cost and stale flag.
//!
//! The counts are the same on every run for a given toolchain. This file
//! contains exactly one test so no concurrent test can touch the
//! process-wide counters during the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use bullet_suite::netsim::{Network, NetworkSetup, RoutingMode};
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
    let view = Network::with_setup(&topo.spec, &setup);
    let (view_bytes, view_allocations) = held_since(before);
    assert_eq!(view.routers(), routers);

    let report = format!(
        "{routers} routers, {links} directed links: setup {setup_bytes} B in \
         {setup_allocations} allocations, view {view_bytes} B in {view_allocations}"
    );
    // Measured on 20,200 routers and 44,642 directed links: the setup holds
    // 3,044,920 B in 15 allocations, and a view 4,217,249 B in 121. The
    // ceilings leave 3 % on bytes and a few allocations. A graph of one
    // edge-list `Vec` per router and direction holds over 40,000 allocations.
    assert!(setup_bytes <= 3_140_000, "{report}");
    assert!(setup_allocations <= 20, "{report}");
    assert!(view_bytes <= 4_344_000, "{report}");
    assert!(view_allocations <= 125, "{report}");

    let topo = generate(&TopologyConfig::paper_scale(40, 7));
    let participants = topo.spec.participants();
    let setup = NetworkSetup::new(&topo.spec);
    let mut view = Network::with_setup(&topo.spec, &setup);
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
    let per_link = grown as f64 / route_links as f64;
    let report = format!(
        "{participants} participants: the tree grew the view by {grown} B over \
         {route_links} interned route links, {per_link:.2} B each"
    );
    // Measured: 190,951 B over 31,250 route links, 6.11 B each. A route
    // arena of 8-byte link ids with a link→routes back-index holds 17.4.
    assert!(per_link <= 8.0, "{report}");
}
