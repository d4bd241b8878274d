//! Pins, as counts, what a paper-scale network keeps in memory.
//!
//! A counting global allocator tracks live bytes and live allocations. On
//! the 100-participant paper topology class (≈ 20k routers, ≈ 45k directed
//! links) the test measures what `NetworkSetup::new` holds — the link
//! parameters, the routing graph and the landmark tables — and what one
//! `Network::with_setup` view adds on top, and keeps both under ceilings.
//! The graph is two flat tables, so the setup is a handful of allocations; a
//! graph with one edge list per router would hold tens of thousands and fail
//! here. The view's search workspace must appear at its first point query
//! and not before. Link stress, counted per traced packet, must cost a
//! pinned number of bytes per (trace, link) pair. The test then builds the offline bottleneck tree over 40 participants, whose
//! oracle reads one row tree per participant and interns nothing: the view
//! must not grow, and the build's peak above it is bounded by the row
//! trees' entries and leaves, the oracle's flow array and one row search per
//! worker, on one worker and on two.
//! Last, on the small emulation class, the eager mode's cached rows must
//! hold 4 bytes per row entry (a link or a branch marker) and 4 bytes per
//! participant, and a route-affecting mutation must free them.
//!
//! The counts are the same on every run for a given toolchain. This file
//! contains exactly one test so no concurrent test can touch the
//! process-wide counters during the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use std::collections::BTreeSet;

use bullet_suite::netsim::{
    ordered_map, Network, NetworkSetup, RoutingMode, SimDuration, SimRng, SimTime,
};
use bullet_suite::overlay::{bottleneck_tree, OmbtConfig};
use bullet_suite::topology::{generate, TopologyConfig};

#[path = "support/row_entries.rs"]
mod row_entries;
use row_entries::RowEntries;

struct CountingAllocator;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_ALLOCATIONS: AtomicI64 = AtomicI64::new(0);
/// The most bytes live at once since the last [`reset_peak`].
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Adds `delta` to the live bytes and raises the peak to the new total.
fn grow(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn count_alloc(size: usize) {
    grow(size as i64);
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
        grow(new_size as i64 - layout.size() as i64);
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

/// Ceiling on the bytes a paper-scale `NetworkSetup`'s routing state holds;
/// the setup may hold 40 bytes more per physical link, its `LinkParams`.
const SETUP_CEILING: i64 = 2_103_000;

/// Ceiling on the bytes a paper-scale `Network` view holds before its first
/// point query.
const VIEW_CEILING: i64 = 375_200;

/// Ceiling on a paper-scale setup and one view of it together.
const SETUP_AND_VIEW_CEILING: i64 = 3_397_400;

/// Ceiling on the link-stress bytes per distinct (trace, link) pair.
const STRESS_BYTES_PER_PAIR: f64 = 14.87;

/// `(live bytes, live allocations)` right now.
fn live() -> (i64, i64) {
    (
        LIVE_BYTES.load(Ordering::SeqCst),
        LIVE_ALLOCATIONS.load(Ordering::SeqCst),
    )
}

/// Starts a new peak window at the bytes live now, and returns them.
fn reset_peak() -> i64 {
    let now = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(now, Ordering::SeqCst);
    now
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
    let setup_ceiling = SETUP_CEILING + 40 * topo.spec.links.len() as i64;
    assert!(routers >= 20_000, "paper class must be paper-sized");

    let before = live();
    let setup = NetworkSetup::new(&topo.spec);
    let (setup_bytes, setup_allocations) = held_since(before);

    let before = live();
    let mut view = Network::with_setup(&topo.spec, &setup);
    let (view_bytes, view_allocations) = held_since(before);
    assert!(matches!(
        view.routing_stats().mode,
        RoutingMode::LazyAlt { .. }
    ));

    let report = format!(
        "{routers} routers, {links} directed links: setup {setup_bytes} B in \
         {setup_allocations} allocations, view {view_bytes} B in {view_allocations}"
    );
    // Measured on 20,200 routers and 44,642 directed links: the setup holds
    // 2,934,240 B in 16 allocations — two 12-byte edge slots per directed
    // link, eight tables of 4-byte landmark distances and a 40-byte
    // `LinkParams` per physical link (892,856 B) — and a view 364,201 B in
    // 108, nearly all of it 8-byte link clocks. The ceilings leave 3 % on
    // bytes and a few allocations. A view that copied each directed link's
    // parameters beside its clock, 56 B per link, held 2,507,017 B, and a
    // setup and view together 4,548,401 B. A graph of one edge-list `Vec`
    // per router and direction holds over 40,000 allocations; 16-byte edges
    // and 8-byte landmark entries make the routing state 3.04 MB, a
    // workspace built with the view adds its 41 B per router to it, and a
    // route memo built with it adds its 40,000 B.
    assert!(setup_bytes <= setup_ceiling, "{report}");
    assert!(setup_allocations <= 20, "{report}");
    assert!(view_bytes <= VIEW_CEILING, "{report}");
    assert!(view_allocations <= 115, "{report}");
    assert!(
        setup_bytes + view_bytes <= SETUP_AND_VIEW_CEILING,
        "{report}"
    );

    // The view's first point query allocates the search workspace, a 41-byte
    // label set per router (two 12-byte frontier labels, a 12-byte potential
    // and a 5-byte reconstruction memo), and the route memo, 4 B per
    // participant pair; the next query finds both there.
    let attachments = &topo.spec.attachments;
    let far = (1..attachments.len())
        .find(|&p| attachments[p] != attachments[0])
        .expect("participants on two routers");
    let workspace = 41 * routers as i64;
    let memo = 4 * (attachments.len() as i64).pow(2);
    let before = live();
    view.route(0, far).expect("the paper topology is connected");
    let (first_query, _) = held_since(before);
    let before = live();
    view.route(far, 0).expect("the paper topology is connected");
    let (second_query, _) = held_since(before);
    let report = format!(
        "workspace {workspace} B and memo {memo} B: the first query grew the view by \
         {first_query} B, the second by {second_query} B"
    );
    // Measured: 870,083 B, then 580 B.
    let at_first_query_only = (workspace + memo..=workspace + memo + 16_384).contains(&first_query);
    assert!(
        at_first_query_only && second_query <= workspace / 10,
        "{report}"
    );

    // Link stress is counted per traced packet: a map from each directed
    // link the packet crossed to its copies there. Trace one packet out of
    // each participant along its routes to the next eight, with trace ids
    // far apart, and count what the table holds per distinct (trace, link)
    // pair. The routes are looked up first, so only the table grows.
    let n = attachments.len();
    let traced: Vec<Vec<u32>> = (0..n)
        .map(|source| {
            (1..=8)
                .flat_map(|k| {
                    let id = view.route(source, (source + k) % n).expect("connected");
                    view.route_links(id).to_vec()
                })
                .collect()
        })
        .collect();
    let pairs: usize = (traced.iter())
        .map(|links| links.iter().collect::<BTreeSet<_>>().len())
        .sum();
    let mut rng = SimRng::new(7);
    let before = live();
    for (packet, links) in traced.iter().enumerate() {
        let trace = (packet as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for &link in links {
            view.offer_hop(SimTime::ZERO, link as usize, 1_500, Some(trace), &mut rng);
        }
    }
    let (stress_bytes, _) = held_since(before);
    let per_pair = stress_bytes as f64 / pairs as f64;
    let report = format!(
        "{n} traced packets over {pairs} distinct (trace, link) pairs: {stress_bytes} B of \
         link stress, {per_pair:.2} B per pair"
    );
    println!("{report}");
    assert_eq!(view.stress_stats().traced_packets, n, "{report}");
    // Measured: 149,584 B over 10,365 pairs, 14.43 B per pair (an 8-byte
    // link and count per pair, about 104 links per packet); the ceiling
    // leaves 3 %. One map per directed link keyed by 8-byte trace ids,
    // beside a per-trace aggregate, held 602,716 B here, 58.15 B per pair.
    assert!(per_pair <= STRESS_BYTES_PER_PAIR, "{report}");

    let topo = generate(&TopologyConfig::paper_scale(40, 7));
    let links = 2 * topo.spec.links.len();
    let participants = topo.spec.participants();
    let setup = NetworkSetup::new(&topo.spec);
    // One row search, on a view of its own, peaks at its workspace and the
    // row tree it returns. The oracle keeps one workspace per worker.
    let mut probe = Network::with_setup(&topo.spec, &setup);
    let base = reset_peak();
    drop(probe.row_trees(&[0]));
    let search = PEAK_BYTES.load(Ordering::SeqCst) - base;
    drop(probe);
    // Each build runs as the one task of a map of width `workers`, so its
    // rows are built on exactly that many workers on any host.
    let builds: Vec<_> = [1, 2]
        .into_iter()
        .map(|workers| {
            let built = ordered_map(
                workers,
                1,
                || (),
                |_, _| {
                    let before = live();
                    let mut view = Network::with_setup(&topo.spec, &setup);
                    let (fresh_view, _) = held_since(before);
                    let before = live();
                    let base = reset_peak();
                    let tree = bottleneck_tree(&mut view, participants, 0, &OmbtConfig::default());
                    let peak = PEAK_BYTES.load(Ordering::SeqCst) - base;
                    drop(tree);
                    let (grown, _) = held_since(before);
                    (view, fresh_view, grown, peak)
                },
            );
            let (view, fresh_view, grown, peak) = built.into_iter().next().expect("one build");
            (workers, view.routing_stats(), fresh_view, grown, peak)
        })
        .collect();
    // A row tree holds each distinct link of its row's canonical paths
    // once, and those are the links of the point routes out of its source,
    // beside a marker per branch that does not continue from the entry
    // before it.
    let mut view = Network::with_setup(&topo.spec, &setup);
    let (mut row_links, mut row_entries) = (0, 0);
    for a in 0..participants {
        let mut row = RowEntries::default();
        for b in 0..participants {
            let id = view.route(a, b).expect("the paper topology is connected");
            row.add_path(view.route_links(id));
        }
        (row_links, row_entries) = (row_links + row.links(), row_entries + row.entries);
    }
    let n = participants as i64;
    let rows = 4 * row_entries + 4 * n * n;
    let flows = 4 * links as i64;
    for (workers, stats, fresh_view, grown, peak) in builds {
        let report = format!(
            "{participants} participants on {workers} workers: a fresh view of {fresh_view} B, \
             which the tree grew by {grown} B after {} row searches and {} point searches; a \
             build peak of {peak} B above it, against {rows} B of row trees over {row_links} \
             links and {} branch markers, a {flows} B flow array and row searches of {search} B",
            stats.batched_queries,
            stats.lazy_searches,
            row_entries - row_links
        );
        // The oracle's rows are its own and gone with it, and it needs no
        // point route: the view keeps no route, route memo or workspace.
        assert!(grown <= 4_096, "{report}");
        assert_eq!(
            (stats.batched_queries, stats.lazy_searches),
            (participants as u64, 0),
            "{report}"
        );
        // The peak holds every row tree at once, 4 B per entry (a link or a
        // branch marker) and 4 B per participant, beside the oracle's 4-byte
        // flow count per directed link and the workspaces of the row
        // searches running at once, one per worker; 16 KB covers the rest of
        // the greedy's state. Measured: a 659,772 B search (the contracted
        // graph of the call, shared by the workers, and one row search over
        // it), 73,628 B of row trees (15,287 links and 1,520 markers) and a
        // 178,088 B flow array; a peak of 913,500 B on one worker, the
        // same on every run, and of 1,042,876 B on two, which varies with
        // how far the two searches overlap. A contracted graph that folded
        // single leaves but not whole trees made the search 749,084 B and
        // the peaks 1,002,812 and 1,181,404 B. Over the plain graph the
        // search was 350,292 B and the peaks 609,688 and 946,016 B. With
        // 8-byte `(parent, link)` entries the rows held
        // 128,696 B and the one-worker peak was 660,836 B. Interning a route
        // per pair grew the view by 190,951 B and peaked at 734,339 B on one
        // worker, above its ceiling.
        assert!(
            peak <= rows + flows + workers as i64 * search + 16_384,
            "{report}"
        );
    }

    // Small topologies route with eager per-source rows. Warm every pair of
    // the emulation class, then drop the row cache with a route-affecting
    // mutation: what it frees is what the rows held, 4 B per row entry and
    // 4 B per participant per row. The first mutation gives the view its
    // own copy of the graph, so the measured one allocates none.
    let topo = generate(&TopologyConfig::emulation(60, 7));
    let participants = topo.spec.participants();
    let setup = NetworkSetup::with_routing(&topo.spec, RoutingMode::EagerPerSource);
    let mut view = Network::with_setup(&topo.spec, &setup);
    let delay = topo.spec.links[0].delay;
    view.set_link_delay(0, delay + SimDuration::from_millis(1));
    // A row holds each distinct link of the point routes out of its source,
    // and its branch markers.
    let (mut row_links, mut row_entries) = (0, 0);
    for a in 0..participants {
        let mut row = RowEntries::default();
        for b in 0..participants {
            let id = view
                .route(a, b)
                .expect("the emulation topology is connected");
            row.add_path(view.route_links(id));
        }
        (row_links, row_entries) = (row_links + row.links(), row_entries + row.entries);
    }
    let sources = view.routing_stats().trees_built as i64;
    let before = live();
    view.set_link_delay(0, delay + SimDuration::from_millis(2));
    let (freed, _) = held_since(before);
    let rows = 4 * row_entries + 4 * participants as i64 * sources;
    let report = format!(
        "{sources} cached rows over {row_links} links, {} branch markers and {participants} \
         participants freed {} B, against {rows} B of row trees",
        row_entries - row_links,
        -freed
    );
    // Measured: 60 rows over 16,498 links and 3,480 markers freed 94,312 B,
    // exactly 4 B per entry and 4 B per leaf, so the ceiling has no slack
    // (8-byte entries freed 146,384 B). One 4-byte predecessor link per
    // router and source freed 267,840 B here. A mutation that kept the rows
    // would free nothing.
    assert!(
        sources == participants as i64 && (rows / 2..=rows).contains(&-freed),
        "{report}"
    );
}
