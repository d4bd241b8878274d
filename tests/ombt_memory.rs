//! Pins, as a count, the peak memory of the paper-scale bottleneck tree.
//!
//! The paper builds its offline bottleneck tree (§4.1) over 1,000
//! participants on a 20k-router topology. The oracle behind it holds one
//! row tree per participant, so at that size the rows are most of the
//! build's peak. A counting global allocator measures the peak of one
//! `bottleneck_tree` build over `TopologyConfig::paper_scale(1000, 7)`, run
//! on one worker, and holds it to what the build must keep: 4 B per row
//! entry (a link or a branch marker) and per leaf, the oracle's 4-byte flow
//! count per directed link, the greedy's candidate heap and one row search
//! (with the contracted graph it walks).
//!
//! A paper-scale topology is too large for the debug-build tier-1 run, so
//! the test is ignored by default; it takes a few seconds in a release
//! build, and the nightly paper-scale job runs it:
//!
//! ```text
//! cargo test --release --test ombt_memory -- --ignored
//! ```
//!
//! This file contains exactly one test so no concurrent test can touch the
//! process-wide counters during the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use bullet_suite::netsim::{ordered_map, Network, NetworkSetup};
use bullet_suite::overlay::{bottleneck_tree, OmbtConfig};
use bullet_suite::topology::{generate, TopologyConfig};

#[path = "support/row_entries.rs"]
mod row_entries;
use row_entries::RowEntries;

struct CountingAllocator;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// The most bytes live at once since the last [`reset_peak`].
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Adds `delta` to the live bytes and raises the peak to the new total.
fn grow(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Starts a new peak window at the bytes live now, and returns them.
fn reset_peak() -> i64 {
    let now = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(now, Ordering::SeqCst);
    now
}

/// The peak of the window [`reset_peak`] started at `base`, above `base`.
fn peak_since(base: i64) -> i64 {
    PEAK_BYTES.load(Ordering::SeqCst) - base
}

#[test]
#[ignore = "paper scale: run it in a release build, as the nightly job does"]
fn the_paper_scale_bottleneck_tree_peaks_at_its_rows_flows_and_heap() {
    let topo = generate(&TopologyConfig::paper_scale(1000, 7));
    let participants = topo.spec.participants();
    let links = 2 * topo.spec.links.len();
    assert!(
        topo.spec.routers >= 20_000,
        "paper class must be paper-sized"
    );
    let setup = NetworkSetup::new(&topo.spec);

    // One row search, on a view of its own: its workspace and the row it
    // returns.
    let mut probe = Network::with_setup(&topo.spec, &setup);
    let base = reset_peak();
    drop(probe.row_trees(&[0]));
    let search = peak_since(base);

    // The build runs as the one task of a width-1 map, so its rows are
    // built on one worker on any host.
    let built = ordered_map(
        1,
        1,
        || (),
        |_, _| {
            let mut view = Network::with_setup(&topo.spec, &setup);
            let base = reset_peak();
            let tree = bottleneck_tree(&mut view, participants, 0, &OmbtConfig::default());
            let peak = peak_since(base);
            drop(tree);
            peak
        },
    );
    let peak = built[0];

    // Every row's entries, counted from its paths in target order.
    let sources: Vec<usize> = (0..participants).collect();
    let (mut row_links, mut row_entries) = (0, 0);
    let (mut path, mut links32) = (Vec::new(), Vec::new());
    for row in probe.row_trees(&sources) {
        let mut entries = RowEntries::default();
        for target in 0..participants {
            assert!(
                row.path_into(target, &mut path),
                "the paper topology is connected"
            );
            links32.clear();
            links32.extend(path.iter().map(|&link| link as u32));
            entries.add_path(&links32);
        }
        (row_links, row_entries) = (row_links + entries.links(), row_entries + entries.entries);
    }

    let n = participants as i64;
    let rows = 4 * row_entries + 4 * n * n;
    let flows = 4 * links as i64;
    // The greedy's frontier holds at most one candidate per (attached,
    // outside) pair, n(n − 1)/2 in all, 16 B each, in a heap whose
    // capacity doubles.
    let heap = 16 * (participants * (participants - 1) / 2).next_power_of_two() as i64;
    let slack = 64 * 1024;
    let report = format!(
        "{participants} participants, {links} directed links: a build peak of {peak} B, \
         against {rows} B of row trees over {row_links} links and {} branch markers, \
         a {flows} B flow array, a {heap} B candidate heap and a row search of {search} B",
        row_entries - row_links
    );
    // 64 KB covers the rest of the greedy's state: a parent, a flag and a
    // child count per participant. Measured: a peak of 40,543,024 B against
    // 31,861,888 B of row trees (5,967,472 links and 998,000 markers), a
    // 185,768 B flow array, an 8,388,608 B heap and an 883,928 B search:
    // the contracted graph of the call and one row search over it, where a
    // search over the plain graph was 363,796 B. The peak is the greedy's,
    // after the rows are built and their search is dropped, so it did not
    // move. With 8-byte `(parent, link)` entries the rows alone held 51.7 MB.
    assert!(peak <= rows + flows + heap + search + slack, "{report}");
}
