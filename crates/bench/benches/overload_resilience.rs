//! Overload-resilience figure: join storm + slow receivers on
//! finite-capacity nodes, bounded vs unbounded application queues.
//!
//! Renders the `overload` figure (the flash crowd's 60% joiner suffix in
//! rolling crash-and-rejoin cohorts with a tenth of the flash-crowd ramp,
//! plus persistent slow receivers, on nodes with finite simulated ingress
//! queues) at the selected `BULLET_SCALE`.
//!
//! The figure scores *timely* goodput — first deliveries landing within
//! the playout deadline of their generation slot, the only bytes a live
//! stream can use. Receive livelock does not destroy the unbounded arm's
//! data, it makes the data late; an unbounded queue at a saturated node
//! serves everything eventually and on time never. The claim behind it —
//! the bounded arm's ingress backlog stays within budget while the
//! unbounded one grows past it, every backpressure mechanism fires, and the
//! worst-quartile steady-state members hold at least twice the unbounded
//! baseline through the storm — is a test:
//! `bounded_queues_hold_goodput_through_a_join_storm` in
//! `tests/end_to_end.rs`.

use bullet_bench::announce;
use bullet_experiments::{report, scenarios};

fn main() {
    let scale = announce("Overload resilience — join storm, bounded vs unbounded queues");

    println!("\n== overload ==");
    print!(
        "{}",
        report::render_figure(&scenarios::overload_figure(scale))
    );
}
