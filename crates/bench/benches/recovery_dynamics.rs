//! Failure-recovery figures (§4.6): sustained crashes and partitions,
//! recovery subsystem on vs off.
//!
//! Renders the `recovery` (sustained interior-node crashes, one per 10 s)
//! and `partition` (repeated half-overlay partitions plus control-message
//! loss) figures at the selected `BULLET_SCALE`. The claim behind them —
//! orphans re-attach, and recovery-on holds at least twice recovery-off's
//! steady goodput under sustained crashes — is a test:
//! `recovery_doubles_goodput_under_sustained_crashes` in
//! `tests/end_to_end.rs`.

use bullet_bench::announce;
use bullet_experiments::{report, scenarios, FigureResult, Scale};

fn main() {
    let scale = announce("Failure recovery — sustained crashes and partitions, §4.6 on vs off");

    for (name, build) in [
        (
            "recovery",
            scenarios::recovery_figure as fn(Scale) -> FigureResult,
        ),
        ("partition", scenarios::partition_figure),
    ] {
        println!("\n== {name} ==");
        print!("{}", report::render_figure(&build(scale)));
    }
}
