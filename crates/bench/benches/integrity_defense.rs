//! Data-plane integrity figure: misbehaving-peer sweep, defense on vs off.
//!
//! Renders the `adversary` figure (0–30% of the overlay corrupting,
//! stalling or falsely advertising mid-stream) at the selected
//! `BULLET_SCALE`. The claim behind it — at 20% adversaries the defense
//! accepts no corrupted block, quarantines, and holds at least twice the
//! undefended clean goodput — is a test:
//! `integrity_defense_doubles_clean_goodput_at_20pct_adversaries` in
//! `tests/end_to_end.rs`.

use bullet_bench::announce;
use bullet_experiments::{report, scenarios};

fn main() {
    let scale = announce("Data-plane integrity — adversary sweep, defense on vs off");

    println!("\n== adversary ==");
    print!(
        "{}",
        report::render_figure(&scenarios::adversary_figure(scale))
    );
}
