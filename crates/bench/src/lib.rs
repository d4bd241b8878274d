//! # bullet-bench
//!
//! Three bench targets: `figures` renders any figure of the evaluation by
//! plan key (and Table 1 by the key `table1`), and `parallel_suite` and
//! `telemetry_overhead` assert their own wall-clock gates. Costs are not
//! measured here: the ledger under `perf/` times the workloads of record
//! and the hot primitives.
//!
//! This crate is where the environment is read. [`announce`] parses the
//! `BULLET_*` knobs (README, "Environment variables") once into a
//! [`Knobs`] value that each target hands down; no library crate reads
//! the environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod scale;

use bullet_dynamics::ScenarioScript;
use bullet_experiments::{Scale, Sweep};

/// The configuration a bench target runs under.
#[derive(Debug)]
pub struct Knobs {
    /// Experiment scale (`BULLET_SCALE`).
    pub scale: Scale,
    /// Worker threads (`BULLET_THREADS`, default all cores) and seeds per
    /// figure configuration (`BULLET_SEEDS`, default 1).
    pub sweep: Sweep,
    /// A custom script (`BULLET_SCENARIO`): the `figures` bench renders one
    /// more figure under it.
    pub scenario: Option<ScenarioScript>,
}

impl Knobs {
    /// Parses every knob from the environment.
    ///
    /// A malformed `BULLET_SCALE`, `BULLET_THREADS` or `BULLET_SEEDS`
    /// panics naming the variable. A malformed `BULLET_SCENARIO` ends the
    /// process with the parser's line-numbered diagnostic on stderr and
    /// exit code 2: a typo in a long script deserves a pointer, not a
    /// backtrace.
    fn read() -> Knobs {
        let var = |name: &str| std::env::var(name).ok();
        let scale = scale::parse_scale(var("BULLET_SCALE").as_deref());
        let threads = pool::parse_count("BULLET_THREADS", var("BULLET_THREADS").as_deref(), || {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        });
        let seeds = pool::parse_count("BULLET_SEEDS", var("BULLET_SEEDS").as_deref(), || 1);
        let scenario = match var("BULLET_SCENARIO") {
            Some(text) if !text.trim().is_empty() => match ScenarioScript::parse(&text) {
                Ok(script) => Some(script),
                Err(what) => {
                    eprintln!("invalid BULLET_SCENARIO: {what}");
                    std::process::exit(2);
                }
            },
            _ => None,
        };
        Knobs {
            scale,
            sweep: Sweep::new(threads, seeds),
            scenario,
        }
    }
}

/// Reads the knobs, prints the standard banner identifying the experiment
/// and the scale it is being run at, and returns the knobs.
pub fn announce(figure: &str) -> Knobs {
    let knobs = Knobs::read();
    let scale = knobs.scale;
    println!();
    println!("################################################################");
    println!("# {figure}");
    println!(
        "# scale: {scale:?} ({} participants, {} s run) — set BULLET_SCALE=small|default|paper",
        scale.participants(),
        scale.duration_secs()
    );
    println!("################################################################");
    knobs
}
