//! The perf ledger of record.
//!
//! ```text
//! perf all [--seed N] [--seconds S]
//! perf compare A.json B.json
//! perf selfcheck [--seed N] [--seconds S]
//! perf --workload NAME --seed N --seconds S --trace 0|1|2
//! ```
//!
//! `all` runs every workload in a child process of its own (so peak memory
//! is per workload), prints every metric by name with its unit, checks the
//! outputs and writes the ledger to `perf/out/ledger.json`. The last form
//! is one workload process: it prints a single JSON line — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`, and
//! with `--trace 2`, which is what `all` asks of its children, both with
//! the fingerprint. `--seed` generates every input: topologies, overlay
//! trees, churn scripts, simulator seeds and the micro-loops' samples. See
//! `perf/README.md`.

mod compare;
mod json;
mod ledger;
mod micro;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use ledger::{Budget, END_TO_END, PER_LAYER};
use workloads::{Sizing, Workload, DEFAULT_SEED};

/// Seconds of timed passes per workload process; `run_seconds` in
/// `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn benchmark_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// `--name value` options after the subcommand; anything else is refused.
struct Options(Vec<(String, String)>);

impl Options {
    fn parse(args: &[String], known: &[&str]) -> Result<Options, String> {
        let mut options = Vec::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let name = flag
                .strip_prefix("--")
                .filter(|name| known.contains(name))
                .ok_or(format!("unknown argument {flag:?}"))?;
            let value = rest.next().ok_or(format!("{flag} needs a value"))?;
            options.push((name.to_string(), value.clone()));
        }
        Ok(Options(options))
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.text(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name} {text:?} is not a valid number")),
        }
    }
}

/// One workload process.
fn run_one(options: &Options) -> Result<ExitCode, String> {
    let name = options.text("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed: u64 = options.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = options.number("seconds", RUN_SECONDS)?;
    // 0 and 1 are the two halves the benchmark contract asks for; 2 is
    // `all` asking for both from one process.
    let trace: u8 = options.number("trace", 0)?;
    if trace > 2 || !seconds.is_finite() || seconds < 0.0 {
        return Err("--trace is 0, 1 or 2, --seconds a non-negative number".to_string());
    }

    let outcome =
        ledger::run_workload(workload, seed, Sizing::Full, Budget::of(seconds), trace > 0);

    // All output happens here, after every timing has ended.
    if let Some(spans) = &outcome.spans_jsonl {
        let path = out_dir().join(format!("{name}.spans.jsonl"));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for violation in &outcome.violations {
        eprintln!("perf: {name}: {violation}");
    }
    let line = match trace {
        0 => outcome.line(outcome.end_to_end.to_json(END_TO_END, None)),
        1 => outcome.line(outcome.per_layer.to_json(PER_LAYER, Some(workload))),
        _ => outcome.to_json(),
    };
    println!("{line}");
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in a child process and returns the ledger; an
/// error if any child's outputs were not correct.
fn run_all(seed: u64, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut records = Vec::new();
    for workload in Workload::ALL {
        eprintln!("perf: running {} ...", workload.name());
        let output = Command::new(&exe)
            .args(["--workload", workload.name(), "--trace", "2"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {} process: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let record = stdout
            .lines()
            .last()
            .ok_or(format!("{} printed no result", workload.name()))
            .and_then(|line| Value::parse(line).map_err(|e| format!("{}: {e}", workload.name())))?;
        print_record(workload.name(), &record);
        if !output.status.success() {
            return Err(format!("{}: outputs are not correct", workload.name()));
        }
        records.push((workload.name(), record));
    }
    Ok(Value::object([
        ("schema", 1.0.into()),
        ("seed", (seed as f64).into()),
        ("seconds", seconds.into()),
        ("workloads", Value::object(records)),
    ]))
}

/// Every metric by name, with its unit, in the tables' order.
fn print_record(name: &str, record: &Value) {
    let text = |key| record.get(key).map(Value::to_string).unwrap_or_default();
    println!(
        "== {name}: correct {}, {} of {} operations failed, fingerprint {}",
        text("correct"),
        text("failed"),
        text("attempted"),
        text("fingerprint")
    );
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let value = record
            .get("metrics")
            .and_then(|m| m.get(def.name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        if let Some(value) = value {
            println!(
                "  {:<34} {:>18.6} {:<8} ({} is better)",
                def.name,
                value,
                def.unit,
                def.better.as_str()
            );
        }
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn all(options: &Options) -> Result<ExitCode, String> {
    let seed = options.number("seed", DEFAULT_SEED)?;
    let seconds = options.number("seconds", RUN_SECONDS)?;
    let ledger = run_all(seed, seconds)?;
    let path = out_dir().join("ledger.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{ledger}\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perf: wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("usage: perf compare A.json B.json".to_string());
    };
    let bounds = compare::bounds_of(&read_json(&benchmark_file())?)?;
    let comparison = compare::compare(
        &bounds,
        &read_json(Path::new(base))?,
        &read_json(Path::new(new))?,
    )?;
    print!("{}", comparison.render());
    let regressed = comparison
        .rows
        .iter()
        .any(|row| row.verdict == compare::Verdict::Regressed);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Runs `all` twice and checks that the two ledgers agree.
fn selfcheck(options: &Options) -> Result<ExitCode, String> {
    let seed = options.number("seed", DEFAULT_SEED)?;
    let seconds = options.number("seconds", RUN_SECONDS)?;
    let bounds = compare::bounds_of(&read_json(&benchmark_file())?)?;
    let (first, second) = (run_all(seed, seconds)?, run_all(seed, seconds)?);
    let comparison = compare::compare(&bounds, &first, &second)?;
    print!("{}", comparison.render());
    let disagreements = comparison.disagreements();
    for line in &disagreements {
        println!("selfcheck: {line}");
    }
    Ok(if disagreements.is_empty() {
        println!("selfcheck: the two sets of runs agree");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // The numbers must be the program's, not the environment's: nothing
    // below may see a `BULLET_*` knob. (Still single-threaded here.)
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BULLET_") {
            std::env::remove_var(key);
        }
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => {
            Options::parse(&args[1..], &["seed", "seconds"]).and_then(|options| all(&options))
        }
        Some("compare") => compare_files(&args[1..]),
        Some("selfcheck") => {
            Options::parse(&args[1..], &["seed", "seconds"]).and_then(|options| selfcheck(&options))
        }
        _ => Options::parse(&args, &["workload", "seed", "seconds", "trace"])
            .and_then(|options| run_one(&options)),
    };
    result.unwrap_or_else(|message| {
        eprintln!("perf: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledger::MetricDef;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_take_the_drivers_arguments_and_refuse_others() {
        let args = strings(&[
            "--workload",
            "mesh_paper",
            "--seed",
            "11",
            "--seconds",
            "24",
            "--trace",
            "1",
        ]);
        let options = Options::parse(&args, &["workload", "seed", "seconds", "trace"]).unwrap();
        assert_eq!(options.text("workload"), Some("mesh_paper"));
        assert_eq!(options.number("seed", 7u64), Ok(11));
        assert_eq!(options.number("trace", 0u8), Ok(1));
        assert!(options.number::<u64>("workload", 0).is_err());
        assert!(Options::parse(&strings(&["--bogus", "1"]), &["seed"]).is_err());
        assert!(Options::parse(&strings(&["--seed"]), &["seed"]).is_err());
        assert!(Options::parse(&strings(&["stray"]), &["seed"]).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this
    /// program does.
    #[test]
    fn benchmark_json_matches_the_program() {
        let benchmark = read_json(&benchmark_file()).unwrap();
        assert_eq!(
            benchmark.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        let names = |key: &str| -> Vec<&Value> {
            benchmark
                .get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .collect()
        };
        let workloads: Vec<&str> = names("workloads")
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let check = |key: &str, defs: &[MetricDef]| {
            let listed = names(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                let field = |k| entry.get(k).unwrap().as_str().unwrap();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let bounds = compare::bounds_of(&benchmark).unwrap();
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let largest = bounds.iter().map(|b| b.bound).fold(0.0, f64::max);
        assert_eq!(bounds[0].name, "setup_s");
        assert_eq!(
            bounds[0].bound, largest,
            "set-up time gets the largest bound"
        );
    }
}
