//! `perf compare A.json B.json`: one row per (workload, end-to-end
//! metric), judged against the bounds and directions of `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::json::Value;
use crate::ledger::Better;

/// Host-time and memory metrics; every other end-to-end metric is
/// simulated and repeats bit for bit on the same code.
pub const HOST_METRICS: [&str; 3] = ["setup_s", "run_s", "peak_rss_mb"];

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    /// The share of the base by which the metric may get worse.
    pub bound: f64,
}

/// Reads the end-to-end metrics of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .ok_or(format!("end_to_end entry lacks {key}"))
            };
            let better = match field("better")?.as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("better must be lower or higher, not {other:?}")),
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                better,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// A side's own passes spread wider than the bound, so the bound
    /// cannot be judged from these two ledgers.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base`. `spread` is the wider of the two sides'
/// own run-to-run spreads, as a share (0 where a metric repeats exactly).
/// A change *of* the bound is still unchanged; only more than it counts.
pub fn judge(bound: &Bound, base: f64, new: f64, spread: f64) -> Verdict {
    if spread > bound.bound {
        return Verdict::Unresolved;
    }
    let worse_by = match bound.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    // From a base of 0 any move is beyond every relative bound.
    let allowed = bound.bound * base.abs();
    if worse_by > allowed {
        Verdict::Regressed
    } else if worse_by < -allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

impl Row {
    /// Whether the two sides are the same to the bit.
    pub fn identical(&self) -> bool {
        self.base.to_bits() == self.new.to_bits()
    }
}

fn metric_of(record: &Value, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How far a side's typical pass sat above the best of each world.
fn own_spread(record: &Value, metric: &str) -> f64 {
    let median = match metric {
        "run_s" => metric_of(record, "experiments.run_s_median"),
        "setup_s" => metric_of(record, "experiments.setup_s_median"),
        _ => None,
    };
    match (median, metric_of(record, metric)) {
        (Some(median), Some(best)) if best > 0.0 => median / best - 1.0,
        _ => 0.0,
    }
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Per workload: failed and attempted operations of each side.
    pub failures: Vec<(String, [(u64, u64); 2])>,
}

/// Compares two ledgers written by `perf all`. Both must hold the same
/// workloads, each with every bounded metric.
pub fn compare(bounds: &[Bound], base: &Value, new: &Value) -> Result<Comparison, String> {
    let workloads = |ledger: &Value| {
        ledger
            .get("workloads")
            .and_then(Value::as_object)
            .cloned()
            .ok_or("not a ledger: no workloads object")
    };
    let (base, new) = (workloads(base)?, workloads(new)?);
    if let Some(extra) = new.keys().find(|&workload| !base.contains_key(workload)) {
        return Err(format!("{extra} is missing from the first ledger"));
    }
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (workload, a) in &base {
        let b = new
            .get(workload)
            .ok_or(format!("{workload} is missing from the second ledger"))?;
        for bound in bounds {
            let value = |side: &Value| {
                metric_of(side, &bound.name).ok_or(format!("{workload} lacks {}", bound.name))
            };
            let (base_value, new_value) = (value(a)?, value(b)?);
            let spread = own_spread(a, &bound.name).max(own_spread(b, &bound.name));
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                base: base_value,
                new: new_value,
                verdict: judge(bound, base_value, new_value, spread),
            });
        }
        let ops = |side: &Value| {
            let count = |key| side.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            (count("failed"), count("attempted"))
        };
        failures.push((workload.clone(), [ops(a), ops(b)]));
    }
    Ok(Comparison { rows, failures })
}

impl Comparison {
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<13} {:<15} {:>14} {:>14} {:>9}  verdict",
            "workload", "metric", "base", "new", "change"
        );
        for row in &self.rows {
            let change = if row.base == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}%", (row.new / row.base - 1.0) * 100.0)
            };
            let _ = writeln!(
                out,
                "{:<13} {:<15} {:>14.6} {:>14.6} {:>9}  {}{}",
                row.workload,
                row.metric,
                row.base,
                row.new,
                change,
                row.verdict.as_str(),
                if row.identical() { " (identical)" } else { "" }
            );
        }
        for (workload, sides) in &self.failures {
            let share = |(failed, attempted): (u64, u64)| {
                format!(
                    "{failed}/{attempted} ({:.1}%)",
                    failed as f64 / attempted.max(1) as f64 * 100.0
                )
            };
            let _ = writeln!(
                out,
                "{workload:<13} failed operations: base {}, new {}",
                share(sides[0]),
                share(sides[1])
            );
        }
        out
    }

    /// Why two ledgers of the *same* code do not agree; empty if they do:
    /// simulated metrics identical to the bit, host metrics within their
    /// bounds, no row unresolved.
    pub fn disagreements(&self) -> Vec<String> {
        let mut out = Vec::new();
        for row in &self.rows {
            let host = HOST_METRICS.contains(&row.metric.as_str());
            if !host && !row.identical() {
                out.push(format!(
                    "{} {}: not bit-identical",
                    row.workload, row.metric
                ));
            } else if matches!(row.verdict, Verdict::Unresolved) {
                out.push(format!("{} {}: unresolved", row.workload, row.metric));
            } else if host && row.verdict != Verdict::Unchanged {
                out.push(format!(
                    "{} {}: outside its bound",
                    row.workload, row.metric
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, better: Better, bound: f64) -> Bound {
        Bound {
            name: name.to_string(),
            better,
            bound,
        }
    }

    #[test]
    fn judges_at_inside_and_beyond_a_bound_in_both_directions() {
        let run_s = bound("run_s", Better::Lower, 0.10);
        assert_eq!(judge(&run_s, 100.0, 105.0, 0.0), Verdict::Unchanged);
        assert_eq!(
            judge(&run_s, 100.0, 110.0, 0.0),
            Verdict::Unchanged,
            "at the bound"
        );
        assert_eq!(judge(&run_s, 100.0, 110.5, 0.0), Verdict::Regressed);
        assert_eq!(
            judge(&run_s, 100.0, 90.0, 0.0),
            Verdict::Unchanged,
            "at the bound"
        );
        assert_eq!(judge(&run_s, 100.0, 89.0, 0.0), Verdict::Improved);

        let useful = bound("useful_kbps", Better::Higher, 0.02);
        assert_eq!(
            judge(&useful, 500.0, 490.0, 0.0),
            Verdict::Unchanged,
            "at the bound"
        );
        assert_eq!(judge(&useful, 500.0, 489.0, 0.0), Verdict::Regressed);
        assert_eq!(judge(&useful, 500.0, 495.0, 0.0), Verdict::Unchanged);
        assert_eq!(judge(&useful, 500.0, 511.0, 0.0), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_row_unresolved() {
        let run_s = bound("run_s", Better::Lower, 0.10);
        assert_eq!(judge(&run_s, 100.0, 150.0, 0.11), Verdict::Unresolved);
        assert_eq!(judge(&run_s, 100.0, 100.0, 0.11), Verdict::Unresolved);
        assert_eq!(judge(&run_s, 100.0, 150.0, 0.10), Verdict::Regressed);
    }

    #[test]
    fn a_base_of_zero_moves_on_any_change() {
        let dup = bound("dup_pct", Better::Lower, 0.05);
        assert_eq!(judge(&dup, 0.0, 0.0, 0.0), Verdict::Unchanged);
        assert_eq!(judge(&dup, 0.0, 0.5, 0.0), Verdict::Regressed);
        let delivered = bound("delivered_frac", Better::Higher, 0.02);
        assert_eq!(judge(&delivered, 0.0, 0.0, 0.0), Verdict::Unchanged);
        assert_eq!(judge(&delivered, 0.0, 0.1, 0.0), Verdict::Improved);
    }

    fn ledger(run_s: f64, run_median: f64, useful: f64, failed: u64) -> Value {
        let text = format!(
            r#"{{"workloads":{{"mesh_default":{{"correct":true,"attempted":59,"failed":{failed},
            "metrics":{{"run_s":{{"value":{run_s},"unit":"s"}},
            "experiments.run_s_median":{{"value":{run_median},"unit":"s"}},
            "useful_kbps":{{"value":{useful},"unit":"Kbps"}}}}}}}}}}"#
        );
        Value::parse(&text).unwrap()
    }

    fn two_bounds() -> Vec<Bound> {
        vec![
            bound("run_s", Better::Lower, 0.10),
            bound("useful_kbps", Better::Higher, 0.02),
        ]
    }

    #[test]
    fn compares_ledgers_row_by_row_with_the_failed_share() {
        let base = ledger(3.0, 3.03, 555.0, 0);
        let new = ledger(3.6, 3.65, 555.0, 2);
        let comparison = compare(&two_bounds(), &base, &new).unwrap();
        assert_eq!(comparison.rows.len(), 2);
        assert_eq!(comparison.rows[0].verdict, Verdict::Regressed);
        assert_eq!(comparison.rows[1].verdict, Verdict::Unchanged);
        assert!(comparison.rows[1].identical());
        assert_eq!(comparison.failures[0].1, [(0, 59), (2, 59)]);
        let text = comparison.render();
        assert!(text.contains("regressed") && text.contains("2/59 (3.4%)"));
        assert_eq!(
            comparison.disagreements(),
            ["mesh_default run_s: outside its bound"]
        );
    }

    #[test]
    fn two_ledgers_of_the_same_code_agree() {
        let comparison = compare(
            &two_bounds(),
            &ledger(3.0, 3.03, 555.0, 0),
            &ledger(3.1, 3.2, 555.0, 0),
        )
        .unwrap();
        assert!(comparison.disagreements().is_empty());
        // A noisy side is unresolved, a moved simulated metric is flagged.
        let noisy = ledger(3.0, 3.6, 555.5, 0);
        let comparison = compare(&two_bounds(), &ledger(3.0, 3.03, 555.0, 0), &noisy).unwrap();
        assert_eq!(
            comparison.disagreements(),
            [
                "mesh_default run_s: unresolved",
                "mesh_default useful_kbps: not bit-identical"
            ]
        );
    }

    #[test]
    fn a_missing_workload_or_metric_is_an_error() {
        let base = ledger(3.0, 3.0, 555.0, 0);
        let empty = Value::parse(r#"{"workloads":{}}"#).unwrap();
        assert!(compare(&two_bounds(), &base, &empty).is_err());
        assert!(compare(&two_bounds(), &empty, &base).is_err());
        let setup = [bound("setup_s", Better::Lower, 0.2)];
        assert!(compare(&setup, &base, &base).is_err());
        assert!(compare(&two_bounds(), &Value::Null, &base).is_err());
    }

    #[test]
    fn reads_bounds_from_the_benchmark_file() {
        let benchmark = Value::parse(
            r#"{"end_to_end":[{"name":"run_s","unit":"s","better":"lower","bound":0.1},
            {"name":"useful_kbps","unit":"Kbps","better":"higher","bound":0.02}]}"#,
        )
        .unwrap();
        assert_eq!(bounds_of(&benchmark).unwrap(), two_bounds());
        let bad = Value::parse(r#"{"end_to_end":[{"name":"x","better":"sideways","bound":1}]}"#);
        assert!(bounds_of(&bad.unwrap()).is_err());
    }
}
