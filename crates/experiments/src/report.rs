//! Plain-text rendering of figure results.
//!
//! The bench harnesses print these reports; they contain the same series the
//! paper plots (one column per curve) so they can be diffed against the
//! figures or piped into a plotting tool.

use crate::figures::FigureResult;
use crate::metrics::Cdf;

/// Renders a figure result: title, a time-indexed table with one column per
/// curve, the scalar summaries, the notes and, for a CDF figure, its table.
pub fn render_figure(figure: &FigureResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} — {} ==\n", figure.id, figure.title));
    if !figure.series.is_empty() {
        // Header.
        out.push_str(&format!("{:>8}", "time(s)"));
        for series in &figure.series {
            out.push_str(&format!("  {:>28}", truncate(&series.label, 28)));
        }
        out.push('\n');
        let rows = figure
            .series
            .iter()
            .map(|s| s.times.len())
            .max()
            .unwrap_or(0);
        for row in 0..rows {
            let time = figure
                .series
                .iter()
                .find_map(|s| s.times.get(row))
                .copied()
                .unwrap_or(0.0);
            out.push_str(&format!("{time:>8.1}"));
            for series in &figure.series {
                match series.kbps.get(row) {
                    Some(v) => out.push_str(&format!("  {v:>28.1}")),
                    None => out.push_str(&format!("  {:>28}", "-")),
                }
            }
            out.push('\n');
        }
    }
    if !figure.summaries.is_empty() {
        out.push_str("\nSummary (per run):\n");
        for (label, summary) in &figure.summaries {
            out.push_str(&format!(
                "  {label}: useful {:.0} Kbps, raw {:.0} Kbps, duplicates {:.1}%, control {:.1} Kbps/node, stress mean {:.2} max {}, median delivery {:.0}%\n",
                summary.steady_useful_kbps,
                summary.steady_raw_kbps,
                summary.duplicate_fraction * 100.0,
                summary.control_overhead_kbps,
                summary.link_stress_mean,
                summary.link_stress_max,
                summary.median_delivery_fraction * 100.0,
            ));
        }
    }
    if !figure.notes.is_empty() {
        out.push_str("\nNotes:\n");
        for note in &figure.notes {
            out.push_str(&format!("  - {note}\n"));
        }
    }
    if let Some(cdf) = &figure.cdf {
        out.push_str(&render_cdf(
            "CDF of per-node instantaneous bandwidth (Kbps)",
            cdf,
        ));
    }
    out
}

/// Renders a CDF as `(bandwidth Kbps, fraction of nodes)` rows (Fig. 8).
pub fn render_cdf(title: &str, cdf: &Cdf) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!("{:>14}  {:>18}\n", "kbps", "fraction of nodes"));
    for (value, fraction) in cdf.points() {
        out.push_str(&format!("{value:>14.1}  {fraction:>18.3}\n"));
    }
    out
}

/// Renders Table 1.
pub fn render_table1(rows: &[(String, String, u32, u32)]) -> String {
    let mut out = String::new();
    out.push_str("== Table 1 — Bandwidth ranges for link types (Kbps) ==\n");
    out.push_str(&format!(
        "{:<18}  {:<16}  {:>8}  {:>8}\n",
        "Profile", "Link class", "low", "high"
    ));
    for (profile, class, low, high) in rows {
        out.push_str(&format!(
            "{profile:<18}  {class:<16}  {low:>8}  {high:>8}\n"
        ));
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let head: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{BandwidthSeries, RunSummary};

    #[test]
    fn renders_series_and_notes() {
        let mut figure = FigureResult {
            id: "figX".into(),
            title: "Test figure".into(),
            ..FigureResult::default()
        };
        let series = |label: &str, kbps: f64| BandwidthSeries {
            label: label.into(),
            times: vec![0.0, 5.0],
            kbps: vec![0.0, kbps],
        };
        let (a, b) = (series("Bullet", 450.5), series("Tree", 210.0));
        figure.series.push(a);
        figure.series.push(b);
        figure
            .summaries
            .push(("Bullet".into(), RunSummary::default()));
        figure.notes.push("Bullet wins".into());
        let text = render_figure(&figure);
        assert!(text.contains("figX"));
        assert!(text.contains("Bullet"));
        assert!(text.contains("450.5"));
        assert!(text.contains("Bullet wins"));
    }

    #[test]
    fn renders_cdf_points() {
        let cdf = Cdf::from_samples(vec![100.0, 200.0]);
        let text = render_cdf("Fig 8", &cdf);
        assert!(text.contains("Fig 8"));
        assert!(text.contains("100.0"));
        assert!(text.contains("1.000"));
    }

    #[test]
    fn renders_table1() {
        let rows = crate::figures::table1_rows();
        let text = render_table1(&rows);
        assert!(text.contains("Client-Stub"));
        assert!(text.contains("20000") || text.contains("20_000") || text.contains("20000"));
    }

    #[test]
    fn long_labels_are_truncated() {
        assert_eq!(truncate("short", 28), "short");
        let long = "a".repeat(60);
        assert!(truncate(&long, 28).chars().count() <= 28);
    }
}
