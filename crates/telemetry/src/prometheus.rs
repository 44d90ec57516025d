//! Prometheus text exposition (format version 0.0.4) rendering helpers.
//!
//! Pure string builders — no I/O. Metric names must already be valid
//! Prometheus identifiers (`[a-zA-Z_:][a-zA-Z0-9_:]*`); all callers in this
//! workspace use fixed `rpq_*` literals. Duration histograms are rendered in
//! **seconds** (the Prometheus convention) from microsecond-valued
//! [`Histogram`]s.

use crate::Histogram;
use std::fmt::Write as _;

/// Cumulative `le` boundaries for duration histograms, in seconds:
/// 100µs … 5s, then `+Inf`.
pub const DURATION_BOUNDS_S: [f64; 10] = [
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
];

fn render_f64(value: f64) -> String {
    if value == value.trunc() && value.is_finite() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Appends a `# HELP` / `# TYPE counter` header and one sample line.
pub fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends a `# HELP` / `# TYPE gauge` header and one sample line.
pub fn render_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {}", render_f64(value));
}

/// Appends a full histogram family (`_bucket` lines with cumulative `le`
/// labels over [`DURATION_BOUNDS_S`], then `_sum` and `_count`), converting
/// the microsecond-valued histogram to seconds.
pub fn render_duration_histogram(out: &mut String, name: &str, help: &str, hist: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for bound_s in DURATION_BOUNDS_S {
        let bound_us = (bound_s * 1e6) as u64;
        let cumulative = hist.count_at_most(bound_us);
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", render_f64(bound_s));
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
    let _ = writeln!(out, "{name}_sum {}", render_f64(hist.sum() as f64 / 1e6));
    let _ = writeln!(out, "{name}_count {}", hist.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal well-formedness check shared with the CI smoke: every
    /// non-empty line is either a `#` comment or `name[{labels}] value`
    /// where value parses as f64.
    fn assert_well_formed(text: &str) {
        assert!(!text.trim().is_empty());
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (_name_part, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("no value on line: {line}"));
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value on line: {line}"));
        }
    }

    #[test]
    fn counter_and_gauge_render() {
        let mut out = String::new();
        render_counter(&mut out, "rpq_queries_total", "Total queries.", 42);
        render_gauge(&mut out, "rpq_snapshot_age_seconds", "Snapshot age.", 1.5);
        assert_well_formed(&out);
        assert!(out.contains("rpq_queries_total 42\n"));
        assert!(out.contains("rpq_snapshot_age_seconds 1.5\n"));
        assert!(out.contains("# TYPE rpq_queries_total counter\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let hist = Histogram::new();
        hist.record(50);        // 50µs  -> first bucket (le 0.0001)
        hist.record(2_000);     // 2ms   -> le 0.005
        hist.record(7_000_000); // 7s    -> only +Inf
        let mut out = String::new();
        render_duration_histogram(&mut out, "rpq_eval_seconds", "Eval latency.", &hist);
        assert_well_formed(&out);
        assert!(out.contains("rpq_eval_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(out.contains("rpq_eval_seconds_count 3\n"));
        // Cumulative: every bound's count is <= the next one.
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.contains("_bucket{"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(counts.len(), DURATION_BOUNDS_S.len() + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        // The 2ms sample is certainly counted at the 5ms bound.
        let at_5ms = counts[3];
        assert!(at_5ms >= 2, "50µs and 2ms samples by le=0.005, got {at_5ms}");
    }

    #[test]
    fn integral_floats_render_without_noise() {
        assert_eq!(render_f64(0.0), "0");
        assert_eq!(render_f64(5.0), "5");
        assert_eq!(render_f64(0.5), "0.5");
    }
}
