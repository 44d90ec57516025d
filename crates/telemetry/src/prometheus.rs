//! The metric registry's entry, [`Metric`], and its Prometheus text
//! exposition (format version 0.0.4), a pure string builder.  Names must be
//! valid Prometheus identifiers (the service's are `rpq_*`).

use crate::Histogram;
use std::fmt::Write as _;

/// One exported metric as one reply reads it: where the JSON replies put
/// it, what the Prometheus exposition calls it, and its value.  A server
/// lists every metric it exports once; its JSON bodies and [`exposition`]
/// are loops over that list.
#[derive(Debug)]
pub struct Metric<'a> {
    /// The JSON reply that carries it, by the server's name for that reply.
    pub body: &'static str,
    /// The object of that reply it sits in; `None` for the reply itself.
    pub group: Option<&'static str>,
    /// Its key there.
    pub key: &'static str,
    /// Its Prometheus name and `# HELP` text; `None` when only JSON has it.
    pub family: Option<(String, String)>,
    /// Its value, read once.
    pub reading: Reading<'a>,
}

/// A metric's value, which fixes its Prometheus kind.
#[derive(Debug, Clone, Copy)]
pub enum Reading<'a> {
    /// A count that only grows: a `counter`.
    Counter(u64),
    /// A count that may fall, or a setting: a `gauge`.
    Gauge(u64),
    /// A duration in seconds: a `gauge`.
    Seconds(f64),
    /// Microsecond latencies: a `histogram` in seconds, `le` 100 µs … 5 s.
    Histogram(&'a Histogram),
}

/// Cumulative `le` boundaries for duration histograms, in seconds:
/// 100µs … 5s, then `+Inf`.
const DURATION_BOUNDS_S: [f64; 10] = [
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
];

/// The exposition of the `metrics` that have a family: histograms first,
/// then counters, then gauges, each kind in list order.
pub fn exposition(metrics: &[Metric<'_>]) -> String {
    let kind = |reading| match reading {
        Reading::Counter(_) => "counter",
        Reading::Gauge(_) | Reading::Seconds(_) => "gauge",
        Reading::Histogram(_) => "histogram",
    };
    let mut out = String::new();
    for pass in ["histogram", "counter", "gauge"] {
        for metric in metrics.iter().filter(|metric| kind(metric.reading) == pass) {
            let Some((name, help)) = &metric.family else { continue };
            // Writing into a `String` cannot fail.
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {pass}");
            let _ = match metric.reading {
                Reading::Counter(n) => writeln!(out, "{name} {n}"),
                Reading::Gauge(n) => writeln!(out, "{name} {}", render_f64(n as f64)),
                Reading::Seconds(s) => writeln!(out, "{name} {}", render_f64(s)),
                Reading::Histogram(hist) => {
                    for bound_s in DURATION_BOUNDS_S {
                        let cumulative = hist.count_at_most((bound_s * 1e6) as u64);
                        let le = render_f64(bound_s);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
                    let _ = writeln!(out, "{name}_sum {}", render_f64(hist.sum() as f64 / 1e6));
                    writeln!(out, "{name}_count {}", hist.count())
                }
            };
        }
    }
    out
}

fn render_f64(value: f64) -> String {
    if value == value.trunc() && value.is_finite() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
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

    fn metric<'a>(name: &str, help: &str, reading: Reading<'a>) -> Metric<'a> {
        let family = Some((name.to_string(), help.to_string()));
        Metric { body: "metrics", group: None, key: "k", family, reading }
    }

    #[test]
    fn counter_and_gauge_render() {
        let out = exposition(&[
            metric("rpq_queries_total", "Total queries.", Reading::Counter(42)),
            metric("rpq_snapshot_age_seconds", "Snapshot age.", Reading::Seconds(1.5)),
            metric("rpq_in_flight", "In flight.", Reading::Gauge(3)),
        ]);
        assert_well_formed(&out);
        assert!(out.contains("rpq_queries_total 42\n"));
        assert!(out.contains("rpq_snapshot_age_seconds 1.5\n"));
        assert!(out.contains("\nrpq_in_flight 3\n"));
        assert!(out.starts_with("# HELP rpq_queries_total Total queries.\n"));
        assert!(out.contains("# TYPE rpq_queries_total counter\n"));
        assert!(out.contains("# TYPE rpq_in_flight gauge\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let hist = Histogram::new();
        hist.record(50);        // 50µs  -> first bucket (le 0.0001)
        hist.record(2_000);     // 2ms   -> le 0.005
        hist.record(7_000_000); // 7s    -> only +Inf
        let out =
            exposition(&[metric("rpq_eval_seconds", "Eval latency.", Reading::Histogram(&hist))]);
        assert_well_formed(&out);
        assert!(out.contains("# TYPE rpq_eval_seconds histogram\n"));
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
    fn families_are_listed_by_kind_then_in_list_order_and_json_only_entries_are_skipped() {
        let hist = Histogram::new();
        let json_only = Metric { family: None, ..metric("unused", "", Reading::Counter(1)) };
        let out = exposition(&[
            metric("g1", "", Reading::Gauge(0)),
            metric("c1", "", Reading::Counter(0)),
            json_only,
            metric("h1", "", Reading::Histogram(&hist)),
            metric("g2", "", Reading::Seconds(0.0)),
            metric("c2", "", Reading::Counter(0)),
            metric("h2", "", Reading::Histogram(&hist)),
        ]);
        let families: Vec<&str> =
            out.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next()).collect();
        assert_eq!(families, ["h1", "h2", "c1", "c2", "g1", "g2"]);
    }

    #[test]
    fn integral_floats_render_without_noise() {
        assert_eq!(render_f64(0.0), "0");
        assert_eq!(render_f64(5.0), "5");
        assert_eq!(render_f64(0.5), "0.5");
    }
}
