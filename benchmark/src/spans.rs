//! In-memory span recorder of the traced run.
//!
//! The harness records a span around each call it makes into a layer (a
//! *unit* of the workload) and around each replayed child call.  Spans stay
//! in memory until the run ends; at most [`MAX_WRITTEN_SPANS`] are written
//! out, together with the full count.  A layer's self time is its span minus
//! the child spans that are *parts* of it.

use std::time::Instant;

use serde_json::{json, Value};

/// Cap on spans written to `<workload>.trace.json`.
pub const MAX_WRITTEN_SPANS: usize = 20_000;

/// Index of a span in the recorder.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `rewriter::rewrite`.
    pub name: &'static str,
    /// The layer (crate) the call belongs to.
    pub layer: &'static str,
    /// Identifier shared by all spans of one operation: the id of its root.
    pub op: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Whether this span is a part of its parent's work (counted against the
    /// parent's self time) or an informational replay of an alternative.
    pub part: bool,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The recorder.  Disabled (the untraced run) it records nothing and every
/// call is a branch on a bool.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled` is the `--trace` flag.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        part: bool,
        started: Instant,
        ended: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let op = parent.map_or(id, |p| self.spans[p].op);
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            op,
            parent,
            part,
            start_ns: ns(started),
            end_ns: ns(ended),
        });
        Some(id)
    }

    /// Per span, the total time of the child spans that are parts of it.
    fn parts_ms(&self) -> Vec<f64> {
        let mut parts = vec![0.0f64; self.spans.len()];
        for span in self.spans.iter().filter(|s| s.part) {
            if let Some(parent) = span.parent {
                parts[parent] += span.ms();
            }
        }
        parts
    }

    /// Among spans that have part children, the share whose parts add up to
    /// no more than the span itself (within `slack`, a ratio such as 1.05) —
    /// the sanity figure of a traced run.
    pub fn parts_within_parent_share(&self, slack: f64) -> Option<f64> {
        let parts = self.parts_ms();
        let decomposed: Vec<usize> = (0..self.spans.len())
            .filter(|&id| parts[id] > 0.0)
            .collect();
        if decomposed.is_empty() {
            return None;
        }
        let within = decomposed
            .iter()
            .filter(|&&id| parts[id] <= self.spans[id].ms() * slack)
            .count();
        Some(within as f64 / decomposed.len() as f64)
    }

    /// The trace file: the full span count, and the first
    /// [`MAX_WRITTEN_SPANS`] spans, each with its self time: its duration
    /// minus its part children's, floored at zero (replays run after the
    /// parent, on warm caches, so the parts can add up to slightly more or
    /// less than it).
    pub fn to_json(&self) -> Value {
        let parts = self.parts_ms();
        let written: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .take(MAX_WRITTEN_SPANS)
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "layer": s.layer,
                    "op": s.op,
                    "parent": s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                    "part": s.part,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ms": (s.ms() - parts[id]).max(0.0)
                })
            })
            .collect();
        json!({
            "span_count": self.spans.len(),
            "spans_written": written.len(),
            "spans": written
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tracer = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tracer.record("x", "layer", None, false, now, now), None);
        assert_eq!(tracer.to_json()["span_count"].as_u64(), Some(0));
    }

    #[test]
    fn self_time_is_span_minus_part_children() {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tracer
            .record("unit", "rewriter", None, false, at(0), at(100))
            .unwrap();
        let a = tracer
            .record("child a", "automata", Some(root), true, at(100), at(130))
            .unwrap();
        tracer.record("child b", "regexlang", Some(root), true, at(130), at(150));
        // An informational replay does not eat into the parent's self time.
        tracer.record(
            "alternative",
            "rewriter",
            Some(root),
            false,
            at(150),
            at(900),
        );
        let leaf = tracer
            .record("grandchild", "automata", Some(a), true, at(900), at(910))
            .unwrap();
        assert_eq!(tracer.parts_within_parent_share(1.0), Some(1.0));
        let json = tracer.to_json();
        assert_eq!(json["span_count"].as_u64(), Some(5));
        let spans = json["spans"].as_array().unwrap();
        assert!((spans[root]["self_ms"].as_f64().unwrap() - 50.0).abs() < 1e-6);
        assert!((spans[a]["self_ms"].as_f64().unwrap() - 20.0).abs() < 1e-6);
        assert_eq!(
            spans[leaf]["op"].as_u64(),
            Some(root as u64),
            "one operation, one id"
        );
    }

    #[test]
    fn oversized_parts_are_flagged_and_output_is_capped() {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tracer
            .record("unit", "engine", None, false, at(0), at(10))
            .unwrap();
        tracer.record("child", "graphdb", Some(root), true, at(10), at(40));
        assert_eq!(tracer.parts_within_parent_share(1.05), Some(0.0));
        assert_eq!(
            tracer.to_json()["spans"].as_array().unwrap()[root]["self_ms"].as_f64(),
            Some(0.0)
        );
        for _ in 0..MAX_WRITTEN_SPANS + 5 {
            tracer.record("filler", "engine", None, false, at(0), at(1));
        }
        let json = tracer.to_json();
        assert_eq!(
            json["spans_written"].as_u64(),
            Some(MAX_WRITTEN_SPANS as u64)
        );
        assert_eq!(
            json["span_count"].as_u64(),
            Some(MAX_WRITTEN_SPANS as u64 + 7)
        );
    }
}
