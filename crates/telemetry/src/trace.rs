//! Per-query span tracing.


// ordering: Relaxed throughout — trace-id allocation only needs uniqueness
// (fetch_add is atomic at any ordering) and drop counters are advisory.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bound on spans retained per trace; recording past it is dropped
/// (and counted) rather than growing without bound.
pub const MAX_SPANS_PER_TRACE: usize = 256;

/// The distinct phases of the engine's query/maintenance pipeline, used as
/// span labels. The taxonomy mirrors the paper's pipeline stages: regex
/// parsing, rewriting/automaton compilation, product-BFS evaluation (with
/// the parallel pool's chunk-acquire/sweep/merge sub-structure), delta
/// repair, and snapshot publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Parsing the query string into a regex AST.
    Parse,
    /// Fingerprinting the query and probing the revision-tagged answer cache.
    CacheLookup,
    /// Compiling the regex into a frozen `DenseNfa` (or compile-cache hit).
    Compile,
    /// The product-BFS sweep over graph × automaton (whole parallel pool).
    ProductBfs,
    /// A worker waiting on / claiming a chunk from the shared cursor
    /// (per-worker detail span).
    ChunkAcquire,
    /// Flattening per-worker pair buffers into the final `Answer`.
    ChunkMerge,
    /// Resolving and checking a write before anything changes: names,
    /// labels, endpoints, the occurrences a removal lists — or, for a view
    /// registration, compiling the definition.
    Validate,
    /// Applying a validated batch to the database's edge lists and freezing
    /// the outgoing or incoming CSR adjacency its repair needs.
    CsrFreeze,
    /// Incremental maintenance: every cached view extension repaired after
    /// an insertion or a deletion, the whole sharded phase up to the new
    /// extensions being swapped in.  The four phases below break it down
    /// per view (detail spans, `worker` = the view's index).
    Repair,
    /// The backward delta sweeps of one view's repair (sources reaching a
    /// mutated edge).
    DeltaBackward,
    /// The forward delta sweeps of one view's repair (targets reachable
    /// from a mutated edge).
    DeltaForward,
    /// Re-deriving the affected sources' rows after a deletion.
    Rederive,
    /// Building one view's repaired extension: grouping the affected
    /// sources, diffing against their rows, and the one merge pass.
    Splice,
    /// Building and publishing an immutable engine snapshot — or, in a
    /// read's trace, the part of that deferred to first use: freezing the
    /// snapshot's view graph for a read over the views.
    SnapshotPublish,
    /// Compacting the shared answer and point caches when a publish moves
    /// the snapshot retention window past a revision: one detail span
    /// (`worker` 0) inside that publish's `SnapshotPublish`.
    CacheCompaction,
    /// The forward rounds (out of the source) of a bidirectional single-pair
    /// search.
    BidirForward,
    /// The backward rounds (into the target, over `csr_in` + the reversed
    /// automaton) of a bidirectional single-pair search.
    BidirBackward,
    /// Probing materialized extensions and the point-query cache for a
    /// lookup answer before falling back to a fresh search.
    MeetCheck,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 18] = [
        Phase::Parse,
        Phase::CacheLookup,
        Phase::Compile,
        Phase::ProductBfs,
        Phase::ChunkAcquire,
        Phase::ChunkMerge,
        Phase::Validate,
        Phase::CsrFreeze,
        Phase::Repair,
        Phase::DeltaBackward,
        Phase::DeltaForward,
        Phase::Rederive,
        Phase::Splice,
        Phase::SnapshotPublish,
        Phase::CacheCompaction,
        Phase::BidirForward,
        Phase::BidirBackward,
        Phase::MeetCheck,
    ];

    /// Stable snake_case name used on the wire and in Prometheus labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::CacheLookup => "cache_lookup",
            Phase::Compile => "compile",
            Phase::ProductBfs => "product_bfs",
            Phase::ChunkAcquire => "chunk_acquire",
            Phase::ChunkMerge => "chunk_merge",
            Phase::Validate => "validate",
            Phase::CsrFreeze => "csr_freeze",
            Phase::Repair => "repair",
            Phase::DeltaBackward => "delta_backward",
            Phase::DeltaForward => "delta_forward",
            Phase::Rederive => "rederive",
            Phase::Splice => "splice",
            Phase::SnapshotPublish => "snapshot_publish",
            Phase::CacheCompaction => "cache_compaction",
            Phase::BidirForward => "bidir_forward",
            Phase::BidirBackward => "bidir_backward",
            Phase::MeetCheck => "meet_check",
        }
    }
}

/// One recorded phase interval inside a trace.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which pipeline phase this interval covers.
    pub phase: Phase,
    /// Worker index for per-worker detail spans (`None` for top-level
    /// phases). Top-level spans are non-overlapping; worker spans break the
    /// `ProductBfs` interval down and overlap it by construction.
    pub worker: Option<u32>,
    /// Start offset in microseconds since the trace began.
    pub start_us: u64,
    /// Duration in microseconds.
    pub duration_us: u64,
}

/// A per-query trace: an id, an origin instant, and a bounded span list.
///
/// Recording takes `&self` (a short mutex hold appending to a `Vec`), so a
/// single context can be threaded through the scoped worker pool.
#[derive(Debug)]
pub struct TraceContext {
    trace_id: u64,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl TraceContext {
    /// Creates a trace with the given id, starting the clock now.
    pub fn new(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// The trace id (allocated at the service boundary or caller-supplied).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The instant the trace began.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Microseconds elapsed since the trace began.
    pub fn total_us(&self) -> u64 {
        self.origin.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Records a top-level span for `phase` that started at `started` and
    /// ends now.
    pub fn record(&self, phase: Phase, started: Instant) {
        let start_us = started
            .saturating_duration_since(self.origin)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let duration_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.record_span(Span {
            phase,
            worker: None,
            start_us,
            duration_us,
        });
    }

    /// Appends a fully-specified span (bounded by [`MAX_SPANS_PER_TRACE`];
    /// overflow is dropped and counted, never an error).
    pub fn record_span(&self, span: Span) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() < MAX_SPANS_PER_TRACE {
            spans.push(span);
        } else {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A copy of the recorded spans, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of spans dropped after the trace filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Sum of top-level (worker-less) span durations, in microseconds.
    /// Top-level spans do not overlap, so this is comparable to
    /// [`TraceContext::total_us`]: their difference is untraced overhead.
    pub fn top_level_sum_us(&self) -> u64 {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.worker.is_none())
            .map(|s| s.duration_us)
            .sum()
    }
}

/// Global trace-id allocator: ids are unique per process, never 0.
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Accumulated timing and scheduler counters for one worker of the parallel
/// evaluation pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerTiming {
    /// Worker index within the pool.
    pub worker: u32,
    /// Chunks processed by this worker (own deque plus stolen).
    pub chunks: u64,
    /// Of those, chunks stolen from another worker's deque after this
    /// worker's own ran dry.
    pub steals: u64,
    /// Product states visited by the chunks this worker completed, counted
    /// once per source that reached them — the same number whether or not
    /// the evaluation ran under a budget.
    pub visited: u64,
    /// Product states this worker's sweep scratch opened while exploring —
    /// each once, however many of the worker's sources and chunks pass
    /// through it afterwards: the work `visited` no longer multiplies.
    pub explored: u64,
    /// Microseconds spent acquiring chunks (deque pops + steal scans).
    pub acquire_us: u64,
    /// Microseconds spent in the product-BFS sweep proper.
    pub sweep_us: u64,
}

/// Per-worker breakdown of one parallel evaluation: where the wall time of
/// the pool went, worker by worker, plus the final single-threaded merge.
#[derive(Debug, Clone, Default)]
pub struct ParallelBreakdown {
    /// One entry per worker thread.
    pub workers: Vec<WorkerTiming>,
    /// Microseconds flattening per-worker buffers into the `Answer`.
    pub merge_us: u64,
}

impl ParallelBreakdown {
    /// Records this breakdown's per-worker detail spans into `trace`
    /// (`ChunkAcquire` and `ProductBfs` per worker; start offsets are 0 —
    /// these are accumulated durations, not intervals).
    pub fn record_into(&self, trace: &TraceContext) {
        for w in &self.workers {
            trace.record_span(Span {
                phase: Phase::ChunkAcquire,
                worker: Some(w.worker),
                start_us: 0,
                duration_us: w.acquire_us,
            });
            trace.record_span(Span {
                phase: Phase::ProductBfs,
                worker: Some(w.worker),
                start_us: 0,
                duration_us: w.sweep_us,
            });
        }
    }

    /// Total microseconds across workers spent acquiring chunks.
    pub fn total_acquire_us(&self) -> u64 {
        self.workers.iter().map(|w| w.acquire_us).sum()
    }

    /// Total microseconds across workers spent sweeping.
    pub fn total_sweep_us(&self) -> u64 {
        self.workers.iter().map(|w| w.sweep_us).sum()
    }

    /// Total chunks processed across workers.
    pub fn total_chunks(&self) -> u64 {
        self.workers.iter().map(|w| w.chunks).sum()
    }

    /// Total chunks stolen across workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total product states visited across workers, per source.
    pub fn total_visited(&self) -> u64 {
        self.workers.iter().map(|w| w.visited).sum()
    }

    /// Total product states opened across workers, per worker: a state two
    /// workers both reach is explored by each.
    pub fn total_explored(&self) -> u64 {
        self.workers.iter().map(|w| w.explored).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn phase_names_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for phase in Phase::ALL {
            assert!(seen.insert(phase.as_str()), "duplicate name {}", phase.as_str());
        }
        assert_eq!(seen.len(), Phase::ALL.len());
    }

    #[test]
    fn record_measures_start_offset_and_duration() {
        let trace = TraceContext::new(9);
        assert_eq!(trace.trace_id(), 9);
        let started = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        trace.record(Phase::Compile, started);
        let spans = trace.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, Phase::Compile);
        assert!(spans[0].duration_us >= 2_000, "slept 2ms, got {}us", spans[0].duration_us);
        assert!(trace.total_us() >= spans[0].start_us + spans[0].duration_us);
        assert_eq!(trace.top_level_sum_us(), spans[0].duration_us);
    }

    #[test]
    fn span_capacity_is_bounded_and_overflow_counted() {
        let trace = TraceContext::new(1);
        for _ in 0..MAX_SPANS_PER_TRACE + 10 {
            trace.record_span(Span {
                phase: Phase::ProductBfs,
                worker: Some(0),
                start_us: 0,
                duration_us: 1,
            });
        }
        assert_eq!(trace.spans().len(), MAX_SPANS_PER_TRACE);
        assert_eq!(trace.dropped(), 10);
    }

    #[test]
    fn worker_spans_do_not_count_toward_top_level_sum() {
        let trace = TraceContext::new(1);
        trace.record_span(Span { phase: Phase::ProductBfs, worker: None, start_us: 0, duration_us: 100 });
        trace.record_span(Span { phase: Phase::ProductBfs, worker: Some(1), start_us: 0, duration_us: 70 });
        assert_eq!(trace.top_level_sum_us(), 100);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn breakdown_totals_and_span_recording() {
        let breakdown = ParallelBreakdown {
            workers: vec![
                WorkerTiming {
                    worker: 0,
                    chunks: 3,
                    steals: 1,
                    visited: 400,
                    explored: 40,
                    acquire_us: 5,
                    sweep_us: 100,
                },
                WorkerTiming {
                    worker: 1,
                    chunks: 2,
                    steals: 0,
                    visited: 300,
                    explored: 25,
                    acquire_us: 7,
                    sweep_us: 90,
                },
            ],
            merge_us: 12,
        };
        assert_eq!(breakdown.total_acquire_us(), 12);
        assert_eq!(breakdown.total_sweep_us(), 190);
        assert_eq!(breakdown.total_chunks(), 5);
        assert_eq!(breakdown.total_steals(), 1);
        assert_eq!(breakdown.total_visited(), 700);
        assert_eq!(breakdown.total_explored(), 65);
        let trace = TraceContext::new(1);
        breakdown.record_into(&trace);
        let spans = trace.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.worker.is_some()));
        assert_eq!(trace.top_level_sum_us(), 0);
    }
}
