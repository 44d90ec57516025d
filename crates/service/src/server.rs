//! The serving loop: TCP accept, per-connection framing, admission control,
//! one engine lock for writes, and graceful shutdown.
//!
//! ## Threading model
//!
//! One **accept thread** polls a non-blocking listener and spawns one
//! **connection thread** per client.  Reads go straight to the engine's
//! MVCC layer: each query pins the current published
//! [`engine::EngineSnapshot`] (an `Arc` clone under a short read lock) and
//! evaluates against it without ever blocking a write.  A write is applied
//! on its own connection thread under the one lock on the
//! [`engine::QueryEngine`]: it first takes one of `writer_queue_depth + 1`
//! write permits (the write applying plus those waiting for the lock; none
//! left is an immediate `overloaded` rejection, never a hidden stall), then
//! locks the engine, applies, publishes a fresh snapshot and stores it for
//! subsequent readers, so a client that observed its own write's reply is
//! guaranteed to read at least that revision.  Writes from one connection
//! apply in the order it sent them; writes from different connections are
//! ordered by the lock alone.  A panic under the lock poisons it: every
//! later write is answered `shutting_down` and never touches the engine,
//! and reads keep serving the last published snapshot.
//!
//! Each connection thread writes its replies into one 64 KiB buffer and
//! pushes that buffer to the socket only when the connection is about to
//! block: before a socket read, which happens when no complete frame is
//! left in the read buffer, and before a write waits for the engine lock.
//! It also flushes on the way out (EOF, shutdown, the `shutdown` op).  So
//! no reply is held while the connection waits, a lone round trip is
//! flushed at once, and a block of pipelined frames that arrives in one
//! client write is answered in one server write.  A reply larger than the
//! buffer passes straight through.  `reply_writes` counts the socket
//! `write` calls, so `frames ÷ reply_writes` is how many replies share one.
//!
//! ## Robustness invariants
//!
//! * A malformed or oversized frame fails **that frame**, not the
//!   connection and never the server: oversized input is drained to the
//!   next newline and answered with `frame_too_large`.
//! * Every query runs under a [`QueryBudget`] derived from the request's
//!   `timeout_ms`/`max_visited` (clamped by the server config), so no
//!   client can pin a connection thread on an unbounded product sweep.
//! * Admission control caps concurrently evaluating queries; excess load
//!   is rejected with a `retry_after_ms` hint instead of queuing without
//!   bound.
//! * Shutdown is graceful: new work is refused, and every thread is joined
//!   — so writes already waiting for the engine still apply, and in-flight
//!   queries finish and are answered, before shutdown returns.  Shutdown
//!   sets no deadline of its own: a query's deadline (at most
//!   `max_timeout_ms`) is what bounds the wait for it.
//! * Observability rides the same paths: query/eval/write latency
//!   histograms and the slow-query log (always on), per-request span
//!   tracing on request (`"trace": true`), and a `metrics` op exposing both
//!   JSON summaries and Prometheus text.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use engine::{
    EngineError, EngineSnapshot, Mutation, Query, QueryBudget, QueryEngine, ReadOutcome,
    ReadRequest, Shape, WriteOutcome, WriteRequest,
};
use graphdb::GraphDb;
use serde_json::Value;
use telemetry::{next_trace_id, prometheus, Histogram, Phase, SlowQueryLog, TraceContext};

use crate::protocol::{parse_frame, render_err, render_ok, Edge, Reply, Request, RequestOptions};
use crate::ServiceConfig;

/// How long clients rejected for overload are asked to back off.
const RETRY_AFTER_MS: u64 = 25;
/// Read-timeout tick used to poll the shutdown flag on idle connections.
const READ_TICK: Duration = Duration::from_millis(50);
/// Accept-loop poll interval (the listener is non-blocking).
const ACCEPT_TICK: Duration = Duration::from_millis(5);
/// Capacity of a connection's reply buffer.
const REPLY_BUFFER_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Stats

engine::counters! {
    /// A point-in-time copy of the service counters (see [`Server::stats`]).
    pub struct ServiceStatsSnapshot;
    /// The live service counters, bumped by the connection threads.
    struct ServiceStats;
    fn read();
    /// Connections accepted since start.
    connections: shared;
    /// Frames successfully parsed and dispatched.
    frames: shared;
    /// Frames rejected before dispatch (bad JSON, bad shape, unknown op).
    protocol_errors: shared;
    /// Frames rejected for exceeding `max_frame_bytes`.
    frames_too_large: shared;
    /// Queries answered successfully.
    queries_ok: shared;
    /// Queries rejected by the admission gate.
    queries_rejected: shared;
    /// Queries interrupted by their budget (deadline or visit cap).
    queries_interrupted: shared;
    /// Queries failed by non-budget engine errors (parse, unknown label…).
    queries_failed: shared;
    /// Mutation batches applied to the engine.
    writes_applied: shared;
    /// Mutation batches rejected by validation.
    writes_rejected: shared;
    /// Mutation batches refused because every write permit was taken.
    writer_overflows: shared;
    /// Queries evaluating right now: the admission gate's count, a gauge.
    in_flight: shared;
    /// `write` calls on client sockets, each carrying every reply its
    /// connection had buffered (see the threading model).
    reply_writes: shared;
}

fn bump(counter: &AtomicU64) {
    // ordering: Relaxed — monotone statistic; nothing is published through it.
    counter.fetch_add(1, Ordering::Relaxed);
}

fn as_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

// ---------------------------------------------------------------------------
// Telemetry

engine::histograms! {
    /// Service-side request latency histograms.
    struct ServiceTelemetry {
        /// Whole query handling: admission to rendered response.
        query,
        /// The engine-evaluation portion of a query alone; `query - eval` is
        /// service overhead (framing, rendering, result capping).
        eval,
        /// Applied writes: apply + snapshot publish, not the wait for the
        /// engine lock.
        write,
    }
}

// ---------------------------------------------------------------------------
// Writes

/// A write verb's operands, borrowed from the request.
enum WriteOp<'a> {
    AddEdges(&'a [Edge<'a>]),
    RemoveEdges(&'a [Edge<'a>]),
    RegisterView { name: &'a str, regex: &'a str },
}

impl WriteOp<'_> {
    /// The batch an edge op carries (none for a registration).
    fn edges(&self) -> &[Edge<'_>] {
        match self {
            WriteOp::AddEdges(edges) | WriteOp::RemoveEdges(edges) => edges,
            WriteOp::RegisterView { .. } => &[],
        }
    }
}

/// The one engine call behind every write verb: the op as a [`WriteRequest`].
fn apply_write(
    engine: &mut QueryEngine,
    op: &WriteOp,
    budget: QueryBudget,
    trace: Option<&TraceContext>,
) -> Result<WriteOutcome, EngineError> {
    let names: Vec<(&str, &str, &str)> =
        op.edges().iter().map(|(f, l, t)| (f.as_ref(), l.as_ref(), t.as_ref())).collect();
    let definition;
    engine.try_apply(&WriteRequest {
        mutation: match op {
            WriteOp::AddEdges(_) => Mutation::AddEdgesNamed(&names),
            WriteOp::RemoveEdges(_) => Mutation::RemoveEdgesNamed(&names),
            WriteOp::RegisterView { name, regex } => {
                definition = regexlang::parse(regex)?;
                Mutation::RegisterView { name, definition: &definition }
            }
        },
        budget,
        trace,
    })
}

// ---------------------------------------------------------------------------
// Shared server state

struct Shared {
    config: ServiceConfig,
    snapshot: RwLock<Arc<EngineSnapshot>>,
    stats: ServiceStats,
    telemetry: ServiceTelemetry,
    slow_log: SlowQueryLog,
    shutdown: AtomicBool,
    /// The one writable engine: a write locks it for apply + publish.
    engine: Mutex<QueryEngine>,
    /// Write permits taken: the write applying plus those waiting for the
    /// engine, at most `writer_queue_depth + 1`.
    writes_admitted: AtomicU64,
}

impl Shared {
    fn pinned_snapshot(&self) -> Arc<EngineSnapshot> {
        // Poison cannot leave a torn value here (the slot only ever holds
        // a complete Arc), so readers recover instead of panicking.
        self.snapshot
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

/// RAII admission permit: holding one occupies a slot of its gate (a
/// query's, or a write's).
struct Permit<'a>(&'a AtomicU64);

impl<'a> Permit<'a> {
    fn acquire(gate: &'a AtomicU64, max: usize) -> Option<Self> {
        // ordering: the successful CAS is Acquire to pair with the Release
        // decrement in Drop, so everything a finished query did under its
        // slot happens-before the slot's reuse.  The seed load and the CAS
        // failure path are Relaxed: they only feed the next CAS attempt,
        // which re-validates the count.
        let mut current = gate.load(Ordering::Relaxed);
        loop {
            if current >= max as u64 {
                return None;
            }
            match gate.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Permit(gate)),
                Err(observed) => current = observed,
            }
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // ordering: Release — pairs with the Acquire CAS in `acquire` so the
        // released slot's work is visible to whoever re-occupies it.
        self.0.fetch_sub(1, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Framing

enum FrameRead {
    /// A complete line is in the buffer (without the newline).
    Frame,
    /// The line exceeded the frame cap; it was drained to the newline.
    TooLarge,
    /// EOF or unrecoverable socket error.
    Closed,
    /// Idle tick (no bytes pending) — caller should poll shutdown.
    Idle,
}

fn read_frame(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
    shutdown: &AtomicBool,
) -> FrameRead {
    buf.clear();
    let mut oversized = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return FrameRead::Closed,
            Ok(chunk) => chunk,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    // A half-sent frame must not block the drain.
                    return FrameRead::Closed;
                }
                if buf.is_empty() && !oversized {
                    return FrameRead::Idle;
                }
                // Mid-frame stall: keep waiting (the read timeout paces the
                // loop); the OS reports disconnects as EOF/reset here.
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FrameRead::Closed,
        };
        if let Some(newline) = chunk.iter().position(|&b| b == b'\n') {
            if !oversized {
                // lint: allow(panic) — `newline` is position() on this same chunk
                buf.extend_from_slice(&chunk[..newline]);
            }
            reader.consume(newline + 1);
            if oversized || buf.len() > max {
                return FrameRead::TooLarge;
            }
            return FrameRead::Frame;
        }
        if !oversized {
            buf.extend_from_slice(chunk);
            if buf.len() > max {
                oversized = true;
                buf.clear();
            }
        }
        let consumed = chunk.len();
        reader.consume(consumed);
    }
}

// ---------------------------------------------------------------------------
// Request dispatch

/// Renders a completed trace as the wire-level `trace` object: identity,
/// wall time, per-phase totals (top-level, non-overlapping spans only), and
/// the raw span list with per-worker detail.
fn trace_value(trace: &TraceContext) -> Value {
    let spans = trace.spans();
    let mut phase_totals: Vec<(String, Value)> = Vec::new();
    for phase in Phase::ALL {
        let total: u64 = spans
            .iter()
            .filter(|s| s.phase == phase && s.worker.is_none())
            .map(|s| s.duration_us)
            .sum();
        if total > 0 || spans.iter().any(|s| s.phase == phase && s.worker.is_none()) {
            phase_totals.push((phase.as_str().to_string(), Value::Int(total as i128)));
        }
    }
    let span_values: Vec<Value> = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("phase".to_string(), Value::String(s.phase.as_str().to_string())),
                (
                    "worker".to_string(),
                    s.worker.map_or(Value::Null, |w| Value::Int(w as i128)),
                ),
                ("start_us".to_string(), Value::Int(s.start_us as i128)),
                ("duration_us".to_string(), Value::Int(s.duration_us as i128)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("trace_id".to_string(), Value::Int(trace.trace_id() as i128)),
        ("total_us".to_string(), Value::Int(trace.total_us() as i128)),
        ("top_level_us".to_string(), Value::Int(trace.top_level_sum_us() as i128)),
        ("dropped_spans".to_string(), Value::Int(trace.dropped() as i128)),
        ("phase_totals".to_string(), Value::Object(phase_totals)),
        ("spans".to_string(), Value::Array(span_values)),
    ])
}

/// The engine budget a request's options ask for: its `timeout_ms`
/// (`default_timeout_ms` when absent, no deadline when that is absent too)
/// clamped by the server's `max_timeout_ms`, and its visit cap.
fn budget_of(
    options: &RequestOptions,
    default_timeout_ms: Option<u64>,
    max_timeout_ms: u64,
) -> QueryBudget {
    let budget = match options.timeout_ms.or(default_timeout_ms) {
        Some(ms) => QueryBudget::with_timeout(Duration::from_millis(ms.min(max_timeout_ms))),
        None => QueryBudget::unlimited(),
    };
    match options.max_visited {
        Some(cap) => budget.max_visited(cap),
        None => budget,
    }
}

/// The trace a request's options ask for, started now.
fn trace_of(options: &RequestOptions) -> Option<TraceContext> {
    options.trace.then(|| TraceContext::new(options.trace_id.unwrap_or_else(next_trace_id)))
}

/// The one read handler behind `query`, `single_pair` and `reachable_from`:
/// admission → budget clamp → [`ReadRequest`] → [`EngineSnapshot::try_eval`]
/// → render by [`ReadOutcome`] → latency/slow-log accounting.
///
/// `limit` is the client's result-size cap; the server's
/// `max_result_pairs` applies even without one.  For `query` it bounds the
/// rendered pairs (the exact `count` is always returned); for
/// `reachable_from` it bounds the sweep itself, and `truncated` reports an
/// early stop by either cap.
fn handle_read(
    shared: &Shared,
    id: Option<i64>,
    q: &str,
    shape: Shape,
    limit: Option<usize>,
    options: RequestOptions,
) -> String {
    let config = &shared.config;
    if shared.shutdown.load(Ordering::SeqCst) {
        return render_err(id, "shutting_down", "server is draining", None);
    }
    let Some(_permit) = Permit::acquire(&shared.stats.in_flight, config.max_inflight) else {
        bump(&shared.stats.queries_rejected);
        return render_err(
            id,
            "overloaded",
            "query admission gate is full",
            Some(RETRY_AFTER_MS),
        );
    };
    let started = Instant::now();
    let budget = budget_of(&options, Some(config.default_timeout_ms), config.max_timeout_ms);
    let cap = limit.unwrap_or(usize::MAX).min(config.max_result_pairs);
    let shape = match shape {
        Shape::From { source, .. } => Shape::From { source, limit: Some(cap) },
        other => other,
    };
    let snapshot = shared.pinned_snapshot();
    let trace_ctx = trace_of(&options);
    let request = ReadRequest { query: Query::Text(q), shape, budget, trace: trace_ctx.as_ref() };
    let eval_started = Instant::now();
    let result = snapshot.try_eval(&request);
    let eval_us = as_us(eval_started.elapsed());
    let response = match result {
        Ok(outcome) => {
            bump(&shared.stats.queries_ok);
            let reply =
                Reply::ok(id).field("revision", &Value::Int(snapshot.revision().into()));
            let reply = match outcome {
                ReadOutcome::Answer(answer) => reply.pairs(answer.as_slice(), cap),
                ReadOutcome::Reachable(result) => reply.targets(&result.targets, result.complete),
                ReadOutcome::Connected(connected) => {
                    reply.field("connected", &Value::Bool(connected))
                }
            };
            // Lets clients split round-trip time into queue-wait vs
            // evaluation without a second request.
            let reply = reply.field("eval_us", &Value::Int(eval_us.into()));
            match &trace_ctx {
                Some(trace) => reply.field("trace", &trace_value(trace)),
                None => reply,
            }
            .finish()
        }
        Err(e) => {
            if e.is_budget_interrupt() {
                bump(&shared.stats.queries_interrupted);
            } else {
                bump(&shared.stats.queries_failed);
            }
            render_err(id, e.code(), &e.to_string(), None)
        }
    };
    let total_us = as_us(started.elapsed());
    shared.telemetry.query().record(total_us);
    shared.telemetry.eval().record(eval_us);
    shared.slow_log.observe(
        trace_ctx.as_ref().map_or(0, |t| t.trace_id()),
        q,
        total_us,
        snapshot.revision(),
    );
    response
}

/// Summarizes one histogram for the JSON metrics payload.
fn histogram_summary(hist: &Histogram) -> Value {
    Value::Object(vec![
        ("count".to_string(), Value::Int(hist.count() as i128)),
        ("p50_ms".to_string(), Value::Float(hist.percentile_ms(0.50))),
        ("p90_ms".to_string(), Value::Float(hist.percentile_ms(0.90))),
        ("p99_ms".to_string(), Value::Float(hist.percentile_ms(0.99))),
        ("max_ms".to_string(), Value::Float(hist.max_us() as f64 / 1_000.0)),
        ("mean_ms".to_string(), Value::Float(hist.mean_us() / 1_000.0)),
    ])
}

/// Renders the full Prometheus text exposition: engine + service duration
/// histograms, the service, slow-log and engine counters, and the gauges.
fn prometheus_exposition(shared: &Shared, snapshot: &EngineSnapshot) -> String {
    let mut out = String::new();
    for (name, hist) in snapshot.telemetry().histograms() {
        prometheus::render_duration_histogram(
            &mut out,
            &format!("rpq_engine_{name}_duration_seconds"),
            &format!("Engine {name} phase latency."),
            hist,
        );
    }
    for (name, hist) in shared.telemetry.histograms() {
        prometheus::render_duration_histogram(
            &mut out,
            &format!("rpq_service_{name}_duration_seconds"),
            &format!("Service {name} latency."),
            hist,
        );
    }
    let stats = shared.stats.read();
    // Every service and engine counter, straight off the two tables
    // (`ServiceStatsSnapshot::fields`, `EngineStats::fields`), as
    // `rpq_<field>_total`; `in_flight` is a gauge, rendered below.
    for (field, value) in stats.fields().into_iter().filter(|&(field, _)| field != "in_flight") {
        let help = format!("Service counter `{field}` (see ServiceStatsSnapshot).");
        prometheus::render_counter(&mut out, &format!("rpq_{field}_total"), &help, value);
    }
    prometheus::render_counter(
        &mut out,
        "rpq_slow_queries_total",
        "Queries over the slow-query threshold.",
        shared.slow_log.total_observed(),
    );
    prometheus::render_counter(
        &mut out,
        "rpq_slow_queries_evicted_total",
        "Slow queries evicted from the full slow-query log before a drain.",
        shared.slow_log.evicted(),
    );
    for (field, value) in snapshot.stats().fields() {
        let help = format!("Engine counter `{field}` (see EngineStats).");
        prometheus::render_counter(&mut out, &format!("rpq_{field}_total"), &help, value);
    }
    prometheus::render_gauge(
        &mut out,
        "rpq_in_flight_queries",
        "Queries evaluating right now.",
        stats.in_flight as f64,
    );
    prometheus::render_gauge(
        &mut out,
        "rpq_snapshot_age_seconds",
        "Age of the currently served snapshot.",
        snapshot.age().as_secs_f64(),
    );
    prometheus::render_gauge(
        &mut out,
        "rpq_slow_query_log_depth",
        "Slow-query entries waiting to be drained.",
        shared.slow_log.len() as f64,
    );
    out
}

fn handle_metrics(shared: &Shared, id: Option<i64>, format: Option<&str>) -> String {
    let snapshot = shared.pinned_snapshot();
    match format {
        Some("prometheus") => render_ok(
            id,
            vec![
                ("format".to_string(), Value::String("prometheus".to_string())),
                (
                    "exposition".to_string(),
                    Value::String(prometheus_exposition(shared, &snapshot)),
                ),
            ],
        ),
        None | Some("json") => {
            let engine_hists: Vec<(String, Value)> = snapshot
                .telemetry()
                .histograms()
                .iter()
                .map(|(name, hist)| (name.to_string(), histogram_summary(hist)))
                .collect();
            let service_hists: Vec<(String, Value)> = shared
                .telemetry
                .histograms()
                .iter()
                .map(|(name, hist)| (name.to_string(), histogram_summary(hist)))
                .collect();
            let slow = &shared.slow_log;
            render_ok(
                id,
                vec![
                    ("revision".to_string(), Value::Int(snapshot.revision() as i128)),
                    ("engine".to_string(), Value::Object(engine_hists)),
                    ("service".to_string(), Value::Object(service_hists)),
                    (
                        "snapshot_age_s".to_string(),
                        Value::Float(snapshot.age().as_secs_f64()),
                    ),
                    (
                        "slow_query_log".to_string(),
                        Value::Object(vec![
                            (
                                "threshold_ms".to_string(),
                                Value::Int((slow.threshold_us() / 1_000) as i128),
                            ),
                            ("capacity".to_string(), Value::Int(slow.capacity() as i128)),
                            ("pending".to_string(), Value::Int(slow.len() as i128)),
                            (
                                "total_observed".to_string(),
                                Value::Int(slow.total_observed() as i128),
                            ),
                            ("evicted".to_string(), Value::Int(slow.evicted() as i128)),
                        ]),
                    ),
                ],
            )
        }
        Some(other) => render_err(
            id,
            "parse_error",
            &format!("unsupported metrics format {other:?} (use \"json\" or \"prometheus\")"),
            None,
        ),
    }
}

/// Applies a write under the engine lock, waiting for it if another write
/// holds it.  `replies` holds what this connection has answered but not yet
/// sent; it is flushed before the wait, because the wait may be long.
fn handle_write(
    shared: &Shared,
    id: Option<i64>,
    op: WriteOp,
    options: RequestOptions,
    replies: &mut impl Write,
) -> String {
    if shared.shutdown.load(Ordering::SeqCst) {
        return render_err(id, "shutting_down", "server is draining", None);
    }
    let batch = op.edges().len();
    if batch > shared.config.max_batch_edges {
        bump(&shared.stats.writes_rejected);
        return render_err(
            id,
            "batch_too_large",
            &format!(
                "batch of {batch} edges exceeds max_batch_edges = {}",
                shared.config.max_batch_edges
            ),
            None,
        );
    }
    let applied = if matches!(op, WriteOp::RegisterView { .. }) { 1 } else { batch };
    let permits = shared.config.writer_queue_depth + 1;
    let Some(_permit) = Permit::acquire(&shared.writes_admitted, permits) else {
        bump(&shared.stats.writer_overflows);
        return render_err(id, "overloaded", "writer queue is full", Some(RETRY_AFTER_MS));
    };
    // A failed flush leaves the bytes buffered; the connection's next flush
    // reports the dead socket.
    let _ = replies.flush();
    // A write that panicked under the lock may have left the engine torn:
    // refuse every later write, and let reads keep the last snapshot.
    let Ok(mut engine) = shared.engine.lock() else {
        return render_err(id, "shutting_down", "server is draining", None);
    };
    let started = Instant::now();
    // Built after the wait: the budget bounds the repair, and the trace
    // accounts for the write, not for its wait for the lock.
    let budget = budget_of(&options, None, shared.config.max_timeout_ms);
    let trace = trace_of(&options);
    let result = apply_write(&mut engine, &op, budget, trace.as_ref());
    let replaced = result.is_ok().then(|| {
        let snapshot = match &trace {
            Some(trace) => engine.publish_snapshot_traced(trace),
            None => engine.publish_snapshot(),
        };
        // A poisoned slot still holds a valid Arc (the swap is the only
        // write and cannot unwind mid-store): recover it.
        let mut slot = shared.snapshot.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::replace(&mut *slot, snapshot)
    });
    drop(engine);
    // The old revision's freezes are freed here, if no reader holds them,
    // with neither the snapshot slot nor the engine locked.
    drop(replaced);
    match result {
        Ok(outcome) => {
            bump(&shared.stats.writes_applied);
            shared.telemetry.write().record_duration(started.elapsed());
            let mut fields = vec![
                ("revision".to_string(), Value::Int(outcome.revision as i128)),
                ("num_nodes".to_string(), Value::Int(outcome.num_nodes as i128)),
                ("applied".to_string(), Value::Int(applied as i128)),
            ];
            fields.extend(trace.as_ref().map(|trace| ("trace".to_string(), trace_value(trace))));
            render_ok(id, fields)
        }
        Err(e) => {
            bump(&shared.stats.writes_rejected);
            render_err(id, e.code(), &e.to_string(), None)
        }
    }
}

fn stats_fields(shared: &Shared) -> Vec<(String, Value)> {
    let snapshot = shared.pinned_snapshot();
    let service = shared.stats.read();
    let engine_stats = snapshot.stats();
    let int = |n: u64| Value::Int(n as i128);
    vec![
        ("revision".to_string(), int(snapshot.revision())),
        ("num_nodes".to_string(), Value::Int(snapshot.num_nodes() as i128)),
        (
            "service".to_string(),
            Value::Object(
                service.fields().iter().map(|&(name, n)| (name.to_string(), int(n))).collect(),
            ),
        ),
        (
            "engine".to_string(),
            Value::Object(
                engine_stats.fields().iter().map(|&(name, n)| (name.to_string(), int(n))).collect(),
            ),
        ),
        (
            // Draining: each entry is reported exactly once across all
            // `stats` calls (concurrent observers keep accumulating).
            "slow_queries".to_string(),
            Value::Array(
                shared
                    .slow_log
                    .drain()
                    .into_iter()
                    .map(|entry| {
                        Value::Object(vec![
                            ("trace_id".to_string(), int(entry.trace_id)),
                            ("query".to_string(), Value::String(entry.query)),
                            ("elapsed_us".to_string(), int(entry.elapsed_us)),
                            ("revision".to_string(), int(entry.revision)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Outcome of one dispatched frame: the response line, plus whether the
/// connection (or the whole server) should wind down afterwards.
struct Dispatch {
    response: String,
    close_connection: bool,
}

fn dispatch(shared: &Shared, line: &str, replies: &mut impl Write) -> Dispatch {
    let (id, request) = parse_frame(line);
    let request = match request {
        Ok(request) => request,
        Err(e) => {
            bump(&shared.stats.protocol_errors);
            return Dispatch {
                response: render_err(id, e.code, &e.message, None),
                close_connection: false,
            };
        }
    };
    bump(&shared.stats.frames);
    let response = match request {
        Request::Query { q, limit, options } => {
            handle_read(shared, id, &q, Shape::Full, limit, options)
        }
        Request::SinglePair { q, from, to, options } => {
            handle_read(shared, id, &q, Shape::Pair { source: from, target: to }, None, options)
        }
        Request::ReachableFrom { q, from, limit, options } => {
            handle_read(shared, id, &q, Shape::From { source: from, limit }, limit, options)
        }
        Request::AddEdges { edges, options } => {
            handle_write(shared, id, WriteOp::AddEdges(&edges), options, replies)
        }
        Request::RemoveEdges { edges, options } => {
            handle_write(shared, id, WriteOp::RemoveEdges(&edges), options, replies)
        }
        Request::RegisterView { name, regex, options } => {
            let op = WriteOp::RegisterView { name: &name, regex: &regex };
            handle_write(shared, id, op, options, replies)
        }
        Request::View { name } => {
            let snapshot = shared.pinned_snapshot();
            match snapshot.view_extension(&name) {
                Some(answer) => Reply::ok(id)
                    .field("revision", &Value::Int(snapshot.revision().into()))
                    .pairs(answer.as_slice(), shared.config.max_result_pairs)
                    .finish(),
                None => render_err(id, "unknown_view", &format!("no view named {name:?}"), None),
            }
        }
        Request::Stats => render_ok(id, stats_fields(shared)),
        Request::Metrics { format } => handle_metrics(shared, id, format.as_deref()),
        Request::Health => {
            let snapshot = shared.pinned_snapshot();
            render_ok(
                id,
                vec![
                    ("status".to_string(), Value::String("ok".to_string())),
                    ("revision".to_string(), Value::Int(snapshot.revision() as i128)),
                    (
                        "in_flight".to_string(),
                        // ordering: Relaxed — advisory gauge in a health reply.
                        Value::Int(shared.stats.in_flight.load(Ordering::Relaxed) as i128),
                    ),
                ],
            )
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            return Dispatch {
                response: render_ok(
                    id,
                    vec![("status".to_string(), Value::String("draining".to_string()))],
                ),
                close_connection: true,
            };
        }
    };
    Dispatch { response, close_connection: false }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    bump(&shared.stats.connections);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let socket = Socket { stream, writes: &shared.stats.reply_writes };
    let mut replies = BufWriter::with_capacity(REPLY_BUFFER_BYTES, socket);
    match serve(&shared, &mut BufReader::new(read_half), &mut replies) {
        Ok(()) => {
            let _ = replies.flush();
        }
        // The socket is gone, and so is what it could not take.
        Err(_) => drop(replies.into_parts()),
    }
}

/// Answers frames into `replies` until the client hangs up, the server shuts
/// down, the client sends `shutdown`, or a write fails.  The caller flushes
/// on the way out.
fn serve(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    replies: &mut impl Write,
) -> io::Result<()> {
    let max_frame_bytes = shared.config.max_frame_bytes;
    let mut buf = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        // With no complete frame buffered, `read_frame` may block on the
        // socket: the replies so far leave first.
        if !reader.buffer().contains(&b'\n') {
            replies.flush()?;
        }
        match read_frame(reader, &mut buf, max_frame_bytes, &shared.shutdown) {
            FrameRead::Idle => continue,
            FrameRead::Closed => return Ok(()),
            FrameRead::TooLarge => {
                bump(&shared.stats.frames_too_large);
                let response = render_err(
                    None,
                    "frame_too_large",
                    &format!("frame exceeds max_frame_bytes = {max_frame_bytes}"),
                    None,
                );
                replies.write_all(response.as_bytes())?;
            }
            FrameRead::Frame => {
                let Ok(line) = std::str::from_utf8(&buf) else {
                    bump(&shared.stats.protocol_errors);
                    let response =
                        render_err(None, "parse_error", "frame is not valid UTF-8", None);
                    replies.write_all(response.as_bytes())?;
                    continue;
                };
                let outcome = dispatch(shared, line, replies);
                replies.write_all(outcome.response.as_bytes())?;
                if outcome.close_connection {
                    return Ok(());
                }
            }
        }
    }
}

/// A connection's socket under its reply buffer: every `write` call that
/// carries bytes counts one `reply_writes`, before it is made, so the count
/// already includes any reply a client has received.
struct Socket<'a> {
    stream: TcpStream,
    writes: &'a AtomicU64,
}

impl Write for Socket<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if !bytes.is_empty() {
            bump(self.writes);
        }
        self.stream.write(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

// ---------------------------------------------------------------------------
// Server handle

/// A running RPQ server.  Dropping the handle shuts the server down
/// gracefully (prefer calling [`shutdown`](Server::shutdown) explicitly).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Validates `config`, builds the engine around `db`, binds the
    /// listener, and starts the accept thread.  `addr` may use port 0 to
    /// let the OS choose (see [`Server::addr`]).
    pub fn start(db: GraphDb, config: ServiceConfig) -> io::Result<Server> {
        // Validates `config.engine` too.
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut engine = QueryEngine::with_config(db, config.engine.clone());
        let first_snapshot = engine.publish_snapshot();

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let slow_log = SlowQueryLog::new(
            config.slow_query_threshold_ms.saturating_mul(1_000),
            config.slow_query_log_capacity,
        );
        let shared = Arc::new(Shared {
            config,
            snapshot: RwLock::new(first_snapshot),
            stats: ServiceStats::default(),
            telemetry: ServiceTelemetry::default(),
            slow_log,
            shutdown: AtomicBool::new(false),
            engine: Mutex::new(engine),
            writes_admitted: AtomicU64::new(0),
        });

        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut connections: Vec<JoinHandle<()>> = Vec::new();
            while !accept_shared.shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let conn_shared = accept_shared.clone();
                        connections.push(std::thread::spawn(move || {
                            handle_connection(stream, conn_shared)
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_TICK);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_TICK),
                }
                // Reap finished connection threads so long-lived servers
                // don't accumulate handles.
                connections.retain(|handle| !handle.is_finished());
            }
            for handle in connections {
                let _ = handle.join();
            }
        });

        Ok(Server { shared, addr, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested (by [`shutdown`](Self::shutdown)
    /// or a client's `shutdown` op).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Current service counters.
    pub fn stats(&self) -> ServiceStatsSnapshot {
        self.shared.stats.read()
    }

    /// Graceful shutdown: stop accepting and reject new work, then join every
    /// thread.  Joining is the drain: a connection thread exits only after
    /// its in-flight query or waiting write has been answered, so every such
    /// reply is written before this returns.
    pub fn shutdown(mut self) {
        self.wind_down();
    }

    fn wind_down(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread joins the connection threads, and with them the
        // in-flight queries and the writes still waiting for the engine.
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.wind_down();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(client: &mut BufReader<TcpStream>, frame: &str) -> Value {
        client.get_mut().write_all(format!("{frame}\n").as_bytes()).expect("send");
        let mut line = String::new();
        assert!(client.read_line(&mut line).expect("recv") > 0, "connection closed");
        serde_json::from_str(line.trim_end()).expect("response is valid JSON")
    }

    #[test]
    fn a_poisoned_engine_refuses_writes_and_reads_keep_serving() {
        let mut db = GraphDb::new(automata::Alphabet::from_chars(['a']).expect("alphabet"));
        db.add_edge_named("x", "a", "y");
        let server = Server::start(db, ServiceConfig::default()).expect("start");
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let mut client = BufReader::new(stream);
        let written = roundtrip(&mut client, r#"{"op":"add_edges","edges":[["y","a","z"]]}"#);
        let revision = written["revision"].as_u64().expect("revision");

        // A write that panics while it holds the engine.
        let shared = server.shared.clone();
        let died = std::thread::spawn(move || {
            let _engine = shared.engine.lock().expect("not yet poisoned");
            panic!("a write dies mid-apply");
        })
        .join();
        assert!(died.is_err() && server.shared.engine.is_poisoned());

        let refused = roundtrip(&mut client, r#"{"op":"add_edges","edges":[["z","a","w"]]}"#);
        assert_eq!(refused["ok"].as_bool(), Some(false), "{refused:?}");
        assert_eq!(refused["error"]["code"].as_str(), Some("shutting_down"));
        assert_eq!(server.stats().writes_applied, 1, "the refused write never applied");

        let read = roundtrip(&mut client, r#"{"op":"query","q":"a·a"}"#);
        assert_eq!(read["ok"].as_bool(), Some(true), "{read:?}");
        assert_eq!(read["revision"].as_u64(), Some(revision), "the last published snapshot");
        assert_eq!(read["count"].as_u64(), Some(1), "x → z, and no w");
        server.shutdown();
    }
}
