//! Std-lib-only observability primitives for the RPQ engine and service.
//!
//! The crate has **zero dependencies** (the workspace is offline; everything
//! external lives under `shims/`) and follows the same hardening rules as
//! `engine`/`service`: no `unsafe`, no panics on untrusted input, and no
//! allocation on the hot recording paths.
//!
//! Four pieces, composable but independent:
//!
//! * [`Histogram`] — lock-free, log-bucketed (HDR-style) latency histogram
//!   over `u64` microsecond values: 16 sub-buckets per power of two
//!   (relative bucket width ≤ 1/16), atomic `record`, and
//!   [`Histogram::percentile`] / [`Histogram::max_us`] readouts.
//! * [`TraceContext`] / [`Span`] / [`Phase`] — per-query span tracing: a
//!   trace id (allocated by [`next_trace_id`] at the service boundary or
//!   supplied by the caller) plus a bounded list of phase spans
//!   (parse / cache-lookup / compile / product-BFS / chunk-acquire /
//!   chunk-merge / repair / snapshot-publish), with optional per-worker
//!   attribution ([`WorkerTiming`], [`ParallelBreakdown`]).
//! * [`RingBuffer`] / [`SlowQueryLog`] — bounded, drainable retention for
//!   recent events; the slow-query log keeps the most recent queries over a
//!   latency threshold.
//! * [`prometheus`] — text exposition (version 0.0.4) rendering helpers for
//!   counters, gauges, and histograms.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod histogram;
pub mod prometheus;
mod ring;
mod slowlog;
mod trace;

pub use histogram::Histogram;
pub use ring::RingBuffer;
pub use slowlog::{SlowQueryEntry, SlowQueryLog};
pub use trace::{
    next_trace_id, ParallelBreakdown, Phase, Span, TraceContext, WorkerTiming, MAX_SPANS_PER_TRACE,
};
