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
//! * [`SlowQueryLog`] — bounded, drainable retention of the most recent
//!   queries over a latency threshold.
//! * [`Metric`] / [`Reading`] — an entry of a server's metric registry, and
//!   [`exposition`], the registry's Prometheus text exposition.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod histogram;
mod prometheus;
mod slowlog;
mod trace;

pub use histogram::Histogram;
pub use prometheus::{exposition, Metric, Reading};
pub use slowlog::{SlowQueryEntry, SlowQueryLog};
pub use trace::{
    next_trace_id, ParallelBreakdown, Phase, Span, TraceContext, WorkerTiming, MAX_SPANS_PER_TRACE,
};
