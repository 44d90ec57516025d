//! A hardened serving layer over the [`engine`] crate: a line-delimited
//! JSON protocol on plain TCP (`std::net` only — no external server
//! frameworks exist in this environment), built so that **no client input
//! and no load pattern can panic, wedge, or starve the engine**.
//!
//! The paper's setting (Calvanese–De Giacomo–Lenzerini–Vardi, PODS'99)
//! treats query rewriting and evaluation as offline algebra; this crate is
//! the part a reproduction needs once those algorithms sit behind a
//! network socket: request framing with hard size caps, per-request
//! deadlines mapped onto [`engine::QueryBudget`]s, admission control with
//! explicit backpressure (`overloaded` + `retry_after_ms` rather than
//! unbounded queueing), writes applied one at a time under one engine lock
//! with a bounded number waiting, preserving the engine's
//! validate-before-mutate atomicity, and graceful drain on shutdown.
//!
//! * [`protocol`] — the frame grammar and response rendering.
//! * [`Server`] — the accept/connection threading model and the engine lock.
//! * [`ServiceConfig`] — every robustness knob in one place.
//!
//! ```no_run
//! use service::{Server, ServiceConfig};
//!
//! let db = graphdb::GraphDb::new(automata::Alphabet::from_chars(['a', 'b']).unwrap());
//! let server = Server::start(db, ServiceConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

// lint: allow(hygiene) — `benchmark/` names `service::protocol::{parse_frame, render_ok}`.
pub mod protocol;
mod server;

pub use protocol::{ProtocolError, Request};
pub use server::{Server, ServiceStatsSnapshot};

use engine::{EngineConfig, EngineError};

/// Every robustness knob of a [`Server`] in one place.
///
/// The defaults are sized for a small deployment; tests shrink the caps to
/// force the failure paths deterministically.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 lets the OS pick (see [`Server::addr`]).
    pub addr: String,
    /// Maximum concurrently evaluating queries; excess requests are
    /// rejected with `overloaded` + `retry_after_ms`.
    pub max_inflight: usize,
    /// Writes that may wait for the engine beside the one applying; a write
    /// beyond them is rejected immediately instead of stalling the
    /// connection.
    pub writer_queue_depth: usize,
    /// Deadline applied to queries that do not send `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Hard ceiling on any requested `timeout_ms`.
    pub max_timeout_ms: u64,
    /// Maximum edges per mutation batch (`batch_too_large` beyond it).
    pub max_batch_edges: usize,
    /// Maximum request-line length in bytes (`frame_too_large` beyond it;
    /// the connection survives).
    pub max_frame_bytes: usize,
    /// Hard cap on pairs returned per response (the true count is still
    /// reported and `truncated` is set).
    pub max_result_pairs: usize,
    /// Queries slower than this land in the slow-query log (drained through
    /// the `stats` op).  0 logs every query — useful in tests, noisy in
    /// production.
    pub slow_query_threshold_ms: u64,
    /// Ring capacity of the slow-query log: the newest entries win; evicted
    /// ones are counted, never silently lost.
    pub slow_query_log_capacity: usize,
    /// Engine tuning; must pass [`EngineConfig::validate`].
    pub engine: EngineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 32,
            writer_queue_depth: 64,
            default_timeout_ms: 2_000,
            max_timeout_ms: 30_000,
            max_batch_edges: 10_000,
            max_frame_bytes: 1 << 20,
            max_result_pairs: 100_000,
            slow_query_threshold_ms: 250,
            slow_query_log_capacity: 128,
            engine: EngineConfig::serving(),
        }
    }
}

impl ServiceConfig {
    /// Rejects configurations that would make the server unable to accept
    /// any work (zero capacities) or unable to bound it (zero caps), plus
    /// whatever [`EngineConfig::validate`] rejects.
    pub fn validate(&self) -> Result<(), EngineError> {
        let invalid = |message: &str| EngineError::InvalidConfig { message: message.to_string() };
        if self.max_inflight == 0 {
            return Err(invalid("max_inflight must be at least 1"));
        }
        if self.writer_queue_depth == 0 {
            return Err(invalid("writer_queue_depth must be at least 1"));
        }
        if self.max_timeout_ms == 0 {
            return Err(invalid("max_timeout_ms must be at least 1"));
        }
        if self.default_timeout_ms == 0 {
            // Every query sending no `timeout_ms` would start already expired.
            return Err(invalid("default_timeout_ms must be at least 1"));
        }
        if self.max_frame_bytes < 2 {
            return Err(invalid("max_frame_bytes must hold at least a tiny frame"));
        }
        if self.max_result_pairs == 0 {
            return Err(invalid("max_result_pairs must be at least 1"));
        }
        if self.max_batch_edges == 0 {
            return Err(invalid("max_batch_edges must be at least 1"));
        }
        if self.slow_query_log_capacity == 0 {
            return Err(invalid(
                "slow_query_log_capacity must be at least 1 (raise the threshold to silence it)",
            ));
        }
        self.engine.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServiceConfig::default().validate().is_ok());
    }

    #[test]
    fn each_degenerate_knob_is_rejected() {
        type Breaker = Box<dyn Fn(&mut ServiceConfig)>;
        let cases: Vec<(&str, Breaker)> = vec![
            ("max_inflight", Box::new(|c| c.max_inflight = 0)),
            ("writer_queue_depth", Box::new(|c| c.writer_queue_depth = 0)),
            ("max_timeout_ms", Box::new(|c| c.max_timeout_ms = 0)),
            ("default_timeout_ms", Box::new(|c| c.default_timeout_ms = 0)),
            ("max_frame_bytes", Box::new(|c| c.max_frame_bytes = 0)),
            ("max_result_pairs", Box::new(|c| c.max_result_pairs = 0)),
            ("max_batch_edges", Box::new(|c| c.max_batch_edges = 0)),
            ("slow_query_log_capacity", Box::new(|c| c.slow_query_log_capacity = 0)),
            ("engine.threads", Box::new(|c| c.engine.threads = 0)),
            ("engine.answer_cache_capacity", Box::new(|c| c.engine.answer_cache_capacity = 0)),
        ];
        for (knob, break_it) in cases {
            let mut config = ServiceConfig::default();
            break_it(&mut config);
            let err = config.validate().expect_err(knob);
            assert_eq!(err.code(), "invalid_config", "{knob}");
        }
    }
}
