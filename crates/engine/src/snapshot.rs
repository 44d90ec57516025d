//! The immutable read side of the engine: revision-pinned snapshots.
//!
//! [`crate::QueryEngine`] is the single writer; [`EngineSnapshot`] is the
//! cheaply cloneable (`Arc`) read handle it publishes.  A snapshot is pinned
//! to the revision it was published at: it owns `Arc`s to the frozen CSR
//! adjacency, the compiled view automata, and the materialized view
//! extensions of that revision, so any number of reader threads can
//! evaluate against it with `&self` while the writer keeps mutating and
//! repairing — the writer never mutates shared data in place (a repair
//! builds the new extension beside the shared one), it only publishes fresh
//! `Arc`s.
//!
//! Snapshots share one handle with the writer: the configuration, the
//! counters, the telemetry and the three caches — compiled automata, ad-hoc
//! answers and point-query target lists, each an instance of the
//! crate-private `RevCache` behind one `RwLock` with atomic LRU clocks, so
//! lookups only take read locks and readers on different threads get cache
//! hits without blocking each other.  `EngineSnapshot` is `Send + Sync` by
//! construction — asserted at compile time below.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use automata::Alphabet;
use graphdb::{Answer, CsrAdjacency, MaterializedViews, NodeId, Reachable};
use regexlang::Regex;
use telemetry::Phase;

use crate::error::EngineError;
use crate::metrics::EngineTelemetry;
use crate::query_engine::{EngineConfig, Shared};
use crate::read::{span, Kernel, Query, ReadOutcome, ReadRequest, Reader, Shape};
use crate::stats::EngineStats;

/// Compile-time proof that the read handle crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<Shared>();
};

// ---------------------------------------------------------------------------
// The snapshot

/// One view captured at publish time: its extension at the snapshot's
/// revision (the compiled automaton stays interned in the shared compile
/// cache).
#[derive(Debug)]
struct SnapshotView {
    name: String,
    extension: Arc<Answer>,
}

/// An immutable, revision-pinned read handle over the engine's state.
///
/// Published by [`crate::QueryEngine::publish_snapshot`]; cheap to clone
/// (`Arc` all the way down) and `Send + Sync`, so it can be handed to any
/// number of reader threads.  All evaluation methods take `&self`:
///
/// * [`try_eval`](Self::try_eval) — every read ([`ReadRequest`]: full
///   answer, one source's targets, or one pair; of a query over the
///   snapshot's database revision or of a rewriting over its view
///   extensions), through the shared compile and revision caches, with
///   [`eval_str`](Self::eval_str) / [`eval_regex`](Self::eval_regex) /
///   [`eval_from_str`](Self::eval_from_str) /
///   [`eval_pair_str`](Self::eval_pair_str) as panicking conveniences;
/// * [`view_extension`](Self::view_extension) — the materialized extension
///   of a registered view at this revision;
/// * [`materialized_views`](Self::materialized_views) — the captured
///   extensions with their view graph (frozen lazily, once per snapshot).
///
/// Answers are exactly the answers at [`revision`](Self::revision): the
/// writer repairs its own extensions copy-on-write and publishes new
/// snapshots, so concurrent mutations — insertions *and* DRed deletions —
/// never show through an existing handle.
///
/// # Examples
///
/// Hand a snapshot to a reader thread and keep mutating the writer; the
/// reader's answers stay pinned even while edges are deleted:
///
/// ```
/// use automata::Alphabet;
/// use engine::QueryEngine;
/// use graphdb::GraphDb;
///
/// let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b']).unwrap());
/// db.add_edge_named("u", "a", "v");
/// db.add_edge_named("v", "b", "w");
/// let mut engine = QueryEngine::new(db);
/// engine.register_view("ab", regexlang::parse("a·b").unwrap());
///
/// let snapshot = engine.publish_snapshot();
/// let pinned = snapshot.clone();
/// let reader = std::thread::spawn(move || pinned.eval_str("a·b").len());
///
/// // The writer deletes the b-edge: the next snapshot's answers shrink…
/// engine.remove_edge_named("v", "b", "w");
/// assert_eq!(engine.publish_snapshot().eval_str("a·b").len(), 0);
///
/// // …but the pinned reader still sees the revision-0 answer.
/// assert_eq!(reader.join().unwrap(), 1);
/// assert_eq!(snapshot.eval_str("a·b").len(), 1);
/// ```
#[derive(Debug)]
pub struct EngineSnapshot {
    revision: u64,
    views_epoch: u64,
    csr_out: Arc<CsrAdjacency>,
    /// The frozen *incoming* adjacency at this revision — the backward half
    /// of the bidirectional single-pair evaluator.
    csr_in: Arc<CsrAdjacency>,
    views: Vec<SnapshotView>,
    /// The Σ_E view graph over the captured extensions, built on first use.
    materialized: OnceLock<Arc<MaterializedViews>>,
    /// Configuration, caches, counters and telemetry, shared with the
    /// writer and every sibling snapshot.
    shared: Arc<Shared>,
    /// When this snapshot was built, for the served snapshot's age gauge
    /// (`snapshot_age_s`).
    published_at: Instant,
}

impl EngineSnapshot {
    pub(crate) fn new(
        revision: u64,
        views_epoch: u64,
        csr_out: Arc<CsrAdjacency>,
        csr_in: Arc<CsrAdjacency>,
        views: Vec<(String, Arc<Answer>)>,
        shared: Arc<Shared>,
    ) -> Self {
        EngineSnapshot {
            revision,
            views_epoch,
            csr_out,
            csr_in,
            views: views
                .into_iter()
                .map(|(name, extension)| SnapshotView { name, extension })
                .collect(),
            materialized: OnceLock::new(),
            shared,
            published_at: Instant::now(),
        }
    }

    /// The database revision this snapshot is pinned to.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The view-set epoch this snapshot was published at.
    pub(crate) fn views_epoch(&self) -> u64 {
        self.views_epoch
    }

    /// The engine configuration the snapshot evaluates under.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// Number of nodes of the database at this revision.
    pub fn num_nodes(&self) -> usize {
        self.csr_out.num_nodes()
    }

    /// The frozen outgoing adjacency at this revision.
    pub fn csr_out(&self) -> &CsrAdjacency {
        &self.csr_out
    }

    /// The label domain of the underlying database.
    pub fn domain(&self) -> &Alphabet {
        self.csr_out.domain()
    }

    /// Names of the captured views, in registration order.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.iter().map(|v| v.name.as_str())
    }

    /// The extension of a registered view at this snapshot's revision.
    pub fn view_extension(&self, name: &str) -> Option<&Answer> {
        self.views
            .iter()
            .find(|v| v.name == name)
            .map(|v| v.extension.as_ref())
    }

    /// Cache/evaluation counters of the engine this snapshot belongs to
    /// (shared with the writer and every sibling snapshot).
    pub fn stats(&self) -> EngineStats {
        self.shared.stats()
    }

    /// Timing telemetry of the engine this snapshot belongs to (shared with
    /// the writer and every sibling snapshot, like [`stats`](Self::stats)).
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.shared.telemetry
    }

    /// How long ago this snapshot was published — the age a reader pinned
    /// to it is serving at.
    pub fn age(&self) -> Duration {
        self.published_at.elapsed()
    }

    /// Answers a [`ReadRequest`] at this revision — the one entry point every
    /// read goes through, and the one the serving layer calls.
    ///
    /// The request is served from a materialized answer when one is resident
    /// at this revision: the full extension in the ad-hoc answer cache (for
    /// the point shapes, its row slice or a binary search on the sorted pair
    /// list), or a complete single-source drain in the point-query cache.
    /// Otherwise the query is compiled through the shared compile cache and
    /// the shape's kernel runs — over the database's adjacency, or for a
    /// [`Query::OverViews`] over the view graph of
    /// [`materialized_views`](Self::materialized_views) — the all-sources
    /// product sweep on the pool ([`Shape::Full`]), a product-BFS seeded
    /// only at the source
    /// ([`Shape::From`]; when it drains completely it populates the
    /// point-query cache), or a bidirectional meet-in-the-middle search that
    /// exits on the first frontier intersection ([`Shape::Pair`]).
    ///
    /// # Errors
    ///
    /// Parse failures, out-of-domain labels, out-of-range node ids and a
    /// [`Query::OverViews`] automaton over anything but this snapshot's view
    /// alphabet surface as [`EngineError`] instead of panicking.  The
    /// budget's first tripped limit maps to [`EngineError::DeadlineExceeded`]
    /// or [`EngineError::VisitBudgetExceeded`], each carrying the number of
    /// product pairs visited before the interrupt.  Interrupted (like
    /// limit-truncated) evaluations never populate a cache, so a retry
    /// answers from scratch.
    pub fn try_eval(&self, request: &ReadRequest<'_>) -> Result<ReadOutcome, EngineError> {
        // A Σ_E read runs the same body over the view graph.  What it pays
        // for freezing that graph on first use is the tail of this
        // snapshot's publish, and traced as such.
        let resolve_started = request.trace.map(|_| Instant::now());
        let views = matches!(request.query, Query::OverViews(_)).then(|| self.materialized_views());
        let csr_out = views.as_deref().map_or(&*self.csr_out, MaterializedViews::view_csr);
        let kernel = match request.shape {
            Shape::Full => Kernel::Full,
            Shape::From { source, limit } => Kernel::From { source, limit },
            Shape::Pair { source, target } => {
                let csr_in =
                    views.as_deref().map_or(&*self.csr_in, MaterializedViews::view_csr_in);
                Kernel::Pair { source, target, csr_in }
            }
        };
        if views.is_some() {
            span(request.trace, Phase::SnapshotPublish, resolve_started);
        }
        let reader = Reader {
            revision: self.revision,
            views_epoch: self.views_epoch,
            csr_out,
            shared: &self.shared,
        };
        reader.read(request.query, kernel, &request.budget, request.trace)
    }

    /// Evaluates a regex query at this revision:
    /// [`try_eval`](Self::try_eval) of [`ReadRequest::full`].
    ///
    /// # Panics
    ///
    /// Panics if the query uses a label outside the domain.
    pub fn eval_regex(&self, query: &Regex) -> Arc<Answer> {
        expect_answer(self.try_eval(&ReadRequest::full(query)))
    }

    /// Evaluates a query written in the paper's concrete syntax:
    /// [`try_eval`](Self::try_eval) of [`ReadRequest::full`].
    ///
    /// # Panics
    ///
    /// Panics if the query fails to parse or uses a label outside the
    /// domain.
    pub fn eval_str(&self, query: &str) -> Arc<Answer> {
        expect_answer(self.try_eval(&ReadRequest::full(query)))
    }

    /// Is `target` reachable from `source` along a path spelling a word of
    /// `query`?  [`try_eval`](Self::try_eval) of [`ReadRequest::pair`].
    ///
    /// # Panics
    ///
    /// Panics if the query fails to parse, uses a label outside the domain,
    /// or either node id is out of range.
    pub fn eval_pair_str(&self, query: &str, source: NodeId, target: NodeId) -> bool {
        match self.try_eval(&ReadRequest::pair(query, source, target)) {
            Ok(ReadOutcome::Connected(connected)) => connected,
            Ok(other) => unreachable!("a pair-shape read yields a verdict, not {other:?}"),
            Err(e) => panic!("eval_pair_str failed: {e}"),
        }
    }

    /// All nodes reachable from `source` along paths spelling words of
    /// `query`, sorted ascending, optionally stopping early after `limit`
    /// distinct targets (top-k; reported as `complete: false`).
    /// [`try_eval`](Self::try_eval) of [`ReadRequest::from`].
    ///
    /// # Panics
    ///
    /// Panics if the query fails to parse, uses a label outside the domain,
    /// or `source` is out of range.
    pub fn eval_from_str(&self, query: &str, source: NodeId, limit: Option<usize>) -> Reachable {
        match self.try_eval(&ReadRequest::from(query, source, limit)) {
            Ok(ReadOutcome::Reachable(reachable)) => reachable,
            Ok(other) => unreachable!("a from-shape read yields targets, not {other:?}"),
            Err(e) => panic!("eval_from_str failed: {e}"),
        }
    }

    /// The captured view extensions as a [`MaterializedViews`], ready for
    /// Σ_E-evaluation of rewritings.  The view graph is built lazily on
    /// first use and shared by every subsequent call.
    pub fn materialized_views(&self) -> Arc<MaterializedViews> {
        self.materialized
            .get_or_init(|| {
                let view_alphabet =
                    Alphabet::from_names(self.views.iter().map(|v| v.name.clone()))
                        .expect("view names are distinct by construction");
                let extensions = self
                    .views
                    .iter()
                    .map(|v| (v.name.clone(), v.extension.clone()))
                    .collect();
                Arc::new(MaterializedViews::from_shared_extensions(
                    view_alphabet,
                    extensions,
                    self.num_nodes(),
                ))
            })
            .clone()
    }
}

/// Unwraps a full-shape read for the panicking conveniences.
fn expect_answer(outcome: Result<ReadOutcome, EngineError>) -> Arc<Answer> {
    match outcome {
        Ok(ReadOutcome::Answer(answer)) => answer,
        Ok(other) => unreachable!("a full-shape read yields an answer, not {other:?}"),
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Compiled;
    use crate::fingerprint::Fingerprint;
    use crate::revcache::suite::Sample;
    use automata::{DenseNfa, Dfa};

    const ANSWERS: Sample<Fingerprint, Answer> = Sample {
        key: |i| Fingerprint::from(i),
        value: |i| Answer::from([(i as NodeId, i as NodeId)]),
    };
    /// Injective, and varies the query and the source independently.
    const POINTS: Sample<(Fingerprint, u32), Vec<NodeId>> = Sample {
        key: |i| (Fingerprint::from(i / 2), i % 2),
        value: |i| vec![i as NodeId],
    };
    /// The compile cache's types (its wrapper stores every entry at one
    /// revision, but the type is the whole `RevCache`).
    const COMPILED: Sample<Fingerprint, Compiled> = Sample {
        key: |i| Fingerprint::from(i),
        value: |_| {
            Compiled::new(DenseNfa::from_dfa(&Dfa::universal(Alphabet::from_chars(['a']).unwrap())))
        },
    };

    /// Runs each behaviour of the generic `RevCache` invariant suite at each
    /// of the engine's instantiations: the answer cache's key/value types
    /// (first test name), the point-query cache's (second) and the compile
    /// cache's (third).
    macro_rules! at_every_key_type {
        ($($behaviour:ident: $answers:ident, $points:ident, $compiled:ident;)*) => {$(
            #[test]
            fn $answers() {
                ANSWERS.$behaviour();
            }

            #[test]
            fn $points() {
                POINTS.$behaviour();
            }

            #[test]
            fn $compiled() {
                COMPILED.$behaviour();
            }
        )*};
    }

    at_every_key_type! {
        misses_do_not_advance_the_lru_clock:
            answer_cache_get_does_not_advance_the_lru_clock_on_misses,
            point_cache_get_does_not_advance_the_lru_clock_on_misses,
            compile_cache_get_does_not_advance_the_lru_clock_on_misses;
        distinct_keys_are_independent:
            answer_cache_is_keyed_by_query,
            point_cache_is_keyed_by_query_and_source,
            compile_cache_is_keyed_by_query;
        stale_lookup_evicts_the_entry:
            stale_lookup_evicts_the_entry,
            point_stale_lookup_evicts_the_entry,
            compiled_stale_lookup_evicts_the_entry;
        older_readers_never_clobber_newer_entries:
            older_readers_never_clobber_newer_answers,
            point_older_readers_never_clobber_newer_lists,
            compiled_older_readers_never_clobber_newer_automata;
        old_readers_at_capacity_never_flush_live_entries:
            old_readers_at_capacity_never_flush_live_entries,
            point_old_readers_at_capacity_never_flush_live_entries,
            compiled_old_readers_at_capacity_never_flush_live_entries;
        capacity_eviction_prefers_stale_entries:
            capacity_eviction_prefers_stale_entries,
            point_capacity_eviction_prefers_stale_entries,
            compiled_capacity_eviction_prefers_stale_entries;
        compaction_drops_everything_below_the_window:
            answer_compaction_drops_everything_below_the_window,
            point_compaction_drops_everything_below_the_window,
            compiled_compaction_drops_everything_below_the_window;
        failed_computations_are_neither_cached_nor_counted:
            failed_answers_are_neither_cached_nor_counted,
            failed_point_lists_are_neither_cached_nor_counted,
            failed_compilations_are_neither_cached_nor_counted;
        racing_computations_count_one_miss:
            racing_answers_count_one_miss,
            racing_point_lists_count_one_miss,
            racing_compilations_count_one_miss;
        capacity_zero_disables_caching:
            answer_cache_capacity_zero_disables_caching,
            point_cache_capacity_zero_disables_caching,
            compile_cache_capacity_zero_disables_caching;
        a_poisoned_lock_is_recovered:
            answer_cache_recovers_from_a_poisoned_lock,
            point_cache_recovers_from_a_poisoned_lock,
            compile_cache_recovers_from_a_poisoned_lock;
    }
}
