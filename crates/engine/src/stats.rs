//! The engine's counters, declared once.
//!
//! Each counter is one entry of the `engine_counters!` table below: its
//! name, its documentation and where its value lives — a `shared` atomic the
//! writer and the snapshots bump, a tally of one of the two revision caches
//! (`answers.hits`, `points.compactions`, …) or of the compile cache.  The
//! table generates the public [`EngineStats`] value, its
//! [`fields`](EngineStats::fields) list (what the serving layer's `stats`
//! reply and Prometheus exposition iterate, in table order), the crate's
//! `SharedStats` atomics and the fold that reads all of them, so adding a
//! counter is one entry here.

use std::sync::atomic::{AtomicU64, Ordering};

use graphdb::{Answer, NodeId};

use crate::cache::CompileCache;
use crate::fingerprint::Fingerprint;
use crate::revcache::RevCache;

/// Everything a counter can be read from, under the names the table uses.
struct CounterSources<'a> {
    compile: &'a CompileCache,
    answers: &'a RevCache<Fingerprint, Answer>,
    points: &'a RevCache<(Fingerprint, u32), Vec<NodeId>>,
    shared: &'a SharedStats,
}

macro_rules! engine_counters {
    ($($(#[$doc:meta])* $name:ident: $source:ident $(. $tally:ident)?;)*) => {
        /// Observable counters: cache effectiveness and which
        /// evaluation/maintenance paths ran.  The differential tests assert on
        /// these to prove the cached and incremental paths (not silent
        /// fallbacks) produced the answers.
        ///
        /// Counters are engine-wide: work done through any
        /// [`crate::EngineSnapshot`] of an engine (on any thread) is folded
        /// into the same totals.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl EngineStats {
            /// Every counter as `(field name, value)`, in declaration order —
            /// the single list the serving layer renders (the `stats` op's
            /// `engine` object and the Prometheus exposition both iterate
            /// it, so a counter added to the table is exported everywhere).
            pub fn fields(&self) -> [(&'static str, u64); COUNTERS] {
                [$((stringify!($name), self.$name)),*]
            }

            /// Folds the live counters into one value.
            pub(crate) fn read(
                compile: &CompileCache,
                answers: &RevCache<Fingerprint, Answer>,
                points: &RevCache<(Fingerprint, u32), Vec<NodeId>>,
                shared: &SharedStats,
            ) -> Self {
                let from = CounterSources { compile, answers, points, shared };
                EngineStats {
                    $($name: engine_counters!(@read from $name $source $($tally)?),)*
                }
            }
        }

        const COUNTERS: usize = [$(stringify!($name)),*].len();

        engine_counters!(@shared [] $($name $source,)*);
    };

    // ordering: Relaxed — `read` folds independent monotone counters into one
    // advisory snapshot; cross-counter consistency is not promised to
    // observers.
    (@read $from:ident $name:ident shared) => { $from.shared.$name.load(Ordering::Relaxed) };
    (@read $from:ident $name:ident compile $tally:ident) => { $from.compile.$tally() };
    (@read $from:ident $name:ident $cache:ident $tally:ident) => {
        $from.$cache.$tally.load(Ordering::Relaxed)
    };

    // The `shared` entries, picked out of the table one at a time.
    (@shared [$($kept:ident)*]) => {
        /// Engine-wide counters shared (as atomics) between the writer and
        /// every published snapshot, so `stats()` stays accurate no matter
        /// which side of the split did the work.
        #[derive(Debug, Default)]
        pub(crate) struct SharedStats {
            $(pub $kept: AtomicU64,)*
        }
    };
    (@shared [$($kept:ident)*] $name:ident shared, $($rest:tt)*) => {
        engine_counters!(@shared [$($kept)* $name] $($rest)*);
    };
    (@shared [$($kept:ident)*] $name:ident $elsewhere:ident, $($rest:tt)*) => {
        engine_counters!(@shared [$($kept)*] $($rest)*);
    };
}

engine_counters! {
    /// Compile-cache hits (query already frozen).
    compile_hits: compile.hits;
    /// Compile-cache misses (query frozen now).
    compile_misses: compile.misses;
    /// Ad-hoc answers served from the answer cache.
    answer_hits: answers.hits;
    /// Ad-hoc answers evaluated.
    answer_misses: answers.misses;
    /// View extensions materialized from scratch.
    view_full_materializations: shared;
    /// View extensions served from cache at the current revision.
    view_cache_hits: shared;
    /// View extensions repaired incrementally after an edge insertion.
    view_delta_repairs: shared;
    /// Evaluations that ran on the sharded thread pool.
    parallel_evals: shared;
    /// Evaluations that ran sequentially (small graph or 1 thread).
    sequential_evals: shared;
    /// Source-range chunks processed across all parallel-pool workers.
    parallel_chunks: shared;
    /// Of those, chunks a worker stole from a sibling's deque after its own
    /// ran dry — the work-stealing scheduler rebalancing skewed sweeps.
    parallel_steals: shared;
    /// Ad-hoc answers evicted by the capacity bound of the answer cache.
    answer_evictions: answers.evictions;
    /// Mutations whose delta repairs ran on the worker pool (one count per
    /// mutation, not per view).
    parallel_repairs: shared;
    /// Revision-stale answers removed by a lookup (stale entries never pin
    /// cache capacity).
    answer_stale_evictions: answers.stale_evictions;
    /// Identity pairs inserted into start-accepting cached extensions for
    /// nodes created by mutations (pre-existing nodes are never re-covered).
    identity_cover_pairs: shared;
    /// View extensions repaired by DRed over-deletion + re-derivation after
    /// an edge deletion (one count per view per deleting mutation).
    view_deletion_repairs: shared;
    /// Deleted edge occurrences skipped by the support-count fast path
    /// (a parallel copy of the edge survived, so no answer can change).
    deletion_support_skips: shared;
    /// Cached pairs removed by deletion over-deletion sweeps (some of them
    /// are typically restored by re-derivation).
    deletion_overdeleted_pairs: shared;
    /// Distinct sources re-swept (forward product-BFS on the post-deletion
    /// graph) to re-derive surviving pairs.
    deletion_rederived_sources: shared;
    /// Evaluations stopped by a query budget (deadline, visit cap, or
    /// cancellation) before completing.
    budget_interrupted_evals: shared;
    /// Cached view extensions dropped because a mutation's repair budget ran
    /// out mid-repair (the view re-materializes lazily on next use).
    repair_budget_drops: shared;
    /// Snapshots added to the keep-last-K retention window
    /// ([`crate::EngineConfig::snapshot_keep_last`]).
    snapshot_retained: shared;
    /// Snapshots aged out of the retention window (they stay alive only as
    /// long as some reader still holds their `Arc`).
    snapshot_dropped: shared;
    /// Cached answers evicted because their revision retired from the
    /// retention window — the writer compacts the shared answer cache each
    /// time the window's oldest revision advances.
    answer_compactions: answers.compactions;
    /// Interactive lookups served from the point-query cache at the exact
    /// revision.
    point_hits: points.hits;
    /// Interactive point-query cache probes that found no resident
    /// (exact-revision) target list.
    point_misses: points.misses;
    /// Point-query cache entries evicted because their revision retired
    /// from the retention window (the DRed-safety compaction that runs
    /// beside `answer_compactions`).
    point_compactions: points.compactions;
    /// Single-pair lookups answered by a fresh bidirectional
    /// meet-in-the-middle search (cache-served lookups are not counted).
    pair_evals: shared;
    /// Single-source lookups answered by a fresh seeded product-BFS
    /// (cache-served lookups are not counted).
    from_evals: shared;
    /// Interactive lookups served out of a full materialized extension
    /// resident in the ad-hoc answer cache.
    point_extension_hits: shared;
    /// Pairs insertion repairs spliced into cached extensions: what the
    /// delta sweeps found that the extension lacked, identity pairs of
    /// created nodes included — each repair's `len` after minus before.
    insertion_new_pairs: shared;
}

#[inline]
pub(crate) fn bump(counter: &AtomicU64) {
    // ordering: Relaxed — every counter routed through here is a monotone
    // statistic read by stats()/metrics observers; no data is published
    // through it.
    counter.fetch_add(1, Ordering::Relaxed);
}
