//! The engine's counters, declared once.
//!
//! Each counter is one entry of the [`counters!`](crate::counters) table
//! below: its name, its documentation and where its value lives — a `shared`
//! atomic the writer and the snapshots bump, or a tally of one of the three
//! revision caches (`compile.hits`, `answers.hits`, `points.compactions`,
//! …).  The table generates the public [`EngineStats`] value, its
//! [`fields`](EngineStats::fields) list (what the serving layer's
//! `stats` reply and Prometheus exposition iterate, in table order), the
//! crate's `SharedStats` atomics and the fold that reads all of them, so
//! adding a counter is one entry here.  The serving layer declares its own
//! counters with the same macro.

use std::sync::atomic::{AtomicU64, Ordering};

use graphdb::{Answer, NodeId};

use crate::cache::Compiled;
use crate::fingerprint::Fingerprint;
use crate::revcache::RevCache;

/// Declares a table of `u64` counters once and generates everything that
/// reads them from it.
///
/// ```text
/// counters! {
///     /// docs of the public value
///     pub struct Stats;
///     /// docs of the live atomics
///     pub(crate) struct SharedStats;
///     fn read(cache: &Cache);
///     /// docs of each counter
///     hits: cache.hits;    // a tally (an `AtomicU64` field) of an argument of `read`
///     evals: shared;       // an atomic of `SharedStats`
/// }
/// ```
///
/// generates `Stats` (`Copy`, `Default`, one `pub u64` field per entry),
/// `Stats::fields()` (every counter as `(name, value)`, in table order),
/// `SharedStats` (one `AtomicU64` per `shared` entry, `Default`) and
/// `SharedStats::read`, which folds every source into one `Stats`.
#[macro_export]
macro_rules! counters {
    // ordering: Relaxed — `read` folds independent monotone counters into one
    // advisory snapshot; cross-counter consistency is not promised to
    // observers.
    (@read $atomics:ident $name:ident shared) => {
        $atomics.$name.load(::std::sync::atomic::Ordering::Relaxed)
    };
    (@read $atomics:ident $name:ident $source:ident $tally:ident) => {
        $source.$tally.load(::std::sync::atomic::Ordering::Relaxed)
    };

    // The `shared` entries, picked out of the table one at a time.
    (@atomics [$($head:tt)*] [$($kept:ident)*]) => {
        $($head)* {
            $(pub $kept: ::std::sync::atomic::AtomicU64,)*
        }
    };
    (@atomics $head:tt [$($kept:ident)*] $name:ident shared $($rest:tt)*) => {
        $crate::counters!(@atomics $head [$($kept)* $name] $($rest)*);
    };
    (@atomics $head:tt $kept:tt $name:ident $elsewhere:ident $($rest:tt)*) => {
        $crate::counters!(@atomics $head $kept $($rest)*);
    };

    (
        $(#[$stats_meta:meta])*
        pub struct $stats:ident;
        $(#[$atomics_meta:meta])*
        $vis:vis struct $atomics:ident;
        fn read($($arg:ident: $arg_ty:ty),*);
        $($(#[$doc:meta])* $name:ident: $source:ident $(. $tally:ident)?;)*
    ) => {
        $(#[$stats_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $stats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl $stats {
            /// Every counter as `(field name, value)`, in table order — the
            /// single list the serving layer renders (the `stats` reply and
            /// the Prometheus exposition both iterate it, so a counter added
            /// to the table is exported everywhere).
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($name)),*].len()] {
                [$((stringify!($name), self.$name)),*]
            }
        }

        impl $atomics {
            /// Folds the live counters into one value.
            $vis fn read(&self, $($arg: $arg_ty),*) -> $stats {
                $stats { $($name: $crate::counters!(@read self $name $source $($tally)?),)* }
            }
        }

        $crate::counters!(
            @atomics [$(#[$atomics_meta])* #[derive(Debug, Default)] $vis struct $atomics] []
            $($name $source)*
        );
    };
}

counters! {
    /// Observable counters: cache effectiveness and which
    /// evaluation/maintenance paths ran.  The differential tests assert on
    /// these to prove the cached and incremental paths (not silent
    /// fallbacks) produced the answers.
    ///
    /// Counters are engine-wide: work done through any
    /// [`crate::EngineSnapshot`] of an engine (on any thread) is folded
    /// into the same totals.
    pub struct EngineStats;
    /// Engine-wide counters shared (as atomics) between the writer and
    /// every published snapshot, so `stats()` stays accurate no matter
    /// which side of the split did the work.
    pub(crate) struct SharedStats;
    fn read(
        compile: &RevCache<Fingerprint, Compiled>,
        answers: &RevCache<Fingerprint, Answer>,
        points: &RevCache<(Fingerprint, u32), Vec<NodeId>>
    );
    /// Compile-cache hits (query already frozen).
    compile_hits: compile.hits;
    /// Compile-cache misses (query compiled now).
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
    /// Revision-stale answers removed by a lookup (a stale entry never
    /// displaces a live one).
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
    /// Evaluations stopped by a query budget (deadline or visit cap) before
    /// completing.
    budget_interrupted_evals: shared;
    /// Cached view extensions dropped because a mutation's repair budget ran
    /// out mid-repair (the view re-materializes lazily on next use).
    repair_budget_drops: shared;
    /// Cached answers evicted because their revision retired: a publish at
    /// a newer revision compacts the shared answer cache below the revision
    /// of the snapshot it replaces.
    answer_compactions: answers.compactions;
    /// Interactive lookups served from the point-query cache at the exact
    /// revision.
    point_hits: points.hits;
    /// Interactive point-query cache probes that found no resident
    /// (exact-revision) target list.
    point_misses: points.misses;
    /// Point-query cache entries evicted because their revision retired
    /// (the same compaction as `answer_compactions`, on the point-query
    /// cache).
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
    /// Compiled automata evicted by the compile cache's capacity bound (the
    /// least recently used goes; it is compiled again on its next use).
    compile_evictions: compile.evictions;
    /// Point-sweep scratches allocated because the engine's pool had no idle
    /// one of the kind: a single-source read or a pair read that missed
    /// every cache, or a delta sweep of a view repair.  Every other such
    /// sweep re-aims a pooled scratch.
    point_scratch_allocations: shared;
    /// View repairs that allocated the vector of their new extension: the
    /// view had no superseded extension free of readers with room for the
    /// old one, or the rows written outgrew it.  An interrupted repair is
    /// not counted; what it was writing into becomes the view's spare.
    extension_buffer_allocations: shared;
}

#[inline]
pub(crate) fn bump(counter: &AtomicU64) {
    // ordering: Relaxed — every counter routed through here is a monotone
    // statistic read by stats()/metrics observers; no data is published
    // through it.
    counter.fetch_add(1, Ordering::Relaxed);
}
