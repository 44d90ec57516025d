//! # engine — a parallel, caching, incrementally-maintained RPQ query engine
//!
//! The rest of the workspace answers regular path queries with one-shot
//! library calls: `rpq::materialize_views` re-evaluates every view from
//! scratch per database, and `graphdb::eval_csr` sweeps every source on a
//! single thread.  This crate packages
//! the paper's central workload — RPQs over a database and over materialized
//! view extensions (§4 of Calvanese–De Giacomo–Lenzerini–Vardi, PODS'99) —
//! as a stateful [`QueryEngine`] with three cooperating mechanisms:
//!
//! ## Parallel evaluation
//!
//! RPQ evaluation ([`graphdb::eval_csr`]) answers from every source node
//! over a shared read-only [`automata::DenseNfa`] and CSR adjacency, 64
//! sources per pass over the product graph's condensation
//! ([`graphdb::eval_csr_sources`]), and a source's answers do not depend on
//! which others it is swept with.
//! [`eval_csr_parallel_breakdown`] shards the source range across a hand-rolled
//! scoped-thread work pool (`std::thread::scope` plus work-stealing chunk
//! deques — the build environment has no external crates): each worker owns
//! a [`graphdb::LaneScratch`] — which keeps what it has explored of the
//! product graph from chunk to chunk — claims chunks of sources until the
//! range is drained, and hands back one run per chunk, sorted as the kernel
//! emits it, for the merge into the answer set; a graph of fewer than 256
//! nodes is swept on the caller's thread instead.  Workers only *read* shared
//! state, so the sharded evaluation is answer-identical to the sequential
//! one by construction (and pinned to it by differential tests).
//!
//! ## The caches and the revision counter
//!
//! The engine owns its [`graphdb::GraphDb`] together with the frozen CSR
//! adjacencies (outgoing for forward sweeps, incoming for the backward
//! sweeps of delta maintenance; a mutation refreezes both) and a monotone
//! **revision** counter that bumps on every mutation.  Three
//! caches hang off this state:
//!
//! * a **compile cache** ([`CompileCache`]): frozen [`automata::DenseNfa`]s
//!   keyed by a 128-bit fingerprint of the regex (rendering + alphabet) or
//!   rewriting DFA (structure + alphabet).  Compiling — a regex to its
//!   position automaton with bisimilar states merged
//!   ([`regexlang::compile`]), a DFA to its re-labeled CSR form, both
//!   [trim](automata::DenseNfa::trim) so product sweeps stay out of states
//!   no accepting run visits — happens once per distinct
//!   query/view/rewriting automaton, no matter how many times or over how
//!   many revisions it is evaluated, as long as it stays among the 1 024
//!   most recently used (the bound keeps ever-new query texts from growing
//!   the cache without limit).
//! * a **view-extension cache**: each registered view stores at most one
//!   materialized extension, the one valid at the engine's current
//!   revision — a mutation keeps it, swaps in its repair, or drops it, so
//!   it carries no revision of its own.  Extensions are materialized
//!   lazily, repaired incrementally on mutation (below), and only
//!   re-materialized from scratch when no valid cached state exists.
//! * an **answer cache** and a **point-query cache**: ad-hoc query answers
//!   keyed by fingerprint, and complete single-source target lists keyed by
//!   `(fingerprint, source)`.  Values are only ever served on an *exact*
//!   revision match, so both growth (insertions) and shrinkage (deletions)
//!   of the true answer are safe: entries from retired revisions are evicted
//!   lazily, never returned.
//!
//! All three are instances of one bounded, revision-tagged LRU cache (the
//! crate-private `RevCache<K, V>`); the compile cache stores every entry at
//! one fixed revision, since a compiled automaton does not depend on the
//! database.  So does a fourth instance inside it, the text memo: a query
//! text's raw bytes → its parse's fingerprint, so a text read again is
//! neither parsed nor rendered (1 024 texts resident, a failed parse never).
//!
//! ## Incremental maintenance: one repair per view and batch
//!
//! A mutation repairs every cached view extension instead of
//! re-materializing it (the crate-private `delta` module has the argument
//! in full).  Every pair an edge `u --a--> v` can add or remove has a
//! witness crossing it at some automaton transition `q --a--> q'`, so for
//! each such transition
//!
//! * a *backward* sweep from `(u, q)` over the incoming CSR and the query's
//!   reversal ([`automata::DenseNfa::reverse_closed`]) finds the sources `x`
//!   with `(x, start) →* (u, q)`, and
//! * a *forward* sweep from `(v, q')` over the outgoing CSR and the query
//!   finds the targets `y` from which acceptance is reachable.
//!
//! Both are [`graphdb::eval_csr_from_budgeted`], the single-source kernel a
//! read runs, seeded at that one product state.  The pairs in question lie
//! in the *rectangle* of those two lists.  The
//! sweeps of a whole batch are memoized by where they start and the
//! rectangles are kept factored — never multiplied out, since on a closure
//! view one rectangle is most of the extension.  The affected sources are
//! grouped by the set of rectangles covering them, each group's target lists
//! are united once, and the repair then works row by row on the sorted
//! extension and writes it exactly once.
//!
//! **Insertion** ([`Mutation::AddEdges`] / [`Mutation::AddEdgesNamed`]) is
//! *monotone*: the rectangles, swept over the updated graph, contain every
//! new pair.  Each affected source's targets are merged into its row as the
//! extension is written, and only the pairs it lacks are added
//! ([`EngineStats::insertion_new_pairs`] counts them).
//!
//! **Deletion** ([`Mutation::RemoveEdges`] /
//! [`Mutation::RemoveEdgesNamed`]) is **non-monotone**: a cached pair survives
//! iff *some* witness path avoids every deleted edge.  Two mechanisms,
//! cheapest first:
//!
//! * **Support counts.**  The database is a multigraph; deleting one copy
//!   of an edge whose triple retains a surviving parallel copy
//!   ([`graphdb::GraphDb::edge_multiplicity`] > 0) cannot change any
//!   answer, so the repair is skipped outright (the
//!   [`EngineStats::deletion_support_skips`] counter pins the fast path).
//! * **DRed over-deletion + re-derivation** ([`deletion_repair`]) for
//!   edges whose support dropped to zero: the rectangles, swept over the
//!   **pre-deletion** adjacencies, cover exactly the cached pairs with some
//!   derivation traversing a deleted edge — the over-deleted pairs, which
//!   are only counted — so the rows of their sources are re-derived over the
//!   **post-deletion** graph ([`graphdb::eval_csr_sources`], a chunk of
//!   [`graphdb::LANES`] sources at a time) and replace the old rows
//!   wholesale.
//!
//! Either way the repair is one pass of a [`graphdb::RowWriter`]: the
//! untouched rows are copied in bulk and each affected source's row is
//! rewritten from its old one, into the storage of an extension the view
//! superseded that nothing holds any more (allocated only when there is
//! none, or too small a one, or when the rows outgrow it —
//! `extension_buffer_allocations`).  An insertion probes the covered rows
//! first and opens the writer at the first one that lacks a target, so one
//! that gains nothing writes nothing.
//!
//! [`QueryEngine::try_apply`] describes a mutation once, as a `Change` — an
//! insertion's updated freezes, edges and created nodes, or a deletion's
//! pre-deletion freezes, post-deletion outgoing freeze and the triples that
//! kept no copy — and walks the views itself, one after another on the
//! writer's thread, in registration order, sharing one budget.  A cached
//! extension the change does not touch holds at the new revision as it is;
//! each one it touches is handed, with the storage its view can reclaim and
//! two pooled scratches, to the one `delta::repair`; the result is swapped
//! in.  The route to parallel repair is jobs per block of sources on the
//! crate-private `parallel` pool (ROADMAP item 9).  Cost is
//! `O(|batch|·|Q|·(V+E)·|Q|)` for the sweeps (plus
//! `O(|affected|·(V+E)·|Q|)` of re-derivation on deletion) and one copy of
//! the extension, versus `O(V·(V+E)·|Q|)` for a from-scratch
//! re-materialization; `benchmark/`'s `serve_churn` op1/op2 measure it.
//! Its `engine.delta_pairs_ms` and `engine.deletion_repair_ms` parts time
//! the free functions [`delta_pairs`] (one edge, its rectangles multiplied
//! out) and [`deletion_repair`] (the whole DRed pass), which run the same
//! sweeps on fresh scratches into fresh buffers: they overstate what the
//! engine's repair of the same view costs, which recycles both.  Both
//! paths are pinned by differential suites against from-scratch evaluation
//! (`crates/engine/tests/{deletion, batch_repair}.rs`), the second with a
//! budget trip injected at every point a repair checks one.
//!
//! ## The writer/snapshot split (MVCC)
//!
//! The paper's workload is read-heavy — one expensive offline rewriting
//! construction, then many cheap evaluations over materialized views — so
//! the engine is split into a single **writer** ([`QueryEngine`]) and
//! immutable, revision-pinned **read handles** ([`EngineSnapshot`]):
//!
//! * [`QueryEngine::publish_snapshot`] materializes every registered view
//!   and returns an `Arc<EngineSnapshot>` pinned to the current revision.
//!   The snapshot exposes the full read API with `&self`
//!   ([`EngineSnapshot::try_eval`] /
//!   [`materialized_views`](EngineSnapshot::materialized_views) /
//!   [`view_extension`](EngineSnapshot::view_extension)) and is cheap to
//!   clone and hand to reader threads.
//! * The writer mutates **copy-on-write**: every piece of state a snapshot
//!   can see (frozen CSR adjacencies, compiled automata, view extensions)
//!   sits behind an `Arc`, and nothing behind one is ever written to — a
//!   mutation refreezes the adjacencies, and a repair (insertion and
//!   deletion alike) reads the shared extension, builds the repaired one
//!   beside it and swaps the new `Arc` in.  A published snapshot keeps
//!   serving exactly the answers of its revision while the writer streams
//!   mutations and publishes fresh snapshots.
//! * The configuration, the three caches, the counters and the telemetry
//!   are one handle the writer builds once and every snapshot shares.  The
//!   caches are concurrent (each one `RwLock` over entries with atomic LRU
//!   clocks and atomic hit/miss counters, so lookups only ever take read
//!   locks): readers on different threads get cache hits without blocking
//!   each other, and answers cached at retired revisions are evicted lazily
//!   on lookup, preferentially under capacity pressure, and by a publish
//!   once the snapshot that replaced theirs is itself replaced — never
//!   served.
//!
//! `Send + Sync` types: [`EngineSnapshot`], [`CompileCache`], and every
//! frozen input they share (`CsrAdjacency`, `DenseNfa` — a query and its
//! reversal alike — `Answer`, `MaterializedViews`).  The writer itself is `Send` (it owns
//! its database) but intentionally not shared: all mutation goes through
//! `&mut self`, so "one writer, many readers" is enforced by the borrow
//! checker rather than a lock.  The writer evaluates no query: a
//! single-threaded caller reads on the snapshot
//! [`QueryEngine::publish_snapshot`] returns (the same `Arc` until the next
//! mutation or view-set change), so there is one read side.
//!
//! ## One read request, one execution path
//!
//! Every read is a [`ReadRequest`]: a query ([`Query::Text`],
//! [`Query::Regex`] or [`Query::OverViews`]), a [`Shape`] (the full answer,
//! one source's targets, or one pair), a [`QueryBudget`] and an optional
//! [`TraceContext`].  [`EngineSnapshot::try_eval`] answers it with a
//! [`ReadOutcome`] through one crate-private body (`read`) — parse →
//! fingerprint → probe the revision caches → compile → product sweep →
//! admit → record — so each span, histogram sample and counter of the read
//! path has one producer.  `eval_str` / `eval_regex` / `eval_from_str` /
//! `eval_pair_str` are one-line panicking wrappers over it.
//!
//! ## One write request, one mutation body
//!
//! Every write is a [`WriteRequest`] — a [`Mutation`] (edges in or out, by
//! id or by name; a fresh node; a view definition), a [`QueryBudget`] over
//! the repair it triggers, an optional [`TraceContext`] — answered by
//! [`QueryEngine::try_apply`] with a [`WriteOutcome`] (the revision, the
//! nodes created, and the product states the repairs charged the budget:
//! the work count beside the write's wall time).  That one body is the
//! only code that changes the database or the revision; `add_edge`,
//! `remove_edge`, `add_node`, `register_view` and the `_named` forms are
//! one-line wrappers over it.
//!
//! ## Answering from views
//!
//! [`Query::OverViews`] is the paper's application (Theorem 4.2,
//! Definition 4.3): a rewriting — a deterministic automaton over the view
//! symbols Σ_E — answered from the materialized view extensions alone.  It
//! is the same read over a different graph: the snapshot lends the read body
//! the *view graph* (one edge `x --q_i--> y` per tuple of view `q_i`, frozen
//! straight from the extensions' sorted runs on the snapshot's first Σ_E
//! read; see [`graphdb::MaterializedViews`]) in place of the database's
//! adjacency.  All three shapes, the pool (which sweeps a graph of fewer
//! than 256 nodes on the caller's thread), budgets, counters, histograms,
//! spans and the revision caches therefore apply unchanged; the cache key
//! is the automaton's structural fingerprint salted with the view-set epoch,
//! because re-registering a view changes what a view symbol means without
//! changing the revision.  A maximal rewriting is a *complement*
//! (Theorem 2.2) and so always carries a sink that no accepting run visits;
//! the compile cache trims it, which is what makes the sweep proportional
//! to the answer rather than to `|V| · |view tuples|`.
//!
//! ## Error handling & query budgets (the serving layer)
//!
//! Every engine path reachable from untrusted input is fallible and returns
//! [`EngineError`] — `try_eval` for reads, [`QueryEngine::try_apply`] for
//! every mutation and view registration, with whole-batch
//! validate-before-mutate semantics, and [`EngineConfig::validate`] for
//! strict configuration validation.
//! The panicking conveniences delegate to them and re-panic with the
//! error's `Display` (the `rpq-lint` `try-parity` rule checks that they do),
//! so their messages are unchanged.
//!
//! Long-running evaluations run under the request's [`QueryBudget`]
//! (wall-clock deadline and visited-pair cap — an alias of
//! [`graphdb::SweepBudget`], handed down unconverted), checked
//! cooperatively every [`graphdb::SWEEP_CHECK_INTERVAL`] pops of the
//! product-BFS hot loop.  Whether that loop carries the checks at all is
//! decided in one layer: each `_budgeted` kernel of `graphdb` takes the
//! check-free instantiation when its budget sets no limit (the crate-private
//! `budget` module records the measured 2–3 % that keeps both).  A mutation's
//! budget ([`WriteRequest::budget`]) is over its *repair* phase (the
//! deadline is polled per edge, and every delta sweep charges its visits):
//! once validated, the mutation always applies — a tripped budget degrades by
//! dropping the affected views' cached extensions (counted by
//! [`EngineStats::repair_budget_drops`]; a repair never writes to the
//! extension it reads, so what is dropped is stale, never half-repaired)
//! rather than failing the call.  The engine holds only the snapshot it
//! last published; an older one lives as long as a reader holds its `Arc`.
//! The `service` crate builds a line-delimited JSON TCP server on exactly
//! these hooks.
//!
//! ## The surface `benchmark/` is built against
//!
//! The repo benchmark (`benchmark/`, a standalone package) compiles against
//! this crate and must keep building unchanged, so these names and
//! signatures are a contract: `EngineSnapshot::{eval_str, eval_regex,
//! eval_pair_str, eval_from_str, stats, csr_out, num_nodes, view_names,
//! view_extension, materialized_views}`, `QueryEngine::{with_config,
//! publish_snapshot, register_view, add_edge, remove_edge, add_node,
//! try_add_edges_named, try_remove_edges_named, view_extension,
//! materialized_views, stats, db, retained_snapshots}`, [`CompileCache`]
//! (`compile_regex`, `compile_dfa`), [`EngineConfig`] (`serving`,
//! `Default`, `threads`, `answer_cache_capacity`), [`EngineStats`]
//! (`Default`, `Copy` and the fields `compile_hits`, `compile_misses`,
//! `answer_hits`, `answer_misses`, `answer_stale_evictions`,
//! `view_full_materializations`, `view_delta_repairs`,
//! `view_deletion_repairs`, `deletion_support_skips`,
//! `deletion_overdeleted_pairs`, `deletion_rederived_sources`,
//! `budget_interrupted_evals`, `repair_budget_drops`, `parallel_steals`,
//! `pair_evals` and `from_evals`), [`delta_pairs`], [`deletion_repair`] and
//! [`eval_csr_parallel_breakdown`].
//!
//! ## Telemetry
//!
//! Beside the counters ([`EngineStats`]) the engine collects *timing*:
//! [`EngineTelemetry`] (shared writer ↔ snapshots like the counters) holds
//! lock-free latency histograms for evaluation / compilation / product-BFS /
//! repair / snapshot-publish, and a [`ReadRequest`] built with
//! [`ReadRequest::traced`] threads a per-query [`TraceContext`] through the
//! pipeline, recording phase spans (parse —
//! or, for a read over the views, the view-graph freeze — cache-lookup,
//! compile, product-BFS, chunk-merge) with per-worker
//! chunk-acquire/sweep attribution from
//! [`eval_csr_parallel_breakdown`].  Writes are traced the same way: the
//! [`TraceContext`] of a [`WriteRequest::traced`] request, handed on to
//! [`QueryEngine::publish_snapshot_traced`], receives top-level `validate`,
//! `csr_freeze`, `repair` and `snapshot_publish` spans and, per view, the
//! backward-sweep / forward-sweep / re-derivation / splice time inside
//! `repair` (a view registration validates and nothing else); a publish at
//! a newer revision records its cache compaction inside `snapshot_publish`.
//! Histograms are
//! always collected; recording happens only at phase and chunk boundaries,
//! never inside the pop loop (`tests/tracing.rs` asserts that
//! the samples and spans one evaluation records do not grow with the graph,
//! and that a traced write's top-level spans account for its wall time).
//!
//! ## The interactive read path
//!
//! Full materialization answers "all pairs"; interactive callers usually
//! ask two narrower questions.  [`Shape::Pair`] answers
//! "is `t` reachable from `s`?" with a bidirectional meet-in-the-middle
//! search (forward over the outgoing CSR from `(s, q₀)`, backward over the
//! incoming CSR from the accepting states, always expanding the smaller
//! frontier) that exits on the first frontier intersection.
//! [`Shape::From`] answers "what is reachable from `s`?"
//! — optionally top-k via `limit` — with a product-BFS seeded only at `s`.
//! Both are served without any search when a materialized answer is
//! resident: the full extension in the ad-hoc answer cache, or a complete
//! single-source drain in the **point-query cache** (keyed
//! `(query, source)`, same exact-revision regime as the answer cache, so
//! DRed deletions can never leak a stale target list).  Partial results —
//! limit-truncated or budget-interrupted — are never cached.
//!
//! # Examples
//!
//! The full lifecycle — build a database, register a view, publish a
//! snapshot, mutate (insert *and* delete), and read back at the pinned
//! revision:
//!
//! ```
//! use automata::Alphabet;
//! use engine::QueryEngine;
//! use graphdb::GraphDb;
//!
//! let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
//! db.add_edge_named("n0", "a", "n1");
//! db.add_edge_named("n1", "b", "n2");
//! let mut engine = QueryEngine::new(db);
//!
//! engine.register_view("e1", regexlang::parse("a·b?").unwrap());
//!
//! // Publishing materializes the view and pins the current revision for
//! // any number of readers; every read happens on a snapshot.
//! let snapshot = engine.publish_snapshot();
//! assert_eq!(snapshot.revision(), 0);
//! let before = snapshot.view_extension("e1").unwrap().len();
//!
//! // Insert an edge: the cached extension is repaired (delta product-BFS),
//! // not recomputed.
//! let n2 = engine.db().node_by_name("n2").unwrap();
//! let n0 = engine.db().node_by_name("n0").unwrap();
//! let a = engine.db().domain().symbol("a").unwrap();
//! engine.add_edge(n2, a, n0);
//! let grown = engine.publish_snapshot().view_extension("e1").unwrap().len();
//! assert!(grown > before);
//! assert_eq!(engine.stats().view_delta_repairs, 1);
//!
//! // Delete an edge: the cached extension is repaired DRed-style
//! // (over-delete + re-derive), again without re-materializing.
//! engine.remove_edge(n2, a, n0);
//! assert_eq!(engine.publish_snapshot().view_extension("e1").unwrap().len(), before);
//! assert_eq!(engine.stats().view_deletion_repairs, 1);
//! assert_eq!(engine.stats().view_full_materializations, 1);
//!
//! // The pinned snapshot still answers exactly at revision 0 — both
//! // mutations happened copy-on-write behind it.
//! assert_eq!(snapshot.view_extension("e1").unwrap().len(), before);
//! assert_eq!(engine.revision(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod budget;
mod cache;
mod delta;
mod error;
mod fingerprint;
mod metrics;
mod parallel;
mod query_engine;
mod read;
mod revcache;
mod scratch;
mod snapshot;
mod stats;
mod write;

pub use budget::QueryBudget;
pub use cache::CompileCache;
pub use delta::{delta_pairs, deletion_repair, RepairReport};
pub use error::EngineError;
pub use metrics::EngineTelemetry;
pub use parallel::{eval_csr_parallel_breakdown, eval_csr_parallel_budgeted_breakdown};
pub use query_engine::{EngineConfig, QueryEngine};
pub use read::{Query, ReadOutcome, ReadRequest, Shape};
pub use snapshot::EngineSnapshot;
pub use stats::EngineStats;
pub use write::{Mutation, WriteOutcome, WriteRequest};
// Re-exported so interactive-read-path callers (`ReadOutcome::Reachable`
// carries a `Reachable`) don't need a direct `graphdb` dependency.
pub use graphdb::Reachable;
// Re-exported so engine users can consume traces and breakdowns without a
// direct `telemetry` dependency.
pub use telemetry::{Histogram, ParallelBreakdown, Phase, Span, TraceContext, WorkerTiming};
