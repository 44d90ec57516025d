//! The stateful query engine tying parallel evaluation, compile caching,
//! and incremental view maintenance together (see the crate docs for the
//! revision/caching model).
//!
//! Since the writer/snapshot split, `QueryEngine` is the **single writer**
//! of an MVCC pair: it owns the database and the view-extension cache,
//! mutates copy-on-write (shared `Arc`s are never modified in place), and
//! publishes immutable [`EngineSnapshot`] read handles pinned to a
//! revision.  It evaluates nothing itself: every query is read on a
//! snapshot, and publishing one is what materializes the registered views.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use automata::DenseNfa;
use graphdb::{
    Answer, CsrAdjacency, EvalScratch, GraphDb, MaterializedViews, NodeId, PairScratch, SweepState,
};
use regexlang::Regex;
use telemetry::{Phase, Span, TraceContext};

use crate::budget::QueryBudget;
use crate::cache::{CompileCache, Compiled};
use crate::delta::{repair, Change, Edge, RepairReport, RepairTimings};
use crate::error::EngineError;
use crate::fingerprint::{fingerprint_regex, Fingerprint};
use crate::metrics::EngineTelemetry;
use crate::parallel::{as_us, available_threads};
use crate::read::{span, sweep};
use crate::revcache::RevCache;
use crate::scratch::ScratchPool;
use crate::snapshot::EngineSnapshot;
use crate::stats::{bump, EngineStats, SharedStats};
use crate::write::{Mutation, WriteOutcome, WriteRequest};

/// Tuning knobs of a [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for parallel evaluation; `0` means "as many as the
    /// hardware supports".  A graph of fewer than 256 nodes is swept on the
    /// reading thread whatever this says.
    pub threads: usize,
    /// Maximum number of entries in each of the two revision caches: the
    /// ad-hoc answer cache (full answers) and the point-query cache
    /// (single-source target lists); beyond it the least-recently-used entry
    /// (stale entries first) is evicted.  `0` disables both (every read
    /// re-evaluates).
    pub answer_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            answer_cache_capacity: 256,
        }
    }
}

impl EngineConfig {
    /// Strict validation for configurations built from untrusted input
    /// (e.g. a service config file).  The permissive constructors accept
    /// the degenerate values — `threads: 0` means auto-detect and
    /// `answer_cache_capacity: 0` disables caching, both documented and
    /// useful in tests — but a serving deployment asking for them almost
    /// certainly made a units mistake, so a server checks this before it
    /// hands the config to [`QueryEngine::with_config`].
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.threads == 0 {
            return Err(EngineError::InvalidConfig {
                message: "threads must be at least 1 (use EngineConfig::serving() for \
                          auto-detection)"
                    .to_string(),
            });
        }
        if self.answer_cache_capacity == 0 {
            return Err(EngineError::InvalidConfig {
                message: "answer_cache_capacity must be at least 1".to_string(),
            });
        }
        Ok(())
    }

    /// The worker count [`threads`](Self::threads) stands for: `0` is
    /// [`available_threads`].  Reads size their worker pool by it, and the
    /// point-sweep scratch pools keep at most that many idle scratches.
    pub(crate) fn worker_threads(&self) -> usize {
        match self.threads {
            0 => available_threads(),
            n => n,
        }
    }

    /// The preset a serving deployment starts from: all hardware threads
    /// and the default answer-cache capacity.  Always passes
    /// [`validate`](Self::validate).
    pub fn serving() -> Self {
        EngineConfig { threads: available_threads(), ..EngineConfig::default() }
    }
}

/// What the writer shares with every snapshot it publishes, behind one
/// `Arc`: the configuration, the three caches, the point sweeps' scratch
/// pools, the counters and the timing telemetry.  Everything in it is `Sync`
/// and written through `&self`.
#[derive(Debug)]
pub(crate) struct Shared {
    pub config: EngineConfig,
    pub compile: CompileCache,
    /// Query fingerprint → full answer (see [`crate::revcache`] for the
    /// revision and eviction protocol).
    pub answers: RevCache<Fingerprint, Answer>,
    /// `(query fingerprint, source)` → that source's *complete*, sorted
    /// target list, same revision regime as `answers`.  A `limit`-truncated
    /// or budget-interrupted sweep is never admitted: a later lookup with a
    /// larger `limit` (or a pair probe for an absent target) would read
    /// absence into the truncation.
    pub points: RevCache<(Fingerprint, u32), Vec<NodeId>>,
    /// Idle single-source scratches: what a `From` read and the two delta
    /// sweeps of a view repair run on.  At most `worker_threads` of them.
    pub eval_scratches: ScratchPool<EvalScratch>,
    /// Idle pair scratches, for `Pair` reads; at most `worker_threads`.
    pub pair_scratches: ScratchPool<PairScratch>,
    pub stats: SharedStats,
    pub telemetry: EngineTelemetry,
}

impl Shared {
    /// The counters, folded from the atomics and the three caches' tallies.
    pub fn stats(&self) -> EngineStats {
        self.stats.read(&self.compile.entries, &self.answers, &self.points)
    }
}

/// One registered view: its grounded definition, compile-cache entry
/// (automaton and lazily built reversal), and cached extension.
/// The extension sits behind an `Arc` shared with published snapshots; a
/// repair reads it and swaps a new `Arc` in, so a snapshot holding the old
/// one keeps exactly what it pinned.
#[derive(Debug)]
struct ViewEntry {
    name: String,
    fingerprint: Fingerprint,
    compiled: Arc<Compiled>,
    /// The extension at the engine's current revision: every revision bump
    /// keeps it (the change did not touch it), swaps in its repair, or drops
    /// it.
    extension: Option<Arc<Answer>>,
    /// The extensions this view's repairs replaced that readers may still
    /// hold.  The next repair writes into the storage of one no reader holds
    /// any more ([`ViewEntry::reclaim`]), so an extension is page-faulted in
    /// once and then recycled, not allocated afresh per mutation.
    superseded: Vec<Arc<Answer>>,
}

impl ViewEntry {
    /// Takes the first superseded extension no reader holds any more —
    /// the next repair's storage — and frees the other unheld ones; those
    /// a snapshot or a reader still shares stay.  `Arc::try_unwrap` decides
    /// holding atomically: an extension only the engine holds cannot be
    /// cloned behind its back.
    fn reclaim(&mut self) -> Option<Answer> {
        let mut spare = None;
        for old in std::mem::take(&mut self.superseded) {
            match Arc::try_unwrap(old) {
                Ok(unheld) if spare.is_none() => spare = Some(unheld),
                Ok(_) => {} // freed here, not by a publish or a reader
                Err(shared) => self.superseded.push(shared),
            }
        }
        spare
    }
}

/// A stateful RPQ query engine over one owned database — the writer half of
/// the writer/snapshot split.
///
/// Construct with [`QueryEngine::new`], register views with
/// [`register_view`](Self::register_view), mutate with
/// [`try_apply`](Self::try_apply) — every write is one [`WriteRequest`], and
/// [`add_edge`](Self::add_edge) / [`remove_edge`](Self::remove_edge) and the
/// other mutating methods are one-line wrappers over it — and read through
/// the immutable [`EngineSnapshot`] that
/// [`publish_snapshot`](Self::publish_snapshot) returns (clones of it can be
/// handed to other threads; see the crate docs for the protocol).  Cached
/// view extensions survive both kinds of mutation via incremental repair
/// (delta extension on insert, DRed over-deletion + re-derivation on
/// delete).
#[derive(Debug)]
pub struct QueryEngine {
    db: GraphDb,
    revision: u64,
    /// Monotone counter of view-set changes; part of the snapshot identity.
    views_epoch: u64,
    /// The outgoing and incoming adjacencies of the current database, both
    /// refrozen by every mutation: one freeze per revision serves its
    /// repairs' delta sweeps, the snapshot published at it and the
    /// over-deletion sweeps of the next deletion.
    csr_out: Arc<CsrAdjacency>,
    csr_in: Arc<CsrAdjacency>,
    /// Registered views in registration order (the order defines the view
    /// alphabet of every snapshot's `MaterializedViews`).
    views: Vec<ViewEntry>,
    /// The snapshot published for the current `(revision, views_epoch)`,
    /// if any — invalidated by every mutation and view-set change.  It is
    /// the only snapshot the engine holds: an older one lives exactly as
    /// long as some reader holds its `Arc`.
    published: Option<Arc<EngineSnapshot>>,
    /// The revision of the snapshot last published: the horizon below which
    /// the next publish at a newer revision compacts the revision caches.
    published_revision: u64,
    /// Configuration, caches, counters and telemetry, shared with every
    /// published snapshot.
    shared: Arc<Shared>,
}

impl QueryEngine {
    /// Wraps a database with default configuration.
    pub fn new(db: GraphDb) -> Self {
        Self::with_config(db, EngineConfig::default())
    }

    /// Wraps a database with explicit configuration.
    pub fn with_config(db: GraphDb, config: EngineConfig) -> Self {
        let shared = Shared {
            compile: CompileCache::new(),
            answers: RevCache::new(config.answer_cache_capacity),
            points: RevCache::new(config.answer_cache_capacity),
            eval_scratches: ScratchPool::new(config.worker_threads()),
            pair_scratches: ScratchPool::new(config.worker_threads()),
            stats: SharedStats::default(),
            telemetry: EngineTelemetry::default(),
            config,
        };
        QueryEngine {
            csr_out: Arc::new(db.csr_out()),
            csr_in: Arc::new(db.csr_in()),
            db,
            revision: 0,
            views_epoch: 0,
            views: Vec::new(),
            published: None,
            published_revision: 0,
            shared: Arc::new(shared),
        }
    }

    /// The underlying database (read-only; mutate through the engine).
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    /// The current database revision (bumped by every mutation).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// Cache/evaluation counters, shared with every published snapshot.
    pub fn stats(&self) -> EngineStats {
        self.shared.stats()
    }

    /// Number of ad-hoc answers currently cached (always within the
    /// configured capacity bound).
    pub fn answer_cache_len(&self) -> usize {
        self.shared.answers.len()
    }

    /// Timing telemetry (latency histograms), shared with every published
    /// snapshot.
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.shared.telemetry
    }

    /// The frozen outgoing adjacency at the current revision.
    pub fn csr_out(&self) -> &CsrAdjacency {
        &self.csr_out
    }

    // ------------------------------------------------------------------
    // Publishing

    /// Publishes (or reuses) the immutable snapshot of the current revision
    /// and view set: every registered view is materialized, and the
    /// returned handle answers the full read API with `&self` from any
    /// thread.  Repeated calls between mutations return the same `Arc`.
    pub fn publish_snapshot(&mut self) -> Arc<EngineSnapshot> {
        self.publish(None)
    }

    /// [`publish_snapshot`](Self::publish_snapshot), recording a
    /// `snapshot_publish` span into `trace` when a snapshot is actually
    /// built — the last step of a traced write (see
    /// [`WriteRequest::trace`]).
    pub fn publish_snapshot_traced(&mut self, trace: &TraceContext) -> Arc<EngineSnapshot> {
        self.publish(Some(trace))
    }

    fn publish(&mut self, trace: Option<&TraceContext>) -> Arc<EngineSnapshot> {
        if let Some(snapshot) = &self.published {
            if snapshot.revision() == self.revision
                && snapshot.views_epoch() == self.views_epoch
            {
                return snapshot.clone();
            }
        }
        let publish_start = Instant::now();
        for idx in 0..self.views.len() {
            self.materialize_entry(idx);
        }
        let views = self
            .views
            .iter()
            .map(|v| {
                let pairs = v.extension.as_ref().expect("just materialized");
                (v.name.clone(), pairs.clone())
            })
            .collect();
        let snapshot = Arc::new(EngineSnapshot::new(
            self.revision,
            self.views_epoch,
            self.csr_out.clone(),
            self.csr_in.clone(),
            views,
            self.shared.clone(),
        ));
        self.published = Some(snapshot.clone());
        let shared = &*self.shared;
        // A publish at a newer revision compacts both revision caches below
        // the revision of the snapshot it replaces: that snapshot's readers
        // keep hitting, and entries of older revisions — a long-pinned
        // reader's leftovers, a target list cached before a deletion — stop
        // occupying capacity.  A reader still holding an older snapshot
        // re-computes instead of hitting.
        if self.revision > self.published_revision {
            let started = Instant::now();
            shared.answers.compact_older_than(self.published_revision);
            shared.points.compact_older_than(self.published_revision);
            self.published_revision = self.revision;
            if let Some(trace) = trace {
                trace.record_span(Span {
                    phase: Phase::CacheCompaction,
                    worker: Some(0),
                    start_us: as_us(started.saturating_duration_since(trace.origin())),
                    duration_us: as_us(started.elapsed()),
                });
            }
        }
        shared.telemetry.snapshot_publish().record_duration(publish_start.elapsed());
        span(trace, Phase::SnapshotPublish, Some(publish_start));
        snapshot
    }

    /// The published snapshot the engine itself holds: the one
    /// [`publish_snapshot`](Self::publish_snapshot) returns until the next
    /// mutation or view-set change, and none in between.  Older snapshots
    /// stay valid for any reader still holding their `Arc`.
    pub fn retained_snapshots(&self) -> impl Iterator<Item = &Arc<EngineSnapshot>> {
        self.published.iter()
    }

    // ------------------------------------------------------------------
    // Views

    /// Registers (or replaces) a named view: [`try_apply`](Self::try_apply)
    /// of a [`Mutation::RegisterView`].  Re-registering the same definition
    /// under the same name keeps the cached extension; a changed definition
    /// drops it.
    ///
    /// # Panics
    /// Panics when the definition mentions a label outside the domain.
    pub fn register_view(&mut self, name: &str, definition: Regex) {
        self.try_apply(&WriteRequest::new(Mutation::RegisterView { name, definition: &definition }))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Names of the registered views, in registration order.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.iter().map(|v| v.name.as_str())
    }

    /// The materialized extension of a registered view at the current
    /// revision, materializing it (in parallel, when configured) on first
    /// access.  Returns `None` for unregistered names.
    pub fn view_extension(&mut self, name: &str) -> Option<&Answer> {
        let idx = self.views.iter().position(|v| v.name == name)?;
        self.materialize_entry(idx);
        self.views[idx].extension.as_deref()
    }

    fn materialize_entry(&mut self, idx: usize) {
        let view = &mut self.views[idx];
        if view.extension.is_some() {
            bump(&self.shared.stats.view_cache_hits);
            return;
        }
        let unlimited = QueryBudget::unlimited();
        let pairs = sweep(&self.csr_out, &view.compiled.automaton, &self.shared, &unlimited, None)
            .expect("a budget with no limit cannot trip");
        view.extension = Some(Arc::new(pairs));
        bump(&self.shared.stats.view_full_materializations);
    }

    /// Materializes every registered view and exposes the extensions as a
    /// [`MaterializedViews`] (cached per published snapshot), ready for
    /// Σ_E-evaluation of rewritings.
    pub fn materialized_views(&mut self) -> Arc<MaterializedViews> {
        self.publish_snapshot().materialized_views()
    }

    // ------------------------------------------------------------------
    // Mutation

    /// Applies one [`WriteRequest`] — the single entry point of the write
    /// path; every other mutating method is a one-line wrapper over it.
    ///
    /// The whole batch is resolved and validated before anything changes, so
    /// on `Err` the engine — database, revision, caches, view set — is
    /// untouched.  A batch that passes always applies, under one revision
    /// bump: both adjacencies are refrozen, the published snapshot
    /// retired, and every cached view extension repaired once, under the
    /// request's budget (see *Incremental maintenance* in the crate docs).
    /// An **insertion** sweeps the batch's delta over the *updated*
    /// adjacencies and splices in the pairs each extension lacks.  A
    /// **deletion** skips every triple that keeps a
    /// parallel copy (the support count proves no answer can change), sweeps
    /// the rest over the *pre-deletion* adjacencies to find the sources of
    /// every cached pair with a derivation through a deleted edge, and
    /// re-derives those sources' rows on the post-deletion graph (DRed).  A
    /// repair never writes to the extension it reads, so readers pinned at
    /// earlier revisions are unaffected.
    ///
    /// # Errors
    /// An endpoint out of range, a label outside the domain, an unknown node
    /// name on removal, or more removals of a triple than the multigraph
    /// holds copies ([`EngineError::EdgeNotPresent`]).
    pub fn try_apply(&mut self, request: &WriteRequest<'_>) -> Result<WriteOutcome, EngineError> {
        // ordering: Relaxed for every stats counter below — monotone
        // tallies read only by advisory stats()/metrics snapshots; the
        // repaired extensions are published via `&mut self`, not atomics.
        let (budget, trace) = (&request.budget, request.trace);
        let started = trace.map(|_| Instant::now());
        let prev_nodes = self.db.num_nodes();

        // Resolve names and validate.  Each arm's `?`s precede its first
        // change (creating the nodes an insertion names, the new node, the
        // view entry), and a removal changes nothing until its tally below
        // has passed.
        let (edges, deleting): (Cow<'_, [Edge]>, bool) = match request.mutation {
            Mutation::AddEdges(edges) | Mutation::RemoveEdges(edges) => {
                for &(from, label, to) in edges {
                    self.db.check_edge_parts(from, label, to)?;
                }
                (Cow::Borrowed(edges), matches!(request.mutation, Mutation::RemoveEdges(_)))
            }
            Mutation::AddEdgesNamed(named) => {
                let labels = named
                    .iter()
                    .map(|&(_, label, _)| self.db.require_label(label))
                    .collect::<Result<Vec<_>, _>>()?;
                let resolved = named
                    .iter()
                    .zip(labels)
                    .map(|(&(from, _, to), label)| (self.db.node(from), label, self.db.node(to)))
                    .collect();
                (Cow::Owned(resolved), false)
            }
            Mutation::RemoveEdgesNamed(named) => {
                let resolved = named
                    .iter()
                    .map(|&(from, label, to)| {
                        let label = self.db.require_label(label)?;
                        Ok((self.db.require_node(from)?, label, self.db.require_node(to)?))
                    })
                    .collect::<Result<Vec<_>, EngineError>>()?;
                (Cow::Owned(resolved), true)
            }
            Mutation::AddNode => {
                self.db.add_node();
                (Cow::default(), false)
            }
            Mutation::RegisterView { name, definition } => {
                let fingerprint = fingerprint_regex(self.db.domain(), definition);
                let slot = self.views.iter_mut().find(|v| v.name == name);
                // An identical registration keeps the cache (and the snapshot).
                if slot.as_ref().is_none_or(|v| v.fingerprint != fingerprint) {
                    let compiled = self.shared.compile.regex_entry(self.db.domain(), definition)?;
                    let entry = ViewEntry {
                        name: name.to_string(),
                        fingerprint,
                        compiled,
                        extension: None,
                        superseded: Vec::new(),
                    };
                    match slot {
                        Some(slot) => *slot = entry,
                        None => self.views.push(entry),
                    }
                    self.views_epoch += 1;
                    self.published = None;
                }
                span(trace, Phase::Validate, started);
                return Ok(self.outcome(prev_nodes, 0));
            }
        };
        // A removal must find every occurrence it lists: tally the requests
        // per triple — in first-occurrence order, so the triple reported is
        // the batch's first bad one — and check the multigraph holds as many.
        // The same pass decides the support-count fast path: a triple keeping
        // more copies than the batch removes cannot change any answer (every
        // witness through a deleted copy reroutes through a survivor), so it
        // never reaches the DRed pass — which only a cached extension needs.
        let any_cached = self.views.iter().any(|v| v.extension.is_some());
        let (mut supported, mut unsupported) = (0u64, Vec::new());
        if deleting {
            let mut tally: HashMap<Edge, usize> = HashMap::with_capacity(edges.len());
            for &edge in edges.iter() {
                *tally.entry(edge).or_default() += 1;
            }
            for &(from, label, to) in edges.iter() {
                let Some(requested) = tally.remove(&(from, label, to)) else { continue };
                let present = self.db.edge_multiplicity(from, label, to);
                if present < requested {
                    let label = label.to_string();
                    return Err(EngineError::EdgeNotPresent { from, label, to, requested, present });
                } else if present > requested {
                    supported += requested as u64;
                } else if any_cached {
                    unsupported.push((from, label, to));
                }
            }
        }
        if edges.is_empty() && self.db.num_nodes() == prev_nodes {
            return Ok(self.outcome(prev_nodes, 0)); // an empty batch is not a revision
        }
        if any_cached {
            self.shared.stats.deletion_support_skips.fetch_add(supported, Ordering::Relaxed);
        }
        span(trace, Phase::Validate, started);

        // The over-deletion sweeps run on the graph the cached extensions
        // are valid for: the freezes from before the deletion.
        let started = trace.map(|_| Instant::now());
        let before = deleting.then(|| (self.csr_out.clone(), self.csr_in.clone()));
        for &(from, label, to) in edges.iter() {
            if deleting {
                let removed = self.db.remove_edge(from, label, to);
                debug_assert!(removed, "batch validated above");
            } else {
                self.db.add_edge(from, label, to);
            }
        }
        self.revision += 1;
        self.csr_out = Arc::new(self.db.csr_out());
        self.csr_in = Arc::new(self.db.csr_in());
        // Retire the published snapshot; existing reader handles stay valid
        // at their pinned revision (their extensions and CSR are behind
        // `Arc`s the writer no longer touches).  The shared answer cache is
        // NOT cleared (pinned readers may still hit it): revision-stale
        // entries are evicted lazily on lookup, preferentially on capacity
        // pressure, and by the compaction of the next publish but one.
        self.published = None;
        span(trace, Phase::CsrFreeze, started);

        // One repair per cached view the change touches, in registration
        // order, on this thread, all charging one `SweepState`: once the
        // budget trips, every later repair that sweeps stops at its first
        // poll, so the views repaired before the trip keep their repairs and
        // the rest are dropped.
        let started = Instant::now();
        let change = match &before {
            Some((old_out, old_in)) => {
                Change::Delete { old_out, old_in, new_out: &self.csr_out, removed: &unsupported }
            }
            None => Change::Insert {
                csr_out: &self.csr_out,
                csr_in: &self.csr_in,
                edges: &edges,
                created: prev_nodes..self.db.num_nodes(),
            },
        };
        let shared = &*self.shared;
        let (stats, pool) = (&shared.stats, &shared.eval_scratches);
        let scratch = |csr: &CsrAdjacency, query: &DenseNfa| pool.take(csr, query, stats);
        let progress = SweepState::new();
        let limits = (budget, &progress);
        let (mut repairs, mut identity, mut total) = (0, 0, RepairReport::default());
        for (view, entry) in self.views.iter_mut().enumerate() {
            // A view with no extension has nothing to repair; an untouched
            // one's extension holds at the new revision as it is.
            let Some(old) = entry.extension.clone() else { continue };
            if !change.touches(&entry.compiled.automaton) {
                continue;
            }
            let mut spare = entry.reclaim();
            let (nfa, reversal) = (&*entry.compiled.automaton, entry.compiled.reversal());
            let mut timings = trace.map(|_| RepairTimings::default());
            let outcome =
                repair(&change, (nfa, reversal), &old, &mut spare, scratch, limits, timings.as_mut());
            repairs += 1;
            if let (Some(trace), Some(timings)) = (trace, timings) {
                timings.record_into(trace, view as u32);
            }
            // Storage the repair did not write into stays for the next one.
            entry.superseded.extend(spare.map(Arc::new));
            match outcome {
                Ok((repaired, allocated, report)) => {
                    if allocated {
                        bump(&stats.extension_buffer_allocations);
                    }
                    // The one write a repair makes: a fresh `Arc` swapped
                    // in, so snapshot readers keep the pre-mutation pairs.
                    if let Some(repaired) = repaired {
                        let replaced = entry.extension.replace(Arc::new(repaired));
                        entry.superseded.extend(replaced);
                    }
                    identity += change.identity(nfa).len() as u64;
                    total.new_pairs += report.new_pairs;
                    total.overdeleted_pairs += report.overdeleted_pairs;
                    total.rederived_sources += report.rederived_sources;
                }
                // Stale now: the next access re-materializes it.
                Err(_) => {
                    entry.extension = None;
                    bump(&stats.repair_budget_drops);
                }
            }
        }
        if repairs > 0 {
            let counter =
                if deleting { &stats.view_deletion_repairs } else { &stats.view_delta_repairs };
            if !edges.is_empty() {
                counter.fetch_add(repairs, Ordering::Relaxed);
            }
            stats.identity_cover_pairs.fetch_add(identity, Ordering::Relaxed);
            stats.insertion_new_pairs.fetch_add(total.new_pairs, Ordering::Relaxed);
            stats.deletion_overdeleted_pairs.fetch_add(total.overdeleted_pairs, Ordering::Relaxed);
            stats.deletion_rederived_sources.fetch_add(total.rederived_sources, Ordering::Relaxed);
            shared.telemetry.repair().record_duration(started.elapsed());
        }
        span(trace, Phase::Repair, Some(started));
        Ok(self.outcome(prev_nodes, progress.visited()))
    }

    /// What [`try_apply`](Self::try_apply) reports: the state now, the nodes
    /// created since there were `prev_nodes`, and the visits its repairs
    /// charged.
    fn outcome(&self, prev_nodes: usize, visited: u64) -> WriteOutcome {
        let num_nodes = self.db.num_nodes();
        WriteOutcome { revision: self.revision, num_nodes, created: prev_nodes..num_nodes, visited }
    }

    /// Inserts an edge: [`try_apply`](Self::try_apply) of a one-edge
    /// [`Mutation::AddEdges`].
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or a label outside the domain.
    pub fn add_edge(&mut self, from: NodeId, label: automata::Symbol, to: NodeId) {
        self.try_apply(&WriteRequest::new(Mutation::AddEdges(&[(from, label, to)])))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Inserts an edge between named nodes (creating them on demand, like
    /// [`GraphDb::add_edge_named`]).
    ///
    /// # Panics
    /// Panics on a label outside the domain.
    pub fn add_edge_named(&mut self, from: &str, label: &str, to: &str) {
        self.try_add_edges_named(&[(from, label, to)]).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Inserts a batch of edges between named nodes:
    /// [`try_apply`](Self::try_apply) of a [`Mutation::AddEdgesNamed`].
    pub fn try_add_edges_named(&mut self, edges: &[(&str, &str, &str)]) -> Result<(), EngineError> {
        self.try_apply(&WriteRequest::new(Mutation::AddEdgesNamed(edges))).map(drop)
    }

    /// Adds an isolated node ([`Mutation::AddNode`]) and returns its id.
    /// Start-accepting cached extensions gain the new node's identity pair;
    /// nothing else can change.
    pub fn add_node(&mut self) -> NodeId {
        let added = self.try_apply(&WriteRequest::new(Mutation::AddNode));
        added.expect("adding a node validates nothing").created.start
    }

    /// Removes one occurrence of an edge: [`try_apply`](Self::try_apply) of a
    /// one-edge [`Mutation::RemoveEdges`].  Cached view extensions are
    /// repaired DRed-style, or not at all when a parallel copy of the edge
    /// survives.
    ///
    /// # Examples
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
    /// assert_eq!(engine.publish_snapshot().view_extension("ab").unwrap().len(), 1);
    ///
    /// let v = engine.db().node_by_name("v").unwrap();
    /// let w = engine.db().node_by_name("w").unwrap();
    /// let b = engine.db().domain().symbol("b").unwrap();
    /// engine.remove_edge(v, b, w);
    /// assert_eq!(engine.publish_snapshot().view_extension("ab").unwrap().len(), 0);
    /// assert_eq!(engine.stats().view_deletion_repairs, 1);
    /// ```
    ///
    /// # Panics
    /// Panics if the edge is not present in the database.
    pub fn remove_edge(&mut self, from: NodeId, label: automata::Symbol, to: NodeId) {
        self.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&[(from, label, to)])))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Removes one occurrence of an edge between named nodes (mirroring
    /// [`add_edge_named`](Self::add_edge_named)).
    ///
    /// # Panics
    /// Panics on unknown node names, a label outside the domain, or an edge
    /// that is not present.
    pub fn remove_edge_named(&mut self, from: &str, label: &str, to: &str) {
        self.try_remove_edges_named(&[(from, label, to)]).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Removes a batch of edge occurrences between named nodes:
    /// [`try_apply`](Self::try_apply) of a [`Mutation::RemoveEdgesNamed`].
    pub fn try_remove_edges_named(
        &mut self,
        edges: &[(&str, &str, &str)],
    ) -> Result<(), EngineError> {
        self.try_apply(&WriteRequest::new(Mutation::RemoveEdgesNamed(edges))).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::{ReadOutcome, ReadRequest};
    use automata::Alphabet;

    fn chain_engine() -> QueryEngine {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
        db.add_edge_named("n0", "a", "n1");
        db.add_edge_named("n1", "b", "n2");
        db.add_edge_named("n2", "a", "n1");
        db.add_edge_named("n1", "c", "n1");
        QueryEngine::new(db)
    }

    #[test]
    fn eval_matches_graphdb_and_caches_answers() {
        let mut engine = chain_engine();
        let direct = graphdb::eval_str(engine.db(), "a·(b·a+c)*");
        let first = engine.publish_snapshot().eval_str("a·(b·a+c)*");
        assert_eq!(*first, direct);
        let second = engine.publish_snapshot().eval_str("a·(b·a+c)*");
        assert!(Arc::ptr_eq(&first, &second));
        let stats = engine.stats();
        assert_eq!((stats.answer_hits, stats.answer_misses), (1, 1));
        assert_eq!(stats.compile_misses, 1);
    }

    #[test]
    fn mutation_invalidates_ad_hoc_answers() {
        let mut engine = chain_engine();
        let before = engine.publish_snapshot().eval_str("a·b").len();
        engine.add_edge_named("n1", "a", "n1");
        assert_eq!(engine.revision(), 1);
        let after = engine.publish_snapshot().eval_str("a·b").len();
        assert!(after > before, "n1-a->n1 then n1-b->n2 adds (n1, n2)");
        assert_eq!(engine.stats().answer_misses, 2);
        // The revision-0 entry was evicted by the revision-1 lookup, not
        // left to pin cache capacity.
        assert_eq!(engine.stats().answer_stale_evictions, 1);
    }

    #[test]
    fn view_extensions_are_cached_and_repaired() {
        let mut engine = chain_engine();
        engine.register_view("e2", regexlang::parse("a·c*·b").unwrap());
        let before = engine.view_extension("e2").unwrap().clone();
        assert_eq!(before, graphdb::eval_str(engine.db(), "a·c*·b"));
        // Cached on second access.
        engine.view_extension("e2");
        assert_eq!(engine.stats().view_cache_hits, 1);

        // n1-b->n0 gives every a·c*-path into n1 a new b-exit: the repair
        // must actually grow the extension.
        engine.add_edge_named("n1", "b", "n0");
        let repaired = engine.view_extension("e2").unwrap().clone();
        assert_eq!(repaired, graphdb::eval_str(engine.db(), "a·c*·b"));
        assert!(repaired.len() > before.len());
        assert!(before.is_subset(&repaired));
        let stats = engine.stats();
        assert_eq!(stats.view_delta_repairs, 1);
        assert_eq!(stats.view_full_materializations, 1, "never re-materialized");
    }

    #[test]
    fn unmaterialized_views_are_not_repaired() {
        let mut engine = chain_engine();
        engine.register_view("e1", regexlang::parse("a").unwrap());
        engine.add_edge_named("n0", "a", "n2");
        assert_eq!(engine.stats().view_delta_repairs, 0);
        let ext = engine.view_extension("e1").unwrap().clone();
        assert_eq!(ext, graphdb::eval_str(engine.db(), "a"));
    }

    #[test]
    fn identity_views_cover_nodes_created_after_materialization() {
        let mut engine = chain_engine();
        engine.register_view("eps", regexlang::parse("c*").unwrap());
        // Three nodes, each with its identity pair; the c-loop at n1 adds
        // nothing new.
        assert_eq!(engine.view_extension("eps").unwrap().len(), 3);
        // add_edge_named creates a brand-new node n9 after materialization.
        engine.add_edge_named("n9", "c", "n1");
        let ext = engine.view_extension("eps").unwrap().clone();
        assert_eq!(ext, graphdb::eval_str(engine.db(), "c*"));
        assert_eq!(engine.stats().view_full_materializations, 1);
    }

    #[test]
    fn identity_repair_covers_only_nodes_created_by_the_mutation() {
        let mut engine = chain_engine();
        engine.register_view("eps", regexlang::parse("c*").unwrap());
        engine.view_extension("eps");
        // Mutations among pre-existing nodes insert no identity pairs at
        // all: the O(V·views)-per-mutation re-cover loop is gone.
        engine.add_edge_named("n0", "c", "n2");
        engine.add_edge_named("n2", "c", "n0");
        assert_eq!(engine.stats().identity_cover_pairs, 0);
        // A mutation creating two nodes repairs exactly those two.
        engine.add_edge_named("p", "c", "q");
        assert_eq!(engine.stats().identity_cover_pairs, 2);
        let ext = engine.view_extension("eps").unwrap().clone();
        assert_eq!(ext, graphdb::eval_str(engine.db(), "c*"));
        // add_node repairs exactly the one created node.
        engine.add_node();
        assert_eq!(engine.stats().identity_cover_pairs, 3);
        let ext = engine.view_extension("eps").unwrap().clone();
        assert_eq!(ext, graphdb::eval_str(engine.db(), "c*"));
        assert_eq!(engine.stats().view_full_materializations, 1);
    }

    #[test]
    fn edge_removal_repairs_cached_extensions() {
        let mut engine = chain_engine();
        engine.register_view("e2", regexlang::parse("a·c*·b").unwrap());
        let before = engine.view_extension("e2").unwrap().clone();
        assert!(!before.is_empty());

        // Deleting the only a-edge into n1 severs every a·c*·b-path.
        engine.remove_edge_named("n0", "a", "n1");
        assert_eq!(engine.revision(), 1);
        let repaired = engine.view_extension("e2").unwrap().clone();
        assert_eq!(repaired, graphdb::eval_str(engine.db(), "a·c*·b"));
        assert!(repaired.len() < before.len());
        let stats = engine.stats();
        assert_eq!(stats.view_deletion_repairs, 1);
        assert!(stats.deletion_overdeleted_pairs > 0);
        assert_eq!(stats.view_full_materializations, 1, "never re-materialized");
    }

    #[test]
    fn deletion_rederives_pairs_with_surviving_witnesses() {
        // n1 reaches n1 via c and via b·a; deleting the c-loop must keep
        // (n1, n1) etc. alive through the b·a witnesses.
        let mut engine = chain_engine();
        engine.register_view("q", regexlang::parse("a·(b·a+c)*").unwrap());
        engine.view_extension("q");
        engine.remove_edge_named("n1", "c", "n1");
        let repaired = engine.view_extension("q").unwrap().clone();
        assert_eq!(repaired, graphdb::eval_str(engine.db(), "a·(b·a+c)*"));
        let stats = engine.stats();
        assert!(stats.deletion_rederived_sources > 0, "survivors were re-derived");
    }

    #[test]
    fn support_counts_skip_repairs_for_duplicated_edges() {
        let mut engine = chain_engine();
        engine.register_view("v", regexlang::parse("a·b").unwrap());
        let a = engine.db().domain().symbol("a").unwrap();
        // A parallel copy of n0-a->n1; deleting one copy keeps full support.
        engine.add_edge(0, a, 1);
        let before = engine.view_extension("v").unwrap().clone();
        engine.remove_edge(0, a, 1);
        assert_eq!(engine.revision(), 2);
        let after = engine.view_extension("v").unwrap().clone();
        assert_eq!(after, before);
        let stats = engine.stats();
        assert_eq!(stats.deletion_support_skips, 1);
        assert_eq!(stats.view_deletion_repairs, 0, "no DRed pass ran");
        assert_eq!(stats.deletion_overdeleted_pairs, 0);
    }

    #[test]
    fn batch_removal_bumps_one_revision_and_repairs_once() {
        let mut engine = chain_engine();
        engine.register_view("q", regexlang::parse("a·(b·a+c)*").unwrap());
        engine.view_extension("q");
        let a = engine.db().domain().symbol("a").unwrap();
        let c = engine.db().domain().symbol("c").unwrap();
        engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&[(2, a, 1), (1, c, 1)]))).unwrap();
        assert_eq!(engine.revision(), 1);
        let ext = engine.view_extension("q").unwrap().clone();
        assert_eq!(ext, graphdb::eval_str(engine.db(), "a·(b·a+c)*"));
        assert_eq!(engine.stats().view_deletion_repairs, 1);
    }

    #[test]
    fn mixed_insertions_and_deletions_keep_extensions_exact() {
        let mut engine = chain_engine();
        engine.register_view("q", regexlang::parse("a·(b·a+c)*").unwrap());
        engine.view_extension("q");
        engine.add_edge_named("n2", "c", "n0");
        engine.remove_edge_named("n1", "b", "n2");
        engine.add_edge_named("n0", "b", "n2");
        engine.remove_edge_named("n2", "c", "n0");
        assert_eq!(engine.revision(), 4);
        let ext = engine.view_extension("q").unwrap().clone();
        assert_eq!(ext, graphdb::eval_str(engine.db(), "a·(b·a+c)*"));
        let stats = engine.stats();
        assert_eq!(stats.view_full_materializations, 1, "repairs only");
        assert_eq!(stats.view_delta_repairs, 2);
        assert_eq!(stats.view_deletion_repairs, 2);
    }

    #[test]
    fn deletion_shrinks_ad_hoc_answers_at_the_new_revision() {
        let mut engine = chain_engine();
        let before = engine.publish_snapshot().eval_str("a·b").len();
        assert!(before > 0);
        engine.remove_edge_named("n1", "b", "n2");
        let after = engine.publish_snapshot().eval_str("a·b").len();
        assert!(after < before, "the answer must shrink");
        // The revision-0 cached answer was evicted by the revision-1 lookup
        // — a shrunken answer is never served from a stale entry.
        assert_eq!(engine.stats().answer_stale_evictions, 1);
    }

    #[test]
    #[should_panic(expected = "is not present")]
    fn removing_a_missing_edge_panics() {
        let mut engine = chain_engine();
        let b = engine.db().domain().symbol("b").unwrap();
        engine.remove_edge(0, b, 2);
    }

    #[test]
    fn bad_batches_panic_before_mutating_anything() {
        let mut engine = chain_engine();
        engine.register_view("v", regexlang::parse("a·b").unwrap());
        let before = engine.view_extension("v").unwrap().clone();
        let edges_before = engine.db().num_edges();
        let a = engine.db().domain().symbol("a").unwrap();
        let b = engine.db().domain().symbol("b").unwrap();
        // First edge exists, second does not: the batch must be rejected as
        // a whole, leaving database, revision, and caches untouched.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let batch = [(0, a, 1), (0, b, 2)];
            engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&batch))).unwrap();
        }));
        assert!(result.is_err(), "bad batch must panic");
        assert_eq!(engine.db().num_edges(), edges_before, "nothing was removed");
        assert_eq!(engine.revision(), 0);
        let ext = engine.view_extension("v").unwrap().clone();
        assert_eq!(ext, before);
        assert_eq!(ext, graphdb::eval_str(engine.db(), "a·b"));
    }

    #[test]
    fn duplicate_triples_in_a_batch_remove_parallel_copies() {
        let mut engine = chain_engine();
        engine.register_view("v", regexlang::parse("a·b").unwrap());
        engine.view_extension("v");
        let a = engine.db().domain().symbol("a").unwrap();
        engine.add_edge(0, a, 1); // second parallel copy of n0-a->n1
        // Removing both copies in one batch: support drops to zero, so the
        // DRed pass (not the support skip) must run, and the answer shrinks.
        engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&[(0, a, 1), (0, a, 1)]))).unwrap();
        let ext = engine.view_extension("v").unwrap().clone();
        assert_eq!(ext, graphdb::eval_str(engine.db(), "a·b"));
        let stats = engine.stats();
        assert_eq!(stats.deletion_support_skips, 0);
        assert_eq!(stats.view_deletion_repairs, 1);
    }

    #[test]
    fn snapshots_pin_their_revision_under_writer_deletions() {
        let mut engine = chain_engine();
        engine.register_view("e2", regexlang::parse("a·c*·b").unwrap());
        let snapshot = engine.publish_snapshot();
        let at_publish = snapshot.eval_str("a·c*·b");
        let ext_at_publish = snapshot.view_extension("e2").unwrap().clone();
        assert!(!ext_at_publish.is_empty());

        // The writer over-deletes copy-on-write; the snapshot's captured
        // pairs must keep every pre-deletion answer.
        engine.remove_edge_named("n0", "a", "n1");
        let writer_ext = engine.view_extension("e2").unwrap().clone();
        assert!(writer_ext.len() < ext_at_publish.len());
        assert_eq!(*snapshot.view_extension("e2").unwrap(), ext_at_publish);
        assert_eq!(*snapshot.eval_str("a·c*·b"), *at_publish);
        assert_eq!(snapshot.revision(), 0);
        assert_eq!(engine.revision(), 1);
        // A snapshot published now sees the shrunken revision.
        assert_eq!(*engine.publish_snapshot().eval_str("a·c*·b"), writer_ext);
    }

    #[test]
    fn materialized_views_match_graphdb_materialization() {
        let mut engine = chain_engine();
        let defs = [
            ("e1", "a"),
            ("e2", "a·c*·b"),
            ("e3", "c"),
        ];
        for (name, src) in defs {
            engine.register_view(name, regexlang::parse(src).unwrap());
        }
        let via_engine = engine.materialized_views();
        for (name, src) in defs {
            assert_eq!(via_engine.extension(name), Some(&graphdb::eval_str(engine.db(), src)));
        }
        let names = Alphabet::from_names(defs.map(|(name, _)| name)).unwrap();
        assert!(via_engine.view_alphabet().is_compatible(&names));
        // Cached per revision.
        let again = engine.materialized_views();
        assert!(Arc::ptr_eq(&via_engine, &again));
    }

    #[test]
    fn batch_insertion_bumps_one_revision_and_repairs_once_per_edge() {
        let mut engine = chain_engine();
        engine.register_view("v", regexlang::parse("a·b").unwrap());
        engine.view_extension("v");
        let a = engine.db().domain().symbol("a").unwrap();
        let b = engine.db().domain().symbol("b").unwrap();
        engine.try_apply(&WriteRequest::new(Mutation::AddEdges(&[(2, a, 0), (0, b, 2)]))).unwrap();
        assert_eq!(engine.revision(), 1);
        let ext = engine.view_extension("v").unwrap().clone();
        assert_eq!(ext, graphdb::eval_str(engine.db(), "a·b"));
    }

    #[test]
    fn re_registering_identical_definition_keeps_the_cache() {
        let mut engine = chain_engine();
        engine.register_view("v", regexlang::parse("a·b").unwrap());
        engine.view_extension("v");
        engine.register_view("v", regexlang::parse("a·b").unwrap());
        engine.view_extension("v");
        let stats = engine.stats();
        assert_eq!(stats.view_full_materializations, 1);
        assert_eq!(stats.view_cache_hits, 1);
        // A changed definition drops the cached extension.
        engine.register_view("v", regexlang::parse("a·c").unwrap());
        let ext = engine.view_extension("v").unwrap().clone();
        assert_eq!(ext, graphdb::eval_str(engine.db(), "a·c"));
        assert_eq!(engine.stats().view_full_materializations, 2);
    }

    /// Distinct queries `a·c^i` (i repetitions of `·c`) for cache-pressure
    /// tests.
    fn distinct_query(i: usize) -> regexlang::Regex {
        regexlang::parse(&format!("a{}", "·c".repeat(i))).unwrap()
    }

    #[test]
    fn answer_cache_respects_the_lru_bound() {
        let mut engine = QueryEngine::with_config(
            chain_engine().db().clone(),
            EngineConfig {
                answer_cache_capacity: 8,
                ..EngineConfig::default()
            },
        );
        for i in 0..50 {
            engine.publish_snapshot().eval_regex(&distinct_query(i));
            assert!(
                engine.answer_cache_len() <= 8,
                "cache grew to {} after query {i}",
                engine.answer_cache_len()
            );
        }
        let stats = engine.stats();
        assert_eq!(engine.answer_cache_len(), 8);
        assert_eq!(stats.answer_evictions, 50 - 8);
        assert_eq!(stats.answer_misses, 50);
    }

    #[test]
    fn answer_cache_evicts_least_recently_used_first() {
        let mut engine = QueryEngine::with_config(
            chain_engine().db().clone(),
            EngineConfig {
                answer_cache_capacity: 3,
                ..EngineConfig::default()
            },
        );
        for i in 0..3 {
            engine.publish_snapshot().eval_regex(&distinct_query(i)); // cache = {0, 1, 2}
        }
        engine.publish_snapshot().eval_regex(&distinct_query(0)); // touch 0: LRU order 1 < 2 < 0
        engine.publish_snapshot().eval_regex(&distinct_query(3)); // evicts 1
        let hits_before = engine.stats().answer_hits;
        engine.publish_snapshot().eval_regex(&distinct_query(0));
        engine.publish_snapshot().eval_regex(&distinct_query(2));
        engine.publish_snapshot().eval_regex(&distinct_query(3));
        assert_eq!(engine.stats().answer_hits, hits_before + 3, "survivors hit");
        let misses_before = engine.stats().answer_misses;
        engine.publish_snapshot().eval_regex(&distinct_query(1));
        assert_eq!(engine.stats().answer_misses, misses_before + 1, "victim was evicted");
    }

    #[test]
    fn stale_answers_never_pin_cache_capacity() {
        let mut engine = QueryEngine::with_config(
            chain_engine().db().clone(),
            EngineConfig {
                answer_cache_capacity: 4,
                ..EngineConfig::default()
            },
        );
        for i in 0..4 {
            engine.publish_snapshot().eval_regex(&distinct_query(i)); // fill at revision 0
        }
        engine.add_edge_named("n0", "c", "n2"); // revision 1: all 4 entries stale
        // Four fresh queries at revision 1: capacity pressure must fall on
        // the stale entries, never on a live revision-1 entry.
        for i in 4..8 {
            engine.publish_snapshot().eval_regex(&distinct_query(i));
            assert!(engine.answer_cache_len() <= 4);
        }
        let hits_before = engine.stats().answer_hits;
        for i in 4..8 {
            engine.publish_snapshot().eval_regex(&distinct_query(i));
        }
        assert_eq!(
            engine.stats().answer_hits,
            hits_before + 4,
            "all four live answers must still be resident"
        );
    }

    #[test]
    fn zero_capacity_disables_answer_caching() {
        let mut engine = QueryEngine::with_config(
            chain_engine().db().clone(),
            EngineConfig {
                answer_cache_capacity: 0,
                ..EngineConfig::default()
            },
        );
        engine.publish_snapshot().eval_str("a·b");
        engine.publish_snapshot().eval_str("a·b");
        assert_eq!(engine.answer_cache_len(), 0);
        assert_eq!(engine.stats().answer_misses, 2);
        assert_eq!(engine.stats().answer_evictions, 0);
    }

    #[test]
    fn over_views_reads_intern_the_rewriting_once() {
        let mut engine = chain_engine();
        for (name, src) in [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")] {
            engine.register_view(name, regexlang::parse(src).unwrap());
        }
        let views = engine.materialized_views();
        let rewriting = automata::determinize(
            &regexlang::thompson(
                &regexlang::parse("e2*·e1·e3*").unwrap(),
                views.view_alphabet(),
            )
            .unwrap(),
        );
        drop(views);
        let over_views = |engine: &mut QueryEngine| match engine
            .publish_snapshot()
            .try_eval(&ReadRequest::full(&rewriting))
        {
            Ok(ReadOutcome::Answer(answer)) => answer,
            other => panic!("a full-shape read yielded {other:?}"),
        };
        let first = over_views(&mut engine);
        assert_eq!(*first, graphdb::eval_str(engine.db(), "a·(b·a+c)*"));
        let second = over_views(&mut engine);
        assert!(Arc::ptr_eq(&first, &second), "same revision: served from the answer cache");
        // A new revision re-evaluates, over the interned dense rewriting.
        let before = engine.stats();
        engine.add_edge_named("n2", "c", "n2");
        let third = over_views(&mut engine);
        assert_eq!(*third, graphdb::eval_str(engine.db(), "a·(b·a+c)*"));
        let after = engine.stats();
        assert_eq!(after.compile_misses, before.compile_misses, "no second dense construction");
        assert_eq!(after.compile_hits, before.compile_hits + 1);
    }

    #[test]
    fn published_snapshot_is_reused_until_the_state_changes() {
        let mut engine = chain_engine();
        let s1 = engine.publish_snapshot();
        let s2 = engine.publish_snapshot();
        assert!(Arc::ptr_eq(&s1, &s2), "same revision, same snapshot");
        // A mutation retires the published snapshot…
        engine.add_edge_named("n0", "c", "n1");
        let s3 = engine.publish_snapshot();
        assert!(!Arc::ptr_eq(&s1, &s3));
        assert_eq!((s1.revision(), s3.revision()), (0, 1));
        // …and so does a view-set change, even at the same revision.
        engine.register_view("v", regexlang::parse("a").unwrap());
        let s4 = engine.publish_snapshot();
        assert!(!Arc::ptr_eq(&s3, &s4));
        assert_eq!(s4.revision(), 1);
        assert_eq!(s4.view_names().collect::<Vec<_>>(), ["v"]);
    }

    #[test]
    fn snapshots_pin_their_revision_under_writer_mutations() {
        let mut engine = chain_engine();
        engine.register_view("e2", regexlang::parse("a·c*·b").unwrap());
        let snapshot = engine.publish_snapshot();
        let at_publish = snapshot.eval_str("a·c*·b");
        let ext_at_publish = snapshot.view_extension("e2").unwrap().clone();

        // The writer repairs its extension copy-on-write; the snapshot's
        // captured pairs and CSR must not move.
        engine.add_edge_named("n1", "b", "n0");
        let writer_ext = engine.view_extension("e2").unwrap().clone();
        assert!(writer_ext.len() > ext_at_publish.len());
        assert_eq!(*snapshot.view_extension("e2").unwrap(), ext_at_publish);
        assert_eq!(*snapshot.eval_str("a·c*·b"), *at_publish);
        assert_eq!(snapshot.revision(), 0);
        assert_eq!(engine.revision(), 1);
        // A snapshot published now sees the new revision.
        assert_eq!(*engine.publish_snapshot().eval_str("a·c*·b"), writer_ext);
    }
}
