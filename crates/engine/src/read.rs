//! The read path: one request value, one execution body.
//!
//! Section 4 of the paper reduces every way of answering a regular path
//! query to reachability in the product of a graph with an automaton.  A
//! [`ReadRequest`] names the three ways a caller can ask for that — the
//! whole answer, one source's row of it, or one pair's membership in it —
//! over either graph a snapshot holds: the database, for a query over its
//! labels, or the view graph of the materialized extensions, for a
//! rewriting over the view symbols ([`Query::OverViews`], Theorem 4.2's
//! answering from views).  [`crate::EngineSnapshot::try_eval`] answers it,
//! and is the only place a query is evaluated: behind it the crate-private
//! `Reader` runs the one protocol every read follows — resolve the text
//! (parse + fingerprint, once per distinct text) → probe the revision caches
//! → compile → product sweep → admit → record — so each span and histogram
//! is recorded in one place.  A text is resolved through the compile cache's
//! text memo, which maps its raw bytes to its canonical fingerprint: a
//! server answering the same few texts parses and renders each once, and a
//! read of a text it has seen hashes the bytes instead.  Error order is the
//! parse's, then an out-of-range node, then (after the probe) an unknown
//! label, whichever tier answers.  The writer only
//! runs the full-shape `sweep`, to materialize views when it publishes.
//!
//! A `From` or `Pair` read that misses every cache runs its point kernel on
//! a scratch borrowed from the engine's pool of its kind: an idle one
//! re-aimed at the read's graph and automaton inside the sweep's span, or a
//! new one only when none is idle (`point_scratch_allocations`).  It goes
//! back to the pool however the sweep ends, a budget interrupt included, so
//! a miss costs its sweep, not an O(|V|) allocation.

use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use automata::{DenseNfa, Dfa};
use graphdb::{
    eval_csr_from_budgeted, eval_csr_pair_budgeted, Answer, CsrAdjacency, NodeId, PairTimings,
    Reachable, SweepInterrupt, SweepState,
};
use regexlang::Regex;
use telemetry::{Phase, Span, TraceContext};

use crate::budget::QueryBudget;
use crate::cache::check_dfa_target;
use crate::error::EngineError;
use crate::fingerprint::{fingerprint_dfa, fingerprint_over_views, fingerprint_regex, Fingerprint};
use crate::parallel::{as_us, eval_csr_parallel_budgeted_breakdown};
use crate::query_engine::Shared;
use crate::stats::{bump, SharedStats};

/// The query of a [`ReadRequest`].
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// The paper's concrete syntax; parsed by the engine once per distinct
    /// text (a failure is [`EngineError::Parse`], on every read of it).
    Text(&'a str),
    /// An already-parsed expression.
    Regex(&'a Regex),
    /// A deterministic automaton over the view symbols Σ_E — the form every
    /// maximal rewriting takes — answered from the materialized view
    /// extensions alone instead of the database (an alphabet that is not
    /// the snapshot's view alphabet is
    /// [`EngineError::IncompatibleAlphabet`]).
    OverViews(&'a Dfa),
}

impl<'a> From<&'a str> for Query<'a> {
    fn from(text: &'a str) -> Self {
        Query::Text(text)
    }
}

impl<'a> From<&'a Regex> for Query<'a> {
    fn from(regex: &'a Regex) -> Self {
        Query::Regex(regex)
    }
}

impl<'a> From<&'a Dfa> for Query<'a> {
    fn from(rewriting: &'a Dfa) -> Self {
        Query::OverViews(rewriting)
    }
}

/// A [`Query`] past the front end: what is fingerprinted and compiled.
enum Parsed<'a> {
    /// A text resolved through the text memo: its canonical fingerprint, and
    /// its parse if this read made one (a memo hit made none; a compile miss
    /// then parses the text again).
    Text { text: &'a str, fingerprint: Fingerprint, parsed: Option<Regex> },
    Regex(&'a Regex),
    OverViews(&'a Dfa),
}

/// Which part of the answer a [`ReadRequest`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every answer pair; yields [`ReadOutcome::Answer`].
    Full,
    /// The nodes reachable from `source`, sorted ascending, optionally
    /// stopping after `limit` distinct targets (top-k); yields
    /// [`ReadOutcome::Reachable`].
    From {
        /// The source node.
        source: NodeId,
        /// Stop after this many targets.
        limit: Option<usize>,
    },
    /// Whether `(source, target)` is an answer; yields
    /// [`ReadOutcome::Connected`].
    Pair {
        /// The source node.
        source: NodeId,
        /// The target node.
        target: NodeId,
    },
}

/// One read against a snapshot.  Built with [`full`](Self::full) /
/// [`from`](Self::from) / [`pair`](Self::pair) (unlimited budget, untraced)
/// and refined with [`budget`](Self::budget) / [`traced`](Self::traced):
///
/// ```
/// use engine::{QueryBudget, ReadOutcome, ReadRequest};
/// # let mut db = graphdb::GraphDb::new(automata::Alphabet::from_chars(['a']).unwrap());
/// # db.add_edge_named("u", "a", "v");
/// # let snapshot = engine::QueryEngine::new(db).publish_snapshot();
/// let request = ReadRequest::pair("a*", 0, 1).budget(QueryBudget::unlimited().max_visited(1_000));
/// assert_eq!(snapshot.try_eval(&request), Ok(ReadOutcome::Connected(true)));
/// ```
#[derive(Debug, Clone)]
pub struct ReadRequest<'a> {
    /// The query.
    pub query: Query<'a>,
    /// The part of its answer that is wanted.
    pub shape: Shape,
    /// Limits on the evaluation.  A resident answer is served regardless of
    /// the budget; a tripped limit surfaces as the matching [`EngineError`]
    /// and leaves every cache untouched.
    pub budget: QueryBudget,
    /// When set, every phase records a span into it (top-level spans do not
    /// overlap, so their sum against [`TraceContext::total_us`] measures
    /// untraced overhead).  The outcome is the untraced request's.
    pub trace: Option<&'a TraceContext>,
}

impl<'a> ReadRequest<'a> {
    fn new(query: impl Into<Query<'a>>, shape: Shape) -> Self {
        ReadRequest {
            query: query.into(),
            shape,
            budget: QueryBudget::unlimited(),
            trace: None,
        }
    }

    /// The full answer of `query`.
    pub fn full(query: impl Into<Query<'a>>) -> Self {
        Self::new(query, Shape::Full)
    }

    /// The nodes reachable from `source` under `query`, at most `limit`.
    pub fn from(query: impl Into<Query<'a>>, source: NodeId, limit: Option<usize>) -> Self {
        Self::new(query, Shape::From { source, limit })
    }

    /// Whether `target` is reachable from `source` under `query`.
    pub fn pair(query: impl Into<Query<'a>>, source: NodeId, target: NodeId) -> Self {
        Self::new(query, Shape::Pair { source, target })
    }

    /// Replaces the (unlimited) budget.
    pub fn budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a per-query trace.
    pub fn traced(mut self, trace: &'a TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// What a [`ReadRequest`] evaluated to — one variant per [`Shape`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// [`Shape::Full`]: the answer set (shared with the answer cache).
    Answer(Arc<Answer>),
    /// [`Shape::From`]: the targets, and whether the list is complete.
    Reachable(Reachable),
    /// [`Shape::Pair`]: the verdict.
    Connected(bool),
}

/// A [`Shape`] resolved against the graph the snapshot selected: the pair
/// kernel also searches backward, so its variant carries that graph's
/// incoming adjacency (frozen lazily for the view graph, so only a pair read
/// pays for it).
#[derive(Clone, Copy)]
pub(crate) enum Kernel<'a> {
    Full,
    From { source: NodeId, limit: Option<usize> },
    Pair { source: NodeId, target: NodeId, csr_in: &'a CsrAdjacency },
}

/// A materialized answer found resident for a point lookup.
enum Resident {
    Extension(Arc<Answer>),
    Targets(Arc<Vec<NodeId>>),
}

/// Applies a `limit` to a *complete* row served from a cache, before copying
/// it.  A limit equal to the row's length stays `complete: true`: the full
/// set is known, unlike in a fresh search, which stops at the k-th target
/// without learning whether more exist.
fn clamp_targets(row: impl ExactSizeIterator<Item = NodeId>, limit: Option<usize>) -> Reachable {
    let known = row.len();
    let keep = limit.map_or(known, |k| k.min(known));
    Reachable { targets: row.take(keep).collect(), complete: keep == known }
}

/// Records back-to-back top-level spans, the first starting at `started`.
fn consecutive_spans(trace: &TraceContext, started: Instant, parts: [(Phase, u64); 2]) {
    let mut start_us = as_us(started.saturating_duration_since(trace.origin()));
    for (phase, duration_us) in parts {
        trace.record_span(Span { phase, worker: None, start_us, duration_us });
        start_us += duration_us;
    }
}

/// The one copy of the read protocol, borrowed over a snapshot's pinned
/// state and over either of its graphs: the database, or (for
/// [`Query::OverViews`]) the view graph of its extensions.
pub(crate) struct Reader<'a> {
    pub revision: u64,
    /// The view-set epoch; salts the cache keys of Σ_E reads.
    pub views_epoch: u64,
    /// The adjacency the query's alphabet labels.
    pub csr_out: &'a CsrAdjacency,
    pub shared: &'a Shared,
}

impl Reader<'_> {
    /// Evaluates `query` for `kernel` under `budget`.
    pub fn read(
        &self,
        query: Query<'_>,
        kernel: Kernel<'_>,
        budget: &QueryBudget,
        trace: Option<&TraceContext>,
    ) -> Result<ReadOutcome, EngineError> {
        let Shared {
            compile, answers, points, eval_scratches, pair_scratches, stats, telemetry, ..
        } = self.shared;
        let domain = self.csr_out.domain();
        let query = match query {
            Query::Regex(query) => Parsed::Regex(query),
            Query::OverViews(rewriting) => Parsed::OverViews(rewriting),
            Query::Text(text) => {
                // A memo hit stands in for the parse, and is traced as one.
                let parse_started = trace.map(|_| Instant::now());
                let (fingerprint, parsed) = compile.resolve_text(domain, text)?;
                span(trace, Phase::Parse, parse_started);
                Parsed::Text { text, fingerprint, parsed }
            }
        };
        let num_nodes = self.csr_out.num_nodes();
        let (nodes, probe, fresh_evals, latency) = match kernel {
            Kernel::Full => ([None, None], Phase::CacheLookup, None, telemetry.eval()),
            Kernel::From { source, .. } => (
                [Some(source), None],
                Phase::MeetCheck,
                Some(&stats.from_evals),
                telemetry.interactive(),
            ),
            Kernel::Pair { source, target, .. } => (
                [Some(source), Some(target)],
                Phase::MeetCheck,
                Some(&stats.pair_evals),
                telemetry.interactive(),
            ),
        };
        if let Some(node) = nodes.into_iter().flatten().find(|&node| node >= num_nodes) {
            return Err(EngineError::NodeOutOfRange { node, num_nodes });
        }

        let started = Instant::now();
        let fp = match &query {
            Parsed::Text { fingerprint, .. } => *fingerprint,
            Parsed::Regex(query) => fingerprint_regex(domain, query),
            Parsed::OverViews(rewriting) => {
                check_dfa_target(domain, rewriting)?;
                fingerprint_over_views(self.views_epoch, fingerprint_dfa(domain, rewriting))
            }
        };
        // The whole-request latency sample, whichever path serves it.
        let finish = || latency.record_duration(started.elapsed());

        // Probe before evaluating.  Every cache is exact-revision, so what
        // is served here is as fresh as a fresh sweep, whatever the budget.
        let served = match kernel {
            Kernel::Full => answers.get(&fp, self.revision).map(ReadOutcome::Answer),
            Kernel::From { source, limit } => self.resident(fp, source).map(|found| {
                ReadOutcome::Reachable(match found {
                    Resident::Extension(full) => {
                        let pairs = full.as_slice();
                        let lo = pairs.partition_point(|&(x, _)| x < source);
                        let hi = pairs.partition_point(|&(x, _)| x <= source);
                        clamp_targets(pairs[lo..hi].iter().map(|&(_, y)| y), limit)
                    }
                    Resident::Targets(targets) => clamp_targets(targets.iter().copied(), limit),
                })
            }),
            Kernel::Pair { source, target, .. } => self.resident(fp, source).map(|found| {
                ReadOutcome::Connected(match found {
                    Resident::Extension(full) => full.contains(&(source, target)),
                    Resident::Targets(targets) => targets.binary_search(&target).is_ok(),
                })
            }),
        };
        span(trace, probe, Some(started));
        if let Some(outcome) = served {
            finish();
            return Ok(outcome);
        }

        fresh_evals.into_iter().for_each(bump);
        let compile_started = Instant::now();
        let compiled = match query {
            Parsed::Text { text, parsed, .. } => compile.regex_entry_at(domain, fp, || {
                Ok(Cow::Owned(parsed.map_or_else(|| regexlang::parse(text), Ok)?))
            })?,
            Parsed::Regex(query) => compile.regex_entry_at(domain, fp, || Ok(Cow::Borrowed(query)))?,
            Parsed::OverViews(rewriting) => compile.dfa_entry(domain, rewriting)?,
        };
        let dense = &compiled.automaton;
        let progress = SweepState::new();
        let outcome = match kernel {
            Kernel::Full => {
                self.finish_compile(compile_started, trace);
                let answer = sweep(self.csr_out, dense, self.shared, budget, trace)?;
                ReadOutcome::Answer(answers.put(fp, self.revision, Arc::new(answer)))
            }
            Kernel::From { source, limit } => {
                self.finish_compile(compile_started, trace);
                let sweep_started = trace.map(|_| Instant::now());
                let mut scratch = eval_scratches.take(self.csr_out, dense, stats);
                let result = eval_csr_from_budgeted(
                    self.csr_out,
                    dense,
                    source as u32,
                    dense.start(),
                    limit,
                    &mut scratch,
                    budget,
                    &progress,
                )
                .map_err(|why| interrupted(stats, why, &progress))?;
                span(trace, Phase::ProductBfs, sweep_started);
                if result.complete {
                    let targets = Arc::new(result.targets.clone());
                    points.put((fp, source as u32), self.revision, targets);
                }
                ReadOutcome::Reachable(result)
            }
            Kernel::Pair { source, target, csr_in } => {
                let reverse = compiled.reversal();
                self.finish_compile(compile_started, trace);
                let search_started = trace.map(|_| Instant::now());
                let mut scratch = pair_scratches.take(self.csr_out, dense, stats);
                let mut timings = PairTimings::default();
                // An interrupted search proves nothing in either direction:
                // no verdict escapes and no cache is touched.
                let connected = eval_csr_pair_budgeted(
                    self.csr_out,
                    csr_in,
                    dense,
                    reverse,
                    source as u32,
                    target as u32,
                    &mut scratch,
                    budget,
                    &progress,
                    trace.map(|_| &mut timings),
                )
                .map_err(|why| interrupted(stats, why, &progress))?;
                if let (Some(trace), Some(search_started)) = (trace, search_started) {
                    let halves = [
                        (Phase::BidirForward, timings.forward_us),
                        (Phase::BidirBackward, timings.backward_us),
                    ];
                    consecutive_spans(trace, search_started, halves);
                }
                ReadOutcome::Connected(connected)
            }
        };
        finish();
        Ok(outcome)
    }

    /// A materialized answer covering `source`'s row, if one is resident at
    /// this revision: the full extension (ad-hoc answer cache), else a
    /// complete single-source drain (point-query cache).
    fn resident(&self, fp: Fingerprint, source: NodeId) -> Option<Resident> {
        let Shared { answers, points, stats, .. } = self.shared;
        if let Some(full) = answers.get(&fp, self.revision) {
            bump(&stats.point_extension_hits);
            return Some(Resident::Extension(full));
        }
        points.get(&(fp, source as u32), self.revision).map(Resident::Targets)
    }

    fn finish_compile(&self, started: Instant, trace: Option<&TraceContext>) {
        self.shared.telemetry.compile().record_duration(started.elapsed());
        span(trace, Phase::Compile, Some(started));
    }
}

/// The full-shape kernel — what a [`Shape::Full`] read and view
/// materialization both run: the product sweep of every source over
/// `csr_out`, on the pool, which sweeps a small graph on this thread.
/// Records top-level `ProductBfs` and `ChunkMerge` spans (non-overlapping:
/// the merge time is carved out of the measured interval), per-worker detail
/// spans when workers were spawned, and the sweep histogram.
pub(crate) fn sweep(
    csr_out: &CsrAdjacency,
    dense: &DenseNfa,
    shared: &Shared,
    budget: &QueryBudget,
    trace: Option<&TraceContext>,
) -> Result<Answer, EngineError> {
    let Shared { config, stats, telemetry, .. } = shared;
    let progress = SweepState::new();
    let started = Instant::now();
    let threads = config.worker_threads();
    let (result, breakdown) =
        eval_csr_parallel_budgeted_breakdown(csr_out, dense, threads, budget, &progress);
    // The breakdown survives an interrupt, so the scheduler counters (which
    // back both `stats()` and the Prometheus `metrics` op) count
    // budget-killed evaluations too.  One worker is the caller's thread.
    let pooled = breakdown.workers.len() > 1;
    bump(if pooled { &stats.parallel_evals } else { &stats.sequential_evals });
    // ordering: Relaxed — scheduler tallies are monotone statistics.
    stats.parallel_chunks.fetch_add(breakdown.total_chunks(), Ordering::Relaxed);
    stats.parallel_steals.fetch_add(breakdown.total_steals(), Ordering::Relaxed);
    let answer = result.map_err(|why| interrupted(stats, why, &progress))?;
    let total_us = as_us(started.elapsed());
    let merge_us = breakdown.merge_us.min(total_us);
    let bfs_us = total_us - merge_us;
    telemetry.product_bfs().record(bfs_us);
    if let Some(trace) = trace {
        let phases = [(Phase::ProductBfs, bfs_us), (Phase::ChunkMerge, merge_us)];
        consecutive_spans(trace, started, phases);
        if pooled {
            breakdown.record_into(trace);
        }
    }
    Ok(answer)
}

fn interrupted(stats: &SharedStats, why: SweepInterrupt, progress: &SweepState) -> EngineError {
    bump(&stats.budget_interrupted_evals);
    EngineError::from_interrupt(why, progress.visited())
}

/// Records a top-level span of `phase` from `started` to now, when traced.
pub(crate) fn span(trace: Option<&TraceContext>, phase: Phase, started: Option<Instant>) {
    if let (Some(trace), Some(started)) = (trace, started) {
        trace.record(phase, started);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use automata::Alphabet;
    use graphdb::GraphDb;

    use super::*;
    use crate::cache::CAPACITY;
    use crate::EngineConfig;

    /// `n0 -a-> n1 -b-> n2`, `n2 -a-> n1`, `n1 -c-> n1`, read at revision 0
    /// through a `Reader` of its own.
    struct Fixture {
        db: GraphDb,
        csr_out: CsrAdjacency,
        csr_in: CsrAdjacency,
        shared: Shared,
    }

    impl Fixture {
        fn new() -> Self {
            let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
            db.add_edge_named("n0", "a", "n1");
            db.add_edge_named("n1", "b", "n2");
            db.add_edge_named("n2", "a", "n1");
            db.add_edge_named("n1", "c", "n1");
            let (csr_out, csr_in) = (db.csr_out(), db.csr_in());
            Fixture { db, csr_out, csr_in, shared: Shared::new(EngineConfig::default()) }
        }

        fn read(&self, text: &str, kernel: Kernel<'_>) -> Result<ReadOutcome, EngineError> {
            let reader =
                Reader { revision: 0, views_epoch: 0, csr_out: &self.csr_out, shared: &self.shared };
            reader.read(Query::Text(text), kernel, &QueryBudget::unlimited(), None)
        }

        fn pair(&self, text: &str, source: NodeId, target: NodeId) -> Result<bool, EngineError> {
            match self.read(text, Kernel::Pair { source, target, csr_in: &self.csr_in })? {
                ReadOutcome::Connected(connected) => Ok(connected),
                other => unreachable!("a pair read yields a verdict, not {other:?}"),
            }
        }

        /// The text memo's `(len, hits, misses)`.
        fn memo(&self) -> (usize, u64, u64) {
            let texts = &self.shared.compile.texts;
            (texts.len(), tally(&texts.hits), tally(&texts.misses))
        }
    }

    fn tally(counter: &AtomicU64) -> u64 {
        // ordering: Relaxed — this thread made every count it reads.
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn a_thousand_reads_of_one_text_parse_it_once() {
        let fixture = Fixture::new();
        for _ in 0..1_000 {
            assert_eq!(fixture.pair("a·b", 0, 2), Ok(true));
        }
        assert_eq!(fixture.memo(), (1, 999, 1), "one parse, 999 memo hits");
        let stats = fixture.shared.stats();
        assert_eq!((stats.compile_misses, stats.compile_hits), (1, 999));
    }

    #[test]
    fn spellings_of_one_expression_share_one_answer() {
        let fixture = Fixture::new();
        let answers: Vec<Arc<Answer>> = ["a·b", "a.b", "a b"]
            .into_iter()
            .map(|text| match fixture.read(text, Kernel::Full) {
                Ok(ReadOutcome::Answer(answer)) => answer,
                other => panic!("{text}: {other:?}"),
            })
            .collect();
        assert!(answers.iter().all(|answer| Arc::ptr_eq(answer, &answers[0])));
        assert_eq!(*answers[0], graphdb::eval_str(&fixture.db, "a·b"));
        let stats = fixture.shared.stats();
        assert_eq!(stats.sequential_evals + stats.parallel_evals, 1, "one materialization");
        assert_eq!(fixture.shared.answers.len(), 1, "one answer-cache entry");
        assert_eq!((stats.answer_misses, stats.answer_hits), (1, 2));
        assert_eq!(stats.compile_misses, 1);
        assert_eq!(fixture.memo(), (3, 0, 3), "one memo entry per spelling");
    }

    #[test]
    fn a_text_that_does_not_parse_is_refused_every_time_and_never_memoized() {
        let fixture = Fixture::new();
        for _ in 0..3 {
            assert!(matches!(fixture.read("a+", Kernel::Full), Err(EngineError::Parse { .. })));
            // Parsing comes before the node check.
            assert!(matches!(fixture.pair("a+", 0, 99), Err(EngineError::Parse { .. })));
        }
        assert_eq!(fixture.memo(), (0, 0, 0));
        assert_eq!(fixture.shared.compile.len(), 0);
    }

    #[test]
    fn an_out_of_range_node_is_refused_before_an_unknown_label() {
        let fixture = Fixture::new();
        let num_nodes = fixture.csr_out.num_nodes();
        // The first read parses `zz`, the second finds it memoized: the
        // order of the checks is the same either way.
        for _ in 0..2 {
            let refused = fixture.pair("a·zz", 0, 99);
            assert_eq!(refused, Err(EngineError::NodeOutOfRange { node: 99, num_nodes }));
        }
        for _ in 0..2 {
            let refused = fixture.pair("a·zz", 0, 1);
            assert_eq!(refused, Err(EngineError::UnknownLabel { label: "zz".into() }));
        }
        // The text parsed, so it is memoized; it never compiled, so nothing
        // else is cached.
        assert_eq!(fixture.memo(), (1, 3, 1));
        assert_eq!(fixture.shared.compile.len(), 0);
    }

    #[test]
    fn a_memoized_text_whose_automaton_was_evicted_is_parsed_and_compiled_again() {
        let fixture = Fixture::new();
        let query = "a·(b·a+c)*";
        assert_eq!(fixture.pair(query, 0, 1), Ok(true));
        // `CAPACITY` other queries push the text's automaton out of the
        // compile cache; its memo entry stays.  Query `i` spells `i` in
        // binary, `b` for 0 and `c` for 1.
        let domain = fixture.csr_out.domain();
        for i in 0..CAPACITY {
            let letters: Vec<&str> =
                format!("{i:b}").chars().map(|bit| if bit == '0' { "b" } else { "c" }).collect();
            let other = regexlang::parse(&letters.join("·")).unwrap();
            fixture.shared.compile.compile_regex(domain, &other);
        }
        let misses = fixture.shared.stats().compile_misses;
        assert_eq!(misses, CAPACITY as u64 + 1);
        // Every pair is still answered as the graph says.
        let expected = graphdb::eval_str(&fixture.db, query);
        let num_nodes = fixture.csr_out.num_nodes();
        for source in 0..num_nodes {
            for target in 0..num_nodes {
                let connected = expected.contains(&(source, target));
                assert_eq!(fixture.pair(query, source, target), Ok(connected));
            }
        }
        // One re-parse and one recompile, then hits.
        assert_eq!(fixture.shared.stats().compile_misses, misses + 1);
        assert_eq!(fixture.memo(), (1, (num_nodes * num_nodes) as u64, 1));
    }
}
