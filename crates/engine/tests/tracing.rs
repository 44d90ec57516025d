//! Telemetry suite: span tracing through the snapshot explain surface and
//! the engine latency histograms.  The load-bearing invariants:
//!
//! * a traced evaluation is answer-identical to the untraced call and its
//!   top-level spans are non-overlapping, so their sum never exceeds the
//!   trace's wall time — and on a cold sweep they account for at least 90 %
//!   of it,
//! * instrumentation sits at phase and chunk boundaries only: the number of
//!   histogram samples and spans one evaluation produces does not depend on
//!   the graph's size,
//! * the visited-pairs count of a sweep does not depend on whether it ran
//!   under a budget: the default, unlimited read reports it too,
//! * a traced write is accounted for the same way: `validate`, `csr_freeze`
//!   and `repair` cover at least 90 % of the mutation call, the per-view
//!   sweeps, re-derivation and splice show up inside `repair`, and a traced
//!   publish adds `snapshot_publish`,
//! * cache hits trace as `parse`/`cache_lookup` without re-running compile
//!   or the product-BFS,
//! * publish/eval/repair histograms fill in as the engine does that work,
//! * a publish at a newer revision records its cache compaction inside
//!   `snapshot_publish`, and no other publish does,
//! * telemetry is always on: one scripted session of every read shape and
//!   write kind moves every histogram and records every [`Phase`], and one
//!   scripted session moves every `EngineStats` counter, so a histogram,
//!   phase or counter added without a path that reaches it fails here.

use automata::Alphabet;
use engine::{
    eval_csr_parallel_breakdown, eval_csr_parallel_budgeted_breakdown, CompileCache, EngineConfig,
    EngineSnapshot, Mutation, Phase, QueryBudget, QueryEngine, ReadOutcome, ReadRequest,
    TraceContext, WriteRequest,
};
use graphdb::{random_graph, Answer, GraphDb, RandomGraphConfig, SweepState};
use std::sync::Arc;

fn abc() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c']).unwrap()
}

fn chain_db(n: usize) -> GraphDb {
    let mut db = GraphDb::new(abc());
    for i in 0..n {
        db.add_edge_named(&format!("v{i}"), "a", &format!("v{}", i + 1));
    }
    db.add_edge_named(&format!("v{n}"), "b", "v0");
    db
}

/// A uniform random graph with |E| = 4·|V| over four labels, so each label
/// has out-degree 1 and [`CLOSURE`] stays near-linear in |V| (~10⁴ pairs at
/// |V| = 1000): a sweep of milliseconds, not a cache probe, yet cheap
/// unoptimized.
fn random_db(num_nodes: usize) -> GraphDb {
    let abcd = Alphabet::from_chars(['a', 'b', 'c', 'd']).unwrap();
    let config = RandomGraphConfig { num_nodes, num_edges: 4 * num_nodes };
    random_graph(&abcd, &config, 42)
}

const CLOSURE: &str = "a·c*";

fn full(snapshot: &EngineSnapshot, request: ReadRequest<'_>) -> Arc<Answer> {
    match snapshot.try_eval(&request) {
        Ok(ReadOutcome::Answer(answer)) => answer,
        other => panic!("expected a full answer, got {other:?}"),
    }
}

fn forced_parallel() -> EngineConfig {
    EngineConfig { threads: 4, parallel_threshold: 0, ..EngineConfig::default() }
}

fn phases(trace: &TraceContext, top_level_only: bool) -> Vec<Phase> {
    trace
        .spans()
        .iter()
        .filter(|s| !top_level_only || s.worker.is_none())
        .map(|s| s.phase)
        .collect()
}

#[test]
fn traced_eval_is_answer_identical_with_nonoverlapping_top_level_spans() {
    let mut engine = QueryEngine::with_config(random_db(1000), forced_parallel());
    let snapshot = engine.publish_snapshot();

    // Trace the cold run (the warm one would be a cache hit with no sweep).
    let trace = TraceContext::new(7);
    let traced = full(&snapshot, ReadRequest::full(CLOSURE).traced(&trace));
    let (total_us, top_level_us) = (trace.total_us(), trace.top_level_sum_us());
    let untraced = full(&snapshot, ReadRequest::full(CLOSURE));
    assert_eq!(*traced, *untraced);
    assert_eq!(trace.trace_id(), 7);

    let top = phases(&trace, true);
    for phase in [Phase::Parse, Phase::CacheLookup, Phase::Compile, Phase::ProductBfs, Phase::ChunkMerge] {
        assert!(top.contains(&phase), "missing {phase:?} in {top:?}");
    }
    // Forced-parallel run: per-worker detail spans ride along.
    let detail: Vec<Phase> = phases(&trace, false);
    assert!(detail.contains(&Phase::ChunkAcquire), "{detail:?}");

    // Top-level spans partition the pipeline: their sum is bounded by the
    // whole trace's wall time (worker spans overlap and are excluded).
    assert!(trace.top_level_sum_us() <= trace.total_us().max(1));
    assert_eq!(trace.dropped(), 0);
    // ... and they account for the wall time the caller saw: what no span
    // covers (between phases, admission into the cache) stays under 10 %.
    assert!(
        top_level_us as f64 >= 0.9 * total_us as f64,
        "top-level spans cover only {top_level_us} of {total_us} us (< 90 %)"
    );
}

#[test]
fn a_traced_read_over_views_accounts_for_its_wall_time_too() {
    // [`CLOSURE`] again, spelled over two views: the same sweep, plus — on
    // this first Σ_E read of the snapshot — freezing the view graph.
    let mut engine = QueryEngine::with_config(random_db(1000), forced_parallel());
    engine.register_view("v1", regexlang::parse("a").unwrap());
    engine.register_view("v2", regexlang::parse("c").unwrap());
    let snapshot = engine.publish_snapshot();
    let sigma_e = Alphabet::from_names(["v1", "v2"]).unwrap();
    let nfa = regexlang::thompson(&regexlang::parse("v1·v2*").unwrap(), &sigma_e).unwrap();
    let rewriting = automata::determinize(&nfa);

    let trace = TraceContext::new(11);
    let traced = full(&snapshot, ReadRequest::full(&rewriting).traced(&trace));
    let (total_us, top_level_us) = (trace.total_us(), trace.top_level_sum_us());
    assert_eq!(*traced, *full(&snapshot, ReadRequest::full(CLOSURE)));

    let top = phases(&trace, true);
    let expected =
        [Phase::SnapshotPublish, Phase::CacheLookup, Phase::Compile, Phase::ProductBfs, Phase::ChunkMerge];
    for phase in expected {
        assert!(top.contains(&phase), "missing {phase:?} in {top:?}");
    }
    assert!(!top.contains(&Phase::Parse), "an automaton is not parsed: {top:?}");
    assert!(top_level_us <= total_us.max(1));
    assert!(
        top_level_us as f64 >= 0.9 * total_us as f64,
        "top-level spans cover only {top_level_us} of {total_us} us (< 90 %)"
    );

    // The point shapes trace their own kernels over the view graph.
    let trace = TraceContext::new(12);
    snapshot.try_eval(&ReadRequest::pair(&rewriting, 0, 1).traced(&trace)).unwrap();
    let top = phases(&trace, true);
    assert!(top.contains(&Phase::SnapshotPublish) && top.contains(&Phase::MeetCheck), "{top:?}");
}

#[test]
fn a_traced_write_accounts_for_its_wall_time() {
    // `random_db` with every node named, so the same edges can be listed by
    // id and by name.
    let mut db = GraphDb::new(random_db(1).domain().clone());
    for edge in random_db(1000).edges() {
        let label = db.domain().name(edge.label).to_string();
        db.add_edge_named(&format!("n{}", edge.from), &label, &format!("n{}", edge.to));
    }
    let mut engine = QueryEngine::with_config(db, forced_parallel());
    engine.register_view("closure", regexlang::parse(CLOSURE).unwrap());
    engine.register_view("steps", regexlang::parse("a·c").unwrap());
    engine.publish_snapshot();
    // Eight edges both views read, deleted and then put back — by id, then
    // by name.
    let batch: Vec<(usize, automata::Symbol, usize)> = engine
        .db()
        .edges()
        .filter(|e| e.label.index() % 2 == 0)
        .step_by(211)
        .take(8)
        .map(|e| (e.from, e.label, e.to))
        .collect();
    assert_eq!(batch.len(), 8);
    let names: Vec<(String, String, String)> = batch
        .iter()
        .map(|&(from, label, to)| {
            let db = engine.db();
            let name = |node| db.node_name(node).unwrap().to_string();
            (name(from), db.domain().name(label).to_string(), name(to))
        })
        .collect();
    let named: Vec<(&str, &str, &str)> =
        names.iter().map(|(f, l, t)| (f.as_str(), l.as_str(), t.as_str())).collect();
    // The two mutations that touch no extension are sized so that what they
    // do run is measurable: a definition of 120 positions to compile, and —
    // for the new node — a graph of 200 000 edges to refreeze.
    let definition = regexlang::parse(&format!("{}a", "(a·b+c·d)*·".repeat(30))).unwrap();
    let mut large = QueryEngine::new(random_db(50_000));

    let mutations = [
        Mutation::RemoveEdges(&batch),
        Mutation::AddEdges(&batch),
        Mutation::RemoveEdgesNamed(&named),
        Mutation::AddEdgesNamed(&named),
        Mutation::AddNode,
        Mutation::RegisterView { name: "wide", definition: &definition },
    ];
    for mutation in mutations {
        let engine = if matches!(mutation, Mutation::AddNode) { &mut large } else { &mut engine };
        let trace = TraceContext::new(21);
        engine.try_apply(&WriteRequest::new(mutation).traced(&trace)).unwrap();
        let (total_us, top_level_us) = (trace.total_us(), trace.top_level_sum_us());

        // Each step that ran is a top-level span: a registration only
        // validates (it compiles the definition); everything else also
        // refreezes the adjacency and repairs the cached extensions.
        let top = phases(&trace, true);
        let steps: &[Phase] = match mutation {
            Mutation::RegisterView { .. } => &[Phase::Validate],
            _ => &[Phase::Validate, Phase::CsrFreeze, Phase::Repair],
        };
        assert_eq!(top, steps, "{mutation:?}");
        assert!(top_level_us <= total_us.max(1));
        assert!(
            top_level_us as f64 >= 0.9 * total_us as f64,
            "{mutation:?}: top-level spans cover only {top_level_us} of {total_us} us (< 90 %)"
        );
        // Inside `repair`, per view: both sweep directions and the splice —
        // and the re-derivation exactly when rows may have shrunk.  A new
        // node or view touches no cached extension: no detail at all.
        let detail: Vec<(Phase, Option<u32>)> =
            trace.spans().iter().filter(|s| s.worker.is_some()).map(|s| (s.phase, s.worker)).collect();
        let delete = matches!(mutation, Mutation::RemoveEdges(_) | Mutation::RemoveEdgesNamed(_));
        if matches!(mutation, Mutation::AddNode | Mutation::RegisterView { .. }) {
            assert!(detail.is_empty(), "{mutation:?}: {detail:?}");
        } else {
            for phase in [Phase::DeltaBackward, Phase::DeltaForward, Phase::Splice] {
                assert!(detail.contains(&(phase, Some(0))), "{mutation:?}: no {phase:?} for view 0");
            }
        }
        assert_eq!(detail.contains(&(Phase::Rederive, Some(0))), delete, "{mutation:?}");
        assert_eq!(trace.dropped(), 0);

        // Publishing is the write's last step; traced, it is one more
        // top-level span (and none when the snapshot is reused).
        engine.publish_snapshot_traced(&trace);
        engine.publish_snapshot_traced(&trace);
        let publishes = phases(&trace, true).iter().filter(|&&p| p == Phase::SnapshotPublish).count();
        assert_eq!(publishes, 1);
    }
    let stats = engine.stats();
    assert_eq!((stats.view_deletion_repairs, stats.view_delta_repairs), (4, 4));
    assert_eq!(stats.view_full_materializations, 3, "repaired, not re-materialized: the new view only");
}

/// Only a publish that builds a snapshot at a newer revision compacts the
/// shared caches, and a traced one records that as exactly one
/// `cache_compaction` detail span, inside its `snapshot_publish`: not on the
/// first publish, not on a reused snapshot.
#[test]
fn a_publish_records_a_compaction_exactly_when_it_advances_the_window() {
    let mut engine = QueryEngine::with_config(chain_db(20), forced_parallel());
    for step in 0..4 {
        let trace = TraceContext::new(step as u64);
        engine.publish_snapshot_traced(&trace);
        engine.publish_snapshot_traced(&trace); // reused: no second publish
        let context = format!("step {step}");

        let spans = trace.spans();
        let of = |phase: Phase| spans.iter().filter(move |s| s.phase == phase);
        let compactions: Vec<_> = of(Phase::CacheCompaction).collect();
        assert_eq!(compactions.len(), usize::from(step > 0), "{context}");
        let [publish] = of(Phase::SnapshotPublish).collect::<Vec<_>>()[..] else {
            panic!("{context}: one publish per step, got {spans:?}");
        };
        for compaction in compactions {
            assert_eq!(compaction.worker, Some(0), "a detail span");
            assert!(compaction.start_us >= publish.start_us);
            assert!(
                compaction.start_us + compaction.duration_us
                    <= publish.start_us + publish.duration_us + 1,
                "{compaction:?} outside {publish:?}"
            );
        }
        engine.add_edge_named("v0", "b", "v1");
    }
}

/// Per evaluation: the histogram samples an untraced cold read adds, and the
/// spans a traced cold read records, on a fresh engine over `random_db(n)`.
fn samples_and_spans(num_nodes: usize) -> ([u64; 6], usize) {
    let cold = || QueryEngine::with_config(random_db(num_nodes), forced_parallel()).publish_snapshot();
    let counts = |s: &EngineSnapshot| s.telemetry().histograms().map(|(_, h)| h.count());

    let snapshot = cold();
    let before = counts(&snapshot);
    full(&snapshot, ReadRequest::full(CLOSURE));
    let after = counts(&snapshot);

    let trace = TraceContext::new(3);
    full(&cold(), ReadRequest::full(CLOSURE).traced(&trace));
    assert_eq!(trace.dropped(), 0);
    (std::array::from_fn(|i| after[i] - before[i]), trace.spans().len())
}

#[test]
fn instrumentation_cost_does_not_grow_with_the_graph() {
    // A record per popped product state or per source would scale with
    // |V|, and one per chunk would exceed the bounds; boundary-only
    // recording does neither.
    let (samples, spans) = samples_and_spans(1000);
    assert!(samples.iter().all(|&n| n <= 1), "more than one sample per histogram: {samples:?}");
    // Five top-level phases plus `ParallelBreakdown::record_into`'s two
    // detail spans per worker.
    assert!(spans <= 5 + 2 * forced_parallel().threads, "{spans} spans");
    assert_eq!((samples, spans), samples_and_spans(4000));
}

#[test]
fn an_unbudgeted_sweep_reports_the_visits_a_budgeted_one_does() {
    let db = random_db(1000);
    let csr = db.csr_out();
    let query = CompileCache::new().compile_regex(db.domain(), &regexlang::parse(CLOSURE).unwrap());
    for threads in [1, 4] {
        let (answer, unbudgeted) = eval_csr_parallel_breakdown(&csr, &query, threads);
        let roomy = QueryBudget::unlimited().max_visited(u64::MAX);
        let progress = SweepState::new();
        let (capped, budgeted) =
            eval_csr_parallel_budgeted_breakdown(&csr, &query, threads, &roomy, &progress);
        assert_eq!(answer, capped.expect("a u64::MAX cap never trips"));
        assert!(unbudgeted.total_visited() > answer.len() as u64, "x{threads}");
        assert_eq!(unbudgeted.total_visited(), budgeted.total_visited(), "x{threads}");
        assert_eq!(budgeted.total_visited(), progress.visited(), "x{threads}");
    }
}

#[test]
fn cache_hit_traces_lookup_without_reevaluation() {
    let mut engine = QueryEngine::with_config(chain_db(50), EngineConfig::default());
    let snapshot = engine.publish_snapshot();
    let warm = full(&snapshot, ReadRequest::full("a·a"));

    let trace = TraceContext::new(1);
    let hit = full(&snapshot, ReadRequest::full("a·a").traced(&trace));
    assert_eq!(*hit, *warm);

    let top = phases(&trace, true);
    assert!(top.contains(&Phase::Parse), "{top:?}");
    assert!(top.contains(&Phase::CacheLookup), "{top:?}");
    assert!(!top.contains(&Phase::Compile), "cache hit must not recompile: {top:?}");
    assert!(!top.contains(&Phase::ProductBfs), "cache hit must not re-sweep: {top:?}");
}

#[test]
fn one_session_moves_every_histogram_and_records_every_phase() {
    let mut engine = QueryEngine::with_config(random_db(1000), forced_parallel());
    engine.register_view("closure", regexlang::parse(CLOSURE).unwrap());
    let traces: Vec<TraceContext> = (0..7).map(TraceContext::new).collect();

    // A traced publish materializes the view; then one cold read of each
    // shape, each with a query of its own so no cache serves it.
    let snapshot = engine.publish_snapshot_traced(&traces[0]);
    full(&snapshot, ReadRequest::full("b·d*").traced(&traces[1]));
    snapshot
        .try_eval(&ReadRequest::from("a·b", 0, None).traced(&traces[2]))
        .unwrap();
    snapshot
        .try_eval(&ReadRequest::pair("c·d*", 0, 1).traced(&traces[3]))
        .unwrap();

    // A delete and an insert of edges the materialized view reads.
    let batch: Vec<(usize, automata::Symbol, usize)> = engine
        .db()
        .edges()
        .filter(|e| e.label.index() % 2 == 0)
        .step_by(211)
        .take(8)
        .map(|e| (e.from, e.label, e.to))
        .collect();
    let writes = [Mutation::RemoveEdges(&batch), Mutation::AddEdges(&batch)];
    for (mutation, trace) in writes.into_iter().zip(&traces[4..]) {
        engine
            .try_apply(&WriteRequest::new(mutation).traced(trace))
            .unwrap();
    }
    // Publishing them, at a newer revision, compacts the shared caches.
    engine.publish_snapshot_traced(&traces[6]);

    for (name, histogram) in engine.telemetry().histograms() {
        assert!(histogram.count() > 0, "no test path records into `{name}`");
    }
    let recorded: Vec<Phase> = traces.iter().flat_map(|t| phases(t, false)).collect();
    for phase in Phase::ALL {
        assert!(recorded.contains(&phase), "no test path records a {phase:?} span");
    }
}

#[test]
fn one_session_moves_every_counter() {
    // Two workers; the pool takes every sweep once the graph has 64 nodes, so
    // the first reads (9 nodes) run sequentially and the rest on the pool.
    let config = EngineConfig {
        threads: 2,
        parallel_threshold: 64,
        answer_cache_capacity: 2,
    };
    let mut engine = QueryEngine::with_config(chain_db(8), config);
    let full_read = |engine: &mut QueryEngine, query: &str| {
        engine.publish_snapshot().try_eval(&ReadRequest::full(query)).unwrap();
    };
    engine.register_view("closure", regexlang::parse("a*").unwrap());
    engine.register_view("hops", regexlang::parse("a·a").unwrap());
    engine.view_extension("closure");
    engine.view_extension("hops");
    engine.view_extension("closure");
    full_read(&mut engine, "a·b");
    full_read(&mut engine, "a·b");

    // One batch grows the graph past the threshold, repairing both cached
    // views on the pool: a 600-edge a-chain, whose sources (the low ids, so
    // worker 0's chunks) each reach hundreds of pairs, then 600 b-edges
    // between fresh pairs, whose sources reach nothing under `a*` — worker 1
    // runs dry first and steals.
    let chain: Vec<(String, String)> = (0..600)
        .map(|i| (format!("c{i}"), format!("c{}", i + 1)))
        .chain((0..600).map(|i| (format!("p{i}"), format!("q{i}"))))
        .collect();
    let batch: Vec<(&str, &str, &str)> = chain
        .iter()
        .enumerate()
        .map(|(i, (from, to))| (from.as_str(), if i < 600 { "a" } else { "b" }, to.as_str()))
        .collect();
    let pinned = engine.publish_snapshot();
    engine.try_apply(&WriteRequest::new(Mutation::AddEdgesNamed(&batch))).unwrap();
    full_read(&mut engine, "a*");
    // A reader still pinned before the batch admits `b` at its revision, so
    // the current revision's read of `b` finds that entry stale.
    pinned.eval_str("b");
    full_read(&mut engine, "b");
    full_read(&mut engine, "a·b");

    // Point reads at one revision: a row that drains, the same row again, a
    // pair inside it, a fresh pair, and a row of a resident full answer.
    let c0 = engine.db().node_by_name("c0").unwrap();
    let p0 = engine.db().node_by_name("p0").unwrap();
    let snapshot = engine.publish_snapshot();
    for request in [
        ReadRequest::from("a·a·a", c0, None),
        ReadRequest::from("a·a·a", c0, None),
        ReadRequest::pair("a·a·a", c0, c0 + 3),
        ReadRequest::pair("b·a", 0, 1),
        ReadRequest::from("b", p0, None),
    ] {
        snapshot.try_eval(&request).unwrap();
    }
    // One more distinct query than the compile cache holds (1 024): words
    // over {a, b} spelling 0 ..= 1 024 in binary.  The least recently used
    // compiled automaton is evicted.
    for i in 0..=1024u32 {
        let word: Vec<&str> =
            format!("{i:b}").chars().map(|bit| if bit == '0' { "a" } else { "b" }).collect();
        snapshot.try_eval(&ReadRequest::pair(word.join("·").as_str(), 0, 1)).unwrap();
    }

    // A delete of one of two parallel copies, then of the chain's only
    // c300 → c301 edge; the second publish replaces the snapshot after the
    // point reads' revision and so compacts their entries.
    engine.add_edge_named("c0", "a", "c1");
    engine.publish_snapshot();
    engine.remove_edge_named("c0", "a", "c1");
    engine.remove_edge_named("c300", "a", "c301");
    engine.publish_snapshot();

    // A read and a repair that trip a budget of one visit.
    let tight = QueryBudget::unlimited().max_visited(1);
    let tripping = ReadRequest::full("a·a*").budget(tight.clone());
    assert!(engine.publish_snapshot().try_eval(&tripping).is_err());
    let rejoin = [("c600", "a", "c0")];
    engine
        .try_apply(&WriteRequest::new(Mutation::AddEdgesNamed(&rejoin)).budget(tight))
        .unwrap();

    let still: Vec<&str> =
        engine.stats().fields().into_iter().filter(|&(_, n)| n == 0).map(|(name, _)| name).collect();
    assert!(still.is_empty(), "no test path moves these counters: {still:?}");
}

#[test]
fn histograms_fill_in_with_work() {
    let mut engine = QueryEngine::with_config(chain_db(300), forced_parallel());
    let snapshot = engine.publish_snapshot();
    full(&snapshot, ReadRequest::full("a*"));
    full(&snapshot, ReadRequest::full("a*")); // cache hit
    {
        let telemetry = snapshot.telemetry();
        assert_eq!(telemetry.eval().count(), 2, "both evals (hit and miss) time end-to-end");
        assert_eq!(telemetry.compile().count(), 1, "only the miss compiles");
        assert_eq!(telemetry.product_bfs().count(), 1, "only the miss sweeps");
    }
    drop(snapshot);

    // A mutation over a materialized view exercises the repair path;
    // republishing records another publish.
    engine.register_view("star", regexlang::parse("a*").unwrap());
    assert!(engine.view_extension("star").is_some());
    engine.add_edge_named("v0", "c", "v1");
    let snapshot = engine.publish_snapshot();

    let telemetry = snapshot.telemetry();
    assert!(telemetry.repair().count() >= 1, "mutation repair must be timed");
    assert_eq!(telemetry.snapshot_publish().count(), 2);

    assert!(snapshot.age().as_secs() < 60, "published_at is per-snapshot");

    // Percentiles come from real recordings: p99 is bounded by the max.
    assert!(telemetry.eval().percentile(0.99) >= telemetry.eval().percentile(0.50));
    assert!(telemetry.eval().percentile(0.99) <= telemetry.eval().max_us().max(1));
}
