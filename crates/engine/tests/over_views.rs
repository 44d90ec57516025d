//! Answering from views (Theorem 4.2) as a read like any other: a
//! `Query::OverViews` goes through `try_eval`, so it is budgeted, counted,
//! cached and fallible — and it does work proportional to the answer, not to
//! `|V| · |view tuples|`.
//!
//! The fixture is the repo benchmark's Section 4 setting: the query
//! `h·(g·h+f)*·e?` over the views `e1 = h`, `e2 = h·f*·g`, `e3 = f`,
//! `e4 = e`, whose exact rewriting is `e2*·e1·e3*·e4?`, on a community graph.
//! The rewriting is handed over the way `rewriter` produces one — a
//! *complete* DFA, sink included — so the reads below only stay cheap if the
//! compile funnel trims it.

use std::sync::Arc;

use automata::{Alphabet, DenseNfa, Dfa};
use engine::{
    eval_csr_parallel_budgeted_breakdown, CompileCache, EngineConfig, EngineError, EngineSnapshot,
    QueryBudget, QueryEngine, ReadOutcome, ReadRequest,
};
use graphdb::{community_graph, eval_csr, Answer, CommunityGraphConfig, GraphDb, SweepState};

const QUERY: &str = "h·(g·h+f)*·e?";
const VIEWS: [(&str, &str); 4] = [("e1", "h"), ("e2", "h·f*·g"), ("e3", "f"), ("e4", "e")];
const REWRITING: &str = "e2*·e1·e3*·e4?";

fn letters() -> Alphabet {
    Alphabet::from_chars('a'..='h').unwrap()
}

/// 12 communities of 200 nodes, |E| = 4·|V| — the benchmark's community
/// graph at two fifths of its size: small enough that the unoptimized test
/// build sweeps it in well under a second, large enough that the over-views
/// sweep expands more product states than one budget check interval (4096),
/// which the starved read below has to reach to be refused.
fn community_db() -> GraphDb {
    let config = CommunityGraphConfig {
        num_communities: 12,
        community_size: 200,
        num_edges: 9_600,
        intra_fraction: 0.9,
    };
    community_graph(&letters(), &config, 0x5eed)
}

fn engine_with_views(db: GraphDb, config: EngineConfig) -> QueryEngine {
    let mut engine = QueryEngine::with_config(db, config);
    for (name, definition) in VIEWS {
        engine.register_view(name, regexlang::parse(definition).unwrap());
    }
    engine
}

/// `text` over `alphabet` as a complete DFA: what a maximal rewriting looks
/// like coming out of Theorem 2.2's complement.
fn complete_dfa(text: &str, alphabet: &Alphabet) -> Dfa {
    let nfa = regexlang::thompson(&regexlang::parse(text).unwrap(), alphabet).unwrap();
    automata::determinize(&nfa)
}

fn rewriting(snapshot: &EngineSnapshot) -> Dfa {
    complete_dfa(REWRITING, snapshot.materialized_views().view_alphabet())
}

fn full(snapshot: &EngineSnapshot, request: ReadRequest<'_>) -> Result<Arc<Answer>, EngineError> {
    snapshot.try_eval(&request).map(|outcome| match outcome {
        ReadOutcome::Answer(answer) => answer,
        other => panic!("a full-shape read yielded {other:?}"),
    })
}

/// Product pairs a sequential budgeted sweep of `query` over `csr` pops.
fn visited(csr: &graphdb::CsrAdjacency, query: &DenseNfa) -> u64 {
    let progress = SweepState::new();
    let roomy = QueryBudget::unlimited().max_visited(u64::MAX);
    let (answer, _) = eval_csr_parallel_budgeted_breakdown(csr, query, 1, &roomy, &progress);
    answer.expect("a cap of u64::MAX cannot trip");
    progress.visited()
}

#[test]
fn answering_from_views_does_work_proportional_to_direct_evaluation() {
    let sequential = EngineConfig { threads: 1, ..EngineConfig::default() };
    let mut engine = engine_with_views(community_db(), sequential);
    let snapshot = engine.publish_snapshot();
    let rewriting = rewriting(&snapshot);

    // Counts, not times: the same on every machine, and pinned exactly.  A
    // sweep counts the product states it *expands*; one whose automaton
    // state reads no label is recorded and never queued.  The direct read
    // runs the merged position automaton of the query (3 states; the
    // Thompson automaton it replaced visited 5.6× as many pairs on the
    // 1 200-node version of this graph), the over-views read the trimmed
    // rewriting DFA, so only the queueing rule can move the second number.
    let query = regexlang::parse(QUERY).unwrap();
    let compile = CompileCache::new();
    let direct_work =
        visited(snapshot.csr_out(), &compile.compile_regex(snapshot.domain(), &query));
    let views = snapshot.materialized_views();
    let over_views_work =
        visited(views.view_csr(), &compile.compile_dfa(views.view_alphabet(), &rewriting));
    assert_eq!((direct_work, over_views_work), (6_853, 6_897));
    let untrimmed = DenseNfa::from_dfa(&rewriting);
    let swept_whole = visited(views.view_csr(), &untrimmed);
    assert!(
        swept_whole > 20 * direct_work,
        "fixture too small to show the cliff: untrimmed {swept_whole} vs direct {direct_work}"
    );

    // A budget of four direct evaluations is plenty for the trimmed sweep
    // (walking into the sink would need ninety times that) ...
    let within = QueryBudget::unlimited().max_visited(4 * direct_work);
    let over_views = full(&snapshot, ReadRequest::full(&rewriting).budget(within))
        .expect("answering from views must fit in 4x the direct read's work");
    // ... for the same answer: the rewriting is exact (Theorem 4.1), and the
    // untrimmed sweep is the oracle.
    assert_eq!(over_views, snapshot.eval_str(QUERY));
    assert_eq!(*over_views, eval_csr(views.view_csr(), &untrimmed));
    assert!(!over_views.is_empty());

    // The budget is honoured, not ignored: one pair is not enough, and the
    // sweep finds out at its first check.  (A fresh revision, so the answer
    // admitted above is not there to be served.)
    engine.add_edge_named("x", "a", "y");
    let snapshot = engine.publish_snapshot();
    let before = snapshot.stats();
    let starved = QueryBudget::unlimited().max_visited(1);
    let err = full(&snapshot, ReadRequest::full(&rewriting).budget(starved)).unwrap_err();
    assert!(matches!(err, EngineError::VisitBudgetExceeded { visited } if visited > 1), "{err}");
    let after = snapshot.stats();
    assert_eq!(after.budget_interrupted_evals, before.budget_interrupted_evals + 1);
    // Nothing partial was admitted: the retry evaluates, and gets it all.
    let retried = full(&snapshot, ReadRequest::full(&rewriting)).unwrap();
    let settled = snapshot.stats();
    assert_eq!(
        (settled.answer_hits, settled.answer_misses),
        (after.answer_hits, after.answer_misses + 1)
    );
    assert_eq!(retried, snapshot.eval_str(QUERY));
}

#[test]
fn over_views_reads_are_counted_and_timed_like_every_other_read() {
    for (config, parallel) in [
        (EngineConfig { threads: 1, ..EngineConfig::default() }, false),
        (EngineConfig { threads: 3, parallel_threshold: 0, ..EngineConfig::default() }, true),
    ] {
        let snapshot = engine_with_views(community_db(), config).publish_snapshot();
        let rewriting = rewriting(&snapshot);
        let (before, timed) = (snapshot.stats(), snapshot.telemetry().eval().count());
        let answer = full(&snapshot, ReadRequest::full(&rewriting)).unwrap();
        let after = snapshot.stats();
        let (pool, inline) = (u64::from(parallel), u64::from(!parallel));
        assert_eq!(after.parallel_evals, before.parallel_evals + pool);
        assert_eq!(after.sequential_evals, before.sequential_evals + inline);
        assert_eq!(after.compile_misses, before.compile_misses + 1);
        assert_eq!(after.answer_misses, before.answer_misses + 1);
        assert_eq!(snapshot.telemetry().eval().count(), timed + 1);

        // Same revision, same view set: the answer cache serves it.
        let again = full(&snapshot, ReadRequest::full(&rewriting)).unwrap();
        assert!(Arc::ptr_eq(&answer, &again));
        assert_eq!(snapshot.stats().answer_hits, after.answer_hits + 1);
        assert_eq!(snapshot.telemetry().eval().count(), timed + 2);
    }
}

#[test]
fn a_bad_alphabet_or_node_is_an_error_not_a_panic() {
    let mut engine = engine_with_views(community_db(), EngineConfig::default());
    let snapshot = engine.publish_snapshot();
    let rewriting = rewriting(&snapshot);
    // Warm every cache with the good automaton first: a structurally equal
    // one over other symbols must not be served from any of them.
    full(&snapshot, ReadRequest::full(&rewriting)).unwrap();

    let strangers = Alphabet::from_names(["w1", "w2", "w3", "w4"]).unwrap();
    let mislabeled = complete_dfa("w2*·w1·w3*·w4?", &strangers);
    let over_the_database = complete_dfa("h·f*", &letters());
    for bad in [&mislabeled, &over_the_database] {
        for request in [
            ReadRequest::full(bad),
            ReadRequest::from(bad, 0, None),
            ReadRequest::pair(bad, 0, 1),
        ] {
            let err = snapshot.try_eval(&request).unwrap_err();
            assert!(matches!(err, EngineError::IncompatibleAlphabet { .. }), "{err}");
            assert_eq!(err.code(), "incompatible_alphabet", "{err}");
        }
    }

    let nodes = snapshot.num_nodes();
    for request in [
        ReadRequest::from(&rewriting, nodes, None),
        ReadRequest::pair(&rewriting, 0, nodes),
        ReadRequest::pair(&rewriting, nodes + 7, 0),
    ] {
        let err = snapshot.try_eval(&request).unwrap_err();
        assert!(matches!(err, EngineError::NodeOutOfRange { num_nodes, .. } if num_nodes == nodes));
    }
}

#[test]
fn redefining_a_view_at_the_same_revision_is_not_served_the_old_answer() {
    // The rewriting only names view symbols; the cache key has to know which
    // relations they stand for.
    let mut engine = engine_with_views(community_db(), EngineConfig::default());
    let snapshot = engine.publish_snapshot();
    let e1_only = complete_dfa("e1", snapshot.materialized_views().view_alphabet());
    let as_h = full(&snapshot, ReadRequest::full(&e1_only)).unwrap();
    assert_eq!(as_h, snapshot.eval_str("h"));

    engine.register_view("e1", regexlang::parse("g").unwrap());
    let redefined = engine.publish_snapshot();
    assert_eq!(redefined.revision(), snapshot.revision(), "no edge changed");
    let as_g = full(&redefined, ReadRequest::full(&e1_only)).unwrap();
    assert_eq!(as_g, redefined.eval_str("g"));
    assert_ne!(as_g, as_h);
    // The pinned snapshot still reads its own view set.
    assert_eq!(full(&snapshot, ReadRequest::full(&e1_only)).unwrap(), as_h);
}
