//! Budget, error-path, and snapshot-retention suite: the engine half of
//! the serving-layer hardening.  The load-bearing invariants:
//!
//! * an *unlimited* budget is answer-identical to the unbudgeted API
//!   (sequential and forced-parallel),
//! * a tripped budget surfaces as the matching [`EngineError`] with a
//!   partial-work count — and never poisons the answer cache,
//! * a tripped budget during mutation repair degrades (drops the cached
//!   extension) without ever corrupting answers,
//! * the engine holds only the snapshot it published: `retained_snapshots()`
//!   yields that one and nothing between a mutation and the next publish,
//!   a replaced snapshot no reader holds is freed, and a window of the last
//!   K snapshots lives exactly as long as a reader pins it,
//! * every `try_*` mutation rejects bad input atomically, and
//!   `EngineConfig::validate` rejects each degenerate knob.

use std::sync::Arc;
use std::time::Duration;

use automata::Alphabet;
use engine::{
    EngineConfig, EngineError, Mutation, Query, QueryBudget, QueryEngine, ReadOutcome, ReadRequest,
    WriteRequest,
};
use graphdb::{Answer, GraphDb};

fn abc() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c']).unwrap()
}

/// An `a`-chain with a `b`-cycle closing it: rich enough that `a*` has a
/// quadratic extension while staying fast to evaluate unbudgeted.
fn chain_db(n: usize) -> GraphDb {
    let mut db = GraphDb::new(abc());
    for i in 0..n {
        db.add_edge_named(&format!("v{i}"), "a", &format!("v{}", i + 1));
    }
    db.add_edge_named(&format!("v{n}"), "b", "v0");
    db
}

/// A full read of `query` under `budget` on the current snapshot.
fn read<'a>(
    engine: &mut QueryEngine,
    query: impl Into<Query<'a>>,
    budget: &QueryBudget,
) -> Result<Arc<Answer>, EngineError> {
    let request = ReadRequest::full(query).budget(budget.clone());
    match engine.publish_snapshot().try_eval(&request)? {
        ReadOutcome::Answer(answer) => Ok(answer),
        other => panic!("a full-shape read yields an answer, not {other:?}"),
    }
}

/// Four workers, whatever the host has.
fn forced_parallel() -> EngineConfig {
    EngineConfig { threads: 4, ..EngineConfig::default() }
}

/// The shortest chain whose graph (`chain_db` adds one node) a full read
/// sweeps on the pool: 256 nodes.
const POOL_CHAIN: usize = 255;

// ---------------------------------------------------------------------------
// Differential: unlimited budgets change nothing

#[test]
fn unlimited_budget_is_answer_identical_sequential_and_parallel() {
    let queries = ["a*", "a·(b·a)?", "b+a·a", "ε", "∅", "(a+b)*"];
    let arms = [(EngineConfig::default(), 150, false), (forced_parallel(), POOL_CHAIN, true)];
    for (config, n, pooled) in arms {
        let mut budgeted = QueryEngine::with_config(chain_db(n), config.clone());
        let mut plain = QueryEngine::with_config(chain_db(n), config);
        for q in queries {
            let via_budget = read(&mut budgeted, q, &QueryBudget::unlimited()).unwrap();
            let parsed = regexlang::parse(q).unwrap();
            let via_try = read(&mut budgeted, &parsed, &QueryBudget::unlimited()).unwrap();
            let unbudgeted = plain.publish_snapshot().eval_str(q);
            assert_eq!(*via_budget, *unbudgeted, "{q}");
            assert_eq!(*via_try, *unbudgeted, "{q}");
        }
        // Unlimited budgets take the check-free fast path: no interrupts.
        assert_eq!(budgeted.stats().budget_interrupted_evals, 0);
        assert_eq!(budgeted.stats().parallel_evals > 0, pooled);
    }
}

// ---------------------------------------------------------------------------
// Tripping each limit

#[test]
fn expired_deadline_reports_deadline_exceeded() {
    let mut engine = QueryEngine::with_config(chain_db(400), forced_parallel());
    let budget = QueryBudget::with_timeout(Duration::from_millis(0));
    let err = read(&mut engine, "a*", &budget).unwrap_err();
    assert!(matches!(err, EngineError::DeadlineExceeded { .. }), "{err}");
    assert_eq!(err.code(), "deadline_exceeded");
    assert!(err.is_budget_interrupt());
    assert!(engine.stats().budget_interrupted_evals >= 1);
}

#[test]
fn visit_cap_reports_visit_budget_exceeded_with_partial_work() {
    let mut engine = QueryEngine::new(chain_db(400));
    let budget = QueryBudget::unlimited().max_visited(10);
    match read(&mut engine, "a*", &budget).unwrap_err() {
        EngineError::VisitBudgetExceeded { visited } => {
            assert!(visited > 0, "partial-work count must be reported");
        }
        other => panic!("expected VisitBudgetExceeded, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// Cache consistency after interrupts

#[test]
fn interrupted_answers_are_never_cached() {
    let arms = [(EngineConfig::default(), 200, false), (forced_parallel(), POOL_CHAIN, true)];
    for (config, n, pooled) in arms {
        let mut engine = QueryEngine::with_config(chain_db(n), config.clone());
        let tight = QueryBudget::unlimited().max_visited(5);
        for _ in 0..3 {
            read(&mut engine, "a*", &tight).unwrap_err();
        }
        // The partial sweeps left nothing behind: the next evaluation is a
        // cache miss whose answer equals a fresh engine's.
        let healed = read(&mut engine, "a*", &QueryBudget::unlimited()).unwrap();
        let mut fresh = QueryEngine::with_config(chain_db(n), config);
        assert_eq!(*healed, *fresh.publish_snapshot().eval_str("a*"));
        let stats = engine.stats();
        assert_eq!(stats.answer_hits, 0, "no interrupted answer may be served from cache");
        assert_eq!(stats.parallel_evals > 0, pooled);
        // A repeat of the healed query *is* now a hit — budgets don't
        // disable caching, they only keep partial answers out.
        let again = read(&mut engine, "a*", &tight).unwrap();
        assert_eq!(*again, *healed);
        assert_eq!(engine.stats().answer_hits, 1);
    }
}

// ---------------------------------------------------------------------------
// Budgeted mutations degrade instead of failing

#[test]
fn tripped_repair_budget_drops_extensions_but_stays_correct() {
    let mut engine = QueryEngine::with_config(chain_db(POOL_CHAIN), forced_parallel());
    engine.register_view("star", regexlang::parse("a*").unwrap());
    assert!(engine.view_extension("star").is_some());
    assert_eq!(engine.stats().parallel_evals, 1, "materialized on the pool");

    // The mutation itself must apply even though its repair budget is
    // hopeless (the insertion repair polls the deadline per delta edge);
    // the cached extension is dropped rather than left stale.
    let expired = QueryBudget::with_timeout(Duration::from_millis(0));
    let batch = [("v0", "c", "v5"), ("v200", "a", "w0")];
    engine
        .try_apply(&WriteRequest::new(Mutation::AddEdgesNamed(&batch)).budget(expired.clone()))
        .unwrap();
    assert!(engine.stats().repair_budget_drops >= 1, "drop must be counted");

    // Re-materialization is exact: differential against a fresh engine
    // over the same final graph.
    let repaired = engine.view_extension("star").unwrap().clone();
    let mut fresh = QueryEngine::new(chain_db(POOL_CHAIN));
    fresh.try_add_edges_named(&[("v0", "c", "v5"), ("v200", "a", "w0")]).unwrap();
    assert_eq!(repaired, *fresh.publish_snapshot().eval_str("a*"));

    // Deletion path: same degradation contract.
    engine.try_remove_edges_named(&[("v0", "a", "v1")]).unwrap();
    let drops_before = engine.stats().repair_budget_drops;
    engine
        .try_apply(
            &WriteRequest::new(Mutation::AddEdgesNamed(&[("v0", "a", "v1")]))
                .budget(QueryBudget::unlimited()),
        )
        .unwrap();
    // Unlimited budgets never drop.
    assert_eq!(engine.stats().repair_budget_drops, drops_before);
}

#[test]
fn budgeted_deletion_repair_degrades_and_heals() {
    let expired = QueryBudget::with_timeout(Duration::from_millis(0));
    let a = automata::Symbol(0);
    let mut fresh = QueryEngine::new(chain_db(POOL_CHAIN));
    fresh.remove_edge(0, a, 1);
    let expected = fresh.publish_snapshot().eval_str("a*");

    // v0 -a-> v1, by id and by name: the two spellings degrade alike.
    let (by_id, by_name) = ([(0, a, 1)], [("v0", "a", "v1")]);
    for removal in [Mutation::RemoveEdges(&by_id), Mutation::RemoveEdgesNamed(&by_name)] {
        let mut engine = QueryEngine::with_config(chain_db(POOL_CHAIN), forced_parallel());
        engine.register_view("star", regexlang::parse("a*").unwrap());
        engine.view_extension("star");
        assert_eq!(engine.stats().parallel_evals, 1, "materialized on the pool");

        engine.try_apply(&WriteRequest::new(removal).budget(expired.clone())).unwrap();
        assert!(engine.stats().repair_budget_drops >= 1, "{removal:?}");

        let healed = engine.view_extension("star").unwrap().clone();
        assert_eq!(healed, *expected, "{removal:?}");

        // A registration repairs nothing, so a hopeless budget degrades
        // nothing: the view set changes, no extension is dropped, and the
        // new view reads back exact.
        let drops = engine.stats().repair_budget_drops;
        let definition = regexlang::parse("a·a").unwrap();
        let register = Mutation::RegisterView { name: "two", definition: &definition };
        engine.try_apply(&WriteRequest::new(register).budget(expired.clone())).unwrap();
        assert_eq!(engine.stats().repair_budget_drops, drops);
        let two = fresh.publish_snapshot().eval_str("a·a");
        assert_eq!(*engine.view_extension("two").unwrap(), *two);
        assert_eq!(*engine.view_extension("star").unwrap(), *expected);
    }
}

// ---------------------------------------------------------------------------
// Snapshot retention

/// A sliding window of the last K snapshots is something readers keep by
/// holding their `Arc`s, not something the engine keeps for them: with a
/// reader pinning the last 3 published snapshots on the serving preset,
/// exactly those 3 stay alive, every older one is freed as soon as the
/// reader lets go of it, and the engine itself retains only the newest.
#[test]
fn keep_last_k_retains_a_sliding_window() {
    const K: usize = 3;
    let mut engine = QueryEngine::with_config(GraphDb::new(abc()), EngineConfig::serving());
    let mut window = std::collections::VecDeque::new();
    for i in 0..6 {
        let (from, to) = (format!("x{i}"), format!("x{}", i + 1));
        engine.try_add_edges_named(&[(from.as_str(), "a", to.as_str())]).unwrap();
        window.push_back(engine.publish_snapshot());
        if window.len() > K {
            let weak = Arc::downgrade(&window.pop_front().unwrap());
            assert!(weak.upgrade().is_none(), "the engine kept a snapshot the window dropped");
        }
    }
    let pinned: Vec<u64> = window.iter().map(|s| s.revision()).collect();
    assert_eq!(pinned, vec![4, 5, 6], "oldest-first window of the last 3 revisions");
    let retained: Vec<u64> = engine.retained_snapshots().map(|s| s.revision()).collect();
    assert_eq!(retained, vec![6], "the engine holds only the snapshot it published");
    assert!(Arc::ptr_eq(engine.retained_snapshots().next().unwrap(), window.back().unwrap()));
}

/// With no reader pinning anything, the engine retains no snapshot but the
/// one it published: none before the first publish, none between a
/// mutation and the next publish, exactly the published one after it, and a
/// snapshot it replaced is freed once its last reader drops it.
#[test]
fn zero_keep_last_retains_nothing() {
    let mut engine = QueryEngine::with_config(GraphDb::new(abc()), EngineConfig::serving());
    assert_eq!(engine.retained_snapshots().count(), 0, "nothing published yet");
    let mut reader = None;
    for i in 0..3 {
        let (from, to) = (format!("x{i}"), format!("x{}", i + 1));
        engine.try_add_edges_named(&[(from.as_str(), "a", to.as_str())]).unwrap();
        assert_eq!(engine.retained_snapshots().count(), 0, "a mutation retires the snapshot");
        let published = engine.publish_snapshot();
        let retained: Vec<_> = engine.retained_snapshots().collect();
        assert_eq!(retained.len(), 1);
        assert!(Arc::ptr_eq(retained[0], &published));
        assert_eq!(published.revision(), i + 1);

        // The reader lets go of the snapshot this publish replaced.
        if let Some(replaced) = reader.replace(published) {
            let weak = Arc::downgrade(&replaced);
            drop(replaced);
            assert!(weak.upgrade().is_none(), "the engine kept revision {i} alive");
        }
    }
}

// ---------------------------------------------------------------------------
// Strict configuration validation

#[test]
fn validate_rejects_each_degenerate_knob() {
    for (knob, config) in [
        ("threads", EngineConfig { threads: 0, ..EngineConfig::default() }),
        (
            "answer_cache_capacity",
            EngineConfig { threads: 1, answer_cache_capacity: 0 },
        ),
    ] {
        let err = config.validate().unwrap_err();
        assert_eq!(err.code(), "invalid_config", "{knob}");
        assert!(err.to_string().contains(knob), "{knob} must be named in: {err}");
    }
    // The serving preset passes, and an engine is built on it as a server
    // builds one: validated, then `with_config`.
    assert!(EngineConfig::serving().validate().is_ok());
    let _ = QueryEngine::with_config(GraphDb::new(abc()), EngineConfig::serving());
    // The permissive constructor still honors the documented degenerate
    // semantics (threads: 0 = auto) for tests and embedded use.
    let _ = QueryEngine::with_config(GraphDb::new(abc()), EngineConfig::default());
}

// ---------------------------------------------------------------------------
// try_* mutation and query error paths

#[test]
fn try_eval_str_surfaces_parse_and_label_errors() {
    let mut engine = QueryEngine::new(chain_db(5));
    let parse_err = read(&mut engine, "a·(b", &QueryBudget::unlimited()).unwrap_err();
    assert_eq!(parse_err.code(), "parse_error");
    let label_err = read(&mut engine, "z*", &QueryBudget::unlimited()).unwrap_err();
    assert_eq!(label_err.code(), "unknown_label");
    assert!(label_err.to_string().contains("`z`"), "{label_err}");
}

#[test]
fn bad_batches_are_rejected_atomically() {
    let mut engine = QueryEngine::new(chain_db(5));
    engine.register_view("v", regexlang::parse("a·a").unwrap());
    assert_eq!(read(&mut engine, "a·a", &QueryBudget::unlimited()).unwrap().len(), 4);
    let before = engine.revision();
    let published = engine.publish_snapshot();
    let (edges, cached, stats) = (engine.db().num_edges(), engine.answer_cache_len(), engine.stats());
    // Rejected means untouched: revision, database, view set (the published
    // snapshot is still the current one), caches and counters.
    let assert_untouched = |engine: &mut QueryEngine, what: &str| {
        assert_eq!(engine.revision(), before, "{what}");
        assert_eq!((engine.db().num_edges(), engine.db().num_nodes()), (edges, 6), "{what}");
        assert_eq!(engine.view_names().collect::<Vec<_>>(), ["v"], "{what}");
        assert!(Arc::ptr_eq(&engine.publish_snapshot(), &published), "{what}");
        assert_eq!((engine.answer_cache_len(), engine.stats()), (cached, stats), "{what}");
    };

    // Insertion: second triple has an unknown label — nothing applies,
    // including the would-be-new node of the first triple.
    let err = engine.try_add_edges_named(&[("new", "a", "v0"), ("v1", "z", "v2")]).unwrap_err();
    assert_eq!(err.code(), "unknown_label");
    assert_untouched(&mut engine, "named insertion");
    // ... and by id: the second triple's endpoint does not exist.
    let a = automata::Symbol(0);
    let err = engine
        .try_apply(&WriteRequest::new(Mutation::AddEdges(&[(0, a, 2), (1, a, 99)])))
        .unwrap_err();
    assert_eq!(err.code(), "node_out_of_range");
    assert_untouched(&mut engine, "insertion by id");
    // A removal by id is validated the same way, before its tally.
    let err = engine
        .try_apply(&WriteRequest::new(Mutation::RemoveEdges(&[(0, a, 1), (1, a, 99)])))
        .unwrap_err();
    assert_eq!(err.code(), "node_out_of_range");
    assert_untouched(&mut engine, "removal by id");

    // Removal: more occurrences requested than present — nothing applies.
    let err = engine
        .try_remove_edges_named(&[("v0", "a", "v1"), ("v0", "a", "v1")])
        .unwrap_err();
    match &err {
        EngineError::EdgeNotPresent { requested, present, .. } => {
            assert_eq!((*requested, *present), (2, 1));
        }
        other => panic!("expected EdgeNotPresent, got {other}"),
    }
    assert_untouched(&mut engine, "named removal");

    // Unknown node name on removal, after a triple that would have applied.
    let err = engine
        .try_remove_edges_named(&[("v0", "a", "v1"), ("nobody", "a", "v1")])
        .unwrap_err();
    assert_eq!(err.code(), "unknown_node");
    assert_untouched(&mut engine, "named removal of an unknown node");

    // A view definition over a label the domain lacks: neither registered
    // nor — under an existing name — replacing what is there.
    let definition = regexlang::parse("a·z").unwrap();
    for name in ["w", "v"] {
        let register = Mutation::RegisterView { name, definition: &definition };
        let err = engine.try_apply(&WriteRequest::new(register)).unwrap_err();
        assert_eq!(err.code(), "unknown_label");
        assert_untouched(&mut engine, "view registration");
    }
    assert_eq!(read(&mut engine, "a·a", &QueryBudget::unlimited()).unwrap().len(), 4);
}
