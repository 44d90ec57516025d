//! One table for the one read path: every way of asking —
//! `Shape::{Full, From, Pair}` × {unlimited, never-tripping, tripping}
//! budget × {untraced, traced}, through `try_eval` or a convenience wrapper
//! on a snapshot — gives what sequential
//! `graphdb::eval_csr` gives, restricted to the shape.  A budget that trips
//! returns its own error and leaves the caches as they were.  The same table
//! holds for a Σ_E automaton read over the views, where the oracle is the
//! *untrimmed* automaton swept over a view graph built edge by edge.
//!
//! Query texts are the ones the existing differential suites use
//! (`interactive.rs`, `budget.rs`) plus rendered `random_regex` draws
//! (`differential.rs`).

use std::sync::Arc;
use std::time::Duration;

use automata::{Alphabet, DenseNfa, Dfa};
use engine::{
    EngineConfig, EngineSnapshot, EngineStats, Mutation, Query, QueryBudget, QueryEngine,
    ReadOutcome, ReadRequest, Shape, TraceContext, WriteRequest,
};
use graphdb::{eval_csr, random_graph, Answer, GraphDb, NodeId, RandomGraphConfig, Reachable};
use regexlang::{random_regex, RandomRegexConfig};

const TEXTS: &[&str] = &[
    "a", "a·b", "c*", "(a+b)*·c", "a·(b+c)*", "a+b·c?", // interactive.rs
    "a*", "a·(b·a)?", "b+a·a", "ε", "∅", "(a+b)*", // budget.rs
];

/// A star over seventeen `a`s.  Its position automaton is a 17-cycle no two
/// states of which the compile funnel can merge (each is a different distance
/// from acceptance), and 17 is coprime to the 300 nodes of a [`wide_db`]
/// cycle, so one source's sweep expands 17 · 300 product states: past the
/// 4096-pop check interval, so a tripping budget really trips, in every
/// shape.  (Sixteen starred factors `a*·a*·…` did this for Thompson
/// automata; merged, they are the one state of `a*`.)
const WIDE: &str = "(a·a·a·a·a·a·a·a·a·a·a·a·a·a·a·a·a)*";

fn abc() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c']).unwrap()
}

/// Two disjoint `a`-cycles of `n` nodes (`0..n` and `n..2n`): within one,
/// every node reaches every node; across them a pair search has to exhaust a
/// whole cone before it can say no.
fn wide_db(n: usize) -> GraphDb {
    let domain = abc();
    let a = domain.symbol("a").unwrap();
    let mut db = GraphDb::new(domain);
    let nodes: Vec<NodeId> = (0..2 * n).map(|_| db.add_node()).collect();
    for cycle in nodes.chunks(n) {
        for i in 0..n {
            db.add_edge(cycle[i], a, cycle[(i + 1) % n]);
        }
    }
    db
}

/// The node count from which a full read sweeps on the engine's pool.
const POOL_NODES: usize = 256;

/// `db` with isolated nodes appended up to [`POOL_NODES`], so that a full
/// read over it runs on the pool.
fn padded_to_the_pool(mut db: GraphDb) -> GraphDb {
    while db.num_nodes() < POOL_NODES {
        db.add_node();
    }
    db
}

fn oracle(db: &GraphDb, text: &str) -> Answer {
    let expr = regexlang::parse(text).expect("query parses");
    let nfa = regexlang::thompson(&expr, db.domain()).expect("query over the domain");
    eval_csr(&db.csr_out(), &DenseNfa::from_nfa(&nfa))
}

fn row(oracle: &Answer, source: NodeId) -> Vec<NodeId> {
    oracle.iter().filter(|&&(s, _)| s == source).map(|&(_, t)| t).collect()
}

/// `(label, budget, the error code it reports when it trips)`, tripping
/// budgets first so they meet cold caches.
fn budgets() -> Vec<(&'static str, QueryBudget, Option<&'static str>)> {
    vec![
        ("visit cap 1", QueryBudget::unlimited().max_visited(1), Some("visit_budget_exceeded")),
        ("expired", QueryBudget::with_timeout(Duration::ZERO), Some("deadline_exceeded")),
        ("roomy", QueryBudget::unlimited().max_visited(u64::MAX), None),
        ("unlimited", QueryBudget::unlimited(), None),
    ]
}

/// The oracle's answer restricted to `shape` admits `outcome`.
fn assert_matches_oracle(outcome: &ReadOutcome, shape: Shape, oracle: &Answer, ctx: &str) {
    match (shape, outcome) {
        (Shape::Full, ReadOutcome::Answer(answer)) => assert_eq!(**answer, *oracle, "{ctx}"),
        (Shape::Pair { source, target }, ReadOutcome::Connected(connected)) => {
            assert_eq!(*connected, oracle.contains(&(source, target)), "{ctx}")
        }
        (Shape::From { source, limit }, ReadOutcome::Reachable(Reachable { targets, complete })) => {
            let row = row(oracle, source);
            let k = limit.unwrap_or(usize::MAX);
            if k >= row.len() {
                assert_eq!(*targets, row, "{ctx}");
            } else {
                assert_eq!(targets.len(), k, "{ctx}");
                assert!(targets.windows(2).all(|w| w[0] < w[1]), "{ctx}: sorted, distinct");
                assert!(targets.iter().all(|t| row.contains(t)), "{ctx}: genuine answers");
            }
            // At k == |row| a fresh search stops on the k-th target without
            // learning it was the last; a cache-served row knows it was.
            if k != row.len() {
                assert_eq!(*complete, k > row.len(), "{ctx}");
            }
        }
        (shape, outcome) => panic!("{ctx}: {shape:?} yielded {outcome:?}"),
    }
}

fn hits(stats: &EngineStats) -> (u64, u64, u64) {
    (stats.answer_hits, stats.point_hits, stats.point_extension_hits)
}

/// Runs one shape through every budget × {untraced, traced}; returns how many
/// requests tripped.
fn check_shape(
    engine: &QueryEngine,
    snapshot: &EngineSnapshot,
    (text, query): (&str, Query<'_>),
    shape: Shape,
    oracle: &Answer,
) -> usize {
    let mut tripped = 0;
    for (label, budget, trip_code) in budgets() {
        for traced in [false, true] {
            let ctx = format!("{text} {shape:?} budget {label} traced {traced}");
            let trace = TraceContext::new(1);
            let request = ReadRequest {
                query,
                shape,
                budget: budget.clone(),
                trace: traced.then_some(&trace),
            };
            let (before, resident) = (engine.stats(), engine.answer_cache_len());
            match snapshot.try_eval(&request) {
                Ok(outcome) => {
                    assert_matches_oracle(&outcome, shape, oracle, &ctx);
                    assert_eq!(traced, !trace.spans().is_empty(), "{ctx}");
                }
                Err(e) => {
                    assert_eq!(Some(e.code()), trip_code, "{ctx}: {e}");
                    assert!(e.is_budget_interrupt(), "{ctx}");
                    // Nothing partial was admitted and nothing was served.
                    let after = engine.stats();
                    assert_eq!(hits(&after), hits(&before), "{ctx}");
                    assert_eq!(engine.answer_cache_len(), resident, "{ctx}");
                    assert_eq!(
                        after.budget_interrupted_evals,
                        before.budget_interrupted_evals + 1,
                        "{ctx}"
                    );
                    tripped += 1;
                }
            }
        }
    }
    tripped
}

/// Every shape of `text` over `db`, point shapes first (a resident full
/// answer would serve them without running their kernels), then the
/// wrappers.  Returns the trips per shape kind.  With more than one thread
/// the engine reads `db` padded to the pool, and its full reads must run
/// there; the point shapes stay among `db`'s own nodes.
fn check_text(db: &GraphDb, config: EngineConfig, text: &str, sources: &[NodeId]) -> [usize; 3] {
    let n = db.num_nodes();
    let pooled = config.threads > 1;
    let db = if pooled { padded_to_the_pool(db.clone()) } else { db.clone() };
    let oracle = oracle(&db, text);
    let mut engine = QueryEngine::with_config(db, config);
    let snapshot = engine.publish_snapshot();
    let query = (text, Query::Text(text));
    let mut tripped = [0; 3];
    for &source in sources {
        for target in [source, (source + 1) % n, n - 1 - source] {
            let shape = Shape::Pair { source, target };
            tripped[0] += check_shape(&engine, &snapshot, query, shape, &oracle);
            let wrapped = snapshot.eval_pair_str(text, source, target);
            assert_eq!(wrapped, oracle.contains(&(source, target)), "{text} ({source},{target})");
        }
    }
    for &source in sources {
        let known = row(&oracle, source).len();
        // The complete drain goes last: once it is resident, every limit is
        // served from it.
        for limit in [Some(0), Some(1), Some(known), Some(known + 1), None] {
            let shape = Shape::From { source, limit };
            // Until the drain is cached, a retry after a trip searches afresh.
            let before = engine.stats();
            let trips = check_shape(&engine, &snapshot, query, shape, &oracle);
            if trips > 0 {
                assert!(engine.stats().from_evals > before.from_evals + trips as u64, "{text}");
            }
            tripped[1] += trips;
            let wrapped = snapshot.eval_from_str(text, source, limit);
            let outcome = ReadOutcome::Reachable(wrapped);
            assert_matches_oracle(&outcome, shape, &oracle, &format!("{text} eval_from_str"));
        }
    }
    tripped[2] = check_shape(&engine, &snapshot, query, Shape::Full, &oracle);

    // The kept conveniences are `try_eval` by another name, for both query
    // forms.
    let parsed = regexlang::parse(text).unwrap();
    let Ok(ReadOutcome::Answer(via_request)) = snapshot.try_eval(&ReadRequest::full(&parsed))
    else {
        panic!("{text}: full read failed");
    };
    assert_eq!(*via_request, oracle, "{text}");
    assert!(Arc::ptr_eq(&via_request, &snapshot.eval_str(text)), "{text}");
    assert!(Arc::ptr_eq(&via_request, &snapshot.eval_regex(&parsed)), "{text}");
    if pooled {
        assert!(engine.stats().parallel_evals > 0, "{text}: no full read ran on the pool");
    }
    tripped
}

#[test]
fn every_spelling_of_a_read_agrees_with_the_sequential_oracle() {
    let domain = abc();
    let forced_pool = EngineConfig { threads: 3, ..EngineConfig::default() };
    let mut cases = 0;
    for seed in 0..4u64 {
        let nodes = 8 + seed as usize * 3;
        let graph = RandomGraphConfig { num_nodes: nodes, num_edges: nodes * 2 };
        let db = random_graph(&domain, &graph, seed ^ 0x51ab);
        let drawn: Vec<String> = (0..3)
            .map(|i| {
                let config = RandomRegexConfig { target_size: 9, ..Default::default() };
                random_regex(&domain, &config, seed * 101 + i).to_string()
            })
            .collect();
        let config = if seed % 2 == 0 { EngineConfig::default() } else { forced_pool.clone() };
        for text in TEXTS.iter().copied().chain(drawn.iter().map(String::as_str)) {
            check_text(&db, config.clone(), text, &[0, nodes / 2, nodes - 1]);
            cases += 1;
        }
    }
    assert!(cases >= 60, "only {cases} (graph, query) rows ran");

    // Large enough for every tripping budget to trip in every shape.
    for config in [EngineConfig::default(), forced_pool] {
        let tripped = check_text(&wide_db(300), config, WIDE, &[0]);
        // 2 tripping budgets × {untraced, traced} = 4 trips per request that
        // does enough work: the cross-cycle pair, the two draining `from`
        // limits, the full sweep.
        let [pair, from, full] = tripped;
        assert!(pair >= 4 && from >= 8 && full == 4, "trips per shape: {tripped:?}");
    }
}

/// Figure 1's views, and Σ_E languages over them: its exact rewriting, parts
/// of it, everything, nothing, and the empty word.
const VIEWS: [(&str, &str); 3] = [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")];
const OVER_VIEWS: &[&str] =
    &["e2*·e1·e3*", "e1", "e1·e3*", "e2·e1?", "e3·e3", "(e1+e2+e3)*", "∅", "ε"];

/// `text` as a rewriting comes out of Theorem 2.2: a complete DFA over Σ_E.
fn complete_dfa(text: &str, sigma_e: &Alphabet) -> Dfa {
    let nfa = regexlang::thompson(&regexlang::parse(text).unwrap(), sigma_e).unwrap();
    automata::determinize(&nfa)
}

/// What answering from views means, with none of the engine in it: each
/// extension from [`oracle`], the view graph from one `add_edge` per tuple,
/// and the automaton swept with its sink left in.
fn over_views_oracle(model: &GraphDb, rewriting: &Dfa) -> Answer {
    let sigma_e = rewriting.alphabet().clone();
    let mut view_graph = GraphDb::new(sigma_e.clone());
    for _ in 0..model.num_nodes() {
        view_graph.add_node();
    }
    for ((_, definition), symbol) in VIEWS.iter().zip(sigma_e.symbols()) {
        for &(x, y) in oracle(model, definition).iter() {
            view_graph.add_edge(x, symbol, y);
        }
    }
    let untrimmed = DenseNfa::from_dfa(rewriting);
    eval_csr(&view_graph.csr_out(), &untrimmed)
}

#[test]
fn over_views_reads_agree_with_the_untrimmed_oracle_across_mutations() {
    let domain = abc();
    let sigma_e = Alphabet::from_names(VIEWS.map(|(name, _)| name)).unwrap();
    let rewritings: Vec<Dfa> = OVER_VIEWS.iter().map(|t| complete_dfa(t, &sigma_e)).collect();
    let forced_pool = EngineConfig { threads: 3, ..EngineConfig::default() };
    for seed in 0..4u64 {
        let n = 8 + seed as usize * 2;
        let graph = RandomGraphConfig { num_nodes: n, num_edges: n * 2 };
        let mut model = random_graph(&domain, &graph, seed ^ 0x0e1f);
        // The pooled engine's graph is padded to the pool; the reads below
        // stay among the random part's `n` nodes.
        let pooled = seed % 2 == 1;
        let config = if pooled { forced_pool.clone() } else { EngineConfig::default() };
        if pooled {
            model = padded_to_the_pool(model);
        }
        let mut engine = QueryEngine::with_config(model.clone(), config);
        for (name, definition) in VIEWS {
            engine.register_view(name, regexlang::parse(definition).unwrap());
        }

        // Revision 0, an insertion, a deletion: each changes e1's extension.
        let a = domain.symbol("a").unwrap();
        let inserted: Vec<_> = (0..3).map(|i| (i, a, n - 1 - i)).collect();
        let removed: Vec<_> = (0..n)
            .flat_map(|x| model.edges_from(x).map(move |(label, y)| (x, label, y)))
            .filter(|&(_, label, _)| label == a)
            .take(2)
            .collect();
        assert_eq!(removed.len(), 2, "seed {seed}: the random graph has a-edges");
        let mut pinned: Vec<(Arc<EngineSnapshot>, Vec<Answer>)> = Vec::new();
        for step in 0..3 {
            match step {
                1 => {
                    engine.try_apply(&WriteRequest::new(Mutation::AddEdges(&inserted))).unwrap();
                    inserted.iter().for_each(|&(x, label, y)| model.add_edge(x, label, y));
                }
                2 => {
                    engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&removed))).unwrap();
                    removed.iter().for_each(|&(x, l, y)| assert!(model.remove_edge(x, l, y)));
                }
                _ => {}
            }
            let snapshot = engine.publish_snapshot();
            if let Some((previous, _)) = pinned.last() {
                assert_ne!(snapshot.view_extension("e1"), previous.view_extension("e1"));
            }
            let oracles: Vec<Answer> =
                rewritings.iter().map(|r| over_views_oracle(&model, r)).collect();
            for ((text, rewriting), oracle) in OVER_VIEWS.iter().zip(&rewritings).zip(&oracles) {
                let query = (*text, Query::OverViews(rewriting));
                // Point shapes first: a resident full answer would serve them.
                for source in [0, n / 2, n - 1] {
                    for target in [source, (source + 1) % n, n - 1 - source] {
                        let shape = Shape::Pair { source, target };
                        check_shape(&engine, &snapshot, query, shape, oracle);
                    }
                    for limit in [Some(1), None] {
                        let shape = Shape::From { source, limit };
                        check_shape(&engine, &snapshot, query, shape, oracle);
                    }
                }
                // Full is the union of the From rows and every Pair verdict —
                // asked before the full answer is resident to serve them.
                for source in 0..n {
                    for target in 0..n {
                        let pair = ReadRequest::pair(rewriting, source, target);
                        let outcome = snapshot.try_eval(&pair).unwrap();
                        assert_matches_oracle(&outcome, pair.shape, oracle, text);
                    }
                }
                for source in 0..n {
                    let from = ReadRequest::from(rewriting, source, None);
                    let outcome = snapshot.try_eval(&from).unwrap();
                    assert_matches_oracle(&outcome, from.shape, oracle, text);
                }
                check_shape(&engine, &snapshot, query, Shape::Full, oracle);
            }
            pinned.push((snapshot, oracles));
            // Every pinned snapshot keeps reading the view graph of its own
            // revision, whatever the writer did since.
            for (old, old_oracles) in &pinned {
                for (rewriting, oracle) in rewritings.iter().zip(old_oracles) {
                    let full = ReadRequest::full(rewriting);
                    let outcome = old.try_eval(&full).unwrap();
                    assert_matches_oracle(&outcome, full.shape, oracle, "pinned");
                    let row = ReadRequest::from(rewriting, 0, None);
                    assert_matches_oracle(&old.try_eval(&row).unwrap(), row.shape, oracle, "pinned");
                    let pair = ReadRequest::pair(rewriting, 0, n - 1);
                    assert_matches_oracle(&old.try_eval(&pair).unwrap(), pair.shape, oracle, "pinned");
                }
            }
        }
        if pooled {
            assert!(engine.stats().parallel_evals > 0, "seed {seed}: nothing ran on the pool");
        }
    }
}
