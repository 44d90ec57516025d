//! Differential suite pinning the engine's fast paths to the reference
//! implementations:
//!
//! * **parallel vs sequential**: `eval_csr_parallel_breakdown` (on multiple
//!   workers regardless of the host's core count) must be answer-identical
//!   to `eval_csr` on randomized (database, query) cases;
//! * **incremental vs from-scratch**: after each randomized edge insertion,
//!   every cached view extension repaired by delta product-BFS must equal a
//!   full re-materialization on the updated database, and ad-hoc engine
//!   answers must equal direct `graphdb` evaluation;
//! * **the compile funnel vs Thompson**: what `try_eval` answers — through
//!   the merged position automaton and the kernels that never queue a state
//!   that reads nothing — equals `eval_csr` on the untouched
//!   `DenseNfa::from_nfa(&thompson(..))`, in every shape, and the compiled
//!   automaton is language-equal to Thompson's and no larger than the
//!   position automaton.
//!
//! Together the loops below exercise well over 200 randomized
//! (db, query, edge-insertion) cases; counts are asserted at the end of
//! each test so the coverage cannot silently erode.

use automata::{nfa_equivalent, Alphabet, DenseNfa};
use engine::{
    eval_csr_parallel_breakdown, CompileCache, EngineConfig, Mutation, QueryEngine, ReadOutcome,
    ReadRequest, WriteRequest,
};
use graphdb::{eval_csr, random_graph, GraphDb, NodeId, RandomGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regexlang::{random_regex, RandomRegexConfig, Regex};

fn abc() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c']).unwrap()
}

fn random_query(domain: &Alphabet, seed: u64) -> Regex {
    random_regex(
        domain,
        &RandomRegexConfig {
            target_size: 9,
            ..Default::default()
        },
        seed,
    )
}

/// The node count from which a sweep of every source runs on the pool.
const POOL_NODES: usize = 256;

/// A random graph of `nodes` nodes and `edges` edges, with isolated nodes
/// appended up to [`POOL_NODES`] so that a sweep of it runs on the pool; the
/// random part keeps the ids `0..nodes`.
fn pooled_random_graph(domain: &Alphabet, nodes: usize, edges: usize, seed: u64) -> GraphDb {
    let config = RandomGraphConfig { num_nodes: nodes, num_edges: edges };
    let mut db = random_graph(domain, &config, seed);
    while db.num_nodes() < POOL_NODES {
        db.add_node();
    }
    db
}

/// The reference automaton: Thompson's, frozen as is — neither the
/// position-automaton construction nor the quotient nor trimming touches it.
fn compile(db: &GraphDb, query: &Regex) -> DenseNfa {
    let nfa = regexlang::thompson(query, db.domain()).expect("query over the domain");
    DenseNfa::from_nfa(&nfa)
}

/// A query that stresses the compile funnel: over two or three labels, so a
/// symbol recurs at many positions; star-heavy, so stars nest and `?` and
/// `^+` pile up; ε-rich; and, every few cases, with `∅` spliced in where it
/// kills a branch, a factor, or nothing at all.
fn funnel_query(domain: &Alphabet, case: u64) -> Regex {
    let config = RandomRegexConfig {
        target_size: 4 + (case % 17) as usize,
        star_probability: 0.2 + (case % 4) as f64 * 0.1,
        epsilon_probability: 0.05 + (case % 3) as f64 * 0.1,
    };
    let drawn = |salt: u64| random_regex(domain, &config, case * 59 + salt);
    match case % 12 {
        0 => drawn(0).or(drawn(1)).or(drawn(2).or(drawn(3))), // unions of unions
        1 => drawn(0).star().optional().star().then(drawn(1).plus().star()),
        2 => drawn(0).or(Regex::empty().then(drawn(1))),
        3 => drawn(0).then(Regex::empty()).or(drawn(1)),
        4 => Regex::empty().star().then(drawn(0)),
        5 => drawn(0).then(drawn(1).then(Regex::empty()).or(drawn(2)).star()),
        6 if case % 24 == 6 => Regex::empty(),
        6 => Regex::epsilon(),
        _ => drawn(0),
    }
}

#[test]
fn the_compile_funnel_answers_like_thompson_in_every_shape() {
    let (mut cases, mut merged_some, mut trimmed_some, mut empty) = (0usize, 0, 0, 0);
    for case in 0..240u64 {
        let domain = Alphabet::from_chars("abc".chars().take(2 + (case % 2) as usize)).unwrap();
        let query = funnel_query(&domain, case);
        let thompson = regexlang::thompson(&query, &domain).expect("query over the domain");

        // Automata level: same language, never more states than positions.
        let positions = regexlang::glushkov_dense(&query, &domain).expect("query over the domain");
        let compiled = CompileCache::new().compile_regex(&domain, &query);
        assert!(
            nfa_equivalent(&compiled.to_nfa(), &thompson).holds(),
            "case {case}: {query} compiled to another language"
        );
        assert!(compiled.num_states() <= positions.num_states(), "case {case}: {query}");
        let live = positions.clone().trim().num_states();
        trimmed_some += usize::from(live < positions.num_states());
        merged_some += usize::from(compiled.num_states() < live);

        // Engine level: every shape of read against the untouched Thompson
        // automaton swept by `eval_csr`.
        let nodes = 6 + (case % 5) as usize * 7;
        let edges = nodes * (1 + case as usize % 3);
        let db = pooled_random_graph(&domain, nodes, edges, case ^ 0xf0e1);
        let oracle = eval_csr(&db.csr_out(), &DenseNfa::from_nfa(&thompson));
        empty += usize::from(oracle.is_empty());
        let threads = 1 + (case % 3) as usize;
        let config = EngineConfig { threads, ..EngineConfig::default() };
        let snapshot = QueryEngine::with_config(db, config).publish_snapshot();
        // Point shapes first: a resident full answer would serve them.
        for source in [0, nodes / 2, nodes - 1] {
            for target in [source, (source + 3) % nodes, nodes - 1 - source] {
                let outcome = snapshot.try_eval(&ReadRequest::pair(&query, source, target));
                let Ok(ReadOutcome::Connected(verdict)) = outcome else {
                    panic!("case {case}: {query} pair read gave {outcome:?}");
                };
                assert_eq!(
                    verdict,
                    oracle.contains(&(source, target)),
                    "case {case}: {query} ({source}, {target})"
                );
            }
            let outcome = snapshot.try_eval(&ReadRequest::from(&query, source, None));
            let Ok(ReadOutcome::Reachable(reached)) = outcome else {
                panic!("case {case}: {query} from read gave {outcome:?}");
            };
            let row: Vec<NodeId> =
                oracle.iter().filter(|&&(s, _)| s == source).map(|&(_, t)| t).collect();
            assert!(reached.complete, "case {case}: {query}");
            assert_eq!(reached.targets, row, "case {case}: {query} from {source}");
        }
        let outcome = snapshot.try_eval(&ReadRequest::full(&query));
        let Ok(ReadOutcome::Answer(answer)) = outcome else {
            panic!("case {case}: {query} full read gave {outcome:?}");
        };
        assert_eq!(*answer, oracle, "case {case}: {query}");
        let pooled = u64::from(threads > 1);
        assert_eq!(snapshot.stats().parallel_evals, pooled, "case {case}: {query}");
        cases += 1;
    }
    assert!(cases >= 200, "only {cases} funnel cases ran");
    assert!(merged_some >= 60, "only {merged_some} position automata had states to merge");
    assert!(trimmed_some >= 40, "only {trimmed_some} position automata had dead states");
    assert!(empty >= 10, "only {empty} empty answers");
}

#[test]
fn parallel_eval_matches_sequential_on_random_cases() {
    let domain = abc();
    let mut cases = 0usize;
    for seed in 0..50u64 {
        let nodes = 20 + (seed as usize % 5) * 10;
        let db = pooled_random_graph(&domain, nodes, nodes * 3, seed);
        let csr = db.csr_out();
        for qseed in 0..2u64 {
            let query = random_query(&domain, seed * 101 + qseed);
            let dense = compile(&db, &query);
            let sequential = eval_csr(&csr, &dense);
            for threads in [2, 4] {
                let (parallel, breakdown) = eval_csr_parallel_breakdown(&csr, &dense, threads);
                assert_eq!(
                    sequential, parallel,
                    "seed {seed} query {query} threads {threads}"
                );
                assert_eq!(breakdown.workers.len(), threads, "seed {seed}: not on the pool");
                cases += 1;
            }
        }
    }
    assert!(cases >= 200, "only {cases} parallel cases ran");
}

#[test]
fn incremental_maintenance_matches_full_rematerialization() {
    let domain = abc();
    let mut cases = 0usize;
    for seed in 0..70u64 {
        let nodes = 12 + (seed as usize % 4) * 6;
        let db = pooled_random_graph(&domain, nodes, nodes * 2, seed ^ 0xbeef);
        // Three workers even on a 1-core host, so the parallel
        // materialization path is the one under differential test too.
        let mut engine = QueryEngine::with_config(
            db,
            EngineConfig {
                threads: 3,
                ..EngineConfig::default()
            },
        );
        let view_a = random_query(&domain, seed * 7 + 1);
        let view_b = random_query(&domain, seed * 7 + 2);
        engine.register_view("va", view_a.clone());
        engine.register_view("vb", view_b.clone());
        engine.view_extension("va");
        engine.view_extension("vb");

        let mut rng = StdRng::seed_from_u64(seed * 31 + 5);
        for _ in 0..3 {
            let from = rng.gen_range(0..nodes);
            let to = rng.gen_range(0..nodes);
            let label = automata::Symbol(rng.gen_range(0..domain.len()) as u32);
            engine.add_edge(from, label, to);

            for (name, def) in [("va", &view_a), ("vb", &view_b)] {
                let repaired = engine.view_extension(name).unwrap().clone();
                let fresh = eval_csr(&engine.db().csr_out(), &compile(engine.db(), def));
                assert_eq!(
                    repaired, fresh,
                    "seed {seed} view {name} ({def}) after +({from},{label:?},{to})"
                );
                cases += 1;
            }
        }
        // Every extension came from one materialization (on the pool) +
        // repairs only.
        let stats = engine.stats();
        assert_eq!(stats.view_full_materializations, 2, "seed {seed}");
        assert_eq!(stats.parallel_evals, 2, "seed {seed}");
        assert_eq!(stats.view_delta_repairs, 6, "seed {seed}");
    }
    assert!(cases >= 200, "only {cases} incremental cases ran");
}

#[test]
fn repairs_agree_whether_views_materialize_on_one_thread_or_four() {
    // Two engines over identical databases and views, one materializing them
    // on a four-worker pool and one sequentially: after every insertion each
    // repaired extension must coincide.
    let domain = abc();
    let mut cases = 0usize;
    for seed in 0..40u64 {
        let nodes = 15 + (seed as usize % 4) * 5;
        let db = pooled_random_graph(&domain, nodes, nodes * 2, seed ^ 0xfeed);
        let mk_engine = |threads: usize| {
            QueryEngine::with_config(
                db.clone(),
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
            )
        };
        let mut sequential = mk_engine(1);
        let mut parallel = mk_engine(4);
        let views: Vec<(String, Regex)> = (0..3)
            .map(|i| (format!("v{i}"), random_query(&domain, seed * 13 + i)))
            .collect();
        for engine in [&mut sequential, &mut parallel] {
            for (name, def) in &views {
                engine.register_view(name, def.clone());
                engine.view_extension(name);
            }
        }

        let mut rng = StdRng::seed_from_u64(seed * 17 + 3);
        for _ in 0..3 {
            let from = rng.gen_range(0..nodes);
            let to = rng.gen_range(0..nodes);
            let label = automata::Symbol(rng.gen_range(0..domain.len()) as u32);
            sequential.add_edge(from, label, to);
            parallel.add_edge(from, label, to);
            for (name, def) in &views {
                let seq = sequential.view_extension(name).unwrap().clone();
                let par = parallel.view_extension(name).unwrap().clone();
                assert_eq!(seq, par, "seed {seed} view {name} ({def})");
                cases += 1;
            }
        }
        assert_eq!(
            sequential.stats().view_delta_repairs,
            parallel.stats().view_delta_repairs,
            "seed {seed}"
        );
        // The materializations under test really diverged.
        assert_eq!(sequential.stats().parallel_evals, 0, "seed {seed}");
        assert_eq!(parallel.stats().parallel_evals, 3, "seed {seed}");
    }
    assert!(cases >= 200, "only {cases} repair cases ran");
}

#[test]
fn engine_ad_hoc_answers_match_direct_evaluation_across_mutations() {
    let domain = abc();
    let mut cases = 0usize;
    for seed in 0..25u64 {
        let nodes = 15 + (seed as usize % 3) * 5;
        let db = random_graph(
            &domain,
            &RandomGraphConfig {
                num_nodes: nodes,
                num_edges: nodes * 2,
            },
            seed ^ 0xfeed,
        );
        let mut engine = QueryEngine::new(db);
        let query = random_query(&domain, seed * 13 + 3);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..2 {
            let answer = engine.publish_snapshot().eval_regex(&query);
            let direct = graphdb::eval_regex(engine.db(), &query);
            assert_eq!(*answer, direct, "seed {seed} query {query}");
            cases += 1;
            let from = rng.gen_range(0..nodes);
            let to = rng.gen_range(0..nodes);
            let label = automata::Symbol(rng.gen_range(0..domain.len()) as u32);
            engine.add_edge(from, label, to);
        }
    }
    assert!(cases >= 50, "only {cases} ad-hoc cases ran");
}

#[test]
fn batch_insertion_matches_single_insertions() {
    let domain = abc();
    for seed in 0..10u64 {
        let db = random_graph(
            &domain,
            &RandomGraphConfig {
                num_nodes: 20,
                num_edges: 40,
            },
            seed ^ 0x5a5a,
        );
        let view = random_query(&domain, seed + 77);
        let mut rng = StdRng::seed_from_u64(seed * 3 + 1);
        let batch: Vec<_> = (0..4)
            .map(|_| {
                (
                    rng.gen_range(0..20),
                    automata::Symbol(rng.gen_range(0..domain.len()) as u32),
                    rng.gen_range(0..20),
                )
            })
            .collect();

        let mut batched = QueryEngine::new(db.clone());
        batched.register_view("v", view.clone());
        batched.view_extension("v");
        batched.try_apply(&WriteRequest::new(Mutation::AddEdges(&batch))).unwrap();

        let mut stepped = QueryEngine::new(db);
        stepped.register_view("v", view.clone());
        stepped.view_extension("v");
        for &(f, l, t) in &batch {
            stepped.add_edge(f, l, t);
        }

        let via_batch = batched.view_extension("v").unwrap().clone();
        let via_steps = stepped.view_extension("v").unwrap().clone();
        assert_eq!(via_batch, via_steps, "seed {seed} view {view}");
        assert_eq!(batched.revision(), 1);
        assert_eq!(stepped.revision(), 4);
        let fresh = eval_csr(
            &stepped.db().csr_out(),
            &compile(stepped.db(), &view),
        );
        assert_eq!(via_batch, fresh, "seed {seed}");
    }
}
