//! Differential suite for the interactive read path — the single-pair
//! bidirectional evaluator, the single-source/top-k evaluator, and the
//! point-query cache behind them:
//!
//! * **point lookups vs full materialization**: across randomized
//!   (db, query, mutation) schedules, every `eval_pair_str` verdict and
//!   every `eval_from_str` target list must equal the corresponding slice
//!   of a from-scratch `eval_csr` materialization;
//! * **pinned revisions**: snapshots pinned before mutations keep serving
//!   exactly their revision's interactive answers;
//! * **observable caching**: point-cache hits/misses and answer-cache
//!   extension hits are visible through `EngineStats`, and budget
//!   interrupts or limit truncation never cache a partial answer;
//! * **early exit**: interactive calls never run the full materializer
//!   (`sequential_evals`/`parallel_evals` stay flat while
//!   `pair_evals`/`from_evals` advance);
//! * **deletion gap**: a point-cached drain from before an edge deletion
//!   is never served to a newer snapshot, and retired entries are
//!   compacted out on publish once the snapshot after theirs is replaced.
//!
//! The mutation loop alone exercises well over 200 randomized cases;
//! counts are asserted at the end so the coverage cannot silently erode.

use automata::{Alphabet, DenseNfa, Symbol};
use engine::{EngineConfig, QueryBudget, QueryEngine, ReadRequest};
use graphdb::{eval_csr, random_graph, Answer, Edge, GraphDb, NodeId, RandomGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const QUERIES: &[&str] = &["a", "a·b", "c*", "(a+b)*·c", "a·(b+c)*", "a+b·c?"];

fn abc() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c']).unwrap()
}

fn compile(query: &str, domain: &Alphabet) -> DenseNfa {
    let expr = regexlang::parse(query).expect("query parses");
    let nfa = regexlang::thompson(&expr, domain).expect("query over the domain");
    DenseNfa::from_nfa(&nfa)
}

/// The sorted target list the full oracle answer assigns to `source`.
fn oracle_targets(oracle: &Answer, source: NodeId) -> Vec<NodeId> {
    oracle
        .iter()
        .filter(|&&(s, _)| s == source)
        .map(|&(_, t)| t)
        .collect()
}

/// A random mutation against the engine's current database: an insertion of
/// a random edge, or a deletion of a random *existing* edge (falling back to
/// insertion when the graph ran dry).  Biased toward deletion so schedules
/// genuinely shrink graphs instead of only ever growing them.
fn random_mutation(engine: &QueryEngine, rng: &mut StdRng) -> (bool, (usize, Symbol, usize)) {
    let num_nodes = engine.db().num_nodes();
    let domain_len = engine.db().domain().len();
    let delete = engine.db().num_edges() > 0 && rng.gen_range(0..10) < 5;
    if delete {
        let edges: Vec<Edge> = engine.db().edges().collect();
        let e = edges[rng.gen_range(0..edges.len())];
        (true, (e.from, e.label, e.to))
    } else {
        (
            false,
            (
                rng.gen_range(0..num_nodes),
                Symbol(rng.gen_range(0..domain_len) as u32),
                rng.gen_range(0..num_nodes),
            ),
        )
    }
}

#[test]
fn interactive_answers_match_full_materialization_across_mutations() {
    let domain = abc();
    let mut cases = 0usize;
    for seed in 0..8u64 {
        let nodes = 10 + (seed as usize % 3) * 4;
        let db = random_graph(
            &domain,
            &RandomGraphConfig {
                num_nodes: nodes,
                num_edges: nodes * 2,
            },
            seed ^ 0x9e37,
        );
        let mut engine = QueryEngine::new(db);
        let mut rng = StdRng::seed_from_u64(seed * 23 + 11);
        for step in 0..3 {
            let snapshot = engine.publish_snapshot();
            let csr = engine.db().csr_out();
            for query in QUERIES {
                let oracle = eval_csr(&csr, &compile(query, &domain));
                for s in 0..nodes {
                    // Pair probes first: a cached single-source drain for
                    // `s` would otherwise turn them into binary searches.
                    for t in 0..nodes {
                        assert_eq!(
                            snapshot.eval_pair_str(query, s, t),
                            oracle.contains(&(s, t)),
                            "seed {seed} step {step} query {query} pair ({s},{t})"
                        );
                    }
                    let reach = snapshot.eval_from_str(query, s, None);
                    assert!(reach.complete, "unlimited sweeps drain");
                    assert_eq!(
                        reach.targets,
                        oracle_targets(&oracle, s),
                        "seed {seed} step {step} query {query} source {s}"
                    );
                    cases += 1;
                }
            }
            let (delete, (from, label, to)) = random_mutation(&engine, &mut rng);
            if delete {
                engine.remove_edge(from, label, to);
            } else {
                engine.add_edge(from, label, to);
            }
        }
    }
    assert!(cases >= 200, "only {cases} interactive cases ran");
}

#[test]
fn pinned_snapshots_serve_their_revisions_interactive_answers() {
    let domain = abc();
    for seed in 0..6u64 {
        let db = random_graph(
            &domain,
            &RandomGraphConfig {
                num_nodes: 12,
                num_edges: 30,
            },
            seed ^ 0x51de,
        );
        let mut engine = QueryEngine::new(db);
        let mut rng = StdRng::seed_from_u64(seed * 37 + 5);

        // Pin a snapshot (and its from-scratch oracle) at every revision of
        // a mutation schedule.
        let queries = ["(a+b)*·c", "a·(b+c)*"];
        let mut pinned: Vec<(std::sync::Arc<engine::EngineSnapshot>, Vec<Answer>)> = Vec::new();
        for _ in 0..4 {
            let snapshot = engine.publish_snapshot();
            let csr = engine.db().csr_out();
            let oracles = queries
                .iter()
                .map(|q| eval_csr(&csr, &compile(q, &domain)))
                .collect();
            pinned.push((snapshot, oracles));
            let (delete, (from, label, to)) = random_mutation(&engine, &mut rng);
            if delete {
                engine.remove_edge(from, label, to);
            } else {
                engine.add_edge(from, label, to);
            }
        }

        // Every pinned snapshot still answers point lookups exactly as at
        // publish time — checked from concurrent reader threads while the
        // writer's database has long since diverged.
        std::thread::scope(|scope| {
            for (snapshot, oracles) in &pinned {
                scope.spawn(move || {
                    for (query, oracle) in queries.iter().zip(oracles) {
                        for s in 0..12 {
                            for t in 0..12 {
                                assert_eq!(
                                    snapshot.eval_pair_str(query, s, t),
                                    oracle.contains(&(s, t)),
                                    "seed {seed} rev {} query {query} pair ({s},{t})",
                                    snapshot.revision()
                                );
                            }
                            assert_eq!(
                                snapshot.eval_from_str(query, s, None).targets,
                                oracle_targets(oracle, s),
                                "seed {seed} rev {} query {query} source {s}",
                                snapshot.revision()
                            );
                        }
                    }
                });
            }
        });
        for (older, newer) in pinned.iter().zip(pinned.iter().skip(1)) {
            assert!(older.0.revision() < newer.0.revision());
        }
    }
}

#[test]
fn point_cache_hits_misses_and_extension_hits_are_observable() {
    let domain = abc();
    let db = random_graph(
        &domain,
        &RandomGraphConfig {
            num_nodes: 20,
            num_edges: 60,
        },
        7,
    );
    let mut engine = QueryEngine::new(db);
    let snapshot = engine.publish_snapshot();
    let query = "(a+b)*·c";

    // First single-source sweep: a fresh search that populates the cache.
    let before = engine.stats();
    let first = snapshot.eval_from_str(query, 0, None);
    assert!(first.complete);
    let after_fresh = engine.stats();
    assert_eq!(after_fresh.from_evals, before.from_evals + 1);
    assert_eq!(after_fresh.point_hits, before.point_hits);
    assert!(after_fresh.point_misses > before.point_misses);

    // Second identical sweep: served from the point cache, no fresh search.
    let second = snapshot.eval_from_str(query, 0, None);
    assert_eq!(second.targets, first.targets);
    assert!(second.complete);
    let after_hit = engine.stats();
    assert_eq!(after_hit.from_evals, after_fresh.from_evals);
    assert_eq!(after_hit.point_hits, after_fresh.point_hits + 1);

    // A top-k replay of the cached drain: `limit == |targets|` still knows
    // the set is complete, anything smaller reports truncation.
    if first.targets.len() > 1 {
        let exact = snapshot.eval_from_str(query, 0, Some(first.targets.len()));
        assert!(exact.complete);
        assert_eq!(exact.targets, first.targets);
        let truncated = snapshot.eval_from_str(query, 0, Some(1));
        assert!(!truncated.complete);
        assert_eq!(truncated.targets, first.targets[..1]);
    }

    // Pair lookups against the cached source become binary searches: no
    // bidirectional search runs.
    let before_pair = engine.stats();
    let connected = snapshot.eval_pair_str(query, 0, 3);
    assert_eq!(connected, first.targets.contains(&3));
    let after_pair = engine.stats();
    assert_eq!(after_pair.pair_evals, before_pair.pair_evals);
    assert_eq!(after_pair.point_hits, before_pair.point_hits + 1);

    // An uncached source pays for a fresh bidirectional search.
    snapshot.eval_pair_str(query, 1, 3);
    assert_eq!(engine.stats().pair_evals, after_pair.pair_evals + 1);

    // Once the *full* extension is materialized into the answer cache, point
    // lookups are served from it without touching the point cache.
    let full = snapshot.eval_str(query);
    let before_ext = engine.stats();
    let connected = snapshot.eval_pair_str(query, 2, 3);
    assert_eq!(connected, full.contains(&(2, 3)));
    let reach = snapshot.eval_from_str(query, 2, None);
    assert_eq!(reach.targets, oracle_targets(&full, 2));
    let after_ext = engine.stats();
    assert_eq!(after_ext.point_extension_hits, before_ext.point_extension_hits + 2);
    assert_eq!(after_ext.pair_evals, before_ext.pair_evals);
    assert_eq!(after_ext.from_evals, before_ext.from_evals);
}

#[test]
fn budget_interrupts_never_cache_partial_answers() {
    // Budget checks run every SWEEP_CHECK_INTERVAL (4096) pops, so the graph
    // must force more pops than one interval before draining: a 6000-edge
    // `a`-chain under `a*`.
    let domain = abc();
    let a = domain.symbol("a").expect("a in domain");
    let mut db = GraphDb::new(domain);
    let mut prev = db.add_node();
    for _ in 0..6000 {
        let next = db.add_node();
        db.add_edge(prev, a, next);
        prev = next;
    }
    let last = prev;
    let mut engine = QueryEngine::new(db);
    let snapshot = engine.publish_snapshot();
    let tight = QueryBudget::unlimited().max_visited(1);

    // Interrupted single-source sweep: the error surfaces and nothing is
    // cached — the retry below must run a fresh search, not hit the cache.
    let err = snapshot
        .try_eval(&ReadRequest::from("a*", 0, None).budget(tight.clone()))
        .unwrap_err();
    assert!(err.is_budget_interrupt(), "got {err}");
    let before = engine.stats();
    assert!(before.budget_interrupted_evals >= 1);
    let full = snapshot.eval_from_str("a*", 0, None);
    let after = engine.stats();
    assert_eq!(after.from_evals, before.from_evals + 1, "retry searched afresh");
    assert_eq!(after.point_hits, before.point_hits, "no partial entry was served");
    assert!(full.complete);
    assert_eq!(full.targets, (0..=last).collect::<Vec<_>>());

    // Interrupted bidirectional search: same contract for pair verdicts.
    // Source 1 is not point-cached (only source 0's drain is resident), so
    // the budgeted call really searches instead of binary-searching a hit.
    let err = snapshot
        .try_eval(&ReadRequest::pair("a*", 1, last).budget(tight))
        .unwrap_err();
    assert!(err.is_budget_interrupt(), "got {err}");
    assert!(snapshot.eval_pair_str("a*", 1, last));

    // Limit truncation is equally partial: a top-k sweep must not poison
    // the cache for the later unlimited sweep.
    let truncated = snapshot.eval_from_str("a·a*", 0, Some(5));
    assert!(!truncated.complete);
    assert_eq!(truncated.targets.len(), 5);
    let before = engine.stats();
    let full = snapshot.eval_from_str("a·a*", 0, None);
    let after = engine.stats();
    assert_eq!(after.from_evals, before.from_evals + 1, "truncated sweep was not cached");
    assert_eq!(after.point_hits, before.point_hits);
    assert!(full.complete);
    assert_eq!(full.targets, (1..=last).collect::<Vec<_>>());
}

#[test]
fn interactive_calls_never_run_the_full_materializer() {
    let domain = abc();
    let db = random_graph(
        &domain,
        &RandomGraphConfig {
            num_nodes: 30,
            num_edges: 90,
        },
        3,
    );
    let mut engine = QueryEngine::new(db);
    let snapshot = engine.publish_snapshot();
    for query in QUERIES {
        for s in 0..5 {
            snapshot.eval_pair_str(query, s, 29 - s);
            snapshot.eval_from_str(query, s, Some(3));
        }
    }
    let stats = engine.stats();
    assert!(stats.pair_evals > 0, "pair lookups ran fresh searches");
    assert!(stats.from_evals > 0, "source sweeps ran fresh searches");
    assert_eq!(stats.sequential_evals, 0, "no full materialization ran");
    assert_eq!(stats.parallel_evals, 0, "no full materialization ran");

    // The counters really are live: one ad-hoc full evaluation moves them.
    snapshot.eval_str("(a+b+c)*");
    let stats = engine.stats();
    assert!(stats.sequential_evals + stats.parallel_evals >= 1);
}

#[test]
fn forced_thread_configs_serve_identical_interactive_answers() {
    let domain = abc();
    let db = random_graph(
        &domain,
        &RandomGraphConfig {
            num_nodes: 16,
            num_edges: 48,
        },
        11,
    );
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
    let mut pooled = mk_engine(4);
    let seq_snap = sequential.publish_snapshot();
    let pool_snap = pooled.publish_snapshot();
    let csr = sequential.db().csr_out();
    for query in QUERIES {
        let oracle = eval_csr(&csr, &compile(query, &domain));
        for s in 0..16 {
            for t in 0..16 {
                let expected = oracle.contains(&(s, t));
                assert_eq!(seq_snap.eval_pair_str(query, s, t), expected);
                assert_eq!(pool_snap.eval_pair_str(query, s, t), expected);
            }
            let expected = oracle_targets(&oracle, s);
            assert_eq!(seq_snap.eval_from_str(query, s, None).targets, expected);
            assert_eq!(pool_snap.eval_from_str(query, s, None).targets, expected);
        }
    }
}

#[test]
fn sequential_point_misses_reuse_one_scratch_of_each_kind() {
    // Both point caches are off, so every lookup misses and sweeps; one
    // query's automaton takes two bitmap words per node (65 states in a
    // cycle, none of them bisimilar), the others one.  On one thread the
    // engine allocates one single-source and one pair scratch, and re-aims
    // them for every later miss.
    let domain = abc();
    let db = random_graph(&domain, &RandomGraphConfig { num_nodes: 30, num_edges: 90 }, 5);
    let config = EngineConfig { threads: 1, answer_cache_capacity: 0 };
    let mut engine = QueryEngine::with_config(db, config);
    let snapshot = engine.publish_snapshot();
    let cycle = format!("({})*", vec!["a"; 65].join("·"));
    let queries = ["(a+b)*·c", cycle.as_str(), "a·(b+c)*"];
    let compiled = regexlang::compile(&regexlang::parse(&cycle).unwrap(), &domain).unwrap();
    assert!(compiled.num_states() > 64, "{} states", compiled.num_states());
    let csr = engine.db().csr_out();
    let oracles: Vec<Answer> =
        queries.iter().map(|q| eval_csr(&csr, &compile(q, &domain))).collect();
    for i in 0..200usize {
        let (query, oracle) = (queries[i % 3], &oracles[i % 3]);
        let (source, target) = (i * 7 % 30, i * 13 % 30);
        if i % 2 == 0 {
            let got = snapshot.eval_from_str(query, source, None);
            assert_eq!(got.targets, oracle_targets(oracle, source), "{query} from {source}");
        } else {
            let got = snapshot.eval_pair_str(query, source, target);
            assert_eq!(got, oracle.contains(&(source, target)), "{query} ({source}, {target})");
        }
    }
    let stats = engine.stats();
    assert_eq!((stats.from_evals, stats.pair_evals), (100, 100), "every lookup swept");
    assert_eq!(stats.point_scratch_allocations, 2);
}

/// Regression test for the deletion gap: a complete single-source drain
/// cached before an edge deletion must never be served to a snapshot
/// published after it, while the pinned old-revision reader keeps hitting
/// its exact-revision entry; once the snapshot after the retired revision
/// is itself replaced, `publish_snapshot` compacts the squatting entries out.
#[test]
fn deleted_edges_invalidate_point_cached_drains() {
    let domain = abc();
    let a = domain.symbol("a").expect("a in domain");
    let mut db = GraphDb::new(domain);
    let n0 = db.add_node();
    let n1 = db.add_node();
    let n2 = db.add_node();
    db.add_edge(n0, a, n1);
    db.add_edge(n1, a, n2);
    let mut engine = QueryEngine::with_config(db, EngineConfig::default());

    // Revision 0: cache the complete drain {0, 1, 2}.
    let old = engine.publish_snapshot();
    let before_deletion = old.eval_from_str("a*", n0, None);
    assert_eq!(before_deletion.targets, vec![n0, n1, n2]);
    assert!(before_deletion.complete);

    // Delete the chain's second hop and publish the shrunk revision.
    engine.remove_edge(n1, a, n2);
    let new = engine.publish_snapshot();

    // The pinned reader still hits its exact-revision entry...
    let stats = engine.stats();
    let replay = old.eval_from_str("a*", n0, None);
    assert_eq!(replay.targets, vec![n0, n1, n2]);
    let after_replay = engine.stats();
    assert_eq!(after_replay.point_hits, stats.point_hits + 1);
    assert_eq!(after_replay.from_evals, stats.from_evals);

    // ...while the new snapshot must miss it and search afresh: serving the
    // stale drain would resurrect the deleted path 0 ⇝ 2.
    let shrunk = new.eval_from_str("a*", n0, None);
    assert_eq!(shrunk.targets, vec![n0, n1]);
    assert!(shrunk.complete);
    let after_fresh = engine.stats();
    assert_eq!(after_fresh.from_evals, after_replay.from_evals + 1);
    assert_eq!(after_fresh.point_hits, after_replay.point_hits);
    assert!(after_fresh.point_misses > after_replay.point_misses);
    assert!(!new.eval_pair_str("a*", n0, n2), "deleted path must not connect");

    // The old reader's entry was displaced by the newer drain; it recomputes
    // (correctly) instead of clobbering the newer list.
    let recomputed = old.eval_from_str("a*", n0, None);
    assert_eq!(recomputed.targets, vec![n0, n1, n2]);
    assert_eq!(engine.stats().from_evals, after_fresh.from_evals + 1);

    // Two more mutations retire revisions 0 and 1; publishing then compacts
    // their squatting point-cache entries.
    assert_eq!(engine.stats().point_compactions, 0);
    engine.add_edge(n2, a, n0);
    engine.publish_snapshot();
    engine.add_edge(n2, a, n1);
    engine.publish_snapshot();
    assert!(
        engine.stats().point_compactions >= 1,
        "a publish must sweep retired point entries"
    );
}
