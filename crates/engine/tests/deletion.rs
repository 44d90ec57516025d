//! Differential suite pinning the engine's non-monotone maintenance — DRed
//! edge deletion — to from-scratch re-materialization:
//!
//! * **interleaved insert/delete vs from-scratch**: after every mutation of
//!   a randomized insert/delete schedule, every cached view extension
//!   (repaired by delta product-BFS on insertion, DRed over-deletion +
//!   re-derivation on deletion) must equal a full re-materialization on the
//!   mutated database, and ad-hoc engine answers must equal direct
//!   `graphdb` evaluation;
//! * **pinned snapshots under active deletion**: a snapshot published
//!   before a deletion keeps serving exactly its revision's answers — view
//!   extensions and ad-hoc queries — while the writer over-deletes and
//!   re-derives, including from concurrent reader threads;
//! * **support counts**: deleting one copy of a duplicated edge must skip
//!   the DRed pass entirely (and still be answer-exact), and a batch of
//!   10⁴ triples with repeats is tallied like the per-edge scan tallied it;
//! * **wide re-derivation**: a deletion whose affected sources fill several
//!   64-source batches of the re-derivation sweep repairs exactly, with the
//!   work counters of one sweep per source.
//!
//! The interleaving loop alone exercises well over 200 randomized
//! (db, views, mutation) cases; counts are asserted at the end of each test
//! so the coverage cannot silently erode.

use automata::{Alphabet, DenseNfa, Symbol};
use engine::{EngineConfig, EngineError, Mutation, QueryEngine, WriteRequest};
use graphdb::{eval_csr, random_graph, Answer, Edge, GraphDb, RandomGraphConfig};
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

fn compile(db: &GraphDb, query: &Regex) -> DenseNfa {
    let nfa = regexlang::thompson(query, db.domain()).expect("query over the domain");
    DenseNfa::from_nfa(&nfa)
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

/// A random mutation against the engine's current database: an insertion of
/// a random edge between two of its first `num_nodes` nodes, or a deletion of
/// a random *existing* edge (falling back to insertion when the graph ran
/// dry).  Biased toward deletion so schedules genuinely shrink graphs
/// instead of only ever growing them.
fn random_mutation(
    engine: &QueryEngine,
    num_nodes: usize,
    rng: &mut StdRng,
) -> (bool, (usize, Symbol, usize)) {
    let domain_len = engine.db().domain().len();
    let delete = engine.db().num_edges() > 0 && rng.gen_range(0..10) < 6;
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
fn interleaved_insertions_and_deletions_match_full_rematerialization() {
    let domain = abc();
    let mut cases = 0usize;
    let mut deletions_seen = 0usize;
    for seed in 0..60u64 {
        let nodes = 12 + (seed as usize % 4) * 6;
        let db = random_graph(
            &domain,
            &RandomGraphConfig {
                num_nodes: nodes,
                num_edges: nodes * 2,
            },
            seed ^ 0xdead,
        );
        // Three workers, and isolated nodes past the random part (which the
        // mutations stay inside), so the views materialize on the pool even
        // on a 1-core host.
        let mut engine = QueryEngine::with_config(
            padded_to_the_pool(db),
            EngineConfig {
                threads: 3,
                ..EngineConfig::default()
            },
        );
        let view_a = random_query(&domain, seed * 11 + 1);
        let view_b = random_query(&domain, seed * 11 + 2);
        engine.register_view("va", view_a.clone());
        engine.register_view("vb", view_b.clone());
        engine.publish_snapshot();

        let mut rng = StdRng::seed_from_u64(seed * 29 + 7);
        for step in 0..4 {
            let (delete, (from, label, to)) = random_mutation(&engine, nodes, &mut rng);
            if delete {
                engine.remove_edge(from, label, to);
                deletions_seen += 1;
            } else {
                engine.add_edge(from, label, to);
            }

            let snapshot = engine.publish_snapshot();
            for (name, def) in [("va", &view_a), ("vb", &view_b)] {
                let repaired = snapshot.view_extension(name).unwrap();
                let fresh = eval_csr(&engine.db().csr_out(), &compile(engine.db(), def));
                assert_eq!(
                    *repaired, fresh,
                    "seed {seed} step {step} view {name} ({def}) after \
                     {}({from},{label:?},{to})",
                    if delete { "del" } else { "add" }
                );
                cases += 1;
            }
        }
        // Extensions never re-materialized: every snapshot above was published
        // from the one initial materialization, on the pool, plus incremental
        // repairs.
        assert_eq!(engine.stats().view_full_materializations, 2, "seed {seed}");
        assert_eq!(engine.stats().parallel_evals, 2, "seed {seed}");
    }
    assert!(cases >= 200, "only {cases} interleaved cases ran");
    assert!(
        deletions_seen >= 60,
        "only {deletions_seen} deletions in the schedules"
    );
}

#[test]
fn ad_hoc_answers_track_deletions_across_revisions() {
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
            seed ^ 0xabcd,
        );
        let mut engine = QueryEngine::new(db);
        let query = random_query(&domain, seed * 13 + 3);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        for _ in 0..3 {
            let answer = engine.publish_snapshot().eval_regex(&query);
            let direct = graphdb::eval_regex(engine.db(), &query);
            assert_eq!(*answer, direct, "seed {seed} query {query}");
            cases += 1;
            let (delete, (from, label, to)) = random_mutation(&engine, nodes, &mut rng);
            if delete {
                engine.remove_edge(from, label, to);
            } else {
                engine.add_edge(from, label, to);
            }
        }
    }
    assert!(cases >= 75, "only {cases} ad-hoc cases ran");
}

#[test]
fn batch_deletion_matches_stepped_deletion() {
    let domain = abc();
    for seed in 0..10u64 {
        let db = random_graph(
            &domain,
            &RandomGraphConfig {
                num_nodes: 20,
                num_edges: 60,
            },
            seed ^ 0x7777,
        );
        let view = random_query(&domain, seed + 55);
        let mut rng = StdRng::seed_from_u64(seed * 5 + 2);
        // Four distinct existing edges (distinct triples, so the stepped
        // engine never double-removes a single copy).
        let mut batch: Vec<(usize, Symbol, usize)> = Vec::new();
        let edges: Vec<Edge> = db.edges().collect();
        while batch.len() < 4 {
            let e = edges[rng.gen_range(0..edges.len())];
            let triple = (e.from, e.label, e.to);
            if !batch.contains(&triple) {
                batch.push(triple);
            }
        }

        let mut batched = QueryEngine::new(db.clone());
        batched.register_view("v", view.clone());
        batched.view_extension("v");
        batched.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&batch))).unwrap();

        let mut stepped = QueryEngine::new(db);
        stepped.register_view("v", view.clone());
        stepped.view_extension("v");
        for &(f, l, t) in &batch {
            stepped.remove_edge(f, l, t);
        }

        let via_batch = batched.view_extension("v").unwrap().clone();
        let via_steps = stepped.view_extension("v").unwrap().clone();
        assert_eq!(via_batch, via_steps, "seed {seed} view {view}");
        assert_eq!(batched.revision(), 1);
        assert_eq!(stepped.revision(), 4);
        let fresh = eval_csr(&stepped.db().csr_out(), &compile(stepped.db(), &view));
        assert_eq!(via_batch, fresh, "seed {seed}");
    }
}

#[test]
fn support_counts_skip_dred_on_random_multigraphs() {
    let domain = abc();
    for seed in 0..10u64 {
        let mut db = random_graph(
            &domain,
            &RandomGraphConfig {
                num_nodes: 15,
                num_edges: 30,
            },
            seed ^ 0x1357,
        );
        // Duplicate three random edges, then delete one copy of each: the
        // support count proves the answers cannot change.
        let mut rng = StdRng::seed_from_u64(seed * 3 + 9);
        let mut doubled: Vec<(usize, Symbol, usize)> = Vec::new();
        let edges: Vec<Edge> = db.edges().collect();
        for _ in 0..3 {
            let e = edges[rng.gen_range(0..edges.len())];
            db.add_edge(e.from, e.label, e.to);
            doubled.push((e.from, e.label, e.to));
        }
        let mut engine = QueryEngine::new(db);
        let view = random_query(&domain, seed + 21);
        engine.register_view("v", view.clone());
        let before = engine.view_extension("v").unwrap().clone();

        engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&doubled))).unwrap();
        let after = engine.view_extension("v").unwrap().clone();
        assert_eq!(after, before, "seed {seed} view {view}");
        let fresh = eval_csr(&engine.db().csr_out(), &compile(engine.db(), &view));
        assert_eq!(after, fresh, "seed {seed}");
        let stats = engine.stats();
        assert_eq!(stats.view_deletion_repairs, 0, "seed {seed}: DRed must not run");
        assert!(stats.deletion_support_skips >= 3, "seed {seed}");
    }

    // The same tallies on a batch as large as the serving layer admits
    // (`max_batch_edges` = 10 000): 4 000 distinct triples, the lower half
    // held four times and listed three times (supported: skipped), the
    // upper half held and listed twice (unsupported: DRed), interleaved.
    let triple = |i: usize| (i / 40, Symbol(((i / 40 + i % 40) % 3) as u32), i % 40);
    let (held, listed) = (|i| if i < 2000 { 4 } else { 2 }, |i| if i < 2000 { 3 } else { 2 });
    let mut db = GraphDb::new(domain.clone());
    for _ in 0..100 {
        db.add_node();
    }
    let mut batch = Vec::new();
    for round in 0..4 {
        for i in (0..4000).rev() {
            let (from, label, to) = triple(i);
            if round < held(i) {
                db.add_edge(from, label, to);
            }
            if round < listed(i) {
                batch.push((from, label, to));
            }
        }
    }
    assert_eq!(batch.len(), 10_000);
    // What the validation must agree with: the per-edge scan it replaced
    // (quadratic in the batch), distinct triples in first-occurrence order.
    let tally_by_scan = |edges: &[(usize, Symbol, usize)]| {
        let mut triples: Vec<((usize, Symbol, usize), usize)> = Vec::new();
        for &edge in edges {
            match triples.iter_mut().find(|(t, _)| *t == edge) {
                Some((_, count)) => *count += 1,
                None => triples.push((edge, 1)),
            }
        }
        triples
    };
    let view = regexlang::parse("a·b").unwrap();
    let mut engine = QueryEngine::new(db);
    engine.register_view("v", view.clone());
    engine.view_extension("v");

    // A bad batch first — two triples over-asked, the one listed first
    // reported — which leaves the engine as it was.
    let mut bad = batch.clone();
    bad.extend([triple(17), triple(3000), triple(17)]);
    let (&((from, label, to), requested), present) = tally_by_scan(&bad)
        .iter()
        .map(|entry @ &((from, label, to), _)| (entry, engine.db().edge_multiplicity(from, label, to)))
        .find(|&(&(_, requested), present)| present < requested)
        .expect("the batch over-asks");
    assert_eq!(((from, label, to), requested, present), (triple(3000), 3, 2));
    let err = engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&bad))).unwrap_err();
    let label = label.to_string();
    assert_eq!(err, EngineError::EdgeNotPresent { from, label, to, requested, present });
    assert_eq!((engine.revision(), engine.db().num_edges()), (0, 12_000));

    let skips: usize = tally_by_scan(&batch)
        .iter()
        .filter(|&&((from, label, to), count)| engine.db().edge_multiplicity(from, label, to) > count)
        .map(|&(_, count)| count)
        .sum();
    assert_eq!(skips, 6_000);
    engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&batch))).unwrap();
    assert_eq!((engine.revision(), engine.db().num_edges()), (1, 2_000));
    let stats = engine.stats();
    assert_eq!(stats.deletion_support_skips, skips as u64);
    assert_eq!(stats.view_deletion_repairs, 1, "the unsupported half needs a DRed pass");
    let fresh = eval_csr(&engine.db().csr_out(), &compile(engine.db(), &view));
    assert_eq!(*engine.view_extension("v").unwrap(), fresh);
}

#[test]
fn rederivation_across_several_lane_batches_repairs_exactly() {
    // Five deleted edges over-delete nearly the whole extension of a closure
    // view: 197 of the 300 sources are affected — a gappy ascending list
    // that fills three 64-source batches and starts a fourth.
    let db = random_graph(
        &abc(),
        &RandomGraphConfig {
            num_nodes: 300,
            num_edges: 700,
        },
        0x1a9e,
    );
    let view = regexlang::parse("(a+b)*·c").unwrap();
    let mut engine = QueryEngine::new(db);
    engine.register_view("v", view.clone());
    assert_eq!(engine.view_extension("v").unwrap().len(), 20_834);
    let edges: Vec<Edge> = engine.db().edges().collect();
    let batch: Vec<(usize, Symbol, usize)> =
        edges.iter().step_by(97).take(5).map(|e| (e.from, e.label, e.to)).collect();
    engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&batch))).unwrap();

    let repaired = engine.view_extension("v").unwrap().clone();
    assert_eq!(repaired, eval_csr(&engine.db().csr_out(), &compile(engine.db(), &view)));
    assert_eq!(repaired.len(), 20_132);
    // Recorded from the one-BFS-per-source re-derivation this sweep replaced.
    let stats = engine.stats();
    assert_eq!(stats.view_deletion_repairs, 1);
    assert_eq!(stats.deletion_overdeleted_pairs, 20_488);
    assert_eq!(stats.deletion_rederived_sources, 197);
    assert_eq!(stats.view_full_materializations, 1, "repaired, not re-materialized");
}

#[test]
fn pinned_snapshots_keep_exact_answers_under_active_deletion() {
    let domain = abc();
    for seed in 0..8u64 {
        let db = random_graph(
            &domain,
            &RandomGraphConfig {
                num_nodes: 18,
                num_edges: 54,
            },
            seed ^ 0x2468,
        );
        let view = random_query(&domain, seed + 31);
        let query = random_query(&domain, seed + 32);
        let mut engine = QueryEngine::new(db);
        engine.register_view("v", view.clone());

        // Publish a snapshot at every revision of a deletion-heavy schedule,
        // recording the expected (extension, ad-hoc answer) per revision.
        let mut rng = StdRng::seed_from_u64(seed * 41 + 3);
        let mut pinned: Vec<(std::sync::Arc<engine::EngineSnapshot>, Answer, Answer)> = Vec::new();
        for _ in 0..5 {
            let snapshot = engine.publish_snapshot();
            let ext = snapshot.view_extension("v").unwrap().clone();
            let adhoc = (*snapshot.eval_regex(&query)).clone();
            pinned.push((snapshot, ext, adhoc));
            let (delete, (from, label, to)) =
                random_mutation(&engine, engine.db().num_nodes(), &mut rng);
            if delete {
                engine.remove_edge(from, label, to);
            } else {
                engine.add_edge(from, label, to);
            }
        }
        assert!(engine.stats().view_deletion_repairs > 0, "seed {seed}: schedule never deleted");

        // Every pinned snapshot still answers exactly as at publish time —
        // checked from concurrent reader threads while the handles outlive
        // further writer deletions.
        std::thread::scope(|scope| {
            let query = &query;
            for (snapshot, ext, adhoc) in &pinned {
                scope.spawn(move || {
                    assert_eq!(snapshot.view_extension("v").unwrap(), ext);
                    assert_eq!(*snapshot.eval_regex(query), *adhoc);
                });
            }
        });
        // And revisions are strictly increasing along the schedule.
        for (older, newer) in pinned.iter().zip(pinned.iter().skip(1)) {
            assert!(older.0.revision() < newer.0.revision());
        }
    }
}
