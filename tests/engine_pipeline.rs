//! End-to-end integration of the query engine with the rewriting pipeline:
//! a query is rewritten over views (Section 2/4 machinery), the views are
//! materialized and maintained by the engine across edge insertions, and
//! the exact rewriting's view-based answer is checked against direct
//! evaluation at every revision — the paper's Definition 4.3 invariant kept
//! live on a mutating database.

use graphdb::{random_graph, RandomGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use engine::{Mutation, WriteRequest};
use rpq::{
    answer_rewriting_over_views_at, answer_rpq_at, compare_on_database_at, rewrite_rpq,
    snapshot_for_problem, RpqRewriteProblem,
};

fn figure1_problem() -> RpqRewriteProblem {
    RpqRewriteProblem::parse_labels(
        "a·(b·a+c)*",
        [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
    )
    .unwrap()
}

#[test]
fn exact_rewriting_stays_complete_across_engine_mutations() {
    let problem = figure1_problem();
    let rewriting = rewrite_rpq(&problem).unwrap();
    assert!(rewriting.is_exact());
    let domain = problem.theory.domain().clone();

    for seed in 0..5u64 {
        let db = random_graph(
            &domain,
            &RandomGraphConfig {
                num_nodes: 40,
                num_edges: 120,
            },
            seed,
        );
        let nodes = db.num_nodes();
        let mut engine = engine::QueryEngine::new(db);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        for step in 0..4 {
            // Theorem 4.1 / Definition 4.3: for an exact rewriting the
            // view-based answer equals the direct answer — at every revision.
            let snapshot = snapshot_for_problem(&mut engine, &problem);
            let direct = answer_rpq_at(&snapshot, &problem.query, &problem.theory);
            let via_views = answer_rewriting_over_views_at(&snapshot, &rewriting);
            assert_eq!(direct, via_views, "seed {seed} revision {step}");

            let cmp = compare_on_database_at(&snapshot, &problem, &rewriting);
            assert!(cmp.sound && cmp.complete, "seed {seed} revision {step}");

            let from = rng.gen_range(0..nodes);
            let to = rng.gen_range(0..nodes);
            let label = automata::Symbol(rng.gen_range(0..domain.len()) as u32);
            engine.add_edge(from, label, to);
        }
        let stats = engine.stats();
        // The views were materialized once and only repaired afterwards…
        assert_eq!(stats.view_full_materializations, 3, "seed {seed}");
        assert!(stats.view_delta_repairs >= 4 * 3, "seed {seed}");
        // …and each automaton (query, three views, rewriting) was compiled
        // exactly once across all revisions.
        assert_eq!(stats.compile_misses, 5, "seed {seed}");
        assert!(stats.compile_hits > 0, "seed {seed}");
    }
}

#[test]
fn concurrent_snapshot_readers_keep_definition_4_3_at_their_pinned_revisions() {
    // The serving shape of the paper's workload: the rewriting is built
    // once, views are registered on a writer engine, and revision-pinned
    // snapshots are handed to reader threads.  While the writer streams
    // insertions (incrementally repairing its extensions copy-on-write),
    // every reader re-checks Theorem 4.1 / Definition 4.3 — view-based
    // answer == direct answer for an exact rewriting — at its *own*
    // revision, concurrently, through the shared caches.
    let problem = figure1_problem();
    let rewriting = rewrite_rpq(&problem).unwrap();
    assert!(rewriting.is_exact());
    let domain = problem.theory.domain().clone();
    let db = random_graph(
        &domain,
        &RandomGraphConfig {
            num_nodes: 40,
            num_edges: 120,
        },
        0xfab,
    );
    let nodes = db.num_nodes();

    let mut engine = engine::QueryEngine::new(db);
    let mut rng = StdRng::seed_from_u64(0x51afe);
    let mut snapshots = Vec::new();
    for _ in 0..4 {
        snapshots.push(snapshot_for_problem(&mut engine, &problem));
        let batch: Vec<_> = (0..3)
            .map(|_| {
                (
                    rng.gen_range(0..nodes),
                    automata::Symbol(rng.gen_range(0..domain.len()) as u32),
                    rng.gen_range(0..nodes),
                )
            })
            .collect();
        engine.try_apply(&WriteRequest::new(Mutation::AddEdges(&batch))).unwrap();
    }
    snapshots.push(snapshot_for_problem(&mut engine, &problem));

    std::thread::scope(|scope| {
        for snapshot in &snapshots {
            let problem = &problem;
            let rewriting = &rewriting;
            scope.spawn(move || {
                let direct = answer_rpq_at(snapshot, &problem.query, &problem.theory);
                let via_views = answer_rewriting_over_views_at(snapshot, rewriting);
                assert_eq!(
                    direct,
                    via_views,
                    "revision {} lost exactness",
                    snapshot.revision()
                );
                let cmp = compare_on_database_at(snapshot, problem, rewriting);
                assert!(cmp.sound && cmp.complete, "revision {}", snapshot.revision());
            });
        }
    });
    // Monotone insertions at distinct revisions: later snapshots answer at
    // least as much (and the revisions really are distinct).
    for pair in snapshots.windows(2) {
        assert_eq!(pair[0].revision() + 1, pair[1].revision());
        let before = answer_rpq_at(&pair[0], &problem.query, &problem.theory);
        let after = answer_rpq_at(&pair[1], &problem.query, &problem.theory);
        assert!(before.is_subset(&after), "answers must grow monotonically");
    }
    // One compile of each automaton (query, 3 views, rewriting) served
    // every revision and every reader thread.
    assert_eq!(engine.stats().compile_misses, 5);
}
