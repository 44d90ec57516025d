//! Answering queries and rewritings over concrete databases.
//!
//! Definition 4.3 of the paper defines a rewriting of a path query
//! semantically: for *every* database, evaluating the expansion of the
//! rewriting must return a subset of the query's answer (and exactly the
//! answer when the rewriting is exact).  This module makes both sides of the
//! definition executable:
//!
//! * [`answer_rpq`] evaluates a (possibly formula-based) query directly on a
//!   database, and
//! * [`answer_rewriting_over_views`] materializes the view extensions and
//!   evaluates the rewriting over them — the operational reading of
//!   "using only the views".
//!
//! [`compare_on_database`] packages the soundness/completeness comparison the
//! integration tests and experiment E9/E10 rely on.
//!
//! Every view-based path reads an [`engine::EngineSnapshot`]: the `*_at`
//! functions take one, and [`snapshot_for_problem`] makes one — it registers
//! the problem's views on a caller-held [`engine::QueryEngine`] and publishes
//! the current revision.  Held across calls, the engine shares its compile
//! cache (each view and rewriting automaton is frozen once), its revisioned
//! view-extension cache and its parallel evaluator; it may mutate between
//! calls — insertions and deletions alike — and the cached view extensions
//! are repaired incrementally rather than re-materialized.  Any number of
//! reader threads answer queries and rewritings at a snapshot's pinned
//! revision with `&self`.  The database-owning entry points
//! (`materialize_views`, `compare_on_database`,
//! `answer_rewriting_over_views`) are the same calls over a one-shot engine.

use std::sync::Arc;

use engine::{EngineSnapshot, QueryEngine, ReadOutcome, ReadRequest};
use graphdb::{eval_regex, Answer, GraphDb, MaterializedViews, Theory};
use serde::Serialize;

use crate::query::Rpq;
use crate::rewrite::{RpqRewriteProblem, RpqRewriting};

/// Evaluates a regular path query over a database under a theory: the query
/// is grounded to the domain constants and evaluated by product reachability.
///
/// The database's label domain must contain every constant the grounded query
/// mentions (it may contain more — e.g. labels no view or query talks about);
/// a missing label is reported by the underlying evaluator.
pub fn answer_rpq(db: &GraphDb, query: &Rpq, theory: &Theory) -> Answer {
    let grounded = query.ground(theory);
    eval_regex(db, &grounded)
}

/// Like [`answer_rpq`] but against a published snapshot: callable with
/// `&self` from any reader thread, answering at the snapshot's pinned
/// revision through the engine's shared compile and answer caches (the
/// grounded query is compiled once, the answer cached per revision).
pub fn answer_rpq_at(snapshot: &EngineSnapshot, query: &Rpq, theory: &Theory) -> Arc<Answer> {
    snapshot.eval_regex(&query.ground(theory))
}

/// Registers the (grounded) views of `problem` on `engine`, reusing cached
/// compilations and extensions for views already registered under the same
/// name and definition.
pub fn register_problem_views(engine: &mut QueryEngine, problem: &RpqRewriteProblem) {
    for (name, view) in &problem.views {
        engine.register_view(name, view.ground(&problem.theory));
    }
}

/// Registers the (grounded) views of `problem` and publishes the current
/// revision's immutable snapshot: the read handle for concurrent serving.
/// View definitions are frozen via the engine's compile cache, extensions
/// come from its revisioned view cache (incrementally maintained across
/// mutations), and evaluation runs on its thread pool.  Hand clones of the returned `Arc` to reader threads and keep mutating
/// the writer; each reader keeps answering at its pinned revision via
/// [`answer_rpq_at`] / [`answer_rewriting_over_views_at`] /
/// [`compare_on_database_at`].
pub fn snapshot_for_problem(
    engine: &mut QueryEngine,
    problem: &RpqRewriteProblem,
) -> Arc<EngineSnapshot> {
    register_problem_views(engine, problem);
    engine.publish_snapshot()
}

/// Materializes the (grounded) views of `problem` over `db` with a one-shot
/// engine.  Callers evaluating repeatedly should hold a [`QueryEngine`] and
/// take [`snapshot_for_problem`]s of it to keep its caches warm.
pub fn materialize_views(db: &GraphDb, problem: &RpqRewriteProblem) -> MaterializedViews {
    let mut engine = QueryEngine::new(db.clone());
    (*snapshot_for_problem(&mut engine, problem).materialized_views()).clone()
}

/// Like [`answer_rewriting_over_views`] but against a published snapshot
/// (see [`snapshot_for_problem`]): evaluates the rewriting over the view
/// extensions captured at the snapshot's revision, with `&self` — an
/// [`engine::Query::OverViews`] read, so it runs on the engine's pool and
/// through its caches like any other (the dense rewriting automaton is
/// interned in the compile cache by DFA fingerprint, so repeated calls skip
/// both the tree-NFA construction and the freeze).
///
/// # Panics
/// Panics if the snapshot's views are not the rewriting's view alphabet.
pub fn answer_rewriting_over_views_at(
    snapshot: &EngineSnapshot,
    rewriting: &RpqRewriting,
) -> Arc<Answer> {
    match snapshot.try_eval(&ReadRequest::full(&rewriting.maximal.automaton)) {
        Ok(ReadOutcome::Answer(answer)) => answer,
        Ok(other) => unreachable!("a full-shape read yields an answer, not {other:?}"),
        Err(e) => panic!("{e}"),
    }
}

/// Evaluates the rewriting over the materialized views only (never touching
/// the base edges of the database).
pub fn answer_rewriting_over_views(
    db: &GraphDb,
    problem: &RpqRewriteProblem,
    rewriting: &RpqRewriting,
) -> Answer {
    let mut engine = QueryEngine::new(db.clone());
    let snapshot = snapshot_for_problem(&mut engine, problem);
    (*answer_rewriting_over_views_at(&snapshot, rewriting)).clone()
}

/// Side-by-side comparison of direct evaluation and view-based evaluation on
/// one database.
#[derive(Debug, Clone, Serialize)]
pub struct AnswerComparison {
    /// `|ans(Q0, DB)|`
    pub direct_size: usize,
    /// `|ans(exp(L(R)), DB)|` computed over the materialized views.
    pub via_views_size: usize,
    /// Whether every view-based answer is a direct answer (must always hold
    /// for a rewriting — Definition 4.3).
    pub sound: bool,
    /// Whether every direct answer is recovered through the views (holds for
    /// exact rewritings by Theorem 4.1; may hold incidentally on a given
    /// database even for non-exact ones).
    pub complete: bool,
    /// Total number of materialized view tuples.
    pub view_tuples: usize,
}

/// Evaluates both sides on `db` and reports the comparison, sharing one
/// engine (hence one compile cache and one view materialization) between
/// the direct and view-based sides.
pub fn compare_on_database(
    db: &GraphDb,
    problem: &RpqRewriteProblem,
    rewriting: &RpqRewriting,
) -> AnswerComparison {
    let mut engine = QueryEngine::new(db.clone());
    compare_on_database_at(&snapshot_for_problem(&mut engine, problem), problem, rewriting)
}

/// Like [`compare_on_database`] but against a published snapshot (see
/// [`snapshot_for_problem`]): both sides of the comparison are answered at
/// the snapshot's pinned revision, with `&self`, from any thread.  Across
/// repeated snapshots of one held engine (per-seed experiment loops,
/// incremental workloads) every view, query, and rewriting automaton is
/// frozen exactly once.
pub fn compare_on_database_at(
    snapshot: &EngineSnapshot,
    problem: &RpqRewriteProblem,
    rewriting: &RpqRewriting,
) -> AnswerComparison {
    let direct = answer_rpq_at(snapshot, &problem.query, &problem.theory);
    let via_views = answer_rewriting_over_views_at(snapshot, rewriting);
    let view_tuples = snapshot.materialized_views().total_tuples();
    AnswerComparison {
        direct_size: direct.len(),
        via_views_size: via_views.len(),
        sound: via_views.is_subset(&direct),
        complete: direct.is_subset(&via_views),
        view_tuples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::rewrite_rpq;
    use automata::Alphabet;
    use graphdb::{random_graph, RandomGraphConfig};

    fn chain_db() -> GraphDb {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
        db.add_edge_named("n0", "a", "n1");
        db.add_edge_named("n1", "b", "n2");
        db.add_edge_named("n2", "a", "n1");
        db.add_edge_named("n1", "c", "n1");
        db
    }

    fn figure1_problem() -> RpqRewriteProblem {
        RpqRewriteProblem::parse_labels(
            "a·(b·a+c)*",
            [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
        )
        .unwrap()
    }

    #[test]
    fn exact_rewriting_answers_match_direct_evaluation() {
        let problem = figure1_problem();
        let rewriting = rewrite_rpq(&problem).unwrap();
        assert!(rewriting.is_exact());
        let db = chain_db();
        let direct = answer_rpq(&db, &problem.query, &problem.theory);
        let via_views = answer_rewriting_over_views(&db, &problem, &rewriting);
        assert_eq!(direct, via_views);
        let cmp = compare_on_database(&db, &problem, &rewriting);
        assert!(cmp.sound && cmp.complete);
        assert_eq!(cmp.direct_size, cmp.via_views_size);
        assert!(cmp.view_tuples > 0);
    }

    #[test]
    fn non_exact_rewritings_are_sound_on_every_random_database() {
        // Definition 4.3: ans(exp(L(R)), DB) ⊆ ans(Q0, DB) for every DB.
        let problem =
            RpqRewriteProblem::parse_labels("a·(b+c)", [("q1", "a"), ("q2", "b")]).unwrap();
        let rewriting = rewrite_rpq(&problem).unwrap();
        assert!(!rewriting.is_exact());
        let domain = problem.theory.domain().clone();
        for seed in 0..8 {
            let db = random_graph(
                &domain,
                &RandomGraphConfig {
                    num_nodes: 25,
                    num_edges: 80,
                },
                seed,
            );
            let cmp = compare_on_database(&db, &problem, &rewriting);
            assert!(cmp.sound, "unsound on seed {seed}");
        }
    }

    #[test]
    fn non_exact_rewriting_misses_answers_on_a_witness_database() {
        // Q0 = a·(b+c) rewritten with {a, b} misses paths ending in c.
        let problem =
            RpqRewriteProblem::parse_labels("a·(b+c)", [("q1", "a"), ("q2", "b")]).unwrap();
        let rewriting = rewrite_rpq(&problem).unwrap();
        let mut db = GraphDb::new(problem.theory.domain().clone());
        db.add_edge_named("x", "a", "y");
        db.add_edge_named("y", "c", "z");
        let cmp = compare_on_database(&db, &problem, &rewriting);
        assert!(cmp.sound);
        assert!(!cmp.complete);
        assert_eq!(cmp.direct_size, 1);
        assert_eq!(cmp.via_views_size, 0);
    }

    #[test]
    fn exact_rewritings_agree_on_random_databases() {
        let problem = figure1_problem();
        let rewriting = rewrite_rpq(&problem).unwrap();
        let domain = problem.theory.domain().clone();
        for seed in 0..8 {
            let db = random_graph(
                &domain,
                &RandomGraphConfig {
                    num_nodes: 20,
                    num_edges: 70,
                },
                seed,
            );
            let cmp = compare_on_database(&db, &problem, &rewriting);
            assert!(cmp.sound && cmp.complete, "mismatch on seed {seed}");
        }
    }

    #[test]
    fn engine_reuse_shares_compilations_across_comparisons() {
        let problem = figure1_problem();
        let rewriting = rewrite_rpq(&problem).unwrap();
        let mut engine = QueryEngine::new(chain_db());
        let compare = |engine: &mut QueryEngine| {
            compare_on_database_at(&snapshot_for_problem(engine, &problem), &problem, &rewriting)
        };
        let first = compare(&mut engine);
        let compiles_after_first = engine.stats().compile_misses;
        let second = compare(&mut engine);
        assert_eq!(first.direct_size, second.direct_size);
        assert_eq!(first.via_views_size, second.via_views_size);
        assert_eq!(
            engine.stats().compile_misses,
            compiles_after_first,
            "second comparison must reuse every frozen automaton"
        );
        // Nothing changed in between, so both sides of the second comparison
        // — the Σ_E read as much as the direct one — were cache hits.
        assert!(engine.stats().answer_hits >= 2);
        // And it matches the one-shot path.
        let one_shot = compare_on_database(engine.db(), &problem, &rewriting);
        assert_eq!(one_shot.direct_size, second.direct_size);
        assert_eq!(one_shot.via_views_size, second.via_views_size);
    }

    #[test]
    fn incremental_engine_keeps_view_based_answers_correct() {
        // Mutate through the engine: the repaired extensions must keep the
        // exact rewriting's view-based answer equal to direct evaluation.
        let problem = figure1_problem();
        let rewriting = rewrite_rpq(&problem).unwrap();
        assert!(rewriting.is_exact());
        let mut engine = QueryEngine::new(chain_db());
        let _ = snapshot_for_problem(&mut engine, &problem);
        engine.add_edge_named("n2", "c", "n0");
        engine.add_edge_named("n0", "b", "n1");
        let snapshot = snapshot_for_problem(&mut engine, &problem);
        let direct = answer_rpq_at(&snapshot, &problem.query, &problem.theory);
        let via_views = answer_rewriting_over_views_at(&snapshot, &rewriting);
        assert_eq!(direct, via_views);
        assert!(engine.stats().view_delta_repairs > 0);
        assert_eq!(engine.stats().view_full_materializations, 3);
    }

    #[test]
    fn incremental_engine_stays_correct_under_deletion() {
        // Mutate through the engine with deletions too: the DRed-repaired
        // extensions must keep the exact rewriting's view-based answer equal
        // to direct evaluation at every revision.
        let problem = figure1_problem();
        let rewriting = rewrite_rpq(&problem).unwrap();
        assert!(rewriting.is_exact());
        let mut engine = QueryEngine::new(chain_db());
        let _ = snapshot_for_problem(&mut engine, &problem);
        engine.add_edge_named("n2", "c", "n0");
        engine.remove_edge_named("n1", "c", "n1");
        engine.remove_edge_named("n2", "c", "n0");
        let snapshot = snapshot_for_problem(&mut engine, &problem);
        let direct = answer_rpq_at(&snapshot, &problem.query, &problem.theory);
        let via_views = answer_rewriting_over_views_at(&snapshot, &rewriting);
        assert_eq!(direct, via_views);
        assert!(engine.stats().view_deletion_repairs > 0);
        assert_eq!(engine.stats().view_full_materializations, 3, "repairs only");
    }

    #[test]
    fn pinned_snapshot_comparisons_survive_writer_deletions() {
        // A snapshot taken before a deletion keeps answering the Definition
        // 4.3 comparison at its own revision, from any thread, while the
        // writer's later snapshots see the shrunken database.
        let problem = figure1_problem();
        let rewriting = rewrite_rpq(&problem).unwrap();
        let mut engine = QueryEngine::new(chain_db());
        let before = snapshot_for_problem(&mut engine, &problem);
        let cmp_before = compare_on_database_at(&before, &problem, &rewriting);
        assert!(cmp_before.sound && cmp_before.complete);

        engine.remove_edge_named("n0", "a", "n1");
        let after = snapshot_for_problem(&mut engine, &problem);
        let cmp_after = compare_on_database_at(&after, &problem, &rewriting);
        assert!(cmp_after.sound && cmp_after.complete);
        assert!(cmp_after.direct_size < cmp_before.direct_size);

        // The pinned handle still reports exactly the pre-deletion sizes.
        let repinned = compare_on_database_at(&before, &problem, &rewriting);
        assert_eq!(repinned.direct_size, cmp_before.direct_size);
        assert_eq!(repinned.via_views_size, cmp_before.via_views_size);
    }

    #[test]
    #[should_panic(expected = "not a label")]
    fn mismatched_domains_are_rejected() {
        let problem = figure1_problem();
        let db = GraphDb::new(Alphabet::from_chars(['x']).unwrap());
        let _ = answer_rpq(&db, &problem.query, &problem.theory);
    }

    #[test]
    fn databases_may_have_extra_labels() {
        // The database exposes labels the query never mentions; evaluation
        // and view-based answering must still work (the travel examples rely
        // on this).
        let db = graphdb::travel_graph(4);
        let problem = RpqRewriteProblem::parse_labels(
            "(rome+jerusalem)·flight*·restaurant",
            [
                ("v_landmark", "rome+jerusalem"),
                ("v_hop", "flight"),
                ("v_eat", "restaurant"),
            ],
        )
        .unwrap();
        let rewriting = rewrite_rpq(&problem).unwrap();
        let cmp = compare_on_database(&db, &problem, &rewriting);
        assert!(cmp.sound && cmp.complete);
        assert!(cmp.direct_size > 0);
    }
}
