//! Integration tests reproducing every worked example of the paper
//! end-to-end through the public APIs (experiments E1–E4 of the
//! `experiments` binary, `crates/bench/src/bin/experiments.rs`).

use automata::{nfa_equivalent, DenseNfa, Nfa};
use regexlang::{parse, thompson};
use rewriter::{rewrite, run_and_report, RewriteProblem};
use rpq::{find_partial_rewriting, rewrite_rpq, RpqRewriteProblem};

/// Checks that the rewriting automaton denotes exactly the language of the
/// given expression over the view symbols.
fn assert_rewriting_language(rewriting: &rewriter::MaximalRewriting, expected: &str) {
    let expected_nfa = thompson(&parse(expected).unwrap(), rewriting.automaton.alphabet()).unwrap();
    assert!(
        nfa_equivalent(&Nfa::from_dfa(&rewriting.automaton), &expected_nfa).holds(),
        "expected the rewriting language {expected}, got {}",
        rewriting.regex()
    );
}

#[test]
fn figure1_full_pipeline() {
    // Example 2.2 / Figure 1: E0 = a·(b·a+c)*, E = {a, a·c*·b, c}.
    let problem = RewriteProblem::parse(
        "a·(b·a+c)*",
        [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
    )
    .unwrap();
    let (rewriting, exactness) = rewrite(&problem);
    assert_rewriting_language(&rewriting, "e2*·e1·e3*");
    // Example 2.3: the rewriting is exact.
    assert!(exactness.exact);
    assert!(exactness.counterexample.is_none());
    // The printable form simplifies to the paper's expression.
    assert_eq!(rewriting.regex().to_string(), "e2*·e1·e3*");
}

#[test]
fn figure1_report_is_consistent() {
    let problem = RewriteProblem::parse(
        "a·(b·a+c)*",
        [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
    )
    .unwrap();
    let report = run_and_report(&problem);
    assert!(report.exact);
    assert!(!report.empty);
    assert_eq!(report.rewriting, "e2*·e1·e3*");
    assert_eq!(report.stats.a_prime_states, report.stats.query_dfa_states);
}

#[test]
fn example_2_1_sigma_e_maximality() {
    // E0 = a*, E = {a*}: the Σ_E-maximal rewriting is e*, not e.
    let problem = RewriteProblem::parse("a*", [("e", "a*")]).unwrap();
    let (rewriting, exactness) = rewrite(&problem);
    assert_rewriting_language(&rewriting, "e*");
    assert!(exactness.exact);
    // e alone is a rewriting (Definition 2.1) but strictly smaller over Σ_E.
    let candidate = thompson(&parse("e").unwrap(), problem.views.sigma_e()).unwrap();
    assert!(rewriter::verify_rewriting(&problem, &candidate).is_rewriting());
    let (candidate, maximal) =
        (DenseNfa::from_nfa(&candidate), DenseNfa::from_dfa(&rewriting.automaton));
    assert!(rewriter::sigma_e_contained(&candidate, &maximal));
    assert!(!rewriter::sigma_e_contained(&maximal, &candidate));
}

#[test]
fn example_2_3_dropping_a_view_loses_exactness() {
    let problem =
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b")]).unwrap();
    let (rewriting, exactness) = rewrite(&problem);
    assert_rewriting_language(&rewriting, "e2*·e1");
    assert!(!exactness.exact);
    // The counterexample is a word of L(E0) that the views cannot produce.
    let cex = exactness.counterexample.unwrap();
    let cex_refs: Vec<&str> = cex.iter().map(String::as_str).collect();
    let query_dfa = automata::determinize(
        &thompson(&problem.query, problem.views.sigma()).unwrap(),
    );
    assert!(query_dfa.accepts_names(&cex_refs));
}

#[test]
fn example_4_1_rpq_rewriting_and_partial_rewriting() {
    // Q0 = a·(b+c), Q = {a, b}: the rewriting q1·q2 is not exact.
    let problem =
        RpqRewriteProblem::parse_labels("a·(b+c)", [("q1", "a"), ("q2", "b")]).unwrap();
    let rewriting = rewrite_rpq(&problem).unwrap();
    assert_eq!(rewriting.regex().to_string(), "q1·q2");
    assert!(!rewriting.is_exact());

    // Adding the view c (as the paper does) yields the exact q1·(q2+q3).
    let extended = RpqRewriteProblem::parse_labels(
        "a·(b+c)",
        [("q1", "a"), ("q2", "b"), ("q3", "c")],
    )
    .unwrap();
    let rewriting = rewrite_rpq(&extended).unwrap();
    assert!(rewriting.is_exact());
    assert!(rewriting.maximal.accepts(&["q1", "q2"]));
    assert!(rewriting.maximal.accepts(&["q1", "q3"]));
    assert!(!rewriting.maximal.accepts(&["q1"]));

    // The partial-rewriting search discovers the same extension on its own.
    let partial = find_partial_rewriting(&problem).unwrap();
    assert_eq!(partial.num_added(), 1);
    assert!(partial.added[0].is_elementary());
    assert!(partial.rewriting.is_exact());
}

#[test]
fn intro_query_rome_jerusalem_restaurant() {
    // The introduction's motivating query, rewritten over per-label views and
    // answered through them on the synthetic travel graph.
    let db = graphdb::travel_graph(5);
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
    assert!(rewriting.is_exact());
    let cmp = rpq::compare_on_database(&db, &problem, &rewriting);
    assert!(cmp.sound && cmp.complete);
    assert!(cmp.direct_size > 0);
}
