//! Cross-crate pipeline tests: construction options, reports, the Figure 1
//! artifacts, and the interplay between the regular-expression layer and the
//! RPQ layer.

use automata::{nfa_equivalent, Nfa};
use regexlang::{parse, thompson};
use rewriter::{
    compute_maximal_rewriting, compute_maximal_rewriting_with, run_and_report_with,
    RewriteProblem, RewriterOptions,
};

fn option_grid() -> Vec<RewriterOptions> {
    let mut out = Vec::new();
    for minimize_query_dfa in [false, true] {
        for use_glushkov in [false, true] {
            out.push(RewriterOptions {
                minimize_query_dfa,
                use_glushkov,
            });
        }
    }
    out
}

#[test]
fn all_construction_options_agree_on_language_and_exactness() {
    let problems = vec![
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]).unwrap(),
        RewriteProblem::parse("(a+b)*·c", [("u", "a+b"), ("w", "c")]).unwrap(),
        RewriteProblem::parse("a·b·c·a·b", [("x", "a·b"), ("y", "c")]).unwrap(),
        RewriteProblem::parse("a*", [("e", "a·a")]).unwrap(),
    ];
    for problem in problems {
        let reference = compute_maximal_rewriting(&problem);
        let reference_report = run_and_report_with(&problem, &RewriterOptions::default());
        for options in option_grid() {
            let other = compute_maximal_rewriting_with(&problem, &options);
            assert!(
                nfa_equivalent(
                    &Nfa::from_dfa(&reference.automaton),
                    &Nfa::from_dfa(&other.automaton)
                )
                .holds(),
                "language differs under {options:?} for {}",
                problem.query
            );
            let report = run_and_report_with(&problem, &options);
            assert_eq!(report.exact, reference_report.exact);
            assert_eq!(report.empty, reference_report.empty);
        }
    }
}

#[test]
fn odd_even_rewriting_example() {
    // L(E0) = words over {a} of even length; the view is a single `a`.
    // The maximal rewriting is (e·e)* and it is exact.
    let problem = RewriteProblem::parse("(a·a)*", [("e", "a")]).unwrap();
    let report = rewriter::run_and_report(&problem);
    assert!(report.exact);
    let rewriting = compute_maximal_rewriting(&problem);
    let expected = thompson(&parse("(e·e)*").unwrap(), problem.views.sigma_e()).unwrap();
    assert!(nfa_equivalent(&Nfa::from_dfa(&rewriting.automaton), &expected).holds());
    // With a length-two view instead, the rewriting of odd-length words is
    // empty.
    let odd = RewriteProblem::parse("a·(a·a)*", [("e", "a·a")]).unwrap();
    let report = rewriter::run_and_report(&odd);
    assert!(report.empty);
    assert!(!report.exact);
}

#[test]
fn overlapping_views_pick_the_union_of_decompositions() {
    // Two overlapping decompositions of the same query are both kept in the
    // maximal rewriting.
    let problem = RewriteProblem::parse(
        "a·b·c",
        [("ab", "a·b"), ("c_", "c"), ("a_", "a"), ("bc", "b·c")],
    )
    .unwrap();
    let rewriting = compute_maximal_rewriting(&problem);
    assert!(rewriting.accepts(&["ab", "c_"]));
    assert!(rewriting.accepts(&["a_", "bc"]));
    assert!(!rewriting.accepts(&["ab", "bc"]));
    let report = rewriter::run_and_report(&problem);
    assert!(report.exact);
}

#[test]
fn reports_serialize_and_round_trip_through_json() {
    let problem =
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]).unwrap();
    let report = rewriter::run_and_report(&problem);
    let json = serde_json::to_value(&report).unwrap();
    assert_eq!(json["exact"], serde_json::Value::Bool(true));
    assert_eq!(json["rewriting"], serde_json::Value::String("e2*·e1·e3*".into()));
    assert!(json["stats"]["query_dfa_states"].as_u64().unwrap() >= 2);
}

#[test]
fn figure1_artifacts_are_labeled_over_their_alphabets() {
    let problem =
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]).unwrap();
    let rewriting = compute_maximal_rewriting(&problem);
    let a_prime = rewriting.a_prime.to_nfa();
    assert!(rewriting.query_dfa.num_transitions() > 0, "A_d should have edges");
    assert!(a_prime.num_transitions() > 0, "A_prime should have edges");
    assert!(rewriting.automaton.num_transitions() > 0, "rewriting should have edges");
    // A' is labeled over the view alphabet.
    let e2 = problem.views.sigma_e().symbol("e2").unwrap();
    assert!(a_prime.transitions().any(|(_, label, _)| label == Some(e2)));
    // A_d is labeled over the base alphabet.
    let a = problem.views.sigma().symbol("a").unwrap();
    assert!(rewriting.query_dfa.transitions().any(|(_, label, _)| label == a));
}

#[test]
fn rpq_layer_agrees_with_regex_layer_on_label_queries() {
    // For label-based queries over an elementary theory, the RPQ rewriting is
    // exactly the regular-expression rewriting.
    let regex_problem =
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]).unwrap();
    let regex_rewriting = compute_maximal_rewriting(&regex_problem);
    let rpq_problem = rpq::RpqRewriteProblem::parse_labels(
        "a·(b·a+c)*",
        [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
    )
    .unwrap();
    let rpq_rewriting = rpq::rewrite_rpq(&rpq_problem).unwrap();
    assert!(nfa_equivalent(
        &Nfa::from_dfa(&regex_rewriting.automaton),
        &Nfa::from_dfa(&rpq_rewriting.maximal.automaton)
    )
    .holds());
}
