//! Differential tests pinning the dense rewriting pipeline to the seed's
//! tree pipeline: `compute_maximal_rewriting` (dense determinize, Hopcroft
//! minimize, batched dense reachability sweeps, dense
//! complement-by-subset-construction) must reproduce
//! `testkit::compute_maximal_rewriting_baseline` **structurally** — the same `A_d`,
//! the same `A'`, the same rewriting automaton, the same stats — on the
//! paper's examples and on 200+ randomized problems, and the exactness
//! verdicts must coincide.

use automata::{dfa_equivalent, Alphabet};
use regexlang::{random_regex, random_views, RandomRegexConfig, Regex};
use rewriter::{
    check_exactness, compute_maximal_rewriting, compute_maximal_rewriting_with, MaximalRewriting,
    RewriteProblem, RewriterOptions, View, ViewSet,
};
use testkit::{compute_maximal_rewriting_baseline, compute_maximal_rewriting_with_baseline};

fn alphabet(size: usize) -> Alphabet {
    Alphabet::from_names((0..size).map(|i| ((b'a' + i as u8) as char).to_string()))
        .expect("distinct letters")
}

/// A random rewriting problem (mirrors `bench::random_problem`, which lives
/// downstream of this crate).
fn random_problem(case: u64) -> RewriteProblem {
    let alpha = alphabet(2 + (case % 2) as usize);
    let query_cfg = RandomRegexConfig {
        target_size: 6 + (case % 8) as usize,
        ..Default::default()
    };
    let view_cfg = RandomRegexConfig {
        target_size: 3 + (case % 3) as usize,
        ..Default::default()
    };
    let query = random_regex(&alpha, &query_cfg, case * 37 + 1);
    let views: Vec<View> = random_views(&alpha, &view_cfg, 2 + (case % 2) as usize, case * 41 + 5)
        .into_iter()
        .enumerate()
        .map(|(i, def)| {
            let def = if def.is_syntactically_empty() {
                Regex::symbol(alpha.names().next().expect("nonempty alphabet"))
            } else {
                def
            };
            View::new(format!("v{i}"), def)
        })
        .collect();
    let views = ViewSet::new(alpha, views).expect("generated views are well-formed");
    RewriteProblem::new(query, views).expect("generated query is over the alphabet")
}

fn assert_rewriting_identical(dense: &MaximalRewriting, tree: &MaximalRewriting, ctx: &str) {
    // A_d.
    assert_eq!(
        dense.query_dfa.transitions().collect::<Vec<_>>(),
        tree.query_dfa.transitions().collect::<Vec<_>>(),
        "{ctx}: A_d transitions"
    );
    assert_eq!(
        dense.query_dfa.final_states(),
        tree.query_dfa.final_states(),
        "{ctx}: A_d finals"
    );
    // A' (ε-free, so thawing lists exactly its transitions).
    let (dense_a_prime, tree_a_prime) = (dense.a_prime.to_nfa(), tree.a_prime.to_nfa());
    assert_eq!(
        dense_a_prime.transitions().collect::<Vec<_>>(),
        tree_a_prime.transitions().collect::<Vec<_>>(),
        "{ctx}: A' transitions"
    );
    assert_eq!(
        dense_a_prime.final_states(),
        tree_a_prime.final_states(),
        "{ctx}: A' finals"
    );
    // The rewriting automaton, with a language-level diagnosis on mismatch.
    let structural = dense.automaton.num_states() == tree.automaton.num_states()
        && dense.automaton.initial_state() == tree.automaton.initial_state()
        && dense.automaton.final_states() == tree.automaton.final_states()
        && dense.automaton.transitions().collect::<Vec<_>>()
            == tree.automaton.transitions().collect::<Vec<_>>();
    if !structural {
        let diagnosis = match dfa_equivalent(&dense.automaton, &tree.automaton) {
            automata::Containment::Holds => "languages agree (numbering diverged)".to_string(),
            automata::Containment::FailsWith(word) => {
                format!("shortest counterexample: {word:?}")
            }
        };
        panic!("{ctx}: rewriting automaton diverged — {diagnosis}");
    }
    // Stats summarize every intermediate artifact.
    assert_eq!(dense.stats.query_nfa_states, tree.stats.query_nfa_states, "{ctx}");
    assert_eq!(dense.stats.query_dfa_states, tree.stats.query_dfa_states, "{ctx}");
    assert_eq!(dense.stats.a_prime_states, tree.stats.a_prime_states, "{ctx}");
    assert_eq!(
        dense.stats.a_prime_transitions,
        tree.stats.a_prime_transitions,
        "{ctx}"
    );
    assert_eq!(dense.stats.rewriting_states, tree.stats.rewriting_states, "{ctx}");
    assert_eq!(
        dense.stats.rewriting_trimmed_states,
        tree.stats.rewriting_trimmed_states,
        "{ctx}"
    );
    assert_eq!(dense.stats.is_empty, tree.stats.is_empty, "{ctx}");
}

#[test]
fn paper_examples_agree_with_baseline() {
    let problems = [
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")])
            .unwrap(),
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b")]).unwrap(),
        RewriteProblem::parse("a*", [("e", "a*")]).unwrap(),
        RewriteProblem::parse("a·(b+c)", [("q1", "a"), ("q2", "b")]).unwrap(),
        RewriteProblem::parse("(a·b)*", [("v", "a·b")]).unwrap(),
        RewriteProblem::parse("a·b", [("v", "c")]).unwrap(),
    ];
    for (i, problem) in problems.iter().enumerate() {
        let dense = compute_maximal_rewriting(problem);
        let tree = compute_maximal_rewriting_baseline(problem);
        assert_rewriting_identical(&dense, &tree, &format!("paper example {i}"));
        let dense_exact = check_exactness(&dense, &problem.views);
        let tree_exact = check_exactness(&tree, &problem.views);
        assert_eq!(dense_exact.exact, tree_exact.exact, "paper example {i}");
        assert_eq!(
            dense_exact.counterexample, tree_exact.counterexample,
            "paper example {i}"
        );
    }
}

#[test]
fn random_constructions_agree_with_baseline() {
    let mut cases = 0usize;
    let mut nonempty = 0usize;
    let mut exact = 0usize;
    for case in 0..200u64 {
        let problem = random_problem(case);
        let dense = compute_maximal_rewriting(&problem);
        let tree = compute_maximal_rewriting_baseline(&problem);
        assert_rewriting_identical(&dense, &tree, &format!("case {case} ({})", problem.query));
        if !dense.is_empty() {
            nonempty += 1;
            let dense_exact = check_exactness(&dense, &problem.views);
            let tree_exact = check_exactness(&tree, &problem.views);
            assert_eq!(dense_exact.exact, tree_exact.exact, "case {case}");
            if dense_exact.exact {
                exact += 1;
            }
        }
        cases += 1;
    }
    assert!(cases >= 200, "only {cases} construction cases ran");
    // The sweep must cover empty, non-empty-inexact, and exact rewritings.
    assert!(nonempty >= 20, "only {nonempty} nonempty rewritings");
    assert!(exact >= 5, "only {exact} exact rewritings");
}

#[test]
fn option_ablations_agree_with_baseline() {
    // Every (minimize, glushkov) combination of the dense pipeline must
    // reproduce its tree twin structurally.
    for case in 0..20u64 {
        let problem = random_problem(case ^ 0x77);
        for minimize_query_dfa in [false, true] {
            for use_glushkov in [false, true] {
                let options = RewriterOptions {
                    minimize_query_dfa,
                    use_glushkov,
                };
                let dense = compute_maximal_rewriting_with(&problem, &options);
                let tree = compute_maximal_rewriting_with_baseline(&problem, &options);
                assert_rewriting_identical(
                    &dense,
                    &tree,
                    &format!("case {case} options {options:?}"),
                );
            }
        }
    }
}
