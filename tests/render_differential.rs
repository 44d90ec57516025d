//! Differential suite for rendering: the hash-consed `regexlang` renderer
//! against the tree renderer it replaced (`testkit::render`).
//!
//! `nfa_to_regex` / `dfa_to_regex` and `simplify` intern their expressions
//! and memoize the simplification rules per distinct sub-expression; the
//! baselines clone and re-simplify owned trees.  Both apply the same rules in
//! the same order, so every comparison here is on `to_string()`, byte for
//! byte — not up to language equality.

use automata::random::{random_dfa, random_nfa, RandomAutomatonConfig};
use automata::{Alphabet, DenseNfa, Dfa};
use bench::blowup_rewriting_problem;
use regexlang::{
    dfa_to_regex, nfa_to_regex, random_regex, simplify, thompson, RandomRegexConfig, Regex,
};
use rewriter::{compute_maximal_rewriting, RewriteProblem};
use testkit::render::{nfa_to_regex_baseline, simplify_baseline};

fn abc() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c']).unwrap()
}

fn dfa_to_regex_baseline(dfa: &Dfa) -> Regex {
    nfa_to_regex_baseline(&DenseNfa::from_dfa(dfa))
}

fn assert_same_text(what: &str, production: &Regex, baseline: &Regex) {
    assert_eq!(production.to_string(), baseline.to_string(), "{what}");
}

/// The production render and its `simplify` against both baselines.
fn check_rendering(what: &str, production: Regex, baseline: Regex) {
    assert_same_text(what, &production, &baseline);
    assert_same_text(
        &format!("{what}, simplified"),
        &simplify(&production),
        &simplify_baseline(&baseline),
    );
}

fn automaton_configs() -> impl Iterator<Item = RandomAutomatonConfig> {
    (1..=7).flat_map(|num_states| {
        [0.15, 0.3, 0.5].map(move |density| RandomAutomatonConfig {
            num_states,
            density,
            final_probability: 0.35,
        })
    })
}

#[test]
fn random_dfas_render_byte_identically() {
    let alphabet = abc();
    for (i, config) in automaton_configs().enumerate() {
        for seed in 0..12u64 {
            let dfa = random_dfa(&alphabet, &config, seed * 131 + i as u64);
            check_rendering(
                &format!("dfa config #{i} seed {seed}"),
                dfa_to_regex(&dfa),
                dfa_to_regex_baseline(&dfa),
            );
        }
    }
}

#[test]
fn random_nfas_render_byte_identically() {
    let alphabet = abc();
    for (i, config) in automaton_configs().enumerate() {
        for seed in 0..8u64 {
            let nfa = DenseNfa::from_nfa(&random_nfa(&alphabet, &config, seed * 977 + i as u64));
            check_rendering(
                &format!("nfa config #{i} seed {seed}"),
                nfa_to_regex(&nfa),
                nfa_to_regex_baseline(&nfa),
            );
        }
    }
}

#[test]
fn thompson_epsilon_nfas_render_byte_identically() {
    let alphabet = abc();
    let config = RandomRegexConfig {
        target_size: 7,
        ..RandomRegexConfig::default()
    };
    for seed in 0..100u64 {
        let expr = random_regex(&alphabet, &config, seed);
        let nfa = DenseNfa::from_nfa(&thompson(&expr, &alphabet).unwrap());
        check_rendering(
            &format!("thompson({expr})"),
            nfa_to_regex(&nfa),
            nfa_to_regex_baseline(&nfa),
        );
    }
}

/// Random expressions, plus variants that reach the rules a random draw
/// rarely does: ∅ leaves, duplicated unions and adjacent equal stars.
#[test]
fn random_regexes_simplify_byte_identically() {
    let alphabet = abc();
    for (target_size, star_probability, epsilon_probability) in [
        (6, 0.2, 0.05),
        (14, 0.35, 0.2),
        (30, 0.3, 0.1),
        (60, 0.25, 0.15),
    ] {
        let config = RandomRegexConfig {
            target_size,
            star_probability,
            epsilon_probability,
        };
        for seed in 0..150u64 {
            let expr = random_regex(&alphabet, &config, seed);
            let with_empty = expr.substitute(&|name| match name {
                "c" => Regex::Empty,
                other => Regex::symbol(other),
            });
            let variants = [
                with_empty.clone(),
                expr.clone().or(with_empty.clone()).or(expr.clone()),
                expr.clone()
                    .star()
                    .then(expr.clone().star())
                    .then(expr.clone().optional()),
                with_empty.clone().plus().optional().star(),
                expr,
            ];
            for variant in &variants {
                assert_same_text(
                    &format!("simplify({variant})"),
                    &simplify(variant),
                    &simplify_baseline(variant),
                );
            }
        }
    }
}

fn check_problem(what: &str, problem: &RewriteProblem) {
    let rewriting = compute_maximal_rewriting(problem);
    let baseline_raw = dfa_to_regex_baseline(&rewriting.automaton);
    assert_same_text(what, &dfa_to_regex(&rewriting.automaton), &baseline_raw);
    assert_same_text(
        &format!("{what}, rendered"),
        &rewriting.regex(),
        &simplify_baseline(&baseline_raw),
    );
}

#[test]
fn paper_examples_render_byte_identically() {
    let examples = [
        (
            "a·(b·a+c)*",
            vec![("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
        ),
        ("a*", vec![("e", "a*")]),
        ("a·(b·a+c)*", vec![("e1", "a"), ("e2", "a·c*·b")]),
        ("a·(b+c)", vec![("q1", "a"), ("q2", "b"), ("q3", "c")]),
    ];
    for (i, (query, views)) in examples.into_iter().enumerate() {
        let problem = RewriteProblem::parse(query, views).unwrap();
        check_problem(&format!("example #{i}: {query}"), &problem);
    }
}

#[test]
fn blowup_rewriting_k3_renders_byte_identically() {
    check_problem("blow-up k=3", &blowup_rewriting_problem(3));
}
