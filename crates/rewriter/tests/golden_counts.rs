//! Golden rewriting table: the construction's sizes, the expansion's size,
//! the exactness verdict and both strategies' counterexample words are exact
//! numbers and exact words for a fixed set of problems — the determinization
//! blow-up family `(a+b)*·a·(a+b)^k` for k = 4..10, the paper's four worked
//! examples and twenty seeded random problems.
//!
//! Every step of the pipeline explores breadth-first in symbol order, so none
//! of these depends on how a subset step is implemented; only a change to
//! what is built may move one.  **A change that moves an entry edits the
//! table and says why**, here and in its `CHANGES.md` entry.  History:
//!
//! * PR 25 — first table, written and passing at the parent commit, then
//!   passing unedited after subset steps stopped scanning the whole bitset.
//! * Views compiled by the funnel — `expansion_states` only: the views go
//!   through `regexlang::compile` (trimmed, bisimulation-merged Glushkov)
//!   instead of Thompson's construction, so every copy spliced into `B` is
//!   smaller (blow-up 320…20480 → 256…16384, figure 1 39 → 24).  Every
//!   language-determined column and both counterexample columns are
//!   unchanged.

use automata::{Alphabet, Symbol};
use regexlang::{random_regex, random_views, RandomRegexConfig, Regex};
use rewriter::{
    check_exactness_with, compute_maximal_rewriting, ExactnessStrategy, RewriteProblem, View,
    ViewSet,
};

/// `(problem, [query_nfa_states, query_dfa_states, a_prime_states,
/// a_prime_transitions, rewriting_states, rewriting_trimmed_states], is_empty,
/// expansion_states, exact, on-the-fly counterexample, explicit-complement
/// counterexample)`; a counterexample is its symbol names joined by `·`, the
/// empty word is `""`.
type Row<S> = (S, [usize; 6], bool, usize, bool, Option<S>, Option<S>);

#[rustfmt::skip]
const GOLDEN: &[Row<&str>] = &[
    ("blow-up k=4", [24, 32, 32, 96, 32, 32], false, 256, true, None, None),
    ("blow-up k=5", [28, 64, 64, 192, 64, 64], false, 512, true, None, None),
    ("blow-up k=6", [32, 128, 128, 384, 128, 128], false, 1024, true, None, None),
    ("blow-up k=7", [36, 256, 256, 768, 256, 256], false, 2048, true, None, None),
    ("blow-up k=8", [40, 512, 512, 1536, 512, 512], false, 4096, true, None, None),
    ("blow-up k=9", [44, 1024, 1024, 3072, 1024, 1024], false, 8192, true, None, None),
    ("blow-up k=10", [48, 2048, 2048, 6144, 2048, 2048], false, 16384, true, None, None),
    ("figure 1", [11, 3, 3, 9, 3, 2], false, 24, true, None, None),
    ("example 2.1", [3, 1, 1, 1, 1, 1], false, 2, true, None, None),
    ("example 2.3", [11, 3, 3, 6, 3, 2], false, 18, false, Some("a·c"), Some("a·c")),
    ("example 4.1", [7, 4, 4, 12, 4, 3], false, 28, true, None, None),
    ("random #0", [47, 4, 4, 11, 7, 1], false, 35, false, Some("a·b"), Some("a·b")),
    ("random #1", [13, 6, 6, 31, 16, 0], true, 144, false, Some("b"), Some("b")),
    ("random #2", [16, 8, 8, 20, 2, 0], true, 20, false, Some("a·a·a·a·a"), Some("a·a·a·a·a")),
    ("random #3", [16, 6, 6, 32, 4, 0], true, 28, false, Some("c"), Some("c")),
    ("random #4", [16, 6, 6, 17, 4, 2], false, 32, false, Some("a"), Some("a")),
    ("random #5", [18, 8, 8, 36, 5, 0], true, 60, false, Some("b·b·c"), Some("b·b·c")),
    ("random #6", [21, 4, 4, 12, 3, 0], true, 15, false, Some("a"), Some("a")),
    ("random #7", [15, 8, 8, 42, 6, 0], true, 54, false, Some("c·b·a"), Some("c·b·a")),
    ("random #8", [15, 4, 4, 14, 5, 0], true, 35, false, Some("a"), Some("a")),
    ("random #9", [13, 6, 6, 27, 9, 0], true, 81, false, Some("c·c·a"), Some("c·c·a")),
    ("random #10", [17, 2, 2, 4, 2, 1], false, 14, false, Some("a"), Some("a")),
    ("random #11", [28, 6, 6, 28, 8, 2], false, 72, false, Some("c"), Some("c")),
    ("random #12", [20, 1, 1, 2, 1, 1], false, 6, true, None, None),
    ("random #13", [23, 9, 9, 63, 9, 0], true, 63, false, Some("a·a·c"), Some("a·a·c")),
    ("random #14", [10, 5, 5, 14, 5, 0], true, 35, false, Some("b·a·a"), Some("b·a·a")),
    ("random #15", [15, 6, 6, 30, 22, 1], false, 176, false, Some("c·b·b·b"), Some("c·b·b·b")),
    ("random #16", [19, 7, 7, 21, 6, 0], true, 36, false, Some("a·a"), Some("a·a")),
    ("random #17", [13, 1, 1, 3, 1, 1], false, 11, false, Some("a"), Some("a")),
    ("random #18", [29, 4, 4, 11, 5, 2], false, 30, false, Some("b·b"), Some("b·b")),
    ("random #19", [22, 7, 7, 28, 11, 1], false, 110, false, Some("b"), Some("b")),
];

fn alphabet(size: usize) -> Alphabet {
    Alphabet::from_names((0..size).map(|i| ((b'a' + i as u8) as char).to_string()))
        .expect("distinct letters")
}

/// `bench::blowup_rewriting_problem` (downstream of this crate): the query
/// `(a+b)*·a·(a+b)^k` with the views `a`, `b` and `a·b`.
fn blowup(k: usize) -> RewriteProblem {
    let any = Regex::symbol("a").or(Regex::symbol("b"));
    let mut query = any.clone().star().then(Regex::symbol("a"));
    for _ in 0..k {
        query = query.then(any.clone());
    }
    let views = [
        View::new("va", Regex::symbol("a")),
        View::new("vb", Regex::symbol("b")),
        View::new("vab", Regex::symbol("a").then(Regex::symbol("b"))),
    ];
    let views = ViewSet::new(alphabet(2), views).expect("fixed views are well-formed");
    RewriteProblem::new(query, views).expect("family query is over {a,b}")
}

/// The paper's worked examples, as `benchmark/`'s render set has them.
fn paper_examples() -> Vec<(&'static str, RewriteProblem)> {
    let parse = |query, views: &[(&'static str, &'static str)]| {
        RewriteProblem::parse(query, views.iter().copied()).expect("paper example parses")
    };
    vec![
        (
            "figure 1",
            parse("a·(b·a+c)*", &[("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]),
        ),
        ("example 2.1", parse("a*", &[("e", "a*")])),
        (
            "example 2.3",
            parse("a·(b·a+c)*", &[("e1", "a"), ("e2", "a·c*·b")]),
        ),
        (
            "example 4.1",
            parse("a·(b+c)", &[("q1", "a"), ("q2", "b"), ("q3", "c")]),
        ),
    ]
}

/// A seeded random problem over two or three letters.
fn random_problem(case: u64) -> RewriteProblem {
    let alpha = alphabet(2 + (case % 2) as usize);
    let query_cfg = RandomRegexConfig {
        target_size: 8 + (case % 7) as usize,
        ..Default::default()
    };
    let view_cfg = RandomRegexConfig {
        target_size: 3 + (case % 3) as usize,
        ..Default::default()
    };
    let query = random_regex(&alpha, &query_cfg, case * 53 + 7);
    let views: Vec<View> = random_views(&alpha, &view_cfg, 2 + (case % 2) as usize, case * 59 + 3)
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

fn problems() -> Vec<(String, RewriteProblem)> {
    let mut problems: Vec<(String, RewriteProblem)> = (4..=10)
        .map(|k| (format!("blow-up k={k}"), blowup(k)))
        .collect();
    problems.extend(
        paper_examples()
            .into_iter()
            .map(|(name, p)| (name.to_string(), p)),
    );
    problems.extend((0..20).map(|case| (format!("random #{case}"), random_problem(case))));
    problems
}

fn measure(name: String, problem: &RewriteProblem) -> Row<String> {
    let rewriting = compute_maximal_rewriting(problem);
    let on_the_fly = check_exactness_with(&rewriting, &problem.views, ExactnessStrategy::OnTheFly);
    let explicit = check_exactness_with(
        &rewriting,
        &problem.views,
        ExactnessStrategy::ExplicitComplement,
    );
    assert_eq!(
        on_the_fly.exact, explicit.exact,
        "{name}: the strategies disagree"
    );
    assert_eq!(
        on_the_fly.expansion_states, explicit.expansion_states,
        "{name}"
    );
    let word = |cex: Option<Vec<String>>| cex.map(|w| w.join("·"));
    let s = &rewriting.stats;
    (
        name,
        [
            s.query_nfa_states,
            s.query_dfa_states,
            s.a_prime_states,
            s.a_prime_transitions,
            s.rewriting_states,
            s.rewriting_trimmed_states,
        ],
        s.is_empty,
        on_the_fly.expansion_states,
        on_the_fly.exact,
        word(on_the_fly.counterexample),
        word(explicit.counterexample),
    )
}

#[test]
fn rewriting_sizes_verdicts_and_counterexamples_are_exactly_the_golden_ones() {
    let measured: Vec<Row<String>> = problems()
        .into_iter()
        .map(|(name, problem)| measure(name, &problem))
        .collect();
    let golden: Vec<Row<String>> = GOLDEN
        .iter()
        .map(|(name, sizes, empty, expansion, exact, lazy, explicit)| {
            let owned = |w: &Option<&str>| w.map(str::to_string);
            (
                name.to_string(),
                *sizes,
                *empty,
                *expansion,
                *exact,
                owned(lazy),
                owned(explicit),
            )
        })
        .collect();
    assert_eq!(
        measured, golden,
        "rewriting table moved: edit the golden table and say why"
    );
}

#[test]
fn counterexamples_are_words_of_the_query_the_rewriting_cannot_produce() {
    let sigma = |problem: &RewriteProblem, word: &str| -> Vec<Symbol> {
        let names: Vec<&str> = word.split('·').filter(|n| !n.is_empty()).collect();
        problem
            .views
            .sigma()
            .word(&names)
            .expect("counterexample is over sigma")
    };
    for ((name, problem), row) in problems().iter().zip(GOLDEN) {
        let query = regexlang::thompson(&problem.query, problem.views.sigma()).unwrap();
        let rewriting = compute_maximal_rewriting(problem);
        let expansion = rewriter::expand_dfa(&rewriting.automaton, &problem.views);
        for word in [row.5, row.6].into_iter().flatten() {
            let word = sigma(problem, word);
            assert!(query.accepts(&word), "{name}: counterexample not in L(E0)");
            assert!(
                !expansion.accepts(&word),
                "{name}: counterexample is expanded"
            );
        }
        assert_eq!(
            row.5.is_some(),
            !row.4,
            "{name}: a counterexample iff not exact"
        );
    }
}
