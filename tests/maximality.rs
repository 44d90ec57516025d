//! Property tests of the rewriting construction's defining invariants
//! (Definitions 2.1–2.3 and Theorems 2.1–2.3), on randomly generated queries
//! and view sets: seeded loops, 24 cases per property.

use automata::{determinize, dfa_subset_of_nfa, Nfa};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regexlang::{random_regex, random_views, thompson, RandomRegexConfig, Regex};
use rewriter::{
    check_exactness, compute_maximal_rewriting, expand_dfa, verify_rewriting, RewriteProblem,
    View, ViewSet,
};

/// Builds a random rewriting problem from two seeds.
fn problem_from_seeds(query_seed: u64, view_seed: u64, num_views: usize) -> RewriteProblem {
    let alphabet = automata::Alphabet::from_chars(['a', 'b', 'c']).unwrap();
    let query_cfg = RandomRegexConfig {
        target_size: 10,
        ..Default::default()
    };
    let view_cfg = RandomRegexConfig {
        target_size: 4,
        ..Default::default()
    };
    let query = random_regex(&alphabet, &query_cfg, query_seed);
    let views: Vec<View> = random_views(&alphabet, &view_cfg, num_views, view_seed)
        .into_iter()
        .enumerate()
        .map(|(i, def)| {
            let def = if def.is_syntactically_empty() {
                Regex::symbol("a")
            } else {
                def
            };
            View::new(format!("v{i}"), def)
        })
        .collect();
    let views = ViewSet::new(alphabet, views).unwrap();
    RewriteProblem::new(query, views).unwrap()
}

/// The cases of one property: 24 `(query_seed, view_seed)` pairs below
/// `bound`, from a generator seeded per property.  A failing pair is in the
/// assertion message; `problem_from_seeds` replays it.
fn cases(property: u64, bound: u64) -> impl Iterator<Item = (u64, u64)> {
    let mut rng = StdRng::seed_from_u64(property);
    (0..24).map(move |_| (rng.gen_range(0..bound), rng.gen_range(0..bound)))
}

/// Definition 2.1 (soundness): the expansion of the maximal rewriting is
/// always contained in the query language.
#[test]
fn maximal_rewriting_is_sound() {
    for (query_seed, view_seed) in cases(1, 500) {
        let problem = problem_from_seeds(query_seed, view_seed, 3);
        let rewriting = compute_maximal_rewriting(&problem);
        let expansion = expand_dfa(&rewriting.automaton, &problem.views);
        let query_nfa = thompson(&problem.query, problem.views.sigma()).unwrap();
        assert!(
            dfa_subset_of_nfa(&determinize(&expansion), &query_nfa).holds(),
            "seeds ({query_seed}, {view_seed}): unsound rewriting for query {} and views {}",
            problem.query,
            problem.views.render()
        );
    }
}

/// Theorem 2.2 (Σ_E-maximality): no single view symbol outside the
/// rewriting can be appended to one of its words while remaining a
/// rewriting … tested through the stronger check that every one- or
/// two-symbol Σ_E-word in a rewriting candidate relation is classified
/// consistently: a word is accepted by the rewriting automaton iff its
/// expansion is contained in the query language.
#[test]
fn membership_matches_expansion_containment() {
    for (query_seed, view_seed) in cases(2, 300) {
        let problem = problem_from_seeds(query_seed, view_seed, 2);
        let rewriting = compute_maximal_rewriting(&problem);
        let sigma_e = problem.views.sigma_e().clone();
        let query_nfa = thompson(&problem.query, problem.views.sigma()).unwrap();
        // Enumerate all Σ_E-words of length ≤ 2.
        let mut words: Vec<Vec<automata::Symbol>> = vec![vec![]];
        for a in sigma_e.symbols() {
            words.push(vec![a]);
            for b in sigma_e.symbols() {
                words.push(vec![a, b]);
            }
        }
        for word in words {
            let in_rewriting = rewriting.automaton.accepts(&word);
            let expansion = rewriter::expand_word(&word, &problem.views);
            let contained = dfa_subset_of_nfa(&determinize(&expansion), &query_nfa).holds();
            assert_eq!(
                in_rewriting, contained,
                "seeds ({query_seed}, {view_seed}): word {:?} misclassified for query {}",
                word, problem.query
            );
        }
    }
}

/// Theorem 2.3 / Corollary 2.1: when the exactness check succeeds, the
/// expansion of the rewriting is language-equal to the query.
#[test]
fn exactness_report_is_correct() {
    for (query_seed, view_seed) in cases(3, 300) {
        let seeds = format!("seeds ({query_seed}, {view_seed})");
        let problem = problem_from_seeds(query_seed, view_seed, 3);
        let rewriting = compute_maximal_rewriting(&problem);
        let report = check_exactness(&rewriting, &problem.views);
        let expansion = expand_dfa(&rewriting.automaton, &problem.views);
        let query_nfa = thompson(&problem.query, problem.views.sigma()).unwrap();
        let forward = dfa_subset_of_nfa(&determinize(&expansion), &query_nfa).holds();
        let backward = dfa_subset_of_nfa(&determinize(&query_nfa), &expansion).holds();
        assert!(forward, "{seeds}: soundness must always hold");
        assert_eq!(report.exact, backward, "{seeds}: exactness flag disagrees with containment");
        if let Some(cex) = report.counterexample {
            // The counterexample must be in L(E0) but not in the expansion.
            let refs: Vec<&str> = cex.iter().map(String::as_str).collect();
            let word = problem.views.sigma().word(&refs).unwrap();
            assert!(determinize(&query_nfa).accepts(&word), "{seeds}");
            assert!(!expansion.accepts(&word), "{seeds}");
        }
    }
}

/// The sub-language of any maximal rewriting is still a rewriting
/// (monotonicity of Definition 2.1), exercised through `verify_rewriting`.
#[test]
fn prefixes_of_the_rewriting_are_rewritings() {
    for (query_seed, view_seed) in cases(4, 200) {
        let problem = problem_from_seeds(query_seed, view_seed, 2);
        let rewriting = compute_maximal_rewriting(&problem);
        if let Some(word) = rewriting.automaton.shortest_word() {
            // The singleton language {word} must itself be a rewriting.
            let single = Nfa::word(problem.views.sigma_e().clone(), &word);
            assert!(
                verify_rewriting(&problem, &single).is_rewriting(),
                "seeds ({query_seed}, {view_seed})"
            );
        }
    }
}

/// Theorem 2.1 (deterministic spot check): Σ_E-maximality implies
/// Σ-maximality on Example 2.1, where the two notions visibly differ.
#[test]
fn the_compiled_rewriting_has_exactly_the_states_the_stats_call_trimmed() {
    // `RewriteStats::rewriting_trimmed_states` and the engine's compile
    // funnel must mean the same "trim": the stat is what a product sweep
    // over views is handed.  (`rewriter/tests/dense_pipeline.rs` pins the
    // stat itself to the tree pipeline's independent count.)
    let cache = engine::CompileCache::new();
    let (mut non_empty, mut sinks) = (0, 0);
    for seed in 0..150u64 {
        let problem = problem_from_seeds(seed * 7 + 1, seed * 13 + 2, 2 + (seed % 3) as usize);
        let maximal = compute_maximal_rewriting(&problem);
        let compiled = cache.compile_dfa(problem.views.sigma_e(), &maximal.automaton);
        assert_eq!(compiled.num_states(), maximal.stats.rewriting_trimmed_states, "seed {seed}");
        assert_eq!(maximal.is_empty(), compiled.num_states() == 0, "seed {seed}");
        non_empty += usize::from(!maximal.is_empty());
        sinks += usize::from(
            !maximal.is_empty() && compiled.num_states() < maximal.stats.rewriting_states,
        );
    }
    assert!(non_empty >= 30, "only {non_empty} generated problems had a rewriting");
    assert!(sinks >= 30, "only {sinks} non-empty rewritings had a state to trim");
}

#[test]
fn sigma_e_maximal_implies_sigma_maximal_on_example_2_1() {
    let problem = RewriteProblem::parse("a*", [("e", "a*")]).unwrap();
    let rewriting = compute_maximal_rewriting(&problem);
    // Any other rewriting's expansion is contained in the expansion of the
    // Σ_E-maximal one; test with the competitor R2 = e.
    let competitor = thompson(&regexlang::parse("e").unwrap(), problem.views.sigma_e()).unwrap();
    assert!(verify_rewriting(&problem, &competitor).is_rewriting());
    assert!(rewriter::sigma_contained(
        &competitor,
        &Nfa::from_dfa(&rewriting.automaton),
        &problem.views
    ));
}
