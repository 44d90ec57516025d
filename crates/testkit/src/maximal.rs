//! The seed's tree pipeline for the maximal rewriting (Theorem 2.2) — Moore
//! minimization, `BTreeSet` reachability sweeps, tree subset construction —
//! the oracle for [`rewriter::compute_maximal_rewriting_with`]: the two
//! produce structurally identical automata, state numbering included.

use automata::{DenseNfa, Nfa};
use regexlang::{glushkov_dense, thompson};
use rewriter::{MaximalRewriting, RewriteProblem, RewriteStats, RewriterOptions};

use crate::dense_ops::minimize_baseline;
use crate::determinize::determinize_with_subsets_baseline;
use crate::dfa::{
    complement, complete, coreachable_states, is_empty_language, reachable_states, trim_unreachable,
};
use crate::product::word_reachability_relation_baseline;

/// [`compute_maximal_rewriting_with_baseline`] with default options.
pub fn compute_maximal_rewriting_baseline(problem: &RewriteProblem) -> MaximalRewriting {
    compute_maximal_rewriting_with_baseline(problem, &RewriterOptions::default())
}

/// The construction of Theorem 2.2 on tree automata.  `A'` is built as a
/// tree [`Nfa`] and frozen into the [`DenseNfa`] field at the end; it has no
/// ε-moves, so freezing changes no transition.
pub fn compute_maximal_rewriting_with_baseline(
    problem: &RewriteProblem,
    options: &RewriterOptions,
) -> MaximalRewriting {
    let sigma = problem.views.sigma().clone();
    let sigma_e = problem.views.sigma_e().clone();

    // Step 1: deterministic automaton A_d for E0.
    let query_nfa = if options.use_glushkov {
        glushkov_dense(&problem.query, &sigma)
            .expect("query symbols checked at problem construction")
            .to_nfa()
    } else {
        thompson(&problem.query, &sigma).expect("query symbols checked at problem construction")
    };
    let query_nfa_states = query_nfa.num_states();
    let mut query_dfa = determinize_with_subsets_baseline(&query_nfa).dfa;
    if options.minimize_query_dfa {
        query_dfa = minimize_baseline(&query_dfa);
    }
    let query_dfa = complete(&query_dfa);

    // Step 2: A' over Σ_E with the same states as A_d.
    let mut a_prime = Nfa::new(sigma_e.clone());
    a_prime.add_states(query_dfa.num_states());
    a_prime.set_initial(query_dfa.initial() as usize);
    for s in 0..query_dfa.num_states() {
        if !query_dfa.is_final(s as u32) {
            a_prime.set_final(s);
        }
    }
    for (index, view) in problem.views.views().enumerate() {
        let view_sym = sigma_e
            .symbol(&view.symbol)
            .expect("view symbols are exactly sigma_e");
        let view_nfa = problem.views.automaton(index);
        for (si, sj) in word_reachability_relation_baseline(&query_dfa, view_nfa) {
            a_prime.add_transition(si as usize, view_sym, sj as usize);
        }
    }

    // Step 3: the rewriting is the complement of A'.
    let rewriting = complement(&determinize_with_subsets_baseline(&a_prime).dfa);
    let trimmed = trim_unreachable(&rewriting);
    let trimmed_productive: usize = coreachable_states(&trimmed)
        .intersection(&reachable_states(&trimmed))
        .count();
    let is_empty = is_empty_language(&rewriting);

    let stats = RewriteStats {
        query_nfa_states,
        query_dfa_states: query_dfa.num_states(),
        a_prime_states: a_prime.num_states(),
        a_prime_transitions: a_prime.num_transitions(),
        rewriting_states: rewriting.num_states(),
        rewriting_trimmed_states: trimmed_productive,
        is_empty,
    };

    MaximalRewriting {
        query_dfa,
        a_prime: DenseNfa::from_nfa(&a_prime),
        automaton: rewriting,
        stats,
    }
}
