//! DFA minimization.
//!
//! Minimizing the deterministic query automaton `A_d` before building the
//! rewriting automaton `A'` (`RewriterOptions::minimize_query_dfa`; experiment
//! E5 times the construction with and without it) shrinks both the state
//! space of the rewriting and the number of per-view reachability tests, so
//! the rewriter exposes it as an optional preprocessing step.  Minimal DFAs
//! are also canonical (up to isomorphism), which the equivalence tests rely
//! on.
//!
//! The default [`minimize`] freezes the automaton and runs Hopcroft's
//! `O(k·n·log n)` partition refinement on the CSR core
//! ([`crate::dense_ops::minimize_dense`]), which is what the larger
//! lower-bound instances of §3 need.  The seed's `O(k·n²)` Moore refinement
//! is the differential suites' oracle, in the dev-only `testkit` crate: the
//! dense path produces a *structurally identical* automaton
//! (first-occurrence block numbering).

use crate::dense::DenseDfa;
use crate::dense_ops::minimize_dense;
use crate::dfa::Dfa;

/// Minimizes a DFA: the result is the unique (up to isomorphism) smallest
/// complete DFA for the same language, restricted to reachable states.
///
/// Runs Hopcroft's algorithm on the dense core.
pub fn minimize(dfa: &Dfa) -> Dfa {
    minimize_dense(&DenseDfa::from_dfa(dfa)).to_dfa()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{Alphabet, Symbol};
    use crate::determinize::determinize;
    use crate::nfa::Nfa;

    fn ab() -> Alphabet {
        Alphabet::from_chars(['a', 'b']).unwrap()
    }

    fn w(alpha: &Alphabet, s: &str) -> Vec<Symbol> {
        alpha.word_from_str(s).unwrap()
    }

    #[test]
    fn minimize_preserves_language_on_samples() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        // (ab + ba)* — regular structure with mergeable states after subset
        // construction.
        let nfa = a.concat(&b).union(&b.concat(&a)).star();
        let dfa = determinize(&nfa);
        let min = minimize(&dfa);
        assert!(min.num_states() <= dfa.num_states());
        for word in ["", "ab", "ba", "abba", "abab", "baab", "a", "b", "aab", "bb"] {
            let word = w(&alpha, word);
            assert_eq!(dfa.accepts(&word), min.accepts(&word), "{word:?}");
        }
    }

    #[test]
    fn minimize_collapses_redundant_states() {
        // Two copies of the same a-loop accepting state should merge.
        let alpha = Alphabet::from_chars(['a']).unwrap();
        let a = alpha.symbol("a").unwrap();
        // states 0 -a-> 1 -a-> 2 -a-> 1 ; finals {1, 2} — language a·a* = a+
        let dfa = Dfa::from_parts(alpha.clone(), 3, 0, [1, 2], [(0, a, 1), (1, a, 2), (2, a, 1)]);
        let min = minimize(&dfa);
        // Minimal complete DFA for a+ over {a} has 2 states.
        assert_eq!(min.num_states(), 2);
        assert!(!min.accepts(&[]));
        assert!(min.accepts(&[a]));
        assert!(min.accepts(&[a, a, a]));
    }

    #[test]
    fn minimize_empty_language() {
        let alpha = ab();
        let min = minimize(&Dfa::empty(alpha));
        assert_eq!(DenseDfa::from_dfa(&min).shortest_word(), None);
        assert!(min.num_states() <= 1);
    }

    #[test]
    fn minimize_universal_language() {
        let alpha = ab();
        let min = minimize(&Dfa::universal(alpha));
        assert_eq!(DenseDfa::from_dfa(&min).complement().shortest_word(), None);
        assert_eq!(min.num_states(), 1);
    }

    #[test]
    fn minimal_dfa_has_canonical_size() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let nfa = Nfa::universal(alpha.clone())
            .concat(&a)
            .concat(&Nfa::any_symbol(alpha.clone()))
            .concat(&Nfa::any_symbol(alpha.clone()));
        let dfa = determinize(&nfa);
        let min = minimize(&dfa);
        assert!(min.num_states() <= dfa.num_states());
        // The canonical minimal DFA for (a+b)*a(a+b)(a+b) has 8 states
        // (it must remember the last three symbols).
        assert_eq!(min.num_states(), 8);
    }

    #[test]
    fn minimize_is_idempotent() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        let nfa = a.union(&b.concat(&a).star()).concat(&b.optional());
        let min1 = minimize(&determinize(&nfa));
        let min2 = minimize(&min1);
        assert_eq!(min1.num_states(), min2.num_states());
        assert_eq!(min1.num_transitions(), min2.num_transitions());
    }

    #[test]
    fn equivalent_regexes_minimize_to_same_size() {
        // a·(b·a)* and (a·b)*·a denote the same language; their minimal DFAs
        // must therefore be isomorphic (same number of states).
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        let lhs = a.concat(&b.concat(&a).star());
        let rhs = a.concat(&b).star().concat(&a);
        let m1 = minimize(&determinize(&lhs));
        let m2 = minimize(&determinize(&rhs));
        assert_eq!(m1.num_states(), m2.num_states());
    }
}
