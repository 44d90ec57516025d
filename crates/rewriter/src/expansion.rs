//! The expansion `exp_Σ`: from languages over the view alphabet `Σ_E` to
//! languages over the base alphabet `Σ`.
//!
//! Definition 2.1 of the paper calls a language `R` over `Σ_E` a *rewriting*
//! of `E0` w.r.t. `E` when `exp_Σ(L(R)) ⊆ L(E0)` — i.e. when every word
//! obtained from a word of `R` by substituting each view symbol by any word
//! of that view's language belongs to `L(E0)`.
//!
//! This module implements the expansion at the automaton level (used by the
//! exactness check of Theorem 2.3, where the expansion of the rewriting is
//! the automaton `B`) and at the word level (used by tests and by the
//! Σ-maximality comparisons).  Both build the dense automaton the
//! containment checks read — one [`DenseNfa::from_edges`] call over the
//! views' compiled automata — so no consumer freezes `B`.

use automata::{DenseNfa, Dfa, Symbol};

use crate::views::ViewSet;

/// Expands an automaton over `Σ_E` into an NFA over `Σ` by replacing every
/// transition labeled with a view symbol by a fresh copy of that view's
/// automaton (the construction of the automaton `B` in Section 2 of the
/// paper).
///
/// `B` has one skeleton state per input state, numbered as in the input,
/// then, per ε-closed input edge `(p, e, q)`, a copy of `e`'s closed
/// transitions, glued in with ε-moves from `p` to the copy's start states
/// and from its final states to `q`.  The glue is equivalent to the paper's
/// start/accept-state identification but keeps the view automata
/// unconstrained (they need not have unique initial/final states, and a
/// view whose language holds ε chains `p` to `q`).
pub(crate) fn expand_nfa(over_sigma_e: &DenseNfa, views: &ViewSet) -> DenseNfa {
    over_sigma_e
        .alphabet()
        .check_compatible(views.sigma_e())
        .expect("expansion input must be over the view alphabet");
    // Σ_E is the views in registration order, so a view symbol's index
    // names its automaton.  Each copy is `(p, view, first state, q)`.
    let mut num_states = over_sigma_e.num_states();
    let copies: Vec<(u32, &DenseNfa, u32, u32)> = over_sigma_e
        .closed_transitions()
        .map(|(from, view_sym, to)| {
            let view = views.automaton(view_sym as usize);
            let base = num_states as u32;
            num_states += view.num_states();
            (from, view, base, to)
        })
        .collect();
    assert!(u32::try_from(num_states).is_ok(), "`B` numbers its states in u32");
    let transitions = copies.iter().flat_map(|&(_, view, base, _)| {
        view.closed_transitions()
            .map(move |(s, sym, t)| (base + s, sym, base + t))
    });
    let glue = copies.iter().flat_map(|&(from, view, base, to)| {
        let enter = view.start().iter().map(move |&s| (from, base + s));
        enter.chain(view.finals().iter().map(move |f| (base + f, to)))
    });
    DenseNfa::from_edges(
        views.sigma().clone(),
        num_states,
        over_sigma_e.start().iter().copied(),
        over_sigma_e.finals().iter(),
        transitions,
        glue,
    )
}

/// Expands a DFA over `Σ_E` (e.g. the maximal rewriting automaton
/// `R_{E,E0}`) into an NFA over `Σ`.
pub fn expand_dfa(over_sigma_e: &Dfa, views: &ViewSet) -> DenseNfa {
    expand_nfa(&DenseNfa::from_dfa(over_sigma_e), views)
}

/// Expands a single word over `Σ_E` into the NFA over `Σ` accepting its
/// expansion `exp_Σ({w})` (the concatenation of the view languages named by
/// the word): the expansion of the chain automaton of `w`.
pub fn expand_word(word: &[Symbol], views: &ViewSet) -> DenseNfa {
    let chain = DenseNfa::from_parts(
        views.sigma_e().clone(),
        word.len() + 1,
        [0],
        [word.len() as u32],
        (0..).zip(word).map(|(i, sym)| (i, sym.index() as u32, i + 1)),
    );
    expand_nfa(&chain, views)
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::{determinize, nfa_equivalent, Alphabet, Nfa};
    use regexlang::{parse, thompson};

    use crate::views::ViewSet;

    fn abc() -> Alphabet {
        Alphabet::from_chars(['a', 'b', 'c']).unwrap()
    }

    fn example22_views() -> ViewSet {
        ViewSet::parse(abc(), [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]).unwrap()
    }

    /// Views whose languages contain ε, so a copy's start state is final and
    /// the glue chains an edge's source straight to its target.
    fn epsilon_views() -> ViewSet {
        ViewSet::parse(abc(), [("e1", "a*"), ("e2", "(b·c)?"), ("e3", "c")]).unwrap()
    }

    /// Views denoting `∅`, which compile to automata with no states: an edge
    /// labeled with one expands to a copy with nothing to enter.
    fn empty_views() -> ViewSet {
        ViewSet::parse(abc(), [("e1", "∅"), ("e2", "a·∅"), ("e3", "b")]).unwrap()
    }

    /// Builds an NFA over Σ_E from a regex over the view symbols.
    fn sigma_e_nfa(views: &ViewSet, src: &str) -> Nfa {
        thompson(&parse(src).unwrap(), views.sigma_e()).unwrap()
    }

    #[test]
    fn expansion_matches_syntactic_substitution() {
        let cases = [
            (example22_views(), "e2*·e1·e3*"),
            (example22_views(), "e1"),
            (example22_views(), "e2+e3"),
            (example22_views(), "(e1·e3)*"),
            (example22_views(), "ε"),
            (example22_views(), "((e1+ε)·(e3*·e2)*)*"),
            (epsilon_views(), "e1"),
            (epsilon_views(), "e2·e3"),
            (epsilon_views(), "e1·e2·e1"),
            (epsilon_views(), "(e1+ε)·(e2*·e3)*"),
            (epsilon_views(), "((e2·e1*)*+e3?)*·e2"),
            (empty_views(), "e1"),
            (empty_views(), "e2·e3"),
            (empty_views(), "e3*·(e1+e3)"),
            (empty_views(), "(e1+e2)*·e3"),
        ];
        for (views, src) in cases {
            let over_e = DenseNfa::from_nfa(&sigma_e_nfa(&views, src));
            let expanded = expand_nfa(&over_e, &views).to_nfa();
            // Reference: substitute the definitions syntactically and
            // translate the resulting Σ-regex.
            let reference_regex = views.expand_regex(&parse(src).unwrap());
            let reference = thompson(&reference_regex, views.sigma()).unwrap();
            assert!(
                nfa_equivalent(&expanded, &reference).holds(),
                "expansion of {src} diverges from substitution {reference_regex}"
            );
        }
    }

    #[test]
    fn expansion_of_empty_language_is_empty() {
        let views = example22_views();
        let empty = DenseNfa::from_nfa(&Nfa::empty(views.sigma_e().clone()));
        assert_eq!(expand_nfa(&empty, &views).trim().num_states(), 0);
    }

    #[test]
    fn expansion_of_epsilon_is_epsilon() {
        let views = example22_views();
        let eps = DenseNfa::from_nfa(&Nfa::epsilon(views.sigma_e().clone()));
        let expanded = expand_nfa(&eps, &views);
        assert!(expanded.accepts(&[]));
        assert!(!expanded.accepts(&[views.sigma().symbol("a").unwrap()]));
    }

    #[test]
    fn expand_dfa_agrees_with_expand_nfa() {
        let views = example22_views();
        let over_e = sigma_e_nfa(&views, "e2*·e1·e3*");
        let via_nfa = expand_nfa(&DenseNfa::from_nfa(&over_e), &views).to_nfa();
        let via_dfa = expand_dfa(&determinize(&over_e), &views).to_nfa();
        assert!(nfa_equivalent(&via_nfa, &via_dfa).holds());
    }

    #[test]
    fn expand_word_concatenates_view_languages() {
        let views = example22_views();
        let sigma_e = views.sigma_e().clone();
        let word = sigma_e.word(&["e2", "e1"]).unwrap();
        let expanded = expand_word(&word, &views).to_nfa();
        assert!(expanded.accepts_names(&["a", "b", "a"]));
        assert!(expanded.accepts_names(&["a", "c", "b", "a"]));
        assert!(!expanded.accepts_names(&["a", "b"]));
        // Empty word expands to {ε}.
        let expanded = expand_word(&[], &views);
        assert!(expanded.accepts(&[]));
        // Over an ε-accepting view, each occurrence may contribute nothing.
        let views = epsilon_views();
        let sigma_e = views.sigma_e().clone();
        let word = sigma_e.word(&["e1", "e2", "e1"]).unwrap();
        let expanded = expand_word(&word, &views).to_nfa();
        assert!(expanded.accepts_names(&[]));
        assert!(expanded.accepts_names(&["a", "b", "c", "a"]));
        assert!(expanded.accepts_names(&["b", "c"]));
        assert!(!expanded.accepts_names(&["b", "a", "c"]));
    }
}
