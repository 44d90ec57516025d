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
//! Σ-maximality comparisons).

use automata::{Dfa, Nfa, StateId, Symbol};

use crate::views::ViewSet;

/// Expands an automaton over `Σ_E` into an NFA over `Σ` by replacing every
/// transition labeled with a view symbol by a fresh copy of that view's
/// automaton (the construction of the automaton `B` in Section 2 of the
/// paper).
///
/// The construction glues the copy in with ε-transitions, which is equivalent
/// to the paper's start/accept-state identification but keeps the view
/// automata unconstrained (they need not have unique initial/final states).
pub fn expand_nfa(over_sigma_e: &Nfa, views: &ViewSet) -> Nfa {
    over_sigma_e
        .alphabet()
        .check_compatible(views.sigma_e())
        .expect("expansion input must be over the view alphabet");
    let mut out = Nfa::new(views.sigma().clone());
    // One state in the output per state of the Σ_E-automaton …
    let skeleton: Vec<StateId> = out.add_states(over_sigma_e.num_states());
    for &s in over_sigma_e.initial_states() {
        out.set_initial(skeleton[s]);
    }
    for &s in over_sigma_e.final_states() {
        out.set_final(skeleton[s]);
    }
    // … and each view's transitions listed once, not once per edge that
    // splices it: Σ_E is the views in registration order.
    let view_automata: Vec<(&Nfa, Vec<_>)> = (0..views.len())
        .map(|i| {
            let view_nfa = views.automaton(i);
            (view_nfa, view_nfa.transitions().collect())
        })
        .collect();
    for (from, label, to) in over_sigma_e.transitions() {
        match label {
            None => out.add_epsilon(skeleton[from], skeleton[to]),
            Some(view_sym) => {
                let (view_nfa, transitions) = &view_automata[view_sym.index()];
                let (from, to) = (skeleton[from], skeleton[to]);
                splice_view(&mut out, view_nfa, transitions, from, to);
            }
        }
    }
    out
}

/// Expands a DFA over `Σ_E` (e.g. the maximal rewriting automaton
/// `R_{E,E0}`) into an NFA over `Σ`.
pub fn expand_dfa(over_sigma_e: &Dfa, views: &ViewSet) -> Nfa {
    expand_nfa(&Nfa::from_dfa(over_sigma_e), views)
}

/// Splices a fresh copy of `view_nfa`, whose transitions are `transitions`,
/// between `from` and `to` in `out`.
fn splice_view(
    out: &mut Nfa,
    view_nfa: &Nfa,
    transitions: &[(StateId, Option<Symbol>, StateId)],
    from: StateId,
    to: StateId,
) {
    let base = out.num_states();
    out.add_states(view_nfa.num_states());
    for &(vf, label, vt) in transitions {
        match label {
            Some(sym) => out.add_transition(base + vf, sym, base + vt),
            None => out.add_epsilon(base + vf, base + vt),
        }
    }
    for &vi in view_nfa.initial_states() {
        out.add_epsilon(from, base + vi);
    }
    for &vf in view_nfa.final_states() {
        out.add_epsilon(base + vf, to);
    }
}

/// Expands a single word over `Σ_E` into the NFA over `Σ` accepting its
/// expansion `exp_Σ({w})` (the concatenation of the view languages named by
/// the word).
pub fn expand_word(word: &[Symbol], views: &ViewSet) -> Nfa {
    let mut acc = Nfa::epsilon(views.sigma().clone());
    for &view_sym in word {
        let name = views.sigma_e().name(view_sym).to_string();
        let view_nfa = views
            .automaton_of(&name)
            .expect("symbol comes from the view alphabet");
        acc = acc.concat(view_nfa);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::{determinize, nfa_equivalent, Alphabet, DenseNfa};
    use regexlang::{parse, thompson};

    use crate::views::ViewSet;

    fn abc() -> Alphabet {
        Alphabet::from_chars(['a', 'b', 'c']).unwrap()
    }

    fn example22_views() -> ViewSet {
        ViewSet::parse(abc(), [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]).unwrap()
    }

    /// Builds an NFA over Σ_E from a regex over the view symbols.
    fn sigma_e_nfa(views: &ViewSet, src: &str) -> Nfa {
        thompson(&parse(src).unwrap(), views.sigma_e()).unwrap()
    }

    #[test]
    fn expansion_matches_syntactic_substitution() {
        let views = example22_views();
        for src in ["e2*·e1·e3*", "e1", "e2+e3", "(e1·e3)*", "ε"] {
            let over_e = sigma_e_nfa(&views, src);
            let expanded = expand_nfa(&over_e, &views);
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
        let empty = Nfa::empty(views.sigma_e().clone());
        assert_eq!(
            DenseNfa::from_nfa(&expand_nfa(&empty, &views))
                .trim()
                .num_states(),
            0
        );
    }

    #[test]
    fn expansion_of_epsilon_is_epsilon() {
        let views = example22_views();
        let eps = Nfa::epsilon(views.sigma_e().clone());
        let expanded = expand_nfa(&eps, &views);
        assert!(expanded.accepts(&[]));
        assert!(!expanded.accepts(&[views.sigma().symbol("a").unwrap()]));
    }

    #[test]
    fn expand_dfa_agrees_with_expand_nfa() {
        let views = example22_views();
        let over_e = sigma_e_nfa(&views, "e2*·e1·e3*");
        let via_nfa = expand_nfa(&over_e, &views);
        let via_dfa = expand_dfa(&determinize(&over_e), &views);
        assert!(nfa_equivalent(&via_nfa, &via_dfa).holds());
    }

    #[test]
    fn expand_word_concatenates_view_languages() {
        let views = example22_views();
        let sigma_e = views.sigma_e().clone();
        let word = sigma_e.word(&["e2", "e1"]).unwrap();
        let expanded = expand_word(&word, &views);
        assert!(expanded.accepts_names(&["a", "b", "a"]));
        assert!(expanded.accepts_names(&["a", "c", "b", "a"]));
        assert!(!expanded.accepts_names(&["a", "b"]));
        // Empty word expands to {ε}.
        let expanded = expand_word(&[], &views);
        assert!(expanded.accepts(&[]));
    }
}
