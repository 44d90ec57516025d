//! Product constructions and the word-reachability relation.
//!
//! * [`intersect_dfa`] — the intersection product `A ∩ B` of two DFAs, and
//! * [`word_reachability_relation_dense`] — for a fixed view `V`, *all*
//!   pairs `(s_i, s_j)` such that a word of `L(V)` drives the deterministic
//!   query automaton `A_d` from `s_i` to `s_j`: the batched transition test
//!   that builds the rewriting automaton `A'` (step 2 of the construction).
//!   It answers, for every pair at once, whether the product of `A_d^{i,j}`
//!   (`A_d` started in `s_i`, accepting in `s_j`) with the view automaton is
//!   nonempty.

use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

use crate::dense::{ConfigVisitMap, DenseDfa, DenseNfa, SubsetScratch};
use crate::dense_ops::intersect_dense;
use crate::dfa::Dfa;

/// Intersection of two DFAs over the same alphabet: accepts `L(a) ∩ L(b)`.
///
/// Only the product states reachable from the pair of initial states are
/// materialized.  Runs on the dense core ([`intersect_dense`]).
pub fn intersect_dfa(a: &Dfa, b: &Dfa) -> Dfa {
    intersect_dense(&DenseDfa::from_dfa(a), &DenseDfa::from_dfa(b)).to_dfa()
}

/// For a deterministic automaton `dense_dfa` and a view automaton
/// `dense_view` (an NFA over the same alphabet), computes the relation
///
/// ```text
/// { (s_i, s_j)  |  ∃ w ∈ L(view) :  δ*(s_i, w) = s_j }
/// ```
///
/// i.e. all pairs of DFA states connected by some word of the view's
/// language.  The rewriting pipeline calls it once per view with the dense
/// `A_d` and the frozen view automaton.
pub fn word_reachability_relation_dense(
    dense_dfa: &DenseDfa,
    dense_view: &DenseNfa,
) -> BTreeSet<(u32, u32)> {
    dense_dfa
        .alphabet()
        .check_compatible(dense_view.alphabet())
        .expect("reachability over incompatible alphabets");
    let k = dense_dfa.num_symbols();

    let mut relation = BTreeSet::new();

    // Scratch reused across every sweep.  `seen` interns each ε-closed view
    // configuration once for all sources — a configuration does not depend
    // on where the sweep started — and shares it (`Rc`) with the BFS queue;
    // only its `(configuration, DFA state)` visits are forgotten between
    // sources, so the hot-path membership test allocates nothing.
    let mut seen = ConfigVisitMap::default();
    let mut queue: VecDeque<(u32, Rc<[u32]>)> = VecDeque::new();
    let mut scratch = SubsetScratch::new(dense_view.num_states());
    let mut stepped: Vec<u32> = Vec::new();
    let start_accepts = dense_view.any_final(dense_view.start());

    for si in 0..dense_dfa.num_states() as u32 {
        seen.clear_visits();
        queue.clear();
        if start_accepts {
            relation.insert((si, si));
        }
        let start_cfg = seen
            .intern_visit(dense_view.start(), si)
            .expect("visits were just cleared");
        queue.push_back((si, start_cfg));
        while let Some((sa, cfg)) = queue.pop_front() {
            for a in 0..k {
                let Some(ta) = dense_dfa.next(sa, a) else { continue };
                dense_view.step_closed(&cfg, a, &mut scratch, &mut stepped);
                if stepped.is_empty() {
                    continue;
                }
                if let Some(canonical) = seen.intern_visit(&stepped, ta) {
                    if dense_view.any_final(&stepped) {
                        relation.insert((si, ta));
                    }
                    queue.push_back((ta, canonical));
                }
            }
        }
    }
    relation
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

    fn dfa_for(nfa: &Nfa) -> Dfa {
        determinize(nfa)
    }

    #[test]
    fn intersect_dfa_is_conjunction() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        // L1 = words starting with a; L2 = words ending with a.
        let l1 = dfa_for(&a_sym.concat(&Nfa::universal(alpha.clone())));
        let l2 = dfa_for(&Nfa::universal(alpha.clone()).concat(&a_sym));
        let both = intersect_dfa(&l1, &l2);
        assert!(both.accepts(&w(&alpha, "a")));
        assert!(both.accepts(&w(&alpha, "aba")));
        assert!(!both.accepts(&w(&alpha, "ab")));
        assert!(!both.accepts(&w(&alpha, "ba")));
        assert!(!both.accepts(&[]));
    }
}
