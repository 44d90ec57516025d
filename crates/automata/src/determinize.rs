//! Subset construction: NFA → DFA.
//!
//! Determinization is the first (and exponential) step of the rewriting
//! algorithm of the paper (Section 2, step 1): the query expression `E0` is
//! translated to an NFA and then determinized into `A_d`.  Theorem 3.1's
//! 2EXPTIME upper bound and the blow-up measured in experiment E6 both hinge
//! on this construction, so we expose the mapping from DFA states back to NFA
//! state sets for inspection by benchmarks and tests.
//!
//! The construction runs on the dense core ([`crate::dense::DenseNfa`]):
//! ε-closures are precomputed once per NFA state and folded into CSR
//! successor lists, subsets are interned as sorted `Vec<u32>` keys in a
//! `HashMap` (no per-iteration set cloning — scratch buffers are reused
//! across states and symbols), and a subset union accumulates in a
//! [`SubsetScratch`], so each step costs what it touches.  The seed's
//! tree-based construction is the differential suites' oracle, in the
//! dev-only `testkit` crate.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::dense::{DenseNfa, FxHashMap, SubsetScratch};
use crate::dfa::Dfa;
use crate::nfa::Nfa;

/// Result of [`determinize_to_dense`]: the DFA plus the interned
/// subset each state represents (sorted member lists, shared with the
/// construction's interning map).
#[derive(Debug, Clone)]
pub struct DeterminizedDense {
    /// The deterministic automaton (complete by construction: the empty
    /// subset is an ordinary sink state).
    pub dfa: Dfa,
    /// `subsets[s]` is the sorted list of NFA states that state `s` stands
    /// for.
    pub subsets: Vec<Rc<[u32]>>,
}

/// Determinizes `nfa` by the subset construction, producing a **complete**
/// DFA (the empty subset acts as the sink when reachable).
///
/// The result accepts exactly the same language.  Only subsets reachable from
/// the closed initial configuration are materialized, so the output has at
/// most `2^n` states but usually far fewer.
pub fn determinize(nfa: &Nfa) -> Dfa {
    determinize_to_dense(&DenseNfa::from_nfa(nfa)).dfa
}

/// Subset construction on a frozen NFA, laying the [`Dfa`] out row by row.
/// This is the determinization the rewriting pipeline runs on (steps 1 and 3
/// of the Theorem 2.2 construction).
pub fn determinize_to_dense(dense: &DenseNfa) -> DeterminizedDense {
    let k = dense.num_symbols();

    // Interned subsets: sorted state lists, looked up by slice (no cloning on
    // the hit path — `Rc<[u32]>` borrows as `[u32]`), with each subset's
    // member list allocated once and shared between the map and the vector.
    let mut subsets: Vec<Rc<[u32]>> = Vec::new();
    let mut accepting: Vec<bool> = Vec::new();
    let mut index: FxHashMap<Rc<[u32]>, u32> = FxHashMap::default();
    // Flat transition table: `transitions[s * k + a]` = successor id.  The
    // construction is complete by design (the empty subset is interned as an
    // ordinary sink state when reached).
    let mut transitions: Vec<u32> = Vec::new();

    let start: Rc<[u32]> = dense.start().into();
    index.insert(start.clone(), 0);
    accepting.push(dense.any_final(&start));
    subsets.push(start);

    // Scratch buffers reused across every state and symbol.
    let mut scratch = SubsetScratch::new(dense.num_states());
    let mut cur_members: Vec<u32> = Vec::new();
    let mut next_members: Vec<u32> = Vec::new();

    let mut queue: VecDeque<u32> = VecDeque::from([0]);
    while let Some(cur) = queue.pop_front() {
        // One copy of the current subset per state (the subsets vector may
        // reallocate while we intern successors), reused for all symbols.
        cur_members.clear();
        cur_members.extend_from_slice(&subsets[cur as usize]);
        debug_assert_eq!(transitions.len(), cur as usize * k);
        for a in 0..k {
            dense.step_closed(&cur_members, a, &mut scratch, &mut next_members);
            let next_id = match index.get(next_members.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = subsets.len() as u32;
                    let key: Rc<[u32]> = next_members.as_slice().into();
                    index.insert(key.clone(), id);
                    accepting.push(dense.any_final(&key));
                    subsets.push(key);
                    queue.push_back(id);
                    id
                }
            };
            transitions.push(next_id);
        }
    }

    let dfa = Dfa::from_table(
        dense.alphabet().clone(),
        subsets.len(),
        0,
        accepting
            .iter()
            .enumerate()
            .filter_map(|(s, &acc)| acc.then_some(s as u32)),
        transitions,
    );
    DeterminizedDense { dfa, subsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{Alphabet, Symbol};

    fn ab() -> Alphabet {
        Alphabet::from_chars(['a', 'b']).unwrap()
    }

    fn w(alpha: &Alphabet, s: &str) -> Vec<Symbol> {
        alpha.word_from_str(s).unwrap()
    }

    #[test]
    fn determinize_preserves_language() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        // (a+b)*·a·b
        let nfa = Nfa::universal(alpha.clone()).concat(&a).concat(&b);
        let dfa = determinize(&nfa);
        assert!(dfa.is_complete());
        for word in ["ab", "aab", "bab", "abab"] {
            assert!(dfa.accepts(&w(&alpha, word)), "should accept {word}");
            assert!(nfa.accepts(&w(&alpha, word)));
        }
        for word in ["", "a", "b", "ba", "abba"] {
            assert!(!dfa.accepts(&w(&alpha, word)), "should reject {word}");
        }
    }

    #[test]
    fn determinize_empty_language() {
        let dfa = determinize(&Nfa::empty(ab()));
        assert_eq!(dfa.shortest_word(), None);
        assert!(dfa.is_complete());
    }

    #[test]
    fn determinize_epsilon_language() {
        let alpha = ab();
        let dfa = determinize(&Nfa::epsilon(alpha.clone()));
        assert!(dfa.accepts(&[]));
        assert!(!dfa.accepts(&w(&alpha, "a")));
    }

    #[test]
    fn subsets_reflect_nfa_states() {
        let alpha = ab();
        let a = alpha.symbol("a").unwrap();
        let nfa = Nfa::symbol(alpha.clone(), a);
        let det = determinize_to_dense(&DenseNfa::from_nfa(&nfa));
        assert_eq!(det.subsets.len(), det.dfa.num_states());
        // The start subset is the epsilon closure of the NFA initial states.
        assert_eq!(*det.subsets[det.dfa.initial() as usize], *DenseNfa::from_nfa(&nfa).start());
    }

    #[test]
    fn worst_case_family_blows_up() {
        // (a+b)*·a·(a+b)^n requires ~2^(n+1) DFA states.
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let n = 5;
        let mut nfa = Nfa::universal(alpha.clone()).concat(&a);
        for _ in 0..n {
            nfa = nfa.concat(&Nfa::any_symbol(alpha.clone()));
        }
        let dfa = determinize(&nfa);
        assert!(
            dfa.num_states() >= 1 << (n + 1),
            "expected >= {} states, got {}",
            1 << (n + 1),
            dfa.num_states()
        );
    }
}
