//! The seed's tree subset construction (`BTreeSet` configurations with
//! per-step ε-closure recomputation), the oracle for
//! [`automata::determinize_to_dense`]: both intern subsets breadth-first in
//! symbol order, so the dense construction must reproduce it exactly.

use std::collections::{BTreeSet, HashMap, VecDeque};

use automata::{determinize_to_dense, DenseNfa, DeterminizedDense, Dfa, Nfa, StateId, Symbol};

use crate::nfa::{epsilon_closure, start_configuration, step};

/// Result of a tree determinization: the DFA plus the subset of NFA states
/// that each DFA state represents.
#[derive(Debug, Clone)]
pub struct Determinized {
    /// The deterministic automaton.
    pub dfa: Dfa,
    /// `subsets[s]` is the set of NFA states that DFA state `s` stands for.
    pub subsets: Vec<BTreeSet<StateId>>,
}

/// The production subset construction ([`determinize_to_dense`]) on a tree
/// NFA, thawed into the shape [`determinize_with_subsets_baseline`] returns,
/// so the two compare field by field.
pub fn determinize_via_dense(nfa: &Nfa) -> Determinized {
    let DeterminizedDense { dfa, subsets } = determinize_to_dense(&DenseNfa::from_nfa(nfa));
    Determinized {
        dfa: dfa.to_dfa(),
        subsets: subsets
            .iter()
            .map(|set| set.iter().map(|&s| s as StateId).collect())
            .collect(),
    }
}

/// The seed's tree-based subset construction, producing a complete DFA.
pub fn determinize_with_subsets_baseline(nfa: &Nfa) -> Determinized {
    let alphabet = nfa.alphabet().clone();
    let start = start_configuration(nfa);

    let mut subsets: Vec<BTreeSet<StateId>> = Vec::new();
    let mut index: HashMap<BTreeSet<StateId>, usize> = HashMap::new();
    let mut transitions: Vec<Vec<(Symbol, usize)>> = Vec::new();

    let intern = |set: BTreeSet<StateId>,
                      subsets: &mut Vec<BTreeSet<StateId>>,
                      index: &mut HashMap<BTreeSet<StateId>, usize>,
                      transitions: &mut Vec<Vec<(Symbol, usize)>>|
     -> (usize, bool) {
        if let Some(&i) = index.get(&set) {
            (i, false)
        } else {
            let i = subsets.len();
            index.insert(set.clone(), i);
            subsets.push(set);
            transitions.push(Vec::new());
            (i, true)
        }
    };

    let (start_id, _) = intern(start, &mut subsets, &mut index, &mut transitions);
    let mut queue = VecDeque::from([start_id]);

    while let Some(cur) = queue.pop_front() {
        let cur_set = subsets[cur].clone();
        for sym in alphabet.symbols() {
            let next = epsilon_closure(nfa, &step(nfa, &cur_set, sym));
            let (next_id, fresh) = intern(next, &mut subsets, &mut index, &mut transitions);
            transitions[cur].push((sym, next_id));
            if fresh {
                queue.push_back(next_id);
            }
        }
    }

    let finals: Vec<usize> = subsets
        .iter()
        .enumerate()
        .filter(|(_, set)| set.iter().any(|s| nfa.is_final(*s)))
        .map(|(i, _)| i)
        .collect();

    let dfa = Dfa::from_parts(
        alphabet,
        subsets.len(),
        start_id,
        finals,
        transitions
            .iter()
            .enumerate()
            .flat_map(|(from, ts)| ts.iter().map(move |&(sym, to)| (from, sym, to))),
    );

    Determinized { dfa, subsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Alphabet;

    #[test]
    fn dense_construction_is_structurally_identical_to_baseline() {
        // Both constructions explore subsets breadth-first in symbol order,
        // so state numbering, transitions, finals and subsets must coincide
        // exactly — not just up to language equivalence.
        let alpha = Alphabet::from_chars(['a', 'b']).unwrap();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        let cases = [
            Nfa::universal(alpha.clone()).concat(&a).concat(&b),
            a.union(&b).star().concat(&a.concat(&b).optional()),
            a.star().concat(&b.star()).star(),
            Nfa::empty(alpha.clone()),
            Nfa::epsilon(alpha.clone()),
        ];
        for nfa in cases {
            let dense = determinize_via_dense(&nfa);
            let baseline = determinize_with_subsets_baseline(&nfa);
            assert_eq!(dense.subsets, baseline.subsets);
            assert_eq!(dense.dfa.num_states(), baseline.dfa.num_states());
            assert_eq!(dense.dfa.initial_state(), baseline.dfa.initial_state());
            assert_eq!(
                dense.dfa.final_states(),
                baseline.dfa.final_states()
            );
            assert_eq!(
                dense.dfa.transitions().collect::<Vec<_>>(),
                baseline.dfa.transitions().collect::<Vec<_>>()
            );
        }
    }
}
