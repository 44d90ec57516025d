//! The seed's tree twins of `automata`'s table constructions: Moore refinement, the
//! oracle for Hopcroft's [`automata::minimize_dense`], and the tree
//! intersection product, the oracle for [`automata::intersect_dense`].  The
//! dense versions number their states the same way, so the results must
//! coincide structurally.

use std::collections::{BTreeMap, VecDeque};

use automata::{Dfa, Symbol};

use crate::dfa::{complete, trim_unreachable};

/// The seed's tree-based `O(k·n²)` Moore refinement: the unique (up to
/// isomorphism) smallest complete DFA for the same language, restricted to
/// reachable states, with blocks numbered by first occurrence in state order.
pub fn minimize_baseline(dfa: &Dfa) -> Dfa {
    // Work on the reachable, complete automaton so the successor function is
    // total and unreachable states cannot pollute the partition.
    let dfa = complete(&trim_unreachable(dfa));
    let n = dfa.num_states();
    if n == 0 {
        return dfa;
    }
    let alphabet = dfa.alphabet().clone();

    // block[s] = index of the partition block containing s.
    // Initial partition: accepting (1) vs non-accepting (0).
    let mut block: Vec<usize> = (0..n).map(|s| usize::from(dfa.is_final(s as u32))).collect();
    let num_finals = dfa.finals().iter().count();
    let mut num_blocks = if num_finals == 0 || num_finals == n {
        1
    } else {
        2
    };
    if num_blocks == 1 {
        // Normalize all block ids to 0.
        block.iter_mut().for_each(|b| *b = 0);
    }

    loop {
        // Signature of a state: (its block, the block of each successor).
        let mut sig_index: BTreeMap<(usize, Vec<usize>), usize> = BTreeMap::new();
        let mut new_block = vec![0usize; n];
        for s in 0..n {
            let succ_blocks: Vec<usize> = alphabet
                .symbols()
                .map(|sym| block[dfa.next(s as u32, sym.index()).expect("complete DFA") as usize])
                .collect();
            let key = (block[s], succ_blocks);
            let next = sig_index.len();
            let id = *sig_index.entry(key).or_insert(next);
            new_block[s] = id;
        }
        let new_num_blocks = sig_index.len();
        block = new_block;
        if new_num_blocks == num_blocks {
            break;
        }
        num_blocks = new_num_blocks;
    }

    build_quotient(&dfa, &block, num_blocks)
}

/// Builds the quotient automaton given the block assignment of every state.
fn build_quotient(dfa: &Dfa, block: &[usize], num_blocks: usize) -> Dfa {
    let initial = block[dfa.initial() as usize] as u32;
    let mut transitions: BTreeMap<(u32, Symbol), u32> = BTreeMap::new();
    for (from, sym, to) in dfa.transitions() {
        transitions.insert((block[from as usize] as u32, sym), block[to as usize] as u32);
    }
    let finals: Vec<u32> = dfa.finals().iter().map(|s| block[s as usize] as u32).collect();
    let quotient = Dfa::from_parts(
        dfa.alphabet().clone(),
        num_blocks,
        initial,
        finals,
        transitions.iter().map(|(&(f, s), &t)| (f, s, t)),
    );
    trim_unreachable(&quotient)
}

/// The seed's tree-based intersection product: accepts `L(a) ∩ L(b)`, with
/// only the pairs reachable from the initial pair materialized.
pub fn intersect_dfa_baseline(a: &Dfa, b: &Dfa) -> Dfa {
    a.alphabet()
        .check_compatible(b.alphabet())
        .expect("intersection over incompatible alphabets");
    let mut index: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let mut states: Vec<(u32, u32)> = Vec::new();
    let mut transitions: Vec<(u32, Symbol, u32)> = Vec::new();

    let start = (a.initial(), b.initial());
    index.insert(start, 0);
    states.push(start);
    let mut queue = VecDeque::from([0u32]);

    while let Some(cur) = queue.pop_front() {
        let (sa, sb) = states[cur as usize];
        for sym in a.alphabet().symbols() {
            let (Some(ta), Some(tb)) = (a.next(sa, sym.index()), b.next(sb, sym.index())) else {
                continue;
            };
            let key = (ta, tb);
            let next = *index.entry(key).or_insert_with(|| {
                states.push(key);
                queue.push_back(states.len() as u32 - 1);
                states.len() as u32 - 1
            });
            transitions.push((cur, sym, next));
        }
    }

    let finals: Vec<u32> = states
        .iter()
        .enumerate()
        .filter(|(_, &(sa, sb))| a.is_final(sa) && b.is_final(sb))
        .map(|(i, _)| i as u32)
        .collect();

    Dfa::from_parts(a.alphabet().clone(), states.len(), 0, finals, transitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::{determinize, minimize_dense, Alphabet, Nfa};

    #[test]
    fn hopcroft_matches_moore_structurally() {
        let alpha = Alphabet::from_chars(['a', 'b']).unwrap();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        let cases = [
            a.concat(&b).union(&b.concat(&a)).star(),
            Nfa::universal(alpha.clone()).concat(&a).concat(&b),
            a.star().concat(&b.star()).star(),
            Nfa::empty(alpha.clone()),
            Nfa::epsilon(alpha.clone()),
        ];
        for nfa in cases {
            let tree = determinize(&nfa);
            let ours = minimize_dense(&tree);
            let moore = minimize_baseline(&tree);
            assert_eq!(ours.num_states(), moore.num_states());
            assert_eq!(ours.initial(), moore.initial());
            for s in 0..ours.num_states() as u32 {
                assert_eq!(ours.is_final(s), moore.is_final(s));
                for sym in alpha.symbols() {
                    assert_eq!(
                        ours.next(s, sym.index()),
                        moore.next(s, sym.index()),
                        "state {s} sym {sym}"
                    );
                }
            }
        }
    }
}
