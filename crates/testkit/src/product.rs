//! The seed's tree oracles for the word-reachability relation behind `A'`
//! (Theorem 2.2, step 2): the `BTreeSet` configuration sweep that
//! [`automata::word_reachability_relation_dense`] replaced, and the per-pair
//! product-emptiness search [`word_reaches`], which shares no code with
//! either sweep.

use std::collections::{BTreeSet, VecDeque};

use automata::{word_reachability_relation_dense, DenseNfa, Dfa, Nfa, StateId, Symbol};

use crate::nfa::{epsilon_closure, start_configuration, step};

/// The production sweep ([`word_reachability_relation_dense`]) on a tree
/// view, so it compares against the oracles below.
pub fn word_reachability_via_dense(dfa: &Dfa, view: &Nfa) -> BTreeSet<(u32, u32)> {
    word_reachability_relation_dense(dfa, &DenseNfa::from_nfa(view))
}

/// Whether `L(a) ∩ L(b)` is nonempty, returning a shortest witness word if
/// so.  Never materializes more of the product than reachability requires.
pub fn intersection_witness(a: &Dfa, b: &Nfa) -> Option<Vec<Symbol>> {
    intersection_witness_from(a, a.initial(), &|s| a.is_final(s), b)
}

/// Like [`intersection_witness`] but with an explicit start state and final
/// predicate for the DFA side — this is exactly the `A_d^{i,j}` trick of the
/// paper (the automaton `A_d` with initial state `s_i` and final state `s_j`).
pub fn intersection_witness_from(
    a: &Dfa,
    a_start: u32,
    a_final: &dyn Fn(u32) -> bool,
    b: &Nfa,
) -> Option<Vec<Symbol>> {
    a.alphabet()
        .check_compatible(b.alphabet())
        .expect("intersection over incompatible alphabets");
    // BFS over (dfa state, ε-closed nfa configuration set).  Configurations
    // are sets, which keeps the frontier small (this is the lazily
    // determinized product).
    type Config = (u32, BTreeSet<StateId>);
    let start: Config = (a_start, start_configuration(b));
    let accepts = |c: &Config| a_final(c.0) && c.1.iter().any(|&s| b.is_final(s));
    if accepts(&start) {
        return Some(Vec::new());
    }
    let mut seen: BTreeSet<Config> = BTreeSet::from([start.clone()]);
    let mut queue: VecDeque<(Config, Vec<Symbol>)> = VecDeque::from([(start, Vec::new())]);
    while let Some(((sa, cfg), word)) = queue.pop_front() {
        for sym in a.alphabet().symbols() {
            let Some(ta) = a.next(sa, sym.index()) else { continue };
            let stepped = epsilon_closure(b, &step(b, &cfg, sym));
            if stepped.is_empty() {
                continue;
            }
            let next: Config = (ta, stepped);
            if seen.contains(&next) {
                continue;
            }
            let mut next_word = word.clone();
            next_word.push(sym);
            if accepts(&next) {
                return Some(next_word);
            }
            seen.insert(next.clone());
            queue.push_back((next, next_word));
        }
    }
    None
}

/// The seed's tree-based reachability sweep (`BTreeSet` configurations with
/// per-step ε-closure recomputation): all pairs `(s_i, s_j)` of `dfa` states
/// connected by some word of `L(view)`.
pub fn word_reachability_relation_baseline(
    dfa: &Dfa,
    view: &Nfa,
) -> BTreeSet<(u32, u32)> {
    dfa.alphabet()
        .check_compatible(view.alphabet())
        .expect("reachability over incompatible alphabets");
    let mut relation = BTreeSet::new();
    let view_start = start_configuration(view);
    for si in 0..dfa.num_states() as u32 {
        // BFS over (dfa state, ε-closed view configuration) from (si, start).
        type Config = (u32, BTreeSet<StateId>);
        let start: Config = (si, view_start.clone());
        let mut seen: BTreeSet<Config> = BTreeSet::from([start.clone()]);
        let mut queue: VecDeque<Config> = VecDeque::from([start.clone()]);
        let record = |cfg: &Config, relation: &mut BTreeSet<(u32, u32)>| {
            if cfg.1.iter().any(|&s| view.is_final(s)) {
                relation.insert((si, cfg.0));
            }
        };
        record(&start, &mut relation);
        while let Some((sa, cfg)) = queue.pop_front() {
            for sym in dfa.alphabet().symbols() {
                let Some(ta) = dfa.next(sa, sym.index()) else { continue };
                let stepped = epsilon_closure(view, &step(view, &cfg, sym));
                if stepped.is_empty() {
                    continue;
                }
                let next: Config = (ta, stepped);
                if seen.insert(next.clone()) {
                    record(&next, &mut relation);
                    queue.push_back(next);
                }
            }
        }
    }
    relation
}

/// Per-pair form of the word-reachability relation: tests a single
/// `(s_i, s_j)` pair by product emptiness.  It shares no code with the
/// batched sweeps, which is what makes it the independent reference the
/// differential suites check them against.
pub fn word_reaches(dfa: &Dfa, view: &Nfa, si: u32, sj: u32) -> bool {
    intersection_witness_from(dfa, si, &|s| s == sj, view).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::{determinize, Alphabet};

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
    fn intersection_witness_finds_shortest() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b_sym = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        // L1 = a·b*, L2 = a*·b : intersection = {ab} ∪ ... shortest is "ab".
        let l1 = dfa_for(&a_sym.concat(&b_sym.star()));
        let l2 = a_sym.star().concat(&b_sym);
        let witness = intersection_witness(&l1, &l2).expect("nonempty");
        assert_eq!(witness, w(&alpha, "ab"));
        // Disjoint languages produce no witness.
        let l3 = b_sym.concat(&Nfa::universal(alpha.clone()));
        assert!(intersection_witness(&l1, &l3).is_none());
    }

    #[test]
    fn empty_word_witness_when_both_accept_epsilon() {
        let alpha = ab();
        let l1 = dfa_for(&Nfa::universal(alpha.clone()));
        let l2 = Nfa::epsilon(alpha.clone());
        assert_eq!(intersection_witness(&l1, &l2), Some(vec![]));
    }

    #[test]
    fn word_reachability_on_figure1_style_dfa() {
        // DFA for a·(b·a+c)*: states s0 --a--> s1, s1 --b--> s2, s2 --a--> s1,
        // s1 --c--> s1.  View a·c*·b should connect s0 to s2 (via a then b,
        // possibly with c's in between).
        let alpha = Alphabet::from_chars(['a', 'b', 'c']).unwrap();
        let a = alpha.symbol("a").unwrap();
        let b = alpha.symbol("b").unwrap();
        let c = alpha.symbol("c").unwrap();
        let dfa = Dfa::from_parts(
            alpha.clone(),
            3,
            0,
            [1],
            [(0, a, 1), (1, b, 2), (2, a, 1), (1, c, 1)],
        );
        let a_nfa = Nfa::symbol(alpha.clone(), a);
        let b_nfa = Nfa::symbol(alpha.clone(), b);
        let c_nfa = Nfa::symbol(alpha.clone(), c);
        let view2 = a_nfa.concat(&c_nfa.star()).concat(&b_nfa); // a·c*·b
        let rel = word_reachability_via_dense(&dfa, &view2);
        assert!(rel.contains(&(0, 2)));
        assert!(rel.contains(&(2, 2)));
        assert!(!rel.contains(&(0, 1)));
        // Per-pair variant agrees.
        for si in 0..3 {
            for sj in 0..3 {
                assert_eq!(
                    rel.contains(&(si, sj)),
                    word_reaches(&dfa, &view2, si, sj),
                    "pair ({si},{sj})"
                );
            }
        }
    }

    #[test]
    fn reachability_includes_epsilon_views() {
        // A view whose language contains ε connects every state to itself.
        let alpha = ab();
        let a = alpha.symbol("a").unwrap();
        let dfa = Dfa::from_parts(alpha.clone(), 2, 0, [1], [(0, a, 1)]);
        let view = Nfa::symbol(alpha.clone(), a).star(); // a* contains ε
        let rel = word_reachability_via_dense(&dfa, &view);
        assert!(rel.contains(&(0, 0)));
        assert!(rel.contains(&(1, 1)));
        assert!(rel.contains(&(0, 1)));
    }
}
