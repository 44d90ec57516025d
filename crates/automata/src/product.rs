//! Product constructions and reachability relations.
//!
//! Two products matter for the paper:
//!
//! * the **intersection product** `A ∩ B` used to test, in step 2 of the
//!   rewriting construction, whether some word of a view language leads from
//!   state `s_i` to state `s_j` of the deterministic query automaton `A_d`
//!   (the product of `A_d^{i,j}` with the view automaton is checked for
//!   nonemptiness), and
//! * the [`word_reachability_relation`], a batched form of the same test that
//!   computes, for a fixed view `V`, *all* pairs `(s_i, s_j)` such that a word
//!   of `L(V)` drives `A_d` from `s_i` to `s_j` — the strategy of the
//!   rewriter.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use crate::alphabet::Symbol;
use crate::dense::{ConfigVisitMap, DenseDfa, DenseNfa, SubsetScratch};
use crate::dense_ops::{intersect_dense, intersect_dfa_nfa_dense, union_dense};
use crate::dfa::Dfa;
use crate::nfa::{Nfa, StateId};

/// Intersection of two DFAs over the same alphabet: accepts `L(a) ∩ L(b)`.
///
/// Only the product states reachable from the pair of initial states are
/// materialized.  Runs on the dense core ([`intersect_dense`]), producing
/// the same automaton (state numbering included) as the retained
/// [`intersect_dfa_baseline`].
pub fn intersect_dfa(a: &Dfa, b: &Dfa) -> Dfa {
    intersect_dense(&DenseDfa::from_dfa(a), &DenseDfa::from_dfa(b)).to_dfa()
}

/// The seed's tree-based intersection product, retained as the differential
/// baseline for [`intersect_dense`].
pub fn intersect_dfa_baseline(a: &Dfa, b: &Dfa) -> Dfa {
    a.alphabet()
        .check_compatible(b.alphabet())
        .expect("intersection over incompatible alphabets");
    let mut index: BTreeMap<(StateId, StateId), usize> = BTreeMap::new();
    let mut states: Vec<(StateId, StateId)> = Vec::new();
    let mut transitions: Vec<(usize, Symbol, usize)> = Vec::new();

    let start = (a.initial_state(), b.initial_state());
    index.insert(start, 0);
    states.push(start);
    let mut queue = VecDeque::from([0usize]);

    while let Some(cur) = queue.pop_front() {
        let (sa, sb) = states[cur];
        for sym in a.alphabet().symbols() {
            let (Some(ta), Some(tb)) = (a.next_state(sa, sym), b.next_state(sb, sym)) else {
                continue;
            };
            let key = (ta, tb);
            let next = *index.entry(key).or_insert_with(|| {
                states.push(key);
                queue.push_back(states.len() - 1);
                states.len() - 1
            });
            transitions.push((cur, sym, next));
        }
    }

    let finals: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, &(sa, sb))| a.is_final(sa) && b.is_final(sb))
        .map(|(i, _)| i)
        .collect();

    Dfa::from_parts(a.alphabet().clone(), states.len(), 0, finals, transitions)
}

/// Union of two DFAs over the same alphabet: accepts `L(a) ∪ L(b)`.
///
/// Built as a product over the completed automata so that a run may die in
/// one component while surviving in the other.  Runs on the dense core
/// ([`union_dense`]); structurally identical to [`union_dfa_baseline`].
pub fn union_dfa(a: &Dfa, b: &Dfa) -> Dfa {
    union_dense(&DenseDfa::from_dfa(a), &DenseDfa::from_dfa(b)).to_dfa()
}

/// The seed's tree-based union product, retained as the differential
/// baseline for [`union_dense`].
pub fn union_dfa_baseline(a: &Dfa, b: &Dfa) -> Dfa {
    a.alphabet()
        .check_compatible(b.alphabet())
        .expect("union over incompatible alphabets");
    let a = a.complete();
    let b = b.complete();
    let mut index: BTreeMap<(StateId, StateId), usize> = BTreeMap::new();
    let mut states: Vec<(StateId, StateId)> = Vec::new();
    let mut transitions: Vec<(usize, Symbol, usize)> = Vec::new();

    let start = (a.initial_state(), b.initial_state());
    index.insert(start, 0);
    states.push(start);
    let mut queue = VecDeque::from([0usize]);
    while let Some(cur) = queue.pop_front() {
        let (sa, sb) = states[cur];
        for sym in a.alphabet().symbols() {
            let ta = a.next_state(sa, sym).expect("complete");
            let tb = b.next_state(sb, sym).expect("complete");
            let key = (ta, tb);
            let next = *index.entry(key).or_insert_with(|| {
                states.push(key);
                queue.push_back(states.len() - 1);
                states.len() - 1
            });
            transitions.push((cur, sym, next));
        }
    }
    let finals: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, &(sa, sb))| a.is_final(sa) || b.is_final(sb))
        .map(|(i, _)| i)
        .collect();
    Dfa::from_parts(a.alphabet().clone(), states.len(), 0, finals, transitions)
}

/// Intersection of a DFA and an NFA: accepts `L(a) ∩ L(b)` as an NFA.
///
/// Runs on the dense core ([`intersect_dfa_nfa_dense`]); structurally
/// identical to [`intersect_dfa_nfa_baseline`].
pub fn intersect_dfa_nfa(a: &Dfa, b: &Nfa) -> Nfa {
    intersect_dfa_nfa_dense(&DenseDfa::from_dfa(a), &DenseNfa::from_nfa(b)).to_nfa()
}

/// The seed's tree-based DFA × NFA product, retained as the differential
/// baseline for [`intersect_dfa_nfa_dense`].
pub fn intersect_dfa_nfa_baseline(a: &Dfa, b: &Nfa) -> Nfa {
    a.alphabet()
        .check_compatible(b.alphabet())
        .expect("intersection over incompatible alphabets");
    // Eliminate ε-moves of b by closing the step relation on the fly:
    // product states are (dfa state, nfa state) with nfa states taken from
    // ε-closed configurations.
    let mut out = Nfa::new(a.alphabet().clone());
    let mut index: BTreeMap<(StateId, StateId), StateId> = BTreeMap::new();
    let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();

    let b_start = b.start_configuration();
    for &nb in &b_start {
        let key = (a.initial_state(), nb);
        let s = out.add_state();
        index.insert(key, s);
        out.set_initial(s);
        queue.push_back(key);
    }

    while let Some((sa, sb)) = queue.pop_front() {
        let cur = index[&(sa, sb)];
        if a.is_final(sa) && b.is_final(sb) {
            out.set_final(cur);
        }
        for sym in a.alphabet().symbols() {
            let Some(ta) = a.next_state(sa, sym) else { continue };
            let mut targets = BTreeSet::new();
            for tb in b.successors(sb, sym) {
                targets.extend(b.epsilon_closure(&BTreeSet::from([tb])));
            }
            for tb in targets {
                let key = (ta, tb);
                let next = *index.entry(key).or_insert_with(|| {
                    let s = out.add_state();
                    queue.push_back(key);
                    s
                });
                out.add_transition(cur, sym, next);
            }
        }
    }
    out
}

/// Whether `L(a) ∩ L(b)` is nonempty, returning a witness word if so.
///
/// This is the emptiness test at the heart of step 2 of the rewriting
/// construction and of the exactness check; it never materializes more of the
/// product than reachability requires.
pub fn intersection_witness(a: &Dfa, b: &Nfa) -> Option<Vec<Symbol>> {
    intersection_witness_from(a, a.initial_state(), &|s| a.is_final(s), b)
}

/// Like [`intersection_witness`] but with an explicit start state and final
/// predicate for the DFA side — this is exactly the `A_d^{i,j}` trick of the
/// paper (the automaton `A_d` with initial state `s_i` and final state `s_j`).
pub fn intersection_witness_from(
    a: &Dfa,
    a_start: StateId,
    a_final: &dyn Fn(StateId) -> bool,
    b: &Nfa,
) -> Option<Vec<Symbol>> {
    a.alphabet()
        .check_compatible(b.alphabet())
        .expect("intersection over incompatible alphabets");
    // BFS over (dfa state, ε-closed nfa configuration set).  Configurations
    // are sets, which keeps the frontier small (this is the lazily
    // determinized product).
    type Config = (StateId, BTreeSet<StateId>);
    let start: Config = (a_start, b.start_configuration());
    let accepts = |c: &Config| a_final(c.0) && c.1.iter().any(|&s| b.is_final(s));
    if accepts(&start) {
        return Some(Vec::new());
    }
    let mut seen: BTreeSet<Config> = BTreeSet::from([start.clone()]);
    let mut queue: VecDeque<(Config, Vec<Symbol>)> = VecDeque::from([(start, Vec::new())]);
    while let Some(((sa, cfg), word)) = queue.pop_front() {
        for sym in a.alphabet().symbols() {
            let Some(ta) = a.next_state(sa, sym) else { continue };
            let stepped = b.epsilon_closure(&b.step(&cfg, sym));
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

/// For a deterministic automaton `dfa` and a view automaton `view` (an NFA
/// over the same alphabet), computes the relation
///
/// ```text
/// { (s_i, s_j)  |  ∃ w ∈ L(view) :  δ*(s_i, w) = s_j }
/// ```
///
/// i.e. all pairs of `dfa` states connected by some word of the view's
/// language.  This is the batched transition test used to build the rewriting
/// automaton `A'` (Section 2, step 2 of the construction).
pub fn word_reachability_relation(dfa: &Dfa, view: &Nfa) -> BTreeSet<(StateId, StateId)> {
    word_reachability_relation_dense(&DenseDfa::from_dfa(dfa), &DenseNfa::from_nfa(view))
        .into_iter()
        .map(|(si, sj)| (si as StateId, sj as StateId))
        .collect()
}

/// [`word_reachability_relation`] on already-frozen dense inputs — the form
/// the rewriting pipeline calls once per view with the dense `A_d` and the
/// frozen view automaton, skipping all per-view refreezing.
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

/// The seed's tree-based reachability sweep (`BTreeSet` configurations with
/// per-step ε-closure recomputation).  Retained as the differential baseline
/// for the dense sweep above; see the property tests and benchmarks.
pub fn word_reachability_relation_baseline(
    dfa: &Dfa,
    view: &Nfa,
) -> BTreeSet<(StateId, StateId)> {
    dfa.alphabet()
        .check_compatible(view.alphabet())
        .expect("reachability over incompatible alphabets");
    let mut relation = BTreeSet::new();
    let view_start = view.start_configuration();
    for si in 0..dfa.num_states() {
        // BFS over (dfa state, ε-closed view configuration) from (si, start).
        type Config = (StateId, BTreeSet<StateId>);
        let start: Config = (si, view_start.clone());
        let mut seen: BTreeSet<Config> = BTreeSet::from([start.clone()]);
        let mut queue: VecDeque<Config> = VecDeque::from([start.clone()]);
        let record = |cfg: &Config, relation: &mut BTreeSet<(StateId, StateId)>| {
            if cfg.1.iter().any(|&s| view.is_final(s)) {
                relation.insert((si, cfg.0));
            }
        };
        record(&start, &mut relation);
        while let Some((sa, cfg)) = queue.pop_front() {
            for sym in dfa.alphabet().symbols() {
                let Some(ta) = dfa.next_state(sa, sym) else { continue };
                let stepped = view.epsilon_closure(&view.step(&cfg, sym));
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

/// Per-pair variant of [`word_reachability_relation`]: tests a single
/// `(s_i, s_j)` pair by product emptiness.  It shares no code with the
/// batched sweeps, which is what makes it the independent reference the
/// differential suites check them against.
pub fn word_reaches(dfa: &Dfa, view: &Nfa, si: StateId, sj: StateId) -> bool {
    intersection_witness_from(dfa, si, &|s| s == sj, view).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::determinize::determinize;

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

    #[test]
    fn union_dfa_is_disjunction() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b_sym = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        let l1 = dfa_for(&a_sym); // {a}
        let l2 = dfa_for(&b_sym.concat(&b_sym)); // {bb}
        let either = union_dfa(&l1, &l2);
        assert!(either.accepts(&w(&alpha, "a")));
        assert!(either.accepts(&w(&alpha, "bb")));
        assert!(!either.accepts(&w(&alpha, "b")));
        assert!(!either.accepts(&w(&alpha, "ab")));
    }

    #[test]
    fn intersect_dfa_nfa_matches_dfa_intersection() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let starts_a = a_sym.concat(&Nfa::universal(alpha.clone()));
        let ends_a = Nfa::universal(alpha.clone()).concat(&a_sym);
        let product = intersect_dfa_nfa(&dfa_for(&starts_a), &ends_a);
        for word in ["a", "aa", "aba", "abba"] {
            assert!(product.accepts(&w(&alpha, word)), "{word}");
        }
        for word in ["", "b", "ab", "ba", "bab"] {
            assert!(!product.accepts(&w(&alpha, word)), "{word}");
        }
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
        let rel = word_reachability_relation(&dfa, &view2);
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
        let rel = word_reachability_relation(&dfa, &view);
        assert!(rel.contains(&(0, 0)));
        assert!(rel.contains(&(1, 1)));
        assert!(rel.contains(&(0, 1)));
    }
}
