//! Language containment and equivalence checks.
//!
//! The exactness check of the paper (Theorem 2.3) reduces to a containment
//! test `L(A_d) ⊆ L(B)` where `B` is the (nondeterministic) expansion of the
//! rewriting.  Theorem 3.2 obtains the 2EXPSPACE upper bound by *not*
//! materializing the complement of `B` and instead exploring the product of
//! `A_d` with the lazily determinized `B` on the fly.  [`dfa_subset_of_nfa`]
//! implements exactly that strategy; [`dfa_subset_of_nfa_explicit`] is the
//! naive explicit-complement variant kept for the ablation benchmark (E11).
//! Both take `B` as the [`DenseNfa`] `rewriter` builds it as, and read it as
//! is; only the tree-input [`nfa_equivalent`] freezes.

use std::rc::Rc;

use crate::alphabet::Symbol;
use crate::dense::{ConfigVisitMap, DenseNfa, SubsetScratch};
use crate::dense_ops::intersect_dense;
use crate::determinize::determinize_to_dense;
use crate::dfa::Dfa;
use crate::nfa::Nfa;

/// Outcome of a containment check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Containment {
    /// The containment holds.
    Holds,
    /// The containment fails; the word is a witness in the left language but
    /// not in the right one.
    FailsWith(Vec<Symbol>),
}

impl Containment {
    /// Whether the containment holds.
    pub fn holds(&self) -> bool {
        matches!(self, Containment::Holds)
    }

    /// The counterexample, if the containment fails.
    pub fn counterexample(&self) -> Option<&[Symbol]> {
        match self {
            Containment::Holds => None,
            Containment::FailsWith(w) => Some(w),
        }
    }
}

/// Checks `L(a) ⊆ L(b)` for a DFA `a` and an NFA `b` **without** building the
/// complement of `b` explicitly.
///
/// The search explores pairs `(state of a, ε-closed subset of b's states)`
/// breadth-first from the initial configuration; a pair where `a` accepts but
/// the subset contains no accepting state of `b` yields a shortest
/// counterexample.  This is the on-the-fly strategy of Theorem 3.2.
pub fn dfa_subset_of_nfa(da: &Dfa, db: &DenseNfa) -> Containment {
    da.alphabet()
        .check_compatible(db.alphabet())
        .expect("containment over incompatible alphabets");
    let k = da.num_symbols();

    // Only DFA states from which `a` can still accept matter: a word that has
    // entered a dead state of `a` can never become a counterexample, and
    // pruning those states keeps the product exploration proportional to the
    // *useful* part of `a` instead of to the full determinization of `b`.
    let live = da.coreachable();

    let violates = |sa: u32, cfg: &[u32]| da.is_final(sa) && !db.any_final(cfg);
    if violates(da.initial(), db.start()) {
        return Containment::FailsWith(Vec::new());
    }
    if !live.contains(da.initial()) {
        // L(a) is empty; the containment holds vacuously.
        return Containment::Holds;
    }

    // BFS over (DFA state, ε-closed configuration) pairs in symbol order, so
    // the first violation yields a shortest (and lexicographically first)
    // counterexample — identical to the tree-based exploration it replaces.
    // Each distinct configuration is allocated once (`Rc<[u32]>` shared
    // between the interning map and the BFS nodes) and a visit is one
    // `(configuration id, DFA state)` entry, so the search costs what it
    // meets; the parent links reconstruct the counterexample word without
    // per-node word cloning.
    let mut seen = ConfigVisitMap::default();
    let start_cfg = seen
        .intern_visit(db.start(), da.initial())
        .expect("a fresh map has no visits");
    let mut configs: Vec<(u32, Rc<[u32]>)> = vec![(da.initial(), start_cfg)];
    let mut parents: Vec<(usize, u32)> = vec![(usize::MAX, 0)];

    let mut scratch = SubsetScratch::new(db.num_states());
    let mut stepped: Vec<u32> = Vec::new();
    let rebuild_word = |parents: &[(usize, u32)], mut at: usize, last_sym: u32| {
        let mut word = vec![Symbol(last_sym)];
        while at != 0 {
            let (parent, sym) = parents[at];
            word.push(Symbol(sym));
            at = parent;
        }
        word.reverse();
        word
    };

    let mut cursor = 0;
    while cursor < configs.len() {
        let (sa, cfg) = configs[cursor].clone();
        for a_idx in 0..k {
            // A word that dies in `a` (or enters a dead state) is not in
            // L(a), so it can never produce a counterexample.
            let Some(ta) = da.next(sa, a_idx) else { continue };
            if !live.contains(ta) {
                continue;
            }
            db.step_closed(&cfg, a_idx, &mut scratch, &mut stepped);
            if let Some(canonical) = seen.intern_visit(&stepped, ta) {
                if violates(ta, &stepped) {
                    return Containment::FailsWith(rebuild_word(
                        &parents,
                        cursor,
                        a_idx as u32,
                    ));
                }
                configs.push((ta, canonical));
                parents.push((cursor, a_idx as u32));
            }
        }
        cursor += 1;
    }
    Containment::Holds
}

/// Explicit-complement variant of [`dfa_subset_of_nfa`]: determinizes `b`,
/// complements it, intersects with `a`, and checks emptiness.  Exponentially
/// more memory-hungry in the worst case; retained for the ablation benchmark.
///
/// The whole chain — subset construction, complement, product, shortest-word
/// BFS — runs on the dense core.
pub fn dfa_subset_of_nfa_explicit(a: &Dfa, b: &DenseNfa) -> Containment {
    let b_comp = determinize_to_dense(b).dfa.complement();
    let product = intersect_dense(a, &b_comp);
    match product.shortest_word() {
        None => Containment::Holds,
        Some(word) => Containment::FailsWith(word),
    }
}

/// Checks `L(a) ⊆ L(b)` for two NFAs: determinizes `a` straight into a flat
/// table and runs the on-the-fly check against `b` as it is.
pub fn nfa_subset_of_nfa(a: &DenseNfa, b: &DenseNfa) -> Containment {
    dfa_subset_of_nfa(&determinize_to_dense(a).dfa, b)
}

/// Checks language equivalence of two NFAs, returning a counterexample from
/// whichever side breaks the symmetry.
pub fn nfa_equivalent(a: &Nfa, b: &Nfa) -> Containment {
    let (a, b) = (DenseNfa::from_nfa(a), DenseNfa::from_nfa(b));
    match nfa_subset_of_nfa(&a, &b) {
        Containment::Holds => nfa_subset_of_nfa(&b, &a),
        fail => fail,
    }
}

/// Checks language equivalence of two DFAs.
pub fn dfa_equivalent(a: &Dfa, b: &Dfa) -> Containment {
    match dfa_subset_of_nfa(a, &DenseNfa::from_dfa(b)) {
        Containment::Holds => dfa_subset_of_nfa(b, &DenseNfa::from_dfa(a)),
        fail => fail,
    }
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

    #[test]
    fn subset_holds_for_sublanguage() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        // a·a ⊆ a*
        let small = determinize(&a_sym.concat(&a_sym));
        let big = a_sym.star();
        let big = DenseNfa::from_nfa(&big);
        assert!(dfa_subset_of_nfa(&small, &big).holds());
        assert!(dfa_subset_of_nfa_explicit(&small, &big).holds());
    }

    #[test]
    fn subset_fails_with_shortest_counterexample() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b_sym = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        // a* ⊄ a·a* because of ε; counterexample is the empty word.
        let astar = determinize(&a_sym.star());
        let aplus = a_sym.concat(&a_sym.star());
        match dfa_subset_of_nfa(&astar, &DenseNfa::from_nfa(&aplus)) {
            Containment::FailsWith(cex) => assert_eq!(cex, Vec::<Symbol>::new()),
            Containment::Holds => panic!("containment should fail"),
        }
        // (a+b) ⊄ a : counterexample is "b".
        let any = determinize(&a_sym.union(&b_sym));
        match dfa_subset_of_nfa(&any, &DenseNfa::from_nfa(&a_sym)) {
            Containment::FailsWith(cex) => assert_eq!(cex, w(&alpha, "b")),
            Containment::Holds => panic!("containment should fail"),
        }
    }

    #[test]
    fn explicit_and_on_the_fly_agree() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b_sym = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        let cases = [
            (a_sym.concat(&b_sym).star(), a_sym.union(&b_sym).star()), // holds
            (a_sym.union(&b_sym).star(), a_sym.concat(&b_sym).star()), // fails
            (a_sym.star(), a_sym.star().concat(&b_sym.optional())),    // holds
        ];
        for (lhs, rhs) in cases {
            let (lhs_d, rhs) = (determinize(&lhs), DenseNfa::from_nfa(&rhs));
            let lazy = dfa_subset_of_nfa(&lhs_d, &rhs);
            let explicit = dfa_subset_of_nfa_explicit(&lhs_d, &rhs);
            assert_eq!(lazy.holds(), explicit.holds());
        }
    }

    #[test]
    fn equivalence_of_different_constructions() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b_sym = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        // (a + b)* == (a*·b*)*
        let lhs = a_sym.union(&b_sym).star();
        let rhs = a_sym.star().concat(&b_sym.star()).star();
        assert!(nfa_equivalent(&lhs, &rhs).holds());
        // a·(b·a)* == (a·b)*·a
        let lhs = a_sym.concat(&b_sym.concat(&a_sym).star());
        let rhs = a_sym.concat(&b_sym).star().concat(&a_sym);
        assert!(nfa_equivalent(&lhs, &rhs).holds());
        // a* != b*
        assert!(!nfa_equivalent(&a_sym.star(), &b_sym.star()).holds());
    }

    #[test]
    fn dfa_equivalence_and_counterexamples() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let d1 = determinize(&a_sym.star());
        let d2 = determinize(&a_sym.plus());
        assert!(dfa_equivalent(&d1, &d1).holds());
        let result = dfa_equivalent(&d1, &d2);
        assert_eq!(result.counterexample(), Some(&[][..]));
    }

    #[test]
    fn empty_language_is_subset_of_everything() {
        let alpha = ab();
        let empty = Dfa::empty(alpha.clone());
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let nothing = DenseNfa::from_nfa(&Nfa::empty(alpha));
        assert!(dfa_subset_of_nfa(&empty, &DenseNfa::from_nfa(&a_sym)).holds());
        assert!(dfa_subset_of_nfa(&empty, &nothing).holds());
        // Nothing but the empty language is a subset of the empty language.
        let nonempty = determinize(&a_sym);
        assert!(!dfa_subset_of_nfa(&nonempty, &nothing).holds());
    }
}
