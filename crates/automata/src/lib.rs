//! # automata — finite-automata substrate for view-based rewriting
//!
//! This crate provides the automata-theoretic machinery that the rest of the
//! workspace builds on to reproduce Calvanese, De Giacomo, Lenzerini and
//! Vardi, *Rewriting of Regular Expressions and Regular Path Queries*
//! (PODS'99 / JCSS 2002):
//!
//! * interned [`Alphabet`]s and [`Symbol`]s,
//! * [`Nfa`]s with ε-moves and the usual rational operations,
//! * [`Dfa`]s with completion and complementation,
//! * the subset construction ([`fn@determinize`]) producing the deterministic
//!   query automaton `A_d` of the paper,
//! * DFA minimization ([`fn@minimize`]),
//! * product constructions and the [`word_reachability_relation`] used to
//!   build the rewriting automaton `A'`,
//! * on-the-fly containment checks ([`dfa_subset_of_nfa`]) implementing the
//!   complement-free strategy of Theorem 3.2,
//! * DOT export and seeded random generation for tests and benchmarks.
//!
//! ## Architecture: tree front end, dense core
//!
//! The crate deliberately splits construction from traversal:
//!
//! * [`Nfa`]/[`Dfa`] are the mutable, adjacency-map **construction** types.
//!   Rational operations (`union`, `concat`, `star`, …), view expansion in
//!   `rewriter`, and DOT export all work on them, and they remain the public
//!   API surface.
//! * [`dense::DenseNfa`]/[`dense::DenseDfa`] are frozen, flat **traversal**
//!   types: CSR successor arrays indexed by `(state, symbol)` with per-state
//!   ε-closures precomputed once and folded into the successor lists, plus
//!   `u64`-word [`dense::BitSet`]s for state sets and
//!   [`dense::SubsetScratch`], the bitset that lists its members, for subset
//!   steps.
//!
//! Conversion is two-way and cheap: freeze via [`dense::DenseNfa::from_nfa`]
//! / [`dense::DenseDfa::from_dfa`] (also `From<&Nfa>` / `From<&Dfa>`), thaw
//! via `DenseDfa::to_dfa` / `DenseNfa::to_nfa`, and build dense natively via
//! `from_parts`.  Every algorithm runs dense: [`fn@determinize`] /
//! [`determinize_to_dense`] intern sorted `Vec<u32>` subset keys straight
//! into a flat next-state table, [`fn@minimize`] is Hopcroft's partition
//! refinement over a CSR reverse-transition table
//! ([`dense_ops::minimize_dense`]), [`intersect_dfa`] / [`union_dfa`] /
//! [`intersect_dfa_nfa`] and complement are flat-table product
//! constructions ([`dense_ops`]), [`word_reachability_relation`] and
//! [`dfa_subset_of_nfa`] sweep (DFA state × ε-closed configuration)
//! products with interned configurations and a hash set of
//! `(configuration id, state)` visits, and `graphdb::eval_automaton`
//! runs a product-BFS over a CSR adjacency with a dense visited bitmap.
//! Callers in `regexlang`, `rewriter` and `rpq` keep passing tree automata;
//! the dense core produces *structurally identical* results (state
//! numbering included), enforced by differential property tests against the
//! retained `*_baseline` implementations.
//!
//! Every subset step — a closure, a closed successor list, a
//! [`dense::DenseNfa::step_closed`] — costs O(members touched), never
//! O(|Q| / 64): it accumulates into a [`dense::SubsetScratch`] and drains
//! only the bits it set.
//!
//! ## Quick example
//!
//! ```
//! use automata::{Alphabet, Nfa, determinize, minimize, dfa_subset_of_nfa};
//!
//! let alpha = Alphabet::from_chars(['a', 'b']).unwrap();
//! let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
//! let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
//!
//! // (a·b)* as an NFA, then as a minimal DFA.
//! let nfa = a.concat(&b).star();
//! let dfa = minimize(&determinize(&nfa));
//! assert!(dfa.accepts(&alpha.word(&["a", "b", "a", "b"]).unwrap()));
//!
//! // (a·b)* ⊆ (a+b)* — checked without materializing any complement.
//! let all = a.union(&b).star();
//! assert!(dfa_subset_of_nfa(&dfa, &all).holds());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod alphabet;
pub mod dense;
pub mod dense_ops;
pub mod determinize;
pub mod dfa;
pub mod dot;
pub mod equivalence;
pub mod minimize;
pub mod nfa;
pub mod product;
pub mod random;

pub use alphabet::{Alphabet, AlphabetError, Symbol};
pub use dense::{BitSet, DenseDfa, DenseNfa, DenseReverse};
pub use dense_ops::{
    intersect_dense, intersect_dfa_nfa_dense, merge_bisimilar, minimize_dense, union_dense,
};
pub use determinize::{
    determinize, determinize_dense, determinize_to_dense, determinize_with_subsets,
    determinize_with_subsets_baseline, Determinized, DeterminizedDense,
};
pub use dfa::Dfa;
pub use dot::{dfa_to_dot, nfa_to_dot};
pub use equivalence::{
    dfa_equivalent, dfa_subset_of_dfa, dfa_subset_of_nfa, dfa_subset_of_nfa_dense,
    dfa_subset_of_nfa_explicit, dfa_subset_of_nfa_explicit_baseline, nfa_equivalent,
    nfa_subset_of_nfa, Containment,
};
pub use minimize::{minimize, minimize_baseline};
pub use nfa::{Nfa, StateId};
pub use product::{
    intersect_dfa, intersect_dfa_baseline, intersect_dfa_nfa, intersect_dfa_nfa_baseline,
    intersection_witness, intersection_witness_from, union_dfa, union_dfa_baseline,
    word_reachability_relation, word_reachability_relation_baseline,
    word_reachability_relation_dense, word_reaches,
};
pub use random::{random_dfa, random_nfa, random_word, RandomAutomatonConfig};
