//! # automata — finite-automata substrate for view-based rewriting
//!
//! This crate provides the automata-theoretic machinery that the rest of the
//! workspace builds on to reproduce Calvanese, De Giacomo, Lenzerini and
//! Vardi, *Rewriting of Regular Expressions and Regular Path Queries*
//! (PODS'99 / JCSS 2002):
//!
//! * interned [`Alphabet`]s and [`Symbol`]s,
//! * [`Nfa`]s with ε-moves and the usual rational operations,
//! * [`Dfa`]s, complete or partial, as flat next-state tables,
//! * the subset construction ([`determinize_to_dense`]) producing the
//!   deterministic query automaton `A_d` of the paper,
//! * DFA minimization ([`minimize_dense`]),
//! * the intersection product ([`intersect_dense`]) and the
//!   [`word_reachability_relation_dense`]
//!   used to build the rewriting automaton `A'`,
//! * on-the-fly containment checks ([`dfa_subset_of_nfa`]) implementing the
//!   complement-free strategy of Theorem 3.2,
//! * seeded random generation for tests and benchmarks.
//!
//! ## Architecture: one tree construction type, flat everything else
//!
//! * [`Nfa`] is the mutable, adjacency-map **construction** type.  Rational
//!   operations (`union`, `concat`, `star`, …) and the tree form of
//!   `rewriter`'s view expansion build it, and it remains an interchange type
//!   of the public API.  It implements no algorithm that reads an automaton:
//!   `Nfa::accepts` freezes and runs [`DenseNfa::accepts`].
//! * [`dense::DenseNfa`] is the frozen, flat **traversal** form of an NFA:
//!   CSR successor arrays indexed by `(state, symbol)` with per-state
//!   ε-closures precomputed once and folded into the successor lists, plus
//!   `u64`-word [`dense::BitSet`]s for state sets and
//!   [`dense::SubsetScratch`], the bitset that lists its members, for subset
//!   steps.  An NFA is frozen via [`dense::DenseNfa::from_nfa`] (also
//!   `From<&Nfa>`) and thawed via `DenseNfa::to_nfa`; dense algorithms build
//!   one natively via `from_parts` (ε-free) or [`dense::DenseNfa::from_edges`]
//!   (with ε-moves; the one freeze, which `from_nfa` and `from_parts` call).
//! * [`Dfa`] has one form, a flat `state × symbol` next-state table.  The
//!   algorithms that make DFAs lay them out row by row and the algorithms
//!   that read them index the table; nothing converts.  Every DFA the
//!   pipeline builds is complete, so the flat rows cost no space over
//!   per-state maps.
//!
//! Every algorithm exists once, and runs flat:
//! [`determinize_to_dense`] interns sorted `Vec<u32>` subset keys straight
//! into a next-state table, [`minimize_dense`] is Hopcroft's partition
//! refinement over a CSR reverse-transition table, [`intersect_dense`] and
//! complement are table constructions ([`dense_ops`], [`Dfa::complement`]),
//! [`word_reachability_relation_dense`] and [`dfa_subset_of_nfa`] sweep (DFA
//! state × ε-closed configuration) products with interned configurations
//! and a hash set of `(configuration id, state)` visits, and
//! `graphdb::eval_csr` sweeps the product with a CSR adjacency.
//! The entry points that take a tree `Nfa` ([`fn@determinize`],
//! [`dfa_subset_of_nfa`], …) freeze it first.
//!
//! The seed's tree implementations of these algorithms — down to ε-closure,
//! trim, completion, complement and shortest word — live in the dev-only
//! `testkit` crate, as the oracles of the differential suites: the flat
//! core must produce *structurally identical* results (state numbering
//! included).
//!
//! Every subset step — a closure, a closed successor list, a
//! [`dense::DenseNfa::step_closed`] — costs O(members touched), never
//! O(|Q| / 64): it accumulates into a [`dense::SubsetScratch`] and drains
//! only the bits it set.
//!
//! ## Quick example
//!
//! ```
//! use automata::{Alphabet, Nfa, determinize, minimize_dense, dfa_subset_of_nfa};
//!
//! let alpha = Alphabet::from_chars(['a', 'b']).unwrap();
//! let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
//! let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
//!
//! // (a·b)* as an NFA, then as a minimal DFA.
//! let nfa = a.concat(&b).star();
//! let dfa = minimize_dense(&determinize(&nfa));
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
pub mod equivalence;
#[cfg(test)]
mod minimize;
pub mod nfa;
pub mod product;
pub mod random;

pub use alphabet::{Alphabet, AlphabetError, Symbol};
pub use dense::{BitSet, DenseNfa, DenseReverse};
pub use dense_ops::{intersect_dense, merge_bisimilar, minimize_dense};
pub use determinize::{determinize, determinize_to_dense, DeterminizedDense};
pub use dfa::Dfa;
pub use equivalence::{
    dfa_equivalent, dfa_subset_of_dfa, dfa_subset_of_nfa, dfa_subset_of_nfa_dense,
    dfa_subset_of_nfa_explicit, nfa_equivalent, nfa_subset_of_nfa, Containment,
};
pub use nfa::{Nfa, StateId};
pub use product::word_reachability_relation_dense;
pub use random::{random_dfa, random_nfa, random_word, RandomAutomatonConfig};
