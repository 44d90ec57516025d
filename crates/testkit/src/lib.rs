//! # testkit — the seed's tree algorithms, kept as test oracles
//!
//! The production crates run every algorithm of the paper's construction
//! once, on the dense CSR core of `automata`.  This crate holds the seed's
//! tree implementations of the same algorithms — `BTreeSet` configurations,
//! adjacency-map subset construction, Moore refinement — so the differential
//! suites can pin the dense paths to them *structurally* (state numbering
//! included), not just up to language equality.  It is a dev-only workspace
//! member: crates list it under `[dev-dependencies]` and use it from their
//! integration tests (`tests/*.rs`); `rpq-lint`'s layering rule rejects it
//! anywhere else.
//!
//! Each module is named after the production module whose algorithm it
//! shadows, and its own tests compare the two:
//!
//! * [`mod@determinize`] — the tree subset construction,
//! * [`dense_ops`] — Moore minimization and the tree intersection product,
//! * [`product`] — the `BTreeSet` word-reachability sweep behind `A'`, and
//!   the per-pair BFS oracles [`intersection_witness`] / [`word_reaches`],
//! * [`equivalence`] — the explicit-complement containment chain,
//! * [`nfa`] — tree ε-closures, set steps and trim: the oracles for the
//!   dense core's closures, `step_closed` and `DenseNfa::trim`,
//! * [`dfa`] — the seed's `Dfa` reachability, trim, completion, complement and
//!   shortest word that only these oracles use,
//! * [`eval`] — the tree RPQ evaluator and its `BTreeSet` answer,
//! * [`maximal`] — the whole Theorem 2.2 construction on tree automata,
//! * [`render`] — state elimination and `simplify` on owned `Regex` trees,
//!   the oracle of `regexlang`'s hash-consed renderer.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dense_ops;
pub mod determinize;
pub mod dfa;
pub mod equivalence;
pub mod eval;
pub mod maximal;
pub mod nfa;
pub mod product;
pub mod render;

pub use dense_ops::{intersect_dfa_baseline, minimize_baseline};
pub use determinize::{determinize_via_dense, determinize_with_subsets_baseline, Determinized};
pub use equivalence::dfa_subset_of_nfa_explicit_baseline;
pub use eval::{eval_automaton_baseline, AnswerSet};
pub use maximal::{compute_maximal_rewriting_baseline, compute_maximal_rewriting_with_baseline};
pub use product::{
    intersection_witness, intersection_witness_from, word_reachability_relation_baseline,
    word_reachability_via_dense, word_reaches,
};
pub use render::{nfa_to_regex_baseline, simplify_baseline};
