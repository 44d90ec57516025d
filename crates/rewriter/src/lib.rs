//! # rewriter — view-based rewriting of regular expressions
//!
//! This crate is the core contribution of the reproduced paper (Calvanese,
//! De Giacomo, Lenzerini, Vardi, *Rewriting of Regular Expressions and
//! Regular Path Queries*, PODS'99 / JCSS 2002): given a query `E0` over an
//! alphabet `Σ` and a set of views `E = {E1, …, Ek}` (each named by a symbol
//! of a view alphabet `Σ_E`), it computes
//!
//! * the **Σ_E-maximal rewriting** `R_{E,E0}` — the largest language over the
//!   view symbols all of whose expansions fall inside `L(E0)` (Theorem 2.2),
//!   which by Theorem 2.1 is also Σ-maximal, and
//! * whether that rewriting is **exact**, i.e. whether its expansion is all
//!   of `L(E0)` (Theorem 2.3 / Corollary 2.1), using the complement-free
//!   on-the-fly containment of Theorem 3.2.
//!
//! ## Dense pipeline
//!
//! The whole construction runs on the `automata` crate's flat core: dense
//! subset construction, Hopcroft minimization, batched bitset reachability
//! sweeps for `A'`, complement-by-subset-construction, and bitset product
//! sweeps for both exactness strategies.  [`MaximalRewriting`]'s `query_dfa`
//! and `automaton` are [`automata::Dfa`]s — next-state tables, the one form
//! a DFA has — and `A'` is a [`automata::DenseNfa`].  The tree
//! [`automata::Nfa`] remains a *construction and interchange* type (the
//! query's and views' Thompson automata, the expansion `B` of the exactness
//! check), but no tree **algorithm** executes.
//!
//! The seed's tree pipeline is the differential suites' oracle, in the
//! dev-only `testkit` crate: `tests/dense_pipeline.rs` pins the dense
//! pipeline to it — structurally identical automata, not just equal
//! languages.
//!
//! ## Example (Figure 1 of the paper)
//!
//! ```
//! use rewriter::{RewriteProblem, rewrite};
//!
//! let problem = RewriteProblem::parse(
//!     "a·(b·a+c)*",
//!     [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
//! ).unwrap();
//! let (rewriting, exactness) = rewrite(&problem);
//!
//! // The maximal rewriting is e2*·e1·e3*, and it is exact.
//! assert!(rewriting.accepts(&["e2", "e1", "e3"]));
//! assert!(!rewriting.accepts(&["e3", "e1"]));
//! assert!(exactness.exact);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod certificates;
pub mod exact;
pub mod expansion;
pub mod maximal;
pub mod report;
pub mod views;

pub use certificates::{
    sigma_contained, sigma_e_contained, verify_rewriting, verify_rewriting_regex, RewritingCheck,
};
pub use exact::{check_exactness, check_exactness_with, rewrite, ExactnessReport, ExactnessStrategy};
pub use expansion::{expand_dfa, expand_nfa, expand_word};
pub use maximal::{
    compute_maximal_rewriting, compute_maximal_rewriting_with, MaximalRewriting, RewriteProblem,
    RewriteStats, RewriterOptions,
};
pub use report::{run_and_report, run_and_report_with, RewriteReport};
pub use views::{RewriteError, View, ViewSet};
