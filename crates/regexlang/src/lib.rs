//! # regexlang — the regular-expression language of the rewriting engine
//!
//! Regular expressions are the query and view language of Calvanese, De
//! Giacomo, Lenzerini and Vardi, *Rewriting of Regular Expressions and
//! Regular Path Queries* (PODS'99 / JCSS 2002).  This crate provides:
//!
//! * the [`Regex`] AST with the paper's operators (`+`, `·`, `*`) plus the
//!   derived `^+` and `?`,
//! * a [`parse`]r and round-tripping pretty printer for the paper's concrete
//!   syntax (`a·(b·a+c)*`),
//! * two translations to NFAs — [`fn@thompson`] (a tree `Nfa` with ε-moves:
//!   the tests' oracle and the rewriting construction's default query
//!   front-end) and [`glushkov_dense`] (an ε-free `DenseNfa`),
//! * [`compile`], the one way a regex becomes an automaton everywhere else —
//!   product sweeps over graphs, the rewriter's views and certificates, the
//!   tiling reduction: the position automaton built dense
//!   ([`glushkov_dense`]), trimmed, bisimilar states merged — ε-free and as
//!   small as polynomial time allows, with no option to choose otherwise,
//! * language-preserving [`fn@simplify`]cation,
//! * [`nfa_to_regex`] state elimination on a `DenseNfa` (and
//!   [`dfa_to_regex`] on a `Dfa`'s next-state table) so rewriting automata can be
//!   read back in the paper's notation (e.g. `e2*·e1·e3*` from Figure 1) —
//!   it and `simplify` work on hash-consed expressions, one id per distinct
//!   sub-expression, and build a `Regex` tree only for their result — and
//! * a seeded [`random_regex`] generator for the scaling experiments.
//!
//! ```
//! use regexlang::{parse, thompson, nfa_to_regex, simplify};
//! use automata::{determinize, DenseNfa};
//!
//! let e0 = parse("a·(b·a+c)*").unwrap();
//! let alphabet = e0.inferred_alphabet();
//! let nfa = thompson(&e0, &alphabet).unwrap();
//! let dfa = determinize(&nfa);
//! assert!(dfa.accepts(&alphabet.word(&["a", "c", "b", "a"]).unwrap()));
//!
//! let back = simplify(&nfa_to_regex(&DenseNfa::from_nfa(&nfa)));
//! assert_eq!(back.symbols(), e0.symbols());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arena;
mod ast;
mod glushkov;
mod parser;
mod random;
mod simplify;
mod state_elim;
mod thompson;

pub use ast::Regex;
pub use glushkov::{compile, glushkov_dense};
pub use parser::{parse, ParseError};
pub use random::{random_regex, random_views, RandomRegexConfig};
pub use simplify::simplify;
pub use state_elim::{dfa_to_regex, nfa_to_regex};
pub use thompson::{thompson, thompson_auto, UnknownSymbol};
