//! # rpq — view-based rewriting of regular path queries
//!
//! Section 4 of the reproduced paper (Calvanese, De Giacomo, Lenzerini,
//! Vardi, PODS'99 / JCSS 2002) lifts the regular-expression rewriting of
//! Section 2 to *regular path queries* over semi-structured databases:
//!
//! * an [`Rpq`] is a regular expression over unary formulae of a decidable
//!   complete theory `T` (label-based queries are the special case of
//!   elementary formulae `λz.z = a`),
//! * [`rewrite_rpq`] grounds the query and views to the domain constants
//!   (the `Q*` construction) and computes the Σ_Q-maximal rewriting plus its
//!   exactness, exactly as Theorem 4.2 prescribes,
//! * [`answer_rpq`] / [`answer_rewriting_over_views`] evaluate queries and
//!   rewritings over concrete [`graphdb::GraphDb`]s, making Definition 4.3
//!   executable, and
//! * [`find_partial_rewriting`] implements the partial rewritings of §4.3
//!   (extending the view set with atomic/elementary views until exactness),
//!   choosing among candidates by the preference criteria 2–4.
//!
//! ```
//! use rpq::{RpqRewriteProblem, rewrite_rpq};
//!
//! // Example 4.1 of the paper.
//! let problem = RpqRewriteProblem::parse_labels(
//!     "a·(b+c)",
//!     [("q1", "a"), ("q2", "b"), ("q3", "c")],
//! ).unwrap();
//! let rewriting = rewrite_rpq(&problem).unwrap();
//! assert!(rewriting.is_exact());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod answer;
mod partial;
mod query;
mod rewrite;

pub use answer::{
    answer_rewriting_over_views, answer_rewriting_over_views_at, answer_rpq, answer_rpq_at,
    compare_on_database, compare_on_database_at, materialize_views, register_problem_views,
    snapshot_for_problem, AnswerComparison,
};
pub use partial::{find_partial_rewriting, AtomicView, PartialRewriting};
pub use query::{Rpq, RpqError};
pub use rewrite::{rewrite_rpq, RpqRewriteProblem, RpqRewriting};
