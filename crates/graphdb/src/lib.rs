//! # graphdb — the semi-structured database substrate
//!
//! Section 4 of the reproduced paper applies regular-expression rewriting to
//! *regular path queries* over semi-structured databases: edge-labeled graphs
//! whose basic query mechanism retrieves all node pairs connected by a path
//! conforming to a regular language.  This crate provides that substrate:
//!
//! * [`GraphDb`] — an edge-labeled graph over a finite label domain `D`,
//! * [`eval_regex`]/[`eval_csr`] — RPQ evaluation by product reachability
//!   (Definition 4.2),
//! * [`MaterializedViews`] — view extensions and the evaluation of
//!   Σ_E-languages (rewritings) over them,
//! * [`Theory`]/[`Formula`] — the decidable complete theory over `D` used by
//!   the formula-based data model of §4.1, and
//! * seeded graph generators for the experiments.
//!
//! ```
//! use automata::Alphabet;
//! use graphdb::{GraphDb, eval_str};
//!
//! let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
//! db.add_edge_named("n0", "a", "n1");
//! db.add_edge_named("n1", "c", "n1");
//! db.add_edge_named("n1", "b", "n2");
//! db.add_edge_named("n2", "a", "n1");
//!
//! let answer = eval_str(&db, "a·(b·a+c)*");
//! let n0 = db.node_by_name("n0").unwrap();
//! let n1 = db.node_by_name("n1").unwrap();
//! assert!(answer.contains(&(n0, n1)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod answer;
mod budget;
mod eval;
mod generator;
mod graph;
mod theory;
mod views;

pub use answer::{RowWriter, SortedPairs};
pub use budget::{SweepBudget, SweepInterrupt, SweepState, SWEEP_CHECK_INTERVAL};
pub use eval::{
    eval_csr, eval_csr_from, eval_csr_from_budgeted, eval_csr_pair, eval_csr_pair_budgeted,
    eval_csr_sources, eval_csr_sources_budgeted, eval_regex, eval_str, render_answer, Answer,
    EvalScratch, LaneScratch, PairScratch, PairTimings, Reachable, LANES,
};
pub use generator::{
    community_graph, layered_graph, power_law_graph, random_graph, travel_graph, tree_graph,
    CommunityGraphConfig, PowerLawGraphConfig, RandomGraphConfig,
};
pub use graph::{CsrAdjacency, Edge, GraphDb, GraphError, NodeId};
pub use theory::{Formula, Theory};
pub use views::MaterializedViews;
