//! The four workloads.

pub mod materialize;
pub mod rewrite_offline;
pub mod serve_churn;
pub mod serve_interactive;
