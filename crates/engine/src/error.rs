//! Typed errors for every engine path reachable from untrusted input.
//!
//! Library-internal invariant violations still panic (a bug should fail
//! loudly), but everything a *request* can trigger — parse failures, unknown
//! labels or nodes, absent edges, incompatible alphabets, exhausted query
//! budgets — surfaces as an [`EngineError`] so a serving layer can map it to
//! a structured wire response instead of tearing down a connection.
//!
//! The `Display` strings deliberately preserve the historical panic-message
//! substrings ("not a label", "not in domain", "is not present", "no node
//! named"): the panicking convenience methods now delegate to the fallible
//! ones and re-panic with `Display`, so existing `should_panic` pins and
//! downstream log scrapers keep matching.

use graphdb::{GraphError, NodeId, SweepInterrupt};

/// Structured failure of an engine operation on user-supplied input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query text did not parse.
    Parse {
        /// The parser's message.
        message: String,
    },
    /// The query or view definition mentions a symbol outside the database
    /// domain.
    UnknownLabel {
        /// The offending symbol name.
        label: String,
    },
    /// A node name did not resolve.
    UnknownNode {
        /// The offending name.
        name: String,
    },
    /// An edge endpoint id does not exist.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Current node count of the database.
        num_nodes: usize,
    },
    /// A removal batch listed more occurrences of an edge than the
    /// multigraph holds.  Reported for the whole batch before anything
    /// mutates (validate-before-mutate).
    EdgeNotPresent {
        /// Source node of the missing edge.
        from: NodeId,
        /// Label of the missing edge (rendered).
        label: String,
        /// Target node of the missing edge.
        to: NodeId,
        /// Occurrences the batch asked to remove.
        requested: usize,
        /// Occurrences actually present.
        present: usize,
    },
    /// An automaton was evaluated over an incompatible alphabet.
    IncompatibleAlphabet {
        /// What was incompatible.
        message: String,
    },
    /// The query's wall-clock deadline passed mid-evaluation.
    DeadlineExceeded {
        /// Product pairs visited before the interrupt (partial-work stat).
        visited: u64,
    },
    /// The query's visited-pair cap was reached.
    VisitBudgetExceeded {
        /// Product pairs visited before the interrupt.
        visited: u64,
    },
    /// An [`crate::EngineConfig`] failed validation.
    InvalidConfig {
        /// Which knob was rejected and why.
        message: String,
    },
}

impl EngineError {
    /// Stable machine-readable code for the wire protocol (`error.code` in
    /// the service's JSON responses).
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::Parse { .. } => "parse_error",
            EngineError::UnknownLabel { .. } => "unknown_label",
            EngineError::UnknownNode { .. } => "unknown_node",
            EngineError::NodeOutOfRange { .. } => "node_out_of_range",
            EngineError::EdgeNotPresent { .. } => "edge_not_present",
            EngineError::IncompatibleAlphabet { .. } => "incompatible_alphabet",
            EngineError::DeadlineExceeded { .. } => "deadline_exceeded",
            EngineError::VisitBudgetExceeded { .. } => "visit_budget_exceeded",
            EngineError::InvalidConfig { .. } => "invalid_config",
        }
    }

    /// Whether this error is a cooperative budget interrupt (the request was
    /// well-formed; it just ran out of budget) rather than a bad input.
    pub fn is_budget_interrupt(&self) -> bool {
        matches!(
            self,
            EngineError::DeadlineExceeded { .. } | EngineError::VisitBudgetExceeded { .. }
        )
    }

    /// Maps a sweep interrupt plus its partial-work count to the
    /// corresponding error variant.
    pub(crate) fn from_interrupt(interrupt: SweepInterrupt, visited: u64) -> Self {
        match interrupt {
            SweepInterrupt::DeadlineExceeded => EngineError::DeadlineExceeded { visited },
            SweepInterrupt::VisitLimit => EngineError::VisitBudgetExceeded { visited },
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse { message } => write!(f, "query must parse: {message}"),
            EngineError::UnknownLabel { label } => {
                write!(
                    f,
                    "query mentions `{label}` which is not a label of the database domain"
                )
            }
            EngineError::UnknownNode { name } => write!(f, "no node named `{name}`"),
            EngineError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (database has {num_nodes} node(s))")
            }
            EngineError::EdgeNotPresent {
                from,
                label,
                to,
                requested,
                present,
            } => {
                write!(
                    f,
                    "edge {from} -{label}-> {to} is not present \
                     ({requested} removal(s) requested, {present} present)"
                )
            }
            EngineError::IncompatibleAlphabet { message } => {
                write!(f, "incompatible alphabet: {message}")
            }
            EngineError::DeadlineExceeded { visited } => {
                write!(f, "deadline exceeded after visiting {visited} product pair(s)")
            }
            EngineError::VisitBudgetExceeded { visited } => {
                write!(f, "visit budget exceeded after {visited} product pair(s)")
            }
            EngineError::InvalidConfig { message } => {
                write!(f, "invalid engine config: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<GraphError> for EngineError {
    fn from(err: GraphError) -> Self {
        match err {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                EngineError::NodeOutOfRange { node, num_nodes }
            }
            GraphError::LabelOutOfDomain { label, .. } => EngineError::UnknownLabel {
                // GraphError renders names as `name`; strip for the bare label.
                label: label.trim_matches('`').to_string(),
            },
            GraphError::UnknownNode { name } => EngineError::UnknownNode { name },
        }
    }
}

impl From<regexlang::ParseError> for EngineError {
    fn from(err: regexlang::ParseError) -> Self {
        EngineError::Parse {
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_the_historical_panic_substrings() {
        let cases = [
            (
                EngineError::UnknownLabel { label: "zz".into() },
                "not a label",
            ),
            (
                EngineError::UnknownNode { name: "ghost".into() },
                "no node named `ghost`",
            ),
            (
                EngineError::NodeOutOfRange { node: 9, num_nodes: 3 },
                "out of range",
            ),
            (
                EngineError::EdgeNotPresent {
                    from: 0,
                    label: "a".into(),
                    to: 1,
                    requested: 2,
                    present: 1,
                },
                "is not present",
            ),
        ];
        for (err, substring) in cases {
            assert!(
                err.to_string().contains(substring),
                "{err} must contain {substring:?}"
            );
        }
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let errs = [
            EngineError::Parse { message: String::new() },
            EngineError::UnknownLabel { label: String::new() },
            EngineError::UnknownNode { name: String::new() },
            EngineError::NodeOutOfRange { node: 0, num_nodes: 0 },
            EngineError::EdgeNotPresent {
                from: 0,
                label: String::new(),
                to: 0,
                requested: 0,
                present: 0,
            },
            EngineError::IncompatibleAlphabet { message: String::new() },
            EngineError::DeadlineExceeded { visited: 0 },
            EngineError::VisitBudgetExceeded { visited: 0 },
            EngineError::InvalidConfig { message: String::new() },
        ];
        let codes: std::collections::BTreeSet<&str> = errs.iter().map(|e| e.code()).collect();
        assert_eq!(codes.len(), errs.len(), "codes must be distinct");
        assert!(errs[6].is_budget_interrupt());
        assert!(!errs[0].is_budget_interrupt());
    }

    #[test]
    fn graph_errors_map_onto_engine_variants() {
        let err: EngineError = GraphError::LabelOutOfDomain {
            label: "`train`".into(),
            domain: "{a}".into(),
        }
        .into();
        assert_eq!(err, EngineError::UnknownLabel { label: "train".into() });
        let err: EngineError = GraphError::UnknownNode { name: "x".into() }.into();
        assert_eq!(err.code(), "unknown_node");
    }
}
