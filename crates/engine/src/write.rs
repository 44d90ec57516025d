//! The write path's request value, the counterpart of [`crate::read`]: every
//! change to what the engine holds — the database whose view extensions
//! (Definition 4.3) it keeps current, or the view set itself — is one
//! [`WriteRequest`], executed by [`crate::QueryEngine::try_apply`].

use std::ops::Range;

use automata::Symbol;
use graphdb::NodeId;
use regexlang::Regex;
use telemetry::TraceContext;

use crate::budget::QueryBudget;

/// What a [`WriteRequest`] changes.  An edge batch is validated whole and
/// applied under one revision bump; an empty one is a no-op.
#[derive(Debug, Clone, Copy)]
pub enum Mutation<'a> {
    /// Insert `(from, label, to)` edges between existing nodes.
    AddEdges(&'a [(NodeId, Symbol, NodeId)]),
    /// Insert edges between named nodes, creating the nodes on demand.
    AddEdgesNamed(&'a [(&'a str, &'a str, &'a str)]),
    /// Remove one occurrence of each listed edge; a triple listed twice
    /// removes two parallel copies.
    RemoveEdges(&'a [(NodeId, Symbol, NodeId)]),
    /// [`RemoveEdges`](Self::RemoveEdges) between named nodes.
    RemoveEdgesNamed(&'a [(&'a str, &'a str, &'a str)]),
    /// Add one isolated node.
    AddNode,
    /// Register (or replace) a named view.  The same definition under the
    /// same name keeps the cached extension; a changed one drops it.
    RegisterView {
        /// The view's name (its symbol in the view alphabet).
        name: &'a str,
        /// Its definition over the database's labels.
        definition: &'a Regex,
    },
}

/// One write against the engine: [`new`](Self::new) (unlimited budget,
/// untraced) refined with [`budget`](Self::budget) / [`traced`](Self::traced),
/// like a [`crate::ReadRequest`].
///
/// ```
/// use engine::{Mutation, QueryBudget, QueryEngine, WriteRequest};
/// # let db = graphdb::GraphDb::new(automata::Alphabet::from_chars(['a']).unwrap());
/// let mut engine = QueryEngine::new(db);
/// let request = WriteRequest::new(Mutation::AddEdgesNamed(&[("u", "a", "v"), ("v", "a", "w")]))
///     .budget(QueryBudget::unlimited().max_visited(1_000));
/// let outcome = engine.try_apply(&request).unwrap();
/// assert_eq!((outcome.revision, outcome.num_nodes, outcome.created), (1, 3, 0..3));
/// ```
#[derive(Debug, Clone)]
pub struct WriteRequest<'a> {
    /// The change.
    pub mutation: Mutation<'a>,
    /// Limits on the *repair* of the cached view extensions: the time-like
    /// ones are polled per edge and every sweep charges its visits.  A
    /// validated mutation always applies; a limit tripped mid-repair drops
    /// the affected views' extensions (`repair_budget_drops`) — they
    /// re-materialize on next use — instead of failing the call.
    pub budget: QueryBudget,
    /// When set, every step records a span into it: top-level `validate`,
    /// `csr_freeze` and `repair` (non-overlapping; together they account for
    /// the call) and, inside `repair`, per view — `worker` is the view's
    /// index — `delta_backward`, `delta_forward`, `rederive` and `splice`.
    pub trace: Option<&'a TraceContext>,
}

impl<'a> WriteRequest<'a> {
    /// `mutation`, unbudgeted and untraced.
    pub fn new(mutation: Mutation<'a>) -> Self {
        WriteRequest { mutation, budget: QueryBudget::unlimited(), trace: None }
    }

    /// Replaces the (unlimited) repair budget.
    pub fn budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a trace.
    pub fn traced(mut self, trace: &'a TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// The engine's state after an applied [`WriteRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The database revision: bumped once by a mutation that changed the
    /// graph, left alone by a view registration.
    pub revision: u64,
    /// The number of nodes.
    pub num_nodes: usize,
    /// The node ids the mutation created.
    pub created: Range<NodeId>,
}
