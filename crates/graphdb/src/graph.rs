//! Edge-labeled graph databases (the semi-structured data model of §4.1).
//!
//! Following \[BDFS97\] as the paper does, a database is a graph whose edges
//! are labeled by elements of a finite domain `D`; nodes are plain objects.
//! We additionally allow naming nodes for readability in examples (the
//! paper's web-site / digital-library motivation), but all algorithms work on
//! dense integer node ids.

use std::collections::BTreeMap;

use automata::{Alphabet, Symbol};

/// Identifier of a node within a [`GraphDb`].
pub type NodeId = usize;

/// Structured failure of a graph operation on user-supplied input.
///
/// The `Display` strings keep the wording of the historical panic messages
/// ("out of range", "not in domain"), so the panicking convenience methods —
/// which now delegate to the fallible ones — behave byte-for-byte as before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint does not exist.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Current node count of the database.
        num_nodes: usize,
    },
    /// A label (by symbol or by name) is not part of the database domain.
    LabelOutOfDomain {
        /// The offending label, rendered.
        label: String,
        /// The database domain, rendered.
        domain: String,
    },
    /// A node name did not resolve.
    UnknownNode {
        /// The offending name.
        name: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (database has {num_nodes} node(s))")
            }
            GraphError::LabelOutOfDomain { label, domain } => {
                write!(f, "label {label} not in domain {domain}")
            }
            GraphError::UnknownNode { name } => write!(f, "no node named `{name}`"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed edge `from --label--> to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Edge label (a constant of the domain `D`).
    pub label: Symbol,
    /// Target node.
    pub to: NodeId,
}

/// An edge-labeled graph database over a finite label domain `D`.
#[derive(Debug, Clone)]
pub struct GraphDb {
    domain: Alphabet,
    node_names: Vec<Option<String>>,
    named: BTreeMap<String, NodeId>,
    /// Outgoing adjacency: `out[v]` lists `(label, target)` pairs.
    out: Vec<Vec<(Symbol, NodeId)>>,
    /// Incoming adjacency: `inc[v]` lists `(label, source)` pairs.
    inc: Vec<Vec<(Symbol, NodeId)>>,
    num_edges: usize,
}

impl GraphDb {
    /// Creates an empty database over the given label domain.
    pub fn new(domain: Alphabet) -> Self {
        Self {
            domain,
            node_names: Vec::new(),
            named: BTreeMap::new(),
            out: Vec::new(),
            inc: Vec::new(),
            num_edges: 0,
        }
    }

    /// The label domain `D`.
    pub fn domain(&self) -> &Alphabet {
        &self.domain
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.out.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adds an anonymous node.
    pub fn add_node(&mut self) -> NodeId {
        self.node_names.push(None);
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        self.out.len() - 1
    }

    /// Adds (or returns) a node with the given name.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.named.get(name) {
            return id;
        }
        let id = self.add_node();
        self.node_names[id] = Some(name.to_string());
        self.named.insert(name.to_string(), id);
        id
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.named.get(name).copied()
    }

    /// The name of a node, if it was created with one.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.node_names.get(id).and_then(|n| n.as_deref())
    }

    /// Adds a labeled edge between existing nodes.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the label is not in the
    /// domain; [`check_edge_parts`](Self::check_edge_parts) validates
    /// untrusted input first.
    pub fn add_edge(&mut self, from: NodeId, label: Symbol, to: NodeId) {
        if let Err(e) = self.check_edge_parts(from, label, to) {
            panic!("{e}");
        }
        self.out[from].push((label, to));
        self.inc[to].push((label, from));
        self.num_edges += 1;
    }

    /// Validates an edge triple without mutating: both endpoints in range,
    /// label in the domain.  Batch mutators call this over the whole batch
    /// before applying anything (validate-before-mutate).
    pub fn check_edge_parts(
        &self,
        from: NodeId,
        label: Symbol,
        to: NodeId,
    ) -> Result<(), GraphError> {
        let num_nodes = self.num_nodes();
        let node = if from >= num_nodes {
            Some(from)
        } else if to >= num_nodes {
            Some(to)
        } else {
            None
        };
        if let Some(node) = node {
            return Err(GraphError::NodeOutOfRange { node, num_nodes });
        }
        if label.index() >= self.domain.len() {
            return Err(GraphError::LabelOutOfDomain {
                label: label.to_string(),
                domain: self.domain.render(),
            });
        }
        Ok(())
    }

    /// Resolves a label name, or reports [`GraphError::LabelOutOfDomain`].
    pub fn require_label(&self, name: &str) -> Result<Symbol, GraphError> {
        self.domain.symbol(name).ok_or_else(|| GraphError::LabelOutOfDomain {
            label: format!("`{name}`"),
            domain: self.domain.render(),
        })
    }

    /// Resolves an existing node name, or reports [`GraphError::UnknownNode`]
    /// (unlike [`node`](Self::node), which creates missing nodes).
    pub fn require_node(&self, name: &str) -> Result<NodeId, GraphError> {
        self.node_by_name(name)
            .ok_or_else(|| GraphError::UnknownNode { name: name.to_string() })
    }

    /// Adds an edge between named nodes using a label name, creating the
    /// nodes on demand.
    pub fn add_edge_named(&mut self, from: &str, label: &str, to: &str) {
        let label = self.require_label(label).unwrap_or_else(|e| panic!("{e}"));
        let from = self.node(from);
        let to = self.node(to);
        self.add_edge(from, label, to);
    }

    /// Removes **one occurrence** of the edge `from --label--> to`, returning
    /// whether an occurrence existed.  On a multigraph with parallel copies
    /// of the edge, only one copy is removed per call; nodes are never
    /// removed (a node left without edges simply becomes isolated).
    ///
    /// Adjacency lists are patched in place (swap-remove on both the
    /// outgoing and the incoming list), so removal is `O(degree)`; frozen
    /// [`CsrAdjacency`] views are immutable and must be re-frozen by the
    /// caller — the `engine` crate does this under its revision bump.
    pub fn remove_edge(&mut self, from: NodeId, label: Symbol, to: NodeId) -> bool {
        let Some(out_idx) = self
            .out
            .get(from)
            .and_then(|edges| edges.iter().position(|&e| e == (label, to)))
        else {
            return false;
        };
        self.out[from].swap_remove(out_idx);
        let inc_idx = self.inc[to]
            .iter()
            .position(|&e| e == (label, from))
            .expect("incoming list mirrors outgoing list");
        self.inc[to].swap_remove(inc_idx);
        self.num_edges -= 1;
        true
    }

    /// Removes one occurrence of an edge between named nodes using a label
    /// name, returning whether it existed (unknown node or label names
    /// simply report `false`).
    pub fn remove_edge_named(&mut self, from: &str, label: &str, to: &str) -> bool {
        let (Some(label), Some(from), Some(to)) = (
            self.domain.symbol(label),
            self.node_by_name(from),
            self.node_by_name(to),
        ) else {
            return false;
        };
        self.remove_edge(from, label, to)
    }

    /// Number of parallel copies of the edge `from --label--> to` currently
    /// present.  The delta-maintenance fast path of the `engine` crate uses
    /// this as a support count: deleting one copy of an edge whose
    /// multiplicity stays positive cannot change any RPQ answer.
    pub fn edge_multiplicity(&self, from: NodeId, label: Symbol, to: NodeId) -> usize {
        self.out
            .get(from)
            .map_or(0, |edges| edges.iter().filter(|&&e| e == (label, to)).count())
    }

    /// Outgoing edges of a node.
    pub fn edges_from(&self, node: NodeId) -> impl Iterator<Item = (Symbol, NodeId)> + '_ {
        self.out[node].iter().copied()
    }

    /// Outgoing edges of a node restricted to one label.
    pub fn successors(&self, node: NodeId, label: Symbol) -> impl Iterator<Item = NodeId> + '_ {
        self.out[node]
            .iter()
            .filter(move |&&(l, _)| l == label)
            .map(|&(_, t)| t)
    }

    /// All edges of the database.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out.iter().enumerate().flat_map(|(from, edges)| {
            edges.iter().map(move |&(label, to)| Edge { from, label, to })
        })
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes()
    }

    /// Renders a node for error messages and reports: its name when it has
    /// one, otherwise `#id`.
    pub(crate) fn render_node(&self, id: NodeId) -> String {
        match self.node_name(id) {
            Some(name) => name.to_string(),
            None => format!("#{id}"),
        }
    }

    /// Compact description of the database.
    pub fn describe(&self) -> String {
        format!(
            "GraphDb(nodes={}, edges={}, domain={})",
            self.num_nodes(),
            self.num_edges(),
            self.domain.render()
        )
    }

    /// Freezes the outgoing adjacency into a CSR layout for traversal-heavy
    /// algorithms (one flat `(label, target)` array plus a per-node offset
    /// index).  The RPQ evaluator builds this once per query instead of
    /// chasing per-node `Vec`s during every product-BFS.
    pub fn csr_out(&self) -> CsrAdjacency {
        Self::freeze_lists(&self.domain, &self.out, self.num_edges)
    }

    /// Freezes the *incoming* adjacency into the same CSR layout:
    /// `edges_from(v)` on the result yields `(label, source)` pairs, i.e. the
    /// edges *entering* `v`.  Backward traversals (the delta maintenance of
    /// the `engine` crate) walk this instead of scanning every edge.
    pub fn csr_in(&self) -> CsrAdjacency {
        Self::freeze_lists(&self.domain, &self.inc, self.num_edges)
    }

    fn freeze_lists(
        domain: &Alphabet,
        lists: &[Vec<(Symbol, NodeId)>],
        num_edges: usize,
    ) -> CsrAdjacency {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut labels = Vec::with_capacity(num_edges);
        let mut targets = Vec::with_capacity(num_edges);
        offsets.push(0u32);
        for edges in lists {
            for &(label, to) in edges {
                labels.push(label.0);
                targets.push(to as u32);
            }
            offsets.push(labels.len() as u32);
        }
        CsrAdjacency {
            domain: domain.clone(),
            offsets,
            labels,
            targets,
        }
    }
}

/// Frozen outgoing adjacency of a [`GraphDb`] in CSR layout.
///
/// Edge `i` of node `v` has label index `labels[offsets[v] + i]` and target
/// `targets[offsets[v] + i]`; labels are raw [`Symbol`] indices into the
/// database domain, which travels along so evaluators can check query
/// compatibility against the frozen adjacency alone.
#[derive(Debug, Clone)]
pub struct CsrAdjacency {
    domain: Alphabet,
    offsets: Vec<u32>,
    labels: Vec<u32>,
    targets: Vec<u32>,
}

impl CsrAdjacency {
    /// Lays `(node, label index, neighbour)` triples out as a CSR adjacency
    /// over nodes `0..num_nodes` by counting sort on `node`: two passes over
    /// `edges`, no intermediate graph.  Within a node, edges keep the order
    /// they are yielded in.  Passing `(source, label, target)` gives an
    /// outgoing adjacency, `(target, label, source)` an incoming one.
    ///
    /// # Panics
    /// Panics if a node id is `≥ num_nodes` or a label index is not a symbol
    /// of `domain`.
    pub fn from_edges(
        domain: Alphabet,
        num_nodes: usize,
        edges: impl Iterator<Item = (u32, u32, u32)> + Clone,
    ) -> Self {
        let mut offsets = vec![0u32; num_nodes + 1];
        for (node, label, neighbour) in edges.clone() {
            assert!(
                (node as usize) < num_nodes && (neighbour as usize) < num_nodes,
                "edge ({node}, {neighbour}) mentions a node outside 0..{num_nodes}"
            );
            assert!((label as usize) < domain.len(), "label index {label} outside the domain");
            offsets[node as usize + 1] += 1;
        }
        for node in 0..num_nodes {
            offsets[node + 1] += offsets[node];
        }
        let mut cursor = offsets.clone();
        let mut labels = vec![0u32; offsets[num_nodes] as usize];
        let mut targets = labels.clone();
        for (node, label, neighbour) in edges {
            let slot = &mut cursor[node as usize];
            labels[*slot as usize] = label;
            targets[*slot as usize] = neighbour;
            *slot += 1;
        }
        CsrAdjacency { domain, offsets, labels, targets }
    }

    /// The label domain of the database this adjacency was frozen from.
    pub fn domain(&self) -> &Alphabet {
        &self.domain
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (rows of the CSR).
    pub fn num_edges(&self) -> usize {
        self.labels.len()
    }

    /// Out-degree of `node` — the cost proxy the parallel scheduler uses to
    /// build frontier-mass-weighted chunks.
    #[inline]
    pub fn out_degree(&self, node: u32) -> u32 {
        self.offsets[node as usize + 1] - self.offsets[node as usize]
    }

    /// The `(label index, target)` pairs leaving `node`.
    #[inline]
    pub fn edges_from(&self, node: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.offsets[node as usize] as usize;
        let hi = self.offsets[node as usize + 1] as usize;
        self.labels[lo..hi]
            .iter()
            .copied()
            .zip(self.targets[lo..hi].iter().copied())
    }
}

#[cfg(test)]
impl GraphDb {
    /// Incoming edges of a node as `(label, source)` pairs.
    pub(crate) fn edges_to(&self, node: NodeId) -> impl Iterator<Item = (Symbol, NodeId)> + '_ {
        self.inc[node].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city_domain() -> Alphabet {
        Alphabet::from_names(["rome", "jerusalem", "flight", "restaurant"]).unwrap()
    }

    #[test]
    fn builds_nodes_and_edges() {
        let mut db = GraphDb::new(city_domain());
        db.add_edge_named("start", "rome", "city");
        db.add_edge_named("city", "restaurant", "place");
        assert_eq!(db.num_nodes(), 3);
        assert_eq!(db.num_edges(), 2);
        let start = db.node_by_name("start").unwrap();
        let city = db.node_by_name("city").unwrap();
        let rome = db.domain().symbol("rome").unwrap();
        assert_eq!(db.successors(start, rome).collect::<Vec<_>>(), vec![city]);
        assert_eq!(db.edges_to(city).count(), 1);
        assert_eq!(db.render_node(start), "start");
    }

    #[test]
    fn named_nodes_are_reused() {
        let mut db = GraphDb::new(city_domain());
        let a = db.node("x");
        let b = db.node("x");
        assert_eq!(a, b);
        assert_eq!(db.num_nodes(), 1);
        let anon = db.add_node();
        assert_eq!(db.node_name(anon), None);
        assert_eq!(db.render_node(anon), "#1");
    }

    #[test]
    #[should_panic(expected = "not in domain")]
    fn unknown_labels_panic() {
        let mut db = GraphDb::new(city_domain());
        db.add_edge_named("a", "train", "b");
    }

    #[test]
    fn edge_iteration_and_used_labels() {
        let mut db = GraphDb::new(city_domain());
        db.add_edge_named("a", "flight", "b");
        db.add_edge_named("b", "flight", "c");
        db.add_edge_named("c", "restaurant", "a");
        assert_eq!(db.edges().count(), 3);
        let labels: std::collections::BTreeSet<_> = db.edges().map(|e| e.label).collect();
        assert_eq!(labels.len(), 2);
        assert!(db.describe().contains("nodes=3"));
    }

    #[test]
    fn csr_out_mirrors_adjacency_lists() {
        let mut db = GraphDb::new(city_domain());
        db.add_edge_named("a", "flight", "b");
        db.add_edge_named("a", "rome", "c");
        db.add_edge_named("b", "flight", "c");
        let csr = db.csr_out();
        assert_eq!(csr.num_nodes(), db.num_nodes());
        for v in db.nodes() {
            let direct: Vec<(u32, u32)> = db
                .edges_from(v)
                .map(|(label, to)| (label.0, to as u32))
                .collect();
            let frozen: Vec<(u32, u32)> = csr.edges_from(v as u32).collect();
            assert_eq!(direct, frozen, "node {v}");
        }
    }

    #[test]
    fn csr_in_mirrors_incoming_lists() {
        let mut db = GraphDb::new(city_domain());
        db.add_edge_named("a", "flight", "b");
        db.add_edge_named("c", "rome", "b");
        db.add_edge_named("b", "flight", "a");
        let csr = db.csr_in();
        assert_eq!(csr.num_nodes(), db.num_nodes());
        for v in db.nodes() {
            let direct: Vec<(u32, u32)> = db
                .edges_to(v)
                .map(|(label, from)| (label.0, from as u32))
                .collect();
            let frozen: Vec<(u32, u32)> = csr.edges_from(v as u32).collect();
            assert_eq!(direct, frozen, "node {v}");
        }
    }

    #[test]
    fn remove_edge_deletes_exactly_one_occurrence() {
        let mut db = GraphDb::new(city_domain());
        db.add_edge_named("a", "flight", "b");
        db.add_edge_named("a", "flight", "b");
        db.add_edge_named("b", "flight", "a");
        let (a, b) = (db.node_by_name("a").unwrap(), db.node_by_name("b").unwrap());
        let flight = db.domain().symbol("flight").unwrap();
        assert_eq!(db.edge_multiplicity(a, flight, b), 2);

        assert!(db.remove_edge(a, flight, b));
        assert_eq!(db.num_edges(), 2);
        assert_eq!(db.edge_multiplicity(a, flight, b), 1);
        // Both adjacency directions were patched.
        assert_eq!(db.edges_from(a).count(), 1);
        assert_eq!(db.edges_to(b).count(), 1);

        assert!(db.remove_edge(a, flight, b));
        assert_eq!(db.edge_multiplicity(a, flight, b), 0);
        // Nothing left to remove: reported, not panicked.
        assert!(!db.remove_edge(a, flight, b));
        assert_eq!(db.num_edges(), 1);
        // Nodes survive edge removal.
        assert_eq!(db.num_nodes(), 2);
    }

    #[test]
    fn remove_edge_named_reports_unknown_names() {
        let mut db = GraphDb::new(city_domain());
        db.add_edge_named("a", "flight", "b");
        assert!(!db.remove_edge_named("a", "flight", "zz"));
        assert!(!db.remove_edge_named("a", "train", "b"));
        assert!(db.remove_edge_named("a", "flight", "b"));
        assert_eq!(db.num_edges(), 0);
    }

    #[test]
    fn csr_freezes_track_removal() {
        let mut db = GraphDb::new(city_domain());
        db.add_edge_named("a", "flight", "b");
        db.add_edge_named("b", "rome", "c");
        db.add_edge_named("c", "flight", "a");
        assert!(db.remove_edge_named("b", "rome", "c"));
        let (csr_out, csr_in) = (db.csr_out(), db.csr_in());
        for v in db.nodes() {
            let direct_out: Vec<(u32, u32)> =
                db.edges_from(v).map(|(l, t)| (l.0, t as u32)).collect();
            assert_eq!(direct_out, csr_out.edges_from(v as u32).collect::<Vec<_>>());
            let direct_in: Vec<(u32, u32)> =
                db.edges_to(v).map(|(l, f)| (l.0, f as u32)).collect();
            assert_eq!(direct_in, csr_in.edges_from(v as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn multi_edges_and_self_loops_are_allowed() {
        let mut db = GraphDb::new(city_domain());
        db.add_edge_named("a", "flight", "a");
        db.add_edge_named("a", "flight", "a");
        assert_eq!(db.num_edges(), 2);
        let a = db.node_by_name("a").unwrap();
        assert_eq!(db.edges_from(a).count(), 2);
    }
}
