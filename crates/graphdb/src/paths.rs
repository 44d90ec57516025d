//! Witness paths: for an answer pair `(x, y)` of a regular path query,
//! reconstruct a concrete database path whose label word conforms to the
//! query.
//!
//! The rewriting machinery only needs the boolean answer relation, but
//! examples and debugging benefit from seeing *why* a pair is in the answer;
//! integration tests also use witnesses to cross-validate the product-BFS
//! evaluator against a path-level definition of the semantics.

use std::collections::{BTreeSet, VecDeque};

use automata::{Nfa, StateId, Symbol};
use regexlang::Regex;

use crate::eval::query_dense;
use crate::graph::{GraphDb, NodeId};

/// A concrete path in the database: the visited nodes and the labels of the
/// traversed edges (`nodes.len() == labels.len() + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathWitness {
    /// The sequence of visited nodes, starting at the source.
    pub nodes: Vec<NodeId>,
    /// The labels of the traversed edges.
    pub labels: Vec<Symbol>,
}

impl PathWitness {
    /// Length of the path in edges.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the path has no edges (source equals target).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Renders the path as `n0 --a--> n1 --b--> n2`.
    pub fn render(&self, db: &GraphDb) -> String {
        let mut out = db.render_node(self.nodes[0]);
        for (i, &label) in self.labels.iter().enumerate() {
            out.push_str(&format!(
                " --{}--> {}",
                db.domain().name(label),
                db.render_node(self.nodes[i + 1])
            ));
        }
        out
    }
}

/// Finds a shortest witness path from `source` to `target` whose label word
/// is accepted by `query`, if one exists.
pub fn witness_automaton(
    db: &GraphDb,
    query: &Nfa,
    source: NodeId,
    target: NodeId,
) -> Option<PathWitness> {
    db.domain()
        .check_compatible(query.alphabet())
        .expect("query automaton must be over the database domain");
    // BFS over (node, ε-closed query state) product configurations, tracking
    // predecessors for reconstruction.
    type Config = (NodeId, StateId);
    let mut pred: std::collections::BTreeMap<Config, (Config, Symbol)> =
        std::collections::BTreeMap::new();
    let mut seen: BTreeSet<Config> = BTreeSet::new();
    let mut queue: VecDeque<Config> = VecDeque::new();

    let start_states = query.start_configuration();
    for &q in &start_states {
        let cfg = (source, q);
        if seen.insert(cfg) {
            queue.push_back(cfg);
        }
        if q == *start_states.iter().next().unwrap() {
            // no-op: predecessors of start configs stay absent
        }
    }
    // Immediate acceptance: empty path.
    if source == target && start_states.iter().any(|&q| query.is_final(q)) {
        return Some(PathWitness {
            nodes: vec![source],
            labels: vec![],
        });
    }

    let mut goal: Option<Config> = None;
    'bfs: while let Some((node, state)) = queue.pop_front() {
        for (label, next_node) in db.edges_from(node) {
            for next_state in query.successors(state, label) {
                let closure = query.epsilon_closure(&BTreeSet::from([next_state]));
                for &q in &closure {
                    let cfg = (next_node, q);
                    if seen.insert(cfg) {
                        pred.insert(cfg, ((node, state), label));
                        if next_node == target && query.is_final(q) {
                            goal = Some(cfg);
                            break 'bfs;
                        }
                        queue.push_back(cfg);
                    }
                }
            }
        }
    }

    let goal = goal?;
    let mut nodes = vec![goal.0];
    let mut labels = Vec::new();
    let mut cur = goal;
    while let Some(&(prev, label)) = pred.get(&cur) {
        labels.push(label);
        nodes.push(prev.0);
        cur = prev;
    }
    nodes.reverse();
    labels.reverse();
    // Deduplicate consecutive repeated nodes caused by ε-closure bookkeeping:
    // the reconstruction above already records one node per edge, so lengths
    // line up by construction.
    debug_assert_eq!(nodes.len(), labels.len() + 1);
    Some(PathWitness { nodes, labels })
}

/// Finds a shortest witness path for a regex-form query.
pub fn witness_regex(
    db: &GraphDb,
    query: &Regex,
    source: NodeId,
    target: NodeId,
) -> Option<PathWitness> {
    witness_automaton(db, &query_dense(db.domain(), query).to_nfa(), source, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_str;
    use automata::Alphabet;

    fn chain_db() -> GraphDb {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
        db.add_edge_named("n0", "a", "n1");
        db.add_edge_named("n1", "b", "n2");
        db.add_edge_named("n2", "a", "n1");
        db.add_edge_named("n1", "c", "n1");
        db
    }

    #[test]
    fn witnesses_exist_exactly_for_answer_pairs() {
        let db = chain_db();
        let query = regexlang::parse("a·(b·a+c)*").unwrap();
        let answer = eval_str(&db, "a·(b·a+c)*");
        for x in db.nodes() {
            for y in db.nodes() {
                let witness = witness_regex(&db, &query, x, y);
                assert_eq!(
                    witness.is_some(),
                    answer.contains(&(x, y)),
                    "witness/answer mismatch for ({x},{y})"
                );
                if let Some(w) = witness {
                    // The witness must be a real path of the database.
                    assert_eq!(w.nodes[0], x);
                    assert_eq!(*w.nodes.last().unwrap(), y);
                    for (i, &label) in w.labels.iter().enumerate() {
                        assert!(
                            db.successors(w.nodes[i], label).any(|t| t == w.nodes[i + 1]),
                            "edge {} missing in the database",
                            i
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn witness_is_shortest() {
        let db = chain_db();
        let n0 = db.node_by_name("n0").unwrap();
        let n1 = db.node_by_name("n1").unwrap();
        let w = witness_regex(&db, &regexlang::parse("a·(b·a+c)*").unwrap(), n0, n1).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.render(&db), "n0 --a--> n1");
    }

    #[test]
    fn empty_word_witness_for_reflexive_answers() {
        let db = chain_db();
        let n2 = db.node_by_name("n2").unwrap();
        let w = witness_regex(&db, &regexlang::parse("c*").unwrap(), n2, n2).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.nodes, vec![n2]);
    }

    #[test]
    fn no_witness_for_unreachable_pairs() {
        let db = chain_db();
        let n2 = db.node_by_name("n2").unwrap();
        let n0 = db.node_by_name("n0").unwrap();
        assert!(witness_regex(&db, &regexlang::parse("a").unwrap(), n2, n0).is_none());
    }
}
