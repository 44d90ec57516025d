//! The seed's tree RPQ evaluator and its answer representation, the oracle
//! for `graphdb`'s dense kernels ([`graphdb::eval_csr`] and the lane and
//! point kernels behind it).

use std::collections::{BTreeSet, VecDeque};

use automata::{Nfa, StateId};
use graphdb::{GraphDb, NodeId};

use crate::nfa::{epsilon_closure, start_configuration};

/// The seed's answer representation: the property suites evaluate each query
/// through both representations and require identical pair sets.
pub type AnswerSet = BTreeSet<(NodeId, NodeId)>;

/// The seed's tree-based evaluator: one BFS per source over `BTreeSet`
/// visited `(node, state)` pairs, recomputing a singleton ε-closure per
/// edge.
pub fn eval_automaton_baseline(db: &GraphDb, query: &Nfa) -> AnswerSet {
    db.domain()
        .check_compatible(query.alphabet())
        .expect("query automaton must be over the database domain");
    let mut answer = AnswerSet::new();
    let start_config = start_configuration(query);
    let accepts_here = |states: &BTreeSet<StateId>| states.iter().any(|&s| query.is_final(s));

    for source in db.nodes() {
        // BFS over product states (node, nfa state); we track visited pairs.
        let mut seen: BTreeSet<(NodeId, StateId)> = BTreeSet::new();
        let mut queue: VecDeque<(NodeId, StateId)> = VecDeque::new();
        for &q in &start_config {
            if seen.insert((source, q)) {
                queue.push_back((source, q));
            }
        }
        if accepts_here(&start_config) {
            answer.insert((source, source));
        }
        while let Some((node, state)) = queue.pop_front() {
            for (label, next_node) in db.edges_from(node) {
                for next_state in query.successors(state, label) {
                    // Close under ε so acceptance is detected promptly.
                    let closure = epsilon_closure(query, &BTreeSet::from([next_state]));
                    for &q in &closure {
                        if seen.insert((next_node, q)) {
                            queue.push_back((next_node, q));
                            if query.is_final(q) {
                                answer.insert((source, next_node));
                            }
                        } else if query.is_final(q) {
                            answer.insert((source, next_node));
                        }
                    }
                }
            }
        }
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Alphabet;
    use automata::DenseNfa;
    use graphdb::{eval_csr, random_graph, RandomGraphConfig};

    fn abc_domain() -> Alphabet {
        Alphabet::from_chars(['a', 'b', 'c']).unwrap()
    }

    #[test]
    fn differential_sorted_pairs_vs_btreeset_on_random_cases() {
        // The SortedPairs-backed evaluator must agree, pair for pair, with
        // the seed's BTreeSet-based baseline on hundreds of random
        // (graph, query) cases.
        let queries = [
            "a",
            "a·b",
            "a·(b·a+c)*",
            "c*",
            "(a+b)*·c",
            "ε",
            "∅",
            "a+b·c?",
            "(a+b+c)*",
            "a?·b*",
        ];
        let mut cases = 0usize;
        for seed in 0..7u64 {
            for &(nodes, edges) in &[(5usize, 12usize), (17, 60), (33, 140)] {
                let cfg = RandomGraphConfig {
                    num_nodes: nodes,
                    num_edges: edges,
                };
                let db = random_graph(&abc_domain(), &cfg, seed);
                for q in queries {
                    let nfa = regexlang::thompson(&regexlang::parse(q).unwrap(), db.domain()).unwrap();
                    let new_path = eval_csr(&db.csr_out(), &DenseNfa::from_nfa(&nfa).trim());
                    let old_path = eval_automaton_baseline(&db, &nfa);
                    let as_set: AnswerSet = new_path.iter().copied().collect();
                    assert_eq!(as_set, old_path, "seed {seed} v{nodes} q {q}");
                    assert_eq!(new_path.len(), old_path.len());
                    cases += 1;
                }
            }
        }
        assert!(cases >= 200, "differential must cover 200+ cases, ran {cases}");
    }
}
