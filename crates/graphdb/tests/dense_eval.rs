//! Differential tests: the dense product-BFS RPQ evaluator must return
//! exactly the same answer set as the seed's tree-based evaluator on
//! randomized databases and queries — and, since every production sweep is
//! handed a *trim* automaton, every kernel must answer identically for an
//! automaton and its trim part.

use automata::{
    random_dfa, random_nfa, Alphabet, DenseNfa, Nfa, RandomAutomatonConfig,
};
use graphdb::{
    eval_csr, eval_csr_from, eval_csr_pair, layered_graph, random_graph, tree_graph, Answer,
    EvalScratch, GraphDb, PairScratch, RandomGraphConfig,
};
use regexlang::{random_regex, thompson, RandomRegexConfig};
use testkit::{eval_automaton_baseline, AnswerSet};

/// Projects the sorted-pairs answer into the seed's `BTreeSet`
/// representation so the differential compares pair sets across both
/// representations, not just both algorithms.
fn as_set(answer: &Answer) -> AnswerSet {
    answer.iter().copied().collect()
}

/// The full kernel over `query` frozen and trimmed, as every production
/// sweep receives it.
fn eval_trimmed(db: &GraphDb, query: &Nfa) -> Answer {
    eval_csr(&db.csr_out(), &DenseNfa::from_nfa(query).trim())
}

fn domain(size: usize) -> Alphabet {
    Alphabet::from_names((0..size).map(|i| ((b'a' + i as u8) as char).to_string()))
        .expect("distinct letters")
}

fn random_db(case: u64, domain: &Alphabet) -> GraphDb {
    match case % 3 {
        0 => random_graph(
            domain,
            &RandomGraphConfig {
                num_nodes: 4 + (case % 20) as usize,
                num_edges: 6 + (case % 50) as usize,
            },
            case,
        ),
        1 => tree_graph(domain, 4 + (case % 25) as usize, case),
        _ => layered_graph(domain, 2 + (case % 4) as usize, 3, 2, case),
    }
}

#[test]
fn dense_eval_matches_baseline_on_random_regex_queries() {
    for case in 0..220u64 {
        let dom = domain(2 + (case % 3) as usize);
        let db = random_db(case, &dom);
        let regex = random_regex(
            &dom,
            &RandomRegexConfig {
                target_size: 3 + (case % 10) as usize,
                ..Default::default()
            },
            case * 17 + 3,
        );
        let nfa = thompson(&regex, &dom).expect("generated over the domain");
        let dense = eval_trimmed(&db, &nfa);
        let baseline = eval_automaton_baseline(&db, &nfa);
        assert_eq!(as_set(&dense), baseline, "case {case}, query {regex}");
        assert_eq!(dense.len(), baseline.len(), "case {case}");
    }
}

#[test]
fn dense_eval_matches_baseline_on_random_nfa_queries() {
    // Random NFAs (no regex structure, arbitrary ε-free transition soup plus
    // unions adding ε-moves) over random databases.
    for case in 0..220u64 {
        let dom = domain(2 + (case % 2) as usize);
        let db = random_db(case ^ 0xa5a5, &dom);
        let config = RandomAutomatonConfig {
            num_states: 2 + (case % 6) as usize,
            density: 0.15 + (case % 4) as f64 * 0.1,
            final_probability: 0.3,
        };
        let base = random_nfa(&dom, &config, case * 31 + 7);
        // Half the cases get ε-transitions via rational operations.
        let nfa = match case % 4 {
            0 => base,
            1 => base.star(),
            2 => base.optional(),
            _ => base.plus(),
        };
        let dense = eval_trimmed(&db, &nfa);
        let baseline = eval_automaton_baseline(&db, &nfa);
        assert_eq!(as_set(&dense), baseline, "case {case}");
    }
}

/// All three kernels over `db`, for `query` as given: the full answer, every
/// source's complete target list, and a verdict for every pair.
fn every_kernel(db: &GraphDb, query: &DenseNfa) -> (Answer, Vec<Vec<usize>>, Vec<bool>) {
    let (csr_out, csr_in) = (db.csr_out(), db.csr_in());
    let nodes = db.num_nodes() as u32;
    let mut scratch = EvalScratch::new(&csr_out, query);
    let rows = (0..nodes)
        .map(|source| {
            let row = eval_csr_from(&csr_out, query, source, None, &mut scratch);
            assert!(row.complete);
            row.targets
        })
        .collect();
    let reverse = query.reverse_closed();
    let mut scratch = PairScratch::new(&csr_out, query);
    let verdicts = (0..nodes)
        .flat_map(|s| (0..nodes).map(move |t| (s, t)))
        .map(|(s, t)| eval_csr_pair(&csr_out, &csr_in, query, &reverse, s, t, &mut scratch))
        .collect();
    (eval_csr(&csr_out, query), rows, verdicts)
}

#[test]
fn every_kernel_answers_identically_for_an_automaton_and_its_trim_part() {
    let (mut shrunk, mut emptied) = (0, 0);
    for case in 0..120u64 {
        let dom = domain(2 + (case % 2) as usize);
        let db = random_db(case ^ 0x7e1f, &dom);
        let config = RandomAutomatonConfig {
            num_states: 1 + (case % 7) as usize,
            density: 0.1 + (case % 5) as f64 * 0.1,
            final_probability: 0.2,
        };
        let untrimmed = match case % 3 {
            0 => DenseNfa::from_nfa(&random_nfa(&dom, &config, case * 29 + 1)),
            1 => DenseNfa::from_nfa(&random_nfa(&dom, &config, case * 29 + 1).plus()),
            // A complemented complete DFA — a rewriting automaton's shape:
            // its sink swallows every edge of the graph when left in.
            _ => {
                let dfa = random_dfa(&dom, &config, case * 29 + 1);
                DenseNfa::from_dfa(&dfa.complement())
            }
        };
        let trimmed = untrimmed.clone().trim();
        shrunk += usize::from(trimmed.num_states() < untrimmed.num_states());
        emptied += usize::from(trimmed.num_states() == 0);

        let answers = every_kernel(&db, &trimmed);
        assert_eq!(answers, every_kernel(&db, &untrimmed), "case {case}");
        let (full, rows, verdicts) = answers;
        // ... and the three kernels agree with each other.
        let n = db.num_nodes();
        for (source, row) in rows.iter().enumerate() {
            let of_full: Vec<usize> =
                full.iter().filter(|&&(s, _)| s == source).map(|&(_, t)| t).collect();
            assert_eq!(*row, of_full, "case {case} source {source}");
            for target in 0..n {
                assert_eq!(verdicts[source * n + target], row.contains(&target), "case {case}");
            }
        }
    }
    assert!(shrunk >= 40, "only {shrunk} automata had anything to trim");
    assert!(emptied >= 1, "no case exercised the zero-state automaton");
}

#[test]
fn prefrozen_queries_answer_identically() {
    let dom = domain(3);
    let db = random_db(11, &dom);
    let regex = random_regex(&dom, &RandomRegexConfig::default(), 5);
    let nfa = thompson(&regex, &dom).expect("generated over the domain");
    let frozen = DenseNfa::from_nfa(&nfa);
    assert_eq!(eval_csr(&db.csr_out(), &frozen), eval_trimmed(&db, &nfa));
}

#[test]
fn dense_eval_handles_empty_and_edgeless_databases() {
    let dom = domain(2);
    let empty = GraphDb::new(dom.clone());
    let a = Nfa::symbol(dom.clone(), dom.symbol("a").unwrap());
    assert!(eval_trimmed(&empty, &a).is_empty());
    assert!(eval_trimmed(&empty, &a.star()).is_empty());

    let mut nodes_only = GraphDb::new(dom.clone());
    for _ in 0..5 {
        nodes_only.add_node();
    }
    assert!(eval_trimmed(&nodes_only, &a).is_empty());
    // ε ∈ L(a*): every node answers with itself.
    assert_eq!(eval_trimmed(&nodes_only, &a.star()).len(), 5);
    assert_eq!(
        as_set(&eval_trimmed(&nodes_only, &a.star())),
        eval_automaton_baseline(&nodes_only, &a.star())
    );
}
