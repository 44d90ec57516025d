//! Differential tests for the interactive evaluators: the single-source
//! early-exit sweep (`eval_csr_from`, forward over the query and backward
//! over its reversal) and the bidirectional single-pair evaluator
//! (`eval_csr_pair`) must agree with the full-materialization product-BFS
//! (`eval_csr`) on every randomized graph × query case — including limit
//! boundaries, empty/dead-language automata, and budget interrupts (which
//! must leave the scratch reusable).

use automata::{Alphabet, DenseNfa};
use graphdb::{
    eval_csr, eval_csr_from, eval_csr_from_budgeted, eval_csr_pair, eval_csr_pair_budgeted,
    layered_graph, random_graph, tree_graph, EvalScratch, GraphDb, NodeId, PairScratch,
    PairTimings, RandomGraphConfig, SortedPairs, SweepBudget, SweepInterrupt, SweepState,
};
use regexlang::thompson;
use std::time::Instant;

const QUERIES: &[&str] = &[
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

fn domain() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c']).expect("distinct letters")
}

fn random_db(seed: u64, num_nodes: usize, num_edges: usize, dom: &Alphabet) -> GraphDb {
    match seed % 3 {
        0 => random_graph(dom, &RandomGraphConfig { num_nodes, num_edges }, seed),
        1 => tree_graph(dom, num_nodes, seed),
        _ => layered_graph(dom, 3, num_nodes.div_ceil(3).max(1), 2, seed),
    }
}

fn compile(query: &str, dom: &Alphabet) -> DenseNfa {
    let regex = regexlang::parse(query).expect("query parses");
    let nfa = thompson(&regex, dom).expect("query over the domain");
    DenseNfa::from_nfa(&nfa)
}

/// The oracle's targets of one source, extracted from the full answer.
fn oracle_targets(oracle: &SortedPairs, source: NodeId) -> Vec<NodeId> {
    oracle
        .iter()
        .filter(|&&(s, _)| s == source)
        .map(|&(_, t)| t)
        .collect()
}

#[test]
fn eval_csr_from_matches_full_materialization() {
    let dom = domain();
    let mut cases = 0usize;
    for &(num_nodes, num_edges) in &[(5usize, 12usize), (17, 60), (33, 140)] {
        for seed in 0..8u64 {
            let db = random_db(seed * 101 + num_nodes as u64, num_nodes, num_edges, &dom);
            let csr = db.csr_out();
            let csr_in = db.csr_in();
            for query in QUERIES {
                cases += 1;
                let dense = compile(query, &dom);
                let oracle = eval_csr(&csr, &dense);
                let mut scratch = EvalScratch::new(&csr, &dense);
                for source in 0..db.num_nodes() {
                    let expected = oracle_targets(&oracle, source);
                    let got = eval_csr_from(&csr, &dense, source as u32, None, &mut scratch);
                    assert!(got.complete, "unlimited sweep must drain");
                    assert_eq!(
                        got.targets, expected,
                        "seed {seed}, |V|={num_nodes}, query {query}, source {source}"
                    );
                }
                // Backward: the same kernel over the incoming adjacency and
                // the reversal finds the sources of each target.
                let reversal = dense.reverse_closed();
                let mut scratch = EvalScratch::new(&csr_in, &reversal);
                for target in 0..db.num_nodes() {
                    let expected: Vec<NodeId> =
                        oracle.iter().filter(|&&(_, t)| t == target).map(|&(s, _)| s).collect();
                    let got = eval_csr_from(&csr_in, &reversal, target as u32, None, &mut scratch);
                    assert!(got.complete, "unlimited sweep must drain");
                    assert_eq!(
                        got.targets, expected,
                        "seed {seed}, |V|={num_nodes}, query {query}, target {target}"
                    );
                }
            }
        }
    }
    assert!(cases >= 200, "only {cases} differential cases ran");
}

#[test]
fn eval_csr_pair_matches_full_materialization() {
    let dom = domain();
    let mut cases = 0usize;
    for &(num_nodes, num_edges) in &[(5usize, 12usize), (17, 60), (33, 140)] {
        for seed in 0..8u64 {
            let db = random_db(seed * 71 + num_edges as u64, num_nodes, num_edges, &dom);
            let csr_out = db.csr_out();
            let csr_in = db.csr_in();
            for query in QUERIES {
                cases += 1;
                let dense = compile(query, &dom);
                let reverse = dense.reverse_closed();
                let oracle = eval_csr(&csr_out, &dense);
                let mut scratch = PairScratch::new(&csr_out, &dense);
                for source in 0..db.num_nodes() as u32 {
                    for target in 0..db.num_nodes() as u32 {
                        let expected = oracle.contains(&(source as NodeId, target as NodeId));
                        let got = eval_csr_pair(
                            &csr_out,
                            &csr_in,
                            &dense,
                            &reverse,
                            source,
                            target,
                            &mut scratch,
                        );
                        assert_eq!(
                            got, expected,
                            "seed {seed}, |V|={num_nodes}, query {query}, \
                             pair ({source}, {target})"
                        );
                    }
                }
            }
        }
    }
    assert!(cases >= 200, "only {cases} differential cases ran");
}

#[test]
fn budgeted_twins_agree_with_plain_evaluators_under_unlimited_budgets() {
    let dom = domain();
    let db = random_db(3, 21, 80, &dom);
    let csr_out = db.csr_out();
    let csr_in = db.csr_in();
    for query in QUERIES {
        let dense = compile(query, &dom);
        let reverse = dense.reverse_closed();
        let mut scratch = EvalScratch::new(&csr_out, &dense);
        let mut pair_scratch = PairScratch::new(&csr_out, &dense);
        let unlimited = SweepBudget::unlimited();
        for source in 0..db.num_nodes() as u32 {
            let plain = eval_csr_from(&csr_out, &dense, source, Some(3), &mut scratch);
            let progress = SweepState::new();
            let budgeted = eval_csr_from_budgeted(
                &csr_out,
                &dense,
                source,
                dense.start(),
                Some(3),
                &mut scratch,
                &unlimited,
                &progress,
            )
            .expect("unlimited budget never interrupts");
            assert_eq!(plain.targets, budgeted.targets, "query {query}");
            assert_eq!(plain.complete, budgeted.complete, "query {query}");

            let target = (source + 1) % db.num_nodes() as u32;
            let plain = eval_csr_pair(
                &csr_out, &csr_in, &dense, &reverse, source, target, &mut pair_scratch,
            );
            let progress = SweepState::new();
            let budgeted = eval_csr_pair_budgeted(
                &csr_out,
                &csr_in,
                &dense,
                &reverse,
                source,
                target,
                &mut pair_scratch,
                &unlimited,
                &progress,
                None,
            )
            .expect("unlimited budget never interrupts");
            assert_eq!(plain, budgeted, "query {query}, pair ({source}, {target})");
        }
    }
}

#[test]
fn limit_boundaries_truncate_exactly() {
    let dom = domain();
    let db = random_db(7, 17, 70, &dom);
    let csr = db.csr_out();
    let dense = compile("(a+b+c)*", &dom);
    let oracle = eval_csr(&csr, &dense);
    let mut scratch = EvalScratch::new(&csr, &dense);
    for source in 0..db.num_nodes() {
        let full = oracle_targets(&oracle, source);

        // k = 0: nothing materializes and the sweep reports incompleteness
        // (it cannot know whether targets exist without searching).
        let k0 = eval_csr_from(&csr, &dense, source as u32, Some(0), &mut scratch);
        assert!(k0.targets.is_empty());
        assert!(!k0.complete);

        // k = 1: exactly one target (when any exists), and it is one of the
        // oracle's — the BFS discovery order need not be the sorted order.
        let k1 = eval_csr_from(&csr, &dense, source as u32, Some(1), &mut scratch);
        assert_eq!(k1.targets.len(), full.len().min(1));
        assert!(k1.targets.iter().all(|t| full.contains(t)));
        if full.len() > 1 {
            assert!(!k1.complete, "stopping below the full count is truncation");
        }

        // k exactly at the count: every target found; the sweep stopped at
        // the k-th so it cannot certify completeness.
        if !full.is_empty() {
            let exact = eval_csr_from(&csr, &dense, source as u32, Some(full.len()), &mut scratch);
            assert_eq!(exact.targets, full);
        }

        // k ≥ all: the limit never binds and the sweep drains.
        let over = eval_csr_from(&csr, &dense, source as u32, Some(full.len() + 5), &mut scratch);
        assert_eq!(over.targets, full);
        assert!(over.complete);
    }
}

#[test]
fn empty_language_and_dead_state_automata_answer_false_everywhere() {
    let dom = domain();
    let db = random_db(5, 12, 40, &dom);
    let csr_out = db.csr_out();
    let csr_in = db.csr_in();
    // ∅ itself, and a live-looking automaton whose accepting state is
    // unreachable (dead): a·∅ concatenates into the empty language.
    for query in ["∅", "a·∅", "∅*·∅"] {
        let dense = compile(query, &dom);
        let reverse = dense.reverse_closed();
        let oracle = eval_csr(&csr_out, &dense);
        let mut scratch = EvalScratch::new(&csr_out, &dense);
        let mut pair_scratch = PairScratch::new(&csr_out, &dense);
        for source in 0..db.num_nodes() as u32 {
            let got = eval_csr_from(&csr_out, &dense, source, None, &mut scratch);
            assert_eq!(got.targets, oracle_targets(&oracle, source as NodeId), "{query}");
            for target in 0..db.num_nodes() as u32 {
                let connected = eval_csr_pair(
                    &csr_out, &csr_in, &dense, &reverse, source, target, &mut pair_scratch,
                );
                assert_eq!(
                    connected,
                    oracle.contains(&(source as NodeId, target as NodeId)),
                    "{query} pair ({source}, {target})"
                );
            }
        }
    }
    // ε*·∅ is empty, but ∅* contains ε: identity pairs only.
    let dense = compile("∅*", &dom);
    let mut scratch = EvalScratch::new(&csr_out, &dense);
    for source in 0..db.num_nodes() as u32 {
        let got = eval_csr_from(&csr_out, &dense, source, None, &mut scratch);
        assert_eq!(got.targets, vec![source as NodeId]);
    }
}

/// A 6 000-edge `a`-chain, with its first and last node.
fn a_chain() -> (GraphDb, NodeId, NodeId) {
    let dom = domain();
    let a = dom.symbol("a").expect("a in domain");
    let mut db = GraphDb::new(dom);
    let first = db.add_node();
    let mut prev = first;
    for _ in 0..6000 {
        let next = db.add_node();
        db.add_edge(prev, a, next);
        prev = next;
    }
    (db, first, prev)
}

#[test]
fn interrupted_sweeps_leave_the_scratch_reusable() {
    // Budget checks run every SWEEP_CHECK_INTERVAL pops, so interrupting
    // needs a sweep with more pops than one interval: a long `a`-chain —
    // 6000 product pairs from node 0 under `a*`, and a bidirectional pair
    // search that must burn 6000 pops between its two sides before its
    // cones meet.
    let dom = domain();
    let (db, first, last) = a_chain();
    let csr_out = db.csr_out();
    let csr_in = db.csr_in();
    let dense = compile("a*", &dom);
    let reverse = dense.reverse_closed();
    let tight = SweepBudget { max_visited: Some(1), ..SweepBudget::unlimited() };
    let unlimited = SweepBudget::unlimited();

    let mut scratch = EvalScratch::new(&csr_out, &dense);
    let progress = SweepState::new();
    let interrupted = eval_csr_from_budgeted(
        &csr_out,
        &dense,
        first as u32,
        dense.start(),
        None,
        &mut scratch,
        &tight,
        &progress,
    );
    assert_eq!(interrupted.unwrap_err(), SweepInterrupt::VisitLimit);
    assert!(progress.visited() > 0, "partial work must be reported");
    // Same scratch, fresh progress: the sweep must now drain and find every
    // chain node — an interrupt may not leave visited bits or queue entries.
    let progress = SweepState::new();
    let redone = eval_csr_from_budgeted(
        &csr_out,
        &dense,
        first as u32,
        dense.start(),
        None,
        &mut scratch,
        &unlimited,
        &progress,
    )
    .expect("unlimited budget never interrupts");
    assert!(redone.complete);
    assert_eq!(redone.targets, (first..=last).collect::<Vec<_>>());

    let mut pair_scratch = PairScratch::new(&csr_out, &dense);
    let progress = SweepState::new();
    let interrupted = eval_csr_pair_budgeted(
        &csr_out,
        &csr_in,
        &dense,
        &reverse,
        first as u32,
        last as u32,
        &mut pair_scratch,
        &tight,
        &progress,
        None,
    );
    assert_eq!(interrupted.unwrap_err(), SweepInterrupt::VisitLimit);
    let progress = SweepState::new();
    let redone = eval_csr_pair_budgeted(
        &csr_out,
        &csr_in,
        &dense,
        &reverse,
        first as u32,
        last as u32,
        &mut pair_scratch,
        &unlimited,
        &progress,
        None,
    )
    .expect("unlimited budget never interrupts");
    assert!(redone, "chain ends connect under a* after scratch reuse");
}

#[test]
fn pair_timings_cover_the_search() {
    // 6 000 rounds of one state each (equal levels expand forward): every
    // round is far below a microsecond, so the halves must add up rounds,
    // not microseconds.
    let dom = domain();
    let (db, first, last) = a_chain();
    let (csr_out, csr_in) = (db.csr_out(), db.csr_in());
    let dense = compile("a*", &dom);
    let reverse = dense.reverse_closed();
    let mut scratch = PairScratch::new(&csr_out, &dense);
    let unlimited = SweepBudget::unlimited();
    let mut timings = PairTimings::default();
    let started = Instant::now();
    let connected = eval_csr_pair_budgeted(
        &csr_out,
        &csr_in,
        &dense,
        &reverse,
        first as u32,
        last as u32,
        &mut scratch,
        &unlimited,
        &SweepState::new(),
        Some(&mut timings),
    )
    .expect("unlimited budget never interrupts");
    let wall_us = started.elapsed().as_micros() as u64;
    assert!(connected);
    let halves = timings.forward_us + timings.backward_us;
    assert!(2 * halves >= wall_us, "{timings:?} cover less than half of {wall_us} µs");
}

/// What one sweep charges to a fresh progress.
fn charged(sweep: impl FnOnce(&SweepState)) -> u64 {
    let progress = SweepState::new();
    sweep(&progress);
    progress.visited()
}

#[test]
fn a_pair_search_charges_at_most_its_two_drains() {
    // Each side of the pair search expands a state at most once, and only
    // one its own drain expands too: forward from `(s, start)` over the
    // query, backward from `(t, finals)` over the reversal.
    let dom = domain();
    let roomy = SweepBudget::unlimited().max_visited(u64::MAX);
    let mut pairs = 0usize;
    for &(num_nodes, num_edges) in &[(5usize, 12usize), (17, 60), (33, 140)] {
        for seed in 0..8u64 {
            let db = random_db(seed * 71 + num_edges as u64, num_nodes, num_edges, &dom);
            let (csr_out, csr_in) = (db.csr_out(), db.csr_in());
            let nodes = 0..db.num_nodes() as u32;
            for query in QUERIES {
                let dense = compile(query, &dom);
                let reverse = dense.reverse_closed();
                let drains = |csr, automaton: &DenseNfa| -> Vec<u64> {
                    let mut scratch = EvalScratch::new(csr, automaton);
                    let start = automaton.start();
                    nodes
                        .clone()
                        .map(|node| {
                            charged(|progress| {
                                eval_csr_from_budgeted(
                                    csr, automaton, node, start, None, &mut scratch, &roomy,
                                    progress,
                                )
                                .expect("a u64::MAX cap never trips");
                            })
                        })
                        .collect()
                };
                let (forward, backward) = (drains(&csr_out, &dense), drains(&csr_in, &reverse));
                let mut scratch = PairScratch::new(&csr_out, &dense);
                for source in nodes.clone() {
                    for target in nodes.clone() {
                        pairs += 1;
                        let visited = charged(|progress| {
                            eval_csr_pair_budgeted(
                                &csr_out, &csr_in, &dense, &reverse, source, target,
                                &mut scratch, &roomy, progress, None,
                            )
                            .expect("a u64::MAX cap never trips");
                        });
                        let drained = forward[source as usize] + backward[target as usize];
                        assert!(
                            visited <= drained,
                            "seed {seed}, |V|={num_nodes}, query {query}, pair ({source}, \
                             {target}): {visited} visits, the two drains {drained}"
                        );
                    }
                }
            }
        }
    }
    assert!(pairs >= 100_000, "only {pairs} pairs searched");
}

#[test]
fn sorted_pairs_contains_covers_boundaries_and_duplicates() {
    // Empty set: no pair is contained.
    let empty = SortedPairs::new();
    assert!(!empty.contains(&(0, 0)));

    // Duplicates fed through the collecting constructors merge down to one
    // copy of each pair, and `contains` still answers true for all of them.
    let merged: SortedPairs =
        vec![(0, 1), (2, 3), (0, 1), (5, 5), (2, 3), (9, 0)].into_iter().collect();
    assert_eq!(merged.len(), 4, "duplicates collapse on collect");
    let mut extended = SortedPairs::new();
    extended.extend(vec![(2, 3), (0, 1)]);
    extended.extend(vec![(0, 1), (9, 0), (5, 5), (2, 3)]);
    assert_eq!(extended, merged, "extend dedups against resident pairs");
    assert!(merged.contains(&(0, 1)));
    assert!(merged.contains(&(2, 3)));

    // `from_sorted_runs` skips empty runs and splices disjoint sorted runs
    // into the same answer set.
    let from_runs = SortedPairs::from_sorted_runs(vec![
        vec![],
        vec![(0, 1), (2, 3)],
        vec![],
        vec![(5, 5), (9, 0)],
        vec![],
    ]);
    assert_eq!(from_runs, merged, "empty runs contribute nothing");

    // First and last element of the sorted order are both found; near
    // misses on either side are not.
    assert!(merged.contains(&(0, 1)), "first element");
    assert!(merged.contains(&(9, 0)), "last element");
    assert!(!merged.contains(&(0, 0)));
    assert!(!merged.contains(&(9, 1)));
    assert!(!merged.contains(&(4, 5)));
}
