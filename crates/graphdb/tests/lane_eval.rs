//! Differential suite for the lane kernel (`eval_csr_sources`): 64 sources
//! per product-BFS must answer, count and interrupt exactly like one private
//! BFS per source.
//!
//! The oracles are independent of it: `eval_csr_from` (the single-source
//! kernel, untouched by the lane sweep) gives every source's row and visit
//! count, and `eval_automaton_baseline` (the seed's tree evaluator) gives the
//! pair set.  Node counts sit on and around the lane width so batches run
//! empty, exactly full, one over, and many times over.

use automata::{random_nfa, Alphabet, DenseNfa, Nfa, RandomAutomatonConfig};
use graphdb::{
    eval_automaton_baseline, eval_csr_from_budgeted, eval_csr_sources, eval_csr_sources_budgeted,
    random_graph, AnswerSet, CsrAdjacency, EvalScratch, GraphDb, LaneScratch, RandomGraphConfig,
    SweepBudget, SweepInterrupt, SweepState, LANES,
};
use regexlang::{random_regex, thompson, RandomRegexConfig};

const SIZES: [usize; 6] = [1, 63, 64, 65, 130, 400];

fn abc() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c']).expect("distinct letters")
}

/// A random multigraph on `num_nodes` nodes, one to three edges per node
/// (the density changes once per round of 48 cases, so it meets every size
/// and query shape); every fifth case doubles a few of its edges so parallel
/// edges are certain, not just likely.
fn random_db(case: u64, num_nodes: usize, dom: &Alphabet) -> GraphDb {
    // Capped so the tree baseline stays affordable on the largest graph.
    let num_edges = (num_nodes * (1 + (case / 48 % 3) as usize)).min(520);
    let mut db = random_graph(dom, &RandomGraphConfig { num_nodes, num_edges }, case ^ 0x1a4e);
    if case % 5 == 4 {
        let doubled: Vec<_> = db.edges().step_by(5).collect();
        for edge in doubled {
            db.add_edge(edge.from, edge.label, edge.to);
        }
    }
    db
}

/// The query of one case, cycling through the shapes the kernel must not
/// trip on: regexes, ε-heavy random NFAs, automata wider than one lane word,
/// ε itself, ∅, and (trimmed below) the zero-state automaton.
fn random_query(case: u64, dom: &Alphabet) -> Nfa {
    let regex = |size| {
        let config = RandomRegexConfig { target_size: size, ..Default::default() };
        thompson(&random_regex(dom, &config, case * 13 + 5), dom).expect("over the domain")
    };
    let soup = || {
        let config = RandomAutomatonConfig {
            num_states: 2 + (case % 7) as usize,
            density: 0.1 + (case % 4) as f64 * 0.1,
            final_probability: 0.3,
        };
        random_nfa(dom, &config, case * 31 + 7)
    };
    match case / 6 % 8 {
        0 | 1 => regex(3 + (case % 9) as usize),
        2 => soup(),
        3 => soup().star(),
        4 => soup().plus(),
        5 => regex(34),
        6 => Nfa::epsilon(dom.clone()),
        _ => Nfa::empty(dom.clone()),
    }
}

/// What one private BFS per source gives: each source's sorted targets and
/// the product states its sweep popped.
fn per_source(csr: &CsrAdjacency, query: &DenseNfa) -> Vec<(Vec<usize>, u64)> {
    let roomy = SweepBudget::unlimited().max_visited(u64::MAX);
    let mut scratch = EvalScratch::new(csr, query);
    (0..csr.num_nodes() as u32)
        .map(|source| {
            let progress = SweepState::new();
            let row =
                eval_csr_from_budgeted(csr, query, source, None, &mut scratch, &roomy, &progress)
                    .expect("a u64::MAX cap never trips");
            assert!(row.complete);
            (row.targets, progress.visited())
        })
        .collect()
}

/// Whether the kernel gives `source` a lane: ε ∈ L(Q), or an out-edge on a
/// label some start state moves on.  Recomputed here from the automaton and
/// the adjacency, not read off the kernel.
fn seeded(csr: &CsrAdjacency, query: &DenseNfa, source: u32) -> bool {
    let moves = |label: u32| {
        query.start().iter().any(|&q| !query.closed_successors(q, label as usize).is_empty())
    };
    query.any_final(query.start()) || csr.edges_from(source).any(|(label, _)| moves(label))
}

fn rows_of(rows: &[(Vec<usize>, u64)], sources: &[u32]) -> Vec<(u32, u32)> {
    sources
        .iter()
        .flat_map(|&s| rows[s as usize].0.iter().map(move |&t| (s, t as u32)))
        .collect()
}

/// Runs the lane kernel over `sources` and checks pairs, order and count
/// against the per-source rows.
fn check_sources(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    rows: &[(Vec<usize>, u64)],
    sources: &[u32],
    scratch: &mut LaneScratch,
    what: &str,
) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    let visited = eval_csr_sources(csr, query, sources.iter().copied(), scratch, &mut pairs);
    // As emitted: nothing here sorts.
    assert!(pairs.windows(2).all(|w| w[0] < w[1]), "{what}: not strictly increasing");
    assert_eq!(pairs, rows_of(rows, sources), "{what}: pairs");
    let expected: u64 = sources
        .iter()
        .filter(|&&s| seeded(csr, query, s))
        .map(|&s| rows[s as usize].1)
        .sum();
    assert_eq!(visited, expected, "{what}: visited");
    pairs
}

#[test]
fn lane_kernel_matches_per_source_sweeps_and_the_tree_baseline() {
    let dom = abc();
    let (mut cases, mut wide, mut epsilon, mut empty, mut zero_state, mut skipped) =
        (0, 0, 0, 0, 0, 0);
    for case in 0..336u64 {
        // Sizes cycle fastest, query shapes every six cases: all 48
        // combinations come round seven times.
        let num_nodes = SIZES[(case % 6) as usize];
        let db = random_db(case, num_nodes, &dom);
        let nfa = random_query(case, &dom);
        let untrimmed = DenseNfa::from_nfa(&nfa);
        // Production sweeps the trim part; keep both under test.
        let query = if case % 7 < 4 { untrimmed.clone().trim() } else { untrimmed };
        wide += usize::from(query.num_states() > 64);
        epsilon += usize::from(query.any_final(query.start()));
        zero_state += usize::from(query.num_states() == 0);

        let csr = db.csr_out();
        let rows = per_source(&csr, &query);
        let n = csr.num_nodes() as u32;
        let all: Vec<u32> = (0..n).collect();
        skipped += all.iter().filter(|&&s| !seeded(&csr, &query, s)).count();
        let mut scratch = LaneScratch::new(&csr, &query);
        let pairs = check_sources(&csr, &query, &rows, &all, &mut scratch, &format!("case {case}"));
        empty += usize::from(pairs.is_empty());

        // The DRed shape: an ascending source list with gaps, on the scratch
        // the full sweep just used.
        let gappy: Vec<u32> = (0..n).filter(|s| (s * 7 + case as u32) % 5 < 2).collect();
        check_sources(&csr, &query, &rows, &gappy, &mut scratch, &format!("case {case} gappy"));

        // The tree baseline takes up to most of a minute, unoptimized, on a
        // wide automaton over the larger graphs: those few cases keep the
        // per-source oracle only and are not counted.
        if num_nodes * query.num_states() > 8_000 {
            continue;
        }
        let as_set: AnswerSet = pairs.iter().map(|&(s, t)| (s as usize, t as usize)).collect();
        assert_eq!(as_set, eval_automaton_baseline(&db, &nfa), "case {case}: baseline");
        cases += 1;
    }
    assert!(cases >= 300, "only {cases} cases ran");
    assert!(wide >= 10, "only {wide} automata wider than a lane word");
    assert!(epsilon >= 40, "only {epsilon} automata accepting ε");
    assert!(empty >= 30, "only {empty} empty answers");
    assert!(zero_state >= 10, "only {zero_state} zero-state automata");
    assert!(skipped >= 1000, "only {skipped} sources went unseeded");
}

#[test]
fn a_visit_cap_tripped_at_every_check_keeps_whole_batches_and_a_clean_scratch() {
    let dom = abc();
    let mut trips = 0;
    for (num_nodes, num_edges, query, seed) in
        [(130usize, 520usize, "(a+b)*·c", 3u64), (400, 1000, "a·(b+c)*", 4), (65, 400, "(a+b+c)*", 5)]
    {
        let db = random_graph(&dom, &RandomGraphConfig { num_nodes, num_edges }, seed);
        let nfa = thompson(&regexlang::parse(query).unwrap(), &dom).unwrap();
        let query = DenseNfa::from_nfa(&nfa).trim();
        let csr = db.csr_out();
        let rows = per_source(&csr, &query);
        let live: Vec<u32> =
            (0..csr.num_nodes() as u32).filter(|&s| seeded(&csr, &query, s)).collect();
        let full = rows_of(&rows, &live);

        let mut scratch = LaneScratch::new(&csr, &query);
        // Raise the cap to the count each trip was noticed at: the next run
        // passes that check and trips at the one after, until none is left.
        let mut cap = 0;
        loop {
            let budget = SweepBudget::unlimited().max_visited(cap);
            let progress = SweepState::new();
            let mut pairs = Vec::new();
            let sources = 0..csr.num_nodes() as u32;
            let swept = eval_csr_sources_budgeted(
                &csr, &query, sources.clone(), &mut scratch, &mut pairs, &budget, &progress,
            );
            let Err(why) = swept else {
                assert_eq!(pairs, full);
                break;
            };
            assert_eq!(why, SweepInterrupt::VisitLimit);
            let noticed = progress.visited();
            assert!(noticed > cap);
            // Visits are exact per source, so the batch in flight is the one
            // whose sources carry the running total past `noticed`; only the
            // batches before it may have emitted.
            let mut running = 0;
            let completed = live
                .chunks(LANES)
                .take_while(|batch| {
                    running += batch.iter().map(|&s| rows[s as usize].1).sum::<u64>();
                    running < noticed
                })
                .count();
            let kept: Vec<u32> = live.iter().copied().take(completed * LANES).collect();
            assert_eq!(pairs, rows_of(&rows, &kept), "cap {cap}: {completed} whole batches");

            let mut again = Vec::new();
            eval_csr_sources(&csr, &query, sources, &mut scratch, &mut again);
            assert_eq!(again, full, "cap {cap}: the scratch was left dirty");
            cap = noticed;
            trips += 1;
        }
    }
    assert!(trips >= 30, "only {trips} checks were tripped");
}
