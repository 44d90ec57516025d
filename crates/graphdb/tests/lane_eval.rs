//! Differential suite for the lane kernel (`eval_csr_sources`): 64 sources
//! per product-BFS must answer, count and interrupt exactly like one private
//! BFS per source.
//!
//! The oracles are independent of it: `eval_csr_from` (the single-source
//! kernel, untouched by the lane sweep) gives every source's row and visit
//! count, and `eval_automaton_baseline` (the seed's tree evaluator) gives the
//! pair set.  Node counts sit on and around the lane width so batches run
//! empty, exactly full, one over, and many times over.
//!
//! The kernel sweeps a condensation of the product graph that its scratch
//! builds by depth-first search and keeps from call to call, so beside the
//! random cases stand the shapes a random generator does not reach — deep
//! chains, nested cycles, start states in each other's components — and the
//! interrupts that land inside an exploration.  Nothing in this file may
//! recurse: CI runs it with 256 KiB thread stacks.

use automata::{random_nfa, Alphabet, DenseNfa, Nfa, RandomAutomatonConfig};
use graphdb::{
    eval_csr_from_budgeted, eval_csr_sources, eval_csr_sources_budgeted,
    random_graph, CsrAdjacency, EvalScratch, GraphDb, LaneScratch, RandomGraphConfig,
    SweepBudget, SweepInterrupt, SweepState, LANES, SWEEP_CHECK_INTERVAL,
};
use regexlang::{random_regex, thompson, RandomRegexConfig};
use testkit::{eval_automaton_baseline, AnswerSet};

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

/// What one private BFS from `source` gives: its sorted targets and the
/// product states the sweep popped.
fn one_source(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    source: u32,
    scratch: &mut EvalScratch,
) -> (Vec<usize>, u64) {
    let roomy = SweepBudget::unlimited().max_visited(u64::MAX);
    let progress = SweepState::new();
    let row = eval_csr_from_budgeted(csr, query, source, None, scratch, &roomy, &progress)
        .expect("a u64::MAX cap never trips");
    assert!(row.complete);
    (row.targets, progress.visited())
}

/// [`one_source`] for every source.
fn per_source(csr: &CsrAdjacency, query: &DenseNfa) -> Vec<(Vec<usize>, u64)> {
    let mut scratch = EvalScratch::new(csr, query);
    (0..csr.num_nodes() as u32).map(|source| one_source(csr, query, source, &mut scratch)).collect()
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
        [(195usize, 780usize, "(a+b)*·c", 3u64), (600, 1500, "a·(b+c)*", 4), (97, 600, "(a+b+c)*", 5)]
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

/// A graph over `a`, `b`, `c` (label indices 0, 1, 2) from an edge list.
fn csr_of(num_nodes: usize, edges: &[(u32, u32, u32)]) -> CsrAdjacency {
    CsrAdjacency::from_edges(abc(), num_nodes, edges.iter().copied())
}

/// `query` as production compiles it.
fn compiled(query: &str) -> DenseNfa {
    regexlang::compile(&regexlang::parse(query).unwrap(), &abc()).expect("over a, b, c")
}

/// The all-sources sweep and a gappy one on the same scratch, each against
/// the per-source oracle for pairs and for `visited`.
fn check_shape(csr: &CsrAdjacency, query: &DenseNfa, what: &str) {
    let rows = per_source(csr, query);
    let n = csr.num_nodes() as u32;
    let all: Vec<u32> = (0..n).collect();
    let mut scratch = LaneScratch::new(csr, query);
    check_sources(csr, query, &rows, &all, &mut scratch, what);
    // Everything was explored by the first call: the second opens nothing.
    let explored = scratch.explored();
    assert!(explored <= (csr.num_nodes() * query.num_states()) as u64, "{what}: explored");
    let gappy: Vec<u32> = (0..n).filter(|s| s % 3 != 1).collect();
    check_sources(csr, query, &rows, &gappy, &mut scratch, &format!("{what}, gappy"));
    assert_eq!(scratch.explored(), explored, "{what}: a second call explored again");
}

#[test]
fn cycles_within_cycles_tails_and_loops_agree_with_per_source_sweeps() {
    const A: u32 = 0;
    const B: u32 = 1;
    const C: u32 = 2;
    // Nine `a`-rings of seven nodes, ring i stepping into ring i + 1 (and the
    // last into the first) on `b`: a cycle of cycles under `(a+b)*`, nine
    // separate ones under `a*`.  Every third ring has a `c` exit to node 0.
    let mut rings = Vec::new();
    for ring in 0..9u32 {
        for at in 0..7 {
            rings.push((ring * 7 + at, A, ring * 7 + (at + 1) % 7));
        }
        rings.push((ring * 7 + 3, B, (ring + 1) % 9 * 7));
        if ring % 3 == 0 {
            rings.push((ring * 7 + 5, C, 0));
        }
    }
    // A lollipop: a chain of 40 into a ring of 90 (more than a lane word of
    // sources inside one component), and a tail of 40 out of it.
    let mut lollipop: Vec<(u32, u32, u32)> = (0..40).map(|i| (i, A, i + 1)).collect();
    lollipop.extend((0..90).map(|i| (40 + i, A, 40 + (i + 1) % 90)));
    lollipop.extend((0..40).map(|i| (if i == 0 { 77 } else { 129 + i }, B, 130 + i)));
    // A chain walked both ways, on different labels one way.
    let two_way: Vec<(u32, u32, u32)> =
        (0..99).flat_map(|i| [(i, A, i + 1), (i + 1, if i % 2 == 0 { A } else { B }, i)]).collect();
    // A loop on every node of a `b`-chain, doubled on every fifth.
    let loops: Vec<(u32, u32, u32)> = (0..70)
        .flat_map(|i| [(i, A, i), (i, if i % 5 == 0 { A } else { C }, i), (i, B, (i + 1) % 71)])
        .collect();
    let graphs = [
        ("ring of rings", csr_of(63, &rings)),
        ("lollipop", csr_of(170, &lollipop)),
        ("two-way chain", csr_of(100, &two_way)),
        ("self-loops", csr_of(71, &loops)),
    ];

    // Closures that accept ε, closures that do not, a counter whose states
    // only tell positions apart (every product cycle is longer than the
    // graph's), and one wider than a lane word.
    let wide = format!("({})*·b?", ["a"; 67].join("·"));
    let mut queries: Vec<(String, DenseNfa)> = ["a*", "(a+b)*", "(a+b)*·c", "a*·b·a*", "(a·a·a)*·b?", &wide]
        .iter()
        .map(|q| (q.to_string(), compiled(q)))
        .collect();
    assert!(queries[5].1.num_states() > 64, "need an automaton wider than a lane word");
    assert!(queries[1].1.any_final(queries[1].1.start()), "need a closure accepting ε");
    // Two start states, both moving, each leading into the other:
    // `p -a-> r`, `r -b-> p`, `r -a-> r`.  A source seeds `(s, p)` and
    // `(s, r)`; which of the two components is completed first, and whether
    // the second start state is found explored by its own lane, depends on
    // the source — a lane counted twice shows up in `visited`.
    queries.push((
        "two start states".into(),
        DenseNfa::from_parts(abc(), 2, [0, 1], [0], [(0, A, 1), (1, B, 0), (1, A, 1)]),
    ));
    for (shape, csr) in &graphs {
        for (text, query) in &queries {
            check_shape(csr, query, &format!("{shape}, {text}"));
        }
    }
}

#[test]
fn a_million_node_chain_is_explored_on_a_quarter_megabyte_stack() {
    // `a*·b?` from the head of an `a`-chain opens a million product states
    // before the first of them completes: an exploration that recursed
    // would need hundreds of megabytes of stack.
    const NODES: u32 = 1_000_000;
    let sweep = || {
        let edges = (0..NODES - 1).map(|i| (i, 0, i + 1)).chain([(NODES - 1, 1, 0)]);
        let csr = CsrAdjacency::from_edges(abc(), NODES as usize, edges);
        let query = compiled("a*·b?");
        // The tail first, so the long exploration from the head runs into
        // components an earlier call left behind.
        let mut lane = LaneScratch::new(&csr, &query);
        let mut point = EvalScratch::new(&csr, &query);
        for sources in [vec![NODES - 70, NODES - 3, NODES - 1], vec![0, NODES / 2, NODES - 2]] {
            let mut pairs = Vec::new();
            let visited = eval_csr_sources(&csr, &query, sources.iter().copied(), &mut lane, &mut pairs);
            let (mut expected, mut pops) = (Vec::new(), 0);
            for &source in &sources {
                let (targets, popped) = one_source(&csr, &query, source, &mut point);
                expected.extend(targets.into_iter().map(|t| (source, t as u32)));
                pops += popped;
            }
            assert!(pairs == expected, "sources {sources:?}: pairs");
            assert_eq!(visited, pops, "sources {sources:?}: visited");
        }
        assert_eq!((lane.explored(), lane.components()), (u64::from(NODES), NODES as usize));
    };
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(sweep)
        .expect("spawn")
        .join()
        .expect("the sweep neither overflowed its stack nor failed an assertion");
}

#[test]
fn one_scratch_over_overlapping_source_lists_answers_like_fresh_ones() {
    // The DRed shape: ascending lists with gaps, overlapping from call to
    // call, on one scratch — whose condensation each call extends — and on a
    // fresh scratch per call.
    let dom = abc();
    let db = random_graph(&dom, &RandomGraphConfig { num_nodes: 300, num_edges: 700 }, 21);
    let csr = db.csr_out();
    let query = compiled("a·(b·a+c)*");
    let rows = per_source(&csr, &query);
    let lists: [Vec<u32>; 3] = [
        (0..300).filter(|s| s % 7 < 3 && s % 2 == 0).collect(),
        (100..300).filter(|s| s % 5 != 0).collect(),
        (0..220).filter(|s| s % 3 == 0).collect(),
    ];
    let mut kept = LaneScratch::new(&csr, &query);
    let (mut explored_kept, mut explored_fresh) = (Vec::new(), 0);
    for (call, sources) in lists.iter().enumerate() {
        let on_kept = check_sources(&csr, &query, &rows, sources, &mut kept, &format!("call {call}, kept"));
        let mut fresh = LaneScratch::new(&csr, &query);
        let on_fresh = check_sources(&csr, &query, &rows, sources, &mut fresh, &format!("call {call}, fresh"));
        assert_eq!(on_kept, on_fresh, "call {call}");
        explored_kept.push(kept.explored());
        explored_fresh += fresh.explored();
    }
    // Kept, the three calls open each product state once between them.
    assert!(explored_kept.windows(2).all(|w| w[0] <= w[1]));
    assert!(explored_kept[2] < explored_fresh, "{explored_kept:?} against {explored_fresh} on fresh scratches");
    assert!(explored_kept[2] <= (csr.num_nodes() * query.num_states()) as u64);
}

#[test]
fn a_trip_inside_an_exploration_unwinds_it_and_keeps_what_was_complete() {
    const NODES: u32 = 150_000;
    let query = compiled("a*");
    let sources = [0u32, 7, NODES - 1];
    let expect = |csr: &CsrAdjacency| {
        let mut point = EvalScratch::new(csr, &query);
        let mut pairs = Vec::new();
        for &source in &sources {
            let (targets, _) = one_source(csr, &query, source, &mut point);
            pairs.extend(targets.into_iter().map(|t| (source, t as u32)));
        }
        pairs
    };
    let sweep = |csr: &CsrAdjacency, scratch: &mut LaneScratch, budget: &SweepBudget| {
        let (mut pairs, progress) = (Vec::new(), SweepState::new());
        let swept = eval_csr_sources_budgeted(
            csr, &query, sources.iter().copied(), scratch, &mut pairs, budget, &progress,
        );
        (swept, pairs, progress.visited())
    };

    // A ring is one component: nothing completes before the last state is
    // opened, so no visit is owed and only the clock can stop it.  An expired
    // deadline does, at the first poll — one check interval of states in.
    let ring = CsrAdjacency::from_edges(abc(), NODES as usize, (0..NODES).map(|i| (i, 0, (i + 1) % NODES)));
    let mut scratch = LaneScratch::new(&ring, &query);
    let expired = SweepBudget { deadline: Some(std::time::Instant::now()), ..SweepBudget::unlimited() };
    let (swept, pairs, visited) = sweep(&ring, &mut scratch, &expired);
    assert_eq!(swept, Err(SweepInterrupt::DeadlineExceeded));
    assert!(pairs.is_empty() && visited == 0);
    assert_eq!((scratch.explored(), scratch.components()), (SWEEP_CHECK_INTERVAL, 0));
    // Unwound: the same scratch explores the ring from scratch and answers.
    let (swept, pairs, _) = sweep(&ring, &mut scratch, &SweepBudget::unlimited());
    assert_eq!(swept, Ok(3 * u64::from(NODES)));
    assert!(pairs == expect(&ring));
    assert_eq!((scratch.explored(), scratch.components()), (SWEEP_CHECK_INTERVAL + u64::from(NODES), 1));

    // A chain is a component per state, completed from the far end back
    // while the whole path is still open: a visit cap trips there, with the
    // components behind it whole and everything before them still open.
    let chain = CsrAdjacency::from_edges(abc(), NODES as usize, (0..NODES - 1).map(|i| (i, 0, i + 1)));
    let mut scratch = LaneScratch::new(&chain, &query);
    let capped = SweepBudget::unlimited().max_visited(10_000);
    let (swept, pairs, visited) = sweep(&chain, &mut scratch, &capped);
    assert_eq!(swept, Err(SweepInterrupt::VisitLimit));
    assert!(pairs.is_empty());
    assert!(10_000 < visited && visited <= 10_000 + SWEEP_CHECK_INTERVAL, "noticed at {visited}");
    // One lane, one visit per component: what was charged is what was kept.
    assert_eq!((scratch.explored(), scratch.components() as u64), (u64::from(NODES), visited));
    let (swept, pairs, _) = sweep(&chain, &mut scratch, &SweepBudget::unlimited());
    let total: u64 = sources.iter().map(|&s| u64::from(NODES - s)).sum();
    assert_eq!(swept, Ok(total));
    assert!(pairs == expect(&chain));
    // The kept components were not opened again.
    assert_eq!((scratch.explored(), scratch.components() as u64), (2 * u64::from(NODES) - visited, u64::from(NODES)));
}

#[test]
#[should_panic(expected = "serves the (csr, query) pair it was built for")]
fn a_scratch_handed_another_pair_is_refused() {
    let dom = abc();
    let db = random_graph(&dom, &RandomGraphConfig { num_nodes: 40, num_edges: 90 }, 2);
    let (csr, query) = (db.csr_out(), compiled("(a+b)*·c"));
    let mut scratch = LaneScratch::new(&csr, &query);
    eval_csr_sources(&csr, &query, 0..40, &mut scratch, &mut Vec::new());
    // Same graph, an automaton with one state more: what the scratch knows
    // about the product graph describes another product graph.
    eval_csr_sources(&csr, &compiled("(a+b)*·c·a"), 0..40, &mut scratch, &mut Vec::new());
}
