//! Golden work counts: the machine-independent regression gate.
//!
//! For the repo benchmark's eight `materialize` queries on graphs of its
//! `--scale check` size, generated from a fixed seed and swept by one worker,
//! three numbers are exact: how many states the compile funnel gives the
//! query, how many product states the sweep expands (`visited`: what a
//! `max_visited` budget bounds, and the first factor of every sweep's cost),
//! and how many pairs it answers.  They are the same on every machine and on
//! every run, budgeted or not.
//!
//! **A change that moves a number edits the golden tables and says why**, here and
//! in its `CHANGES.md` entry.  History:
//!
//! * PR 22 — first table, taken after the compile funnel moved from Thompson
//!   automata to merged position automata and the kernels stopped queueing
//!   states that read no label.  The same probe at the parent commit read
//!   states 10 / 10 / 10 / 6 / 11 / 8 and 14 / 8, and `visited` 30 675 /
//!   61 347 / 14 435 / 5 194 / 19 698 / 31 574 and 308 698 / 357 255: 2.7–5.3×
//!   more on the sparse queries, 5.5–6.1× on the dense ones.  Answers are
//!   sets and did not move.

use automata::Alphabet;
use engine::{
    eval_csr_parallel_breakdown, eval_csr_parallel_budgeted_breakdown, CompileCache, EngineConfig,
    QueryBudget, QueryEngine,
};
use graphdb::{
    power_law_graph, random_graph, GraphDb, PowerLawGraphConfig, RandomGraphConfig, SweepState,
};

const SEED: u64 = 0x601d;

/// The benchmark's sparse graph at check scale: 4 000 nodes, 16 000 edges,
/// labels `a..h` Zipf(1.0).
fn sparse_db() -> GraphDb {
    let config = PowerLawGraphConfig { num_nodes: 4_000, num_edges: 16_000, label_exponent: 1.0 };
    power_law_graph(&Alphabet::from_chars('a'..='h').unwrap(), &config, SEED)
}

/// The benchmark's dense graph at check scale: 300 nodes, 1 200 edges,
/// labels `a..d` uniform.
fn dense_db() -> GraphDb {
    let config = RandomGraphConfig { num_nodes: 300, num_edges: 1_200 };
    random_graph(&Alphabet::from_chars('a'..='d').unwrap(), &config, SEED)
}

/// `(query, compiled states, visited, answer pairs)`.
type Row = (&'static str, usize, u64, usize);

/// On [`sparse_db`].
const GOLDEN_SPARSE: &[Row] = &[
    ("h·(f+g)*·e", 3, 5_866, 3_206),
    ("g·(e+h)*·f", 3, 11_502, 5_832),
    ("e·f*·(g+h)", 3, 3_064, 1_777),
    ("h·g*", 2, 1_940, 1_313),
    ("(f+g)·h*·e?", 3, 4_113, 4_525),
    ("d·(g+h)*", 2, 8_426, 7_324),
];

/// On [`dense_db`].
const GOLDEN_DENSE: &[Row] =
    &[("a·(b·a+c)*·d?", 3, 55_996, 39_547), ("(a+b)*·c", 2, 58_473, 42_542)];

#[test]
fn compiled_states_visited_pairs_and_answer_sizes_are_exactly_the_golden_ones() {
    for (db, rows) in [(sparse_db(), GOLDEN_SPARSE), (dense_db(), GOLDEN_DENSE)] {
        let csr = db.csr_out();
        let compile = CompileCache::new();
        let measured: Vec<Row> = rows
            .iter()
            .map(|&(text, ..)| {
                let query = compile.compile_regex(db.domain(), &regexlang::parse(text).unwrap());
                let (answer, breakdown) = eval_csr_parallel_breakdown(&csr, &query, 1);
                let visited = breakdown.total_visited();

                // The count does not depend on whether anyone is counting …
                let roomy = QueryBudget::unlimited().max_visited(u64::MAX);
                let progress = SweepState::new();
                let (budgeted, breakdown) =
                    eval_csr_parallel_budgeted_breakdown(&csr, &query, 1, &roomy, &progress);
                assert_eq!(budgeted.expect("a u64::MAX cap cannot trip"), answer, "{text}");
                assert_eq!((breakdown.total_visited(), progress.visited()), (visited, visited));
                // … and a cap of exactly that many visits is enough.
                let exact = QueryBudget::unlimited().max_visited(visited);
                let (capped, _) = eval_csr_parallel_budgeted_breakdown(
                    &csr, &query, 1, &exact, &SweepState::new(),
                );
                assert!(capped.is_ok(), "{text}: tripped under a cap of its own visit count");
                (text, query.num_states(), visited, answer.len())
            })
            .collect();
        assert_eq!(measured, rows, "work counts moved: edit the golden table and say why");

        // The engine's own one-worker read answers the same sets.
        let config = EngineConfig { threads: 1, ..EngineConfig::default() };
        let snapshot = QueryEngine::with_config(db, config).publish_snapshot();
        for &(text, _, _, answers) in rows {
            assert_eq!(snapshot.eval_str(text).len(), answers, "{text}");
        }
    }
}
