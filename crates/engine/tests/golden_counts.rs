//! Golden work counts: the machine-independent regression gate.
//!
//! For the repo benchmark's eight `materialize` queries on graphs of its
//! `--scale check` size, generated from a fixed seed and swept by one worker,
//! five numbers are exact: how many states the compile funnel gives the
//! query, how many product states the sweep expands, counted per source
//! (`visited`: what a `max_visited` budget bounds), how many pairs it answers,
//! and — what the sweep actually walks — how many product states its scratch
//! opened (`explored`, each once) and how many strongly connected components
//! they fell into.  For the three views of the benchmark's `serve_churn` on a
//! graph of its check size, one 8-edge delete and re-insert re-derives,
//! over-deletes and gains exact numbers of sources and pairs.  All are the
//! same on every machine and on every run, budgeted or not.
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
//! * PR 23 — two columns and the churn table added, nothing moved.  The lane
//!   kernel sweeps a condensation of the product graph: a state is opened
//!   once per scratch (`explored`: 502 and 298 on the dense graph, against a
//!   `visited` of 55 996 and 58 473) and a component is expanded once per
//!   batch of 64 sources; `visited` still counts what a private sweep per
//!   source would pop, and is the same number as before.  The churn counts
//!   are the parent commit's too: the same script there reads 89 / 13 874 /
//!   348.

use automata::Alphabet;
use engine::{
    eval_csr_parallel_breakdown, eval_csr_parallel_budgeted_breakdown, CompileCache, EngineConfig,
    Mutation, QueryBudget, QueryEngine, WriteRequest,
};
use graphdb::{
    eval_csr_sources, power_law_graph, random_graph, GraphDb, LaneScratch, PowerLawGraphConfig,
    RandomGraphConfig, SweepState,
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

/// `(query, compiled states, visited, answer pairs, explored, components)`.
type Row = (&'static str, usize, u64, usize, u64, usize);

/// On [`sparse_db`].
const GOLDEN_SPARSE: &[Row] = &[
    ("h·(f+g)*·e", 3, 5_866, 3_206, 1_832, 1_830),
    ("g·(e+h)*·f", 3, 11_502, 5_832, 2_072, 2_060),
    ("e·f*·(g+h)", 3, 3_064, 1_777, 2_072, 2_072),
    ("h·g*", 2, 1_940, 1_313, 1_452, 1_452),
    ("(f+g)·h*·e?", 3, 4_113, 4_525, 2_753, 2_753),
    ("d·(g+h)*", 2, 8_426, 7_324, 2_637, 2_637),
];

/// On [`dense_db`].
const GOLDEN_DENSE: &[Row] = &[
    ("a·(b·a+c)*·d?", 3, 55_996, 39_547, 502, 267),
    ("(a+b)*·c", 2, 58_473, 42_542, 298, 102),
];

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
                let (visited, explored) = (breakdown.total_visited(), breakdown.total_explored());
                assert!(explored <= (csr.num_nodes() * query.num_states()) as u64, "{text}");

                // The counts do not depend on whether anyone is counting …
                let roomy = QueryBudget::unlimited().max_visited(u64::MAX);
                let progress = SweepState::new();
                let (budgeted, breakdown) =
                    eval_csr_parallel_budgeted_breakdown(&csr, &query, 1, &roomy, &progress);
                assert_eq!(budgeted.expect("a u64::MAX cap cannot trip"), answer, "{text}");
                assert_eq!((breakdown.total_visited(), progress.visited()), (visited, visited));
                assert_eq!(breakdown.total_explored(), explored, "{text}");
                // … and a cap of exactly that many visits is enough.
                let exact = QueryBudget::unlimited().max_visited(visited);
                let (capped, _) = eval_csr_parallel_budgeted_breakdown(
                    &csr, &query, 1, &exact, &SweepState::new(),
                );
                assert!(capped.is_ok(), "{text}: tripped under a cap of its own visit count");

                // The pool's one worker is one kernel call on one scratch,
                // which also knows how many components it numbered.
                let mut scratch = LaneScratch::new(&csr, &query);
                let sources = 0..csr.num_nodes() as u32;
                let swept = eval_csr_sources(&csr, &query, sources, &mut scratch, &mut Vec::new());
                assert_eq!((swept, scratch.explored()), (visited, explored), "{text}");
                (text, query.num_states(), visited, answer.len(), explored, scratch.components())
            })
            .collect();
        assert_eq!(measured, rows, "work counts moved: edit the golden table and say why");

        // The engine's own one-worker read answers the same sets.
        let config = EngineConfig { threads: 1, ..EngineConfig::default() };
        let snapshot = QueryEngine::with_config(db, config).publish_snapshot();
        for &(text, _, _, answers, ..) in rows {
            assert_eq!(snapshot.eval_str(text).len(), answers, "{text}");
        }
    }
}

/// The benchmark's churn graph at check scale: 200 nodes, 800 edges, labels
/// `a..d` uniform.
fn churn_db() -> GraphDb {
    let config = RandomGraphConfig { num_nodes: 200, num_edges: 800 };
    random_graph(&Alphabet::from_chars('a'..='d').unwrap(), &config, SEED)
}

/// The three views `serve_churn` registers.
const CHURN_VIEWS: [(&str, &str); 3] = [("vq", "a·(b·a+c)*·d?"), ("e2", "a·c*·b"), ("e3", "c")];

/// After deleting [`churn_batch`] and after putting it back:
/// `(deletion_rederived_sources, deletion_overdeleted_pairs, insertion_new_pairs)`,
/// summed over the three views.
const GOLDEN_CHURN: [(u64, u64, u64); 2] = [(89, 13_874, 0), (89, 13_874, 348)];

/// Eight edges of [`churn_db`], as the benchmark batches them: the first two
/// of each label.
fn churn_batch(db: &GraphDb) -> Vec<(usize, automata::Symbol, usize)> {
    let mut batch = Vec::new();
    for label in db.domain().symbols() {
        batch.extend(db.edges().filter(|e| e.label == label).take(2).map(|e| (e.from, e.label, e.to)));
    }
    assert_eq!(batch.len(), 8);
    batch
}

#[test]
fn a_fixed_delete_and_reinsert_repairs_exactly_the_golden_amounts() {
    let db = churn_db();
    let batch = churn_batch(&db);
    let config = EngineConfig { threads: 1, ..EngineConfig::default() };
    let mut engine = QueryEngine::with_config(db, config);
    for (name, regex) in CHURN_VIEWS {
        engine.register_view(name, regexlang::parse(regex).unwrap());
    }
    // Materialized now, so the mutations below repair them.
    let before: Vec<_> =
        CHURN_VIEWS.iter().map(|(name, _)| engine.view_extension(name).unwrap().clone()).collect();
    let counts = |engine: &QueryEngine| {
        let stats = engine.stats();
        (stats.deletion_rederived_sources, stats.deletion_overdeleted_pairs, stats.insertion_new_pairs)
    };
    assert_eq!(counts(&engine), (0, 0, 0));
    engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&batch))).unwrap();
    let deleted = counts(&engine);
    engine.try_apply(&WriteRequest::new(Mutation::AddEdges(&batch))).unwrap();
    let restored = counts(&engine);
    assert_eq!([deleted, restored], GOLDEN_CHURN, "repair counts moved: edit the golden table and say why");
    // Back where it started: what the delete took, the insert gave back.
    for ((name, _), extension) in CHURN_VIEWS.iter().zip(&before) {
        assert_eq!(engine.view_extension(name).unwrap(), extension, "{name}");
    }
}
