//! Where a view repair spends its time on the `serve_churn` shape: per-phase
//! medians of traced writes, at one and at two worker threads.  Repairs run
//! on the writer's thread either way (the thread count sizes only the
//! materialization pool and the scratch pools), so the two tables should
//! agree within their run-to-run spread.
//!
//! The graph is the churn benchmark's shape — 1 000 nodes and 4 000 edges
//! over `a`–`d` from `graphdb::random_graph` at the same shape seed (node ids
//! are not relabelled as the benchmark does per seed) — with its three views,
//! one of them a closure of about 4·10⁵ pairs.  The script is the
//! benchmark's too: four batches of 8 edges, two per label; round `r` removes
//! batch `r mod 4` and re-inserts the batch removed two rounds earlier.  Each
//! mutation is one traced [`WriteRequest`] followed by a traced publish, on
//! [`EngineConfig::serving`] with no reader holding a snapshot.
//!
//! Prints, per mutation kind, the median of each phase in milliseconds: the
//! top-level `repair` and `snapshot_publish`, and per view the detail phases
//! `delta_backward`, `delta_forward`, `rederive` and `splice`; then how many
//! repairs allocated their extension (`extension_buffer_allocations`).  A
//! repair writes its view's extension in one pass, rewriting the affected
//! rows as it goes; a deletion re-derives them a `graphdb::LANES`-sized
//! chunk at a time, so its `rederive` and `splice` accumulate per chunk.
//!
//! After the last round every view's extension is checked against
//! `graphdb::eval_csr` on the database the script left; a mismatch exits
//! non-zero, so a run of this example also checks the write path at the
//! benchmark's ~4·10⁵-pair shape.
//!
//! Run with: `cargo run --release -p engine --example churn_repair [rounds]`
//! (default 16 measured rounds, after two that only remove).

use std::collections::BTreeMap;

use automata::Alphabet;
use engine::{
    CompileCache, EngineConfig, Mutation, Phase, QueryEngine, TraceContext, WriteRequest,
};
use graphdb::{eval_csr, random_graph, NodeId, RandomGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Triple = (NodeId, automata::Symbol, NodeId);

const VIEWS: [(&str, &str); 3] = [("vq", "a·(b·a+c)*·d?"), ("e2", "a·c*·b"), ("e3", "c")];
const SHAPE_SEED: u64 = 0x5EED_CA1F;
const BATCHES: usize = 4;
const PER_LABEL: usize = 2;
const REINSERT_AFTER: usize = 2;

/// The four batches: the edges in a seeded shuffle, [`PER_LABEL`] of each
/// label per batch.
fn batches(edges: &[Triple], labels: usize) -> Vec<Vec<Triple>> {
    let mut shuffled = edges.to_vec();
    shuffled.sort_unstable();
    let mut rng = StdRng::seed_from_u64(SHAPE_SEED ^ 0x4d55);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..i + 1));
    }
    let mut by_label = vec![Vec::new(); labels];
    for edge in shuffled {
        if by_label[edge.1.index()].len() < PER_LABEL * BATCHES {
            by_label[edge.1.index()].push(edge);
        }
    }
    (0..BATCHES)
        .map(|batch| {
            by_label
                .iter()
                .flat_map(|group| &group[batch * PER_LABEL..(batch + 1) * PER_LABEL])
                .copied()
                .collect()
        })
        .collect()
}

/// Phase samples (µs) of one mutation kind, keyed by row label.
#[derive(Default)]
struct Samples {
    rows: BTreeMap<String, Vec<u64>>,
    allocations: u64,
    repairs: u64,
}

impl Samples {
    /// Sums each phase's spans of one traced mutation into one sample; a
    /// repair's detail spans are per view.
    fn record(&mut self, trace: &TraceContext) {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for span in trace.spans() {
            let row = match span.worker {
                Some(view) if span.phase != Phase::CacheCompaction => {
                    format!("{}[{}]", span.phase.as_str(), VIEWS[view as usize].0)
                }
                _ => span.phase.as_str().to_string(),
            };
            *totals.entry(row).or_default() += span.duration_us;
        }
        for (row, us) in totals {
            self.rows.entry(row).or_default().push(us);
        }
    }

    fn median_ms(&self, row: &str) -> String {
        let Some(samples) = self.rows.get(row) else { return "-".to_string() };
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        format!("{:.3}", sorted[sorted.len() / 2] as f64 / 1000.0)
    }
}

fn main() {
    let rounds: usize =
        std::env::args().nth(1).map_or(16, |n| n.parse().expect("rounds: a number"));
    let domain =
        Alphabet::from_names(["a", "b", "c", "d"].map(String::from)).expect("distinct labels");
    let db =
        random_graph(&domain, &RandomGraphConfig { num_nodes: 1000, num_edges: 4000 }, SHAPE_SEED);
    let edges: Vec<Triple> = db.edges().map(|e| (e.from, e.label, e.to)).collect();
    let batches = batches(&edges, domain.len());

    for threads in [1, 2] {
        let config = EngineConfig { threads, ..EngineConfig::serving() };
        let mut engine = QueryEngine::with_config(db.clone(), config);
        for (name, definition) in VIEWS {
            engine.register_view(name, regexlang::parse(definition).expect("view parses"));
        }
        engine.publish_snapshot();
        let (mut deletes, mut inserts) = (Samples::default(), Samples::default());
        for round in 0..REINSERT_AFTER + rounds {
            let measured = round >= REINSERT_AFTER;
            let mut apply = |mutation: Mutation<'_>, samples: &mut Samples| {
                let trace = TraceContext::new(round as u64);
                let before = engine.stats();
                engine
                    .try_apply(&WriteRequest::new(mutation).traced(&trace))
                    .expect("script applies");
                engine.publish_snapshot_traced(&trace);
                if measured {
                    let after = engine.stats();
                    samples.record(&trace);
                    samples.allocations +=
                        after.extension_buffer_allocations - before.extension_buffer_allocations;
                    samples.repairs += (after.view_deletion_repairs + after.view_delta_repairs)
                        - (before.view_deletion_repairs + before.view_delta_repairs);
                }
            };
            apply(Mutation::RemoveEdges(&batches[round % BATCHES]), &mut deletes);
            if round >= REINSERT_AFTER {
                apply(
                    Mutation::AddEdges(&batches[(round - REINSERT_AFTER) % BATCHES]),
                    &mut inserts,
                );
            }
        }

        let cache = CompileCache::new();
        for (name, definition) in VIEWS {
            let regex = regexlang::parse(definition).expect("view parses");
            let fresh = eval_csr(&engine.db().csr_out(), &cache.compile_regex(&domain, &regex));
            if *engine.view_extension(name).expect("registered") != fresh {
                eprintln!("threads {threads}: view {name} differs from a from-scratch evaluation");
                std::process::exit(1);
            }
        }
        let sizes: Vec<String> = VIEWS
            .iter()
            .map(|(name, _)| {
                format!("{name} {}", engine.view_extension(name).expect("registered").len())
            })
            .collect();
        println!(
            "threads {threads}: {rounds} deletes and {rounds} inserts of 8 edges ({})",
            sizes.join(", ")
        );
        println!("  {:<24} {:>10} {:>10}", "median ms", "delete", "insert");
        let mut rows =
            vec![Phase::Repair.as_str().to_string(), Phase::SnapshotPublish.as_str().to_string()];
        for (name, _) in VIEWS {
            for phase in [Phase::DeltaBackward, Phase::DeltaForward, Phase::Rederive, Phase::Splice]
            {
                rows.push(format!("{}[{name}]", phase.as_str()));
            }
        }
        for row in rows {
            println!("  {row:<24} {:>10} {:>10}", deletes.median_ms(&row), inserts.median_ms(&row));
        }
        let allocating = |samples: &Samples| format!("{}/{}", samples.allocations, samples.repairs);
        println!(
            "  {:<24} {:>10} {:>10}",
            "allocating repairs",
            allocating(&deletes),
            allocating(&inserts)
        );
    }
}
