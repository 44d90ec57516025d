//! What a `single_pair` read costs as the label domain grows, the graph and
//! the queries fixed: ns per read at |Σ| = 8, 64 and 1 000.
//!
//! The graph has 2 000 nodes and 8 000 edges drawn over the labels `l0`–`l3`
//! from one seed, so every domain holds the same edges and the extra labels
//! label nothing.  Two kinds of read go through [`EngineSnapshot::try_eval`]
//! on the same 256 pairs:
//!
//! - **resident**: a text whose full answer was materialized first, so each
//!   read is the text memo's lookup, an answer-cache probe and a binary
//!   search;
//! - **searched**: a text never materialized, so each read misses every
//!   cache and runs the pair kernel on a pooled scratch.
//!
//! Each figure is the median over 7 batches.  Nothing on the resident path
//! depends on |Σ| once the alphabet's digest is known, so the example exits
//! non-zero when the 1 000-label resident read costs more than 3× the
//! 8-label one, and when a domain's verdicts differ from the 8-label
//! domain's (the answers cannot depend on labels no edge carries).  A
//! searched read still re-aims its scratch's per-query word tables, which
//! grow with |Σ|: its row is printed, not gated.
//!
//! Run with: `cargo run --release -p engine --example domain_scaling`.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use automata::{Alphabet, Symbol};
use engine::{EngineSnapshot, QueryEngine, ReadOutcome, ReadRequest};
use graphdb::{GraphDb, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DOMAINS: [usize; 3] = [8, 64, 1_000];
const NODES: usize = 2_000;
const EDGES: usize = 8_000;
const USED_LABELS: u32 = 4;
const PAIRS: usize = 256;
const BATCHES: usize = 7;
/// Passes over the pairs per resident batch, so a batch is long enough to
/// time when a read takes a few hundred nanoseconds.
const RESIDENT_PASSES: usize = 8;
const RESIDENT: &str = "l0·(l1+l2)*·l3";
const SEARCHED: &str = "(l1+l2)·l0*·l3?";
/// The gate: the largest domain's resident read against the smallest's.
const MAX_RESIDENT_RATIO: f64 = 3.0;

fn graph(labels: usize) -> GraphDb {
    let domain = Alphabet::from_names((0..labels).map(|i| format!("l{i}"))).expect("distinct");
    let mut db = GraphDb::new(domain);
    for _ in 0..NODES {
        db.add_node();
    }
    let mut rng = StdRng::seed_from_u64(0xD0_5CA1E);
    for _ in 0..EDGES {
        let (from, to) = (rng.gen_range(0..NODES), rng.gen_range(0..NODES));
        db.add_edge(from, Symbol(rng.gen_range(0..USED_LABELS)), to);
    }
    db
}

fn pairs() -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(0xA1_5EED);
    (0..PAIRS).map(|_| (rng.gen_range(0..NODES), rng.gen_range(0..NODES))).collect()
}

fn connected(snapshot: &EngineSnapshot, query: &str, (source, target): (NodeId, NodeId)) -> bool {
    match snapshot.try_eval(&ReadRequest::pair(query, source, target)) {
        Ok(ReadOutcome::Connected(connected)) => connected,
        other => panic!("a pair read of {query} answered {other:?}"),
    }
}

/// Median ns per read over [`BATCHES`] batches of `passes` passes over
/// `pairs`.
fn ns_per_read(
    snapshot: &EngineSnapshot,
    query: &str,
    pairs: &[(NodeId, NodeId)],
    passes: usize,
) -> f64 {
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..passes {
                for &pair in pairs {
                    black_box(connected(snapshot, black_box(query), pair));
                }
            }
            started.elapsed().as_nanos() as f64 / (passes * pairs.len()) as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

fn main() -> ExitCode {
    let pairs = pairs();
    let mut verdicts = Vec::new();
    let mut resident_ns = Vec::new();
    println!("{:>7} {:>12} {:>12}", "labels", "resident_ns", "searched_ns");
    for labels in DOMAINS {
        let snapshot = QueryEngine::new(graph(labels)).publish_snapshot();
        snapshot.try_eval(&ReadRequest::full(RESIDENT)).expect("materializes");
        // The first pass warms the text memo, the compile cache and the
        // scratch pool; it also gives the verdicts.
        let verdict: Vec<[bool; 2]> = pairs
            .iter()
            .map(|&pair| [RESIDENT, SEARCHED].map(|query| connected(&snapshot, query, pair)))
            .collect();
        let resident = ns_per_read(&snapshot, RESIDENT, &pairs, RESIDENT_PASSES);
        let searched = ns_per_read(&snapshot, SEARCHED, &pairs, 1);
        println!("{labels:>7} {resident:>12.0} {searched:>12.0}");
        verdicts.push(verdict);
        resident_ns.push(resident);
    }

    let mut failed = false;
    for (verdict, labels) in verdicts.iter().zip(DOMAINS) {
        if verdict != &verdicts[0] {
            eprintln!("FAIL: the verdicts at {labels} labels differ from those at {}", DOMAINS[0]);
            failed = true;
        }
    }
    let ratio = resident_ns[DOMAINS.len() - 1] / resident_ns[0];
    println!(
        "resident read at {} labels / at {} labels: {ratio:.2}x (gate {MAX_RESIDENT_RATIO}x)",
        DOMAINS[DOMAINS.len() - 1],
        DOMAINS[0],
    );
    if ratio > MAX_RESIDENT_RATIO {
        eprintln!("FAIL: a resident pair read grows with the label domain");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
