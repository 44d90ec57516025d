//! Differential suite for the one-repair-per-(view, batch) write path:
//!
//! * **awkward batches vs from-scratch**: over random graphs and four view
//!   shapes (closure, concatenation, single label, ε-accepting), after every
//!   mutation of a schedule of batches — duplicate edges, self-loops, edges
//!   whose label no view reads, edges that create their endpoints inside the
//!   batch, deletions, and the re-insertion of what was just deleted — each
//!   cached extension equals `eval_csr` on the current database, and a
//!   snapshot published before the mutation still holds its old extensions,
//!   pair for pair;
//! * **work counts**: on a fixed seed, `insertion_new_pairs` is the
//!   extension's length after minus before, and a traced repair records
//!   exactly one splice per (view, mutation);
//! * **a repair that gains nothing**: an insertion whose rectangles add no
//!   pair keeps the view's extension and gives the storage it was lent back
//!   to the next repair, allocating nothing — it opens no writer, so it
//!   allocates nothing when it has no storage to lend either;
//! * **interrupt injection**: a visit cap tripped at every check a repair
//!   reaches (learned at the `engine::delta` level, replayed through the
//!   engine) drops the view's extension — never a half-repaired one — moves
//!   `repair_budget_drops`, leaves the published snapshot alone, and the
//!   next read re-materializes exactly; a cap that trips partway through a
//!   multi-view batch keeps the repairs that ran before the trip and drops
//!   the rest, in registration order; and the storage a repair interrupted
//!   inside its re-derivation was writing into serves the next repair.

use std::collections::VecDeque;
use std::sync::Arc;

use automata::{Alphabet, DenseNfa, Symbol};
use engine::{
    deletion_repair_budgeted, delta_pairs, insertion_repair_budgeted, CompileCache, EngineConfig,
    Mutation, Phase, QueryBudget, QueryEngine, TraceContext, WriteRequest,
};
use graphdb::{
    eval_csr, random_graph, Answer, Edge, GraphDb, NodeId, RandomGraphConfig, SweepInterrupt,
    SweepState, LANES, SWEEP_CHECK_INTERVAL,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `d` is the label no view reads.
fn abcd() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c', 'd']).unwrap()
}

/// Closure, concatenation, single label, ε-accepting.
const VIEWS: [(&str, &str); 4] = [
    ("closure", "(a+b)*·c"),
    ("concat", "a·b"),
    ("label", "c"),
    ("star", "a*"),
];

/// A `random_graph` whose nodes are named `n0`, `n1`, … (same ids), so a
/// named batch can mix existing nodes with ones it creates.
fn named_random_db(num_nodes: usize, num_edges: usize, seed: u64) -> GraphDb {
    let unnamed = random_graph(
        &abcd(),
        &RandomGraphConfig {
            num_nodes,
            num_edges,
        },
        seed,
    );
    let mut db = GraphDb::new(abcd());
    for v in unnamed.nodes() {
        db.node(&format!("n{v}"));
    }
    for e in unnamed.edges() {
        db.add_edge(e.from, e.label, e.to);
    }
    db
}

/// The engine's own compile funnel, so the automaton — and every visit count
/// — is the one the engine's repairs see.
fn compile(db: &GraphDb, view: &str) -> Arc<DenseNfa> {
    CompileCache::new().compile_regex(db.domain(), &regexlang::parse(view).unwrap())
}

/// The node count from which a full read sweeps on the engine's pool.
const POOL_NODES: usize = 256;

/// An engine over `db` with isolated nodes appended up to [`POOL_NODES`], so
/// that with more than one thread the views materialize on the pool.
fn engine_with_views(mut db: GraphDb, threads: usize) -> QueryEngine {
    while db.num_nodes() < POOL_NODES {
        db.add_node();
    }
    let config = EngineConfig {
        threads,
        ..EngineConfig::default()
    };
    let mut engine = QueryEngine::with_config(db, config);
    for (name, view) in VIEWS {
        engine.register_view(name, regexlang::parse(view).unwrap());
    }
    engine
}

fn assert_extensions_exact(engine: &mut QueryEngine, context: &str) {
    for (name, view) in VIEWS {
        let fresh = eval_csr(&engine.db().csr_out(), &compile(engine.db(), view));
        assert_eq!(
            *engine.view_extension(name).unwrap(),
            fresh,
            "{context}: view {name}"
        );
    }
}

/// An insertion batch of 1–6 named edges with every awkward shape mixed in:
/// endpoints the batch itself creates, self-loops, the unread label, and
/// repeats of the edge before.  Existing endpoints are among `n0` …
/// `n{existing - 1}`.
fn awkward_insertions(
    existing: usize,
    step: usize,
    rng: &mut StdRng,
) -> Vec<(String, String, String)> {
    let node = |rng: &mut StdRng| match rng.gen_range(0..5) {
        0 => format!("x{step}_{}", rng.gen_range(0..2)),
        _ => format!("n{}", rng.gen_range(0..existing)),
    };
    let mut batch: Vec<(String, String, String)> = Vec::new();
    for _ in 0..rng.gen_range(1..7) {
        let edge = match (rng.gen_range(0..5), batch.last()) {
            (0, Some(previous)) => previous.clone(),
            (1, _) => {
                let v = node(rng);
                (v.clone(), "abcd"[rng.gen_range(0..4)..][..1].to_string(), v)
            }
            _ => (
                node(rng),
                "abcd"[rng.gen_range(0..4)..][..1].to_string(),
                node(rng),
            ),
        };
        batch.push(edge);
    }
    batch
}

/// Up to four distinct edge occurrences of the current database.
fn random_deletions(engine: &QueryEngine, rng: &mut StdRng) -> Vec<(NodeId, Symbol, NodeId)> {
    let mut edges: Vec<Edge> = engine.db().edges().collect();
    let mut batch = Vec::new();
    for _ in 0..rng.gen_range(1..5usize).min(edges.len()) {
        let e = edges.swap_remove(rng.gen_range(0..edges.len()));
        batch.push((e.from, e.label, e.to));
    }
    batch
}

#[test]
fn awkward_batches_repair_exactly_and_leave_published_snapshots_alone() {
    let (mut mutations, mut created_nodes, mut support_skips) = (0usize, 0usize, 0u64);
    for seed in 0..40u64 {
        let nodes = 10 + (seed as usize % 4) * 7;
        let db = named_random_db(nodes, nodes * 2, seed ^ 0xba7c);
        let threads = 1 + (seed as usize % 3);
        let mut engine = engine_with_views(db, threads);
        let mut rng = StdRng::seed_from_u64(seed * 53 + 11);
        let mut expected_new_pairs = 0u64;

        for step in 0..5 {
            // What a reader pinned before the mutation must keep seeing.
            let snapshot = engine.publish_snapshot();
            let pinned: Vec<Vec<(NodeId, NodeId)>> = VIEWS
                .iter()
                .map(|(name, _)| snapshot.view_extension(name).unwrap().as_slice().to_vec())
                .collect();
            let lens = |engine: &mut QueryEngine| -> Vec<usize> {
                VIEWS
                    .iter()
                    .map(|(name, _)| engine.view_extension(name).unwrap().len())
                    .collect()
            };
            let context = format!("seed {seed} step {step}");

            if rng.gen_range(0..2) == 0 {
                let batch = awkward_insertions(nodes, step, &mut rng);
                let refs: Vec<(&str, &str, &str)> = batch
                    .iter()
                    .map(|(f, l, t)| (f.as_str(), l.as_str(), t.as_str()))
                    .collect();
                let (before, nodes_before) = (lens(&mut engine), engine.db().num_nodes());
                engine.try_add_edges_named(&refs).unwrap();
                created_nodes += engine.db().num_nodes() - nodes_before;
                assert_extensions_exact(&mut engine, &format!("{context} + {batch:?}"));
                let after = lens(&mut engine);
                expected_new_pairs += after
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| (a - b) as u64)
                    .sum::<u64>();
                mutations += 1;
            } else {
                // Delete, then put the same triples back.
                let batch = random_deletions(&engine, &mut rng);
                engine.try_apply(&WriteRequest::new(Mutation::RemoveEdges(&batch))).unwrap();
                assert_extensions_exact(&mut engine, &format!("{context} - {batch:?}"));
                let before = lens(&mut engine);
                engine.try_apply(&WriteRequest::new(Mutation::AddEdges(&batch))).unwrap();
                assert_extensions_exact(&mut engine, &format!("{context} -+ {batch:?}"));
                let after = lens(&mut engine);
                expected_new_pairs += after
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| (a - b) as u64)
                    .sum::<u64>();
                mutations += 2;
            }

            for ((name, _), pinned) in VIEWS.iter().zip(&pinned) {
                let held = snapshot.view_extension(name).unwrap();
                assert!(
                    held.iter().eq(pinned.iter()),
                    "{context}: pinned view {name} moved"
                );
            }
        }

        // Repairs — not silent re-materializations — produced every answer,
        // from materializations on the pool when there are workers for it.
        let stats = engine.stats();
        assert_eq!(
            stats.view_full_materializations,
            VIEWS.len() as u64,
            "seed {seed}"
        );
        let pooled = if threads > 1 { VIEWS.len() as u64 } else { 0 };
        assert_eq!(stats.parallel_evals, pooled, "seed {seed}");
        assert_eq!(stats.repair_budget_drops, 0, "seed {seed}");
        assert_eq!(stats.insertion_new_pairs, expected_new_pairs, "seed {seed}");
        support_skips += stats.deletion_support_skips;
    }
    assert!(mutations >= 250, "only {mutations} mutations ran");
    assert!(
        created_nodes >= 20,
        "only {created_nodes} nodes were created inside a batch"
    );
    assert!(
        support_skips >= 3,
        "duplicate edges never reached the support-count path"
    );
}

/// The closure-view fixture of `deletion.rs` (300 nodes, 5 deleted edges,
/// 197 affected sources), with a concatenation view beside it.
fn wide_closure_fixture() -> (QueryEngine, Vec<(NodeId, Symbol, NodeId)>) {
    let abc = Alphabet::from_chars(['a', 'b', 'c']).unwrap();
    let db = random_graph(
        &abc,
        &RandomGraphConfig {
            num_nodes: 300,
            num_edges: 700,
        },
        0x1a9e,
    );
    let mut engine = QueryEngine::new(db);
    engine.register_view("v", regexlang::parse("(a+b)*·c").unwrap());
    engine.register_view("w", regexlang::parse("a·b").unwrap());
    let edges: Vec<Edge> = engine.db().edges().collect();
    let batch = edges
        .iter()
        .step_by(97)
        .take(5)
        .map(|e| (e.from, e.label, e.to))
        .collect();
    (engine, batch)
}

/// The views (by index) that recorded a detail span of `phase`, in order.
fn views_recording(trace: &TraceContext, phase: Phase) -> Vec<u32> {
    trace
        .spans()
        .iter()
        .filter(|s| s.phase == phase)
        .filter_map(|s| s.worker)
        .collect()
}

#[test]
fn a_repair_splices_once_and_counts_exactly_the_pairs_it_adds() {
    let (mut engine, batch) = wide_closure_fixture();
    let lens = |engine: &mut QueryEngine| {
        ["v", "w"].map(|name| engine.view_extension(name).unwrap().len())
    };
    let full = lens(&mut engine);
    assert_eq!(full[0], 20_834);
    let pinned = engine.publish_snapshot();

    // Deletion: a view is spliced at most once, after its re-derivation; the
    // closure view's affected rows are replaced in that one splice.
    let trace = TraceContext::new(1);
    engine
        .try_apply(&WriteRequest::new(Mutation::RemoveEdges(&batch)).traced(&trace))
        .unwrap();
    let shrunk = lens(&mut engine);
    assert_eq!(shrunk[0], 20_132);
    let spliced = views_recording(&trace, Phase::Splice);
    assert!(
        spliced == [0] || spliced == [0, 1],
        "one splice per view at most: {spliced:?}"
    );
    assert_eq!(views_recording(&trace, Phase::Rederive), spliced);
    assert_eq!(
        engine.stats().insertion_new_pairs,
        0,
        "a deletion inserts nothing"
    );

    // Re-insertion: exactly the lost pairs come back, again one splice each.
    let trace = TraceContext::new(2);
    engine
        .try_apply(&WriteRequest::new(Mutation::AddEdges(&batch)).traced(&trace))
        .unwrap();
    assert_eq!(lens(&mut engine), full);
    let spliced = views_recording(&trace, Phase::Splice);
    assert!(
        spliced == [0] || spliced == [0, 1],
        "one splice per view at most: {spliced:?}"
    );
    assert!(views_recording(&trace, Phase::Rederive).is_empty());
    let stats = engine.stats();
    let regained = (full[0] - shrunk[0]) + (full[1] - shrunk[1]);
    assert_eq!(stats.insertion_new_pairs, regained as u64);
    assert!(regained >= 702);
    assert_eq!(
        (stats.view_delta_repairs, stats.view_deletion_repairs),
        (2, 2)
    );
    assert_eq!(
        stats.view_full_materializations, 2,
        "repaired, not re-materialized"
    );

    // Both repairs built new extensions beside the published one.
    assert_eq!(pinned.view_extension("v").unwrap().len(), full[0]);
    assert!(!std::ptr::eq(
        pinned.view_extension("v").unwrap(),
        engine.view_extension("v").unwrap()
    ));
}

/// An insertion whose rectangles are non-empty but add no pair — a parallel
/// copy of an edge the closure view already reads — leaves the view's
/// extension as it was, the same `Arc` at the same address, and gives back
/// the storage it was lent: the next real repair writes into it.
#[test]
fn an_insertion_that_adds_no_pair_keeps_the_extension_and_hands_back_the_spare() {
    let (fixture, batch) = wide_closure_fixture();
    let config = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let mut engine = QueryEngine::with_config(fixture.db().clone(), config);
    engine.register_view("v", regexlang::parse(VIEWS[0].1).unwrap());
    engine.view_extension("v");
    // No snapshot holds the materialized extension, so once the deletion
    // supersedes it, it is the view's spare.
    engine
        .try_apply(&WriteRequest::new(Mutation::RemoveEdges(&batch)))
        .unwrap();

    let nfa = compile(engine.db(), VIEWS[0].1);
    let reverse = nfa.reverse_closed();
    let (csr_out, csr_in) = (engine.db().csr_out(), engine.db().csr_in());
    let copy = engine
        .db()
        .edges()
        .map(|e| (e.from, e.label, e.to))
        .find(|&(from, label, to)| {
            !delta_pairs(&csr_out, &csr_in, &nfa, &reverse, from, label, to).is_empty()
        })
        .expect("some edge lies on a witness");
    let before = engine.stats();
    let held: *const Answer = engine.view_extension("v").unwrap();
    engine
        .try_apply(&WriteRequest::new(Mutation::AddEdges(&[copy])))
        .unwrap();
    let after = engine.stats();
    assert_eq!(
        after.view_delta_repairs,
        before.view_delta_repairs + 1,
        "the repair ran"
    );
    assert!(
        std::ptr::eq(held, engine.view_extension("v").unwrap()),
        "the extension was replaced"
    );
    assert_eq!(after.insertion_new_pairs, before.insertion_new_pairs);
    assert_eq!(
        after.extension_buffer_allocations,
        before.extension_buffer_allocations
    );

    // Putting the deleted batch back is a real repair, into the spare.
    engine
        .try_apply(&WriteRequest::new(Mutation::AddEdges(&batch)))
        .unwrap();
    let stats = engine.stats();
    assert!(stats.insertion_new_pairs > after.insertion_new_pairs);
    assert_eq!(
        stats.extension_buffer_allocations,
        before.extension_buffer_allocations
    );
    let fresh = eval_csr(&engine.db().csr_out(), &nfa);
    assert_eq!(*engine.view_extension("v").unwrap(), fresh);
}

/// A parallel copy of an edge changes no answer, so its insertion opens no
/// writer: with no spare to lend — a snapshot pins the only extension — it
/// allocates nothing either.
#[test]
fn an_insertion_that_adds_no_pair_writes_nothing() {
    let (mut engine, _) = wide_closure_fixture();
    let pinned = engine.publish_snapshot();
    let nfa = compile(engine.db(), "(a+b)*·c");
    let reverse = nfa.reverse_closed();
    let (csr_out, csr_in) = (engine.db().csr_out(), engine.db().csr_in());
    let copy = engine
        .db()
        .edges()
        .map(|e| (e.from, e.label, e.to))
        .find(|&(from, label, to)| {
            !delta_pairs(&csr_out, &csr_in, &nfa, &reverse, from, label, to).is_empty()
        })
        .expect("some edge lies on a witness");
    engine
        .try_apply(&WriteRequest::new(Mutation::AddEdges(&[copy])))
        .unwrap();
    let stats = engine.stats();
    assert_eq!(stats.view_delta_repairs, 2, "both views were repaired");
    assert_eq!(stats.insertion_new_pairs, 0);
    assert_eq!(stats.extension_buffer_allocations, 0, "a writer was opened");
    let held = pinned.view_extension("v").unwrap();
    assert!(std::ptr::eq(held, engine.view_extension("v").unwrap()));
}

/// Up to four distinct triples among every `step`-th edge of `db` that are
/// the only copy of their edge, so none takes the support-count path and the
/// engine sweeps exactly this list.
fn sole_copies(db: &GraphDb, step: usize) -> Vec<(NodeId, Symbol, NodeId)> {
    let mut removed: Vec<(NodeId, Symbol, NodeId)> = Vec::new();
    for e in db.edges().step_by(step) {
        let triple = (e.from, e.label, e.to);
        if removed.len() < 4
            && db.edge_multiplicity(e.from, e.label, e.to) == 1
            && !removed.contains(&triple)
        {
            removed.push(triple);
        }
    }
    removed
}

/// `db` with `batch` removed (`delete`) or inserted.
fn mutated(db: &GraphDb, batch: &[(NodeId, Symbol, NodeId)], delete: bool) -> GraphDb {
    let mut mutated = db.clone();
    for &(from, label, to) in batch {
        if delete {
            assert!(mutated.remove_edge(from, label, to));
        } else {
            mutated.add_edge(from, label, to);
        }
    }
    mutated
}

/// One view's repair alone, at the `engine::delta` level: repairs the answer
/// of `nfa` (reversal `reverse`) on `db` for `batch`, which turned `db` into
/// `mutated`.
fn delta_repair<'a>(
    (db, mutated): (&'a GraphDb, &'a GraphDb),
    nfa: &'a DenseNfa,
    reverse: &'a DenseNfa,
    batch: &'a [(NodeId, Symbol, NodeId)],
    delete: bool,
) -> impl Fn(&mut Answer, &QueryBudget, &SweepState) -> Result<(), SweepInterrupt> + 'a {
    move |pairs, budget, progress| {
        if delete {
            deletion_repair_budgeted(
                &db.csr_out(),
                &db.csr_in(),
                &mutated.csr_out(),
                nfa,
                reverse,
                batch,
                pairs,
                budget,
                progress,
            )
            .map(drop)
        } else {
            insertion_repair_budgeted(
                &mutated.csr_out(),
                &mutated.csr_in(),
                nfa,
                reverse,
                batch,
                pairs,
                budget,
                progress,
            )
            .map(drop)
        }
    }
}

/// The visit totals at which a repair notices a cap, learned by raising the
/// cap to the count each trip was noticed at (so the next run passes that
/// check and trips at the one after) until the repair completes.  `repair`
/// runs it on a copy of the pre-mutation answer, which a trip must leave
/// untouched.
fn caps_tripping_every_check(
    old: &Answer,
    repair: impl Fn(&mut Answer, &QueryBudget, &SweepState) -> Result<(), SweepInterrupt>,
) -> Vec<u64> {
    let (mut caps, mut cap) = (Vec::new(), 0);
    loop {
        let (budget, progress) = (QueryBudget::unlimited().max_visited(cap), SweepState::new());
        let mut pairs = old.clone();
        match repair(&mut pairs, &budget, &progress) {
            Ok(()) => return caps,
            Err(why) => {
                assert_eq!(why, SweepInterrupt::VisitLimit);
                assert_eq!(
                    pairs, *old,
                    "cap {cap}: an interrupted repair wrote to its input"
                );
                assert!(progress.visited() > cap);
                caps.push(cap);
                cap = progress.visited();
            }
        }
    }
}

#[test]
fn a_budget_tripped_at_every_check_drops_the_extension_and_the_next_read_heals() {
    let (mut insertion_trips, mut deletion_trips, mut rederivation_trips) = (0, 0, 0);
    // Small graphs under every view, plus one closure view wide enough that
    // re-derivation itself is checked several times.  The sizes follow the
    // compile funnel: a merged position automaton has fewer transitions than
    // a Thompson one (so a batch starts fewer delta sweeps, each one charge)
    // and its sweeps expand ~3× fewer product states (so the closure view
    // needs 600 nodes, not 150, to re-derive past several check intervals).
    // A delta sweep seeded at a state that reads no label — in the query or
    // in its reversal — expands nothing and charges nothing, so it is no
    // check: 14 small seeds give ~110 checks per direction.
    let small = (0..14u64).flat_map(|seed| VIEWS.map(|(_, view)| (24usize, seed, view)));
    for (nodes, seed, view) in small.chain([(600, 9, VIEWS[0].1)]) {
        let db = named_random_db(nodes, nodes * 5 / 2, seed ^ 0x1e57);
        let nfa = compile(&db, view);
        let reverse = nfa.reverse_closed();
        let mut rng = StdRng::seed_from_u64(seed * 7 + 1);
        let label = |rng: &mut StdRng| Symbol(rng.gen_range(0..4));
        let inserted: Vec<(NodeId, Symbol, NodeId)> = (0..4)
            .map(|_| {
                (
                    rng.gen_range(0..nodes),
                    label(&mut rng),
                    rng.gen_range(0..nodes),
                )
            })
            .collect();
        let removed = sole_copies(&db, 7);

        for (batch, delete) in [(&inserted, false), (&removed, true)] {
            let mutated = mutated(&db, batch, delete);
            let old = eval_csr(&db.csr_out(), &nfa);
            let fresh = eval_csr(&mutated.csr_out(), &nfa);
            let repair = delta_repair((&db, &mutated), &nfa, &reverse, batch, delete);
            let caps = caps_tripping_every_check(&old, repair);

            // Replay every trip — and one cap that lets the repair finish —
            // through the engine: one view, one worker, so its repair
            // charges the same visits in the same order.
            let roomy = u64::MAX;
            for &cap in caps.iter().chain([&roomy]) {
                let config = EngineConfig {
                    threads: 1,
                    ..EngineConfig::default()
                };
                let mut engine = QueryEngine::with_config(db.clone(), config);
                engine.register_view("v", regexlang::parse(view).unwrap());
                let pinned = engine.publish_snapshot();
                let budget = QueryBudget::unlimited().max_visited(cap);
                let mutation = if delete {
                    Mutation::RemoveEdges(batch)
                } else {
                    Mutation::AddEdges(batch)
                };
                engine
                    .try_apply(&WriteRequest::new(mutation).budget(budget))
                    .unwrap();
                let context = format!("{view} on seed {seed}, delete {delete}, cap {cap}");
                let tripped = cap != roomy;
                let stats = engine.stats();
                if delete && nodes == 600 && !tripped {
                    // More than one chunk is re-derived, so the trips
                    // replayed include ones between chunks.
                    assert!(stats.deletion_rederived_sources > LANES as u64, "{context}");
                }
                assert_eq!(stats.repair_budget_drops, u64::from(tripped), "{context}");
                assert_eq!(stats.view_full_materializations, 1, "{context}");
                // Dropped, not half-repaired: the read after a trip starts
                // from scratch, the one after a completed repair does not.
                assert_eq!(*engine.view_extension("v").unwrap(), fresh, "{context}");
                let rematerialized = engine.stats().view_full_materializations - 1;
                assert_eq!(rematerialized, u64::from(tripped), "{context}");
                assert_eq!(*pinned.view_extension("v").unwrap(), old, "{context}");
            }
            match (delete, nodes) {
                (false, _) => insertion_trips += caps.len(),
                // Trips past the delta sweeps: one per check interval of the
                // re-derivation sweep.
                (true, 600) => {
                    rederivation_trips += caps
                        .iter()
                        .filter(|&&cap| cap > SWEEP_CHECK_INTERVAL)
                        .count()
                }
                (true, _) => deletion_trips += caps.len(),
            }
        }
    }
    assert!(
        insertion_trips >= 100,
        "only {insertion_trips} insertion checks were tripped"
    );
    assert!(
        deletion_trips >= 100,
        "only {deletion_trips} deletion checks were tripped"
    );
    assert!(
        rederivation_trips >= 4,
        "only {rederivation_trips} trips inside a re-derivation"
    );
}

/// A deletion whose budget trips inside the re-derivation drops the view's
/// extension, but the storage its writer had opened is not lost: it becomes
/// the view's spare.  The publish after it re-materializes the view, and the
/// insertion that puts the batch back writes into that spare — the old
/// extension's length fits it — so no repair of the script allocates.
#[test]
fn an_interrupted_repair_leaves_its_storage_to_the_next_one() {
    let (nodes, view) = (600, VIEWS[0].1);
    let db = named_random_db(nodes, nodes * 5 / 2, 9 ^ 0x1e57);
    let nfa = compile(&db, view);
    let reverse = nfa.reverse_closed();
    let removed = sole_copies(&db, 7);
    let shrunk = mutated(&db, &removed, true);
    let old = eval_csr(&db.csr_out(), &nfa);
    let repair = delta_repair((&db, &shrunk), &nfa, &reverse, &removed, true);
    // The last check a repair reaches lies past the delta sweeps: the
    // re-derivation runs over several check intervals.
    let cap = *caps_tripping_every_check(&old, repair).last().unwrap();
    assert!(cap > SWEEP_CHECK_INTERVAL, "cap {cap}");

    let config = EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    };
    let mut engine = QueryEngine::with_config(db.clone(), config);
    engine.register_view("v", regexlang::parse(view).unwrap());
    let pinned = engine.publish_snapshot();
    let trace = TraceContext::new(1);
    let budget = QueryBudget::unlimited().max_visited(cap);
    engine
        .try_apply(
            &WriteRequest::new(Mutation::RemoveEdges(&removed))
                .budget(budget)
                .traced(&trace),
        )
        .unwrap();
    assert_eq!(views_recording(&trace, Phase::Rederive), [0], "tripped re-deriving");
    let stats = engine.stats();
    assert_eq!(stats.repair_budget_drops, 1);
    assert_eq!(stats.extension_buffer_allocations, 0, "an interrupted repair is not counted");

    engine.publish_snapshot();
    assert_eq!(engine.stats().view_full_materializations, 2, "the publish re-materialized");
    engine
        .try_apply(&WriteRequest::new(Mutation::AddEdges(&removed)))
        .unwrap();
    let stats = engine.stats();
    assert!(stats.insertion_new_pairs > 0 && stats.view_delta_repairs == 1);
    assert_eq!(stats.extension_buffer_allocations, 0, "the re-insertion allocated");
    assert_eq!(*engine.view_extension("v").unwrap(), old);
    assert_eq!(*pinned.view_extension("v").unwrap(), old);
}

/// Three views repaired under one visit cap that the second view's repair
/// trips.  Repairs run in registration order and share one `SweepState`, so
/// the trip is deterministic: the first view keeps its repair, the second
/// loses its extension, and so does the third, whose repair finds the budget
/// spent at its first poll.  The cap is exactly the visits of the first
/// view's repair, learned alone at the `engine::delta` level, so the second
/// view's first delta sweep that charges any passes it.
#[test]
fn a_budget_tripped_partway_through_a_batch_drops_the_views_not_yet_repaired() {
    let views = [("closure", VIEWS[0].1), ("concat", VIEWS[1].1), ("star", VIEWS[3].1)];
    let nodes = 60;
    let db = named_random_db(nodes, nodes * 5 / 2, 0x7a1d);
    let nfas: Vec<Arc<DenseNfa>> = views.iter().map(|(_, view)| compile(&db, view)).collect();
    let mut rng = StdRng::seed_from_u64(0x7a1d);
    // Labels `a`, `b`, `c`, `a`: every view reads some edge of the batch.
    let inserted: Vec<(NodeId, Symbol, NodeId)> = [0, 1, 2, 0]
        .map(|label| (rng.gen_range(0..nodes), Symbol(label), rng.gen_range(0..nodes)))
        .to_vec();
    let removed = sole_copies(&db, 5);

    for (batch, delete) in [(&inserted, false), (&removed, true)] {
        let mutated = mutated(&db, batch, delete);
        let visits: Vec<u64> = nfas
            .iter()
            .map(|nfa| {
                let (budget, progress) = (QueryBudget::unlimited(), SweepState::new());
                let (reverse, mut pairs) = (nfa.reverse_closed(), eval_csr(&db.csr_out(), nfa));
                let repair = delta_repair((&db, &mutated), nfa, &reverse, batch, delete);
                assert_eq!(repair(&mut pairs, &budget, &progress), Ok(()));
                progress.visited()
            })
            .collect();
        let context = format!("delete {delete}, visits {visits:?}");
        assert!(visits[0] > 0 && visits[1] > 0, "{context}");

        let mut engine = QueryEngine::new(db.clone());
        for (name, view) in views {
            engine.register_view(name, regexlang::parse(view).unwrap());
            engine.view_extension(name);
        }
        let budget = QueryBudget::unlimited().max_visited(visits[0]);
        let mutation = if delete {
            Mutation::RemoveEdges(batch)
        } else {
            Mutation::AddEdges(batch)
        };
        engine
            .try_apply(&WriteRequest::new(mutation).budget(budget))
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.repair_budget_drops, 2, "{context}");
        assert_eq!(stats.view_full_materializations, 3, "{context}");
        // Read back in order: the first view is served as repaired, each
        // dropped one is materialized again.
        for (at, ((name, view), nfa)) in views.iter().zip(&nfas).enumerate() {
            let fresh = eval_csr(&mutated.csr_out(), nfa);
            assert_eq!(*engine.view_extension(name).unwrap(), fresh, "{context}: view {view}");
            let rematerialized = engine.stats().view_full_materializations - 3;
            assert_eq!(rematerialized, at as u64, "{context}: view {view}");
        }
    }
}

/// A stationary script — the same batch removed and put back, over and over,
/// each mutation published — reaches a steady state in which no repair
/// allocates its extension: each writes into the storage of one its view
/// superseded that no snapshot holds any more.  When readers hold the last
/// `pins` published snapshots, the first `pins + 1` repairs of a view find
/// nothing to reclaim; from then on the oldest pinned extension is free at
/// every repair, and what a deletion leaves has room for the insertion after
/// it.
#[test]
fn a_stationary_script_repairs_into_recycled_extensions() {
    for pins in [0, 4] {
        let (engine, batch) = wide_closure_fixture();
        let config = EngineConfig { threads: 1, ..EngineConfig::default() };
        let mut engine = QueryEngine::with_config(engine.db().clone(), config);
        for (name, view) in VIEWS {
            engine.register_view(name, regexlang::parse(view).unwrap());
        }
        let mut pinned = VecDeque::from([engine.publish_snapshot()]);
        let mut step = 0;
        let mut mutate = |engine: &mut QueryEngine| {
            let mutation = if step % 2 == 0 {
                Mutation::RemoveEdges(&batch)
            } else {
                Mutation::AddEdges(&batch)
            };
            // A reader lets go of its oldest snapshot as it takes the next.
            while pinned.len() > pins {
                pinned.pop_front();
            }
            engine.try_apply(&WriteRequest::new(mutation)).unwrap();
            pinned.push_back(engine.publish_snapshot());
            step += 1;
        };
        for _ in 0..pins + 2 {
            mutate(&mut engine);
        }
        let warm = engine.stats().extension_buffer_allocations;
        assert!(warm > 0, "pins {pins}: the first repairs allocate");
        for _ in 0..20 {
            mutate(&mut engine);
        }
        let stats = engine.stats();
        assert_eq!(
            stats.extension_buffer_allocations - warm,
            0,
            "pins {pins}: a steady-state repair allocated"
        );
        assert!(stats.view_deletion_repairs >= 10 && stats.view_delta_repairs >= 10);
        assert_eq!(stats.view_full_materializations, VIEWS.len() as u64);
        assert_extensions_exact(&mut engine, &format!("pins {pins}"));
    }
}
