//! Concurrency stress suite for the writer/snapshot split: N reader
//! threads evaluate a mixed query workload against published snapshots
//! while the writer streams edge insertions — and every reader's answers
//! must be *exactly* the answers at its snapshot's revision, pinned by a
//! differential replay on a sequential engine.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use automata::Alphabet;
use engine::{EngineConfig, EngineSnapshot, Mutation, QueryEngine, WriteRequest};
use graphdb::{eval_str, random_graph, Answer, GraphDb, MaterializedViews, RandomGraphConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regexlang::{random_regex, RandomRegexConfig, Regex};

const READERS: usize = 4;

fn abc() -> Alphabet {
    Alphabet::from_chars(['a', 'b', 'c']).unwrap()
}

fn mixed_queries(domain: &Alphabet, seed: u64) -> Vec<Regex> {
    (0..6)
        .map(|i| {
            random_regex(
                domain,
                &RandomRegexConfig {
                    target_size: 8,
                    ..Default::default()
                },
                seed * 131 + i,
            )
        })
        .collect()
}

fn edge_batches(domain: &Alphabet, nodes: usize, batches: usize, seed: u64) -> Vec<Vec<(usize, automata::Symbol, usize)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batches)
        .map(|_| {
            (0..3)
                .map(|_| {
                    (
                        rng.gen_range(0..nodes),
                        automata::Symbol(rng.gen_range(0..domain.len()) as u32),
                        rng.gen_range(0..nodes),
                    )
                })
                .collect()
        })
        .collect()
}

/// The handle type really is shareable: `Arc<EngineSnapshot>` crosses
/// threads, and so does a `&EngineSnapshot` borrowed into a scope.
#[test]
fn engine_snapshot_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<Arc<EngineSnapshot>>();
}

/// The acceptance test of the split: ≥ 4 reader threads evaluate a mixed
/// regex workload against whatever snapshots have been published so far,
/// *while* the writer thread keeps inserting edge batches and publishing
/// new revisions.  Expected answers per (revision, query) come from a
/// sequential replay on an independent engine; any reader observing a
/// torn/mixed-revision answer fails the differential comparison.
#[test]
fn concurrent_readers_match_sequential_replay_at_every_revision() {
    let domain = abc();
    let db = random_graph(
        &domain,
        &RandomGraphConfig {
            num_nodes: 40,
            num_edges: 120,
        },
        0xc0ffee,
    );
    let queries = mixed_queries(&domain, 7);
    let batches = edge_batches(&domain, db.num_nodes(), 6, 0xfeed);

    // Sequential replay: expected[r][q] = answer of query q at revision r.
    let mut expected: Vec<Vec<Answer>> = Vec::new();
    {
        let mut replay = QueryEngine::with_config(
            db.clone(),
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
        );
        replay.register_view("va", regexlang::parse("a·b*").unwrap());
        let mut answers = |replay: &mut QueryEngine| {
            let snapshot = replay.publish_snapshot();
            expected.push(queries.iter().map(|q| (*snapshot.eval_regex(q)).clone()).collect());
        };
        for batch in &batches {
            answers(&mut replay);
            replay.try_apply(&WriteRequest::new(Mutation::AddEdges(batch))).unwrap();
        }
        answers(&mut replay);
    }

    // Concurrent run: the writer streams the same batches and publishes a
    // snapshot per revision; readers hammer the published snapshots.
    let mut engine = QueryEngine::new(db);
    engine.register_view("va", regexlang::parse("a·b*").unwrap());
    let published: Mutex<Vec<Arc<EngineSnapshot>>> = Mutex::new(vec![engine.publish_snapshot()]);
    let writer_done = AtomicBool::new(false);
    let checks = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let published = &published;
        let writer_done = &writer_done;
        let checks = &checks;
        let queries = &queries;
        let expected = &expected;
        let batches = &batches;

        scope.spawn(move || {
            for batch in batches {
                engine.try_apply(&WriteRequest::new(Mutation::AddEdges(batch))).unwrap();
                published
                    .lock()
                    .expect("snapshot list poisoned")
                    .push(engine.publish_snapshot());
            }
            writer_done.store(true, Ordering::Release);
        });

        for reader in 0..READERS {
            scope.spawn(move || {
                let mut rounds = 0usize;
                loop {
                    let done = writer_done.load(Ordering::Acquire);
                    let snapshots: Vec<Arc<EngineSnapshot>> =
                        published.lock().expect("snapshot list poisoned").clone();
                    for snapshot in &snapshots {
                        let revision = snapshot.revision() as usize;
                        // Rotate the workload per reader so different
                        // readers hit different (snapshot, query) pairs at
                        // the same moment.
                        for (i, _) in queries.iter().enumerate() {
                            let q = &queries[(i + reader) % queries.len()];
                            let got = snapshot.eval_regex(q);
                            let want =
                                &expected[revision][(i + reader) % queries.len()];
                            assert_eq!(
                                &*got, want,
                                "reader {reader} diverged at revision {revision} on {q}"
                            );
                            checks.fetch_add(1, Ordering::Relaxed);
                        }
                        // The captured view extension is the revision's, too.
                        let ext = snapshot.view_extension("va").expect("registered");
                        assert_eq!(
                            ext.len(),
                            snapshot.eval_str("a·b*").len(),
                            "reader {reader}: stale or torn view extension at {revision}"
                        );
                    }
                    rounds += 1;
                    // Keep reading while the writer is alive, then do one
                    // final pass over the complete snapshot history.
                    if done && snapshots.len() == batches.len() + 1 {
                        break;
                    }
                    assert!(rounds < 1_000_000, "reader {reader} spun without progress");
                }
            });
        }
    });

    let snapshots = published.into_inner().expect("snapshot list poisoned");
    assert_eq!(snapshots.len(), batches.len() + 1, "one snapshot per revision");
    // Every revision was differentially checked by every reader at least
    // once (the final full pass guarantees it even on a slow machine).
    assert!(
        checks.load(Ordering::Relaxed) >= READERS * snapshots.len() * queries.len(),
        "only {} differential checks ran",
        checks.load(Ordering::Relaxed)
    );
}

/// Snapshots are immutable: a reader holding an old handle keeps getting
/// the old revision's answers even after the writer has repaired its view
/// extensions (copy-on-write) many times over.
#[test]
fn pinned_snapshot_answers_survive_many_writer_repairs() {
    let domain = abc();
    let mut db = GraphDb::new(domain.clone());
    db.add_edge_named("n0", "a", "n1");
    db.add_edge_named("n1", "b", "n2");
    let mut engine = QueryEngine::new(db);
    engine.register_view("v", regexlang::parse("a·b*").unwrap());
    engine.view_extension("v");

    let snapshot = engine.publish_snapshot();
    let pinned_eval = (*snapshot.eval_str("a·b*")).clone();
    let pinned_ext = snapshot.view_extension("v").unwrap().clone();

    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..10 {
        let from = rng.gen_range(0..3);
        let to = rng.gen_range(0..3);
        engine.add_edge(from, automata::Symbol(rng.gen_range(0..domain.len()) as u32), to);
    }
    // Writer moved on 10 revisions; the pinned handle did not.
    assert_eq!(engine.revision(), 10);
    assert_eq!(snapshot.revision(), 0);
    assert_eq!(*snapshot.eval_str("a·b*"), pinned_eval);
    assert_eq!(*snapshot.view_extension("v").unwrap(), pinned_ext);
    // And the writer's current snapshot sees the repaired state.
    let now = engine.publish_snapshot();
    assert_eq!(
        *now.view_extension("v").unwrap(),
        graphdb::eval_str(engine.db(), "a·b*")
    );
    assert!(now.view_extension("v").unwrap().len() >= pinned_ext.len());
}

/// What a reader of [`pinned_extensions_are_never_recycled_into_later_revisions`]
/// keeps of a revision: the whole snapshot, or only its views.
enum Pinned {
    Snapshot(Arc<EngineSnapshot>),
    Views(u64, Arc<MaterializedViews>),
}

impl Pinned {
    fn revision(&self) -> usize {
        match self {
            Pinned::Snapshot(snapshot) => snapshot.revision() as usize,
            Pinned::Views(revision, _) => *revision as usize,
        }
    }

    fn extension(&self, view: &str) -> &Answer {
        match self {
            Pinned::Snapshot(snapshot) => snapshot.view_extension(view),
            Pinned::Views(_, views) => views.extension(view),
        }
        .expect("registered")
    }
}

/// A repair writes into the storage of an extension its view superseded —
/// but only of one nothing holds any more.  The writer removes and re-adds
/// one batch (so every mutation changes every view), for seven mutations;
/// two reader threads get every snapshot, hold it while two more are
/// published, and then pin whole snapshots (reader 0, every third revision)
/// or only their `materialized_views()` (reader 1, the revisions after
/// those) and drop the rest, whose storage the writer reclaims.  Every pinned extension must
/// still be its revision's exact answer, and none may share its buffer with
/// a later revision's extension.
#[test]
fn pinned_extensions_are_never_recycled_into_later_revisions() {
    const VIEWS: [&str; 3] = ["a·b*", "(a+b)*·c", "c·a"];
    let domain = abc();
    let db = random_graph(&domain, &RandomGraphConfig { num_nodes: 60, num_edges: 150 }, 0x5eed);
    let batch: Vec<(usize, automata::Symbol, usize)> =
        db.edges().step_by(10).take(6).map(|e| (e.from, e.label, e.to)).collect();
    let config = EngineConfig { threads: 2, ..EngineConfig::default() };
    let mut engine = QueryEngine::with_config(db, config);
    for view in VIEWS {
        engine.register_view(view, regexlang::parse(view).unwrap());
    }
    let mutations = 7;
    // Per revision: each view's exact extension, and where the published
    // one's pairs live.
    let mut expected: Vec<[Answer; 3]> = Vec::new();
    let mut buffers: Vec<[usize; 3]> = Vec::new();

    let pinned: Vec<Pinned> = std::thread::scope(|scope| {
        let (acks, acked) = mpsc::channel::<()>();
        let readers: Vec<_> = (0..2u64)
            .map(|reader| {
                let (send, snapshots) = mpsc::channel::<Arc<EngineSnapshot>>();
                let acks = acks.clone();
                let handle = scope.spawn(move || {
                    let (mut held, mut kept) = (VecDeque::new(), Vec::new());
                    for snapshot in snapshots {
                        held.push_back(snapshot);
                        while held.len() > 2 {
                            let snapshot: Arc<EngineSnapshot> = held.pop_front().unwrap();
                            let revision = snapshot.revision();
                            match (reader, revision % 3) {
                                (0, 0) => kept.push(Pinned::Snapshot(snapshot)),
                                (1, 1) => {
                                    let views = snapshot.materialized_views();
                                    kept.push(Pinned::Views(revision, views))
                                }
                                _ => drop(snapshot),
                            }
                        }
                        acks.send(()).unwrap();
                    }
                    kept.extend(held.into_iter().map(Pinned::Snapshot));
                    kept
                });
                (send, handle)
            })
            .collect();
        for step in 0..=mutations {
            if step > 0 {
                let mutation = if step % 2 == 1 {
                    Mutation::RemoveEdges(&batch)
                } else {
                    Mutation::AddEdges(&batch)
                };
                engine.try_apply(&WriteRequest::new(mutation)).unwrap();
            }
            let snapshot = engine.publish_snapshot();
            expected.push(VIEWS.map(|view| eval_str(engine.db(), view)));
            let buffer = |view| snapshot.view_extension(view).unwrap().as_slice().as_ptr() as usize;
            buffers.push(VIEWS.map(buffer));
            for (send, _) in &readers {
                send.send(snapshot.clone()).unwrap();
            }
            // Both readers have let go of what they drop before the next
            // repair reclaims.
            drop(snapshot);
            for _ in &readers {
                acked.recv().unwrap();
            }
        }
        readers.into_iter().flat_map(|(send, handle)| {
            drop(send);
            handle.join().expect("reader panicked")
        }).collect()
    });

    // Every mutation changes every view, so no two revisions share an
    // extension legitimately.
    for (revision, pair) in expected.windows(2).enumerate() {
        for (v, view) in VIEWS.iter().enumerate() {
            assert!(!pair[0][v].is_empty(), "{view} is empty at revision {revision}");
            assert_ne!(pair[0][v], pair[1][v], "{view} did not change after revision {revision}");
        }
    }
    assert!(pinned.iter().any(|p| matches!(p, Pinned::Views(..))));
    for pinned in &pinned {
        let at = pinned.revision();
        for (v, view) in VIEWS.iter().enumerate() {
            let held = pinned.extension(view);
            assert_eq!(*held, expected[at][v], "{view}: pinned revision {at} changed");
            let buffer = held.as_slice().as_ptr() as usize;
            assert_eq!(buffer, buffers[at][v]);
            for (later, buffers) in buffers.iter().enumerate().skip(at + 1) {
                assert_ne!(buffer, buffers[v], "{view}: revision {later} reused revision {at}'s buffer");
            }
        }
    }
    // The writer did recycle: fewer repairs allocated than ran.
    let stats = engine.stats();
    let repairs = stats.view_deletion_repairs + stats.view_delta_repairs;
    assert_eq!(repairs, (VIEWS.len() * mutations) as u64);
    assert!(
        stats.extension_buffer_allocations < repairs,
        "{} of {repairs} repairs allocated",
        stats.extension_buffer_allocations
    );
}

/// Concurrent readers of one snapshot share the answer cache: the first
/// evaluation of each distinct query is a miss, every other thread's
/// lookup is a hit, and hits return the *same* `Arc` allocation.
#[test]
fn readers_share_answer_cache_hits_without_blocking() {
    let domain = abc();
    let db = random_graph(
        &domain,
        &RandomGraphConfig {
            num_nodes: 30,
            num_edges: 90,
        },
        42,
    );
    let mut engine = QueryEngine::new(db);
    let snapshot = engine.publish_snapshot();
    let queries = mixed_queries(&domain, 3);

    let answers: Vec<Vec<Arc<Answer>>> = std::thread::scope(|scope| {
        (0..READERS)
            .map(|_| {
                let snapshot = snapshot.clone();
                let queries = &queries;
                scope.spawn(move || {
                    queries.iter().map(|q| snapshot.eval_regex(q)).collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|w| w.join().expect("reader panicked"))
            .collect()
    });
    for worker in &answers[1..] {
        for (a, b) in answers[0].iter().zip(worker) {
            assert!(Arc::ptr_eq(a, b), "readers must converge on one cached answer");
        }
    }
    let stats = engine.stats();
    assert_eq!(
        stats.answer_hits + stats.answer_misses,
        (READERS * queries.len()) as u64
    );
    assert!(
        stats.answer_misses >= queries.len() as u64,
        "each distinct query evaluated at least once"
    );
}

/// Point reads share the engine's scratch pools across threads and across
/// snapshots of different sizes: four readers issue single-source and pair
/// lookups that all miss (the point caches are off) against snapshots
/// pinned between `add_node` / `add_edge` batches, so every sweep re-aims a
/// scratch last used on another thread, query or node count.  Every reply
/// is the full answer's, and no more than one scratch of each kind per
/// reader is ever allocated.
#[test]
fn pooled_point_scratches_serve_readers_at_every_revision() {
    let domain = abc();
    let db = random_graph(&domain, &RandomGraphConfig { num_nodes: 24, num_edges: 70 }, 0x9001);
    let config =
        EngineConfig { threads: READERS, answer_cache_capacity: 0, ..EngineConfig::default() };
    let mut engine = QueryEngine::with_config(db, config);
    let cycle = format!("({})*", vec!["a"; 65].join("·"));
    let queries = ["a·b*", "(a+b)*·c", "c*", cycle.as_str(), "a·(b+c)*·a"];
    let (a, c) = (domain.symbol("a").unwrap(), domain.symbol("c").unwrap());

    // (snapshot, one full answer per query at its revision)
    let mut revisions = Vec::new();
    for round in 0..4usize {
        let snapshot = engine.publish_snapshot();
        let answers: Vec<Answer> = queries.iter().map(|q| eval_str(engine.db(), q)).collect();
        revisions.push((snapshot, answers));
        for _ in 0..5 + 10 * round {
            let node = engine.add_node();
            engine.add_edge(node - 1, if node.is_multiple_of(3) { c } else { a }, node);
        }
    }
    let sizes: Vec<usize> = revisions.iter().map(|(s, _)| s.num_nodes()).collect();
    assert!(sizes.windows(2).all(|w| w[0] < w[1]), "|V| per revision: {sizes:?}");

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (revisions, queries) = (&revisions, &queries);
            scope.spawn(move || {
                for i in 0..120usize {
                    // Readers walk the revisions in different orders.
                    let (snapshot, answers) = &revisions[(i + reader) % revisions.len()];
                    let q = i % queries.len();
                    let (query, answer) = (queries[q], &answers[q]);
                    let n = snapshot.num_nodes();
                    let (source, target) = ((i * 7 + reader) % n, (i * 11 + 3) % n);
                    if (i + reader) % 2 == 0 {
                        let got = snapshot.eval_from_str(query, source, None);
                        let want: Vec<usize> =
                            answer.iter().filter(|&&(x, _)| x == source).map(|&(_, y)| y).collect();
                        assert_eq!(got.targets, want, "reader {reader}: {query} from {source}");
                    } else {
                        let got = snapshot.eval_pair_str(query, source, target);
                        let want = answer.contains(&(source, target));
                        assert_eq!(got, want, "reader {reader}: {query} ({source}, {target})");
                    }
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.from_evals + stats.pair_evals, (READERS * 120) as u64, "every lookup swept");
    let allocated = stats.point_scratch_allocations;
    assert!((1..=2 * READERS as u64).contains(&allocated), "{allocated} scratches allocated");
}
