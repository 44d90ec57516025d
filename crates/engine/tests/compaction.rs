//! Answer-cache compaction once a long-pinned revision retires.
//!
//! Stale answers are normally evicted lazily (on lookup, or preferentially
//! under capacity pressure).  A reader pinned at an old revision defeats
//! both paths: nobody looks its fingerprints up again and the cache may
//! never reach capacity — its entries would squat in the shared map until
//! process exit.  A `publish_snapshot()` at a newer revision compacts every
//! entry below the revision of the snapshot it replaces, so that snapshot's
//! readers keep hitting and older ones go; the pinned reader stays fully
//! serviceable (it recomputes instead of hitting cache).

use automata::Alphabet;
use engine::QueryEngine;
use graphdb::GraphDb;

fn abc() -> Alphabet {
    Alphabet::from_chars(['a', 'b']).unwrap()
}

fn seeded_engine() -> QueryEngine {
    let mut db = GraphDb::new(abc());
    db.add_edge_named("n0", "a", "n1");
    db.add_edge_named("n1", "b", "n2");
    QueryEngine::new(db)
}

/// The writer compacts retired-revision answers exactly when the snapshot
/// that replaced theirs is itself replaced, and the pinned reader still
/// answers correctly (differentially against a from-scratch evaluation)
/// afterward.
#[test]
fn retired_pinned_answers_are_compacted_on_publish() {
    let mut engine = seeded_engine();

    // Revision 0: a pinned reader caches an answer.
    let pinned = engine.publish_snapshot();
    let pinned_answer = (*pinned.eval_str("a·b*")).clone();
    assert_eq!(engine.answer_cache_len(), 1);

    // One mutation: the publish replaces revision 0's snapshot, whose
    // readers may still hit — it must NOT compact the pinned entry.
    engine.add_edge_named("n2", "a", "n0");
    engine.publish_snapshot();
    assert_eq!(engine.stats().answer_compactions, 0);
    assert_eq!(engine.answer_cache_len(), 1);

    // Second mutation: the publish replaces revision 1's snapshot; revision
    // 0 retires and its cached answer is compacted away.
    engine.add_edge_named("n0", "b", "n2");
    engine.publish_snapshot();
    assert_eq!(engine.stats().answer_compactions, 1);
    assert_eq!(engine.answer_cache_len(), 0);

    // The pinned reader is unaffected semantically: same revision, same
    // answer — recomputed rather than served from cache.
    assert_eq!(pinned.revision(), 0);
    assert_eq!(*pinned.eval_str("a·b*"), pinned_answer);

    // Its recomputed answer re-enters the cache tagged with revision 0 and
    // is swept again by the next publish.
    assert_eq!(engine.answer_cache_len(), 1);
    engine.add_edge_named("n1", "a", "n2");
    engine.publish_snapshot();
    assert_eq!(engine.stats().answer_compactions, 2);
}

/// Live answers survive compaction: the current revision's and those of
/// the snapshot a publish replaces, whose readers keep hitting.  A publish
/// that builds nothing new compacts nothing.
#[test]
fn live_answers_survive_compaction() {
    let mut engine = seeded_engine();

    engine.publish_snapshot().eval_str("a");
    engine.add_edge_named("n2", "a", "n0");
    let replaced = engine.publish_snapshot();
    replaced.eval_str("b");
    assert_eq!(engine.answer_cache_len(), 2);
    assert_eq!(engine.stats().answer_compactions, 0);

    // Revision 0 retires; revision 1's entry stays and still serves.
    engine.add_edge_named("n0", "b", "n2");
    let now = engine.publish_snapshot();
    assert_eq!(engine.stats().answer_compactions, 1);
    assert_eq!(engine.answer_cache_len(), 1);
    let hits = engine.stats().answer_hits;
    replaced.eval_str("b");
    assert_eq!(engine.stats().answer_hits, hits + 1, "the replaced snapshot's reader hits");

    now.eval_str("a");
    assert_eq!(engine.answer_cache_len(), 2);
    // Re-publishing at the same revision reuses the snapshot and must leave
    // the live entries alone.
    engine.publish_snapshot();
    assert_eq!(engine.answer_cache_len(), 2);
    assert_eq!(engine.stats().answer_compactions, 1);
}
