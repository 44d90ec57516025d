//! The engine's one revision-tagged cache.
//!
//! [`RevCache<K, V>`] maps a key to a value valid at exactly one database
//! revision, bounded by an LRU capacity.  The engine shares three instances
//! between the writer and every snapshot: ad-hoc answers keyed by query
//! fingerprint, complete single-source target lists keyed by
//! `(query fingerprint, source node)`, and — inside [`crate::CompileCache`],
//! every entry at one fixed revision — compiled automata keyed by query
//! fingerprint.
//!
//! Values are served **only on an exact revision match**, which is what makes
//! non-monotone mutation safe: a deletion bumps the revision like an
//! insertion does, so a value that *shrank* can never be served from the old
//! entry, nor the shrunken one to a reader pinned at the old revision.
//! Entries are not cleared on mutation (pinned snapshots may still be serving
//! them); staleness is **directional**, because revisions are monotone:
//!
//! * a lookup that finds an *older* entry evicts it; a *newer* one is another
//!   reader's live value — it is left resident and the lookup misses,
//! * an insertion never displaces a newer entry for its key (the caller keeps
//!   its value uncached), and capacity eviction prefers older entries,
//! * a publish at a newer revision calls [`RevCache::compact_older_than`]
//!   with the revision of the snapshot it replaces, so that snapshot's
//!   readers keep hitting and every older entry goes —
//!
//! so stale entries never displace a live one, and a reader pinned at an
//! old revision can never thrash values current readers hit.
//!
//! Lookups take the read lock and bump the entry's atomic LRU clock; only
//! insertions and evictions take the write lock.  Poison is recovered on
//! every method: an entry is only ever inserted or removed whole under the
//! guard, so a thread that panicked holding it cannot have torn the map.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use automata::FxHashMap;

use crate::stats::bump;

#[derive(Debug)]
struct Entry<V> {
    revision: u64,
    /// Atomic, so a read-locked lookup can bump it without the write lock.
    last_used: AtomicU64,
    value: Arc<V>,
}

/// A concurrent, revision-tagged, LRU-bounded cache (see the module docs for
/// the revision and eviction protocol).
#[derive(Debug)]
pub(crate) struct RevCache<K, V> {
    capacity: usize,
    tick: AtomicU64,
    map: RwLock<FxHashMap<K, Entry<V>>>,
    /// Lookups served at the exact revision.
    pub hits: AtomicU64,
    /// Lookups that found no exact-revision entry.
    pub misses: AtomicU64,
    /// Entries displaced by the capacity bound.
    pub evictions: AtomicU64,
    /// Older-revision entries removed by a lookup.
    pub stale_evictions: AtomicU64,
    /// Entries removed by [`RevCache::compact_older_than`].
    pub compactions: AtomicU64,
}

impl<K: Copy + Eq + Hash, V> RevCache<K, V> {
    // ordering: Relaxed throughout this impl — the LRU tick and last_used
    // stamps only bias victim selection (an approximate clock is fine), and
    // the hit/miss/eviction tallies are monotone statistics.  Values are
    // published through the map's RwLock, never through these atomics.

    /// An empty cache holding at most `capacity` entries; `0` disables
    /// caching entirely.
    pub fn new(capacity: usize) -> Self {
        RevCache {
            capacity,
            tick: AtomicU64::new(0),
            map: RwLock::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_evictions: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, FxHashMap<K, Entry<V>>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, FxHashMap<K, Entry<V>>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Next LRU timestamp.  Bumped on hits and insertions only — misses do
    /// not advance the clock.
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn hit(&self, entry: &Entry<V>) -> Arc<V> {
        entry.last_used.store(self.next_tick(), Ordering::Relaxed);
        bump(&self.hits);
        entry.value.clone()
    }

    /// Number of resident entries (always within the capacity bound).
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Evicts every entry tagged with a revision strictly older than
    /// `oldest_live`, returning how many were dropped (also added to the
    /// `compactions` counter).  Once the engine has replaced the snapshot
    /// published after a revision, no snapshot it hands out can ask at that
    /// revision again.
    pub fn compact_older_than(&self, oldest_live: u64) -> u64 {
        let mut map = self.write();
        let before = map.len();
        map.retain(|_, entry| entry.revision >= oldest_live);
        let evicted = (before - map.len()) as u64;
        self.compactions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Looks up the value of `key` at `revision`, bumping its LRU clock.  A
    /// resident entry from an *older* revision is evicted on the spot; a
    /// *newer* one (another reader's live value) is left alone.
    pub fn get(&self, key: &K, revision: u64) -> Option<Arc<V>> {
        let found = self.find(key, revision);
        if found.is_none() {
            bump(&self.misses);
        }
        found
    }

    /// [`get`](Self::get), or else [`put`](Self::put) what `make` computes.
    /// `make` runs with no lock held, so racing threads may each compute
    /// the value: the one whose value `put` keeps counts the miss, and the
    /// others adopt its value and count a hit.  A computation that fails
    /// leaves the cache and its counters as they were.
    pub fn get_or_try_put<E>(
        &self,
        key: K,
        revision: u64,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(found) = self.find(&key, revision) {
            return Ok(found);
        }
        let value = Arc::new(make()?);
        let kept = self.put(key, revision, value.clone());
        bump(if Arc::ptr_eq(&kept, &value) { &self.misses } else { &self.hits });
        Ok(kept)
    }

    /// [`get`](Self::get) without counting a miss.
    fn find(&self, key: &K, revision: u64) -> Option<Arc<V>> {
        match self.read().get(key) {
            Some(entry) if entry.revision == revision => return Some(self.hit(entry)),
            // Stale: fall through to evict under the write lock.
            Some(entry) if entry.revision < revision => {}
            _ => return None,
        }
        let mut map = self.write();
        // Re-check: another thread may have refreshed (or already evicted)
        // the entry between the locks.
        match map.get(key) {
            Some(entry) if entry.revision == revision => return Some(self.hit(entry)),
            Some(entry) if entry.revision < revision => {
                map.remove(key);
                bump(&self.stale_evictions);
            }
            _ => {}
        }
        None
    }

    /// Inserts a value computed at `revision`, evicting (stale-first, then
    /// least-recently-used) when the capacity bound is reached.
    ///
    /// Returns the canonical resident `Arc`: when another thread raced the
    /// same computation and inserted first, its value is adopted and the
    /// caller's copy dropped, so concurrent readers converge on one
    /// allocation per (key, revision).
    pub fn put(&self, key: K, revision: u64, value: Arc<V>) -> Arc<V> {
        if self.capacity == 0 {
            return value;
        }
        let mut map = self.write();
        match map.get(&key) {
            Some(entry) if entry.revision == revision => {
                entry.last_used.store(self.next_tick(), Ordering::Relaxed);
                return entry.value.clone();
            }
            // A newer reader's live value owns this slot; a pinned older
            // reader must not clobber it — its value just goes uncached.
            Some(entry) if entry.revision > revision => return value,
            Some(_) => {} // stale: overwritten in place below
            None if map.len() >= self.capacity => {
                // Victim preference: genuinely stale (older than the
                // inserting revision) first, then LRU among same-revision
                // peers — one pass, ordered by (same revision, last use).
                // Never a *newer* entry — an old pinned reader churning
                // through distinct keys must not flush values current
                // readers are hitting; if everything resident is newer, its
                // value goes uncached.
                let victim = map
                    .iter()
                    .filter(|(_, entry)| entry.revision <= revision)
                    .min_by_key(|(_, entry)| {
                        (entry.revision == revision, entry.last_used.load(Ordering::Relaxed))
                    })
                    .map(|(&key, _)| key);
                let Some(victim) = victim else {
                    return value;
                };
                map.remove(&victim);
                bump(&self.evictions);
            }
            None => {}
        }
        let entry = Entry {
            revision,
            last_used: AtomicU64::new(self.next_tick()),
            value: value.clone(),
        };
        map.insert(key, entry);
        value
    }
}

/// The invariant suite, generic over the key and value types;
/// `snapshot::tests` runs every method at each of the engine's three
/// instantiations.
#[cfg(test)]
pub(crate) mod suite {
    use super::*;

    /// Sample data of one instantiation: `key` must be injective.
    pub struct Sample<K, V> {
        pub key: fn(u32) -> K,
        pub value: fn(u32) -> V,
    }

    fn count(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Poisons `cache`'s lock: a thread dies holding its write guard.
    pub fn poison<K: Send + Sync, V: Send + Sync>(cache: &RevCache<K, V>) {
        let died = std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = cache.map.write().unwrap();
                panic!("a thread dies holding the write guard");
            });
            holder.join()
        });
        assert!(died.is_err() && cache.map.is_poisoned());
    }

    impl<K, V> Sample<K, V>
    where
        K: Copy + Eq + Hash + Send + Sync,
        V: Send + Sync,
    {
        fn put(&self, cache: &RevCache<K, V>, i: u32, revision: u64) -> Arc<V> {
            cache.put((self.key)(i), revision, Arc::new((self.value)(i)))
        }

        fn get(&self, cache: &RevCache<K, V>, i: u32, revision: u64) -> Option<Arc<V>> {
            cache.get(&(self.key)(i), revision)
        }

        pub fn misses_do_not_advance_the_lru_clock(&self) {
            let cache = RevCache::new(4);
            for _ in 0..10 {
                assert!(self.get(&cache, 42, 0).is_none());
            }
            assert_eq!(count(&cache.tick), 0, "misses must not tick");
            self.put(&cache, 42, 0);
            assert_eq!(count(&cache.tick), 1);
            assert!(self.get(&cache, 42, 0).is_some());
            assert_eq!(count(&cache.tick), 2);
            assert_eq!((count(&cache.hits), count(&cache.misses)), (1, 10));
        }

        pub fn distinct_keys_are_independent(&self) {
            let cache = RevCache::new(4);
            let zero = self.put(&cache, 0, 0);
            let one = self.put(&cache, 1, 0);
            assert!(Arc::ptr_eq(&self.get(&cache, 0, 0).expect("key 0 resident"), &zero));
            assert!(Arc::ptr_eq(&self.get(&cache, 1, 0).expect("key 1 resident"), &one));
            assert!(self.get(&cache, 2, 0).is_none(), "unseen key misses");
            assert!(self.get(&cache, 3, 0).is_none(), "unseen key misses");
            assert_eq!((count(&cache.hits), count(&cache.misses)), (2, 2));
        }

        pub fn stale_lookup_evicts_the_entry(&self) {
            let cache = RevCache::new(4);
            self.put(&cache, 7, 0);
            assert_eq!(cache.len(), 1);
            // Same key, later revision — a deletion may have shrunk the
            // value, so the entry is gone after the lookup.
            assert!(self.get(&cache, 7, 1).is_none());
            assert_eq!(cache.len(), 0);
            assert_eq!(count(&cache.stale_evictions), 1);
        }

        pub fn older_readers_never_clobber_newer_entries(&self) {
            let cache = RevCache::new(4);
            let newer = self.put(&cache, 9, 5);
            // A reader pinned at revision 2: miss, but the newer entry stays.
            assert!(self.get(&cache, 9, 2).is_none());
            assert_eq!(cache.len(), 1);
            assert_eq!(count(&cache.stale_evictions), 0);
            // Its insert does not displace the newer entry…
            let old = Arc::new((self.value)(0));
            let kept = cache.put((self.key)(9), 2, old.clone());
            assert!(Arc::ptr_eq(&kept, &old), "older value stays uncached");
            // …which the revision-5 reader still hits.
            let hit = self.get(&cache, 9, 5).expect("newer entry survived");
            assert!(Arc::ptr_eq(&hit, &newer));
        }

        pub fn old_readers_at_capacity_never_flush_live_entries(&self) {
            let cache = RevCache::new(2);
            self.put(&cache, 1, 5); // live for current readers
            self.put(&cache, 2, 5);
            // A reader pinned at revision 1 churns through distinct keys at
            // capacity: nothing to evict that is older, so nothing is cached
            // — and nothing live is flushed.
            for i in 10..20 {
                self.put(&cache, i, 1);
            }
            assert_eq!(cache.len(), 2);
            assert_eq!(count(&cache.evictions), 0);
            assert!(self.get(&cache, 1, 5).is_some(), "live entries survived the churn");
            assert!(self.get(&cache, 2, 5).is_some());
        }

        pub fn capacity_eviction_prefers_stale_entries(&self) {
            let cache = RevCache::new(2);
            self.put(&cache, 1, 0); // stale after "mutation"
            self.put(&cache, 2, 1); // live
            self.get(&cache, 1, 0); // touch the stale entry so plain LRU would keep it
            self.get(&cache, 1, 0);
            self.put(&cache, 3, 1); // at capacity: must evict key 1
            assert!(self.get(&cache, 2, 1).is_some(), "live entry survived");
            assert!(self.get(&cache, 3, 1).is_some(), "new entry resident");
            assert_eq!(cache.len(), 2);
            assert_eq!(count(&cache.evictions), 1);
        }

        pub fn compaction_drops_everything_below_the_window(&self) {
            let cache = RevCache::new(8);
            for revision in 0..3 {
                self.put(&cache, revision, u64::from(revision));
            }
            assert_eq!(cache.compact_older_than(2), 2);
            assert_eq!(cache.len(), 1);
            assert!(self.get(&cache, 2, 2).is_some(), "in-window entry survived");
            assert_eq!(count(&cache.compactions), 2);
        }

        pub fn failed_computations_are_neither_cached_nor_counted(&self) {
            let cache = RevCache::new(4);
            let failed = cache.get_or_try_put((self.key)(1), 0, || Err("no value"));
            assert_eq!(failed.err(), Some("no value"));
            assert_eq!((cache.len(), count(&cache.hits), count(&cache.misses)), (0, 0, 0));
            let made = cache.get_or_try_put((self.key)(1), 0, || Ok::<_, ()>((self.value)(1)));
            let made = made.expect("computed");
            let found = cache.get_or_try_put((self.key)(1), 0, || Err(()));
            assert!(Arc::ptr_eq(&found.expect("resident"), &made), "a hit never computes");
            assert_eq!((cache.len(), count(&cache.hits), count(&cache.misses)), (1, 1, 1));
        }

        pub fn racing_computations_count_one_miss(&self) {
            const THREADS: usize = 4;
            let cache = RevCache::new(4);
            // Every thread misses, then waits inside `make` until all have
            // missed, so each computes and all race to insert.
            let barrier = std::sync::Barrier::new(THREADS);
            let kept: Vec<Arc<V>> = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            let made = cache.get_or_try_put((self.key)(1), 0, || {
                                barrier.wait();
                                Ok::<_, ()>((self.value)(1))
                            });
                            made.expect("computed")
                        })
                    })
                    .collect();
                racers.into_iter().map(|racer| racer.join().unwrap()).collect()
            });
            assert!(kept.iter().all(|value| Arc::ptr_eq(value, &kept[0])), "one value kept");
            assert_eq!((cache.len(), count(&cache.misses)), (1, 1));
            assert_eq!(count(&cache.hits), THREADS as u64 - 1, "the others adopt it");
        }

        pub fn capacity_zero_disables_caching(&self) {
            let cache = RevCache::new(0);
            self.put(&cache, 1, 0);
            assert_eq!(cache.len(), 0);
            assert!(self.get(&cache, 1, 0).is_none());
        }

        pub fn a_poisoned_lock_is_recovered(&self) {
            let cache = RevCache::new(4);
            self.put(&cache, 1, 0);
            poison(&cache);
            // Every method still works, and the entry inserted before the
            // panic is intact.
            assert!(self.get(&cache, 1, 0).is_some());
            self.put(&cache, 2, 0);
            assert!(self.get(&cache, 2, 0).is_some());
            assert!(self.get(&cache, 1, 1).is_none(), "stale eviction takes the write lock");
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.compact_older_than(1), 1);
        }
    }
}
