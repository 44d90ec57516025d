//! The automaton compile cache.
//!
//! Compiling a query into the [`DenseNfa`] a product sweep runs on is pure
//! per-query work that the one-shot library paths repeat on every call:
//! `rpq::materialize_views` compiled each view per database, and every
//! `compare_on_database` froze the same rewriting automaton again.  The
//! cache interns compiled automata by [`Fingerprint`] so each distinct query
//! is compiled exactly once per engine, no matter how many revisions or
//! evaluation paths touch it.
//!
//! This is the **one compile funnel**: every automaton the engine sweeps —
//! reads, view registration, repairs, service requests — is made here, and
//! made as small as polynomial time allows, because a sweep costs *visited
//! product states × work per state* and the automaton sets the first factor.
//! A regex becomes its Glushkov position automaton with bisimilar states
//! merged ([`regexlang::compile`]): ε-free, so a matched edge leads to one
//! successor state per position instead of a Thompson ε-closure of ~3.5, and
//! on every benchmark query as small as the minimal DFA.  It is not
//! determinized — that is exponential in the worst case and would need a
//! size threshold to be safe; the quotient needs none.  A rewriting DFA is
//! re-labeled and [trimmed](DenseNfa::trim).  No option selects between
//! constructions.
//!
//! The cache is **concurrent**: entries live behind sharded [`RwLock`]s
//! (shard chosen by fingerprint bits), so readers evaluating against
//! different [`crate::EngineSnapshot`]s hit the cache in parallel without
//! contending on one lock, and a compilation in one shard never blocks
//! lookups in another.  Hit/miss counters are atomics.  All methods take
//! `&self`; writer and snapshots share one cache through an `Arc`.  A shard
//! whose lock was poisoned by a panicking thread is still read and written:
//! the map is only ever mutated by one complete `insert`, so it is coherent
//! at every point a panic can leave it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use automata::dense::FxHashMap;
use automata::{Alphabet, DenseNfa, Dfa};
use regexlang::Regex;

use crate::error::EngineError;
use crate::fingerprint::{fingerprint_dfa, fingerprint_regex, Fingerprint};

/// Number of independently locked shards (a power of two; shard selection
/// uses the fingerprint's low bits, which FxHash mixes well).
const SHARDS: usize = 16;

/// A concurrent interning cache of frozen [`DenseNfa`]s keyed by query
/// fingerprint.  `Send + Sync`; shared between the engine writer and every
/// published snapshot.
#[derive(Debug)]
pub struct CompileCache {
    shards: Vec<RwLock<FxHashMap<Fingerprint, Arc<DenseNfa>>>>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache {
            shards: (0..SHARDS).map(|_| RwLock::new(FxHashMap::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// Whether `dfa` can be re-labeled over `target`.  [`fingerprint_dfa`]
/// hashes `target` plus the transition structure, so every lookup by it — a
/// hit as much as a miss — has to pass this first.
pub(crate) fn check_dfa_target(target: &Alphabet, dfa: &Dfa) -> Result<(), EngineError> {
    dfa.alphabet()
        .check_compatible(target)
        .map_err(|e| EngineError::IncompatibleAlphabet { message: e.to_string() })
}

impl CompileCache {
    // ordering: Relaxed throughout this impl — hit/miss tallies are
    // monotone statistics; the compiled automata themselves are published
    // through the shard RwLocks, never through these counters.

    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn shard(&self, fp: Fingerprint) -> &RwLock<FxHashMap<Fingerprint, Arc<DenseNfa>>> {
        &self.shards[(fp as usize) & (SHARDS - 1)]
    }

    /// Looks up `fp`, counting a hit.  Like [`intern`](CompileCache::intern)
    /// it recovers a poisoned shard (module docs) rather than letting one
    /// panicked compiler thread wedge every query.
    fn lookup(&self, fp: Fingerprint) -> Option<Arc<DenseNfa>> {
        let shard = self.shard(fp).read().unwrap_or_else(PoisonError::into_inner);
        let dense = shard.get(&fp)?.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(dense)
    }

    /// Interns the [trim](DenseNfa::trim) part of what a [`lookup`] miss
    /// compiled — this is the funnel every automaton the engine sweeps
    /// passes through, so no product-BFS ever enters a state that cannot
    /// reach acceptance.  Callers compile outside any lock (it can be
    /// expensive and must not block readers of the shard), so concurrent
    /// misses on one fingerprint may both compile; the first insertion wins
    /// and the loser adopts it, which keeps interning pointer-stable
    /// (`Arc::ptr_eq` holds across repeated compilations).
    ///
    /// [`lookup`]: CompileCache::lookup
    fn intern(&self, fp: Fingerprint, compiled: DenseNfa) -> Arc<DenseNfa> {
        let dense = Arc::new(compiled.trim());
        let mut shard = self.shard(fp).write().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = shard.get(&fp) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return existing.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard.insert(fp, dense.clone());
        dense
    }

    /// Compiles (or reuses) a regex over `domain`.
    ///
    /// # Panics
    /// Panics if the regex mentions a symbol outside `domain`, mirroring the
    /// label-oriented message of `graphdb`'s evaluators.
    pub fn compile_regex(&self, domain: &Alphabet, regex: &Regex) -> Arc<DenseNfa> {
        self.try_compile_regex(domain, regex)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`CompileCache::compile_regex`]: an out-of-domain
    /// symbol surfaces as [`EngineError::UnknownLabel`] instead of a panic.
    /// The cache hit path short-circuits before any grounding, so known-good
    /// queries never pay the validation again.
    pub fn try_compile_regex(
        &self,
        domain: &Alphabet,
        regex: &Regex,
    ) -> Result<Arc<DenseNfa>, EngineError> {
        let fp = fingerprint_regex(domain, regex);
        if let Some(dense) = self.lookup(fp) {
            return Ok(dense);
        }
        let compiled = regexlang::compile(regex, domain)
            .map_err(|unknown| EngineError::UnknownLabel { label: unknown.name })?;
        Ok(self.intern(fp, compiled))
    }

    /// Freezes (or reuses) a deterministic automaton re-labeled over
    /// `target` — the path a maximal-rewriting automaton takes into
    /// Σ_E-evaluation.  Keyed by [`fingerprint_dfa`], so repeated
    /// evaluations of the same rewriting skip the dense construction
    /// entirely (no per-call tree NFA is built, frozen, or hashed).  The
    /// complement's sink and whatever else no accepting run visits are
    /// trimmed away, so the result has
    /// `RewriteStats::rewriting_trimmed_states` states.
    ///
    /// # Panics
    /// Panics when `target` is incompatible with the DFA's alphabet.
    pub fn compile_dfa(&self, target: &Alphabet, dfa: &Dfa) -> Arc<DenseNfa> {
        self.try_compile_dfa(target, dfa)
            .unwrap_or_else(|e| panic!("re-labeling over an {e}"))
    }

    /// Fallible variant of [`CompileCache::compile_dfa`]: an incompatible
    /// `target` alphabet surfaces as [`EngineError::IncompatibleAlphabet`].
    pub fn try_compile_dfa(
        &self,
        target: &Alphabet,
        dfa: &Dfa,
    ) -> Result<Arc<DenseNfa>, EngineError> {
        check_dfa_target(target, dfa)?;
        let fp = fingerprint_dfa(target, dfa);
        if let Some(dense) = self.lookup(fp) {
            return Ok(dense);
        }
        let relabeled = DenseNfa::from_dfa(dfa).with_alphabet(target.clone());
        Ok(self.intern(fp, relabeled))
    }

    /// Number of distinct compiled automata currently interned.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (i.e. actual compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regex_compilation_is_interned() {
        let domain = Alphabet::from_chars(['a', 'b']).unwrap();
        let cache = CompileCache::new();
        let r = regexlang::parse("a·b*").unwrap();
        let d1 = cache.compile_regex(&domain, &r);
        let d2 = cache.compile_regex(&domain, &regexlang::parse("a·b*").unwrap());
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn dfa_compilation_is_interned_by_structure_and_target() {
        let domain = Alphabet::from_names(["v1", "v2"]).unwrap();
        let cache = CompileCache::new();
        let dfa = automata::determinize(
            &regexlang::thompson(&regexlang::parse("v1·v2*").unwrap(), &domain).unwrap(),
        );
        let d1 = cache.compile_dfa(&domain, &dfa);
        let d2 = cache.compile_dfa(&domain, &dfa);
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(d1.alphabet().is_compatible(&domain));
    }

    #[test]
    fn interned_automata_are_trim() {
        // The complement of a complete DFA keeps the old accepting sink as a
        // state acceptance is unreachable from; a product sweep must never
        // be handed it.
        let domain = Alphabet::from_names(["v1", "v2"]).unwrap();
        let cache = CompileCache::new();
        let nfa = regexlang::thompson(&regexlang::parse("v1·v2*").unwrap(), &domain).unwrap();
        let complete = automata::determinize(&nfa);
        let dense = cache.compile_dfa(&domain, &complete);
        assert!(dense.num_states() < complete.num_states());
        for word in [&["v1"][..], &["v1", "v2", "v2"], &["v2"], &["v1", "v1"], &[]] {
            let word = domain.word(word).unwrap();
            assert_eq!(dense.accepts(&word), complete.accepts(&word), "{word:?}");
        }
        // A regex compiles to its position automaton with bisimilar states
        // merged: `v1·(v2+v1)*` has 4 positions-plus-start, of which the
        // three under and before the star's loop read the same labels into
        // the same states — 2 states, where Thompson builds 10.  `∅` leaves
        // positions no accepting run visits; they are trimmed.
        for (src, states) in [("v1·(v2+v1)*", 2), ("v1·(v2·∅+v1)*·v2", 3), ("∅", 0)] {
            let regex = regexlang::parse(src).unwrap();
            let dense = cache.compile_regex(&domain, &regex);
            assert_eq!(dense.num_states(), states, "{src}");
            let thompson = regexlang::thompson(&regex, &domain).unwrap();
            assert!(automata::nfa_equivalent(&dense.to_nfa(), &thompson).holds(), "{src}");
            // Trim: every state is reachable and co-reachable, so trimming
            // again is the identity.
            assert_eq!(DenseNfa::clone(&dense).trim().num_states(), states, "{src}");
        }
    }

    #[test]
    fn a_poisoned_shard_still_compiles_hits_and_misses() {
        let domain = Alphabet::from_chars(['a', 'b']).unwrap();
        let cache = CompileCache::new();
        let before = cache.compile_regex(&domain, &regexlang::parse("a·b").unwrap());
        for shard in &cache.shards {
            let panicked = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _guard = shard.write().expect("not poisoned yet");
                        panic!("a compiler thread dies holding the shard");
                    })
                    .join()
            });
            assert!(panicked.is_err() && shard.is_poisoned());
        }
        // What was interned before the panic is still served …
        let hit = cache.try_compile_regex(&domain, &regexlang::parse("a·b").unwrap()).unwrap();
        assert!(Arc::ptr_eq(&before, &hit));
        // … and both miss paths (regex and DFA) insert and then hit.
        let regex = regexlang::parse("a·b*").unwrap();
        let miss = cache.try_compile_regex(&domain, &regex).unwrap();
        assert!(Arc::ptr_eq(&miss, &cache.try_compile_regex(&domain, &regex).unwrap()));
        let dfa = Dfa::universal(domain.clone());
        let miss = cache.try_compile_dfa(&domain, &dfa).unwrap();
        assert!(Arc::ptr_eq(&miss, &cache.try_compile_dfa(&domain, &dfa).unwrap()));
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (3, 3, 3));
    }

    #[test]
    #[should_panic(expected = "incompatible alphabet")]
    fn compile_dfa_rejects_incompatible_alphabets_even_on_hits() {
        let domain = Alphabet::from_chars(['a']).unwrap();
        let cache = CompileCache::new();
        cache.compile_dfa(&domain, &automata::Dfa::universal(domain.clone()));
        // Same transition structure over a different alphabet: must panic
        // (and in particular must not be served from the cache).
        let other = Alphabet::from_chars(['x']).unwrap();
        cache.compile_dfa(&domain, &automata::Dfa::universal(other));
    }

    #[test]
    #[should_panic(expected = "not a label")]
    fn unknown_symbols_panic_like_the_evaluators() {
        let domain = Alphabet::from_chars(['a']).unwrap();
        CompileCache::new().compile_regex(&domain, &regexlang::parse("zz").unwrap());
    }

    #[test]
    fn concurrent_compilations_intern_to_one_automaton() {
        let domain = Alphabet::from_chars(['a', 'b', 'c']).unwrap();
        let cache = CompileCache::new();
        let queries: Vec<Regex> = (0..8)
            .map(|i| regexlang::parse(&format!("a{}", "·b".repeat(i))).unwrap())
            .collect();
        let compiled: Vec<Vec<Arc<DenseNfa>>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        queries
                            .iter()
                            .map(|q| cache.compile_regex(&domain, q))
                            .collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|w| w.join().expect("compiler thread panicked"))
                .collect()
        });
        // All threads ended up with the same interned allocations.
        assert_eq!(cache.len(), queries.len());
        for worker in &compiled[1..] {
            for (a, b) in compiled[0].iter().zip(worker) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
        // Every (thread, query) lookup is accounted a hit or a miss, and each
        // distinct query compiled successfully at least once.
        assert_eq!(cache.hits() + cache.misses(), (4 * queries.len()) as u64);
        assert!(cache.misses() >= queries.len() as u64);
    }
}
