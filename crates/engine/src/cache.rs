//! The automaton compile cache.
//!
//! Freezing a query into a [`DenseNfa`] — grounding the regex to an NFA,
//! precomputing ε-closures, laying out CSR successor tables — is pure
//! per-query work that the one-shot library paths repeat on every call:
//! `rpq::materialize_views` froze each view per database, and every
//! `compare_on_database` froze the same rewriting automaton again.  The
//! cache interns frozen automata by [`Fingerprint`] so each distinct query
//! is compiled exactly once per engine, no matter how many revisions or
//! evaluation paths touch it.
//!
//! The cache is **concurrent**: entries live behind sharded [`RwLock`]s
//! (shard chosen by fingerprint bits), so readers evaluating against
//! different [`crate::EngineSnapshot`]s hit the cache in parallel without
//! contending on one lock, and a compilation in one shard never blocks
//! lookups in another.  Hit/miss counters are atomics.  All methods take
//! `&self`; writer and snapshots share one cache through an `Arc`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use automata::dense::FxHashMap;
use automata::{Alphabet, DenseDfa, DenseNfa, Dfa};
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
    hits: AtomicU64,
    misses: AtomicU64,
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

    /// Looks up `fp`, or compiles it with `build` and interns the
    /// [trim](DenseNfa::trim) part of the result — this is the funnel every
    /// automaton the engine sweeps passes through, so no product-BFS ever
    /// enters a state that cannot reach acceptance.  Concurrent misses on the same fingerprint may both compile; the first
    /// insertion wins and the loser adopts it, so interning stays pointer-
    /// stable (`Arc::ptr_eq` holds across repeated compilations).
    fn get_or_insert(&self, fp: Fingerprint, build: impl FnOnce() -> DenseNfa) -> Arc<DenseNfa> {
        if let Some(dense) = self.shard(fp).read().expect("compile shard poisoned").get(&fp) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return dense.clone();
        }
        // Compile outside any lock: freezing can be expensive and must not
        // block readers of the same shard.
        let dense = Arc::new(build().trim());
        let mut shard = self.shard(fp).write().expect("compile shard poisoned");
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
        // A poisoned shard still holds a coherent map (inserts mutate it
        // only in complete steps under the guard); recover rather than
        // letting one panicked compiler thread wedge every query.  The
        // guard is a statement temporary: it is released before the miss
        // path re-enters the shard through `get_or_insert`.
        if let Some(dense) = self
            .shard(fp)
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&fp)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(dense.clone());
        }
        let nfa = regexlang::thompson(regex, domain).map_err(|unknown| {
            EngineError::UnknownLabel { label: unknown.name }
        })?;
        Ok(self.get_or_insert(fp, || DenseNfa::from_nfa(&nfa)))
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
        Ok(self.get_or_insert(fp, || {
            DenseNfa::from_dense_dfa(&DenseDfa::from_dfa(dfa)).with_alphabet(target.clone())
        }))
    }

    /// Number of distinct compiled automata currently interned.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("compile shard poisoned").len())
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
        let complete = automata::determinize(&nfa).complete();
        let dense = cache.compile_dfa(&domain, &complete);
        assert!(dense.num_states() < complete.num_states());
        for word in [&["v1"][..], &["v1", "v2", "v2"], &["v2"], &["v1", "v1"], &[]] {
            let word = domain.word(word).unwrap();
            assert_eq!(dense.accepts(&word), complete.accepts(&word), "{word:?}");
        }
        // Regex-compiled (Thompson) automata have no dead state to lose.
        let regex = regexlang::parse("v1·(v2+v1)*").unwrap();
        let thompson = regexlang::thompson(&regex, &domain).unwrap();
        assert_eq!(cache.compile_regex(&domain, &regex).num_states(), thompson.num_states());
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
