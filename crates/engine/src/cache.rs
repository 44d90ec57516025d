//! The automaton compile cache.
//!
//! Compiling a query into the [`DenseNfa`] a product sweep runs on is pure
//! per-query work that the one-shot library paths repeat on every call:
//! `rpq::materialize_views` compiled each view per database, and every
//! `compare_on_database` froze the same rewriting automaton again.  The
//! cache interns compiled automata by [`Fingerprint`] so each distinct query
//! is compiled once per engine, no matter how many revisions or evaluation
//! paths touch it, for as long as it stays among the 1 024 most recently
//! used.
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
//! re-labeled.  Both are [trimmed](DenseNfa::trim) before they are cached,
//! so no product-BFS ever enters a state that cannot reach acceptance.  No
//! option selects between constructions.
//!
//! The cache is the engine's third `RevCache` (beside the answer and
//! point-query caches), with every entry stored at one fixed revision: a
//! compiled automaton depends on the query and the alphabet, never on the
//! database.  Nothing here compacts, so nothing is ever evicted by
//! revision — only by the capacity bound, least recently used first.  Its
//! lock, poison recovery, LRU clock and counters are `RevCache`'s, and so is
//! the insertion race: queries compile outside the lock, and when two
//! threads miss on one fingerprint the first insertion wins and the other
//! adopts it, so interning is pointer-stable.  A query that fails to
//! compile is neither cached nor counted.  All methods take `&self`; writer
//! and snapshots share one cache.
//!
//! The fourth `RevCache` is the cache's text memo: it maps the raw bytes of
//! a query text ([`fingerprint_text`]) to the canonical
//! [`fingerprint_regex`] of its parse, at the same fixed revision and under
//! the same 1 024-entry bound.  A served read of a text it has seen hashes
//! the text and looks it up — no parse, no rendering — and only a memo miss
//! parses.  A text that fails to parse is never memoized.  A memo entry
//! outliving its text's compiled automaton costs one re-parse on the next
//! compile, nothing else; the memo holds no automaton, so it is never what
//! keeps one resident.
//!
//! An entry is a `Compiled`: the automaton and, built the first time a
//! pair search or a view repair asks for it, its reversal.  So a query's
//! reversal is computed once per compile, not once per `Pair` miss, and a
//! registered view keeps its entry — reversal included — for as long as it
//! is registered.

use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use automata::{Alphabet, DenseNfa, Dfa};
use regexlang::Regex;

use crate::error::EngineError;
use crate::fingerprint::{fingerprint_dfa, fingerprint_regex, fingerprint_text, Fingerprint};
use crate::revcache::RevCache;

/// The revision every compiled automaton is stored at.
const REVISION: u64 = 0;

/// How many compiled automata stay resident, and how many texts the memo
/// holds.  Far above the distinct queries any benchmark workload compiles
/// (a handful) or any test does, bar the ones about this bound; and a
/// compiled automaton is small (2–3 states for the benchmark's queries), so
/// the bound costs the measured traffic nothing.  What it stops is a client
/// sending ever-new query texts from growing the cache for the life of the
/// process.
pub(crate) const CAPACITY: usize = 1024;

/// One compile-cache entry: a trimmed automaton and its lazily built
/// reversal.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// The automaton a forward sweep runs on.
    pub automaton: Arc<DenseNfa>,
    reversal: OnceLock<DenseNfa>,
}

impl Compiled {
    pub fn new(automaton: DenseNfa) -> Self {
        Compiled { automaton: Arc::new(automaton), reversal: OnceLock::new() }
    }

    /// [`DenseNfa::reverse_closed`] of the automaton, built on the first
    /// call and shared by every later one.
    pub fn reversal(&self) -> &DenseNfa {
        self.reversal.get_or_init(|| self.automaton.reverse_closed())
    }
}

/// A concurrent, bounded interning cache of trimmed [`DenseNfa`]s keyed by
/// query fingerprint.  `Send + Sync`; shared between the engine writer and
/// every published snapshot.
#[derive(Debug)]
pub struct CompileCache {
    pub(crate) entries: RevCache<Fingerprint, Compiled>,
    /// [`fingerprint_text`] → the text's [`fingerprint_regex`].
    pub(crate) texts: RevCache<Fingerprint, Fingerprint>,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache { entries: RevCache::new(CAPACITY), texts: RevCache::new(CAPACITY) }
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
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles (or reuses) a regex over `domain`.
    ///
    /// # Panics
    /// Panics if the regex mentions a symbol outside `domain`, mirroring the
    /// label-oriented message of `graphdb`'s evaluators.
    pub fn compile_regex(&self, domain: &Alphabet, regex: &Regex) -> Arc<DenseNfa> {
        self.regex_entry(domain, regex)
            .unwrap_or_else(|e| panic!("{e}"))
            .automaton
            .clone()
    }

    /// The entry behind [`CompileCache::compile_regex`]: an out-of-domain
    /// symbol surfaces as [`EngineError::UnknownLabel`].  The cache hit path
    /// short-circuits before any grounding, so known-good queries never pay
    /// the validation again.
    pub(crate) fn regex_entry(
        &self,
        domain: &Alphabet,
        regex: &Regex,
    ) -> Result<Arc<Compiled>, EngineError> {
        self.regex_entry_at(domain, fingerprint_regex(domain, regex), || Ok(Cow::Borrowed(regex)))
    }

    /// [`regex_entry`](Self::regex_entry) by the [`fingerprint_regex`] a
    /// caller already holds: the expression is asked of `regex` only on a
    /// miss, so a hit neither renders nor parses anything.
    pub(crate) fn regex_entry_at<'r>(
        &self,
        domain: &Alphabet,
        fingerprint: Fingerprint,
        regex: impl FnOnce() -> Result<Cow<'r, Regex>, EngineError>,
    ) -> Result<Arc<Compiled>, EngineError> {
        self.entries.get_or_try_put(fingerprint, REVISION, || {
            regexlang::compile(&*regex()?, domain)
                .map(|compiled| Compiled::new(compiled.trim()))
                .map_err(|unknown| EngineError::UnknownLabel { label: unknown.name })
        })
    }

    /// The [`fingerprint_regex`] of `text` over `domain`, from the text memo,
    /// or else parsed, fingerprinted and memoized — in which case the parse
    /// comes back too, for a compile miss to use.  A parse failure is
    /// [`EngineError::Parse`] and leaves the memo as it was.
    pub(crate) fn resolve_text(
        &self,
        domain: &Alphabet,
        text: &str,
    ) -> Result<(Fingerprint, Option<Regex>), EngineError> {
        let mut parsed = None;
        let fingerprint = self.texts.get_or_try_put(fingerprint_text(domain, text), REVISION, || {
            let regex = regexlang::parse(text)?;
            let fingerprint = fingerprint_regex(domain, &regex);
            parsed = Some(regex);
            Ok::<_, EngineError>(fingerprint)
        })?;
        Ok((*fingerprint, parsed))
    }

    /// Freezes (or reuses) a deterministic automaton re-labeled over
    /// `target` — the path a maximal-rewriting automaton takes into
    /// Σ_E-evaluation.  Keyed by the DFA's structural fingerprint, so repeated
    /// evaluations of the same rewriting skip the dense construction
    /// entirely (no per-call tree NFA is built, frozen, or hashed).  The
    /// complement's sink and whatever else no accepting run visits are
    /// trimmed away, so the result has
    /// `RewriteStats::rewriting_trimmed_states` states.
    ///
    /// # Panics
    /// Panics when `target` is incompatible with the DFA's alphabet.
    pub fn compile_dfa(&self, target: &Alphabet, dfa: &Dfa) -> Arc<DenseNfa> {
        self.dfa_entry(target, dfa)
            .unwrap_or_else(|e| panic!("re-labeling over an {e}"))
            .automaton
            .clone()
    }

    /// The entry behind [`CompileCache::compile_dfa`]: an incompatible
    /// `target` alphabet surfaces as [`EngineError::IncompatibleAlphabet`].
    pub(crate) fn dfa_entry(
        &self,
        target: &Alphabet,
        dfa: &Dfa,
    ) -> Result<Arc<Compiled>, EngineError> {
        check_dfa_target(target, dfa)?;
        self.entries.get_or_try_put(fingerprint_dfa(target, dfa), REVISION, || {
            Ok(Compiled::new(DenseNfa::from_dfa(dfa).with_alphabet(target.clone()).trim()))
        })
    }

    /// Number of distinct compiled automata currently interned (at most
    /// 1 024).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ordering: Relaxed — the tallies are monotone statistics; compiled
    // automata are published through the RevCache's lock.

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.entries.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (successful compilations) so far.
    pub fn misses(&self) -> u64 {
        self.entries.misses.load(Ordering::Relaxed)
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
    fn an_entry_builds_its_reversal_once() {
        let domain = Alphabet::from_chars(['a', 'b']).unwrap();
        let cache = CompileCache::new();
        let regex = regexlang::parse("a·b·b*").unwrap();
        let entry = cache.regex_entry(&domain, &regex).unwrap();
        let reversal = entry.reversal();
        // A later hit shares it …
        let hit = cache.regex_entry(&domain, &regex).unwrap();
        assert!(std::ptr::eq(reversal, hit.reversal()));
        // … and it reads the query's words backwards: `b·b*·a`.
        let words = [(&["b", "a"][..], true), (&["b", "b", "a"], true), (&["a", "b"], false)];
        for (word, accepted) in words {
            let word = domain.word(word).unwrap();
            assert_eq!(reversal.accepts(&word), accepted, "{word:?}");
        }
    }

    #[test]
    fn a_text_resolves_to_its_regex_fingerprint_and_is_parsed_once() {
        let domain = Alphabet::from_chars(['a', 'b']).unwrap();
        let cache = CompileCache::new();
        let canonical = fingerprint_regex(&domain, &regexlang::parse("a·b").unwrap());
        // A memo miss parses, and hands the parse back for a compile miss …
        let (fingerprint, parsed) = cache.resolve_text(&domain, "a.b").unwrap();
        assert_eq!((fingerprint, parsed), (canonical, Some(regexlang::parse("a·b").unwrap())));
        // … a hit does not.
        assert_eq!(cache.resolve_text(&domain, "a.b").unwrap(), (canonical, None));
        assert!(matches!(cache.resolve_text(&domain, "a+"), Err(EngineError::Parse { .. })));
        // ordering: Relaxed — this thread made every count it reads.
        let (hits, misses) =
            (cache.texts.hits.load(Ordering::Relaxed), cache.texts.misses.load(Ordering::Relaxed));
        assert_eq!((cache.texts.len(), hits, misses), (1, 1, 1));
        // A compile hit by fingerprint never asks for the expression.
        let regex = regexlang::parse("a·b").unwrap();
        let compiled = cache.regex_entry(&domain, &regex).unwrap();
        let hit = cache.regex_entry_at(&domain, canonical, || unreachable!("a hit parses nothing"));
        assert!(Arc::ptr_eq(&compiled, &hit.unwrap()));
    }

    #[test]
    fn a_poisoned_shard_still_compiles_hits_and_misses() {
        let domain = Alphabet::from_chars(['a', 'b']).unwrap();
        let cache = CompileCache::new();
        let before = cache.compile_regex(&domain, &regexlang::parse("a·b").unwrap());
        // A compiler thread dies holding the cache's one lock.
        crate::revcache::suite::poison(&cache.entries);
        // What was interned before the panic is still served …
        let hit = cache.compile_regex(&domain, &regexlang::parse("a·b").unwrap());
        assert!(Arc::ptr_eq(&before, &hit));
        // … and both miss paths (regex and DFA) insert and then hit.
        let regex = regexlang::parse("a·b*").unwrap();
        let miss = cache.compile_regex(&domain, &regex);
        assert!(Arc::ptr_eq(&miss, &cache.compile_regex(&domain, &regex)));
        let dfa = Dfa::universal(domain.clone());
        let miss = cache.compile_dfa(&domain, &dfa);
        assert!(Arc::ptr_eq(&miss, &cache.compile_dfa(&domain, &dfa)));
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (3, 3, 3));
    }

    #[test]
    fn the_capacity_bound_evicts_least_recently_used_and_recompiles_correctly() {
        let domain = Alphabet::from_chars(['a', 'b']).unwrap();
        let cache = CompileCache::new();
        // Query `i` spells `i` in binary, `a` for 0 and `b` for 1: distinct
        // words, so distinct fingerprints.
        let query = |i: usize| {
            let letters: Vec<&str> =
                format!("{i:b}").chars().map(|bit| if bit == '0' { "a" } else { "b" }).collect();
            regexlang::parse(&letters.join("·")).unwrap()
        };
        for i in 0..CAPACITY + 8 {
            cache.compile_regex(&domain, &query(i));
        }
        assert_eq!(cache.len(), CAPACITY);
        // ordering: Relaxed — this thread made every eviction it reads.
        assert_eq!(cache.entries.evictions.load(Ordering::Relaxed), 8);
        // The eight least recently used went: query 0 is compiled again, and
        // is the same language.
        let again = cache.compile_regex(&domain, &query(0));
        assert_eq!(cache.misses(), (CAPACITY + 9) as u64);
        assert_eq!(cache.len(), CAPACITY);
        let thompson = regexlang::thompson(&query(0), &domain).unwrap();
        assert!(automata::nfa_equivalent(&again.to_nfa(), &thompson).holds());
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
