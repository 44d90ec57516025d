//! The frozen NFA and the flat building blocks of the automaton algorithms.
//!
//! The tree-based [`Nfa`] is convenient to *build* — rational operations and
//! view expansions mutate per-state `BTreeMap`s — but every hot loop of the
//! rewriting pipeline (subset construction, word-reachability sweeps,
//! product containment, RPQ evaluation) only ever *reads* a frozen
//! automaton.  This module provides the frozen NFA and what the flat
//! algorithms share:
//!
//! * [`DenseNfa`] — CSR-style transition tables (`Vec<u32>` successor arrays
//!   with a per-`(state, symbol)` offset index) in which every successor list
//!   is already **ε-closed**: the closure of each state is computed once at
//!   construction time and folded into the lists, so traversals never touch
//!   ε-edges again.  Per-state ε-closures remain available via
//!   [`DenseNfa::closure`].
//! * [`BitSet`] — `u64`-word bitsets for state sets and frontiers, and
//!   [`SubsetScratch`], a bitset that lists its members, so that a subset
//!   step costs O(members touched) rather than O(|Q| / 64).
//! * [`ConfigVisitMap`] — the visited set of the `(state, configuration)`
//!   product sweeps: interned configurations and `(id, state)` pairs.
//! * [`DEAD`], the missing-transition sentinel of [`Dfa`]'s next-state
//!   table.
//!
//! Freezing is cheap (`DenseNfa::from_nfa`, also a `From` impl, and
//! [`DenseNfa::from_dfa`] for a deterministic automaton) and so is thawing
//! (`to_nfa`).  The tree `Nfa` stays the public construction API but
//! implements no algorithm that reads an automaton: ε-closure, acceptance
//! and trimming live here once, and [`fn@crate::determinize`],
//! [`crate::product::word_reachability_relation_dense`],
//! [`crate::equivalence::dfa_subset_of_nfa`], `regexlang`'s state elimination
//! and `graphdb`'s RPQ evaluator all run on this core.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use crate::alphabet::{Alphabet, Symbol};
use crate::dfa::Dfa;
use crate::nfa::Nfa;

/// A fast, non-cryptographic hasher (the rustc/FxHash multiply-xor scheme).
///
/// The subset-interning maps of the dense algorithms hash millions of short
/// `u32` slices; SipHash's per-write overhead dominates there, while Fx
/// hashing is a rotate-xor-multiply per word.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // The hot keys are `[u32]` slices, which std's `hash_slice`
        // specialization delivers here as one contiguous byte slice — chunk
        // it into u64 words so hashing really is per-word, not per-byte.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` using [`FxHasher`], for the hot interning maps.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The visited set of a product sweep over `(automaton state, ε-closed
/// configuration)` pairs.
///
/// Each distinct configuration is interned once — its sorted member list
/// allocated once, shared via `Rc` with the sweep's queue, and numbered — and
/// a visit is one `(configuration id, state)` entry of a hash set.  Marking a
/// pair costs O(1) expected and the memory is proportional to the
/// configurations and pairs met, never to the automaton's size per
/// configuration.  This is the visited map of the product sweeps in
/// [`crate::product::word_reachability_relation_dense`] and
/// [`crate::equivalence::dfa_subset_of_nfa`].
#[derive(Debug, Default)]
pub struct ConfigVisitMap {
    ids: FxHashMap<Rc<[u32]>, u32>,
    visits: FxHashSet<(u32, u32)>,
}

impl ConfigVisitMap {
    /// Marks `(state, config)` as visited, returning the canonical shared
    /// configuration when the pair is new (`None` when it was already
    /// visited).
    pub fn intern_visit(&mut self, config: &[u32], state: u32) -> Option<Rc<[u32]>> {
        if let Some((canonical, &id)) = self.ids.get_key_value(config) {
            return self.visits.insert((id, state)).then(|| canonical.clone());
        }
        let id = self.ids.len() as u32;
        let canonical: Rc<[u32]> = config.into();
        self.ids.insert(canonical.clone(), id);
        self.visits.insert((id, state));
        Some(canonical)
    }

    /// Forgets every visit but keeps the interned configurations, for a
    /// sweep that restarts from another state over the same automaton.
    pub fn clear_visits(&mut self) {
        self.visits.clear();
    }
}

/// Sentinel for "no transition" in [`Dfa`] tables.
pub const DEAD: u32 = u32::MAX;

/// A fixed-capacity set of small integers backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set with capacity for values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Number of `u64` words backing the set.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Inserts `value`, returning `true` if it was absent.
    #[inline]
    pub fn insert(&mut self, value: u32) -> bool {
        let (word, bit) = (value as usize / 64, value as usize % 64);
        let mask = 1u64 << bit;
        let was_absent = self.words[word] & mask == 0;
        self.words[word] |= mask;
        was_absent
    }

    /// Removes `value`.
    #[inline]
    pub fn remove(&mut self, value: u32) {
        let (word, bit) = (value as usize / 64, value as usize % 64);
        self.words[word] &= !(1u64 << bit);
    }

    /// Whether `value` is present.
    #[inline]
    pub fn contains(&self, value: u32) -> bool {
        let (word, bit) = (value as usize / 64, value as usize % 64);
        self.words[word] & (1u64 << bit) != 0
    }

    /// Widens the capacity to values `0..capacity`, keeping the elements (a
    /// no-op when the set is already that wide).
    pub(crate) fn grow(&mut self, capacity: usize) {
        let words = capacity.div_ceil(64).max(self.words.len());
        self.words.resize(words, 0);
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Moves the elements into `out` in ascending order, leaving the set
    /// empty.  One pass over *every* backing word, so it costs
    /// O(capacity / 64) however few elements there are: right for sets that
    /// fill a good part of their capacity (`engine::delta`'s target unions),
    /// wrong for the handful of states a subset step produces — those use
    /// [`SubsetScratch`].
    pub fn drain_sorted_into(&mut self, out: &mut Vec<u32>) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push(i as u32 * 64 + bit);
                w &= w - 1;
            }
            *word = 0;
        }
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some(i as u32 * 64 + bit)
            })
        })
    }
}

/// The scratch set of a subset step: a [`BitSet`] for membership plus the
/// list of members in the order they were inserted.
///
/// Draining sorts that list and clears only its bits, so filling and
/// draining a set costs O(members touched) — never O(capacity / 64), which on
/// an 80 000-state automaton is 1 250 words scanned for a set of seven.  Every
/// subset step of the dense core ([`DenseNfa::from_nfa`]'s closures and
/// closed successor lists, [`DenseNfa::step_closed`] and the sweeps built on
/// it) accumulates into one.
#[derive(Debug, Clone)]
pub struct SubsetScratch {
    bits: BitSet,
    members: Vec<u32>,
}

impl SubsetScratch {
    /// Creates an empty set with capacity for values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        SubsetScratch {
            bits: BitSet::new(capacity),
            members: Vec::new(),
        }
    }

    /// Inserts `value`, returning `true` if it was absent.
    #[inline]
    pub fn insert(&mut self, value: u32) -> bool {
        let fresh = self.bits.insert(value);
        if fresh {
            self.members.push(value);
        }
        fresh
    }

    /// Whether no member is present, checked against every backing word —
    /// for assertions that a drain left nothing behind, not for hot loops.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty() && self.bits.is_empty()
    }

    /// Moves the members into `out` in ascending order, leaving the set
    /// empty.  Sorts the member list and clears only its bits — unless there
    /// are at least as many members as backing words, when one pass over the
    /// words is both cheaper than the sort and still O(members).
    pub fn drain_sorted_into(&mut self, out: &mut Vec<u32>) {
        if self.members.len() >= self.bits.num_words() {
            self.bits.drain_sorted_into(out);
        } else {
            self.members.sort_unstable();
            for &m in &self.members {
                self.bits.remove(m);
            }
            out.extend_from_slice(&self.members);
        }
        self.members.clear();
    }
}

/// Every state reachable from `seeds` along `next`, breadth-first, as a set
/// over `0..num_states`.
pub(crate) fn search<I: IntoIterator<Item = u32>>(
    num_states: usize,
    seeds: impl IntoIterator<Item = u32>,
    mut next: impl FnMut(u32) -> I,
) -> BitSet {
    let mut seen = BitSet::new(num_states);
    let mut queue: VecDeque<u32> = seeds.into_iter().filter(|&s| seen.insert(s)).collect();
    while let Some(s) = queue.pop_front() {
        for t in next(s) {
            if seen.insert(t) {
                queue.push_back(t);
            }
        }
    }
    seen
}

/// Values grouped into numbered buckets, in CSR layout: bucket `b` is
/// `values[offsets[b] .. offsets[b + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl Csr {
    /// Counting-sorts `(bucket, value)` pairs into `buckets` buckets, each
    /// keeping its values in the order they came.  The pairs are walked
    /// twice — once to count, once to fill — so no pair buffer is built.
    pub(crate) fn bucket(
        buckets: usize,
        pairs: impl Iterator<Item = (usize, u32)> + Clone,
    ) -> Self {
        let mut offsets = vec![0u32; buckets + 1];
        for (b, _) in pairs.clone() {
            offsets[b + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut values = vec![0u32; offsets[buckets] as usize];
        for (b, v) in pairs {
            values[cursor[b] as usize] = v;
            cursor[b] += 1;
        }
        Csr { offsets, values }
    }

    /// The values of bucket `b`.
    #[inline]
    pub(crate) fn get(&self, b: usize) -> &[u32] {
        &self.values[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

/// A frozen NFA with CSR transition tables and precomputed ε-closures.
///
/// Successor lists are ε-closed and sorted, so a single lookup per
/// `(state, symbol)` pair replaces the step-then-closure dance of the tree
/// representation.  ε-transitions are gone after construction.
#[derive(Debug, Clone)]
pub struct DenseNfa {
    alphabet: Alphabet,
    num_states: usize,
    num_symbols: usize,
    /// `closed_offsets[s * num_symbols + a] .. [s * num_symbols + a + 1]`
    /// bounds the slice of `closed_targets` holding the sorted ε-closed
    /// successors of `s` under symbol `a`.
    closed_offsets: Vec<u32>,
    closed_targets: Vec<u32>,
    /// `closure_offsets[s] .. [s + 1]` bounds the slice of `closure_targets`
    /// holding the sorted ε-closure of `{s}` (always contains `s`).
    closure_offsets: Vec<u32>,
    closure_targets: Vec<u32>,
    /// Sorted ε-closure of the initial states.
    start: Vec<u32>,
    finals: BitSet,
}

impl DenseNfa {
    /// Builds a dense NFA from parts, ε-moves included: the one freeze that
    /// [`DenseNfa::from_parts`] and [`DenseNfa::from_nfa`] go through.  The
    /// ε-closure of each state is computed once, by a search over the
    /// ε-moves, and folded into the sorted, deduplicated successor list of
    /// every `(state, symbol)` and into the start configuration — so the
    /// result depends on the sets of states, transitions and ε-moves given,
    /// not on their order.
    ///
    /// The transitions and ε-moves are each walked twice, to count and then
    /// to fill their buckets, so their iterators must be cloneable.
    ///
    /// # Panics
    /// Panics if a state or symbol index is out of range.
    pub fn from_edges(
        alphabet: Alphabet,
        num_states: usize,
        initials: impl IntoIterator<Item = u32>,
        finals: impl IntoIterator<Item = u32>,
        transitions: impl IntoIterator<Item = (u32, u32, u32), IntoIter: Clone>,
        epsilons: impl IntoIterator<Item = (u32, u32), IntoIter: Clone>,
    ) -> Self {
        let n = num_states;
        let k = alphabet.len();
        let in_range = |s: u32| assert!((s as usize) < n, "state {s} out of range");
        // The raw transitions bucketed by (state, symbol), the ε-moves by state.
        let moves = Csr::bucket(
            n * k,
            transitions.into_iter().map(|(from, sym, to)| {
                in_range(from);
                in_range(to);
                assert!((sym as usize) < k, "symbol index {sym} out of range");
                (from as usize * k + sym as usize, to)
            }),
        );
        let epsilon_moves = Csr::bucket(
            n,
            epsilons.into_iter().map(|(from, to)| {
                in_range(from);
                in_range(to);
                (from as usize, to)
            }),
        );

        // 1. ε-closure of each singleton, by BFS over ε-moves.  The scratch's
        // member list is the BFS queue; draining it sorts it into the CSR
        // array.  Every drain below costs what the set holds, not |Q| / 64.
        let mut closure_offsets = Vec::with_capacity(n + 1);
        let mut closure_targets = Vec::new();
        let mut seen = SubsetScratch::new(n);
        closure_offsets.push(0u32);
        for s in 0..n {
            seen.insert(s as u32);
            let mut head = 0;
            while let Some(&cur) = seen.members.get(head) {
                head += 1;
                for &t in epsilon_moves.get(cur as usize) {
                    seen.insert(t);
                }
            }
            seen.drain_sorted_into(&mut closure_targets);
            closure_offsets.push(closure_targets.len() as u32);
        }
        let closure_of = |s: u32| {
            let lo = closure_offsets[s as usize] as usize;
            let hi = closure_offsets[s as usize + 1] as usize;
            &closure_targets[lo..hi]
        };

        // 2. ε-closed successor lists per (state, symbol), in CSR layout.
        let mut closed_offsets = Vec::with_capacity(n * k + 1);
        let mut closed_targets = Vec::new();
        closed_offsets.push(0u32);
        for bucket in 0..n * k {
            for &t in moves.get(bucket) {
                for &c in closure_of(t) {
                    seen.insert(c);
                }
            }
            seen.drain_sorted_into(&mut closed_targets);
            closed_offsets.push(closed_targets.len() as u32);
        }

        // 3. Closed start configuration and finals.
        let mut start = Vec::new();
        for s in initials {
            in_range(s);
            for &c in closure_of(s) {
                seen.insert(c);
            }
        }
        seen.drain_sorted_into(&mut start);
        let mut final_set = BitSet::new(n);
        for f in finals {
            in_range(f);
            final_set.insert(f);
        }

        DenseNfa {
            alphabet,
            num_states: n,
            num_symbols: k,
            closed_offsets,
            closed_targets,
            closure_offsets,
            closure_targets,
            start,
            finals: final_set,
        }
    }

    /// Builds an **ε-free** dense NFA directly from parts: every state's
    /// closure is the singleton `{s}` and the successor lists are exactly the
    /// given transitions (deduplicated and sorted per `(state, symbol)`).
    ///
    /// This is the construction entry point for dense algorithms that
    /// produce NFAs natively — the bisimulation quotient
    /// [`crate::dense_ops::merge_bisimilar`] and the rewriting automaton `A'`
    /// of `rewriter` — without routing through a mutable tree [`Nfa`].
    ///
    /// # Panics
    /// Panics if a state or symbol index is out of range.
    pub fn from_parts(
        alphabet: Alphabet,
        num_states: usize,
        initials: impl IntoIterator<Item = u32>,
        finals: impl IntoIterator<Item = u32>,
        transitions: impl IntoIterator<Item = (u32, u32, u32), IntoIter: Clone>,
    ) -> Self {
        Self::from_edges(alphabet, num_states, initials, finals, transitions, [])
    }

    /// Views a DFA as an ε-free dense NFA (singleton successor lists).
    ///
    /// Used where a deterministic automaton — e.g. a rewriting automaton —
    /// flows into an NFA-consuming evaluator or state elimination.
    pub fn from_dfa(dfa: &Dfa) -> Self {
        let transitions = (0..dfa.num_states() as u32).flat_map(|s| {
            (0..dfa.num_symbols()).filter_map(move |a| Some((s, a as u32, dfa.next(s, a)?)))
        });
        Self::from_parts(
            dfa.alphabet().clone(),
            dfa.num_states(),
            [dfa.initial()],
            dfa.finals().iter(),
            transitions,
        )
    }

    /// Re-labels the automaton over a compatible alphabet (same symbol
    /// indices, possibly a different interned instance).
    ///
    /// # Panics
    /// Panics when the alphabets are incompatible.
    pub fn with_alphabet(mut self, target: Alphabet) -> Self {
        self.alphabet
            .check_compatible(&target)
            .expect("re-labeling over an incompatible alphabet");
        self.alphabet = target;
        self
    }

    /// Thaws the dense automaton back into a tree [`Nfa`] (ε-free: the
    /// folded closures become plain transitions).  Accepts the same
    /// language; used where a dense-built automaton meets a tree oracle.
    pub fn to_nfa(&self) -> Nfa {
        let mut out = Nfa::new(self.alphabet.clone());
        out.add_states(self.num_states);
        for &s in &self.start {
            out.set_initial(s as usize);
        }
        for f in self.finals.iter() {
            out.set_final(f as usize);
        }
        for s in 0..self.num_states as u32 {
            for a in 0..self.num_symbols {
                for &t in self.closed_successors(s, a) {
                    out.add_transition(s as usize, Symbol(a as u32), t as usize);
                }
            }
        }
        out
    }

    /// Freezes a tree NFA into the dense representation
    /// ([`DenseNfa::from_edges`] on its transitions and ε-moves).
    pub fn from_nfa(nfa: &Nfa) -> Self {
        let moves = nfa.transitions();
        Self::from_edges(
            nfa.alphabet().clone(),
            nfa.num_states(),
            nfa.initial_states().iter().map(|&s| s as u32),
            nfa.final_states().iter().map(|&s| s as u32),
            moves.clone().filter_map(|(from, label, to)| {
                Some((from as u32, label?.index() as u32, to as u32))
            }),
            moves.filter_map(|(from, label, to)| {
                label.is_none().then_some((from as u32, to as u32))
            }),
        )
    }

    /// The alphabet of the automaton.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of symbols of the alphabet.
    pub fn num_symbols(&self) -> usize {
        self.num_symbols
    }

    /// The ε-closed initial configuration, sorted.
    pub fn start(&self) -> &[u32] {
        &self.start
    }

    /// The final-state bitset.
    pub fn finals(&self) -> &BitSet {
        &self.finals
    }

    /// Whether `state` is final.
    #[inline]
    pub fn is_final(&self, state: u32) -> bool {
        self.finals.contains(state)
    }

    /// The sorted ε-closed successors of `state` under symbol index `sym`.
    #[inline]
    pub fn closed_successors(&self, state: u32, sym: usize) -> &[u32] {
        debug_assert!(
            sym < self.num_symbols,
            "symbol index {sym} out of range for alphabet of {} symbols",
            self.num_symbols
        );
        let idx = state as usize * self.num_symbols + sym;
        let lo = self.closed_offsets[idx] as usize;
        let hi = self.closed_offsets[idx + 1] as usize;
        &self.closed_targets[lo..hi]
    }

    /// The sorted ε-closure of `{state}` (always contains `state`).
    #[inline]
    pub fn closure(&self, state: u32) -> &[u32] {
        let lo = self.closure_offsets[state as usize] as usize;
        let hi = self.closure_offsets[state as usize + 1] as usize;
        &self.closure_targets[lo..hi]
    }

    /// Steps an ε-closed configuration by one symbol, producing the sorted
    /// ε-closed successor configuration in `out`.  `scratch` must have
    /// capacity for this automaton's states and be empty; it is left empty.
    /// Costs O(successors touched + |out| log |out|), independent of the
    /// automaton's size.
    pub fn step_closed(
        &self,
        config: &[u32],
        sym: usize,
        scratch: &mut SubsetScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        for &s in config {
            for &t in self.closed_successors(s, sym) {
                scratch.insert(t);
            }
        }
        scratch.drain_sorted_into(out);
    }

    /// Whether any state of `config` is final.
    pub fn any_final(&self, config: &[u32]) -> bool {
        config.iter().any(|&s| self.finals.contains(s))
    }

    /// Freezes the reverse of the ε-closed transition relation into a CSR
    /// table: `t ∈ closed_successors(s, a)` ⟺ `s ∈ closed_predecessors(t, a)`.
    ///
    /// Backward product sweeps (e.g. the delta maintenance of `engine`, which
    /// asks "from which `(source, state)` pairs can a run reach the endpoint
    /// of a freshly inserted edge?") need exactly this relation; building it
    /// once per frozen automaton keeps the sweep itself allocation-free.
    pub fn reverse_closed(&self) -> DenseReverse {
        let k = self.num_symbols;
        let edges = (0..self.num_states as u32).flat_map(|s| {
            (0..k).flat_map(move |a| {
                self.closed_successors(s, a)
                    .iter()
                    .map(move |&t| (t as usize * k + a, s))
            })
        });
        DenseReverse {
            num_states: self.num_states,
            num_symbols: k,
            predecessors: Csr::bucket(self.num_states * k, edges),
        }
    }

    /// The *live* states: reachable from the start configuration and able to
    /// reach a final state, with a state's ε-closure counted as one step
    /// (singleton closures make this the plain [`Dfa::reachable`] ∧
    /// [`Dfa::coreachable`]).  Every state of an accepting run is live.
    fn live_states(&self) -> BitSet {
        let n = self.num_states;
        // The ε-closed successors of `s` under every symbol: one CSR slice.
        let successors = |s: u32| {
            let lo = self.closed_offsets[s as usize * self.num_symbols] as usize;
            let hi = self.closed_offsets[(s as usize + 1) * self.num_symbols] as usize;
            &self.closed_targets[lo..hi]
        };
        // Forward.  Successor lists are ε-closed and so is `start`, so there
        // is no closure step.
        let reachable = search(n, self.start.iter().copied(), |s| successors(s).iter().copied());
        // Backward from the reachable final states, over the reachable part.
        let predecessors = Csr::bucket(
            n,
            reachable.iter().flat_map(|s| {
                successors(s).iter().chain(self.closure(s)).map(move |&t| (t as usize, s))
            }),
        );
        let live_finals = self.finals.iter().filter(|&f| reachable.contains(f));
        search(n, live_finals, |t| predecessors.get(t as usize).iter().copied())
    }

    /// The *trim* part of the automaton: only the live states (reachable from
    /// the start configuration *and* able to reach a final state) and the
    /// transitions between them, renumbered in ascending order of their old
    /// ids.  Accepts the same language — an accepting run never leaves the
    /// live states — and returns `self` untouched when every state is live
    /// already, which is what Thompson/Glushkov automata of ∅-free
    /// expressions are.
    ///
    /// A product sweep over a graph follows *every* edge whose label has a
    /// transition, so a non-co-accessible sink — what the complement of
    /// Theorem 2.2's step 3 leaves in every rewriting automaton — makes each
    /// source walk everything reachable in the graph for nothing.  The empty
    /// language trims to an automaton with no states and no start state.
    pub fn trim(self) -> Self {
        let live = self.live_states();
        let kept: Vec<u32> = live.iter().collect();
        if kept.len() == self.num_states {
            return self;
        }
        let mut remap = vec![DEAD; self.num_states];
        for (new, &old) in kept.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let keep_live = |out: &mut Vec<u32>, states: &[u32]| {
            out.extend(states.iter().map(|&s| remap[s as usize]).filter(|&s| s != DEAD));
            out.len() as u32
        };
        let mut closed_offsets = vec![0u32];
        let mut closed_targets = Vec::new();
        let mut closure_offsets = vec![0u32];
        let mut closure_targets = Vec::new();
        for &s in &kept {
            for a in 0..self.num_symbols {
                closed_offsets.push(keep_live(&mut closed_targets, self.closed_successors(s, a)));
            }
            closure_offsets.push(keep_live(&mut closure_targets, self.closure(s)));
        }
        let mut start = Vec::new();
        keep_live(&mut start, &self.start);
        let mut finals = BitSet::new(kept.len());
        for f in self.finals.iter().filter(|&f| live.contains(f)) {
            finals.insert(remap[f as usize]);
        }
        DenseNfa {
            alphabet: self.alphabet,
            num_states: kept.len(),
            num_symbols: self.num_symbols,
            closed_offsets,
            closed_targets,
            closure_offsets,
            closure_targets,
            start,
            finals,
        }
    }

    /// Whether the automaton accepts `word` (bitset-frontier evaluation).
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut scratch = SubsetScratch::new(self.num_states);
        let mut current = self.start.to_vec();
        let mut next = Vec::new();
        for &sym in word {
            if current.is_empty() {
                return false;
            }
            self.step_closed(&current, sym.index(), &mut scratch, &mut next);
            std::mem::swap(&mut current, &mut next);
        }
        self.any_final(&current)
    }
}

impl From<&Nfa> for DenseNfa {
    fn from(nfa: &Nfa) -> Self {
        DenseNfa::from_nfa(nfa)
    }
}

/// The reverse of a [`DenseNfa`]'s ε-closed transition relation, frozen into
/// a CSR table by [`DenseNfa::reverse_closed`].
///
/// `closed_predecessors(t, a)` lists every state `s` with
/// `t ∈ closed_successors(s, a)` — i.e. the states from which one `a`-step
/// (with ε-closure folded in) can land in `t`.  Sources within a bucket
/// appear in ascending order, mirroring the forward table.
#[derive(Debug, Clone)]
pub struct DenseReverse {
    num_states: usize,
    num_symbols: usize,
    /// Bucket `t * num_symbols + a` holds the predecessors of `t` under
    /// symbol `a`.
    predecessors: Csr,
}

impl DenseReverse {
    /// Number of states of the underlying automaton.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of symbols of the underlying alphabet.
    pub fn num_symbols(&self) -> usize {
        self.num_symbols
    }

    /// The sorted states `s` with `state ∈ closed_successors(s, sym)`.
    #[inline]
    pub fn closed_predecessors(&self, state: u32, sym: usize) -> &[u32] {
        debug_assert!(
            sym < self.num_symbols,
            "symbol index {sym} out of range for alphabet of {} symbols",
            self.num_symbols
        );
        self.predecessors
            .get(state as usize * self.num_symbols + sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::from_chars(['a', 'b']).unwrap()
    }

    fn w(alpha: &Alphabet, s: &str) -> Vec<Symbol> {
        alpha.word_from_str(s).unwrap()
    }

    #[test]
    fn bitset_insert_remove_iter() {
        let mut set = BitSet::new(200);
        assert!(set.insert(0));
        assert!(set.insert(63));
        assert!(set.insert(64));
        assert!(set.insert(199));
        assert!(!set.insert(63));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 199]);
        set.remove(64);
        assert!(!set.contains(64));
        assert!(set.contains(199));
        set.clear();
        assert!(set.is_empty());
    }

    #[test]
    fn dense_nfa_folds_epsilon_closures() {
        let alpha = ab();
        let a = alpha.symbol("a").unwrap();
        let mut nfa = Nfa::new(alpha.clone());
        let s0 = nfa.add_state();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        let s3 = nfa.add_state();
        nfa.set_initial(s0);
        nfa.set_final(s3);
        nfa.add_epsilon(s0, s1);
        nfa.add_transition(s1, a, s2);
        nfa.add_epsilon(s2, s3);
        let dense = DenseNfa::from_nfa(&nfa);
        // Start closure covers s0 and s1; stepping by `a` lands in {s2, s3}.
        assert_eq!(dense.start(), &[0, 1]);
        assert_eq!(dense.closed_successors(1, a.index()), &[2, 3]);
        assert_eq!(dense.closure(0), &[0, 1]);
        assert!(dense.accepts(&w(&alpha, "a")));
        assert!(!dense.accepts(&w(&alpha, "aa")));
        assert!(!dense.accepts(&[]));
    }

    #[test]
    fn dense_nfa_accepts_agrees_with_tree_nfa() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        let nfa = a.concat(&b).star().union(&b.plus());
        let dense = DenseNfa::from_nfa(&nfa);
        for word in ["", "ab", "abab", "b", "bbb", "a", "ba", "abb"] {
            let word = w(&alpha, word);
            assert_eq!(nfa.accepts(&word), dense.accepts(&word), "{word:?}");
        }
    }

    #[test]
    fn reverse_closed_inverts_the_forward_table() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        let nfa = a.concat(&b).star().union(&b.plus());
        let dense = DenseNfa::from_nfa(&nfa);
        let rev = dense.reverse_closed();
        assert_eq!(rev.num_states(), dense.num_states());
        assert_eq!(rev.num_symbols(), dense.num_symbols());
        for s in 0..dense.num_states() as u32 {
            for sym in 0..dense.num_symbols() {
                for &t in dense.closed_successors(s, sym) {
                    assert!(
                        rev.closed_predecessors(t, sym).contains(&s),
                        "missing reverse edge {s} -{sym}-> {t}"
                    );
                }
                for &t in rev.closed_predecessors(s, sym) {
                    assert!(
                        dense.closed_successors(t, sym).contains(&s),
                        "spurious reverse edge {t} -{sym}-> {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_closed_leaves_scratch_empty() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let nfa = a.star();
        let dense = DenseNfa::from_nfa(&nfa);
        let mut scratch = SubsetScratch::new(dense.num_states());
        let mut out = Vec::new();
        dense.step_closed(dense.start(), 0, &mut scratch, &mut out);
        assert!(scratch.is_empty());
        assert!(dense.any_final(&out));
    }
}
