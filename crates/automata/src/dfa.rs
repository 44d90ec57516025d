//! Deterministic finite automata.
//!
//! The rewriting construction of the paper (Section 2) requires the query
//! automaton `A_d` to be **deterministic**: the `Σ_E`-automaton `A'` places an
//! `e`-edge between `s_i` and `s_j` exactly when some word of the view's
//! language drives `A_d` from `s_i` to `s_j`, and complementing `A'` is only
//! sound because a word rejected by a deterministic `A_d` can never also be
//! accepted by it.  The [`Dfa`] type here is therefore the centrepiece that
//! `rewriter` builds on.
//!
//! A `Dfa` is a flat `state × symbol` next-state table with `u32` states,
//! [`DEAD`] for a missing transition (a `Dfa` may be *partial*: the run dies)
//! and a [`BitSet`] of final states.  The same table is what the algorithms
//! build — the subset construction ([`crate::determinize_to_dense`]),
//! minimization, products and complements lay their results out flat from
//! the start — and what they read: acceptance, completion, complement,
//! reachability and shortest words are methods here.  It can also be grown
//! state by state ([`Dfa::new`], [`Dfa::add_state`],
//! [`Dfa::set_transition`]), which is how random automata and test fixtures
//! are made.  Iterated state-major, the table lists transitions in the order
//! the seed's per-state `BTreeMap`s did, so the seed's tree algorithms in the
//! dev-only `testkit` crate read it unchanged as the oracles.

use std::collections::{BTreeSet, VecDeque};

use crate::alphabet::{Alphabet, Symbol};
use crate::dense::{search, BitSet, Csr, DEAD};

/// A deterministic finite automaton, possibly partial, as a flat next-state
/// table.
#[derive(Debug, Clone)]
pub struct Dfa {
    alphabet: Alphabet,
    num_states: usize,
    num_symbols: usize,
    /// `table[s * num_symbols + a]` is the successor, or [`DEAD`].
    table: Vec<u32>,
    initial: u32,
    finals: BitSet,
}

impl Dfa {
    /// Creates a DFA with a single non-accepting initial state and no
    /// transitions (the empty language).
    pub fn new(alphabet: Alphabet) -> Self {
        let k = alphabet.len();
        Self::from_table(alphabet, 1, 0, [], vec![DEAD; k])
    }

    /// Builds a DFA directly from a flat next-state table
    /// (`table[s * alphabet.len() + a]`, `u32::MAX` for missing
    /// transitions): the construction entry point of the algorithms that lay
    /// their result out row by row ([`crate::determinize_to_dense`],
    /// [`crate::minimize_dense`], [`crate::intersect_dense`]).
    ///
    /// # Panics
    /// Panics if the table size disagrees with `num_states` or if `initial`,
    /// a final state or any live table entry is out of range.
    pub fn from_table(
        alphabet: Alphabet,
        num_states: usize,
        initial: u32,
        finals: impl IntoIterator<Item = u32>,
        table: Vec<u32>,
    ) -> Self {
        let k = alphabet.len();
        assert_eq!(table.len(), num_states * k, "table size mismatch");
        assert!((initial as usize) < num_states, "initial state out of range");
        assert!(
            table.iter().all(|&t| t == DEAD || (t as usize) < num_states),
            "transition target out of range"
        );
        let mut final_set = BitSet::new(num_states);
        for f in finals {
            assert!((f as usize) < num_states, "final state out of range");
            final_set.insert(f);
        }
        Dfa {
            alphabet,
            num_states,
            num_symbols: k,
            table,
            initial,
            finals: final_set,
        }
    }

    /// Builds a DFA from `(from, symbol, to)` transition triples; a later
    /// triple for the same `(from, symbol)` replaces an earlier one.
    ///
    /// # Panics
    /// Panics if `initial`, a final state or any transition endpoint is out of
    /// range, or a symbol is not in the alphabet.
    pub fn from_parts(
        alphabet: Alphabet,
        num_states: usize,
        initial: u32,
        finals: impl IntoIterator<Item = u32>,
        transitions: impl IntoIterator<Item = (u32, Symbol, u32)>,
    ) -> Self {
        let table = vec![DEAD; num_states * alphabet.len()];
        let mut dfa = Self::from_table(alphabet, num_states, initial, finals, table);
        for (from, sym, to) in transitions {
            dfa.set_transition(from, sym, to);
        }
        dfa
    }

    /// The automaton accepting the empty language.
    pub fn empty(alphabet: Alphabet) -> Self {
        Self::new(alphabet)
    }

    /// The complete automaton accepting Σ*.
    pub fn universal(alphabet: Alphabet) -> Self {
        let k = alphabet.len();
        Self::from_table(alphabet, 1, 0, [0], vec![0; k])
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

    /// Number of (defined) transitions.
    pub fn num_transitions(&self) -> usize {
        self.table.iter().filter(|&&t| t != DEAD).count()
    }

    /// The initial state.
    pub fn initial(&self) -> u32 {
        self.initial
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, s: u32) {
        assert!((s as usize) < self.num_states, "initial state out of range");
        self.initial = s;
    }

    /// The final-state bitset.
    pub fn finals(&self) -> &BitSet {
        &self.finals
    }

    /// Whether `state` is accepting.
    #[inline]
    pub fn is_final(&self, state: u32) -> bool {
        self.finals.contains(state)
    }

    /// Marks `s` accepting (`true`) or rejecting (`false`).
    pub fn set_final(&mut self, s: u32, accepting: bool) {
        assert!((s as usize) < self.num_states, "final state out of range");
        if accepting {
            self.finals.insert(s);
        } else {
            self.finals.remove(s);
        }
    }

    /// Adds a fresh state with no transitions, returning its id.
    pub fn add_state(&mut self, accepting: bool) -> u32 {
        let s = self.num_states as u32;
        self.num_states += 1;
        self.table.extend(std::iter::repeat_n(DEAD, self.num_symbols));
        self.finals.grow(self.num_states);
        self.set_final(s, accepting);
        s
    }

    /// Sets the transition `from --sym--> to`, replacing any previous target.
    pub fn set_transition(&mut self, from: u32, sym: Symbol, to: u32) {
        assert!(
            (from as usize) < self.num_states && (to as usize) < self.num_states,
            "transition endpoint out of range"
        );
        assert!(
            sym.index() < self.num_symbols,
            "symbol {sym} not in alphabet {}",
            self.alphabet.render()
        );
        self.table[from as usize * self.num_symbols + sym.index()] = to;
    }

    /// The successor of `state` under symbol index `sym`, or `None` when the
    /// run dies.
    #[inline]
    pub fn next(&self, state: u32, sym: usize) -> Option<u32> {
        let t = self.next_raw(state, sym);
        (t != DEAD).then_some(t)
    }

    /// The raw next-state entry ([`DEAD`] when missing) — branch-free inner
    /// loops can compare against [`DEAD`] themselves.
    #[inline]
    pub(crate) fn next_raw(&self, state: u32, sym: usize) -> u32 {
        self.table[state as usize * self.num_symbols + sym]
    }

    /// Iterates over all transitions as `(from, sym, to)` triples, by state
    /// and then by symbol.
    pub fn transitions(&self) -> impl Iterator<Item = (u32, Symbol, u32)> + '_ {
        let k = self.num_symbols;
        self.table
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != DEAD)
            .map(move |(i, &t)| ((i / k) as u32, Symbol((i % k) as u32), t))
    }

    /// Whether the automaton accepts `word`; a symbol outside the alphabet
    /// rejects.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut state = self.initial;
        for sym in word {
            if sym.index() >= self.num_symbols {
                return false;
            }
            match self.next(state, sym.index()) {
                Some(t) => state = t,
                None => return false,
            }
        }
        self.is_final(state)
    }

    /// Whether the automaton accepts the word written as symbol names.
    pub fn accepts_names(&self, names: &[&str]) -> bool {
        match self.alphabet.word(names) {
            Ok(w) => self.accepts(&w),
            Err(_) => false,
        }
    }

    /// The set of states from which a final state is reachable.
    pub fn coreachable(&self) -> BitSet {
        let n = self.num_states;
        let predecessors = Csr::bucket(
            n,
            (0..n as u32).flat_map(|s| self.successors(s).map(move |t| (t as usize, s))),
        );
        search(n, self.finals.iter(), |t| predecessors.get(t as usize).iter().copied())
    }

    /// The set of states reachable from the initial state.
    pub fn reachable(&self) -> BitSet {
        search(self.num_states, [self.initial], |s| self.successors(s))
    }

    /// The defined successors of `state`, in symbol order.
    fn successors(&self, state: u32) -> impl Iterator<Item = u32> + Clone + '_ {
        (0..self.num_symbols).filter_map(move |a| self.next(state, a))
    }

    /// Whether every state has a transition for every symbol.
    pub fn is_complete(&self) -> bool {
        !self.table.contains(&DEAD)
    }

    /// A complete version of the automaton: missing transitions are
    /// redirected to an explicit non-accepting sink appended as the last
    /// state (only when needed), as the seed's tree completion placed it.
    pub fn complete(&self) -> Dfa {
        let mut out = self.clone();
        if self.is_complete() {
            return out;
        }
        let sink = out.add_state(false);
        for t in &mut out.table {
            if *t == DEAD {
                *t = sink;
            }
        }
        out
    }

    /// The complement automaton: [`Dfa::complete`], with accepting states
    /// flipped.
    pub fn complement(&self) -> Dfa {
        let mut out = self.complete();
        let mut finals = BitSet::new(out.num_states);
        for s in 0..out.num_states as u32 {
            if !out.finals.contains(s) {
                finals.insert(s);
            }
        }
        out.finals = finals;
        out
    }

    /// Removes unreachable states, renumbering the survivors in ascending
    /// order of their old ids (the initial state is always kept), as the
    /// tree oracle's `testkit::dfa::trim_unreachable` does.
    pub fn trim_unreachable(&self) -> Dfa {
        let reach = self.reachable();
        let k = self.num_symbols;
        let mut remap = vec![DEAD; self.num_states];
        let mut kept = 0u32;
        for s in reach.iter() {
            remap[s as usize] = kept;
            kept += 1;
        }
        let mut table = Vec::with_capacity(kept as usize * k);
        let mut finals = BitSet::new(kept as usize);
        for s in reach.iter() {
            for a in 0..k {
                let t = self.next_raw(s, a);
                table.push(if t == DEAD { DEAD } else { remap[t as usize] });
            }
            if self.finals.contains(s) {
                finals.insert(remap[s as usize]);
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            num_states: kept as usize,
            num_symbols: k,
            table,
            initial: remap[self.initial as usize],
            finals,
        }
    }

    /// A shortest accepted word, if any — BFS from the initial state in
    /// symbol order, so ties break towards the smallest symbols.
    pub fn shortest_word(&self) -> Option<Vec<Symbol>> {
        if self.finals.contains(self.initial) {
            return Some(Vec::new());
        }
        let mut pred: Vec<(u32, u32)> = vec![(DEAD, 0); self.num_states];
        let mut seen = BitSet::new(self.num_states);
        seen.insert(self.initial);
        let mut queue = VecDeque::from([self.initial]);
        let mut target = None;
        'bfs: while let Some(s) = queue.pop_front() {
            for a in 0..self.num_symbols {
                let t = self.next_raw(s, a);
                if t != DEAD && seen.insert(t) {
                    pred[t as usize] = (s, a as u32);
                    if self.finals.contains(t) {
                        target = Some(t);
                        break 'bfs;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut cur = target?;
        let mut word = Vec::new();
        while cur != self.initial {
            let (prev, sym) = pred[cur as usize];
            word.push(Symbol(sym));
            cur = prev;
        }
        word.reverse();
        Some(word)
    }

    /// Renders the automaton compactly for debugging/logging.
    pub fn describe(&self) -> String {
        format!(
            "DFA(states={}, transitions={}, initial={}, finals={:?}, complete={})",
            self.num_states,
            self.num_transitions(),
            self.initial,
            self.finals.iter().collect::<BTreeSet<_>>(),
            self.is_complete()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::from_chars(['a', 'b']).unwrap()
    }

    /// DFA for the language (ab)*  over {a,b}.
    fn ab_star() -> Dfa {
        let alpha = ab();
        let a = alpha.symbol("a").unwrap();
        let b = alpha.symbol("b").unwrap();
        Dfa::from_parts(alpha, 2, 0, [0], [(0, a, 1), (1, b, 0)])
    }

    fn w(alpha: &Alphabet, s: &str) -> Vec<Symbol> {
        alpha.word_from_str(s).unwrap()
    }

    /// Every word over `alpha` of length at most `max_len`.
    fn words_up_to(alpha: &Alphabet, max_len: usize) -> Vec<Vec<Symbol>> {
        let mut words = vec![Vec::new()];
        let mut layer = vec![Vec::new()];
        for _ in 0..max_len {
            layer = layer
                .iter()
                .flat_map(|word: &Vec<Symbol>| {
                    alpha.symbols().map(move |sym| {
                        let mut longer = word.clone();
                        longer.push(sym);
                        longer
                    })
                })
                .collect();
            words.extend(layer.iter().cloned());
        }
        words
    }

    #[test]
    fn accepts_and_rejects() {
        let dfa = ab_star();
        let alpha = dfa.alphabet().clone();
        assert!(dfa.accepts(&[]));
        assert!(dfa.accepts(&w(&alpha, "ab")));
        assert!(dfa.accepts(&w(&alpha, "abab")));
        assert!(!dfa.accepts(&w(&alpha, "a")));
        assert!(!dfa.accepts(&w(&alpha, "ba")));
        assert!(dfa.accepts_names(&["a", "b"]));
        assert!(!dfa.accepts_names(&["nope"]));
    }

    #[test]
    fn grown_table_equals_the_one_built_from_parts() {
        let alpha = Alphabet::from_chars(['a', 'b', 'c']).unwrap();
        let [a, b, c] = ["a", "b", "c"].map(|name| alpha.symbol(name).unwrap());
        let parts = Dfa::from_parts(
            alpha.clone(),
            3,
            1,
            [0, 2],
            [(1, a, 0), (0, b, 2), (2, c, 2), (2, a, 1)],
        );

        let mut grown = Dfa::new(alpha.clone());
        let s1 = grown.add_state(false);
        let s2 = grown.add_state(true);
        grown.set_final(0, true);
        grown.set_initial(s1);
        grown.set_transition(s1, a, 0);
        grown.set_transition(0, b, s2);
        grown.set_transition(s2, a, s1);
        grown.set_transition(s2, c, s2);

        assert!(grown.transitions().eq(parts.transitions()));
        assert_eq!(grown.finals(), parts.finals());
        assert_eq!(grown.initial(), parts.initial());
        assert_eq!(grown.is_complete(), parts.is_complete());
        for word in words_up_to(&alpha, 4) {
            assert_eq!(grown.accepts(&word), parts.accepts(&word), "{word:?}");
        }

        // Row 0 only has a `b` transition: the rest of it reads as dead.
        assert_eq!(grown.next(0, a.index()), None);
        assert_eq!(grown.next_raw(0, c.index()), DEAD);
        assert!(!grown.is_complete());
        // Completion appends the sink as the last state.
        let complete = grown.complete();
        let sink = grown.num_states() as u32;
        assert_eq!(complete.num_states(), grown.num_states() + 1);
        assert_eq!(complete.next(0, a.index()), Some(sink));
        assert!(!complete.is_final(sink));
        assert!((0..3).all(|sym| complete.next(sink, sym) == Some(sink)));
    }

    #[test]
    fn completion_adds_sink_once() {
        let dfa = ab_star();
        assert!(!dfa.is_complete());
        let complete = dfa.complete();
        assert!(complete.is_complete());
        assert_eq!(complete.num_states(), 3);
        // Completing again is a no-op.
        assert_eq!(complete.complete().num_states(), 3);
        // Language unchanged.
        let alpha = dfa.alphabet().clone();
        assert!(complete.accepts(&w(&alpha, "abab")));
        assert!(!complete.accepts(&w(&alpha, "aa")));
    }

    #[test]
    fn complement_flips_membership() {
        let dfa = ab_star();
        let alpha = dfa.alphabet().clone();
        let comp = dfa.complement();
        assert!(!comp.accepts(&[]));
        assert!(!comp.accepts(&w(&alpha, "ab")));
        assert!(comp.accepts(&w(&alpha, "a")));
        assert!(comp.accepts(&w(&alpha, "ba")));
        // Double complement restores the language on sample words.
        let cc = comp.complement();
        for word in ["", "a", "b", "ab", "ba", "abab", "abb"] {
            let word = w(&alpha, word);
            assert_eq!(dfa.accepts(&word), cc.accepts(&word));
        }
    }

    #[test]
    fn empty_and_universal() {
        let alpha = ab();
        let empty = Dfa::empty(alpha.clone());
        assert_eq!(empty.shortest_word(), None);
        assert_eq!(empty.complement().shortest_word(), Some(vec![]));
        let univ = Dfa::universal(alpha.clone());
        assert_eq!(univ.complement().shortest_word(), None);
        assert_eq!(univ.shortest_word(), Some(vec![]));
        assert!(univ.accepts(&w(&alpha, "abba")));
    }

    #[test]
    fn shortest_word_finds_minimum() {
        assert_eq!(ab_star().shortest_word(), Some(vec![]));
        // Language a·b (single word) has shortest word ab.
        let alpha = ab();
        let a = alpha.symbol("a").unwrap();
        let b = alpha.symbol("b").unwrap();
        let dfa = Dfa::from_parts(alpha.clone(), 3, 0, [2], [(0, a, 1), (1, b, 2)]);
        assert_eq!(dfa.shortest_word(), Some(w(&alpha, "ab")));
        assert_eq!(Dfa::empty(alpha).shortest_word(), None);
    }

    #[test]
    fn describe_mentions_counts() {
        let d = ab_star().describe();
        assert!(d.contains("states=2"));
    }
}
