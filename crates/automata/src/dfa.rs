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
//! A `Dfa` may be *partial* (missing transitions mean the run dies).  It is a
//! construction and interchange type: completion, complement, reachability
//! and shortest words run on its frozen form, [`crate::DenseDfa`]
//! (`DenseDfa::from_dfa`, and `to_dfa` back).

use std::collections::{BTreeMap, BTreeSet};

use crate::alphabet::{Alphabet, Symbol};
use crate::nfa::StateId;

/// A deterministic finite automaton, possibly partial.
#[derive(Debug, Clone)]
pub struct Dfa {
    alphabet: Alphabet,
    /// transitions[s][sym] = successor.  Missing entries are dead.
    transitions: Vec<BTreeMap<Symbol, StateId>>,
    initial: StateId,
    finals: Vec<bool>,
}

impl Dfa {
    /// Creates a DFA with a single non-accepting initial state and no
    /// transitions (the empty language).
    pub fn new(alphabet: Alphabet) -> Self {
        Self {
            alphabet,
            transitions: vec![BTreeMap::new()],
            initial: 0,
            finals: vec![false],
        }
    }

    /// Builds a DFA from raw parts.
    ///
    /// # Panics
    /// Panics if `initial` or any transition endpoint is out of range.
    pub fn from_parts(
        alphabet: Alphabet,
        num_states: usize,
        initial: StateId,
        finals: impl IntoIterator<Item = StateId>,
        transitions: impl IntoIterator<Item = (StateId, Symbol, StateId)>,
    ) -> Self {
        assert!(initial < num_states, "initial state out of range");
        let mut dfa = Self {
            alphabet,
            transitions: vec![BTreeMap::new(); num_states],
            initial,
            finals: vec![false; num_states],
        };
        for f in finals {
            assert!(f < num_states, "final state out of range");
            dfa.finals[f] = true;
        }
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
        let mut dfa = Self::new(alphabet.clone());
        dfa.finals[0] = true;
        for sym in alphabet.symbols() {
            dfa.set_transition(0, sym, 0);
        }
        dfa
    }

    /// The alphabet of the automaton.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Number of (defined) transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(BTreeMap::len).sum()
    }

    /// The initial state.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, s: StateId) {
        assert!(s < self.num_states());
        self.initial = s;
    }

    /// Whether `s` is accepting.
    pub fn is_final(&self, s: StateId) -> bool {
        self.finals[s]
    }

    /// The set of accepting states.
    pub fn final_states(&self) -> BTreeSet<StateId> {
        self.finals
            .iter()
            .enumerate()
            .filter_map(|(s, &f)| f.then_some(s))
            .collect()
    }

    /// Marks `s` accepting (`true`) or rejecting (`false`).
    pub fn set_final(&mut self, s: StateId, accepting: bool) {
        self.finals[s] = accepting;
    }

    /// Adds a fresh state, returning its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        self.transitions.push(BTreeMap::new());
        self.finals.push(accepting);
        self.transitions.len() - 1
    }

    /// Sets the transition `from --sym--> to`, replacing any previous target.
    pub fn set_transition(&mut self, from: StateId, sym: Symbol, to: StateId) {
        assert!(from < self.num_states() && to < self.num_states());
        assert!(
            sym.index() < self.alphabet.len(),
            "symbol {sym} not in alphabet {}",
            self.alphabet.render()
        );
        self.transitions[from].insert(sym, to);
    }

    /// The successor of `s` under `sym`, if defined.
    pub fn next_state(&self, s: StateId, sym: Symbol) -> Option<StateId> {
        self.transitions[s].get(&sym).copied()
    }

    /// Iterates over the transitions leaving `s`.
    pub fn transitions_from(&self, s: StateId) -> impl Iterator<Item = (Symbol, StateId)> + '_ {
        self.transitions[s].iter().map(|(&sym, &to)| (sym, to))
    }

    /// Iterates over all transitions as `(from, sym, to)` triples.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .flat_map(|(from, m)| m.iter().map(move |(&sym, &to)| (from, sym, to)))
    }

    /// Runs the automaton on `word` from the initial state, returning the
    /// final state reached, or `None` if the run dies.
    pub fn run(&self, word: &[Symbol]) -> Option<StateId> {
        self.run_from(self.initial, word)
    }

    /// Runs the automaton on `word` starting from `state`.
    pub fn run_from(&self, state: StateId, word: &[Symbol]) -> Option<StateId> {
        let mut current = state;
        for &sym in word {
            current = self.next_state(current, sym)?;
        }
        Some(current)
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.run(word).map(|s| self.finals[s]).unwrap_or(false)
    }

    /// Whether the automaton accepts the word written as symbol names.
    pub fn accepts_names(&self, names: &[&str]) -> bool {
        match self.alphabet.word(names) {
            Ok(w) => self.accepts(&w),
            Err(_) => false,
        }
    }

    /// Whether every state has a transition for every alphabet symbol.
    pub fn is_complete(&self) -> bool {
        self.transitions
            .iter()
            .all(|m| m.len() == self.alphabet.len())
    }

    /// Renders the automaton compactly for debugging/logging.
    pub fn describe(&self) -> String {
        format!(
            "DFA(states={}, transitions={}, initial={}, finals={:?}, complete={})",
            self.num_states(),
            self.num_transitions(),
            self.initial,
            self.final_states(),
            self.is_complete()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseDfa;

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
    fn completion_adds_sink_once() {
        let dfa = ab_star();
        assert!(!dfa.is_complete());
        let complete = DenseDfa::from_dfa(&dfa).complete().to_dfa();
        assert!(complete.is_complete());
        assert_eq!(complete.num_states(), 3);
        // Completing again is a no-op.
        assert_eq!(DenseDfa::from_dfa(&complete).complete().num_states(), 3);
        // Language unchanged.
        let alpha = dfa.alphabet().clone();
        assert!(complete.accepts(&w(&alpha, "abab")));
        assert!(!complete.accepts(&w(&alpha, "aa")));
    }

    #[test]
    fn complement_flips_membership() {
        let dfa = ab_star();
        let alpha = dfa.alphabet().clone();
        let comp = DenseDfa::from_dfa(&dfa).complement();
        let tree = comp.to_dfa();
        assert!(!tree.accepts(&[]));
        assert!(!tree.accepts(&w(&alpha, "ab")));
        assert!(tree.accepts(&w(&alpha, "a")));
        assert!(tree.accepts(&w(&alpha, "ba")));
        // Double complement restores the language on sample words.
        let cc = comp.complement().to_dfa();
        for word in ["", "a", "b", "ab", "ba", "abab", "abb"] {
            let word = w(&alpha, word);
            assert_eq!(dfa.accepts(&word), cc.accepts(&word));
        }
    }

    #[test]
    fn empty_and_universal() {
        let alpha = ab();
        let empty = DenseDfa::from_dfa(&Dfa::empty(alpha.clone()));
        assert_eq!(empty.shortest_word(), None);
        assert_eq!(empty.complement().shortest_word(), Some(vec![]));
        let univ = DenseDfa::from_dfa(&Dfa::universal(alpha.clone()));
        assert_eq!(univ.complement().shortest_word(), None);
        assert_eq!(univ.shortest_word(), Some(vec![]));
        assert!(Dfa::universal(alpha.clone()).accepts(&w(&alpha, "abba")));
    }

    #[test]
    fn shortest_word_finds_minimum() {
        let shortest = |dfa: &Dfa| DenseDfa::from_dfa(dfa).shortest_word();
        assert_eq!(shortest(&ab_star()), Some(vec![]));
        // Language a·b (single word) has shortest word ab.
        let alpha = ab();
        let a = alpha.symbol("a").unwrap();
        let b = alpha.symbol("b").unwrap();
        let dfa = Dfa::from_parts(alpha.clone(), 3, 0, [2], [(0, a, 1), (1, b, 2)]);
        assert_eq!(shortest(&dfa), Some(w(&alpha, "ab")));
        assert_eq!(shortest(&Dfa::empty(alpha)), None);
    }

    #[test]
    fn run_from_intermediate_state() {
        let dfa = ab_star();
        let alpha = dfa.alphabet().clone();
        let b = alpha.symbol("b").unwrap();
        assert_eq!(dfa.run_from(1, &[b]), Some(0));
        assert_eq!(dfa.run_from(1, &w(&alpha, "a")), None);
    }

    #[test]
    fn describe_mentions_counts() {
        let d = ab_star().describe();
        assert!(d.contains("states=2"));
    }
}
