//! Nondeterministic finite automata with ε-moves.
//!
//! [`Nfa`] is the representation Thompson's construction (`regexlang`)
//! builds regular expressions in.  The expansion automaton `B` of the
//! exactness check (Section 2, Theorem 2.3) is not: `rewriter` builds it
//! dense, in one [`DenseNfa::from_edges`] call.
//!
//! The representation is adjacency-list based: for every state we keep a map
//! from `Option<Symbol>` (where `None` is ε) to the set of successor states.
//!
//! An `Nfa` is a construction type: it builds automata (the rational
//! operations) and hands them over.  Every algorithm that reads an
//! automaton — ε-closure, trimming, acceptance, emptiness — runs on its
//! frozen form, [`DenseNfa`].

use std::collections::{BTreeMap, BTreeSet};

use crate::alphabet::{Alphabet, Symbol};
use crate::dense::DenseNfa;
use crate::dfa::Dfa;

/// State identifier within a single automaton.
pub type StateId = usize;

/// A nondeterministic finite automaton with ε-transitions.
#[derive(Debug, Clone)]
pub struct Nfa {
    alphabet: Alphabet,
    /// transitions[s][label] = set of successors; label `None` means ε.
    transitions: Vec<BTreeMap<Option<Symbol>, BTreeSet<StateId>>>,
    initial: BTreeSet<StateId>,
    finals: BTreeSet<StateId>,
}

impl Nfa {
    /// Creates an empty automaton (no states, empty language) over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        Self {
            alphabet,
            transitions: Vec::new(),
            initial: BTreeSet::new(),
            finals: BTreeSet::new(),
        }
    }

    /// The automaton accepting the empty language ∅.
    pub fn empty(alphabet: Alphabet) -> Self {
        Self::new(alphabet)
    }

    /// The automaton accepting exactly the empty word ε.
    pub fn epsilon(alphabet: Alphabet) -> Self {
        let mut nfa = Self::new(alphabet);
        let s = nfa.add_state();
        nfa.set_initial(s);
        nfa.set_final(s);
        nfa
    }

    /// The automaton accepting exactly the one-letter word `sym`.
    pub fn symbol(alphabet: Alphabet, sym: Symbol) -> Self {
        let mut nfa = Self::new(alphabet);
        let s0 = nfa.add_state();
        let s1 = nfa.add_state();
        nfa.set_initial(s0);
        nfa.set_final(s1);
        nfa.add_transition(s0, sym, s1);
        nfa
    }

    /// The automaton accepting exactly the given word.
    pub fn word(alphabet: Alphabet, word: &[Symbol]) -> Self {
        let mut nfa = Self::new(alphabet);
        let mut prev = nfa.add_state();
        nfa.set_initial(prev);
        for &sym in word {
            let next = nfa.add_state();
            nfa.add_transition(prev, sym, next);
            prev = next;
        }
        nfa.set_final(prev);
        nfa
    }

    /// The automaton accepting all one-letter words (Σ itself).
    pub fn any_symbol(alphabet: Alphabet) -> Self {
        let mut nfa = Self::new(alphabet.clone());
        let s0 = nfa.add_state();
        let s1 = nfa.add_state();
        nfa.set_initial(s0);
        nfa.set_final(s1);
        for sym in alphabet.symbols() {
            nfa.add_transition(s0, sym, s1);
        }
        nfa
    }

    /// The automaton accepting Σ* (all words).
    pub fn universal(alphabet: Alphabet) -> Self {
        let mut nfa = Self::new(alphabet.clone());
        let s = nfa.add_state();
        nfa.set_initial(s);
        nfa.set_final(s);
        for sym in alphabet.symbols() {
            nfa.add_transition(s, sym, s);
        }
        nfa
    }

    /// The alphabet of the automaton.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Total number of transitions (each `(state, label, successor)` triple).
    pub fn num_transitions(&self) -> usize {
        self.transitions
            .iter()
            .map(|m| m.values().map(BTreeSet::len).sum::<usize>())
            .sum()
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.transitions.push(BTreeMap::new());
        self.transitions.len() - 1
    }

    /// Adds `n` fresh states and returns their ids.
    pub fn add_states(&mut self, n: usize) -> Vec<StateId> {
        (0..n).map(|_| self.add_state()).collect()
    }

    /// Marks a state as initial.
    pub fn set_initial(&mut self, s: StateId) {
        assert!(s < self.num_states(), "state {s} out of range");
        self.initial.insert(s);
    }

    /// Marks a state as final (accepting).
    pub fn set_final(&mut self, s: StateId) {
        assert!(s < self.num_states(), "state {s} out of range");
        self.finals.insert(s);
    }

    /// Adds a labeled transition.
    pub fn add_transition(&mut self, from: StateId, sym: Symbol, to: StateId) {
        assert!(from < self.num_states() && to < self.num_states());
        assert!(
            sym.index() < self.alphabet.len(),
            "symbol {sym} not in alphabet {}",
            self.alphabet.render()
        );
        self.transitions[from].entry(Some(sym)).or_default().insert(to);
    }

    /// Adds an ε-transition.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        assert!(from < self.num_states() && to < self.num_states());
        self.transitions[from].entry(None).or_default().insert(to);
    }

    /// Set of initial states.
    pub fn initial_states(&self) -> &BTreeSet<StateId> {
        &self.initial
    }

    /// Set of final states.
    pub fn final_states(&self) -> &BTreeSet<StateId> {
        &self.finals
    }

    /// Whether `s` is a final state.
    pub fn is_final(&self, s: StateId) -> bool {
        self.finals.contains(&s)
    }

    /// Successors of `s` under label `sym`.
    pub fn successors(&self, s: StateId, sym: Symbol) -> impl Iterator<Item = StateId> + '_ {
        self.transitions[s]
            .get(&Some(sym))
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// ε-successors of `s`.
    pub fn epsilon_successors(&self, s: StateId) -> impl Iterator<Item = StateId> + '_ {
        self.transitions[s]
            .get(&None)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Iterates over all transitions as `(from, label, to)` triples.
    pub fn transitions(
        &self,
    ) -> impl Iterator<Item = (StateId, Option<Symbol>, StateId)> + Clone + '_ {
        self.transitions.iter().enumerate().flat_map(|(from, m)| {
            m.iter()
                .flat_map(move |(&label, tos)| tos.iter().map(move |&to| (from, label, to)))
        })
    }

    /// Whether the automaton accepts `word` — run on the dense core
    /// ([`DenseNfa::accepts`]), which the automaton is frozen into first.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        DenseNfa::from_nfa(self).accepts(word)
    }

    /// Whether the automaton accepts the word written as symbol names.
    pub fn accepts_names(&self, names: &[&str]) -> bool {
        match self.alphabet.word(names) {
            Ok(w) => self.accepts(&w),
            Err(_) => false,
        }
    }

    /// Language union: accepts `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Nfa) -> Nfa {
        self.alphabet
            .check_compatible(&other.alphabet)
            .expect("union over incompatible alphabets");
        let mut out = self.clone();
        let offset = out.num_states();
        for _ in 0..other.num_states() {
            out.add_state();
        }
        for (from, label, to) in other.transitions() {
            match label {
                Some(sym) => out.add_transition(from + offset, sym, to + offset),
                None => out.add_epsilon(from + offset, to + offset),
            }
        }
        for &s in &other.initial {
            out.set_initial(s + offset);
        }
        for &s in &other.finals {
            out.set_final(s + offset);
        }
        out
    }

    /// Language concatenation: accepts `L(self) · L(other)`.
    pub fn concat(&self, other: &Nfa) -> Nfa {
        self.alphabet
            .check_compatible(&other.alphabet)
            .expect("concat over incompatible alphabets");
        let mut out = Nfa::new(self.alphabet.clone());
        let left: Vec<StateId> = out.add_states(self.num_states());
        let right: Vec<StateId> = out.add_states(other.num_states());
        for (from, label, to) in self.transitions() {
            match label {
                Some(sym) => out.add_transition(left[from], sym, left[to]),
                None => out.add_epsilon(left[from], left[to]),
            }
        }
        for (from, label, to) in other.transitions() {
            match label {
                Some(sym) => out.add_transition(right[from], sym, right[to]),
                None => out.add_epsilon(right[from], right[to]),
            }
        }
        for &s in &self.initial {
            out.set_initial(left[s]);
        }
        for &f in &self.finals {
            for &i in &other.initial {
                out.add_epsilon(left[f], right[i]);
            }
        }
        for &f in &other.finals {
            out.set_final(right[f]);
        }
        out
    }

    /// Kleene star: accepts `L(self)*`.
    pub fn star(&self) -> Nfa {
        let mut out = Nfa::new(self.alphabet.clone());
        let fresh = out.add_state();
        let inner: Vec<StateId> = out.add_states(self.num_states());
        for (from, label, to) in self.transitions() {
            match label {
                Some(sym) => out.add_transition(inner[from], sym, inner[to]),
                None => out.add_epsilon(inner[from], inner[to]),
            }
        }
        out.set_initial(fresh);
        out.set_final(fresh);
        for &i in &self.initial {
            out.add_epsilon(fresh, inner[i]);
        }
        for &f in &self.finals {
            out.add_epsilon(inner[f], fresh);
        }
        out
    }

    /// Kleene plus: accepts `L(self)+ = L(self) · L(self)*`.
    pub fn plus(&self) -> Nfa {
        self.concat(&self.star())
    }

    /// Optional: accepts `L(self) ∪ {ε}`.
    pub fn optional(&self) -> Nfa {
        self.union(&Nfa::epsilon(self.alphabet.clone()))
    }

    /// Language reversal: accepts the mirror image of every word of `L(self)`.
    pub fn reverse(&self) -> Nfa {
        let mut out = Nfa::new(self.alphabet.clone());
        out.add_states(self.num_states());
        for (from, label, to) in self.transitions() {
            match label {
                Some(sym) => out.add_transition(to, sym, from),
                None => out.add_epsilon(to, from),
            }
        }
        for &s in &self.initial {
            out.set_final(s);
        }
        for &s in &self.finals {
            out.set_initial(s);
        }
        out
    }

    /// Re-labels the automaton onto a different (compatible-size or larger)
    /// alphabet via a symbol map.  Each transition labeled `sym` becomes a
    /// transition labeled `map(sym)`.
    pub fn map_symbols(&self, target: Alphabet, map: impl Fn(Symbol) -> Symbol) -> Nfa {
        let mut out = Nfa::new(target.clone());
        out.add_states(self.num_states());
        for (from, label, to) in self.transitions() {
            match label {
                Some(sym) => {
                    let m = map(sym);
                    assert!(m.index() < target.len(), "mapped symbol out of range");
                    out.add_transition(from, m, to);
                }
                None => out.add_epsilon(from, to),
            }
        }
        for &s in &self.initial {
            out.set_initial(s);
        }
        for &s in &self.finals {
            out.set_final(s);
        }
        out
    }

    /// Produces a structurally identical automaton over the (compatible,
    /// possibly larger) alphabet `target`, translating symbols by name.
    ///
    /// # Panics
    /// Panics if some symbol name of `self`'s alphabet is missing in `target`.
    pub fn with_alphabet(&self, target: Alphabet) -> Nfa {
        let src = self.alphabet.clone();
        self.map_symbols(target.clone(), move |sym| {
            target
                .symbol(src.name(sym))
                .expect("target alphabet must contain all source symbols")
        })
    }

    /// Converts a DFA into an equivalent NFA (loses nothing; useful to feed
    /// DFAs into NFA-only algorithms).
    pub fn from_dfa(dfa: &Dfa) -> Nfa {
        let mut out = Nfa::new(dfa.alphabet().clone());
        out.add_states(dfa.num_states());
        for (from, sym, to) in dfa.transitions() {
            out.add_transition(from as usize, sym, to as usize);
        }
        for f in dfa.finals().iter() {
            out.set_final(f as usize);
        }
        out.set_initial(dfa.initial() as usize);
        out
    }

    /// Renders the automaton compactly for debugging/logging.
    pub fn describe(&self) -> String {
        format!(
            "NFA(states={}, transitions={}, initial={:?}, finals={:?})",
            self.num_states(),
            self.num_transitions(),
            self.initial,
            self.finals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinize::determinize_to_dense;

    fn ab() -> Alphabet {
        Alphabet::from_chars(['a', 'b']).unwrap()
    }

    fn w(alpha: &Alphabet, s: &str) -> Vec<Symbol> {
        alpha.word_from_str(s).unwrap()
    }

    /// A shortest accepted word, as the dense core finds it.
    fn shortest_word(nfa: &Nfa) -> Option<Vec<Symbol>> {
        determinize_to_dense(&DenseNfa::from_nfa(nfa)).dfa.shortest_word()
    }

    #[test]
    fn empty_language_accepts_nothing() {
        let nfa = Nfa::empty(ab());
        assert!(!nfa.accepts(&[]));
        assert_eq!(DenseNfa::from_nfa(&nfa).trim().num_states(), 0);
        assert_eq!(shortest_word(&nfa), None);
    }

    #[test]
    fn epsilon_accepts_only_empty_word() {
        let alpha = ab();
        let nfa = Nfa::epsilon(alpha.clone());
        assert!(nfa.accepts(&[]));
        assert!(!nfa.accepts(&w(&alpha, "a")));
        assert_eq!(shortest_word(&nfa), Some(vec![]));
    }

    #[test]
    fn symbol_automaton() {
        let alpha = ab();
        let a = alpha.symbol("a").unwrap();
        let nfa = Nfa::symbol(alpha.clone(), a);
        assert!(nfa.accepts(&w(&alpha, "a")));
        assert!(!nfa.accepts(&w(&alpha, "b")));
        assert!(!nfa.accepts(&[]));
        assert!(!nfa.accepts(&w(&alpha, "aa")));
    }

    #[test]
    fn word_automaton() {
        let alpha = ab();
        let nfa = Nfa::word(alpha.clone(), &w(&alpha, "aba"));
        assert!(nfa.accepts(&w(&alpha, "aba")));
        assert!(!nfa.accepts(&w(&alpha, "ab")));
        assert!(!nfa.accepts(&w(&alpha, "abaa")));
        assert_eq!(shortest_word(&nfa), Some(w(&alpha, "aba")));
    }

    #[test]
    fn universal_accepts_everything() {
        let alpha = ab();
        let nfa = Nfa::universal(alpha.clone());
        assert!(nfa.accepts(&[]));
        assert!(nfa.accepts(&w(&alpha, "abba")));
    }

    #[test]
    fn union_concat_star() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
        let a_or_b = a.union(&b);
        assert!(a_or_b.accepts(&w(&alpha, "a")));
        assert!(a_or_b.accepts(&w(&alpha, "b")));
        assert!(!a_or_b.accepts(&w(&alpha, "ab")));

        let ab_cat = a.concat(&b);
        assert!(ab_cat.accepts(&w(&alpha, "ab")));
        assert!(!ab_cat.accepts(&w(&alpha, "a")));
        assert!(!ab_cat.accepts(&w(&alpha, "ba")));

        let a_star = a.star();
        assert!(a_star.accepts(&[]));
        assert!(a_star.accepts(&w(&alpha, "aaaa")));
        assert!(!a_star.accepts(&w(&alpha, "ab")));

        let a_plus = a.plus();
        assert!(!a_plus.accepts(&[]));
        assert!(a_plus.accepts(&w(&alpha, "aaa")));

        let a_opt = a.optional();
        assert!(a_opt.accepts(&[]));
        assert!(a_opt.accepts(&w(&alpha, "a")));
        assert!(!a_opt.accepts(&w(&alpha, "aa")));
    }

    #[test]
    fn reverse_reverses() {
        let alpha = ab();
        let nfa = Nfa::word(alpha.clone(), &w(&alpha, "ab"));
        let rev = nfa.reverse();
        assert!(rev.accepts(&w(&alpha, "ba")));
        assert!(!rev.accepts(&w(&alpha, "ab")));
    }

    #[test]
    fn trim_removes_dead_states() {
        let alpha = ab();
        let mut nfa = Nfa::new(alpha.clone());
        let s0 = nfa.add_state();
        let s1 = nfa.add_state();
        let _dead = nfa.add_state(); // unreachable
        let useless = nfa.add_state(); // reachable but not co-reachable
        nfa.set_initial(s0);
        nfa.set_final(s1);
        let a = alpha.symbol("a").unwrap();
        nfa.add_transition(s0, a, s1);
        nfa.add_transition(s0, a, useless);
        let trimmed = DenseNfa::from_nfa(&nfa).trim();
        assert_eq!(trimmed.num_states(), 2);
        assert!(trimmed.accepts(&w(&alpha, "a")));
        assert!(!trimmed.accepts(&w(&alpha, "aa")));
    }

    #[test]
    fn shortest_word_respects_epsilon() {
        let alpha = ab();
        let mut nfa = Nfa::new(alpha.clone());
        let s0 = nfa.add_state();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.set_initial(s0);
        nfa.set_final(s2);
        let a = alpha.symbol("a").unwrap();
        let b = alpha.symbol("b").unwrap();
        // long path: a·b ; short path: ε then b
        nfa.add_transition(s0, a, s1);
        nfa.add_transition(s1, b, s2);
        nfa.add_epsilon(s0, s1);
        assert_eq!(shortest_word(&nfa), Some(w(&alpha, "b")));
    }

    #[test]
    fn epsilon_closure_is_transitive() {
        let alpha = ab();
        let mut nfa = Nfa::new(alpha);
        let s0 = nfa.add_state();
        let s1 = nfa.add_state();
        let s2 = nfa.add_state();
        nfa.add_epsilon(s0, s1);
        nfa.add_epsilon(s1, s2);
        assert_eq!(DenseNfa::from_nfa(&nfa).closure(s0 as u32), &[0, 1, 2]);
    }

    #[test]
    fn with_alphabet_translates_by_name() {
        let small = Alphabet::from_chars(['a']).unwrap();
        let big = Alphabet::from_chars(['x', 'a']).unwrap();
        let nfa = Nfa::symbol(small.clone(), small.symbol("a").unwrap());
        let lifted = nfa.with_alphabet(big.clone());
        assert!(lifted.accepts(&[big.symbol("a").unwrap()]));
        assert!(!lifted.accepts(&[big.symbol("x").unwrap()]));
    }

    #[test]
    fn accepts_names_ignores_unknown() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        assert!(a.accepts_names(&["a"]));
        assert!(!a.accepts_names(&["z"]));
    }

    #[test]
    fn describe_mentions_counts() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let d = a.describe();
        assert!(d.contains("states=2"));
        assert!(d.contains("transitions=1"));
    }
}
