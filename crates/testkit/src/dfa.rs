//! The seed's tree [`Dfa`] algorithms — reachability, trimming, completion,
//! complement and shortest words — which only the tree oracles use: the
//! production crates run them once, on [`automata::DenseDfa`].

use std::collections::{BTreeSet, VecDeque};

use automata::{Dfa, StateId, Symbol};

/// States reachable from the initial state.
pub fn reachable_states(dfa: &Dfa) -> BTreeSet<StateId> {
    let mut seen = BTreeSet::from([dfa.initial_state()]);
    let mut queue = VecDeque::from([dfa.initial_state()]);
    while let Some(s) = queue.pop_front() {
        for (_, to) in dfa.transitions_from(s) {
            if seen.insert(to) {
                queue.push_back(to);
            }
        }
    }
    seen
}

/// Whether the language is empty.
pub fn is_empty_language(dfa: &Dfa) -> bool {
    reachable_states(dfa).iter().all(|&s| !dfa.is_final(s))
}

/// A complete version of the automaton: missing transitions are redirected
/// to an explicit non-accepting sink, appended as the last state (only when
/// needed).
pub fn complete(dfa: &Dfa) -> Dfa {
    if dfa.is_complete() {
        return dfa.clone();
    }
    let mut out = dfa.clone();
    let sink = out.add_state(false);
    for s in 0..out.num_states() {
        for sym in dfa.alphabet().symbols() {
            if out.next_state(s, sym).is_none() {
                out.set_transition(s, sym, sink);
            }
        }
    }
    out
}

/// The complement automaton: [`complete`], with accepting states flipped.
pub fn complement(dfa: &Dfa) -> Dfa {
    let mut out = complete(dfa);
    for s in 0..out.num_states() {
        let accepting = out.is_final(s);
        out.set_final(s, !accepting);
    }
    out
}

/// A shortest accepted word, if any: breadth-first from the initial state in
/// symbol order.
pub fn shortest_word(dfa: &Dfa) -> Option<Vec<Symbol>> {
    let mut pred: Vec<Option<(StateId, Symbol)>> = vec![None; dfa.num_states()];
    let mut seen = vec![false; dfa.num_states()];
    let mut queue = VecDeque::from([dfa.initial_state()]);
    seen[dfa.initial_state()] = true;
    let mut target = dfa
        .is_final(dfa.initial_state())
        .then_some(dfa.initial_state());
    'bfs: while let Some(s) = queue.pop_front() {
        if target.is_some() {
            break;
        }
        for (sym, to) in dfa.transitions_from(s) {
            if !seen[to] {
                seen[to] = true;
                pred[to] = Some((s, sym));
                if dfa.is_final(to) {
                    target = Some(to);
                    break 'bfs;
                }
                queue.push_back(to);
            }
        }
    }
    let mut cur = target?;
    let mut word = Vec::new();
    while let Some((prev, sym)) = pred[cur] {
        word.push(sym);
        cur = prev;
    }
    word.reverse();
    Some(word)
}

/// Removes unreachable states (keeping the language), renumbering the kept
/// states in ascending order of their old ids.  The initial state is always
/// kept.  Trimming a complete automaton may make it partial again (the sink
/// disappears if it only served completeness).
pub fn trim_unreachable(dfa: &Dfa) -> Dfa {
    let reach = reachable_states(dfa);
    let mut remap = vec![usize::MAX; dfa.num_states()];
    for (new, &old) in reach.iter().enumerate() {
        remap[old] = new;
    }
    Dfa::from_parts(
        dfa.alphabet().clone(),
        reach.len(),
        remap[dfa.initial_state()],
        reach.iter().filter(|&&s| dfa.is_final(s)).map(|&s| remap[s]),
        dfa.transitions()
            .filter(|&(from, _, _)| reach.contains(&from))
            .map(|(from, sym, to)| (remap[from], sym, remap[to])),
    )
}

/// States from which some accepting state is reachable.
pub fn coreachable_states(dfa: &Dfa) -> BTreeSet<StateId> {
    let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); dfa.num_states()];
    for (from, _, to) in dfa.transitions() {
        rev[to].push(from);
    }
    let mut seen: BTreeSet<StateId> = dfa.final_states();
    let mut queue: VecDeque<StateId> = seen.iter().copied().collect();
    while let Some(s) = queue.pop_front() {
        for &p in &rev[s] {
            if seen.insert(p) {
                queue.push_back(p);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::{Alphabet, DenseDfa};

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
    fn trim_unreachable_drops_states() {
        let alpha = ab();
        let a = alpha.symbol("a").unwrap();
        let mut dfa = Dfa::from_parts(alpha.clone(), 2, 0, [1], [(0, a, 1)]);
        let orphan = dfa.add_state(true);
        dfa.set_transition(orphan, a, orphan);
        let trimmed = trim_unreachable(&dfa);
        assert_eq!(trimmed.num_states(), 2);
        assert!(trimmed.accepts(&w(&alpha, "a")));
    }

    #[test]
    fn coreachable_includes_paths_to_finals() {
        let dfa = complete(&ab_star());
        let co = coreachable_states(&dfa);
        // the sink (state 2) cannot reach a final state
        assert!(!co.contains(&2));
        assert!(co.contains(&0));
        assert!(co.contains(&1));
    }

    #[test]
    fn completion_complement_and_shortest_words_agree_with_the_dense_core() {
        let alpha = ab();
        let a = alpha.symbol("a").unwrap();
        let b = alpha.symbol("b").unwrap();
        let single = Dfa::from_parts(alpha.clone(), 3, 0, [2], [(0, a, 1), (1, b, 2)]);
        for dfa in [
            ab_star(),
            single,
            Dfa::empty(alpha.clone()),
            Dfa::universal(alpha.clone()),
        ] {
            let dense = DenseDfa::from_dfa(&dfa);
            let tree = complement(&dfa);
            let ours = dense.complement().to_dfa();
            assert_eq!(tree.num_states(), ours.num_states());
            assert!(tree.transitions().eq(ours.transitions()));
            assert_eq!(tree.final_states(), ours.final_states());
            assert_eq!(complete(&dfa).num_states(), dense.complete().num_states());
            assert_eq!(shortest_word(&dfa), dense.shortest_word());
            assert_eq!(shortest_word(&tree), dense.complement().shortest_word());
            assert_eq!(is_empty_language(&dfa), dense.shortest_word().is_none());
        }
        assert_eq!(shortest_word(&ab_star()), Some(vec![]));
        assert_eq!(shortest_word(&complement(&ab_star())), Some(w(&alpha, "a")));
    }
}
