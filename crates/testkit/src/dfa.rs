//! Tree [`Dfa`] helpers that only the tree oracles use: the production
//! crates trim and sweep on [`automata::DenseDfa`].

use std::collections::{BTreeSet, VecDeque};

use automata::{Dfa, StateId};

/// Removes unreachable states (keeping the language), renumbering the kept
/// states in ascending order of their old ids.  The initial state is always
/// kept.  Trimming a complete automaton may make it partial again (the sink
/// disappears if it only served completeness).
pub fn trim_unreachable(dfa: &Dfa) -> Dfa {
    let reach = dfa.reachable_states();
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
    use automata::{Alphabet, Symbol};

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
        let dfa = ab_star().complete();
        let co = coreachable_states(&dfa);
        // the sink (state 2) cannot reach a final state
        assert!(!co.contains(&2));
        assert!(co.contains(&0));
        assert!(co.contains(&1));
    }
}
