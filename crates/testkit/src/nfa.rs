//! The seed's tree [`Nfa`] algorithms — `BTreeSet` ε-closures, set steps and
//! the reachable ∧ co-reachable trim — the oracles for the dense core's
//! [`automata::DenseNfa`] closures, [`automata::DenseNfa::step_closed`] and
//! [`automata::DenseNfa::trim`].

use std::collections::{BTreeSet, VecDeque};

use automata::{Nfa, StateId, Symbol};

/// ε-closure of a set of states.
pub fn epsilon_closure(nfa: &Nfa, states: &BTreeSet<StateId>) -> BTreeSet<StateId> {
    let mut closure = states.clone();
    let mut queue: VecDeque<StateId> = states.iter().copied().collect();
    while let Some(s) = queue.pop_front() {
        for t in nfa.epsilon_successors(s) {
            if closure.insert(t) {
                queue.push_back(t);
            }
        }
    }
    closure
}

/// Single-symbol step of a set of states, without closing under ε.
pub fn step(nfa: &Nfa, states: &BTreeSet<StateId>, sym: Symbol) -> BTreeSet<StateId> {
    states
        .iter()
        .flat_map(|&s| nfa.successors(s, sym))
        .collect()
}

/// The closed initial configuration: ε-closure of the initial states.
pub fn start_configuration(nfa: &Nfa) -> BTreeSet<StateId> {
    epsilon_closure(nfa, nfa.initial_states())
}

/// Breadth-first search from `seeds` along `next`.
fn search(seeds: &BTreeSet<StateId>, next: &[Vec<StateId>]) -> BTreeSet<StateId> {
    let mut seen = seeds.clone();
    let mut queue: VecDeque<StateId> = seeds.iter().copied().collect();
    while let Some(s) = queue.pop_front() {
        for &t in &next[s] {
            if seen.insert(t) {
                queue.push_back(t);
            }
        }
    }
    seen
}

/// Removes the states that are not both reachable and co-reachable
/// (following ε-moves like any other transition), renumbering the rest in
/// ascending order of their old ids.  The result keeps its ε-moves.
pub fn trim(nfa: &Nfa) -> Nfa {
    let mut forward = vec![Vec::new(); nfa.num_states()];
    let mut backward = vec![Vec::new(); nfa.num_states()];
    for (from, _, to) in nfa.transitions() {
        forward[from].push(to);
        backward[to].push(from);
    }
    let reach = search(nfa.initial_states(), &forward);
    let coreach = search(nfa.final_states(), &backward);
    let mut remap = vec![None; nfa.num_states()];
    let mut out = Nfa::new(nfa.alphabet().clone());
    for s in reach.intersection(&coreach) {
        remap[*s] = Some(out.add_state());
    }
    for &s in nfa.initial_states() {
        remap[s].inspect(|&ns| out.set_initial(ns));
    }
    for &s in nfa.final_states() {
        remap[s].inspect(|&ns| out.set_final(ns));
    }
    for (from, label, to) in nfa.transitions() {
        if let (Some(f), Some(t)) = (remap[from], remap[to]) {
            match label {
                Some(sym) => out.add_transition(f, sym, t),
                None => out.add_epsilon(f, t),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::{Alphabet, DenseNfa};

    #[test]
    fn closures_steps_and_trim_agree_with_the_dense_core() {
        let alpha = Alphabet::from_chars(['a', 'b']).unwrap();
        let (a, b) = (alpha.symbol("a").unwrap(), alpha.symbol("b").unwrap());
        let mut nfa = Nfa::symbol(alpha.clone(), a).concat(&Nfa::symbol(alpha.clone(), b).star());
        // A reachable state that accepts nothing, and an unreachable one.
        let dead = nfa.add_state();
        nfa.add_transition(0, b, dead);
        nfa.add_state();
        let dense = DenseNfa::from_nfa(&nfa);
        let sorted = |set: BTreeSet<StateId>| set.into_iter().map(|s| s as u32).collect::<Vec<_>>();
        assert_eq!(dense.start(), sorted(start_configuration(&nfa)));
        for s in 0..nfa.num_states() {
            let single = BTreeSet::from([s]);
            assert_eq!(
                dense.closure(s as u32),
                sorted(epsilon_closure(&nfa, &single))
            );
            for sym in [a, b] {
                let closed = epsilon_closure(&nfa, &step(&nfa, &single, sym));
                assert_eq!(
                    dense.closed_successors(s as u32, sym.index()),
                    sorted(closed)
                );
            }
        }
        let trimmed = trim(&nfa);
        assert_eq!(trimmed.num_states(), nfa.num_states() - 2);
        assert_eq!(trimmed.num_states(), dense.trim().num_states());
        assert!(trimmed.accepts(&[a, b, b]));
        assert!(!trimmed.accepts(&[b]));
    }
}
