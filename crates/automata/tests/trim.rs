//! `DenseNfa::trim` keeps the language and drops exactly the states no
//! accepting run visits.  Every automaton handed to a product sweep goes
//! through it, so the properties checked here are what lets the untrimmed
//! evaluation survive only as a test oracle:
//!
//! * `trim(A)` accepts `L(A)` — by `equivalence`, on random NFAs (with and
//!   without ε-moves) and on random *complete* DFAs and their complements,
//!   the shape Theorem 2.2's step 3 produces;
//! * every surviving state is live, so trimming is idempotent;
//! * an automaton whose states are all live comes back untouched — the same
//!   allocation, not an equal copy;
//! * the empty language trims to the automaton with no states.

use automata::{
    determinize, nfa_equivalent, random_dfa, random_nfa, Alphabet, DenseDfa, DenseNfa, Nfa,
    RandomAutomatonConfig,
};

fn alphabet(size: usize) -> Alphabet {
    Alphabet::from_names((0..size).map(|i| ((b'a' + i as u8) as char).to_string()))
        .expect("distinct letters")
}

fn config(case: u64) -> RandomAutomatonConfig {
    RandomAutomatonConfig {
        num_states: 1 + (case % 9) as usize,
        density: 0.08 + (case % 5) as f64 * 0.09,
        final_probability: 0.1 + (case % 4) as f64 * 0.2,
    }
}

/// Where the closure table lives: stable across a move, new after a rebuild.
/// (Every state is in its own closure, so the table is never empty.)
fn table(dense: &DenseNfa) -> Option<*const u32> {
    (dense.num_states() > 0).then(|| dense.closure(0).as_ptr())
}

/// Trims `dense` and checks everything a trim owes its input; returns the
/// result.
fn check_trim(dense: DenseNfa, ctx: &str) -> DenseNfa {
    let (before, states, address) = (dense.to_nfa(), dense.num_states(), table(&dense));
    let trimmed = dense.trim();
    let verdict = nfa_equivalent(&before, &trimmed.to_nfa());
    assert!(verdict.holds(), "{ctx}: language changed, witness {:?}", verdict.counterexample());
    assert!(trimmed.num_states() <= states, "{ctx}: trim added states");
    if trimmed.num_states() == states {
        assert_eq!(table(&trimmed), address, "{ctx}: an all-live automaton was rebuilt");
    }
    // Idempotent, and the second pass is that no-op.
    let (states, address) = (trimmed.num_states(), table(&trimmed));
    let again = trimmed.trim();
    assert_eq!(again.num_states(), states, "{ctx}: a trimmed automaton had dead states");
    assert_eq!(table(&again), address, "{ctx}: a trimmed automaton was rebuilt");
    again
}

#[test]
fn trim_preserves_the_language_of_random_nfas() {
    let mut shrunk = 0;
    for case in 0..240u64 {
        let alpha = alphabet(1 + (case % 3) as usize);
        let base = random_nfa(&alpha, &config(case), case * 13 + 5);
        // Three quarters get ε-moves through the rational operations.
        let nfa = match case % 4 {
            0 => base,
            1 => base.star(),
            2 => base.union(&random_nfa(&alpha, &config(case + 1), case * 7 + 1)),
            _ => base.concat(&random_nfa(&alpha, &config(case + 2), case * 3 + 2)),
        };
        let trimmed = check_trim(DenseNfa::from_nfa(&nfa), &format!("nfa case {case}"));
        // The seed's tree trim is the independent count.
        assert_eq!(trimmed.num_states(), testkit::nfa::trim(&nfa).num_states(), "nfa case {case}");
        shrunk += usize::from(trimmed.num_states() < nfa.num_states());
    }
    assert!(shrunk >= 40, "only {shrunk} random NFAs had anything to trim");
}

#[test]
fn trim_preserves_the_language_of_complete_dfas_and_their_complements() {
    for case in 0..240u64 {
        let alpha = alphabet(2 + (case % 2) as usize);
        let dfa = DenseDfa::from_dfa(&random_dfa(&alpha, &config(case), case * 11 + 3));
        for (side, automaton) in [("complete", dfa.complete()), ("complement", dfa.complement())] {
            assert!(automaton.is_complete());
            let dense = DenseNfa::from_dense_dfa(&automaton);
            let trimmed = check_trim(dense, &format!("{side} dfa case {case}"));
            // Singleton closures: live is reachable ∧ co-reachable.
            let (reachable, coreachable) = (automaton.reachable(), automaton.coreachable());
            let live = reachable.iter().filter(|&s| coreachable.contains(s)).count();
            assert_eq!(trimmed.num_states(), live, "{side} dfa case {case}");
        }
    }
}

#[test]
fn the_empty_language_trims_to_no_states_and_no_start() {
    let alpha = alphabet(2);
    let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
    // No final state reachable: ∅, and a·∅.
    for nfa in [Nfa::empty(alpha.clone()), a.concat(&Nfa::empty(alpha.clone()))] {
        let trimmed = check_trim(DenseNfa::from_nfa(&nfa), "empty language");
        assert_eq!(trimmed.num_states(), 0);
        assert!(trimmed.start().is_empty());
        assert!(trimmed.finals().is_empty());
        assert!(!trimmed.accepts(&[]));
        assert!(!trimmed.accepts(&alpha.word(&["a"]).unwrap()));
        assert_eq!(trimmed.reverse_closed().num_states(), 0);
    }
    // The complement of the universal DFA: a complete automaton of ∅.
    let nothing = DenseDfa::from_dfa(&automata::Dfa::universal(alpha)).complement();
    assert_eq!(DenseNfa::from_dense_dfa(&nothing).trim().num_states(), 0);
}

#[test]
fn a_dead_start_state_goes_but_a_live_one_stays() {
    // Two initial states: 0 -a-> 1 (final), and 2 -b-> 2 which accepts nothing.
    let alpha = alphabet(2);
    let dense = DenseNfa::from_parts(alpha.clone(), 3, [0, 2], [1], [(0, 0, 1), (2, 1, 2)]);
    let trimmed = check_trim(dense, "dead start");
    assert_eq!(trimmed.num_states(), 2);
    assert_eq!(trimmed.start(), &[0]);
    assert!(trimmed.accepts(&alpha.word(&["a"]).unwrap()));
    assert!(!trimmed.accepts(&alpha.word(&["b"]).unwrap()));
}

#[test]
fn states_that_only_reach_acceptance_through_epsilon_are_live() {
    // Thompson automata are all-live only if a closure counts as a step:
    // in a·b the state after `a` has no symbol transition of its own.
    let alpha = alphabet(2);
    let (a, b) = (alpha.symbol("a").unwrap(), alpha.symbol("b").unwrap());
    let ab = Nfa::symbol(alpha.clone(), a).concat(&Nfa::symbol(alpha.clone(), b));
    let dense = DenseNfa::from_nfa(&ab);
    assert!(
        (0..dense.num_states() as u32).any(|s| dense.closure(s).len() > 1),
        "concatenation glues with an ε-move"
    );
    let states = dense.num_states();
    assert_eq!(check_trim(dense, "a·b").num_states(), states);

    // A dead branch hanging off an ε-move goes, closures included.
    let mut nfa = ab.clone();
    let dead = nfa.add_state();
    let initial = *nfa.initial_states().first().expect("a·b has an initial state");
    nfa.add_epsilon(initial, dead);
    nfa.add_transition(dead, a, dead);
    let trimmed = check_trim(DenseNfa::from_nfa(&nfa), "a·b with a dead ε-branch");
    assert_eq!(trimmed.num_states(), states);
    for s in 0..trimmed.num_states() as u32 {
        assert!(trimmed.closure(s).contains(&s));
        assert!(trimmed.closure(s).iter().all(|&c| (c as usize) < states));
    }
    // The subset construction sees the same language either way.
    assert!(nfa_equivalent(&trimmed.to_nfa(), &Nfa::from_dfa(&determinize(&nfa))).holds());
}
