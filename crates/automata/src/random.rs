//! Random automaton generation for property tests and workload generators.
//!
//! The differential suites sweep over families of random automata; this
//! module provides seeded, reproducible generators for NFAs and DFAs with
//! controllable density.  (The random *expressions* behind experiments E5,
//! E11 and E12 come from `regexlang::random`.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alphabet::Alphabet;
use crate::dfa::Dfa;
use crate::nfa::Nfa;

/// Parameters for random automaton generation.
#[derive(Debug, Clone)]
pub struct RandomAutomatonConfig {
    /// Number of states to generate.
    pub num_states: usize,
    /// Probability that any given `(state, symbol, state)` transition exists
    /// (for NFAs) or that a given `(state, symbol)` transition is defined
    /// (for DFAs).
    pub density: f64,
    /// Probability that a state is accepting.
    pub final_probability: f64,
}

impl Default for RandomAutomatonConfig {
    fn default() -> Self {
        Self {
            num_states: 6,
            density: 0.25,
            final_probability: 0.3,
        }
    }
}

/// Generates a random NFA with the given configuration, seeded for
/// reproducibility.  State 0 is always initial and at least one state is
/// accepting (so the language is "usually" nonempty, though dead transitions
/// may still make it empty).
pub fn random_nfa(alphabet: &Alphabet, config: &RandomAutomatonConfig, seed: u64) -> Nfa {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nfa = Nfa::new(alphabet.clone());
    let states = nfa.add_states(config.num_states.max(1));
    nfa.set_initial(states[0]);
    let mut any_final = false;
    for &s in &states {
        if rng.gen_bool(config.final_probability.clamp(0.0, 1.0)) {
            nfa.set_final(s);
            any_final = true;
        }
    }
    if !any_final {
        nfa.set_final(*states.last().unwrap());
    }
    for &from in &states {
        for sym in alphabet.symbols() {
            for &to in &states {
                if rng.gen_bool(config.density.clamp(0.0, 1.0)) {
                    nfa.add_transition(from, sym, to);
                }
            }
        }
    }
    nfa
}

/// Generates a random (partial) DFA with the given configuration.
pub fn random_dfa(alphabet: &Alphabet, config: &RandomAutomatonConfig, seed: u64) -> Dfa {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.num_states.max(1);
    let mut dfa = Dfa::new(alphabet.clone());
    for _ in 1..n {
        dfa.add_state(false);
    }
    let mut any_final = false;
    for s in 0..n {
        if rng.gen_bool(config.final_probability.clamp(0.0, 1.0)) {
            dfa.set_final(s, true);
            any_final = true;
        }
    }
    if !any_final {
        dfa.set_final(n - 1, true);
    }
    for s in 0..n {
        for sym in alphabet.symbols() {
            if rng.gen_bool(config.density.clamp(0.0, 1.0)) {
                let to = rng.gen_range(0..n);
                dfa.set_transition(s, sym, to);
            }
        }
    }
    dfa
}

/// Generates a random word of the given length over the alphabet.
pub fn random_word(
    alphabet: &Alphabet,
    len: usize,
    seed: u64,
) -> Vec<crate::alphabet::Symbol> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let idx = rng.gen_range(0..alphabet.len()) as u32;
            crate::alphabet::Symbol(idx)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinize::determinize;

    fn abc() -> Alphabet {
        Alphabet::from_chars(['a', 'b', 'c']).unwrap()
    }

    #[test]
    fn generation_is_reproducible() {
        let alpha = abc();
        let cfg = RandomAutomatonConfig::default();
        let n1 = random_nfa(&alpha, &cfg, 42);
        let n2 = random_nfa(&alpha, &cfg, 42);
        assert_eq!(n1.num_states(), n2.num_states());
        assert_eq!(n1.num_transitions(), n2.num_transitions());
        let d1 = random_dfa(&alpha, &cfg, 7);
        let d2 = random_dfa(&alpha, &cfg, 7);
        assert_eq!(d1.num_transitions(), d2.num_transitions());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let alpha = abc();
        let cfg = RandomAutomatonConfig {
            num_states: 10,
            density: 0.3,
            final_probability: 0.4,
        };
        let n1 = random_nfa(&alpha, &cfg, 1);
        let n2 = random_nfa(&alpha, &cfg, 2);
        // Not a hard guarantee, but with 300 candidate transitions the chance
        // of identical draws is negligible.
        assert_ne!(n1.num_transitions(), 0);
        assert!(n1.num_transitions() != n2.num_transitions() || n1.num_states() == n2.num_states());
    }

    #[test]
    fn random_nfa_always_has_initial_and_final() {
        let alpha = abc();
        for seed in 0..20 {
            let cfg = RandomAutomatonConfig {
                num_states: 4,
                density: 0.1,
                final_probability: 0.0,
            };
            let nfa = random_nfa(&alpha, &cfg, seed);
            assert_eq!(nfa.initial_states().len(), 1);
            assert!(!nfa.final_states().is_empty());
        }
    }

    #[test]
    fn random_nfa_determinizes_consistently() {
        let alpha = abc();
        let cfg = RandomAutomatonConfig {
            num_states: 5,
            density: 0.3,
            final_probability: 0.3,
        };
        for seed in 0..10 {
            let nfa = random_nfa(&alpha, &cfg, seed);
            let dfa = determinize(&nfa);
            for wseed in 0..10 {
                let word = random_word(&alpha, (wseed % 6) as usize, wseed * 31 + seed);
                assert_eq!(nfa.accepts(&word), dfa.accepts(&word));
            }
        }
    }

    #[test]
    fn random_word_has_requested_length() {
        let alpha = abc();
        assert_eq!(random_word(&alpha, 0, 3).len(), 0);
        assert_eq!(random_word(&alpha, 17, 3).len(), 17);
        for sym in random_word(&alpha, 50, 9) {
            assert!(sym.index() < alpha.len());
        }
    }
}
