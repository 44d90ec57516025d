//! Seeded random regular-expression generation.
//!
//! The scaling experiments E5, E11 and E12 (through `bench::random_problem`)
//! sweep over families of random queries and view sets; the generator here
//! produces expressions with a controllable number of AST nodes over a given
//! alphabet, reproducibly from a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use automata::Alphabet;

use crate::ast::Regex;

/// Parameters of the random expression generator.
#[derive(Debug, Clone)]
pub struct RandomRegexConfig {
    /// Target number of AST nodes (the result's [`Regex::size`] is close to,
    /// though not exactly, this target).
    pub target_size: usize,
    /// Probability of generating a star at an internal node (the rest is
    /// split between concatenation and union).
    pub star_probability: f64,
    /// Probability that a leaf is ε rather than a symbol.
    pub epsilon_probability: f64,
}

impl Default for RandomRegexConfig {
    fn default() -> Self {
        Self {
            target_size: 12,
            star_probability: 0.2,
            epsilon_probability: 0.05,
        }
    }
}

/// Generates a random regular expression over `alphabet`.
pub fn random_regex(alphabet: &Alphabet, config: &RandomRegexConfig, seed: u64) -> Regex {
    let mut rng = StdRng::seed_from_u64(seed);
    gen_expr(alphabet, config, &mut rng, config.target_size.max(1))
}

/// Generates a set of `count` random view expressions over `alphabet`,
/// seeded independently per view.
pub fn random_views(
    alphabet: &Alphabet,
    config: &RandomRegexConfig,
    count: usize,
    seed: u64,
) -> Vec<Regex> {
    (0..count)
        .map(|i| random_regex(alphabet, config, seed.wrapping_mul(1_000_003).wrapping_add(i as u64)))
        .collect()
}

fn gen_expr(alphabet: &Alphabet, config: &RandomRegexConfig, rng: &mut StdRng, budget: usize) -> Regex {
    if budget <= 1 {
        return gen_leaf(alphabet, config, rng);
    }
    let roll: f64 = rng.gen();
    if roll < config.star_probability {
        // Unary node.
        let inner = gen_expr(alphabet, config, rng, budget - 1);
        match rng.gen_range(0..3) {
            0 => inner.star(),
            1 => inner.plus(),
            _ => inner.optional(),
        }
    } else {
        // Binary node (concat or union), splitting the remaining budget.
        let left_budget = rng.gen_range(1..budget.max(2));
        let right_budget = (budget - 1).saturating_sub(left_budget).max(1);
        let left = gen_expr(alphabet, config, rng, left_budget);
        let right = gen_expr(alphabet, config, rng, right_budget);
        if rng.gen_bool(0.5) {
            left.then(right)
        } else {
            left.or(right)
        }
    }
}

fn gen_leaf(alphabet: &Alphabet, config: &RandomRegexConfig, rng: &mut StdRng) -> Regex {
    if alphabet.is_empty() || rng.gen_bool(config.epsilon_probability.clamp(0.0, 1.0)) {
        Regex::Epsilon
    } else {
        let idx = rng.gen_range(0..alphabet.len());
        Regex::symbol(alphabet.names().nth(idx).expect("index in range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thompson::thompson;

    fn abc() -> Alphabet {
        Alphabet::from_chars(['a', 'b', 'c']).unwrap()
    }

    #[test]
    fn generation_is_reproducible() {
        let alpha = abc();
        let cfg = RandomRegexConfig::default();
        let r1 = random_regex(&alpha, &cfg, 99);
        let r2 = random_regex(&alpha, &cfg, 99);
        assert_eq!(r1, r2);
        let v1 = random_views(&alpha, &cfg, 4, 7);
        let v2 = random_views(&alpha, &cfg, 4, 7);
        assert_eq!(v1, v2);
        assert_eq!(v1.len(), 4);
    }

    #[test]
    fn different_seeds_give_different_expressions() {
        let alpha = abc();
        let cfg = RandomRegexConfig {
            target_size: 20,
            ..Default::default()
        };
        let r1 = random_regex(&alpha, &cfg, 1);
        let r2 = random_regex(&alpha, &cfg, 2);
        assert_ne!(r1, r2);
    }

    #[test]
    fn size_tracks_target() {
        let alpha = abc();
        for target in [1, 5, 15, 40] {
            let cfg = RandomRegexConfig {
                target_size: target,
                ..Default::default()
            };
            for seed in 0..5 {
                let r = random_regex(&alpha, &cfg, seed);
                assert!(r.size() >= 1);
                assert!(
                    r.size() <= 3 * target + 3,
                    "size {} too large for target {target}",
                    r.size()
                );
            }
        }
    }

    #[test]
    fn generated_expressions_translate_to_automata() {
        let alpha = abc();
        let cfg = RandomRegexConfig {
            target_size: 18,
            ..Default::default()
        };
        for seed in 0..20 {
            let r = random_regex(&alpha, &cfg, seed);
            let nfa = thompson(&r, &alpha).expect("only alphabet symbols are generated");
            assert!(nfa.num_states() >= 1);
        }
    }

    #[test]
    fn empty_alphabet_yields_epsilon_leaves() {
        let alpha = Alphabet::new();
        let cfg = RandomRegexConfig {
            target_size: 6,
            ..Default::default()
        };
        let r = random_regex(&alpha, &cfg, 3);
        assert!(r.symbols().is_empty());
    }
}
