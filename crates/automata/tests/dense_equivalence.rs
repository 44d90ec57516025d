//! Differential tests: the dense core must be answer-identical to the seed's
//! tree-based algorithms on randomized inputs.
//!
//! Each property runs hundreds of seeded random cases comparing the dense
//! paths (subset construction on `DenseNfa`, bitset reachability sweeps,
//! dense containment) against the seed's tree implementations (`testkit`)
//! and against independent oracles (`word_reaches`, the explicit-complement
//! containment check).

use automata::{
    determinize, dfa_subset_of_nfa, dfa_subset_of_nfa_explicit, random_dfa, random_nfa,
    random_word, Alphabet, DenseNfa, Nfa, RandomAutomatonConfig,
};
use testkit::{
    determinize_via_dense, determinize_with_subsets_baseline, word_reachability_relation_baseline,
    word_reachability_via_dense, word_reaches,
};

fn alphabet(size: usize) -> Alphabet {
    Alphabet::from_names((0..size).map(|i| ((b'a' + i as u8) as char).to_string()))
        .expect("distinct letters")
}

/// Mixes sizes, densities and alphabet widths so the sweep hits sparse and
/// dense automata, with and without unreachable parts.
fn nfa_config(case: u64) -> (Alphabet, RandomAutomatonConfig) {
    let alpha = alphabet(2 + (case % 3) as usize);
    let config = RandomAutomatonConfig {
        num_states: 2 + (case % 9) as usize,
        density: 0.05 + (case % 7) as f64 * 0.07,
        final_probability: 0.1 + (case % 5) as f64 * 0.15,
    };
    (alpha, config)
}

#[test]
fn dense_nfa_acceptance_agrees_with_tree_nfa() {
    let mut checked_words = 0usize;
    for case in 0..250u64 {
        let (alpha, config) = nfa_config(case);
        let nfa = random_nfa(&alpha, &config, case);
        let dense = DenseNfa::from_nfa(&nfa);
        for wseed in 0..8u64 {
            let word = random_word(&alpha, (wseed % 7) as usize, case * 131 + wseed);
            assert_eq!(
                nfa.accepts(&word),
                dense.accepts(&word),
                "case {case}, word {word:?}"
            );
            checked_words += 1;
        }
    }
    assert!(checked_words >= 200 * 8);
}

#[test]
fn dense_determinization_is_structurally_identical_to_baseline() {
    // Both constructions intern subsets breadth-first in symbol order, so the
    // dense path must reproduce the baseline automaton *exactly* — state
    // numbering, transitions, finals and the subset map — on 250 random NFAs.
    for case in 0..250u64 {
        let (alpha, config) = nfa_config(case);
        let nfa = random_nfa(&alpha, &config, case ^ 0xdeca_f000);
        let dense = determinize_via_dense(&nfa);
        let baseline = determinize_with_subsets_baseline(&nfa);
        assert_eq!(dense.subsets, baseline.subsets, "case {case}");
        assert_eq!(dense.dfa.initial(), baseline.dfa.initial(), "case {case}");
        assert_eq!(dense.dfa.finals(), baseline.dfa.finals(), "case {case}");
        assert_eq!(
            dense.dfa.transitions().collect::<Vec<_>>(),
            baseline.dfa.transitions().collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

#[test]
fn dense_determinization_handles_epsilon_heavy_automata() {
    // Rational operations sprinkle ε-transitions everywhere; build layered
    // expressions and check the dense and baseline determinizations agree.
    let alpha = alphabet(2);
    let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
    let b = Nfa::symbol(alpha.clone(), alpha.symbol("b").unwrap());
    let mut cases: Vec<Nfa> = vec![
        a.star().concat(&b.star()).star(),
        a.union(&b).plus().optional(),
        a.concat(&b).star().union(&b.concat(&a).star()),
    ];
    for seed in 0..40u64 {
        // Random compositions of the two letter automata.
        let mut acc = if seed % 2 == 0 { a.clone() } else { b.clone() };
        for step in 0..(seed % 5) {
            acc = match (seed + step) % 4 {
                0 => acc.union(&a).star(),
                1 => acc.concat(&b).optional(),
                2 => acc.plus(),
                _ => acc.reverse().union(&b),
            };
        }
        cases.push(acc);
    }
    for (i, nfa) in cases.iter().enumerate() {
        let dense = determinize_via_dense(nfa);
        let baseline = determinize_with_subsets_baseline(nfa);
        assert_eq!(dense.subsets, baseline.subsets, "case {i}");
        assert_eq!(
            dense.dfa.transitions().collect::<Vec<_>>(),
            baseline.dfa.transitions().collect::<Vec<_>>(),
            "case {i}"
        );
    }
}

#[test]
fn worst_case_blowup_family_agrees_and_blows_up() {
    // (a+b)*·a·(a+b)^k needs ≥ 2^(k+1) DFA states; the dense construction
    // must both reproduce the baseline exactly and hit the bound.
    let alpha = alphabet(2);
    let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
    for k in [2usize, 4, 6, 8] {
        let mut nfa = Nfa::universal(alpha.clone()).concat(&a);
        for _ in 0..k {
            nfa = nfa.concat(&Nfa::any_symbol(alpha.clone()));
        }
        let dense = determinize_via_dense(&nfa);
        let baseline = determinize_with_subsets_baseline(&nfa);
        assert_eq!(dense.dfa.num_states(), baseline.dfa.num_states());
        assert_eq!(dense.subsets, baseline.subsets);
        assert!(
            dense.dfa.num_states() >= 1 << (k + 1),
            "k={k}: got {} states",
            dense.dfa.num_states()
        );
    }
}

#[test]
fn dense_reachability_relation_matches_baseline() {
    for case in 0..220u64 {
        let alpha = alphabet(2 + (case % 2) as usize);
        let dfa_config = RandomAutomatonConfig {
            num_states: 2 + (case % 6) as usize,
            density: 0.3 + (case % 4) as f64 * 0.15,
            final_probability: 0.3,
        };
        let view_config = RandomAutomatonConfig {
            num_states: 2 + (case % 4) as usize,
            density: 0.2 + (case % 5) as f64 * 0.1,
            final_probability: 0.4,
        };
        let dfa = random_dfa(&alpha, &dfa_config, case * 3 + 1);
        let view = random_nfa(&alpha, &view_config, case * 7 + 2);
        let dense = word_reachability_via_dense(&dfa, &view);
        let baseline = word_reachability_relation_baseline(&dfa, &view);
        assert_eq!(dense, baseline, "case {case}");
    }
}

#[test]
fn dense_reachability_relation_matches_per_pair_oracle() {
    // `word_reaches` goes through the (tree-based) product-emptiness witness
    // search — an independent oracle for the batched dense sweep.
    for case in 0..40u64 {
        let alpha = alphabet(2);
        let config = RandomAutomatonConfig {
            num_states: 4,
            density: 0.35,
            final_probability: 0.3,
        };
        let dfa = random_dfa(&alpha, &config, case + 1000);
        let view = random_nfa(&alpha, &config, case + 2000);
        let relation = word_reachability_via_dense(&dfa, &view);
        for si in 0..dfa.num_states() as u32 {
            for sj in 0..dfa.num_states() as u32 {
                assert_eq!(
                    relation.contains(&(si, sj)),
                    word_reaches(&dfa, &view, si, sj),
                    "case {case}, pair ({si},{sj})"
                );
            }
        }
    }
}

#[test]
fn dense_containment_agrees_with_explicit_complement() {
    let mut holds = 0usize;
    let mut fails = 0usize;
    for case in 0..220u64 {
        let alpha = alphabet(2);
        let config = RandomAutomatonConfig {
            num_states: 2 + (case % 5) as usize,
            density: 0.25 + (case % 3) as f64 * 0.15,
            final_probability: 0.35,
        };
        let lhs = determinize(&random_nfa(&alpha, &config, case * 11 + 5));
        let rhs = random_nfa(&alpha, &config, case * 13 + 9);
        let frozen = DenseNfa::from_nfa(&rhs);
        let dense = dfa_subset_of_nfa(&lhs, &frozen);
        let explicit = dfa_subset_of_nfa_explicit(&lhs, &frozen);
        assert_eq!(dense.holds(), explicit.holds(), "case {case}");
        match dense.counterexample() {
            None => holds += 1,
            Some(cex) => {
                // The counterexample must be a shortest witness: in L(lhs),
                // not in L(rhs), and no shorter than the explicit one.
                assert!(lhs.accepts(cex), "case {case}: cex not in lhs");
                assert!(!rhs.accepts(cex), "case {case}: cex in rhs");
                let explicit_len = explicit.counterexample().expect("both fail").len();
                assert_eq!(cex.len(), explicit_len, "case {case}: not shortest");
                fails += 1;
            }
        }
    }
    // The sweep must exercise both outcomes to mean anything.
    assert!(holds >= 10, "only {holds} holding cases");
    assert!(fails >= 10, "only {fails} failing cases");
}
