//! Differential tests for the dense algorithm layer: Hopcroft minimization,
//! the intersection product, and complement must be **structurally
//! identical** — state numbering, transitions, finals — to the seed's tree
//! algorithms (`testkit`) on randomized inputs, mirroring
//! `dense_equivalence.rs` for subset construction and reachability.
//!
//! Every suite runs ≥ 200 seeded random cases.  On a structural mismatch
//! the assertion message carries a shortest distinguishing word (or reports
//! language equality, isolating the defect to numbering), so failures are
//! immediately actionable.

use automata::{
    determinize, dfa_subset_of_nfa_explicit, intersect_dense, merge_bisimilar, minimize_dense,
    nfa_equivalent, random_dfa, random_nfa, Alphabet, DenseNfa, Dfa, Nfa,
    RandomAutomatonConfig,
};
use testkit::{dfa_subset_of_nfa_explicit_baseline, intersect_dfa_baseline, minimize_baseline};

fn alphabet(size: usize) -> Alphabet {
    Alphabet::from_names((0..size).map(|i| ((b'a' + i as u8) as char).to_string()))
        .expect("distinct letters")
}

fn dfa_config(case: u64) -> (Alphabet, RandomAutomatonConfig) {
    let alpha = alphabet(2 + (case % 3) as usize);
    let config = RandomAutomatonConfig {
        num_states: 2 + (case % 8) as usize,
        density: 0.15 + (case % 6) as f64 * 0.12,
        final_probability: 0.15 + (case % 4) as f64 * 0.2,
    };
    (alpha, config)
}

/// Asserts two DFAs coincide structurally; on mismatch the panic message
/// includes a shortest distinguishing word when the *languages* differ (the
/// worst kind of failure), or flags a pure numbering divergence otherwise.
fn assert_dfa_identical(ours: &Dfa, baseline: &Dfa, ctx: &str) {
    let structural = ours.num_states() == baseline.num_states()
        && ours.initial() == baseline.initial()
        && ours.finals() == baseline.finals()
        && ours.transitions().collect::<Vec<_>>() == baseline.transitions().collect::<Vec<_>>();
    if structural {
        return;
    }
    let diagnosis = match automata::dfa_equivalent(ours, baseline) {
        automata::Containment::Holds => "languages agree (numbering diverged)".to_string(),
        automata::Containment::FailsWith(word) => {
            format!("shortest counterexample: {word:?}")
        }
    };
    panic!(
        "{ctx}: dense result diverged from baseline — ours {} vs baseline {}; {diagnosis}",
        ours.describe(),
        baseline.describe()
    );
}

#[test]
fn dense_minimize_matches_moore_structurally() {
    let mut cases = 0usize;
    for case in 0..220u64 {
        let (alpha, config) = dfa_config(case);
        // Raw random DFAs stress the trim + complete pre-steps; determinized
        // random NFAs stress realistic subset-construction outputs.
        let inputs: Vec<Dfa> = vec![
            random_dfa(&alpha, &config, case * 5 + 1),
            determinize(&random_nfa(&alpha, &config, case * 5 + 2)),
        ];
        for (i, dfa) in inputs.iter().enumerate() {
            let ours = minimize_dense(dfa);
            let moore = minimize_baseline(dfa);
            assert_dfa_identical(&ours, &moore, &format!("minimize case {case}.{i}"));
            // Minimality invariants: idempotent, never larger than the input
            // modulo completion's sink.
            assert!(ours.num_states() <= dfa.num_states() + 1, "case {case}.{i}");
            assert_eq!(
                minimize_dense(&ours).num_states(),
                ours.num_states(),
                "case {case}.{i}: not idempotent"
            );
            cases += 1;
        }
    }
    assert!(cases >= 200, "only {cases} minimize cases ran");
}

#[test]
fn dense_intersect_matches_baseline_structurally() {
    let mut cases = 0usize;
    let mut nonempty = 0usize;
    for case in 0..210u64 {
        let (alpha, config) = dfa_config(case);
        let a = random_dfa(&alpha, &config, case * 11 + 3);
        let b = random_dfa(&alpha, &config, case * 11 + 7);
        let product = intersect_dense(&a, &b);
        let baseline = intersect_dfa_baseline(&a, &b);
        assert_dfa_identical(&product, &baseline, &format!("intersect case {case}"));
        if product.shortest_word().is_some() {
            nonempty += 1;
        }
        cases += 1;
    }
    assert!(cases >= 200, "only {cases} intersect cases ran");
    assert!(nonempty >= 20, "only {nonempty} nonempty intersections — sweep too weak");
}

#[test]
fn dense_complement_matches_baseline_structurally() {
    let mut cases = 0usize;
    for case in 0..210u64 {
        let (alpha, config) = dfa_config(case ^ 0xc0c0);
        let dfa = random_dfa(&alpha, &config, case * 17 + 5);
        let ours = dfa.complement();
        let baseline = testkit::dfa::complement(&dfa);
        assert_dfa_identical(&ours, &baseline, &format!("complement case {case}"));
        // Double complement restores the completed automaton's language.
        let back = ours.complement();
        assert!(
            automata::dfa_equivalent(&back, &testkit::dfa::complete(&dfa)).holds(),
            "complement case {case}: involution broken"
        );
        cases += 1;
    }
    assert!(cases >= 200, "only {cases} complement cases ran");
}

#[test]
fn dense_explicit_containment_matches_tree_chain() {
    // The explicit-complement containment chains determinize + complement +
    // intersect + shortest-word; the dense and tree chains must agree on the
    // verdict and produce equal-length (shortest) counterexamples.
    let mut holds = 0usize;
    let mut fails = 0usize;
    for case in 0..220u64 {
        let alpha = alphabet(2);
        let config = RandomAutomatonConfig {
            num_states: 2 + (case % 5) as usize,
            density: 0.25 + (case % 3) as f64 * 0.15,
            final_probability: 0.35,
        };
        let lhs = determinize(&random_nfa(&alpha, &config, case * 23 + 5));
        let rhs = random_nfa(&alpha, &config, case * 23 + 11);
        let dense = dfa_subset_of_nfa_explicit(&lhs, &DenseNfa::from_nfa(&rhs));
        let tree = dfa_subset_of_nfa_explicit_baseline(&lhs, &rhs);
        assert_eq!(dense.holds(), tree.holds(), "case {case}");
        match (dense.counterexample(), tree.counterexample()) {
            (None, None) => holds += 1,
            (Some(d), Some(t)) => {
                assert_eq!(d.len(), t.len(), "case {case}: counterexample length");
                assert!(lhs.accepts(d) && !rhs.accepts(d), "case {case}: bad witness");
                fails += 1;
            }
            _ => unreachable!("verdicts agree"),
        }
    }
    assert!(holds >= 10, "only {holds} holding cases");
    assert!(fails >= 10, "only {fails} failing cases");
}

#[test]
fn merging_bisimilar_states_keeps_the_language_and_minimizes_trim_dfas() {
    let (mut merged_some, mut dfas) = (0usize, 0usize);
    for case in 0..240u64 {
        let (alpha, config) = dfa_config(case);
        // ε-heavy NFAs (closures folded into the successor lists), their
        // stars, and trim DFAs viewed as NFAs.
        let nfa = match case % 3 {
            0 => random_nfa(&alpha, &config, case * 29 + 1),
            1 => random_nfa(&alpha, &config, case * 29 + 1).star(),
            _ => Nfa::from_dfa(&determinize(&random_nfa(&alpha, &config, case * 29 + 1))),
        };
        let dense = DenseNfa::from_nfa(&nfa).trim();
        let merged = merge_bisimilar(dense.clone());
        assert!(merged.num_states() <= dense.num_states(), "case {case}");
        merged_some += usize::from(merged.num_states() < dense.num_states());
        assert!(
            nfa_equivalent(&merged.to_nfa(), &nfa).holds(),
            "case {case}: merging changed the language"
        );
        // Nothing is left to merge, and trimness survives the quotient.
        assert_eq!(merge_bisimilar(merged.clone()).num_states(), merged.num_states(), "case {case}");
        assert_eq!(merged.clone().trim().num_states(), merged.num_states(), "case {case}");
        if case % 3 == 2 && merged.num_states() > 0 {
            // On a trim DFA the quotient is minimization: the minimal
            // complete DFA has the same states plus, if it is partial, a sink.
            let minimal = minimize_dense(&determinize(&nfa));
            let live = DenseNfa::from_dfa(&minimal).trim().num_states();
            let sink = usize::from(live < minimal.num_states());
            assert_eq!(merged.num_states() + sink, minimal.num_states(), "case {case}");
            dfas += 1;
        }
    }
    assert!(merged_some >= 40, "only {merged_some} automata shrank");
    assert!(dfas >= 40, "only {dfas} DFA cases ran");
}
