//! Differential tests for subset steps on *large* automata.
//!
//! A subset step accumulates into a [`SubsetScratch`] and drains only the
//! bits it set — sorting the member list when the set is sparse in its
//! capacity, scanning the words when it is not.  The small automata of
//! `dense_equivalence.rs` fit in one bitset word, so only the scan ever runs
//! there; these NFAs have 2 000+ states scattered over 32+ words, with either
//! short ε-chains (configurations of a handful of states: the sort) or an
//! ε-cycle through half of the automaton (configurations of 1 000+ states,
//! 30 times the word count: the scan).
//! Every dense result must equal the tree oracle's exactly, and the scratch
//! must come back empty from every drain.

use std::collections::BTreeSet;

use automata::dense::SubsetScratch;
use automata::{
    determinize, determinize_to_dense, dfa_subset_of_nfa, dfa_subset_of_nfa_explicit, random_dfa,
    Alphabet, Containment, DenseNfa, Dfa, Nfa, RandomAutomatonConfig, StateId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use testkit::nfa::{epsilon_closure, start_configuration, step};
use testkit::{
    determinize_with_subsets_baseline, word_reachability_relation_baseline,
    word_reachability_via_dense,
};

fn alphabet(size: usize) -> Alphabet {
    Alphabet::from_names((0..size).map(|i| ((b'a' + i as u8) as char).to_string()))
        .expect("distinct letters")
}

/// What a generated NFA looks like.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Number of states.
    states: usize,
    /// States reachable from the start: a random NFA with up to two
    /// successors per state and symbol.  The rest is unreachable, which the
    /// subset construction never sees but the freeze does.
    live: usize,
    /// The last `core` live states lie on one ε-cycle, so each of them
    /// closes over all of them.  Only every 64th of them reads a label, so a
    /// step from a configuration holding the core touches a few dozen
    /// successor lists (each near |core| long), not |core| of them.
    core: usize,
    /// Probability of an ε-edge from each state to the next one in its part
    /// (live or unreachable): chains of expected length `1 / (1 - chain)`.
    chain: f64,
    /// Alphabet size.
    symbols: usize,
}

const SPARSE: Shape = Shape {
    states: 2_500,
    live: 12,
    core: 0,
    chain: 0.5,
    symbols: 2,
};
const CHAINS: Shape = Shape {
    states: 2_048,
    live: 14,
    core: 0,
    chain: 0.85,
    symbols: 3,
};
const DENSE_CORE: Shape = Shape {
    states: 2_048,
    live: 1_006,
    core: 1_000,
    chain: 0.5,
    symbols: 2,
};

/// A random NFA of the given shape, its state ids shuffled over the whole
/// range so that even a three-state configuration spans distant words.
fn large_nfa(shape: Shape, seed: u64) -> Nfa {
    let mut rng = StdRng::seed_from_u64(seed);
    let alpha = alphabet(shape.symbols);
    let mut nfa = Nfa::new(alpha.clone());
    nfa.add_states(shape.states);
    let mut ids: Vec<StateId> = (0..shape.states).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..i + 1));
    }
    let (live, unreachable) = ids.split_at(shape.live);
    nfa.set_initial(live[0]);
    nfa.set_final(live[live.len() - 1]);
    for &s in &ids {
        if rng.gen_bool(0.3) {
            nfa.set_final(s);
        }
    }
    let pick_live = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
    for (i, &s) in live.iter().enumerate() {
        let reads = i + shape.core < live.len() || i % 64 == 0;
        for sym in alpha.symbols().filter(|_| reads) {
            for _ in 0..rng.gen_range(0..3usize) {
                let t = pick_live(&mut rng);
                nfa.add_transition(s, sym, t);
            }
        }
        if i + 1 < live.len() && rng.gen_bool(shape.chain) {
            nfa.add_epsilon(s, live[i + 1]);
        }
    }
    let core = &live[live.len() - shape.core..];
    for (i, &s) in core.iter().enumerate() {
        nfa.add_epsilon(s, core[(i + 1) % core.len()]);
    }
    for (i, &s) in unreachable.iter().enumerate() {
        for sym in alpha.symbols() {
            if rng.gen_bool(0.5) {
                nfa.add_transition(s, sym, ids[rng.gen_range(0..ids.len())]);
            }
        }
        if i + 1 < unreachable.len() && rng.gen_bool(shape.chain) {
            nfa.add_epsilon(s, unreachable[i + 1]);
        }
    }
    nfa
}

/// `(shape, seed, stride)`: which NFAs to build, and every how many states
/// the freeze is checked against the tree oracle (the oracle's `BTreeSet`
/// closures of a 1 000-state core are what a full check would spend its
/// time on).
const CASES: [(Shape, u64, usize); 5] = [
    (SPARSE, 1, 1),
    (SPARSE, 2, 1),
    (CHAINS, 3, 1),
    (CHAINS, 4, 1),
    (DENSE_CORE, 5, 29),
];

fn sorted(set: BTreeSet<StateId>) -> Vec<u32> {
    set.into_iter().map(|s| s as u32).collect()
}

#[test]
fn subset_scratch_drains_sorted_and_leaves_nothing_behind() {
    let mut rng = StdRng::seed_from_u64(0x5ca7);
    let capacity = 2_085;
    let mut scratch = SubsetScratch::new(capacity);
    for round in 0..400 {
        // Sizes on both sides of the sort / scan switch (33 words).
        let size = match round % 4 {
            0 => rng.gen_range(0..8),
            1 => rng.gen_range(8..64),
            2 => rng.gen_range(64..512),
            _ => rng.gen_range(512..capacity),
        };
        let mut oracle = BTreeSet::new();
        for _ in 0..size {
            let v = rng.gen_range(0..capacity as u32);
            assert_eq!(scratch.insert(v), oracle.insert(v), "round {round}");
        }
        // A drain appends.
        let mut out = vec![u32::MAX];
        scratch.drain_sorted_into(&mut out);
        assert_eq!(
            out[1..],
            oracle.into_iter().collect::<Vec<_>>()[..],
            "round {round}"
        );
        assert!(
            scratch.is_empty(),
            "round {round}: the drain left members behind"
        );
    }
}

#[test]
fn freeze_matches_the_tree_closures_and_successor_lists() {
    for (shape, seed, stride) in CASES {
        let nfa = large_nfa(shape, seed);
        let dense = DenseNfa::from_nfa(&nfa);
        assert_eq!(
            dense.start(),
            sorted(start_configuration(&nfa)),
            "seed {seed}"
        );
        for s in (0..nfa.num_states()).step_by(stride) {
            let single = BTreeSet::from([s]);
            assert_eq!(
                dense.closure(s as u32),
                sorted(epsilon_closure(&nfa, &single)),
                "seed {seed}: closure of {s}"
            );
            for sym in nfa.alphabet().symbols() {
                let closed = epsilon_closure(&nfa, &step(&nfa, &single, sym));
                assert_eq!(
                    dense.closed_successors(s as u32, sym.index()),
                    sorted(closed),
                    "seed {seed}: successors of {s} under {sym:?}"
                );
            }
        }
        let widest = (0..dense.num_states() as u32)
            .map(|s| dense.closure(s).len())
            .max();
        assert!(
            widest >= Some(shape.core),
            "seed {seed}: the core closes over itself"
        );
    }
}

#[test]
fn step_closed_matches_the_tree_step_and_leaves_the_scratch_empty() {
    for (shape, seed, _) in CASES {
        let nfa = large_nfa(shape, seed);
        let dense = DenseNfa::from_nfa(&nfa);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57e9);
        let mut scratch = SubsetScratch::new(dense.num_states());
        let mut out = Vec::new();
        // Walk random words from the start: the configurations a subset
        // construction meets, sparse or near |Q| depending on the shape.
        for walk in 0..8 {
            let mut config = start_configuration(&nfa);
            for _ in 0..12 {
                let sym = automata::Symbol(rng.gen_range(0..shape.symbols as u32));
                let dense_config = sorted(config.clone());
                dense.step_closed(&dense_config, sym.index(), &mut scratch, &mut out);
                assert!(scratch.is_empty(), "seed {seed}, walk {walk}");
                config = epsilon_closure(&nfa, &step(&nfa, &config, sym));
                assert_eq!(out, sorted(config.clone()), "seed {seed}, walk {walk}");
                if config.is_empty() {
                    break;
                }
            }
        }
    }
}

#[test]
fn determinization_is_structurally_identical_to_baseline() {
    for (shape, seed, _) in CASES {
        let nfa = large_nfa(shape, seed);
        let dense = determinize_to_dense(&DenseNfa::from_nfa(&nfa));
        let baseline = determinize_with_subsets_baseline(&nfa);
        let subsets: Vec<BTreeSet<StateId>> = dense
            .subsets
            .iter()
            .map(|set| set.iter().map(|&s| s as StateId).collect())
            .collect();
        assert_eq!(subsets, baseline.subsets, "seed {seed}: subsets");
        let dfa = dense.dfa;
        assert_eq!(dfa.initial(), baseline.dfa.initial(), "seed {seed}");
        assert_eq!(dfa.finals(), baseline.dfa.finals(), "seed {seed}");
        assert_eq!(
            dfa.transitions().collect::<Vec<_>>(),
            baseline.dfa.transitions().collect::<Vec<_>>(),
            "seed {seed}: transitions"
        );
    }
}

#[test]
fn word_reachability_equals_the_baseline() {
    for (shape, seed, _) in CASES {
        let view = large_nfa(shape, seed);
        let alpha = view.alphabet().clone();
        // The sweep runs once per DFA state, and the oracle's configurations
        // are `BTreeSet`s of up to |core| states: keep the DFA small there.
        let num_states = if shape.core > 0 { 6 } else { 24 };
        let config = RandomAutomatonConfig {
            num_states,
            density: 0.8,
            final_probability: 0.3,
        };
        let dfa = random_dfa(&alpha, &config, seed * 7 + 1);
        assert_eq!(
            word_reachability_via_dense(&dfa, &view),
            word_reachability_relation_baseline(&dfa, &view),
            "seed {seed}"
        );
    }
}

/// Checks one containment both ways and returns the verdict.
fn assert_strategies_agree(a: &Dfa, b: &Nfa, ctx: &str) -> bool {
    let on_the_fly = dfa_subset_of_nfa(a, b);
    let explicit = dfa_subset_of_nfa_explicit(a, b);
    match (&on_the_fly, &explicit) {
        (Containment::Holds, Containment::Holds) => true,
        (Containment::FailsWith(lazy), Containment::FailsWith(full)) => {
            assert_eq!(
                lazy.len(),
                full.len(),
                "{ctx}: both counterexamples are shortest"
            );
            for word in [lazy, full] {
                assert!(
                    a.accepts(word),
                    "{ctx}: counterexample {word:?} not in L(a)"
                );
                assert!(!b.accepts(word), "{ctx}: counterexample {word:?} in L(b)");
            }
            false
        }
        _ => panic!("{ctx}: the strategies disagree: {on_the_fly:?} vs {explicit:?}"),
    }
}

#[test]
fn containment_agrees_with_the_explicit_complement() {
    let mut verdicts = [0usize; 2];
    for (shape, seed, _) in CASES {
        let b = large_nfa(shape, seed);
        let alpha = b.alphabet().clone();
        let other = large_nfa(shape, seed + 100);
        let config = RandomAutomatonConfig {
            num_states: 8,
            density: 0.7,
            final_probability: 0.4,
        };
        let lefts = [
            ("its own language", determinize(&b)),
            ("another of its shape", determinize(&other)),
            ("a random DFA", random_dfa(&alpha, &config, seed)),
        ];
        for (what, a) in lefts {
            let holds = assert_strategies_agree(&a, &b, &format!("seed {seed}, {what}"));
            verdicts[usize::from(holds)] += 1;
        }
    }
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "both verdicts occur: {verdicts:?}"
    );
}
