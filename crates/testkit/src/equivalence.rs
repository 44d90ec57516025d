//! The seed's tree chain for explicit-complement containment, the oracle for
//! the dense chain of [`automata::dfa_subset_of_nfa_explicit`].

use automata::{Containment, Dfa, Nfa};

use crate::dense_ops::intersect_dfa_baseline;
use crate::determinize::determinize_with_subsets_baseline;
use crate::dfa::{complement, shortest_word};

/// Checks `L(a) ⊆ L(b)` on tree automata by determinizing `b`, complementing
/// it, intersecting with `a` and searching the product for a shortest word.
pub fn dfa_subset_of_nfa_explicit_baseline(a: &Dfa, b: &Nfa) -> Containment {
    let b_det = determinize_with_subsets_baseline(b).dfa;
    let b_comp = complement(&b_det);
    let product = intersect_dfa_baseline(a, &b_comp);
    match shortest_word(&product) {
        None => Containment::Holds,
        Some(word) => Containment::FailsWith(word),
    }
}
