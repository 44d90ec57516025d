//! Exactness of rewritings (Theorem 2.3 and Theorem 3.2 of the paper).
//!
//! A rewriting `R` is *exact* when `exp_Σ(L(R)) = L(E0)`.  Because every
//! rewriting satisfies `exp_Σ(L(R)) ⊆ L(E0)` by definition, exactness reduces
//! to the reverse containment `L(A_d) ⊆ L(B)`, where `B` is the expansion of
//! the maximal rewriting (Theorem 2.3), i.e. to the emptiness of
//! `L(A_d ∩ B̄)`.
//!
//! Theorem 3.2 observes that materializing `B̄` would cost a third exponential
//! and instead explores the product of `A_d` with the lazily determinized `B`
//! *on the fly*.  Both strategies are implemented so the ablation benchmark
//! (E11) can compare them; the on-the-fly one is the default.
//!
//! Both strategies run on the dense CSR core: the on-the-fly check is the
//! product sweep of [`automata::dfa_subset_of_nfa`], and the explicit
//! strategy chains dense subset construction, table complement, dense
//! intersection and a flat-table shortest-word BFS
//! ([`automata::dfa_subset_of_nfa_explicit`]).  The seed's tree chain is
//! the differential tests' oracle, in the dev-only `testkit` crate.
//!
//! `B` is built dense ([`crate::expand_dfa`]: one `from_edges` call over the
//! views' compiled automata) and handed to either strategy as is.  On the
//! blow-up family the on-the-fly search is already minimal — each
//! `(A_d state, configuration)` pair is met once, with configurations of
//! about seven states — so its cost is building `B` and stepping those small
//! configurations.  Both cost what they touch (a subset step never scans
//! `B`'s whole state bitset, a visit is one hash-set entry), which is why
//! antichain pruning would buy nothing there.

use automata::{dfa_subset_of_nfa, dfa_subset_of_nfa_explicit, Containment};
use serde::Serialize;

use crate::expansion::expand_dfa;
use crate::maximal::{compute_maximal_rewriting, MaximalRewriting, RewriteProblem};
use crate::views::ViewSet;

/// Which containment strategy the exactness check uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ExactnessStrategy {
    /// Explore `A_d × (lazily determinized B)` on the fly — never builds the
    /// complement of `B` (the paper's Theorem 3.2 strategy).
    OnTheFly,
    /// Determinize and complement `B` explicitly, then intersect with `A_d`.
    /// Exponentially more expensive in the worst case; kept for ablation.
    ExplicitComplement,
}

/// Result of the exactness check.
#[derive(Debug, Clone, Serialize)]
pub struct ExactnessReport {
    /// Whether the rewriting is exact (`exp_Σ(L(R)) = L(E0)`).
    pub exact: bool,
    /// When not exact: a Σ-word (as symbol names) in `L(E0)` that no word of
    /// the rewriting expands to.
    pub counterexample: Option<Vec<String>>,
    /// Number of states of the expansion automaton `B`.
    pub expansion_states: usize,
    /// The strategy that produced this report.
    pub strategy: ExactnessStrategy,
}

/// Checks whether the maximal rewriting is exact, using the on-the-fly
/// strategy of Theorem 3.2.
pub fn check_exactness(rewriting: &MaximalRewriting, views: &ViewSet) -> ExactnessReport {
    check_exactness_with(rewriting, views, ExactnessStrategy::OnTheFly)
}

/// Checks exactness with an explicit strategy choice.
pub fn check_exactness_with(
    rewriting: &MaximalRewriting,
    views: &ViewSet,
    strategy: ExactnessStrategy,
) -> ExactnessReport {
    // B = exp_Σ(L(R)) as an automaton over Σ.
    let expansion = expand_dfa(&rewriting.automaton, views);
    let expansion_states = expansion.num_states();
    // Exactness ⟺ L(A_d) ⊆ L(B).
    let containment: Containment = match strategy {
        ExactnessStrategy::OnTheFly => dfa_subset_of_nfa(&rewriting.query_dfa, &expansion),
        ExactnessStrategy::ExplicitComplement => {
            dfa_subset_of_nfa_explicit(&rewriting.query_dfa, &expansion)
        }
    };
    let counterexample = containment.counterexample().map(|word| {
        word.iter()
            .map(|&sym| views.sigma().name(sym).to_string())
            .collect()
    });
    ExactnessReport {
        exact: containment.holds(),
        counterexample,
        expansion_states,
        strategy,
    }
}

/// One-call convenience: computes the maximal rewriting *and* its exactness
/// report.  Corollary 2.1: an exact rewriting of `E0` w.r.t. `E` exists iff
/// the maximal rewriting is exact.
pub fn rewrite(problem: &RewriteProblem) -> (MaximalRewriting, ExactnessReport) {
    let rewriting = compute_maximal_rewriting(problem);
    let exactness = check_exactness(&rewriting, &problem.views);
    (rewriting, exactness)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_rewriting_is_exact() {
        // Example 2.3: e2*·e1·e3* is an exact rewriting of a·(b·a+c)* w.r.t.
        // {a, a·c*·b, c}.
        let problem =
            RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")])
                .unwrap();
        let (rewriting, report) = rewrite(&problem);
        assert!(report.exact, "expected exact, got {report:?}");
        assert!(report.counterexample.is_none());
        assert!(!rewriting.is_empty());
    }

    #[test]
    fn dropping_view_c_breaks_exactness() {
        // Example 2.3 continued: without c the maximal rewriting e2*·e1 is
        // not exact — e.g. a·c ∈ L(E0) is not generated.
        let problem =
            RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b")]).unwrap();
        let (_rewriting, report) = rewrite(&problem);
        assert!(!report.exact);
        let cex = report.counterexample.expect("counterexample required");
        // The counterexample must be a word of L(E0) = a·(b·a+c)* that the
        // expansion of e2*·e1 (= (a·c*·b)*·a) cannot produce.  The shortest
        // such word contains a `c`.
        assert!(cex.contains(&"c".to_string()), "counterexample {cex:?}");
    }

    #[test]
    fn example41_query_rewriting_exactness() {
        // Example 4.1 (at the regular-expression level): Q0 = a·(b+c),
        // views {a, b} give the non-exact q1·q2; adding c makes it exact.
        let incomplete = RewriteProblem::parse("a·(b+c)", [("q1", "a"), ("q2", "b")]).unwrap();
        let (rewriting, report) = rewrite(&incomplete);
        assert!(!report.exact);
        assert!(rewriting.accepts(&["q1", "q2"]));
        let complete =
            RewriteProblem::parse("a·(b+c)", [("q1", "a"), ("q2", "b"), ("q3", "c")]).unwrap();
        let (rewriting, report) = rewrite(&complete);
        assert!(report.exact);
        assert!(rewriting.accepts(&["q1", "q2"]));
        assert!(rewriting.accepts(&["q1", "q3"]));
    }

    #[test]
    fn empty_rewriting_is_exact_only_for_empty_query() {
        // Query a·b with a useless view: maximal rewriting is ∅, which is not
        // exact because L(E0) ≠ ∅.
        let problem = RewriteProblem::parse("a·b", [("v", "c")]).unwrap();
        let (rewriting, report) = rewrite(&problem);
        assert!(rewriting.is_empty());
        assert!(!report.exact);
        // Query ∅: the empty rewriting is exact.
        let problem = RewriteProblem::parse("∅", [("v", "a")]).unwrap();
        let (rewriting, report) = rewrite(&problem);
        assert!(rewriting.is_empty() || report.exact);
        assert!(report.exact);
    }

    #[test]
    fn strategies_agree() {
        let problems = vec![
            RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")])
                .unwrap(),
            RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b")]).unwrap(),
            RewriteProblem::parse("(a+b)*", [("va", "a"), ("vb", "b")]).unwrap(),
            RewriteProblem::parse("a·b·c", [("v1", "a·b"), ("v2", "c"), ("v3", "b·c")]).unwrap(),
            // Views denoting ∅ compile to automata with no states.
            RewriteProblem::parse("a·(b+c)", [("v0", "∅"), ("v1", "a"), ("v2", "b+c")]).unwrap(),
            RewriteProblem::parse("a·b*", [("v0", "a·∅"), ("v1", "a")]).unwrap(),
        ];
        for problem in problems {
            let rewriting = compute_maximal_rewriting(&problem);
            let lazy = check_exactness_with(&rewriting, &problem.views, ExactnessStrategy::OnTheFly);
            let explicit = check_exactness_with(
                &rewriting,
                &problem.views,
                ExactnessStrategy::ExplicitComplement,
            );
            assert_eq!(lazy.exact, explicit.exact, "query {}", problem.query);
        }
    }

    #[test]
    fn exact_when_views_cover_all_symbols() {
        let problem = RewriteProblem::parse("(a·b)*+c", [("va", "a"), ("vb", "b"), ("vc", "c")])
            .unwrap();
        let (_, report) = rewrite(&problem);
        assert!(report.exact);
    }

    #[test]
    fn composite_views_can_be_exact_without_atomic_views() {
        // L(E0) = (a·b)* and the view is exactly a·b: rewriting v* is exact.
        let problem = RewriteProblem::parse("(a·b)*", [("v", "a·b")]).unwrap();
        let (rewriting, report) = rewrite(&problem);
        assert!(report.exact);
        assert!(rewriting.accepts(&[]));
        assert!(rewriting.accepts(&["v", "v"]));
    }

    #[test]
    fn report_mentions_expansion_size() {
        let problem = RewriteProblem::parse("(a·b)*", [("v", "a·b")]).unwrap();
        let (rewriting, report) = rewrite(&problem);
        assert!(report.expansion_states >= rewriting.automaton.num_states());
    }
}
