//! Certificates: checking that candidate languages over `Σ_E` are rewritings,
//! and comparing rewritings under the two maximality orders of the paper.
//!
//! Definition 2.2 distinguishes Σ-maximality (compare the *expansions*) from
//! Σ_E-maximality (compare the languages over the view alphabet); Theorem 2.1
//! shows the latter implies the former but not conversely (Example 2.1).
//! These helpers make both orders executable so the property tests can verify
//! the theorem on generated instances.
//!
//! Everything here is dense: a regex (the query, a Σ_E candidate) becomes an
//! automaton through [`regexlang::compile`], the comparisons take
//! [`DenseNfa`]s, and the containment checks read the dense expansions as
//! built.  Only [`verify_rewriting`] takes a tree [`Nfa`], which it freezes
//! once.

use automata::{nfa_subset_of_nfa, Containment, DenseNfa, Nfa};
use regexlang::Regex;

use crate::expansion::expand_nfa;
use crate::maximal::RewriteProblem;
use crate::views::ViewSet;

/// Outcome of checking whether a candidate language over `Σ_E` is a rewriting
/// of the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewritingCheck {
    /// The candidate is a rewriting: every expansion is inside `L(E0)`.
    IsRewriting,
    /// The candidate is not a rewriting; the witness is a Σ-word (as symbol
    /// names) that lies in the expansion of the candidate but outside
    /// `L(E0)`.
    NotARewriting(Vec<String>),
}

impl RewritingCheck {
    /// Whether the candidate passed.
    pub fn is_rewriting(&self) -> bool {
        matches!(self, RewritingCheck::IsRewriting)
    }
}

/// Checks Definition 2.1: is `candidate` (an automaton over `Σ_E`) a rewriting
/// of `problem.query` w.r.t. `problem.views`, i.e. is
/// `exp_Σ(L(candidate)) ⊆ L(E0)`?
pub fn verify_rewriting(problem: &RewriteProblem, candidate: &Nfa) -> RewritingCheck {
    verify_dense(problem, &DenseNfa::from_nfa(candidate))
}

/// [`verify_rewriting`] on a frozen candidate.
fn verify_dense(problem: &RewriteProblem, candidate: &DenseNfa) -> RewritingCheck {
    let expansion = expand_nfa(candidate, &problem.views);
    let query = regexlang::compile(&problem.query, problem.views.sigma())
        .expect("query symbols checked at problem construction");
    match nfa_subset_of_nfa(&expansion, &query) {
        Containment::Holds => RewritingCheck::IsRewriting,
        Containment::FailsWith(word) => RewritingCheck::NotARewriting(
            word.iter()
                .map(|&s| problem.views.sigma().name(s).to_string())
                .collect(),
        ),
    }
}

/// Checks Definition 2.1 for a candidate given as a regular expression over
/// the view symbols.
pub fn verify_rewriting_regex(problem: &RewriteProblem, candidate: &Regex) -> RewritingCheck {
    let nfa = match regexlang::compile(candidate, problem.views.sigma_e()) {
        Ok(nfa) => nfa,
        Err(unknown) => {
            // A candidate that uses a non-view symbol is not a rewriting in
            // the sense of Section 2 (partial rewritings are handled in the
            // `rpq` crate); report the offending symbol as the witness.
            return RewritingCheck::NotARewriting(vec![unknown.name]);
        }
    };
    verify_dense(problem, &nfa)
}

/// `Σ_E-containment`: is `L(a) ⊆ L(b)` for two languages over the view
/// alphabet?
pub fn sigma_e_contained(a: &DenseNfa, b: &DenseNfa) -> bool {
    nfa_subset_of_nfa(a, b).holds()
}

/// `Σ-containment`: is `exp_Σ(L(a)) ⊆ exp_Σ(L(b))` — the order underlying
/// Σ-maximality (Definition 2.2)?
pub fn sigma_contained(a: &DenseNfa, b: &DenseNfa, views: &ViewSet) -> bool {
    nfa_subset_of_nfa(&expand_nfa(a, views), &expand_nfa(b, views)).holds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regexlang::parse;

    fn figure1_problem() -> RewriteProblem {
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]).unwrap()
    }

    fn sigma_e_nfa(problem: &RewriteProblem, src: &str) -> DenseNfa {
        regexlang::compile(&parse(src).unwrap(), problem.views.sigma_e()).unwrap()
    }

    #[test]
    fn the_papers_rewriting_is_certified() {
        let problem = figure1_problem();
        assert!(verify_rewriting_regex(&problem, &parse("e2*·e1·e3*").unwrap()).is_rewriting());
        // Sub-languages of a rewriting are rewritings too.
        assert!(verify_rewriting_regex(&problem, &parse("e1").unwrap()).is_rewriting());
        assert!(verify_rewriting_regex(&problem, &parse("∅").unwrap()).is_rewriting());
    }

    #[test]
    fn non_rewritings_come_with_witnesses() {
        let problem = figure1_problem();
        // e3 alone expands to c, which is not in L(a·(b·a+c)*).
        match verify_rewriting_regex(&problem, &parse("e3").unwrap()) {
            RewritingCheck::NotARewriting(witness) => {
                assert_eq!(witness, vec!["c".to_string()]);
            }
            RewritingCheck::IsRewriting => panic!("e3 must not be a rewriting"),
        }
        // e1·e1 expands to a·a ∉ L(E0).
        assert!(!verify_rewriting_regex(&problem, &parse("e1·e1").unwrap()).is_rewriting());
    }

    #[test]
    fn candidates_with_unknown_symbols_are_rejected() {
        let problem = figure1_problem();
        // The first unknown symbol in reading order is the witness.
        for (src, first) in [("e1·zz", "zz"), ("(yy+e1)·zz*", "yy")] {
            match verify_rewriting_regex(&problem, &parse(src).unwrap()) {
                RewritingCheck::NotARewriting(witness) => assert_eq!(witness, vec![first]),
                RewritingCheck::IsRewriting => panic!("unknown symbols cannot be certified"),
            }
        }
    }

    #[test]
    fn example21_sigma_vs_sigma_e_maximality() {
        // E0 = a*, E = {e := a*}: R1 = e* and R2 = e are both Σ-maximal, but
        // only R1 is Σ_E-maximal.
        let problem = RewriteProblem::parse("a*", [("e", "a*")]).unwrap();
        let r1 = sigma_e_nfa(&problem, "e*");
        let r2 = sigma_e_nfa(&problem, "e");
        // Both are rewritings.
        assert!(verify_rewriting(&problem, &r1.to_nfa()).is_rewriting());
        assert!(verify_rewriting(&problem, &r2.to_nfa()).is_rewriting());
        // Same expansions (both Σ-maximal): exp(e*) = exp(e) = a*.
        assert!(sigma_contained(&r1, &r2, &problem.views));
        assert!(sigma_contained(&r2, &r1, &problem.views));
        // But over Σ_E, r2 ⊊ r1.
        assert!(sigma_e_contained(&r2, &r1));
        assert!(!sigma_e_contained(&r1, &r2));
    }

    #[test]
    fn sigma_e_containment_implies_sigma_containment() {
        // Theorem 2.1's key monotonicity step, spot-checked.
        let problem = figure1_problem();
        let small = sigma_e_nfa(&problem, "e2·e1");
        let big = sigma_e_nfa(&problem, "e2*·e1·e3*");
        assert!(sigma_e_contained(&small, &big));
        assert!(sigma_contained(&small, &big, &problem.views));
    }
}
