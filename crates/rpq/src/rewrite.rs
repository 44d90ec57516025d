//! View-based rewriting of regular path queries (§4.2, Theorem 4.2).
//!
//! To rewrite an RPQ `Q0` in terms of views `Q = {Q1, …, Qk}` under a theory
//! `T`, the paper grounds every query to the constants of the domain: the
//! automaton `Q*` accepts `match(L(Q))`, the set of D-words matching some
//! F-word of the query.  Theorem 4.2 then shows that running the
//! regular-expression rewriting algorithm on the grounded query and views
//! yields the Σ_Q-maximal (hence maximal) rewriting of `Q0` w.r.t. `Q`.
//!
//! We perform the grounding at the expression level (see
//! [`crate::query::Rpq::ground`]) and delegate to the [`rewriter`] crate,
//! whose complexity bounds therefore carry over unchanged, exactly as the
//! paper argues.

use graphdb::Theory;
use regexlang::Regex;
use rewriter::{
    check_exactness, compute_maximal_rewriting, ExactnessReport, MaximalRewriting,
    RewriteProblem, View, ViewSet,
};

use crate::query::{Rpq, RpqError};

/// An RPQ rewriting problem: the query, the named views, and the theory.
#[derive(Debug, Clone)]
pub struct RpqRewriteProblem {
    /// The query `Q0`.
    pub query: Rpq,
    /// The views `Q1, …, Qk`, each named by a view symbol of `Σ_Q`.
    pub views: Vec<(String, Rpq)>,
    /// The underlying decidable complete theory `T` (with its finite domain).
    pub theory: Theory,
}

impl RpqRewriteProblem {
    /// Builds a problem, checking view-name uniqueness.
    pub fn new(
        query: Rpq,
        views: impl IntoIterator<Item = (String, Rpq)>,
        theory: Theory,
    ) -> Result<Self, RpqError> {
        let views: Vec<(String, Rpq)> = views.into_iter().collect();
        if views.is_empty() {
            return Err(RpqError::NoViews);
        }
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in &views {
            if !seen.insert(name.clone()) {
                return Err(RpqError::DuplicateViewSymbol(name.clone()));
            }
        }
        Ok(Self {
            query,
            views,
            theory,
        })
    }

    /// Convenience constructor for label-based problems: query and views in
    /// concrete syntax, an elementary theory over the inferred label domain.
    pub fn parse_labels(
        query: &str,
        views: impl IntoIterator<Item = (&'static str, &'static str)>,
    ) -> Result<Self, RpqError> {
        let query = Rpq::parse_labels(query)?;
        let views: Result<Vec<(String, Rpq)>, RpqError> = views
            .into_iter()
            .map(|(name, src)| Rpq::parse_labels(src).map(|v| (name.to_string(), v)))
            .collect();
        let views = views?;
        // Domain = all labels mentioned anywhere.
        let mut labels = query.regex.symbols();
        for (_, v) in &views {
            labels.extend(v.regex.symbols());
        }
        let domain = automata::Alphabet::from_names(labels).expect("BTreeSet has no duplicates");
        let theory = Theory::elementary(domain);
        Self::new(query, views, theory)
    }

    /// Grounds the problem into a regular-expression rewriting problem over
    /// the domain constants (the `Q*` construction of §4.2).
    pub fn ground(&self) -> Result<RewriteProblem, RpqError> {
        let grounded_query = self.query.ground(&self.theory);
        let grounded_views: Vec<View> = self
            .views
            .iter()
            .map(|(name, view)| View::new(name.clone(), view.ground(&self.theory)))
            .collect();
        // The base alphabet is the whole domain D (views or query may ground
        // to expressions that omit some constants; the alphabet must still be
        // D so that answers and containment are judged over all labels).
        let view_set = ViewSet::new(self.theory.domain().clone(), grounded_views)
            .map_err(|e| RpqError::Parse(e.to_string()))?;
        RewriteProblem::new(grounded_query, view_set).map_err(|e| RpqError::Parse(e.to_string()))
    }
}

/// The result of rewriting an RPQ over views.
#[derive(Debug, Clone)]
pub struct RpqRewriting {
    /// The Σ_Q-maximal rewriting (an automaton over the view symbols)
    /// computed on the grounded problem.
    pub maximal: MaximalRewriting,
    /// Exactness of the rewriting in the sense of Definition 4.3 /
    /// Theorem 4.1: whether `match(exp_F(L(R))) = match(L(Q0))`.
    pub exactness: ExactnessReport,
    /// The grounded query `Q0*` as an expression over the domain.
    pub grounded_query: Regex,
    /// The grounded views, in registration order.
    pub grounded_views: Vec<(String, Regex)>,
}

impl RpqRewriting {
    /// The rewriting as a simplified expression over the view symbols,
    /// rendered on demand ([`MaximalRewriting::regex`]): state elimination
    /// is the expensive part of presenting a rewriting, and most callers —
    /// answering over views, the exactness loop of the partial-rewriting
    /// search — never read the expression.
    pub fn regex(&self) -> Regex {
        self.maximal.regex()
    }

    /// Whether the rewriting is empty.
    pub fn is_empty(&self) -> bool {
        self.maximal.is_empty()
    }

    /// Whether the rewriting is exact.
    pub fn is_exact(&self) -> bool {
        self.exactness.exact
    }
}

/// Computes the maximal rewriting of `Q0` w.r.t. the views and checks its
/// exactness (Theorem 4.2 plus the exactness procedure of §4.2).
pub fn rewrite_rpq(problem: &RpqRewriteProblem) -> Result<RpqRewriting, RpqError> {
    let grounded = problem.ground()?;
    let maximal = compute_maximal_rewriting(&grounded);
    let exactness = check_exactness(&maximal, &grounded.views);
    let grounded_views = grounded
        .views
        .views()
        .map(|v| (v.symbol.clone(), v.definition.clone()))
        .collect();
    Ok(RpqRewriting {
        maximal,
        exactness,
        grounded_query: grounded.query.clone(),
        grounded_views,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Alphabet;
    use graphdb::Formula;
    use regexlang::parse;

    #[test]
    fn label_based_rewriting_matches_the_regex_case() {
        // Example 4.1: Q0 = a·(b+c), Q = {a, b} — maximal rewriting q1·q2,
        // not exact; adding c gives the exact q1·(q2+q3).
        let problem =
            RpqRewriteProblem::parse_labels("a·(b+c)", [("q1", "a"), ("q2", "b")]).unwrap();
        let rewriting = rewrite_rpq(&problem).unwrap();
        assert_eq!(rewriting.regex().to_string(), "q1·q2");
        assert!(!rewriting.is_exact());

        let problem =
            RpqRewriteProblem::parse_labels("a·(b+c)", [("q1", "a"), ("q2", "b"), ("q3", "c")])
                .unwrap();
        let rewriting = rewrite_rpq(&problem).unwrap();
        assert!(rewriting.is_exact());
        let r = rewriting.regex().to_string();
        assert!(
            r == "q1·(q2+q3)" || r == "q1·(q3+q2)",
            "unexpected rewriting {r}"
        );
    }

    #[test]
    fn theory_implications_are_honoured() {
        // §4.2's motivating example: T ⊨ ∀x. A(x) → B(x), Q0 = B, Q = {A}.
        // Ignoring the theory the rewriting would be empty; with the theory
        // the maximal rewriting is the view symbol itself.
        let domain = Alphabet::from_names(["a1", "a2", "b_extra"]).unwrap();
        let theory = Theory::new(
            domain,
            [
                ("A".to_string(), vec!["a1".to_string(), "a2".to_string()]),
                (
                    "B".to_string(),
                    vec!["a1".to_string(), "a2".to_string(), "b_extra".to_string()],
                ),
            ],
        );
        let query = Rpq::new(parse("B").unwrap(), [("B".to_string(), Formula::pred("B"))]).unwrap();
        let view = Rpq::new(parse("A").unwrap(), [("A".to_string(), Formula::pred("A"))]).unwrap();
        let problem = RpqRewriteProblem::new(query, [("vA".to_string(), view)], theory).unwrap();
        let rewriting = rewrite_rpq(&problem).unwrap();
        assert_eq!(rewriting.regex().to_string(), "vA");
        // A ⊊ B, so the rewriting is not exact (b_extra is missed).
        assert!(!rewriting.is_exact());
        assert_eq!(rewriting.grounded_query.to_string(), "a1+a2+b_extra");
    }

    #[test]
    fn figure1_as_a_path_query() {
        let problem = RpqRewriteProblem::parse_labels(
            "a·(b·a+c)*",
            [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
        )
        .unwrap();
        let rewriting = rewrite_rpq(&problem).unwrap();
        assert!(rewriting.is_exact());
        assert_eq!(rewriting.regex().to_string(), "e2*·e1·e3*");
        assert_eq!(rewriting.grounded_views.len(), 3);
    }

    #[test]
    fn problem_construction_validates_views() {
        let err =
            RpqRewriteProblem::parse_labels("a", [("v", "a"), ("v", "b")]).unwrap_err();
        assert!(matches!(err, RpqError::DuplicateViewSymbol(_)));
        let err = RpqRewriteProblem::parse_labels("a", []).unwrap_err();
        assert_eq!(err, RpqError::NoViews);
    }

    #[test]
    fn predicate_views_can_cover_multiple_labels() {
        // Query: any City edge followed by restaurant; view 1: EuropeanCity
        // edges, view 2: restaurant edges.  The rewriting exists but is not
        // exact because non-European cities are missed.
        let domain =
            Alphabet::from_names(["rome", "jerusalem", "paris", "restaurant"]).unwrap();
        let theory = Theory::new(
            domain,
            [
                (
                    "City".to_string(),
                    vec!["rome".to_string(), "jerusalem".to_string(), "paris".to_string()],
                ),
                (
                    "EuropeanCity".to_string(),
                    vec!["rome".to_string(), "paris".to_string()],
                ),
            ],
        );
        let query = Rpq::new(
            parse("City·restaurant").unwrap(),
            [
                ("City".to_string(), Formula::pred("City")),
                ("restaurant".to_string(), Formula::equals("restaurant")),
            ],
        )
        .unwrap();
        let v_euro = Rpq::new(
            parse("EuropeanCity").unwrap(),
            [("EuropeanCity".to_string(), Formula::pred("EuropeanCity"))],
        )
        .unwrap();
        let v_rest = Rpq::parse_labels("restaurant").unwrap();
        let problem = RpqRewriteProblem::new(
            query,
            [("vE".to_string(), v_euro), ("vR".to_string(), v_rest)],
            theory,
        )
        .unwrap();
        let rewriting = rewrite_rpq(&problem).unwrap();
        assert_eq!(rewriting.regex().to_string(), "vE·vR");
        assert!(!rewriting.is_exact());
        // The counterexample must go through the non-European city.
        let cex = rewriting.exactness.counterexample.clone().unwrap();
        assert!(cex.contains(&"jerusalem".to_string()), "{cex:?}");
    }
}
