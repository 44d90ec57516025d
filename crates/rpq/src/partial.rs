//! Partial rewritings (§4.3 of the paper).
//!
//! When the maximal rewriting of `Q0` w.r.t. the available views `Q` is not
//! exact, the paper proposes extending `Q` with *atomic* views — views of the
//! form `λz.P(z)` for a predicate `P` of the theory — including the
//! *elementary* ones `λz.z = a`.  An exact rewriting of `Q0` w.r.t. the
//! extended set `Q+` (with `Q+ ≠ Q`) is called a partial rewriting of `Q0`
//! w.r.t. `Q`.  Choosing the set of all elementary views always succeeds, so
//! a partial rewriting always exists; the interesting question is finding
//! *minimal* extensions, and §4.3 spells out preference criteria 1–4 for
//! choosing among candidates.  The exhaustive minimal search is implemented
//! here; its tests hold the result to the whole preference order.

use graphdb::Formula;
use regexlang::parse;

use crate::query::{Rpq, RpqError};
use crate::rewrite::{rewrite_rpq, RpqRewriteProblem, RpqRewriting};

/// A candidate atomic view that can be added to the view set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomicView {
    /// The elementary view `λz.z = a` for a domain constant `a`.
    Elementary(String),
    /// The (non-elementary) atomic view `λz.P(z)` for a theory predicate `P`.
    Predicate(String),
}

impl AtomicView {
    /// The view symbol under which the candidate is registered when added.
    pub fn symbol(&self) -> String {
        match self {
            AtomicView::Elementary(a) => format!("const_{a}"),
            AtomicView::Predicate(p) => format!("pred_{p}"),
        }
    }

    /// Whether the view is elementary.
    pub fn is_elementary(&self) -> bool {
        matches!(self, AtomicView::Elementary(_))
    }

    fn to_rpq(&self) -> Rpq {
        match self {
            AtomicView::Elementary(a) => Rpq::from_labels(regexlang::Regex::symbol(a)),
            AtomicView::Predicate(p) => Rpq::new(
                parse(p).expect("predicate names are identifiers"),
                [(p.clone(), Formula::pred(p))],
            )
            .expect("single bound symbol"),
        }
    }
}

/// A partial rewriting: the extension that was added and the (exact)
/// rewriting over the extended view set.
#[derive(Debug, Clone)]
pub struct PartialRewriting {
    /// The atomic views added to the original view set (`P'` in the paper).
    pub added: Vec<AtomicView>,
    /// The extended problem `Q+`.
    pub extended_problem: RpqRewriteProblem,
    /// The rewriting of `Q0` w.r.t. `Q+` (exact by construction when produced
    /// by [`find_partial_rewriting`]).
    pub rewriting: RpqRewriting,
}

impl PartialRewriting {
    /// Number of added atomic views.
    pub fn num_added(&self) -> usize {
        self.added.len()
    }

    /// Number of added *non-elementary* atomic views.
    pub fn num_added_nonelementary(&self) -> usize {
        self.added.iter().filter(|v| !v.is_elementary()).count()
    }

    /// Number of distinct view symbols actually used by the rewriting
    /// expression (criterion 4 of §4.3).
    pub(crate) fn num_views_used(&self) -> usize {
        self.rewriting.regex().symbols().len()
    }
}

/// All candidate atomic views of a problem: one elementary view per domain
/// constant and one predicate view per declared theory predicate.
pub(crate) fn candidate_atomic_views(problem: &RpqRewriteProblem) -> Vec<AtomicView> {
    let mut out: Vec<AtomicView> = problem
        .theory
        .predicate_names()
        .map(|p| AtomicView::Predicate(p.to_string()))
        .collect();
    out.extend(
        problem
            .theory
            .domain()
            .names()
            .map(|c| AtomicView::Elementary(c.to_string())),
    );
    out
}

/// Extends the problem with the given atomic views (fails if a generated view
/// symbol collides with an existing one).
pub(crate) fn extend_problem(
    problem: &RpqRewriteProblem,
    added: &[AtomicView],
) -> Result<RpqRewriteProblem, RpqError> {
    let mut views = problem.views.clone();
    for view in added {
        views.push((view.symbol(), view.to_rpq()));
    }
    RpqRewriteProblem::new(problem.query.clone(), views, problem.theory.clone())
}

/// Finds a partial rewriting with a minimum number of added atomic views,
/// breaking ties in favour of fewer non-elementary views (criteria 2 and 3 of
/// §4.3).  Returns `None` only if even adding *all* candidates fails (which
/// can happen when the query needs constants that no view or predicate can
/// produce — in the paper's setting, where all elementary views are
/// available, this does not occur).
///
/// The search enumerates candidate subsets by increasing size, so its cost is
/// exponential in the number of candidates; domains in this workspace are
/// small (the paper treats the domain size as a constant).
pub fn find_partial_rewriting(problem: &RpqRewriteProblem) -> Option<PartialRewriting> {
    // Fast path: already exact with no extension.
    if let Ok(rewriting) = rewrite_rpq(problem) {
        if rewriting.is_exact() {
            return Some(PartialRewriting {
                added: Vec::new(),
                extended_problem: problem.clone(),
                rewriting,
            });
        }
    }
    let candidates = candidate_atomic_views(problem);
    for size in 1..=candidates.len() {
        let mut best_at_size: Option<PartialRewriting> = None;
        for subset in combinations(&candidates, size) {
            let Ok(extended) = extend_problem(problem, &subset) else { continue };
            let Ok(rewriting) = rewrite_rpq(&extended) else { continue };
            if !rewriting.is_exact() {
                continue;
            }
            let candidate = PartialRewriting {
                added: subset,
                extended_problem: extended,
                rewriting,
            };
            let better = match &best_at_size {
                None => true,
                Some(current) => {
                    candidate.num_added_nonelementary() < current.num_added_nonelementary()
                        || (candidate.num_added_nonelementary()
                            == current.num_added_nonelementary()
                            && candidate.num_views_used() < current.num_views_used())
                }
            };
            if better {
                best_at_size = Some(candidate);
            }
        }
        if best_at_size.is_some() {
            return best_at_size;
        }
    }
    None
}

/// Enumerates all `size`-element subsets of `items` (small inputs only).
fn combinations<T: Clone>(items: &[T], size: usize) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let mut indices: Vec<usize> = (0..size).collect();
    if size == 0 {
        return vec![Vec::new()];
    }
    if size > items.len() {
        return out;
    }
    loop {
        out.push(indices.iter().map(|&i| items[i].clone()).collect());
        // Advance the index vector.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if indices[i] != i + items.len() - size {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        indices[i] += 1;
        for j in i + 1..size {
            indices[j] = indices[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// Preference order of §4.3 between two partial rewritings of the *same*
    /// problem: returns `Greater` when `a` is preferable to `b`, `Less` when `b`
    /// is preferable to `a`, `Equal` when the criteria cannot separate them.
    fn compare_preference(a: &PartialRewriting, b: &PartialRewriting) -> Ordering {
        // Criterion 1: strictly larger expanded language wins.
        let a_lang = expansion_nfa(a);
        let b_lang = expansion_nfa(b);
        let a_in_b = automata::nfa_subset_of_nfa(&a_lang, &b_lang).holds();
        let b_in_a = automata::nfa_subset_of_nfa(&b_lang, &a_lang).holds();
        match (a_in_b, b_in_a) {
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            _ => {}
        }
        // Criteria 2–4 only apply when the languages coincide; for incomparable
        // languages the paper's order leaves the pair unordered, which we report
        // as `Equal`.
        if !(a_in_b && b_in_a) {
            return Ordering::Equal;
        }
        // Criterion 2: fewer additional atomic views.
        match a.num_added().cmp(&b.num_added()) {
            Ordering::Less => return Ordering::Greater,
            Ordering::Greater => return Ordering::Less,
            Ordering::Equal => {}
        }
        // Criterion 3: fewer additional non-elementary views.
        match a
            .num_added_nonelementary()
            .cmp(&b.num_added_nonelementary())
        {
            Ordering::Less => return Ordering::Greater,
            Ordering::Greater => return Ordering::Less,
            Ordering::Equal => {}
        }
        // Criterion 4: fewer views used overall.
        match a.num_views_used().cmp(&b.num_views_used()) {
            Ordering::Less => Ordering::Greater,
            Ordering::Greater => Ordering::Less,
            Ordering::Equal => Ordering::Equal,
        }
    }

    /// The expansion of the rewriting over the domain alphabet (the language
    /// `match(exp_F(L(R)))` used by criterion 1).
    fn expansion_nfa(partial: &PartialRewriting) -> automata::DenseNfa {
        let grounded = partial
            .extended_problem
            .ground()
            .expect("extended problem grounds");
        rewriter::expand_dfa(&partial.rewriting.maximal.automaton, &grounded.views)
    }

    #[test]
    fn example41_partial_rewriting_adds_exactly_c() {
        // Example 4.1: Q0 = a·(b+c), Q = {a, b}.  The maximal rewriting
        // q1·q2 is not exact; adding the elementary view c yields the exact
        // q1·(q2+q3).
        let problem =
            RpqRewriteProblem::parse_labels("a·(b+c)", [("q1", "a"), ("q2", "b")]).unwrap();
        let partial = find_partial_rewriting(&problem).expect("partial rewriting exists");
        assert_eq!(partial.num_added(), 1);
        assert_eq!(partial.added[0], AtomicView::Elementary("c".to_string()));
        assert!(partial.rewriting.is_exact());
        let r = partial.rewriting.regex().to_string();
        assert!(r.contains("const_c"), "rewriting {r} should use the added view");
    }

    #[test]
    fn already_exact_problems_need_no_extension() {
        let problem = RpqRewriteProblem::parse_labels(
            "a·(b·a+c)*",
            [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
        )
        .unwrap();
        let partial = find_partial_rewriting(&problem).unwrap();
        assert_eq!(partial.num_added(), 0);
        assert!(partial.rewriting.is_exact());
    }

    #[test]
    fn all_elementary_views_always_suffice() {
        // Even with a useless view set a partial rewriting exists (by adding
        // elementary views for the needed constants).
        let problem = RpqRewriteProblem::parse_labels("a·b", [("v", "c")]).unwrap();
        let partial = find_partial_rewriting(&problem).unwrap();
        assert!(partial.rewriting.is_exact());
        assert_eq!(partial.num_added(), 2);
        assert!(partial.added.iter().all(AtomicView::is_elementary));
    }

    #[test]
    fn predicate_views_are_preferred_when_they_cover_more_cheaply() {
        // Query (x+y)·z with no useful views: adding the predicate XY (= {x,y})
        // plus the constant z is one option of size 2; adding constants x, y,
        // z is size 3 — the search must find a size-2 solution.
        let domain = automata::Alphabet::from_names(["x", "y", "z"]).unwrap();
        let theory = graphdb::Theory::new(
            domain,
            [("XY".to_string(), vec!["x".to_string(), "y".to_string()])],
        );
        let query = Rpq::parse_labels("(x+y)·z").unwrap();
        let useless = Rpq::parse_labels("z·z").unwrap();
        let problem =
            RpqRewriteProblem::new(query, [("u".to_string(), useless)], theory).unwrap();
        let partial = find_partial_rewriting(&problem).unwrap();
        assert!(partial.rewriting.is_exact());
        assert_eq!(partial.num_added(), 2);
        assert_eq!(partial.num_added_nonelementary(), 1);
        assert!(partial
            .added
            .contains(&AtomicView::Predicate("XY".to_string())));
    }

    #[test]
    fn preference_criteria_order_candidates() {
        // Build two partial rewritings of the same (already exact) problem:
        // one with no extension and one with a gratuitous elementary view.
        let problem = RpqRewriteProblem::parse_labels(
            "a·(b·a+c)*",
            [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
        )
        .unwrap();
        let minimal = find_partial_rewriting(&problem).unwrap();
        let padded_problem =
            extend_problem(&problem, &[AtomicView::Elementary("a".to_string())]).unwrap();
        let padded = PartialRewriting {
            added: vec![AtomicView::Elementary("a".to_string())],
            rewriting: rewrite_rpq(&padded_problem).unwrap(),
            extended_problem: padded_problem,
        };
        // Both are exact, languages coincide (both expand to L(Q0)), so
        // criterion 2 favours the one that added fewer views.
        assert_eq!(compare_preference(&minimal, &padded), Ordering::Greater);
        assert_eq!(compare_preference(&padded, &minimal), Ordering::Less);
        assert_eq!(compare_preference(&minimal, &minimal), Ordering::Equal);
    }

    #[test]
    fn exact_rewritings_are_preferred_over_nonexact_ones() {
        // Criterion 1: a strictly larger expanded language wins.
        let problem =
            RpqRewriteProblem::parse_labels("a·(b+c)", [("q1", "a"), ("q2", "b")]).unwrap();
        let not_exact = PartialRewriting {
            added: Vec::new(),
            rewriting: rewrite_rpq(&problem).unwrap(),
            extended_problem: problem.clone(),
        };
        let exact = find_partial_rewriting(&problem).unwrap();
        assert_eq!(compare_preference(&exact, &not_exact), Ordering::Greater);
        assert_eq!(compare_preference(&not_exact, &exact), Ordering::Less);
    }

    #[test]
    fn combinations_enumerate_subsets() {
        let items = vec![1, 2, 3, 4];
        assert_eq!(combinations(&items, 0), vec![Vec::<i32>::new()]);
        assert_eq!(combinations(&items, 1).len(), 4);
        assert_eq!(combinations(&items, 2).len(), 6);
        assert_eq!(combinations(&items, 4).len(), 1);
        assert!(combinations(&items, 5).is_empty());
    }
}
