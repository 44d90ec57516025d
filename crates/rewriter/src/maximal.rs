//! The maximal-rewriting construction (Section 2 of the paper).
//!
//! Given a query `E0` over `Σ` and a view set `E`, the algorithm of
//! Theorem 2.2 computes the Σ_E-maximal rewriting `R_{E,E0}`:
//!
//! 1. build a deterministic automaton `A_d` with `L(A_d) = L(E0)`;
//! 2. build `A'` over `Σ_E`, with the same states as `A_d`, the same initial
//!    state, and the *non*-final states of `A_d` as final states; `A'` has an
//!    `e`-transition from `s_i` to `s_j` iff some word of `L(re(e))` drives
//!    `A_d` from `s_i` to `s_j`;
//! 3. the rewriting is the complement of `A'`.
//!
//! `A'` accepts exactly the `Σ_E`-words some expansion of which is rejected
//! by `A_d`; its complement therefore accepts the words whose *every*
//! expansion lies inside `L(E0)` — the Σ_E-maximal rewriting (and, by
//! Theorem 2.1, also a Σ-maximal one).
//!
//! ## Dense pipeline
//!
//! Every algorithmic step of [`compute_maximal_rewriting_with`] runs on the
//! flat core of the `automata` crate.  The views reach it through
//! [`regexlang::compile`] (once, in [`ViewSet::new`]); so does `E0` under
//! the `use_glushkov` option.  The default query front-end is still
//! Thompson's construction, frozen — the one tree `Nfa` left, because
//! `benchmark/` replays exactly that call.  `A_d` and the
//! rewriting are [`Dfa`]s, which are next-state tables, so the
//! [`MaximalRewriting`] fields are the construction's own results, and `A'`
//! is a [`DenseNfa`]:
//!
//! * **step 1** — subset construction via
//!   [`automata::determinize_to_dense`] straight into a flat next-state
//!   table, then Hopcroft minimization ([`automata::minimize_dense`]) on the
//!   same representation;
//! * **step 2** — one **batched dense reachability sweep** per view
//!   ([`automata::word_reachability_relation_dense`]): a bitset-backed
//!   product BFS computing all `(s_i, s_j)` pairs of `A_d` connected by a
//!   word of the view language, feeding `A'` as an ε-free
//!   [`automata::DenseNfa`] built directly from parts;
//! * **step 3** — complement-by-subset-construction: dense determinization
//!   of `A'` followed by a final-bit flip on the flat table; emptiness and
//!   the productive-state count come from bitset reachability sweeps.
//!
//! The seed's tree pipeline — Moore minimization, `BTreeSet` configuration
//! sweeps, adjacency-map subset construction — is the oracle in the dev-only
//! `testkit` crate.  The two produce **structurally identical** automata
//! (state numbering included), which the differential suite in
//! `tests/dense_pipeline.rs` pins on the paper's examples and hundreds of
//! random problems.  The dense pipeline's cost is
//! `benchmark/`'s `rewrite_offline` workload (typical problems and the
//! determinization blow-up family).

use automata::{determinize_to_dense, minimize_dense, DenseNfa, Dfa};
use regexlang::{dfa_to_regex, simplify, Regex};
use serde::Serialize;

use crate::views::{RewriteError, View, ViewSet};

/// A rewriting problem: the query `E0` and the views `E`.
#[derive(Debug, Clone)]
pub struct RewriteProblem {
    /// The query expression `E0` over the base alphabet Σ.
    pub query: Regex,
    /// The views `E = {E1, …, Ek}` with their symbols and alphabets.
    pub views: ViewSet,
}

impl RewriteProblem {
    /// Creates a problem, checking that the query only uses symbols of Σ.
    pub fn new(query: Regex, views: ViewSet) -> Result<Self, RewriteError> {
        for sym in query.symbols() {
            if views.sigma().symbol(&sym).is_none() {
                return Err(RewriteError::UnknownBaseSymbol(sym));
            }
        }
        Ok(Self { query, views })
    }

    /// Convenience constructor from concrete syntax: the base alphabet is
    /// inferred from the query and the views.
    ///
    /// ```
    /// use rewriter::RewriteProblem;
    ///
    /// let problem = RewriteProblem::parse(
    ///     "a·(b·a+c)*",
    ///     [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
    /// ).unwrap();
    /// assert_eq!(problem.views.len(), 3);
    /// ```
    pub fn parse(
        query: &str,
        views: impl IntoIterator<Item = (&'static str, &'static str)>,
    ) -> Result<Self, RewriteError> {
        let query = regexlang::parse(query)
            .map_err(|e| RewriteError::UnknownBaseSymbol(e.to_string()))?;
        let view_list: Result<Vec<View>, RewriteError> = views
            .into_iter()
            .map(|(symbol, src)| {
                regexlang::parse(src)
                    .map(|def| View::new(symbol, def))
                    .map_err(|e| RewriteError::UnknownBaseSymbol(e.to_string()))
            })
            .collect();
        let views = ViewSet::with_inferred_alphabet(view_list?, query.symbols())?;
        Self::new(query, views)
    }
}

/// Tunable knobs of the construction, exposed for ablation (experiment E5
/// times the construction with and without minimization).  The defaults
/// match the paper's algorithm plus the standard minimization preprocessing.
#[derive(Debug, Clone)]
pub struct RewriterOptions {
    /// Minimize `A_d` before building `A'` (ablation #3).  Keeps the language
    /// unchanged but shrinks the rewriting automaton.
    pub minimize_query_dfa: bool,
    /// Compile the query through the funnel, [`regexlang::compile`] (the
    /// trimmed, bisimulation-merged Glushkov automaton), instead of
    /// Thompson's construction (ablation #2).
    pub use_glushkov: bool,
}

impl Default for RewriterOptions {
    fn default() -> Self {
        Self {
            minimize_query_dfa: true,
            use_glushkov: false,
        }
    }
}

/// Size statistics of one run of the construction (serialized by the
/// experiment harness).
#[derive(Debug, Clone, Serialize)]
pub struct RewriteStats {
    /// States of the query NFA before determinization.
    pub query_nfa_states: usize,
    /// States of the deterministic query automaton `A_d`.
    pub query_dfa_states: usize,
    /// States of `A'` (equals the states of `A_d`).
    pub a_prime_states: usize,
    /// Transitions of `A'` over the view alphabet.
    pub a_prime_transitions: usize,
    /// States of the (complete) rewriting automaton `R_{E,E0}`.
    pub rewriting_states: usize,
    /// States of the rewriting automaton after trimming
    /// ([`DenseNfa::trim`]): those on some accepting run.  This is the size
    /// of the automaton evaluation over views sweeps; the difference to
    /// `rewriting_states` is at least the complement's sink.
    pub rewriting_trimmed_states: usize,
    /// Whether the maximal rewriting is the empty language.
    pub is_empty: bool,
}

/// The Σ_E-maximal rewriting together with every intermediate artifact of the
/// construction.
#[derive(Debug, Clone)]
pub struct MaximalRewriting {
    /// The deterministic query automaton `A_d` (complete).
    pub query_dfa: Dfa,
    /// The automaton `A'` over `Σ_E` (same state space as `A_d`; ε-free).
    pub a_prime: DenseNfa,
    /// The rewriting automaton `R_{E,E0}` = complement of `A'`, over `Σ_E`.
    pub automaton: Dfa,
    /// Size statistics of the run.
    pub stats: RewriteStats,
}

impl MaximalRewriting {
    /// The rewriting as a simplified regular expression over the view
    /// symbols, obtained by state elimination on the rewriting automaton
    /// ([`dfa_to_regex`]).
    ///
    /// State elimination can be expensive for very large rewriting automata
    /// (e.g. the lower-bound instances of §3.2), so the expression is
    /// computed on demand rather than eagerly.
    pub fn regex(&self) -> Regex {
        simplify(&dfa_to_regex(&self.automaton))
    }

    /// Whether the maximal rewriting is empty (no Σ_E-word has all its
    /// expansions inside `L(E0)`).
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty
    }

    /// Whether the rewriting accepts the given word of view-symbol names.
    pub fn accepts(&self, view_symbols: &[&str]) -> bool {
        self.automaton.accepts_names(view_symbols)
    }

    /// A shortest accepted Σ_E-word, as view-symbol names.
    pub fn shortest_word(&self) -> Option<Vec<String>> {
        self.automaton.shortest_word().map(|word| {
            word.iter()
                .map(|&s| self.automaton.alphabet().name(s).to_string())
                .collect()
        })
    }
}

/// Runs the construction of Theorem 2.2 with default options.
pub fn compute_maximal_rewriting(problem: &RewriteProblem) -> MaximalRewriting {
    compute_maximal_rewriting_with(problem, &RewriterOptions::default())
}

/// Runs the construction of Theorem 2.2 with explicit options.
///
/// Every algorithmic step runs on the flat core: subset construction via
/// [`determinize_to_dense`], Hopcroft minimization via [`minimize_dense`],
/// one batched reachability sweep per view via
/// [`automata::word_reachability_relation_dense`], and the final
/// complement-by-subset-construction on the next-state table.  The
/// `query_dfa` and `automaton` fields of [`MaximalRewriting`] are those
/// tables themselves.
pub fn compute_maximal_rewriting_with(
    problem: &RewriteProblem,
    options: &RewriterOptions,
) -> MaximalRewriting {
    let sigma = problem.views.sigma().clone();
    let sigma_e = problem.views.sigma_e().clone();

    // Step 1: deterministic automaton A_d for E0, built and (optionally)
    // minimized on the dense core.
    let query_nfa = if options.use_glushkov {
        regexlang::compile(&problem.query, &sigma)
    } else {
        // lint: allow(regex-funnel) — `benchmark/` replays this call (ROADMAP item 1(g))
        regexlang::thompson(&problem.query, &sigma).map(|nfa| DenseNfa::from_nfa(&nfa))
    }
    .expect("query symbols checked at problem construction");
    let query_nfa_states = query_nfa.num_states();
    let mut query_dfa = determinize_to_dense(&query_nfa).dfa;
    if options.minimize_query_dfa {
        query_dfa = minimize_dense(&query_dfa);
    }
    // Complementation-by-final-swap in step 2 needs a complete automaton:
    // a run of A_d must never die, otherwise a rejected expansion could be
    // missed by A'.  Both constructions above yield complete automata.
    debug_assert!(query_dfa.is_complete());

    // Step 2: A' over Σ_E with the same states as A_d — one batched dense
    // reachability sweep per view.
    let n = query_dfa.num_states();
    // Each view's relation is a set and the view symbols are distinct, so
    // the list has no duplicates: its length is the number of A' edges.
    let mut a_prime_transitions: Vec<(u32, u32, u32)> = Vec::new();
    for (index, view) in problem.views.views().enumerate() {
        let view_sym = sigma_e
            .symbol(&view.symbol)
            .expect("view symbols are exactly sigma_e");
        let view = problem.views.automaton(index);
        for (si, sj) in automata::word_reachability_relation_dense(&query_dfa, view) {
            a_prime_transitions.push((si, view_sym.index() as u32, sj));
        }
    }
    let a_prime_edges = a_prime_transitions.len();
    let a_prime = DenseNfa::from_parts(
        sigma_e.clone(),
        n,
        [query_dfa.initial()],
        (0..n as u32).filter(|&s| !query_dfa.is_final(s)),
        a_prime_transitions,
    );

    // Step 3: the rewriting is the complement of A'.  A' is in general
    // nondeterministic over Σ_E, so complement via subset construction —
    // both run on the flat tables.
    let automaton = determinize_to_dense(&a_prime).dfa.complement();
    // Counted by the trim every evaluator applies before sweeping, so the
    // stat is the size of the automaton a product-BFS actually runs.
    let trimmed_productive = DenseNfa::from_dfa(&automaton).trim().num_states();
    let is_empty = trimmed_productive == 0;

    let stats = RewriteStats {
        query_nfa_states,
        query_dfa_states: query_dfa.num_states(),
        a_prime_states: a_prime.num_states(),
        a_prime_transitions: a_prime_edges,
        rewriting_states: automaton.num_states(),
        rewriting_trimmed_states: trimmed_productive,
        is_empty,
    };

    MaximalRewriting {
        query_dfa,
        a_prime,
        automaton,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::{determinize, determinize_to_dense, dfa_subset_of_nfa, nfa_equivalent, Nfa};
    use regexlang::{parse, thompson};

    /// The running example of the paper (Example 2.2 / Figure 1).
    fn figure1_problem() -> RewriteProblem {
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]).unwrap()
    }

    #[test]
    fn figure1_maximal_rewriting_is_e2star_e1_e3star() {
        let rewriting = compute_maximal_rewriting(&figure1_problem());
        assert!(!rewriting.is_empty());
        // Language check: the rewriting over Σ_E equals e2*·e1·e3*.
        let expected = thompson(
            &parse("e2*·e1·e3*").unwrap(),
            rewriting.automaton.alphabet(),
        )
        .unwrap();
        assert!(
            nfa_equivalent(&Nfa::from_dfa(&rewriting.automaton), &expected).holds(),
            "rewriting language is {}",
            rewriting.regex()
        );
        // Membership spot checks.
        assert!(rewriting.accepts(&["e1"]));
        assert!(rewriting.accepts(&["e2", "e2", "e1", "e3"]));
        assert!(!rewriting.accepts(&["e3"]));
        assert!(!rewriting.accepts(&["e1", "e2"]));
        assert!(!rewriting.accepts(&[]));
        assert_eq!(rewriting.shortest_word(), Some(vec!["e1".to_string()]));
    }

    #[test]
    fn example21_sigma_e_maximal_uses_the_star() {
        // Example 2.1: E0 = a*, E = {a*}.  Both e and e* are Σ-maximal but
        // only e* is Σ_E-maximal; the construction must return e*.
        let problem = RewriteProblem::parse("a*", [("e", "a*")]).unwrap();
        let rewriting = compute_maximal_rewriting(&problem);
        assert!(rewriting.accepts(&[]));
        assert!(rewriting.accepts(&["e"]));
        assert!(rewriting.accepts(&["e", "e", "e"]));
        let expected = thompson(&parse("e*").unwrap(), rewriting.automaton.alphabet()).unwrap();
        assert!(nfa_equivalent(&Nfa::from_dfa(&rewriting.automaton), &expected).holds());
    }

    #[test]
    fn dropping_a_view_loses_exactness_but_stays_sound() {
        // Example 2.3: without view c, the maximal rewriting is e2*·e1.
        let problem =
            RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b")]).unwrap();
        let rewriting = compute_maximal_rewriting(&problem);
        let expected = thompson(&parse("e2*·e1").unwrap(), rewriting.automaton.alphabet()).unwrap();
        assert!(
            nfa_equivalent(&Nfa::from_dfa(&rewriting.automaton), &expected).holds(),
            "rewriting is {}",
            rewriting.regex()
        );
    }

    #[test]
    fn rewriting_expansion_is_contained_in_query() {
        // Soundness (Definition 2.1): exp_Σ(L(R)) ⊆ L(E0) on several
        // problems, including ones with no useful views.
        let problems = vec![
            figure1_problem(),
            RewriteProblem::parse("a·(b+c)", [("q1", "a"), ("q2", "b")]).unwrap(),
            RewriteProblem::parse("(a·b)*", [("v", "a·b·a·b")]).unwrap(),
            RewriteProblem::parse("a·b", [("v", "c")]).unwrap(),
        ];
        for problem in problems {
            let rewriting = compute_maximal_rewriting(&problem);
            let expansion = crate::expansion::expand_dfa(&rewriting.automaton, &problem.views);
            let query_dfa = determinize(
                &thompson(&problem.query, problem.views.sigma()).unwrap(),
            );
            // exp(L(R)) ⊆ L(E0)  ⟺  L(expansion) ⊆ L(query)
            assert!(
                dfa_subset_of_nfa(
                    &determinize_to_dense(&expansion).dfa,
                    &DenseNfa::from_dfa(&query_dfa)
                )
                .holds(),
                "unsound rewriting {} for query {}",
                rewriting.regex(),
                problem.query
            );
        }
    }

    #[test]
    fn useless_views_give_empty_rewriting() {
        let problem = RewriteProblem::parse("a·b", [("v", "c")]).unwrap();
        let rewriting = compute_maximal_rewriting(&problem);
        assert!(rewriting.is_empty());
        assert_eq!(rewriting.regex(), Regex::Empty);
        assert_eq!(rewriting.shortest_word(), None);
    }

    #[test]
    fn identity_views_reproduce_the_query() {
        // With one view per base symbol the rewriting is the query itself,
        // spelled with view symbols.
        let problem =
            RewriteProblem::parse("a·(b·a+c)*", [("va", "a"), ("vb", "b"), ("vc", "c")]).unwrap();
        let rewriting = compute_maximal_rewriting(&problem);
        let expected = thompson(
            &parse("va·(vb·va+vc)*").unwrap(),
            rewriting.automaton.alphabet(),
        )
        .unwrap();
        assert!(nfa_equivalent(&Nfa::from_dfa(&rewriting.automaton), &expected).holds());
    }

    #[test]
    fn all_option_combinations_agree_on_the_language() {
        let problem = figure1_problem();
        let reference = compute_maximal_rewriting(&problem);
        for minimize_query_dfa in [false, true] {
            for use_glushkov in [false, true] {
                let options = RewriterOptions {
                    minimize_query_dfa,
                    use_glushkov,
                };
                let other = compute_maximal_rewriting_with(&problem, &options);
                assert!(
                    nfa_equivalent(
                        &Nfa::from_dfa(&reference.automaton),
                        &Nfa::from_dfa(&other.automaton)
                    )
                    .holds(),
                    "options {options:?} changed the rewriting language"
                );
            }
        }
    }

    #[test]
    fn stats_are_plausible() {
        let rewriting = compute_maximal_rewriting(&figure1_problem());
        let stats = &rewriting.stats;
        assert!(stats.query_nfa_states >= 2);
        assert!(stats.query_dfa_states >= 2);
        assert_eq!(stats.a_prime_states, stats.query_dfa_states);
        assert!(stats.a_prime_transitions > 0);
        assert!(stats.rewriting_states >= stats.rewriting_trimmed_states);
        assert!(!stats.is_empty);
    }

    #[test]
    fn problem_construction_rejects_bad_queries() {
        let views = ViewSet::parse(
            automata::Alphabet::from_chars(['a']).unwrap(),
            [("e", "a")],
        )
        .unwrap();
        let err = RewriteProblem::new(parse("a·z").unwrap(), views).unwrap_err();
        assert!(matches!(err, RewriteError::UnknownBaseSymbol(ref s) if s == "z"));
    }
}
