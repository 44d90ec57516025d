//! View sets: the `E = {E1, …, Ek}` of the paper, together with the view
//! alphabet `Σ_E` and the association `re(e_i) = E_i`.
//!
//! A [`ViewSet`] owns, for every view, a *view symbol* (a name in `Σ_E`) and
//! the regular expression over the base alphabet `Σ` that the symbol stands
//! for.  It also owns both alphabets and the compiled view automata — each
//! view through [`regexlang::compile`], the one way a regex becomes an
//! automaton — which the rewriting construction and the expansion reuse
//! repeatedly.  Both read only a view's language, so the smallest automaton
//! for it is the best one; a view denoting `∅` compiles to zero states.

use std::collections::BTreeSet;
use std::fmt;

use automata::{Alphabet, DenseNfa};
use regexlang::Regex;

/// Errors raised while assembling a [`ViewSet`] or a rewriting problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// Two views were registered under the same view symbol.
    DuplicateViewSymbol(String),
    /// A view symbol collides with a symbol of the base alphabet Σ
    /// (the paper keeps Σ and Σ_E disjoint except in the lower-bound
    /// constructions, where the caller opts in explicitly).
    ViewSymbolShadowsBase(String),
    /// A view or query mentions a symbol that is not in the base alphabet.
    UnknownBaseSymbol(String),
    /// The view set is empty: no rewriting can be formed.
    NoViews,
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::DuplicateViewSymbol(s) => write!(f, "duplicate view symbol `{s}`"),
            RewriteError::ViewSymbolShadowsBase(s) => {
                write!(f, "view symbol `{s}` collides with a base-alphabet symbol")
            }
            RewriteError::UnknownBaseSymbol(s) => {
                write!(f, "symbol `{s}` does not occur in the base alphabet")
            }
            RewriteError::NoViews => write!(f, "the view set is empty"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// A single view: a symbol of `Σ_E` together with the regular expression over
/// `Σ` it denotes (`re(e)` in the paper).
#[derive(Debug, Clone)]
pub struct View {
    /// The view symbol name (an element of `Σ_E`).
    pub symbol: String,
    /// The definition `re(symbol)` over the base alphabet.
    pub definition: Regex,
}

impl View {
    /// Creates a view from a symbol name and its definition.
    pub fn new(symbol: impl Into<String>, definition: Regex) -> Self {
        Self {
            symbol: symbol.into(),
            definition,
        }
    }
}

/// The set `E` of views, with its alphabets and compiled automata.
#[derive(Debug, Clone)]
pub struct ViewSet {
    views: Vec<View>,
    /// The base alphabet Σ.
    sigma: Alphabet,
    /// The view alphabet Σ_E (one symbol per view, in registration order).
    sigma_e: Alphabet,
    /// Compiled automaton over Σ for each view, same order as `views`.
    automata: Vec<DenseNfa>,
}

impl ViewSet {
    /// Builds a view set over an explicitly given base alphabet Σ.
    ///
    /// Fails if a view symbol repeats, if a view definition mentions symbols
    /// outside Σ, or if no view is supplied.
    pub fn new(
        sigma: Alphabet,
        views: impl IntoIterator<Item = View>,
    ) -> Result<Self, RewriteError> {
        let views: Vec<View> = views.into_iter().collect();
        if views.is_empty() {
            return Err(RewriteError::NoViews);
        }
        let mut seen = BTreeSet::new();
        for view in &views {
            if !seen.insert(view.symbol.clone()) {
                return Err(RewriteError::DuplicateViewSymbol(view.symbol.clone()));
            }
            for sym in view.definition.symbols() {
                if sigma.symbol(&sym).is_none() {
                    return Err(RewriteError::UnknownBaseSymbol(sym));
                }
            }
        }
        let sigma_e = Alphabet::from_names(views.iter().map(|v| v.symbol.clone()))
            .expect("duplicates rejected above");
        let automata = views
            .iter()
            .map(|v| regexlang::compile(&v.definition, &sigma).expect("symbols checked above"))
            .collect();
        Ok(Self {
            views,
            sigma,
            sigma_e,
            automata,
        })
    }

    /// Builds a view set whose base alphabet is inferred as the union of all
    /// symbols occurring in the views and in `extra` (typically the query's
    /// symbols, so that Σ covers the whole rewriting problem).
    pub(crate) fn with_inferred_alphabet(
        views: impl IntoIterator<Item = View>,
        extra: impl IntoIterator<Item = String>,
    ) -> Result<Self, RewriteError> {
        let views: Vec<View> = views.into_iter().collect();
        let mut names: BTreeSet<String> = extra.into_iter().collect();
        for view in &views {
            names.extend(view.definition.symbols());
        }
        let sigma = Alphabet::from_names(names).expect("BTreeSet has no duplicates");
        Self::new(sigma, views)
    }

    /// Convenience constructor from `(symbol, definition source)` pairs in the
    /// paper's concrete syntax.
    pub fn parse(
        sigma: Alphabet,
        views: impl IntoIterator<Item = (&'static str, &'static str)>,
    ) -> Result<Self, RewriteError> {
        let views: Result<Vec<View>, RewriteError> = views
            .into_iter()
            .map(|(symbol, src)| {
                regexlang::parse(src)
                    .map(|def| View::new(symbol, def))
                    .map_err(|_| RewriteError::UnknownBaseSymbol(src.to_string()))
            })
            .collect();
        Self::new(sigma, views?)
    }

    /// The base alphabet Σ.
    pub fn sigma(&self) -> &Alphabet {
        &self.sigma
    }

    /// The view alphabet Σ_E.
    pub fn sigma_e(&self) -> &Alphabet {
        &self.sigma_e
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the view set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Iterates over the views in registration order.
    pub fn views(&self) -> impl Iterator<Item = &View> + '_ {
        self.views.iter()
    }

    /// The definition `re(e)` of a view symbol, if registered.
    pub fn definition(&self, symbol: &str) -> Option<&Regex> {
        self.views
            .iter()
            .find(|v| v.symbol == symbol)
            .map(|v| &v.definition)
    }

    /// The compiled automaton (over Σ) of the `i`-th view.
    pub fn automaton(&self, index: usize) -> &DenseNfa {
        &self.automata[index]
    }

    /// Total syntactic size of all view definitions (used in experiment
    /// reports).
    pub fn total_size(&self) -> usize {
        self.views.iter().map(|v| v.definition.size()).sum()
    }

    /// Renders the view set as `{e1 := a, e2 := a·c*·b, …}`.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .views
            .iter()
            .map(|v| format!("{} := {}", v.symbol, v.definition))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Expands a word over Σ_E into the regular expression over Σ obtained by
    /// substituting every view symbol by its definition (the syntactic form
    /// of `exp_Σ({w})`).
    pub fn expand_word(&self, word: &[automata::Symbol]) -> Regex {
        Regex::concat_all(word.iter().map(|&sym| {
            let name = self.sigma_e.name(sym);
            self.definition(name)
                .cloned()
                .expect("symbol comes from sigma_e")
        }))
    }

    /// Expands a regular expression over Σ_E into one over Σ by substituting
    /// every view symbol by its definition.
    pub fn expand_regex(&self, over_sigma_e: &Regex) -> Regex {
        over_sigma_e.substitute(&|name| {
            self.definition(name)
                .cloned()
                .unwrap_or_else(|| Regex::symbol(name))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regexlang::parse;

    fn abc() -> Alphabet {
        Alphabet::from_chars(['a', 'b', 'c']).unwrap()
    }

    /// The view set of Example 2.2: {a, a·c*·b, c}.
    fn example22_views() -> ViewSet {
        ViewSet::parse(abc(), [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]).unwrap()
    }

    #[test]
    fn builds_sigma_e_in_order() {
        let views = example22_views();
        assert_eq!(views.len(), 3);
        let names: Vec<&str> = views.sigma_e().names().collect();
        assert_eq!(names, vec!["e1", "e2", "e3"]);
        assert_eq!(views.definition("e2").unwrap().to_string(), "a·c*·b");
        assert!(views.definition("e9").is_none());
        assert_eq!(views.total_size(), 1 + 5 + 1);
    }

    #[test]
    fn rejects_duplicates_and_unknown_symbols() {
        let err = ViewSet::parse(abc(), [("e1", "a"), ("e1", "b")]).unwrap_err();
        assert!(matches!(err, RewriteError::DuplicateViewSymbol(_)));
        let err = ViewSet::new(
            Alphabet::from_chars(['a']).unwrap(),
            [View::new("e1", parse("a·z").unwrap())],
        )
        .unwrap_err();
        assert!(matches!(err, RewriteError::UnknownBaseSymbol(ref s) if s == "z"));
        let err = ViewSet::new(abc(), Vec::<View>::new()).unwrap_err();
        assert_eq!(err, RewriteError::NoViews);
    }

    #[test]
    fn inferred_alphabet_covers_views_and_extra() {
        let views = ViewSet::with_inferred_alphabet(
            [View::new("v", parse("rome·paris").unwrap())],
            ["london".to_string()],
        )
        .unwrap();
        assert_eq!(views.sigma().len(), 3);
        assert!(views.sigma().symbol("london").is_some());
    }

    #[test]
    fn compiled_automata_accept_view_languages() {
        let views = ViewSet::parse(
            abc(),
            [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c"), ("e4", "∅"), ("e5", "a·∅")],
        )
        .unwrap();
        let e2 = views.automaton(1).to_nfa();
        assert!(e2.accepts_names(&["a", "b"]));
        assert!(e2.accepts_names(&["a", "c", "c", "b"]));
        assert!(!e2.accepts_names(&["a", "c"]));
        assert!(views.automaton(0).to_nfa().accepts_names(&["a"]));
        // Each view's automaton is its compiled definition: `∅` and `a·∅`
        // trim to no states at all.
        let edges = |nfa: &DenseNfa| nfa.closed_transitions().collect::<Vec<_>>();
        for (index, view) in views.views().enumerate() {
            let compiled = regexlang::compile(&view.definition, views.sigma()).unwrap();
            let automaton = views.automaton(index);
            assert_eq!(automaton.num_states(), compiled.num_states(), "{}", view.symbol);
            assert_eq!(edges(automaton), edges(&compiled), "{}", view.symbol);
        }
        assert_eq!((views.automaton(3).num_states(), views.automaton(4).num_states()), (0, 0));
    }

    #[test]
    fn expansion_of_words_and_regexes() {
        let views = example22_views();
        let sigma_e = views.sigma_e().clone();
        let word = sigma_e.word(&["e2", "e1"]).unwrap();
        assert_eq!(views.expand_word(&word).to_string(), "a·c*·b·a");
        let r = parse("e2*·e1·e3*").unwrap();
        assert_eq!(views.expand_regex(&r).to_string(), "(a·c*·b)*·a·c*");
        // Unknown symbols pass through untouched (useful for partial
        // rewritings that mix base and view symbols).
        let partial = parse("e1·b").unwrap();
        assert_eq!(views.expand_regex(&partial).to_string(), "a·b");
    }

    #[test]
    fn render_is_human_readable() {
        let views = example22_views();
        assert_eq!(views.render(), "{e1 := a, e2 := a·c*·b, e3 := c}");
    }
}
