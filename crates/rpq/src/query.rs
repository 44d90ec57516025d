//! Regular path queries over formulae (§4.1–4.2 of the paper).
//!
//! In the formula-based data model a regular path query is a regular
//! expression over the (finite) set `F` of unary formulae of the theory `T`;
//! a path answers the query when its label word *matches* a word of the
//! query's language, i.e. when `T ⊨ φ_i(a_i)` position-wise
//! (Definition 4.1/4.2).
//!
//! An [`Rpq`] couples a regular expression whose symbols are *formula names*
//! with the formulae those names denote.  The special case where every
//! formula is elementary (`λz.z = a`) recovers the first data model, in which
//! queries are written directly over the edge labels.

use std::collections::BTreeMap;
use std::fmt;

use graphdb::{Formula, Theory};
use regexlang::Regex;

/// Errors raised while assembling RPQs and RPQ rewriting problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpqError {
    /// The regex mentions a formula name with no associated formula.
    UnboundFormula(String),
    /// Two views were registered under the same view symbol.
    DuplicateViewSymbol(String),
    /// The query string failed to parse.
    Parse(String),
    /// The view set is empty.
    NoViews,
}

impl fmt::Display for RpqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpqError::UnboundFormula(s) => write!(f, "formula name `{s}` has no definition"),
            RpqError::DuplicateViewSymbol(s) => write!(f, "duplicate view symbol `{s}`"),
            RpqError::Parse(s) => write!(f, "parse error: {s}"),
            RpqError::NoViews => write!(f, "the view set is empty"),
        }
    }
}

impl std::error::Error for RpqError {}

/// A regular path query: a regular expression over named formulae.
#[derive(Debug, Clone)]
pub struct Rpq {
    /// The path expression; its symbols are keys of `formulas`.
    pub regex: Regex,
    /// The formula denoted by each symbol occurring in `regex`.
    pub formulas: BTreeMap<String, Formula>,
}

impl Rpq {
    /// Builds an RPQ, checking that every symbol of the expression has a
    /// formula.
    pub fn new(
        regex: Regex,
        formulas: impl IntoIterator<Item = (String, Formula)>,
    ) -> Result<Self, RpqError> {
        let formulas: BTreeMap<String, Formula> = formulas.into_iter().collect();
        for sym in regex.symbols() {
            if !formulas.contains_key(&sym) {
                return Err(RpqError::UnboundFormula(sym));
            }
        }
        Ok(Self { regex, formulas })
    }

    /// Builds an RPQ in the label-based model: every symbol `a` of the
    /// expression denotes the elementary formula `λz.z = a`.
    pub fn from_labels(regex: Regex) -> Self {
        let formulas = regex
            .symbols()
            .into_iter()
            .map(|name| {
                let formula = Formula::equals(name.clone());
                (name, formula)
            })
            .collect();
        Self { regex, formulas }
    }

    /// Parses a label-based RPQ from the paper's concrete syntax.
    pub fn parse_labels(src: &str) -> Result<Self, RpqError> {
        let regex = regexlang::parse(src).map_err(|e| RpqError::Parse(e.to_string()))?;
        Ok(Self::from_labels(regex))
    }

    /// The formula denoted by a symbol, if any.
    pub fn formula(&self, name: &str) -> Option<&Formula> {
        self.formulas.get(name)
    }

    /// Grounds the query over the theory's domain: every formula symbol is
    /// replaced by the union of the constants satisfying it (`∅` when no
    /// constant does).  The result is exactly the `Q*` construction of §4.2
    /// expressed at the regular-expression level:
    /// `L(ground(Q)) = match(L(Q))`.
    pub fn ground(&self, theory: &Theory) -> Regex {
        let grounded = self.regex.substitute(&|name| {
            let formula = self
                .formulas
                .get(name)
                .unwrap_or_else(|| panic!("symbol `{name}` checked at construction"));
            Regex::union_all(
                theory
                    .satisfying_constants(formula)
                    .into_iter()
                    .map(Regex::symbol),
            )
        });
        regexlang::simplify(&grounded)
    }

    /// Syntactic size of the query expression.
    pub fn size(&self) -> usize {
        self.regex.size()
    }
}

impl fmt::Display for Rpq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.regex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Alphabet;
    use regexlang::parse;

    fn travel_theory() -> Theory {
        Theory::new(
            Alphabet::from_names(["rome", "jerusalem", "paris", "restaurant"]).unwrap(),
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
        )
    }

    #[test]
    fn label_based_queries_bind_elementary_formulas() {
        let q = Rpq::parse_labels("rome·restaurant*").unwrap();
        assert_eq!(q.formulas.len(), 2);
        assert_eq!(q.formula("rome"), Some(&Formula::equals("rome")));
        assert_eq!(q.to_string(), "rome·restaurant*");
        assert_eq!(q.size(), 4);
    }

    #[test]
    fn formula_queries_require_bindings() {
        let err = Rpq::new(parse("City·restaurant").unwrap(), [
            ("City".to_string(), Formula::pred("City")),
        ])
        .unwrap_err();
        assert_eq!(err, RpqError::UnboundFormula("restaurant".to_string()));
        let ok = Rpq::new(parse("City·restaurant").unwrap(), [
            ("City".to_string(), Formula::pred("City")),
            ("restaurant".to_string(), Formula::equals("restaurant")),
        ]);
        assert!(ok.is_ok());
    }

    #[test]
    fn grounding_expands_predicates_to_constants() {
        let theory = travel_theory();
        let q = Rpq::new(parse("City·restaurant").unwrap(), [
            ("City".to_string(), Formula::pred("City")),
            ("restaurant".to_string(), Formula::equals("restaurant")),
        ])
        .unwrap();
        let grounded = q.ground(&theory);
        assert_eq!(grounded.to_string(), "(rome+jerusalem+paris)·restaurant");
    }

    #[test]
    fn grounding_label_queries_is_identity_up_to_simplification() {
        let theory = Theory::elementary(travel_theory().domain().clone());
        let q = Rpq::parse_labels("rome·restaurant*").unwrap();
        assert_eq!(q.ground(&theory).to_string(), "rome·restaurant*");
    }

    #[test]
    fn unsatisfiable_formulas_ground_to_empty() {
        let theory = travel_theory();
        let q = Rpq::new(parse("Nowhere+rome").unwrap(), [
            ("Nowhere".to_string(), Formula::pred("Nowhere")),
            ("rome".to_string(), Formula::equals("rome")),
        ])
        .unwrap();
        // Nowhere is not interpreted, so it contributes ∅ and disappears from
        // the union.
        assert_eq!(q.ground(&theory).to_string(), "rome");
    }

    #[test]
    fn a_grounded_query_compiles_to_the_same_automaton_however_wide_its_unions() {
        // Grounding replaces a formula by the union of the labels satisfying
        // it, so `City` is 4, 8 or 16 positions wherever it occurs — and the
        // engine's compile funnel merges them back into the one state the
        // formula-level query has: the sweep pays for the query's shape, not
        // for the theory's size.
        let query = Rpq::new(parse("City·(City+restaurant)*·restaurant").unwrap(), [
            ("City".to_string(), Formula::pred("City")),
            ("restaurant".to_string(), Formula::equals("restaurant")),
        ])
        .unwrap();
        let label_level = parse("c·(c+restaurant)*·restaurant").unwrap();
        let narrow = Alphabet::from_names(["c", "restaurant"]).unwrap();
        let expected = engine::CompileCache::new().compile_regex(&narrow, &label_level).num_states();
        assert_eq!(expected, 3);
        let mut positions = Vec::new();
        for width in [4usize, 8, 16] {
            let cities: Vec<String> = (0..width).map(|i| format!("city{i}")).collect();
            let domain =
                Alphabet::from_names(cities.iter().cloned().chain(["restaurant".to_string()]))
                    .unwrap();
            let theory = Theory::new(domain.clone(), [("City".to_string(), cities)]);
            let grounded = query.ground(&theory);
            positions.push(regexlang::glushkov_dense(&grounded, &domain).unwrap().num_states());
            let compiled = engine::CompileCache::new().compile_regex(&domain, &grounded);
            assert_eq!(compiled.num_states(), expected, "union width {width}");
        }
        assert_eq!(positions, [11, 19, 35], "2·width + 3 positions before merging");
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = Rpq::parse_labels("a·(b").unwrap_err();
        assert!(matches!(err, RpqError::Parse(_)));
    }
}
