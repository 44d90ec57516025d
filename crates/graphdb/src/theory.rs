//! Formulae and theories over the edge-label domain (§4.1 of the paper).
//!
//! In the second semi-structured data model the paper considers (after
//! \[BDFS97\]), queries are not written over the edge labels themselves but
//! over *formulae with one free variable* of a decidable, complete
//! first-order theory `T` over the finite domain `D`.  The theory contains
//! one unary predicate `λz.z=a` for every constant `a` (written simply `a`),
//! plus arbitrary further unary predicates.
//!
//! Because `D` is finite and `T` is complete, entailment `T ⊨ φ(a)` is simply
//! evaluation of `φ` at `a` under the predicate interpretations; this module
//! implements exactly that, which is all the rewriting algorithm of §4.2
//! needs (the paper treats the cost of each such check as constant).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use automata::Alphabet;

/// A unary formula `φ(z)` over the edge-label domain.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// `⊤` — true of every constant.
    True,
    /// `⊥` — true of no constant.
    False,
    /// `λz.z = a` — the *elementary* predicate of the constant `a`.
    Equals(String),
    /// A named unary predicate of the theory (e.g. `EuropeanCity`).
    Pred(String),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// The elementary predicate `λz.z = a`.
    pub fn equals(a: impl Into<String>) -> Formula {
        Formula::Equals(a.into())
    }

    /// A named predicate.
    pub fn pred(p: impl Into<String>) -> Formula {
        Formula::Pred(p.into())
    }

    /// Conjunction of two formulae.
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(vec![self, other])
    }

    /// Disjunction of two formulae.
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(vec![self, other])
    }

    /// A stable, readable name for the formula, usable as a symbol of the
    /// formula alphabet `F` (all algorithms in `rpq` address formulae by this
    /// name).
    pub fn name(&self) -> String {
        match self {
            Formula::True => "⊤".to_string(),
            Formula::False => "⊥".to_string(),
            Formula::Equals(a) => a.clone(),
            Formula::Pred(p) => p.clone(),
            Formula::Not(inner) => format!("¬{}", inner.name()),
            Formula::And(parts) => format!(
                "({})",
                parts.iter().map(Formula::name).collect::<Vec<_>>().join("∧")
            ),
            Formula::Or(parts) => format!(
                "({})",
                parts.iter().map(Formula::name).collect::<Vec<_>>().join("∨")
            ),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A decidable, complete theory over a finite label domain: every named
/// predicate is interpreted as the set of constants satisfying it.
#[derive(Debug, Clone)]
pub struct Theory {
    domain: Alphabet,
    predicates: BTreeMap<String, BTreeSet<String>>,
}

impl Theory {
    /// A theory with no named predicates (only elementary `z=a` predicates
    /// and boolean combinations are available).
    pub fn elementary(domain: Alphabet) -> Self {
        Self {
            domain,
            predicates: BTreeMap::new(),
        }
    }

    /// Creates a theory interpreting each named predicate by the listed
    /// constants.
    ///
    /// # Panics
    /// Panics if an interpretation mentions a constant outside the domain.
    pub fn new(
        domain: Alphabet,
        predicates: impl IntoIterator<Item = (String, Vec<String>)>,
    ) -> Self {
        let mut map = BTreeMap::new();
        for (name, constants) in predicates {
            for c in &constants {
                assert!(
                    domain.symbol(c).is_some(),
                    "predicate `{name}` mentions `{c}` which is not in the domain {}",
                    domain.render()
                );
            }
            map.insert(name, constants.into_iter().collect());
        }
        Self {
            domain,
            predicates: map,
        }
    }

    /// The label domain `D`.
    pub fn domain(&self) -> &Alphabet {
        &self.domain
    }

    /// Names of the declared predicates.
    pub fn predicate_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.predicates.keys().map(String::as_str)
    }

    /// Whether `T ⊨ φ(a)` for the constant named `constant`.
    pub(crate) fn entails(&self, formula: &Formula, constant: &str) -> bool {
        match formula {
            Formula::True => true,
            Formula::False => false,
            Formula::Equals(a) => a == constant,
            Formula::Pred(p) => self
                .predicates
                .get(p)
                .map(|set| set.contains(constant))
                .unwrap_or(false),
            Formula::Not(inner) => !self.entails(inner, constant),
            Formula::And(parts) => parts.iter().all(|f| self.entails(f, constant)),
            Formula::Or(parts) => parts.iter().any(|f| self.entails(f, constant)),
        }
    }

    /// The set of constants satisfying `φ` — the grounding used by the `Q*`
    /// construction of §4.2.
    pub fn satisfying_constants(&self, formula: &Formula) -> Vec<String> {
        self.domain
            .names()
            .filter(|c| self.entails(formula, c))
            .map(str::to_string)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn travel_domain() -> Alphabet {
        Alphabet::from_names(["rome", "jerusalem", "paris", "restaurant"]).unwrap()
    }

    fn travel_theory() -> Theory {
        Theory::new(
            travel_domain(),
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
    fn elementary_predicates_are_equality() {
        let t = Theory::elementary(travel_domain());
        assert!(t.entails(&Formula::equals("rome"), "rome"));
        assert!(!t.entails(&Formula::equals("rome"), "paris"));
        assert_eq!(t.satisfying_constants(&Formula::equals("rome")), vec!["rome"]);
    }

    #[test]
    fn named_predicates_follow_their_interpretation() {
        let t = travel_theory();
        assert!(t.entails(&Formula::pred("City"), "rome"));
        assert!(!t.entails(&Formula::pred("City"), "restaurant"));
        assert!(t.entails(&Formula::pred("EuropeanCity"), "paris"));
        assert!(!t.entails(&Formula::pred("EuropeanCity"), "jerusalem"));
        // Undeclared predicates hold of nothing.
        assert!(!t.entails(&Formula::pred("Unknown"), "rome"));
        assert_eq!(t.predicate_names().count(), 2);
    }

    #[test]
    fn boolean_connectives() {
        let t = travel_theory();
        let non_european_city =
            Formula::pred("City").and(Formula::Not(Box::new(Formula::pred("EuropeanCity"))));
        assert!(t.entails(&non_european_city, "jerusalem"));
        assert!(!t.entails(&non_european_city, "rome"));
        assert!(!t.entails(&non_european_city, "restaurant"));
        let rome_or_paris = Formula::equals("rome").or(Formula::equals("paris"));
        assert_eq!(t.satisfying_constants(&rome_or_paris), vec!["rome", "paris"]);
        assert!(t.entails(&Formula::True, "restaurant"));
        assert!(!t.entails(&Formula::False, "restaurant"));
    }

    #[test]
    fn implication_example_from_section_4_2() {
        // The paper's example: T ⊨ ∀x. A(x) → B(x), query B, view A.
        // With sets, A ⊆ B realizes the implication.
        let domain = Alphabet::from_names(["a1", "a2", "b_only"]).unwrap();
        let theory = Theory::new(
            domain,
            [
                ("A".to_string(), vec!["a1".to_string(), "a2".to_string()]),
                (
                    "B".to_string(),
                    vec!["a1".to_string(), "a2".to_string(), "b_only".to_string()],
                ),
            ],
        );
        for c in ["a1", "a2"] {
            assert!(theory.entails(&Formula::pred("A"), c));
            assert!(theory.entails(&Formula::pred("B"), c));
        }
        assert!(theory.entails(&Formula::pred("B"), "b_only"));
        assert!(!theory.entails(&Formula::pred("A"), "b_only"));
    }

    #[test]
    fn formula_names_are_stable() {
        assert_eq!(Formula::equals("rome").name(), "rome");
        assert_eq!(Formula::pred("City").name(), "City");
        assert_eq!(
            Formula::Not(Box::new(Formula::pred("City"))).name(),
            "¬City"
        );
        assert_eq!(
            Formula::pred("A").and(Formula::pred("B")).name(),
            "(A∧B)"
        );
        assert_eq!(Formula::pred("A").or(Formula::pred("B")).to_string(), "(A∨B)");
    }

    #[test]
    #[should_panic(expected = "not in the domain")]
    fn interpretations_must_use_domain_constants() {
        Theory::new(
            travel_domain(),
            [("P".to_string(), vec!["mars".to_string()])],
        );
    }
}
