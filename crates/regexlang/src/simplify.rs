//! Algebraic simplification of regular expressions.
//!
//! The rewritings produced by state elimination (automaton → expression) are
//! syntactically noisy; these local rewrite rules — all of them sound
//! language-preserving identities of Kleene algebra — keep them readable.
//! Example 2.3 of the paper expects the rewriting automaton of Figure 1 to
//! read back as `e2*·e1·e3*`, which only falls out after simplification.
//!
//! The rules run on hash-consed expressions (the private `regexlang::arena`):
//! one pass is memoized per id (`once: Id → Id`), and so is the bounded
//! fixpoint of passes (`fixed: Id → Id`).  A shared sub-expression is therefore
//! simplified once however often it occurs, the fixpoint test is an id
//! compare, and union deduplication is a set of ids.  [`simplify`] interns
//! its argument, simplifies, and extracts the tree; state elimination keeps
//! its labels interned and calls the rules on ids directly.

use std::collections::HashSet;

use crate::arena::{Arena, Id, Node};
use crate::ast::Regex;

/// Applies language-preserving simplification rules bottom-up until a fixed
/// point is reached (bounded by a small iteration limit to guarantee
/// termination even on pathological inputs).
pub fn simplify(expr: &Regex) -> Regex {
    let mut arena = Arena::new();
    let id = arena.intern_regex(expr);
    let simplified = arena.simplify(id);
    arena.extract(simplified)
}

impl Arena {
    /// [`simplify`] on an interned expression.
    pub(crate) fn simplify(&mut self, id: Id) -> Id {
        if let Some(&done) = self.fixed.get(&id) {
            return done;
        }
        let mut current = id;
        for _ in 0..16 {
            let next = self.simplify_once(current);
            if next == current {
                break;
            }
            current = next;
        }
        self.fixed.insert(id, current);
        current
    }

    fn simplify_once(&mut self, id: Id) -> Id {
        if let Some(&done) = self.once.get(&id) {
            return done;
        }
        let out = match self.node(id).clone() {
            Node::Empty | Node::Epsilon | Node::Symbol(_) => id,
            Node::Concat(parts) => self.simplify_concat(&parts),
            Node::Union(parts) => self.simplify_union(&parts),
            Node::Star(inner) => {
                let inner = self.simplify_once(inner);
                self.simplify_star(inner)
            }
            Node::Plus(inner) => {
                let inner = self.simplify_once(inner);
                self.simplify_plus(inner)
            }
            Node::Optional(inner) => {
                let inner = self.simplify_once(inner);
                self.simplify_optional(inner)
            }
        };
        self.once.insert(id, out);
        out
    }

    fn simplify_concat(&mut self, parts: &[Id]) -> Id {
        let mut flat: Vec<Id> = Vec::new();
        for &part in parts {
            let p = self.simplify_once(part);
            match self.node(p) {
                Node::Empty => return Arena::EMPTY, // ∅ is absorbing for ·
                Node::Epsilon => {}                 // ε is the unit of ·
                Node::Concat(inner) => flat.extend_from_slice(inner),
                _ => flat.push(p),
            }
        }
        // x*·x* = x*   and   x*·x? = x*   (adjacent collapsible repetitions)
        let mut collapsed: Vec<Id> = Vec::new();
        for p in flat {
            if let Some(&Node::Star(prev)) = collapsed.last().map(|&last| self.node(last)) {
                if let Node::Star(cur) | Node::Optional(cur) = *self.node(p) {
                    if prev == cur {
                        continue;
                    }
                }
            }
            collapsed.push(p);
        }
        self.concat_all(&collapsed)
    }

    fn simplify_union(&mut self, parts: &[Id]) -> Id {
        let mut flat: Vec<Id> = Vec::new();
        for &part in parts {
            let p = self.simplify_once(part);
            match self.node(p) {
                Node::Empty => {} // ∅ is the unit of +
                Node::Union(inner) => flat.extend_from_slice(inner),
                _ => flat.push(p),
            }
        }
        // Deduplicate while preserving the first-occurrence order.
        let mut seen: HashSet<Id> = HashSet::with_capacity(flat.len());
        flat.retain(|&p| seen.insert(p));
        // ε + x  where x is nullable  =  x.
        if flat.len() > 1
            && flat
                .iter()
                .any(|&p| p != Arena::EPSILON && self.is_nullable(p))
        {
            flat.retain(|&p| p != Arena::EPSILON);
        }
        self.union_all(&flat)
    }

    fn simplify_star(&mut self, inner: Id) -> Id {
        match *self.node(inner) {
            Node::Empty | Node::Epsilon => Arena::EPSILON, // ∅* = ε* = ε
            Node::Star(_) => inner,                        // (x*)* = x*
            Node::Plus(x) | Node::Optional(x) => self.intern(Node::Star(x)), // (x^+)* = (x?)* = x*
            _ => self.intern(Node::Star(inner)),
        }
    }

    fn simplify_plus(&mut self, inner: Id) -> Id {
        match *self.node(inner) {
            Node::Empty => Arena::EMPTY,                     // ∅^+ = ∅
            Node::Epsilon => Arena::EPSILON,                 // ε^+ = ε
            Node::Star(_) | Node::Plus(_) => inner,          // (x*)^+ = x*, (x^+)^+ = x^+
            Node::Optional(x) => self.intern(Node::Star(x)), // (x?)^+ = x*
            _ => self.intern(Node::Plus(inner)),
        }
    }

    fn simplify_optional(&mut self, inner: Id) -> Id {
        match *self.node(inner) {
            Node::Empty | Node::Epsilon => Arena::EPSILON, // ∅? = ε? = ε
            Node::Star(_) | Node::Optional(_) => inner,    // (x*)? = x*, (x?)? = x?
            Node::Plus(x) => self.intern(Node::Star(x)),   // (x^+)? = x*
            _ if self.is_nullable(inner) => inner,         // x? = x when ε ∈ L(x)
            _ => self.intern(Node::Optional(inner)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::thompson::thompson_auto;
    use automata::nfa_equivalent;

    fn simp(src: &str) -> String {
        simplify(&parse(src).unwrap()).to_string()
    }

    #[test]
    fn units_and_absorbing_elements() {
        assert_eq!(simp("a·ε·b"), "a·b");
        assert_eq!(simp("a·∅·b"), "∅");
        assert_eq!(simp("∅+a+∅"), "a");
        assert_eq!(simp("ε·ε"), "ε");
    }

    #[test]
    fn star_laws() {
        assert_eq!(simp("∅*"), "ε");
        assert_eq!(simp("ε*"), "ε");
        assert_eq!(simp("(a*)*"), "a*");
        assert_eq!(simp("(a^+)*"), "a*");
        assert_eq!(simp("(a?)*"), "a*");
        assert_eq!(simp("a*·a*"), "a*");
        assert_eq!(simp("a*·a?"), "a*");
    }

    #[test]
    fn plus_and_optional_laws() {
        assert_eq!(simp("∅^+"), "∅");
        assert_eq!(simp("ε^+"), "ε");
        assert_eq!(simp("(a*)^+"), "a*");
        assert_eq!(simp("(a*)?"), "a*");
        assert_eq!(simp("(a^+)?"), "a*");
        assert_eq!(simp("(a·b*)?"), "(a·b*)?");
        assert_eq!(simp("(a?·b*)?"), "a?·b*");
    }

    #[test]
    fn union_dedup_and_epsilon_absorption() {
        assert_eq!(simp("a+a+b"), "a+b");
        assert_eq!(simp("ε+a*"), "a*");
        assert_eq!(simp("a*+ε"), "a*");
        assert_eq!(simp("ε+a"), "ε+a"); // a is not nullable: ε must stay
    }

    #[test]
    fn nested_simplification_reaches_fixpoint() {
        assert_eq!(simp("((a+∅)·ε)*·((a*)*)?"), "a*");
        assert_eq!(simp("(∅·x+y·ε)?"), "y?");
    }

    #[test]
    fn simplification_preserves_language() {
        for src in [
            "a·(b·a+c)*",
            "((a+∅)·ε)*·((b*)*)?",
            "(a?·b*)?+∅^+",
            "a*·a*·a?",
            "ε+a+a·b",
            "(a·b)*·(a·b)*",
            "(ε+a)·(ε+b)",
        ] {
            let original = parse(src).unwrap();
            let simplified = simplify(&original);
            let lhs = thompson_auto(&original);
            let rhs = thompson_auto(&simplified);
            // Guard: languages over symbols possibly missing from the
            // simplified expression — lift both to the original's alphabet.
            let alpha = original.inferred_alphabet();
            let lhs = lhs.with_alphabet(alpha.clone());
            let rhs_nfa = crate::thompson::thompson(&simplified, &alpha).unwrap();
            assert!(
                nfa_equivalent(&lhs, &rhs_nfa).holds(),
                "simplification changed the language of {src}: {} vs {}",
                original,
                simplified
            );
            let _ = rhs;
        }
    }

    #[test]
    fn simplified_size_never_grows() {
        for src in ["a·(b·a+c)*", "((a+∅)·ε)*", "a*·a*·a*", "(x?)*·(y^+)?"] {
            let original = parse(src).unwrap();
            let simplified = simplify(&original);
            assert!(simplified.size() <= original.size(), "{src}");
        }
    }
}
