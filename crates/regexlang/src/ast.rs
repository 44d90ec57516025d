//! Abstract syntax of regular expressions.
//!
//! Symbols are *named*: the paper's queries range over multi-character edge
//! labels (`rome`, `restaurant`) and over view symbols (`e1`, `e2`, …), so an
//! AST leaf carries a symbol name rather than a character.  Expressions are
//! bound to an [`automata::Alphabet`] only when they are translated to
//! automata.
//!
//! The operator set follows the paper: union (`+`), concatenation (`·`),
//! Kleene star (`*`), plus the standard derived operators `+` (one-or-more,
//! written `^+` in concrete syntax to avoid clashing with union) and `?`.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use automata::Alphabet;

/// A regular expression over named symbols.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The language {ε}.
    Epsilon,
    /// A single named symbol.
    Symbol(Arc<str>),
    /// Concatenation of the sub-expressions, in order.
    Concat(Vec<Regex>),
    /// Union (the paper's `+`) of the sub-expressions.
    Union(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// One-or-more repetitions.
    Plus(Box<Regex>),
    /// Zero-or-one occurrence.
    Optional(Box<Regex>),
}

impl Regex {
    /// A single symbol expression.
    pub fn symbol(name: impl AsRef<str>) -> Regex {
        Regex::Symbol(Arc::from(name.as_ref()))
    }

    /// The empty-language expression ∅.
    pub fn empty() -> Regex {
        Regex::Empty
    }

    /// The empty-word expression ε.
    pub fn epsilon() -> Regex {
        Regex::Epsilon
    }

    /// Concatenation `self · other` (flattening nested concatenations).
    pub fn then(self, other: Regex) -> Regex {
        match (self, other) {
            (Regex::Concat(mut xs), Regex::Concat(ys)) => {
                xs.extend(ys);
                Regex::Concat(xs)
            }
            (Regex::Concat(mut xs), y) => {
                xs.push(y);
                Regex::Concat(xs)
            }
            (x, Regex::Concat(mut ys)) => {
                ys.insert(0, x);
                Regex::Concat(ys)
            }
            (x, y) => Regex::Concat(vec![x, y]),
        }
    }

    /// Union `self + other` (flattening nested unions).
    pub fn or(self, other: Regex) -> Regex {
        match (self, other) {
            (Regex::Union(mut xs), Regex::Union(ys)) => {
                xs.extend(ys);
                Regex::Union(xs)
            }
            (Regex::Union(mut xs), y) => {
                xs.push(y);
                Regex::Union(xs)
            }
            (x, Regex::Union(mut ys)) => {
                ys.insert(0, x);
                Regex::Union(ys)
            }
            (x, y) => Regex::Union(vec![x, y]),
        }
    }

    /// Kleene star `self*`.
    pub fn star(self) -> Regex {
        Regex::Star(Box::new(self))
    }

    /// One-or-more `self^+`.
    pub fn plus(self) -> Regex {
        Regex::Plus(Box::new(self))
    }

    /// Zero-or-one `self?`.
    pub fn optional(self) -> Regex {
        Regex::Optional(Box::new(self))
    }

    /// Concatenation of a sequence of expressions (ε when empty), flattening
    /// nested concatenations.
    pub fn concat_all(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut flat: Vec<Regex> = Vec::new();
        for p in parts {
            match p {
                Regex::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Regex::Epsilon,
            1 => flat.into_iter().next().unwrap(),
            _ => Regex::Concat(flat),
        }
    }

    /// Union of a sequence of expressions (∅ when empty), flattening nested
    /// unions.
    pub fn union_all(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut flat: Vec<Regex> = Vec::new();
        for p in parts {
            match p {
                Regex::Union(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Regex::Empty,
            1 => flat.into_iter().next().unwrap(),
            _ => Regex::Union(flat),
        }
    }

    /// The word `w[0]·w[1]·…` as an expression.
    pub fn word<S: AsRef<str>>(symbols: impl IntoIterator<Item = S>) -> Regex {
        Regex::concat_all(symbols.into_iter().map(Regex::symbol))
    }

    /// The set of symbol names occurring in the expression.
    pub fn symbols(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut BTreeSet<String>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Symbol(name) => {
                out.insert(name.to_string());
            }
            Regex::Concat(parts) | Regex::Union(parts) => {
                for p in parts {
                    p.collect_symbols(out);
                }
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Optional(inner) => {
                inner.collect_symbols(out)
            }
        }
    }

    /// The smallest alphabet containing all symbols of the expression.
    pub fn inferred_alphabet(&self) -> Alphabet {
        Alphabet::from_names(self.symbols()).expect("symbol set has no duplicates")
    }

    /// Number of AST nodes (a standard size measure for complexity sweeps).
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Symbol(_) => 1,
            Regex::Concat(parts) | Regex::Union(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Optional(inner) => 1 + inner.size(),
        }
    }

    /// Whether ε belongs to the language (the *nullable* predicate).
    pub fn is_nullable(&self) -> bool {
        match self {
            Regex::Empty => false,
            Regex::Epsilon => true,
            Regex::Symbol(_) => false,
            Regex::Concat(parts) => parts.iter().all(Regex::is_nullable),
            Regex::Union(parts) => parts.iter().any(Regex::is_nullable),
            Regex::Star(_) | Regex::Optional(_) => true,
            Regex::Plus(inner) => inner.is_nullable(),
        }
    }

    /// Whether the expression *syntactically* denotes the empty language.
    ///
    /// (`false` does not guarantee nonemptiness for arbitrary nestings of ∅;
    /// use the automaton-level emptiness check for a semantic answer.)
    pub fn is_syntactically_empty(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Epsilon | Regex::Symbol(_) => false,
            Regex::Concat(parts) => parts.iter().any(Regex::is_syntactically_empty),
            Regex::Union(parts) => parts.iter().all(Regex::is_syntactically_empty),
            Regex::Star(_) | Regex::Optional(_) => false,
            Regex::Plus(inner) => inner.is_syntactically_empty(),
        }
    }

    /// Renames every symbol through `f` (used to move expressions between the
    /// base alphabet Σ and the view alphabet Σ_E).
    pub fn map_symbols(&self, f: &impl Fn(&str) -> String) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Symbol(name) => Regex::symbol(f(name)),
            Regex::Concat(parts) => Regex::Concat(parts.iter().map(|p| p.map_symbols(f)).collect()),
            Regex::Union(parts) => Regex::Union(parts.iter().map(|p| p.map_symbols(f)).collect()),
            Regex::Star(inner) => Regex::Star(Box::new(inner.map_symbols(f))),
            Regex::Plus(inner) => Regex::Plus(Box::new(inner.map_symbols(f))),
            Regex::Optional(inner) => Regex::Optional(Box::new(inner.map_symbols(f))),
        }
    }

    /// Substitutes every symbol by a whole expression (regular-language
    /// homomorphism).  This implements the paper's expansion `exp_Σ` at the
    /// syntactic level: replacing each view symbol `e_i` by `re(e_i)`.
    pub fn substitute(&self, f: &impl Fn(&str) -> Regex) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Symbol(name) => f(name),
            Regex::Concat(parts) => {
                Regex::concat_all(parts.iter().map(|p| p.substitute(f)))
            }
            Regex::Union(parts) => Regex::union_all(parts.iter().map(|p| p.substitute(f))),
            Regex::Star(inner) => inner.substitute(f).star(),
            Regex::Plus(inner) => inner.substitute(f).plus(),
            Regex::Optional(inner) => inner.substitute(f).optional(),
        }
    }

    /// Operator precedence used by the printer (higher binds tighter).
    fn precedence(&self) -> u8 {
        match self {
            Regex::Union(_) => 0,
            Regex::Concat(_) => 1,
            Regex::Star(_) | Regex::Plus(_) | Regex::Optional(_) => 2,
            Regex::Empty | Regex::Epsilon | Regex::Symbol(_) => 3,
        }
    }

    fn fmt_with_parens(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        let my_prec = self.precedence();
        let needs_parens = my_prec < parent_prec;
        if needs_parens {
            write!(f, "(")?;
        }
        match self {
            Regex::Empty => write!(f, "∅")?,
            Regex::Epsilon => write!(f, "ε")?,
            Regex::Symbol(name) => write!(f, "{name}")?,
            Regex::Concat(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "·")?;
                    }
                    p.fmt_with_parens(f, 2)?;
                }
            }
            Regex::Union(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    p.fmt_with_parens(f, 1)?;
                }
            }
            Regex::Star(inner) => {
                inner.fmt_with_parens(f, 3)?;
                write!(f, "*")?;
            }
            Regex::Plus(inner) => {
                inner.fmt_with_parens(f, 3)?;
                write!(f, "^+")?;
            }
            Regex::Optional(inner) => {
                inner.fmt_with_parens(f, 3)?;
                write!(f, "?")?;
            }
        }
        if needs_parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Regex {
    /// Prints the expression in the paper's concrete syntax: `·` for
    /// concatenation, `+` for union, postfix `*`, `^+`, `?`, with parentheses
    /// only where precedence requires them.  The output round-trips through
    /// [`crate::parser::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with_parens(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Regex {
        Regex::symbol(s)
    }

    #[test]
    fn builders_flatten() {
        let e = sym("a").then(sym("b")).then(sym("c"));
        assert!(matches!(&e, Regex::Concat(parts) if parts.len() == 3));
        let u = sym("a").or(sym("b")).or(sym("c"));
        assert!(matches!(&u, Regex::Union(parts) if parts.len() == 3));
    }

    #[test]
    fn display_matches_paper_syntax() {
        // E0 of Example 2.2: a·(b·a+c)*
        let e0 = sym("a").then(sym("b").then(sym("a")).or(sym("c")).star());
        assert_eq!(e0.to_string(), "a·(b·a+c)*");
        // View 2 of Example 2.2: a·c*·b
        let e2 = sym("a").then(sym("c").star()).then(sym("b"));
        assert_eq!(e2.to_string(), "a·c*·b");
        // Union binds loosest.
        let u = sym("a").or(sym("b")).then(sym("c"));
        assert_eq!(u.to_string(), "(a+b)·c");
        assert_eq!(Regex::epsilon().to_string(), "ε");
        assert_eq!(Regex::empty().to_string(), "∅");
        assert_eq!(sym("a").plus().to_string(), "a^+");
        assert_eq!(sym("a").optional().to_string(), "a?");
        assert_eq!(sym("a").or(sym("b")).star().to_string(), "(a+b)*");
    }

    #[test]
    fn symbols_and_alphabet() {
        let e = sym("rome").or(sym("jerusalem")).then(sym("restaurant"));
        let syms = e.symbols();
        assert_eq!(
            syms.iter().cloned().collect::<Vec<_>>(),
            vec!["jerusalem", "restaurant", "rome"]
        );
        let alpha = e.inferred_alphabet();
        assert_eq!(alpha.len(), 3);
        assert!(alpha.symbol("rome").is_some());
    }

    #[test]
    fn size_counts_every_node() {
        let e = sym("a").then(sym("b").then(sym("a")).or(sym("c")).star());
        assert_eq!(e.size(), 8);
    }

    #[test]
    fn nullable_predicate() {
        assert!(Regex::epsilon().is_nullable());
        assert!(!Regex::empty().is_nullable());
        assert!(!sym("a").is_nullable());
        assert!(sym("a").star().is_nullable());
        assert!(sym("a").optional().is_nullable());
        assert!(!sym("a").plus().is_nullable());
        assert!(!sym("a").then(sym("b").star()).is_nullable());
        assert!(sym("a").star().then(sym("b").star()).is_nullable());
        assert!(sym("a").or(Regex::epsilon()).is_nullable());
    }

    #[test]
    fn syntactic_emptiness() {
        assert!(Regex::empty().is_syntactically_empty());
        assert!(Regex::empty().then(sym("a")).is_syntactically_empty());
        assert!(!Regex::empty().or(sym("a")).is_syntactically_empty());
        assert!(!Regex::empty().star().is_syntactically_empty());
        assert!(Regex::empty().plus().is_syntactically_empty());
    }

    #[test]
    fn map_and_substitute() {
        let e = sym("a").then(sym("b")).star();
        let renamed = e.map_symbols(&|s| format!("{s}{s}"));
        assert_eq!(renamed.to_string(), "(aa·bb)*");
        // Substitution implements expansion: replace b by c*·d.
        let expanded = e.substitute(&|s| {
            if s == "b" {
                sym("c").star().then(sym("d"))
            } else {
                Regex::symbol(s)
            }
        });
        assert_eq!(expanded.to_string(), "(a·c*·d)*");
    }

    #[test]
    fn word_and_any_of() {
        let w = Regex::word(["a", "b", "c"]);
        assert_eq!(w.to_string(), "a·b·c");
        assert_eq!(Regex::word(Vec::<&str>::new()), Regex::Epsilon);
        let alpha = Alphabet::from_chars(['x', 'y']).unwrap();
        assert_eq!(
            Regex::union_all(alpha.names().map(Regex::symbol)).to_string(),
            "x+y"
        );
    }

    #[test]
    fn union_all_and_concat_all_edge_cases() {
        assert_eq!(Regex::union_all(Vec::new()), Regex::Empty);
        assert_eq!(Regex::concat_all(Vec::new()), Regex::Epsilon);
        assert_eq!(Regex::union_all([sym("a")]), sym("a"));
        assert_eq!(Regex::concat_all([sym("a")]), sym("a"));
    }
}
