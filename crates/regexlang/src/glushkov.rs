//! Glushkov (position automaton) translation: regular expression → ε-free NFA.
//!
//! The position automaton has exactly `#positions + 1` states — a fresh
//! initial state plus one per symbol occurrence — and no ε-transitions
//! (Brüggemann-Klein, "Regular expressions into finite automata", TCS 1993).
//! [`glushkov_dense`] lays it out straight into a [`DenseNfa`]: `first`,
//! `last` and `follow` are index sets already, so there is no tree `Nfa` to
//! freeze and no ε-closure pass.  [`compile`] — the position automaton,
//! trimmed, with its bisimilar states merged — is the one way a regex
//! becomes an automaton outside this crate: every product sweep over a
//! graph runs on it, and so do the rewriter's views and certificates, the
//! tiling reduction's query and the rewriting pipeline's `use_glushkov`
//! ablation.  Thompson's construction is the tests' oracle and the
//! rewriting pipeline's default query front-end.

use automata::{merge_bisimilar, Alphabet, DenseNfa};

use crate::ast::Regex;
use crate::thompson::UnknownSymbol;

/// The position sets of one sub-expression.  Every position occurs in
/// exactly one leaf, so the sets of sibling sub-expressions are disjoint and
/// a union is a concatenation.
struct Sets {
    nullable: bool,
    first: Vec<u32>,
    last: Vec<u32>,
}

impl Sets {
    /// No positions: `∅` (not nullable) or `ε` (nullable).
    fn empty(nullable: bool) -> Sets {
        Sets { nullable, first: Vec::new(), last: Vec::new() }
    }
}

/// The position automaton under construction: state 0 is the fresh initial
/// state, state `p ≥ 1` is the `p`-th symbol occurrence in reading order.
struct Positions<'a> {
    alphabet: &'a Alphabet,
    /// Symbol index of each position (`symbol_of[0]` is unused).
    symbol_of: Vec<u32>,
    /// `(p, symbol_of[q], q)` for every `q ∈ follow(p)`.
    transitions: Vec<(u32, u32, u32)>,
}

impl Positions<'_> {
    /// Every `first` position of what comes next follows every `last`
    /// position of what came before.
    fn link(&mut self, last: &[u32], first: &[u32]) {
        for &p in last {
            self.transitions.extend(first.iter().map(|&q| (p, self.symbol_of[q as usize], q)));
        }
    }

    fn analyze(&mut self, expr: &Regex) -> Result<Sets, UnknownSymbol> {
        Ok(match expr {
            Regex::Empty => Sets::empty(false),
            Regex::Epsilon => Sets::empty(true),
            Regex::Symbol(name) => {
                let symbol = self.alphabet.symbol(name).ok_or_else(|| UnknownSymbol {
                    name: name.to_string(),
                    alphabet: self.alphabet.render(),
                })?;
                let p = self.symbol_of.len() as u32;
                self.symbol_of.push(symbol.index() as u32);
                Sets { nullable: false, first: vec![p], last: vec![p] }
            }
            Regex::Concat(parts) => {
                let mut acc = Sets::empty(true);
                for part in parts {
                    let next = self.analyze(part)?;
                    self.link(&acc.last, &next.first);
                    if acc.nullable {
                        acc.first.extend_from_slice(&next.first);
                    }
                    if next.nullable {
                        acc.last.extend(next.last);
                    } else {
                        acc.last = next.last;
                    }
                    acc.nullable &= next.nullable;
                }
                acc
            }
            Regex::Union(parts) => {
                let mut acc = Sets::empty(false);
                for part in parts {
                    let next = self.analyze(part)?;
                    acc.nullable |= next.nullable;
                    acc.first.extend(next.first);
                    acc.last.extend(next.last);
                }
                acc
            }
            Regex::Star(inner) | Regex::Plus(inner) => {
                let mut sets = self.analyze(inner)?;
                self.link(&sets.last, &sets.first);
                sets.nullable |= matches!(expr, Regex::Star(_));
                sets
            }
            Regex::Optional(inner) => Sets { nullable: true, ..self.analyze(inner)? },
        })
    }
}

/// Translates `expr` into its position automaton over `alphabet`, frozen:
/// state 0 is initial, state `p` is the `p`-th symbol occurrence, and every
/// transition into `p` reads `p`'s symbol.  An unknown symbol is reported as
/// Thompson's construction reports it (the first one in reading order).
pub fn glushkov_dense(expr: &Regex, alphabet: &Alphabet) -> Result<DenseNfa, UnknownSymbol> {
    let mut positions = Positions { alphabet, symbol_of: vec![0], transitions: Vec::new() };
    let Sets { nullable, first, mut last } = positions.analyze(expr)?;
    positions.link(&[0], &first);
    if nullable {
        last.push(0);
    }
    Ok(DenseNfa::from_parts(
        alphabet.clone(),
        positions.symbol_of.len(),
        [0],
        last,
        positions.transitions,
    ))
}

/// Compiles `expr` into the automaton a product sweep over a graph runs on:
/// the position automaton ([`glushkov_dense`]: ε-free, so an edge leads to
/// one successor state per matching position instead of a whole ε-closure),
/// [trimmed](DenseNfa::trim) of the states no accepting run visits — what
/// `∅` sub-expressions leave behind — and quotiented by forward bisimulation
/// ([`merge_bisimilar`]: the positions of a union under a star read the same
/// labels into the same states and become one state).
///
/// Every step is polynomial and needs no size threshold, which is why this
/// is not a DFA: determinization is exponential in the worst case, and on
/// the queries this repository benchmarks the merged position automaton
/// already has the minimal DFA's state count.
pub fn compile(expr: &Regex, alphabet: &Alphabet) -> Result<DenseNfa, UnknownSymbol> {
    Ok(merge_bisimilar(glushkov_dense(expr, alphabet)?.trim()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::thompson::thompson;
    use automata::nfa_equivalent;

    fn abc() -> Alphabet {
        Alphabet::from_chars(['a', 'b', 'c']).unwrap()
    }

    #[test]
    fn position_automaton_has_no_epsilons_and_linear_states() {
        let alpha = abc();
        let expr = parse("a·(b·a+c)*").unwrap();
        let nfa = glushkov_dense(&expr, &alpha).unwrap();
        // 4 symbol occurrences + 1 initial state.
        assert_eq!(nfa.num_states(), 5);
        assert!((0..5).all(|s| nfa.closure(s) == [s]));
    }

    #[test]
    fn accepts_same_words_as_thompson() {
        let alpha = abc();
        for src in [
            "a·(b·a+c)*",
            "a·c*·b",
            "(a+b)*·c",
            "ε",
            "∅",
            "a?·b^+",
            "(a·b)*+(b·c)*",
            "((a+ε)·c)*",
            "a·∅+b",
            "(a*·b?)^+·c",
        ] {
            let expr = parse(src).unwrap();
            let t = thompson(&expr, &alpha).unwrap();
            let g = glushkov_dense(&expr, &alpha).unwrap();
            assert!(
                nfa_equivalent(&g.to_nfa(), &t).holds(),
                "Glushkov and Thompson disagree on {src}"
            );
            let compiled = compile(&expr, &alpha).unwrap();
            assert!(
                nfa_equivalent(&compiled.to_nfa(), &t).holds(),
                "the compiled automaton and Thompson disagree on {src}"
            );
            assert!(compiled.num_states() <= g.num_states(), "{src}");
        }
    }

    #[test]
    fn compile_merges_the_positions_of_a_union() {
        let alpha = Alphabet::from_chars(['a', 'b', 'c', 'd']).unwrap();
        // (position automaton, compiled) state counts; the compiled sizes
        // are the minimal DFA's (without its sink).
        for (src, positions, merged) in [
            ("(a+b)*·c", 4, 2),
            ("a·(b·a+c)*·d?", 6, 3),
            ("a·(b+c)*·d", 5, 3),
            ("a·b*", 3, 2),
            ("a·∅+b", 3, 2),
            ("∅", 1, 0),
            ("ε", 1, 1),
        ] {
            let expr = parse(src).unwrap();
            assert_eq!(glushkov_dense(&expr, &alpha).unwrap().num_states(), positions, "{src}");
            assert_eq!(compile(&expr, &alpha).unwrap().num_states(), merged, "{src}");
        }
    }

    #[test]
    fn nullable_expressions_accept_epsilon() {
        let alpha = abc();
        let nfa = glushkov_dense(&parse("(a·b)*").unwrap(), &alpha).unwrap();
        assert!(nfa.accepts(&[]));
        let nfa = glushkov_dense(&parse("a·b?").unwrap(), &alpha).unwrap();
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn unknown_symbol_is_an_error() {
        let alpha = Alphabet::from_chars(['a']).unwrap();
        let err = glushkov_dense(&parse("a·q").unwrap(), &alpha).unwrap_err();
        assert_eq!(err.name, "q");
        // Reading order, as Thompson reports it.
        let expr = parse("z·a·q").unwrap();
        assert_eq!(compile(&expr, &alpha).unwrap_err(), thompson(&expr, &alpha).unwrap_err());
    }

    #[test]
    fn auto_alphabet_works() {
        let expr = parse("x·y*·z").unwrap();
        let nfa = glushkov_dense(&expr, &expr.inferred_alphabet())
            .unwrap()
            .to_nfa();
        assert!(nfa.accepts_names(&["x", "z"]));
        assert!(nfa.accepts_names(&["x", "y", "y", "z"]));
        assert!(!nfa.accepts_names(&["x", "y"]));
    }
}
