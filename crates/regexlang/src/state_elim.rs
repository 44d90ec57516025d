//! State elimination: automaton → regular expression.
//!
//! The rewriting algorithm of the paper produces the Σ_E-maximal rewriting as
//! an *automaton* (`R_{E,E0}` is the complement of `A'`).  To present it in
//! the paper's notation — e.g. `e2*·e1·e3*` for Figure 1 — the automaton is
//! converted back into a regular expression by generalized-NFA (GNFA) state
//! elimination, simplifying edge labels as they are combined.
//!
//! Elimination reads a frozen [`DenseNfa`] — trimmed by [`DenseNfa::trim`],
//! its ε-closures already folded into the successor lists, so the GNFA has
//! one edge per `(state, symbol, successor)` and no ε-edges between original
//! states.  [`dfa_to_regex`] is that on a frozen tree DFA.
//!
//! The GNFA's edge labels are hash-consed ids (the private
//! `regexlang::arena`), not trees: the labels that elimination combines
//! share most of their sub-expressions, so building `r_in·loop*·r_out` is
//! one interned node and simplifying it touches only the sub-expressions not
//! simplified before (the memo tables of [`mod@crate::simplify`]).  The
//! order — the `(from, to)` edge order and `pick_state`'s lowest in × out
//! degree, first index on a tie — and the rules are those of the tree
//! renderer, so the text is the same; the `Regex` tree is built only for the
//! final expression.

use std::collections::BTreeMap;

use automata::{DenseDfa, DenseNfa, Dfa, StateId, Symbol};

use crate::arena::{Arena, Id, Node};
use crate::ast::Regex;

/// Converts an NFA into an equivalent regular expression over the symbol
/// names of its alphabet.
///
/// The automaton's ε-closures are folded into its successor lists, so an
/// automaton frozen from an ε-NFA (Thompson's output, say) is eliminated
/// without ε-edges: the expression differs from one that eliminates the
/// ε-moves themselves, and the GNFA holds a symbol edge to every state of
/// each successor's closure rather than one edge per transition.  ε-free
/// input, such as [`dfa_to_regex`]'s, is eliminated edge for edge.
pub fn nfa_to_regex(nfa: &DenseNfa) -> Regex {
    // Work on the trimmed automaton: dead states only bloat the elimination.
    let nfa = nfa.clone().trim();
    if nfa.num_states() == 0 {
        return Regex::Empty;
    }
    let n = nfa.num_states();
    let mut arena = Arena::new();
    // GNFA states: 0 = fresh initial, 1..=n = original states, n+1 = fresh final.
    let init = 0usize;
    let fin = n + 1;
    let mut edges: BTreeMap<(usize, usize), Id> = BTreeMap::new();
    let symbols: Vec<Id> = (0..nfa.num_symbols())
        .map(|a| arena.symbol(nfa.alphabet().name(Symbol(a as u32))))
        .collect();
    // A second label on one edge makes `existing + label`, unsimplified.
    let mut add_edge = |key: (usize, usize), label: Id| {
        let label = match edges.get(&key) {
            Some(&existing) => arena.or(existing, label),
            None => label,
        };
        edges.insert(key, label);
    };
    for &s in nfa.start() {
        add_edge((init, s as usize + 1), Arena::EPSILON);
    }
    for s in nfa.finals().iter() {
        add_edge((s as usize + 1, fin), Arena::EPSILON);
    }
    for s in 0..n as u32 {
        for (a, &symbol) in symbols.iter().enumerate() {
            for &t in nfa.closed_successors(s, a) {
                add_edge((s as usize + 1, t as usize + 1), symbol);
            }
        }
    }

    // Eliminate original states one at a time, lowest fan-in×fan-out first
    // (a standard heuristic that keeps intermediate expressions small).
    let mut remaining: Vec<usize> = (1..=n).collect();
    while let Some(pick_idx) = pick_state(&remaining, &edges) {
        let s = remaining.remove(pick_idx);
        let loop_star = match edges.remove(&(s, s)) {
            Some(r) => {
                let star = arena.intern(Node::Star(r));
                arena.simplify(star)
            }
            None => Arena::EPSILON,
        };
        let incoming: Vec<(usize, Id)> = edges
            .iter()
            .filter(|(&(_, to), _)| to == s)
            .map(|(&(from, _), &r)| (from, r))
            .collect();
        let outgoing: Vec<(usize, Id)> = edges
            .iter()
            .filter(|(&(from, _), _)| from == s)
            .map(|(&(_, to), &r)| (to, r))
            .collect();
        edges.retain(|&(from, to), _| from != s && to != s);
        for &(p, r_in) in &incoming {
            for &(q, r_out) in &outgoing {
                let path = arena.then(r_in, loop_star);
                let path = arena.then(path, r_out);
                let through = arena.simplify(path);
                if through == Arena::EMPTY {
                    continue;
                }
                let label = match edges.get(&(p, q)) {
                    Some(&existing) => {
                        let union = arena.or(existing, through);
                        arena.simplify(union)
                    }
                    None => through,
                };
                edges.insert((p, q), label);
            }
        }
    }

    match edges.get(&(init, fin)) {
        Some(&r) => {
            let simplified = arena.simplify(r);
            arena.extract(simplified)
        }
        None => Regex::Empty,
    }
}

/// Converts a DFA into an equivalent regular expression: [`nfa_to_regex`]
/// on the frozen automaton.
pub fn dfa_to_regex(dfa: &Dfa) -> Regex {
    nfa_to_regex(&DenseNfa::from_dense_dfa(&DenseDfa::from_dfa(dfa)))
}

/// Picks the index (within `remaining`) of the next state to eliminate:
/// the one minimizing `in-degree × out-degree`, which empirically keeps the
/// resulting expression shortest.  The scans are O(n·E) per pick, which is
/// nothing next to building labels: rendered automata have a few dozen
/// states.
fn pick_state(remaining: &[StateId], edges: &BTreeMap<(usize, usize), Id>) -> Option<usize> {
    if remaining.is_empty() {
        return None;
    }
    let mut best: Option<(usize, usize)> = None; // (index, cost)
    for (idx, &s) in remaining.iter().enumerate() {
        let fan_in = edges.keys().filter(|&&(from, to)| to == s && from != s).count();
        let fan_out = edges.keys().filter(|&&(from, to)| from == s && to != s).count();
        let cost = fan_in * fan_out;
        if best.map(|(_, c)| cost < c).unwrap_or(true) {
            best = Some((idx, cost));
        }
    }
    best.map(|(idx, _)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::thompson::{thompson, thompson_auto};
    use automata::{determinize, nfa_equivalent, Alphabet, Nfa};

    /// Round-trips an expression through NFA → regex and checks language
    /// equality.
    fn roundtrip_preserves(src: &str) {
        let expr = parse(src).unwrap();
        let alpha = expr.inferred_alphabet();
        let nfa = thompson(&expr, &alpha).unwrap();
        let back = nfa_to_regex(&DenseNfa::from_nfa(&nfa));
        let back_nfa = thompson(&back, &alpha).unwrap();
        assert!(
            nfa_equivalent(&nfa, &back_nfa).holds(),
            "round-trip changed the language of {src}: got {back}"
        );
    }

    #[test]
    fn roundtrips_basic_expressions() {
        for src in [
            "a",
            "a·b",
            "a+b",
            "a*",
            "a·(b·a+c)*",
            "a·c*·b",
            "(a+b)*·c·(a+b)*",
            "a^+·b?",
        ] {
            roundtrip_preserves(src);
        }
    }

    #[test]
    fn empty_language_automaton_gives_empty_regex() {
        let alpha = Alphabet::from_chars(['a']).unwrap();
        assert_eq!(
            nfa_to_regex(&DenseNfa::from_nfa(&Nfa::empty(alpha.clone()))),
            Regex::Empty
        );
        assert_eq!(dfa_to_regex(&Dfa::empty(alpha)), Regex::Empty);
    }

    #[test]
    fn epsilon_automaton_gives_nullable_regex() {
        let alpha = Alphabet::from_chars(['a']).unwrap();
        let r = nfa_to_regex(&DenseNfa::from_nfa(&Nfa::epsilon(alpha)));
        assert!(r.is_nullable());
        assert!(thompson_auto(&r).accepts(&[]));
    }

    #[test]
    fn dfa_roundtrip_preserves_language() {
        let expr = parse("a·(b·a+c)*").unwrap();
        let alpha = expr.inferred_alphabet();
        let dfa = determinize(&thompson(&expr, &alpha).unwrap());
        let back = dfa_to_regex(&dfa);
        let back_nfa = thompson(&back, &alpha).unwrap();
        let orig_nfa = thompson(&expr, &alpha).unwrap();
        assert!(nfa_equivalent(&orig_nfa, &back_nfa).holds(), "got {back}");
    }

    #[test]
    fn figure1_rewriting_shape() {
        // The rewriting automaton of Figure 1 over the view alphabet
        // {e1, e2, e3}: state 0 --e2--> 0, 0 --e1--> 1, 1 --e3--> 1,
        // initial 0, final 1.  Expected expression: e2*·e1·e3*.
        let alpha = Alphabet::from_names(["e1", "e2", "e3"]).unwrap();
        let e1 = alpha.symbol("e1").unwrap();
        let e2 = alpha.symbol("e2").unwrap();
        let e3 = alpha.symbol("e3").unwrap();
        let dfa = Dfa::from_parts(
            alpha.clone(),
            2,
            0,
            [1],
            [(0, e2, 0), (0, e1, 1), (1, e3, 1)],
        );
        let regex = dfa_to_regex(&dfa);
        assert_eq!(regex.to_string(), "e2*·e1·e3*");
    }

    #[test]
    fn universal_automaton_roundtrips() {
        let alpha = Alphabet::from_chars(['a', 'b']).unwrap();
        let r = dfa_to_regex(&Dfa::universal(alpha.clone()));
        let nfa = thompson(&r, &alpha).unwrap();
        assert!(nfa_equivalent(&nfa, &Nfa::universal(alpha)).holds());
    }
}
