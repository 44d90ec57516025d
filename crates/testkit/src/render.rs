//! The tree renderer: state elimination and `simplify` on owned `Regex`
//! trees, kept as the oracle of `regexlang`'s hash-consed renderer.
//!
//! This is the renderer as it was before expressions were interned: every
//! GNFA edge label is an owned tree, every combined label a deep clone, and
//! `simplify` re-walks a whole tree per call.  The production
//! `regexlang::{nfa_to_regex, simplify}` apply the same rules in the same
//! order to hash-consed ids, so their `to_string()` must equal these
//! functions' byte for byte.

use std::collections::BTreeMap;

use automata::{DenseNfa, StateId, Symbol};
use regexlang::Regex;

/// The tree `nfa_to_regex`: GNFA state elimination over a trimmed
/// `DenseNfa`, its ε-closures folded into the successor lists, lowest
/// in × out degree first.
pub fn nfa_to_regex_baseline(nfa: &DenseNfa) -> Regex {
    let nfa = nfa.clone().trim();
    if nfa.num_states() == 0 {
        return Regex::Empty;
    }
    let n = nfa.num_states();
    // GNFA states: 0 = fresh initial, 1..=n = original states, n+1 = fresh final.
    let init = 0usize;
    let fin = n + 1;
    let mut edges: BTreeMap<(usize, usize), Regex> = BTreeMap::new();
    let add_edge =
        |edges: &mut BTreeMap<(usize, usize), Regex>, from: usize, to: usize, label: Regex| {
            edges
                .entry((from, to))
                .and_modify(|existing| *existing = existing.clone().or(label.clone()))
                .or_insert(label);
        };

    for &s in nfa.start() {
        add_edge(&mut edges, init, s as usize + 1, Regex::Epsilon);
    }
    for s in nfa.finals().iter() {
        add_edge(&mut edges, s as usize + 1, fin, Regex::Epsilon);
    }
    for s in 0..n as u32 {
        for a in 0..nfa.num_symbols() {
            let regex = Regex::symbol(nfa.alphabet().name(Symbol(a as u32)));
            for &t in nfa.closed_successors(s, a) {
                add_edge(&mut edges, s as usize + 1, t as usize + 1, regex.clone());
            }
        }
    }

    let mut remaining: Vec<usize> = (1..=n).collect();
    while let Some(pick_idx) = pick_state(&remaining, &edges) {
        let s = remaining.remove(pick_idx);
        let self_loop = edges.remove(&(s, s));
        let loop_star = match self_loop {
            Some(r) => simplify_baseline(&r.star()),
            None => Regex::Epsilon,
        };
        let incoming: Vec<(usize, Regex)> = edges
            .iter()
            .filter(|(&(_, to), _)| to == s)
            .map(|(&(from, _), r)| (from, r.clone()))
            .collect();
        let outgoing: Vec<(usize, Regex)> = edges
            .iter()
            .filter(|(&(from, _), _)| from == s)
            .map(|(&(_, to), r)| (to, r.clone()))
            .collect();
        edges.retain(|&(from, to), _| from != s && to != s);
        for (p, r_in) in &incoming {
            for (q, r_out) in &outgoing {
                let through =
                    simplify_baseline(&r_in.clone().then(loop_star.clone()).then(r_out.clone()));
                if through == Regex::Empty {
                    continue;
                }
                edges
                    .entry((*p, *q))
                    .and_modify(|existing| {
                        *existing = simplify_baseline(&existing.clone().or(through.clone()))
                    })
                    .or_insert(through);
            }
        }
    }

    match edges.get(&(init, fin)) {
        Some(r) => simplify_baseline(r),
        None => Regex::Empty,
    }
}

fn pick_state(remaining: &[StateId], edges: &BTreeMap<(usize, usize), Regex>) -> Option<usize> {
    if remaining.is_empty() {
        return None;
    }
    let mut best: Option<(usize, usize)> = None; // (index, cost)
    for (idx, &s) in remaining.iter().enumerate() {
        let fan_in = edges
            .keys()
            .filter(|&&(from, to)| to == s && from != s)
            .count();
        let fan_out = edges
            .keys()
            .filter(|&&(from, to)| from == s && to != s)
            .count();
        let cost = fan_in * fan_out;
        if best.map(|(_, c)| cost < c).unwrap_or(true) {
            best = Some((idx, cost));
        }
    }
    best.map(|(idx, _)| idx)
}

/// The tree `simplify`: the local Kleene-algebra rules applied bottom-up,
/// to a fixed point or 16 passes, whichever comes first.
pub fn simplify_baseline(expr: &Regex) -> Regex {
    let mut current = expr.clone();
    for _ in 0..16 {
        let next = simplify_once(&current);
        if next == current {
            return next;
        }
        current = next;
    }
    current
}

fn simplify_once(expr: &Regex) -> Regex {
    match expr {
        Regex::Empty | Regex::Epsilon | Regex::Symbol(_) => expr.clone(),
        Regex::Concat(parts) => simplify_concat(parts),
        Regex::Union(parts) => simplify_union(parts),
        Regex::Star(inner) => simplify_star(&simplify_once(inner)),
        Regex::Plus(inner) => simplify_plus(&simplify_once(inner)),
        Regex::Optional(inner) => simplify_optional(&simplify_once(inner)),
    }
}

fn simplify_concat(parts: &[Regex]) -> Regex {
    let mut flat: Vec<Regex> = Vec::new();
    for part in parts {
        let p = simplify_once(part);
        match p {
            Regex::Empty => return Regex::Empty,
            Regex::Epsilon => {}
            Regex::Concat(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    let mut collapsed: Vec<Regex> = Vec::new();
    for p in flat {
        if let (Some(Regex::Star(prev)), Regex::Star(cur)) = (collapsed.last(), &p) {
            if prev == cur {
                continue;
            }
        }
        if let (Some(Regex::Star(prev)), Regex::Optional(cur)) = (collapsed.last(), &p) {
            if prev == cur {
                continue;
            }
        }
        collapsed.push(p);
    }
    Regex::concat_all(collapsed)
}

fn simplify_union(parts: &[Regex]) -> Regex {
    let mut flat: Vec<Regex> = Vec::new();
    for part in parts {
        let p = simplify_once(part);
        match p {
            Regex::Empty => {}
            Regex::Union(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    let mut unique: Vec<Regex> = Vec::new();
    for p in flat {
        if !unique.contains(&p) {
            unique.push(p);
        }
    }
    if unique.len() > 1
        && unique
            .iter()
            .any(|p| *p != Regex::Epsilon && p.is_nullable())
    {
        unique.retain(|p| *p != Regex::Epsilon);
    }
    Regex::union_all(unique)
}

fn simplify_star(inner: &Regex) -> Regex {
    match inner {
        Regex::Empty | Regex::Epsilon => Regex::Epsilon,
        Regex::Star(x) => Regex::Star(x.clone()),
        Regex::Plus(x) => Regex::Star(x.clone()),
        Regex::Optional(x) => Regex::Star(x.clone()),
        other => Regex::Star(Box::new(other.clone())),
    }
}

fn simplify_plus(inner: &Regex) -> Regex {
    match inner {
        Regex::Empty => Regex::Empty,
        Regex::Epsilon => Regex::Epsilon,
        Regex::Star(x) => Regex::Star(x.clone()),
        Regex::Optional(x) => Regex::Star(x.clone()),
        Regex::Plus(x) => Regex::Plus(x.clone()),
        other => Regex::Plus(Box::new(other.clone())),
    }
}

fn simplify_optional(inner: &Regex) -> Regex {
    match inner {
        Regex::Empty | Regex::Epsilon => Regex::Epsilon,
        Regex::Star(x) => Regex::Star(x.clone()),
        Regex::Plus(x) => Regex::Star(x.clone()),
        Regex::Optional(x) => Regex::Optional(x.clone()),
        other if other.is_nullable() => other.clone(),
        other => Regex::Optional(Box::new(other.clone())),
    }
}
