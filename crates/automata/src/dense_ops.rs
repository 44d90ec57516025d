//! Automaton algorithms on the flat tables: minimization, intersection and
//! bisimulation quotients.  Everything here consumes and produces
//! [`Dfa`]/[`DenseNfa`] directly, so the rewriting pipeline of `rewriter`
//! never walks a `BTreeMap`-based automaton on its hot path.
//!
//! * [`minimize_dense`] — Hopcroft's partition-refinement algorithm over a
//!   CSR reverse-transition table, `O(k·n·log n)` versus the seed's
//!   `O(k·n²)` Moore refinement.  Block numbering is canonicalized to
//!   first-occurrence-in-state-order, which makes the output *structurally
//!   identical* to the Moore oracle in the dev-only `testkit` crate, not
//!   just language-equal — the differential tests rely on this.
//! * [`intersect_dense`] — the product construction on flat next-state
//!   tables, discovering pairs breadth-first in symbol order exactly like
//!   the seed's tree product so state numbering coincides.
//! * [`merge_bisimilar`] — the forward-bisimulation quotient of an NFA.

use crate::dense::{Csr, DenseNfa, FxHashMap, DEAD};
use crate::dfa::Dfa;

/// Minimizes a DFA with Hopcroft's algorithm: the result is the unique
/// smallest complete DFA for the same language, restricted to reachable
/// states, with blocks numbered by first occurrence in state order (matching
/// Moore refinement structurally).
///
/// Minimizing the query automaton `A_d` before building the rewriting
/// automaton `A'` (`RewriterOptions::minimize_query_dfa`; experiment E5
/// times the construction with and without it) shrinks both the state space
/// of the rewriting and the number of per-view reachability tests.  Minimal
/// DFAs are also canonical (up to isomorphism), which the equivalence tests
/// rely on.
pub fn minimize_dense(dfa: &Dfa) -> Dfa {
    // Work on the reachable, complete automaton so the successor function is
    // total and unreachable states cannot pollute the partition.
    let dfa = dfa.trim_unreachable().complete();
    let n = dfa.num_states();
    let k = dfa.num_symbols();
    if n == 0 {
        return dfa;
    }

    // Reverse transition table in CSR layout, bucketed by (target, symbol).
    let table = &dfa;
    let reverse = Csr::bucket(
        n * k,
        (0..n as u32).flat_map(|s| (0..k).map(move |a| (table.next_raw(s, a) as usize * k + a, s))),
    );
    let preds = |t: usize, a: usize| reverse.get(t * k + a);

    // Refinable partition: `elems` holds the states grouped by block,
    // `pos[s]` is the index of `s` in `elems`, `blk[s]` its block, and
    // `start/len` delimit each block's segment of `elems`.
    let mut elems: Vec<u32> = Vec::with_capacity(n);
    let mut pos: Vec<u32> = vec![0; n];
    let mut blk: Vec<u32> = vec![0; n];
    let mut start: Vec<u32> = Vec::new();
    let mut len: Vec<u32> = Vec::new();

    let num_final = dfa.finals().iter().count();
    if num_final == 0 || num_final == n {
        // A single block: already stable (the quotient is one state), no
        // refinement needed.
        start.push(0);
        len.push(n as u32);
        elems.extend(0..n as u32);
        for (i, p) in pos.iter_mut().enumerate() {
            *p = i as u32;
        }
    } else {
        // Block 0 = whichever class contains state 0 (first occurrence),
        // block 1 = the other; final renumbering re-canonicalizes anyway.
        let zero_final = dfa.is_final(0);
        let mut grouped: Vec<u32> = (0..n as u32)
            .filter(|&s| dfa.is_final(s) == zero_final)
            .collect();
        let split_at = grouped.len() as u32;
        grouped.extend((0..n as u32).filter(|&s| dfa.is_final(s) != zero_final));
        for (i, &s) in grouped.iter().enumerate() {
            pos[s as usize] = i as u32;
            blk[s as usize] = u32::from(i as u32 >= split_at);
        }
        elems = grouped;
        start.extend([0, split_at]);
        len.extend([split_at, n as u32 - split_at]);
    }

    // Worklist of (block, symbol) splitters.  Pushing both initial blocks is
    // correct (Hopcroft's smaller-half rule is an optimization applied on
    // splits below); a single-block partition is already stable.
    let mut work: Vec<(u32, u32)> = Vec::new();
    let mut on_work = vec![false; n * k]; // indexed block * k + symbol
    if start.len() > 1 {
        for b in 0..start.len() as u32 {
            for a in 0..k as u32 {
                work.push((b, a));
                on_work[b as usize * k + a as usize] = true;
            }
        }
    }

    // Scratch for one refinement step.
    let mut moved: Vec<u32> = Vec::new(); // blocks touched this step
    let mut moved_count: Vec<u32> = vec![0; n]; // per block: states moved to front

    while let Some((b, a)) = work.pop() {
        on_work[b as usize * k + a as usize] = false;
        // Snapshot the splitter's members: splitting may reshuffle `elems`
        // inside block `b` itself.
        let members: Vec<u32> = {
            let lo = start[b as usize] as usize;
            let hi = lo + len[b as usize] as usize;
            elems[lo..hi].to_vec()
        };
        // X = δ⁻¹(B, a); move each x to the front of its block.
        moved.clear();
        for &m in &members {
            for &x in preds(m as usize, a as usize) {
                let y = blk[x as usize];
                if moved_count[y as usize] == 0 {
                    moved.push(y);
                }
                let dest = start[y as usize] + moved_count[y as usize];
                moved_count[y as usize] += 1;
                // Swap x into the front region of its block.
                let px = pos[x as usize];
                if px != dest {
                    let other = elems[dest as usize];
                    elems[dest as usize] = x;
                    elems[px as usize] = other;
                    pos[x as usize] = dest;
                    pos[other as usize] = px;
                }
            }
        }
        // Split every block whose front region is a proper subset.
        for &y in &moved {
            let m = moved_count[y as usize];
            moved_count[y as usize] = 0;
            if m == len[y as usize] {
                continue; // whole block hit: no split
            }
            // New block = the moved front region; `y` keeps the rest.
            let nb = start.len() as u32;
            start.push(start[y as usize]);
            len.push(m);
            start[y as usize] += m;
            len[y as usize] -= m;
            for i in start[nb as usize]..start[nb as usize] + m {
                blk[elems[i as usize] as usize] = nb;
            }
            for sym in 0..k as u32 {
                if on_work[y as usize * k + sym as usize] {
                    // (y, sym) already pending: its old extent is now covered
                    // by (rest of y, sym) + (nb, sym).
                    work.push((nb, sym));
                    on_work[nb as usize * k + sym as usize] = true;
                } else {
                    // Hopcroft's rule: the smaller half suffices.
                    let (small, small_len) = if m <= len[y as usize] {
                        (nb, m)
                    } else {
                        (y, len[y as usize])
                    };
                    debug_assert!(small_len > 0);
                    work.push((small, sym));
                    on_work[small as usize * k + sym as usize] = true;
                }
            }
        }
    }

    // Renumber blocks by first occurrence in state order — the numbering the
    // Moore oracle produces — and build the quotient table.
    let num_blocks = start.len();
    let mut renumber = vec![DEAD; num_blocks];
    let mut representative: Vec<u32> = Vec::with_capacity(num_blocks);
    for s in 0..n as u32 {
        let b = blk[s as usize] as usize;
        if renumber[b] == DEAD {
            renumber[b] = representative.len() as u32;
            representative.push(s);
        }
    }
    let mut table = Vec::with_capacity(num_blocks * k);
    let mut finals = Vec::new();
    for (nb, &rep) in representative.iter().enumerate() {
        for a in 0..k {
            let t = dfa.next_raw(rep, a);
            table.push(renumber[blk[t as usize] as usize]);
        }
        if dfa.is_final(rep) {
            finals.push(nb as u32);
        }
    }
    let quotient = Dfa::from_table(
        dfa.alphabet().clone(),
        num_blocks,
        renumber[blk[dfa.initial() as usize] as usize],
        finals,
        table,
    );
    // The input was trimmed, so every block contains a reachable state and
    // the quotient is already trim; the call keeps parity with the Moore
    // oracle (which trims its quotient) at negligible cost.
    quotient.trim_unreachable()
}

/// Intersection of two DFAs over the same alphabet: accepts
/// `L(a) ∩ L(b)`.  Only product states reachable from the initial pair are
/// materialized; the result may be partial.  Pairs are numbered in discovery
/// order (breadth-first, symbols ascending), as the seed's tree product
/// numbered them.
pub fn intersect_dense(a: &Dfa, b: &Dfa) -> Dfa {
    a.alphabet()
        .check_compatible(b.alphabet())
        .expect("intersection over incompatible alphabets");
    let k = a.num_symbols();
    let mut pairs = vec![(a.initial(), b.initial())];
    let mut index: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    index.insert(pairs[0], 0);
    // Rows are filled in id order, so the table grows by one row per pair.
    let mut table: Vec<u32> = Vec::new();
    let mut cur = 0;
    while cur < pairs.len() {
        let (sa, sb) = pairs[cur];
        for sym in 0..k {
            let (ta, tb) = (a.next_raw(sa, sym), b.next_raw(sb, sym));
            let next = if ta == DEAD || tb == DEAD {
                DEAD
            } else {
                *index.entry((ta, tb)).or_insert_with(|| {
                    pairs.push((ta, tb));
                    pairs.len() as u32 - 1
                })
            };
            table.push(next);
        }
        cur += 1;
    }
    let finals = pairs
        .iter()
        .enumerate()
        .filter(|&(_, &(sa, sb))| a.is_final(sa) && b.is_final(sb))
        .map(|(i, _)| i as u32);
    Dfa::from_table(a.alphabet().clone(), pairs.len(), 0, finals, table)
}

/// Quotients an NFA by forward bisimulation: two states are merged when they
/// agree on finality and, for every symbol, their successors fall into the
/// same set of *blocks* — so whatever one can read into acceptance the other
/// can, step for step.  The coarsest such partition is found by refining
/// `{final, non-final}` to a fixpoint (each round re-keys every state by its
/// block and its per-symbol successor blocks; at most `n` rounds of `O(m)`
/// work each, so polynomial — and on a regex-sized automaton a handful of
/// rounds).  The result accepts the same language, is ε-free, starts in the
/// blocks of the start states, and numbers blocks by their first state.
///
/// This is what makes a position automaton small where it matters: the
/// positions of `f` and `g` in `(f+g)*` read the same labels into the same
/// places and become one state, which a product sweep then visits once per
/// node instead of once per position.  Unlike determinization it cannot
/// blow up, so it needs no size threshold; on a trim DFA it *is*
/// minimization.  Returns the input untouched when no two states merge.
///
/// ε-closures never enter: [`DenseNfa`] successor lists and start
/// configuration are ε-closed already, and `(start, successors, finals)`
/// alone define the language.
pub fn merge_bisimilar(nfa: DenseNfa) -> DenseNfa {
    let n = nfa.num_states();
    let k = nfa.num_symbols();
    let mut block: Vec<u32> = (0..n as u32).map(|s| u32::from(nfa.is_final(s))).collect();
    let mut num_blocks = 0;
    let mut successors = Vec::new();
    loop {
        // Key: own block, then per symbol the sorted successor blocks, each
        // list closed by a separator no block id equals.
        let mut ids: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        let mut refined = Vec::with_capacity(n);
        for s in 0..n as u32 {
            let mut key = vec![block[s as usize]];
            for a in 0..k {
                successors.clear();
                successors.extend(nfa.closed_successors(s, a).iter().map(|&t| block[t as usize]));
                successors.sort_unstable();
                successors.dedup();
                key.extend_from_slice(&successors);
                key.push(DEAD);
            }
            let fresh = ids.len() as u32;
            refined.push(*ids.entry(key).or_insert(fresh));
        }
        block = refined;
        // A round only ever splits blocks, so an unchanged count is a
        // fixpoint.
        if ids.len() == num_blocks {
            break;
        }
        num_blocks = ids.len();
    }
    if num_blocks == n {
        return nfa;
    }
    let (nfa, of) = (&nfa, |s: u32| block[s as usize]);
    DenseNfa::from_parts(
        nfa.alphabet().clone(),
        num_blocks,
        nfa.start().iter().map(|&s| of(s)),
        nfa.finals().iter().map(of),
        (0..n as u32).flat_map(|s| {
            (0..k).flat_map(move |a| {
                nfa.closed_successors(s, a).iter().map(move |&t| (of(s), a as u32, of(t)))
            })
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{Alphabet, Symbol};
    use crate::determinize::determinize;
    use crate::nfa::Nfa;

    fn ab() -> Alphabet {
        Alphabet::from_chars(['a', 'b']).unwrap()
    }

    fn w(alpha: &Alphabet, s: &str) -> Vec<Symbol> {
        alpha.word_from_str(s).unwrap()
    }

    #[test]
    fn minimize_dense_hits_canonical_sizes() {
        let alpha = ab();
        let a = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        // (a+b)*a(a+b)(a+b): canonical minimal DFA has 8 states.
        let nfa = Nfa::universal(alpha.clone())
            .concat(&a)
            .concat(&Nfa::any_symbol(alpha.clone()))
            .concat(&Nfa::any_symbol(alpha.clone()));
        let min = minimize_dense(&determinize(&nfa));
        assert_eq!(min.num_states(), 8);
        assert!(min.is_complete());
    }

    #[test]
    fn dense_products_agree_with_membership() {
        let alpha = ab();
        let a_sym = Nfa::symbol(alpha.clone(), alpha.symbol("a").unwrap());
        let starts_a = determinize(&a_sym.concat(&Nfa::universal(alpha.clone())));
        let ends_a = determinize(&Nfa::universal(alpha.clone()).concat(&a_sym));
        let both = intersect_dense(&starts_a, &ends_a);
        let not_both = both.complement();
        for word in ["", "a", "b", "ab", "ba", "aba", "bab", "abba"] {
            let word = w(&alpha, word);
            let sa = starts_a.accepts(&word);
            let ea = ends_a.accepts(&word);
            assert_eq!(both.accepts(&word), sa && ea);
            assert_eq!(not_both.accepts(&word), !(sa && ea));
        }
    }
}
