//! The EXPSPACE reduction of Theorem 3.3: from a bounded tiling problem to
//! the existence of a nonempty rewriting.
//!
//! Given a tile system `T` and a number `n` (in unary), the reduction builds
//! a query `E0` and views `E` (all of size polynomial in `|T|` and `n`) such
//! that a `2^n × k` `C_ES`-tiling exists iff the maximal rewriting of `E0`
//! w.r.t. `E` contains a word describing such a tiling.
//!
//! The encoding follows the paper exactly:
//!
//! * `Σ = Δ ∪ {0, 1, $}` and `Σ_E = Δ`, with `re(t) = $·(0+1)^{3n+1}·t`;
//! * an expansion of a `Δ`-word is a sequence of *blocks* `$ b₀…b₃ₙ t`; the
//!   first `n` bits are the block's column `position`, the next `n` its
//!   `carry`, the next `n` its `next` value, and bit `3n` is the `highlight`;
//! * `E0 = E_bad + E_good`: `E_bad` catches every expansion whose
//!   position-counter bookkeeping or highlighting is malformed (conditions
//!   (1)–(7) of the paper), and `E_good` accepts the well-formed expansions
//!   exactly when the highlighted blocks respect the adjacency relations and
//!   the corner tiles are `t_S`/`t_F`.
//!
//! **Reproduction note.**  Read literally, `E_bad` also swallows every
//! expansion of a `Δ`-word whose length is not a positive multiple of `2^n`
//! (such words admit no well-formed expansion at all — e.g. a single block
//! violates condition (1) or (2) no matter how its bits are chosen), so those
//! degenerate words always enter the maximal rewriting.  The theorem's
//! biconditional therefore holds on the intended lattice of word lengths:
//! a `Δ`-word of length a positive multiple of `2^n` belongs to the maximal
//! rewriting iff it describes a `C_ES`-tiling.  Experiment E8 checks that
//! biconditional word by word ([`EncodedTiling::word_in_rewriting`]); the
//! (ignored, because huge) end-to-end tests restrict the emptiness test
//! accordingly, by intersecting the rewriting with a `2^n`-periodic length
//! filter.

use automata::{determinize_to_dense, dfa_subset_of_nfa, Alphabet};
use regexlang::Regex;
use rewriter::{RewriteProblem, View, ViewSet};

use crate::tiles::TileSystem;

/// The output of the reduction: a rewriting problem plus the parameters
/// needed to interpret its rewriting as tilings.
#[derive(Debug, Clone)]
pub struct EncodedTiling {
    /// The rewriting problem (`E0`, `E`) produced by the reduction.
    pub problem: RewriteProblem,
    /// The tile system the instance was built from.
    pub system: TileSystem,
    /// The parameter `n`; rows have width `2^n`.
    pub n: usize,
}

/// Regex for a fixed bit.
fn bit(b: bool) -> Regex {
    Regex::symbol(if b { "1" } else { "0" })
}

/// Regex for an arbitrary bit `(0+1)`.
fn any_bit() -> Regex {
    Regex::symbol("0").or(Regex::symbol("1"))
}

/// `(0+1)^k`
fn bits(k: usize) -> Regex {
    Regex::concat_all((0..k).map(|_| any_bit()))
}

/// `b^k` for a fixed bit.
fn fixed_bits(b: bool, k: usize) -> Regex {
    Regex::concat_all((0..k).map(|_| bit(b)))
}

/// The union of all tile symbols.
fn any_tile(system: &TileSystem) -> Regex {
    Regex::union_all(system.tiles.iter().map(Regex::symbol))
}

/// A block with the given bit pattern and tile expression:
/// `$ · <bit pattern of length 3n+1> · <tile>`.
fn block(bit_pattern: Regex, tile: Regex) -> Regex {
    Regex::symbol("$").then(bit_pattern).then(tile)
}

/// `B` — an arbitrary block.
fn any_block(system: &TileSystem, n: usize) -> Regex {
    block(bits(3 * n + 1), any_tile(system))
}

/// A block whose highlight bit is fixed; bits before the highlight arbitrary.
fn block_highlight(n: usize, highlight: bool, tile: Regex) -> Regex {
    block(bits(3 * n).then(bit(highlight)), tile)
}

impl EncodedTiling {
    /// Runs the reduction of Theorem 3.3 for the given tile system and `n`.
    pub fn encode(system: &TileSystem, n: usize) -> EncodedTiling {
        assert!(n >= 1, "the reduction needs n ≥ 1 (row width 2^n ≥ 2)");
        let e0 = build_e0(system, n);
        let sigma = sigma_alphabet(system);
        let views: Vec<View> = system
            .tiles
            .iter()
            .map(|t| {
                View::new(
                    t.clone(),
                    block(bits(3 * n + 1), Regex::symbol(t)),
                )
            })
            .collect();
        let view_set = ViewSet::new(sigma, views).expect("tile names are distinct");
        let problem = RewriteProblem::new(e0, view_set).expect("E0 uses only Σ symbols");
        EncodedTiling {
            problem,
            system: system.clone(),
            n,
        }
    }

    /// Row width `2^n`.
    pub fn row_width(&self) -> usize {
        1 << self.n
    }

    /// Combined syntactic size of `E0` and the views (the reduction's output
    /// size — polynomial in `|T|` and `n`, which experiment E8 reports).
    pub fn instance_size(&self) -> usize {
        self.problem.query.size() + self.problem.views.total_size()
    }

    /// Whether a specific `Δ`-word is in the maximal rewriting, i.e. whether
    /// every expansion of the word lands in `L(E0)`.  This is the word-level
    /// core of the reduction ("`w` describes a `T`-tiling iff
    /// `exp_Σ(w) ⊆ L(E0)`") and is cheaper to check than the full rewriting.
    pub fn word_in_rewriting(&self, tiles: &[&str]) -> bool {
        let views = &self.problem.views;
        let sigma_e = views.sigma_e();
        let word: Option<Vec<automata::Symbol>> =
            tiles.iter().map(|t| sigma_e.symbol(t)).collect();
        let Some(word) = word else { return false };
        let expansion = determinize_to_dense(&rewriter::expand_word(&word, views)).dfa;
        // The funnel keeps the query automaton ε-free and small, which
        // matters: E0 here has thousands of AST nodes.
        let query =
            regexlang::compile(&self.problem.query, views.sigma()).expect("E0 uses only Σ symbols");
        dfa_subset_of_nfa(&expansion, &query).holds()
    }

    /// Interprets a `Δ`-word as a row-major tiling of width `2^n`.
    pub fn word_to_tiling(&self, tiles: &[String]) -> Option<crate::solver::Tiling> {
        let width = self.row_width();
        if tiles.is_empty() || !tiles.len().is_multiple_of(width) {
            return None;
        }
        Some(tiles.chunks(width).map(|row| row.to_vec()).collect())
    }
}

/// The base alphabet `Σ = {0, 1, $} ∪ Δ`.
fn sigma_alphabet(system: &TileSystem) -> Alphabet {
    let mut names: Vec<String> = vec!["0".to_string(), "1".to_string(), "$".to_string()];
    names.extend(system.tiles.iter().cloned());
    Alphabet::from_names(names).expect("tile names are distinct from 0/1/$")
}

/// Builds `E0 = E_bad + E_good`.
fn build_e0(system: &TileSystem, n: usize) -> Regex {
    let mut parts = bad_conditions(system, n);
    parts.extend(good_conditions(system, n));
    regexlang::simplify(&Regex::union_all(parts))
}

/// The `E_bad` summands: conditions (1)–(7) of the paper.
fn bad_conditions(system: &TileSystem, n: usize) -> Vec<Regex> {
    let b = || any_block(system, n);
    let b_star = || b().star();
    let tile = || any_tile(system);
    let mut out = Vec::new();

    // (1) position(w0, i) = 1 for some i: the first block's position field
    // contains a 1.
    for i in 0..n {
        out.push(
            block(bits(i).then(bit(true)).then(bits(3 * n - i)), tile()).then(b_star()),
        );
    }
    // (2) position(wa, i) = 0 for some i: the last block's position field
    // contains a 0.
    for i in 0..n {
        out.push(
            b_star().then(block(bits(i).then(bit(false)).then(bits(3 * n - i)), tile())),
        );
    }
    // (3) carry(wj, 0) = 0 for some j.
    out.push(
        b_star()
            .then(block(bits(n).then(bit(false)).then(bits(2 * n)), tile()))
            .then(b_star()),
    );
    // (4) carry(wj, i) ≠ carry(wj, i−1) ∧ position(wj, i−1), for 1 ≤ i < n.
    for i in 1..n {
        for p in [false, true] {
            for c in [false, true] {
                let c_bad = !(c && p);
                let pattern = bits(i - 1)
                    .then(bit(p))
                    .then(bits(n - i))
                    .then(bits(i - 1))
                    .then(bit(c))
                    .then(bit(c_bad))
                    .then(bits(n - 1 - i))
                    .then(bits(n + 1));
                out.push(b_star().then(block(pattern, tile())).then(b_star()));
            }
        }
    }
    // (5) next(wj, i) ≠ position(wj, i) xor carry(wj, i).
    for i in 0..n {
        for p in [false, true] {
            for c in [false, true] {
                let x_bad = !(p ^ c);
                let pattern = bits(i)
                    .then(bit(p))
                    .then(bits(n - 1 - i))
                    .then(bits(i))
                    .then(bit(c))
                    .then(bits(n - 1 - i))
                    .then(bits(i))
                    .then(bit(x_bad))
                    .then(bits(n - 1 - i))
                    .then(bits(1));
                out.push(b_star().then(block(pattern, tile())).then(b_star()));
            }
        }
    }
    // (6) position(wj, i) ≠ next(w_{j−1}, i): consecutive blocks disagree.
    for i in 0..n {
        for bval in [false, true] {
            let first = block(
                bits(2 * n)
                    .then(bits(i))
                    .then(bit(bval))
                    .then(bits(n - 1 - i))
                    .then(bits(1)),
                tile(),
            );
            let second = block(
                bits(i)
                    .then(bit(!bval))
                    .then(bits(n - 1 - i))
                    .then(bits(2 * n))
                    .then(bits(1)),
                tile(),
            );
            out.push(b_star().then(first).then(second).then(b_star()));
        }
    }
    // (7) highlight conditions.
    let b0 = || block_highlight(n, false, tile());
    let h1 = || block_highlight(n, true, tile());
    // (7-i) no highlight bit is 1 (at least one block, all highlights 0).
    out.push(b0().then(b0().star()));
    // (7-ii) exactly one highlight, located at a block whose position is 1^n.
    out.push(
        b0().star()
            .then(block(
                fixed_bits(true, n).then(bits(2 * n)).then(bit(true)),
                tile(),
            ))
            .then(b0().star()),
    );
    // (7-iii) at least three highlights.
    out.push(
        b_star()
            .then(h1())
            .then(b_star())
            .then(h1())
            .then(b_star())
            .then(h1())
            .then(b_star()),
    );
    // (7-iv) two highlights with at least two position-0^n blocks strictly
    // between them.
    let zero_pos_block = || block(fixed_bits(false, n).then(bits(2 * n + 1)), tile());
    out.push(
        b_star()
            .then(h1())
            .then(b_star())
            .then(zero_pos_block())
            .then(b_star())
            .then(zero_pos_block())
            .then(b_star())
            .then(h1())
            .then(b_star()),
    );
    // (7-v) two highlights at blocks whose positions differ in some bit.
    for i in 0..n {
        for bval in [false, true] {
            let first = block(
                bits(i)
                    .then(bit(bval))
                    .then(bits(3 * n - 1 - i))
                    .then(bit(true)),
                tile(),
            );
            let second = block(
                bits(i)
                    .then(bit(!bval))
                    .then(bits(3 * n - 1 - i))
                    .then(bit(true)),
                tile(),
            );
            out.push(
                b_star()
                    .then(first)
                    .then(b_star())
                    .then(second)
                    .then(b_star()),
            );
        }
    }
    out
}

/// The `E_good` summands: well-formed expansions whose highlighted blocks
/// respect the adjacency relations and whose corner tiles are `t_S` / `t_F`.
fn good_conditions(system: &TileSystem, n: usize) -> Vec<Regex> {
    let tile = || any_tile(system);
    let b0 = || block_highlight(n, false, tile());
    let start_block = || block_highlight(n, false, Regex::symbol(&system.start));
    let finish_block = || block_highlight(n, false, Regex::symbol(&system.finish));
    let mut out = Vec::new();

    // Horizontal pairs: the highlighted block and the block immediately to
    // its right.  `first_is_start` / `second_is_finish` select the boundary
    // variants (the paper notes these cases separately).
    let h_pair = |t1: &str, t2: &str| {
        block_highlight(n, true, Regex::symbol(t1))
            .then(block_highlight(n, false, Regex::symbol(t2)))
    };
    for (t1, t2) in &system.horizontal {
        // Pair strictly inside the word.
        out.push(
            start_block()
                .then(b0().star())
                .then(h_pair(t1, t2))
                .then(b0().star())
                .then(finish_block()),
        );
        // Pair at the start (then t1 must be the start tile).
        if t1 == &system.start {
            out.push(h_pair(t1, t2).then(b0().star()).then(finish_block()));
        }
        // Pair at the end (then t2 must be the finish tile).
        if t2 == &system.finish {
            out.push(start_block().then(b0().star()).then(h_pair(t1, t2)));
        }
        // Pair is the whole word.
        if t1 == &system.start && t2 == &system.finish {
            out.push(h_pair(t1, t2));
        }
    }

    // Vertical pairs: two highlighted blocks exactly one row apart (the bad
    // conditions guarantee the spacing), with non-highlighted blocks between.
    let v_pair = |t1: &str, t2: &str| {
        block_highlight(n, true, Regex::symbol(t1))
            .then(b0().star())
            .then(block_highlight(n, true, Regex::symbol(t2)))
    };
    for (t1, t2) in &system.vertical {
        out.push(
            start_block()
                .then(b0().star())
                .then(v_pair(t1, t2))
                .then(b0().star())
                .then(finish_block()),
        );
        if t1 == &system.start {
            out.push(v_pair(t1, t2).then(b0().star()).then(finish_block()));
        }
        if t2 == &system.finish {
            out.push(start_block().then(b0().star()).then(v_pair(t1, t2)));
        }
        if t1 == &system.start && t2 == &system.finish {
            out.push(v_pair(t1, t2));
        }
    }
    out
}

#[cfg(test)]
impl EncodedTiling {
    /// A shortest word of the maximal rewriting whose length is a positive
    /// multiple of `2^n`, as tile names.  By Theorem 3.3 (see the
    /// reproduction note in the module docs) one exists iff a `C_ES`-tiling
    /// does.  The reduction's automata are large (that is the point of the
    /// lower bound), so the query is compiled through
    /// [`regexlang::compile`] and the optional minimization is skipped.
    pub(crate) fn shortest_tiling_word(&self) -> Option<Vec<String>> {
        use automata::{intersect_dense, Dfa};
        use rewriter::{compute_maximal_rewriting_with, RewriterOptions};
        let options = RewriterOptions {
            minimize_query_dfa: false,
            use_glushkov: true,
        };
        let rewriting = compute_maximal_rewriting_with(&self.problem, &options).automaton;
        let width = self.row_width();
        let alphabet = rewriting.alphabet().clone();
        // A cyclic length counter: state 0 is the empty prefix, state
        // `0 < i < width` means "length ≡ i (mod width)", and the accepting
        // state `width` means "a positive multiple of width".
        let next = |state: usize| match (state % width + 1) % width {
            0 => width as u32,
            residue => residue as u32,
        };
        let table = (0..=width)
            .flat_map(|state| std::iter::repeat_n(next(state), alphabet.len()))
            .collect();
        let filter = Dfa::from_table(alphabet, width + 1, 0, [width as u32], table);
        let filtered = intersect_dense(&rewriting, &filter);
        let word = filtered.shortest_word()?;
        Some(
            word.iter()
                .map(|&s| filtered.alphabet().name(s).to_string())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{check_tiling, solve};

    /// Encoded instance for the solvable chain system at n = 1 (row width 2).
    fn chain_encoded() -> EncodedTiling {
        EncodedTiling::encode(&TileSystem::solvable_chain(), 1)
    }

    #[test]
    fn instance_is_polynomial_in_n() {
        let e1 = EncodedTiling::encode(&TileSystem::solvable_chain(), 1);
        let e2 = EncodedTiling::encode(&TileSystem::solvable_chain(), 2);
        let e3 = EncodedTiling::encode(&TileSystem::solvable_chain(), 3);
        assert!(e1.instance_size() < e2.instance_size());
        assert!(e2.instance_size() < e3.instance_size());
        // Roughly quadratic growth in n — far below the 2^n row width.
        assert!(e3.instance_size() < 40 * e1.instance_size());
        assert_eq!(e1.row_width(), 2);
        assert_eq!(e3.row_width(), 8);
    }

    #[test]
    fn word_level_biconditional_on_chain_system() {
        // The core of Theorem 3.3 at the word level: a Δ-word of length a
        // positive multiple of 2^n is in the rewriting iff it describes a
        // tiling.
        let enc = chain_encoded();
        // Valid single-row tiling of width 2: s·f.
        assert!(enc.word_in_rewriting(&["s", "f"]));
        // Valid two-row tiling: (s,m) is not valid because row must end with
        // f?  No: only the TOP-RIGHT tile must be f.  Rows: [s,m] then [s,f]
        // stacked — check V: (s,s) ∈ V, (m,f) ∈ V ✓, H: (s,m) ✓, (s,f) ✓.
        assert!(enc.word_in_rewriting(&["s", "m", "s", "f"]));
        // Invalid: wrong corner tiles.
        assert!(!enc.word_in_rewriting(&["m", "f"]));
        assert!(!enc.word_in_rewriting(&["s", "m"]));
        // Invalid: broken horizontal adjacency (f cannot be followed by s in
        // a row … but [f,s] as a *row* breaks the corner condition anyway;
        // use [s,f,f,s]: row2 = [f,s] has H-pair (f,s) ∉ H).
        assert!(!enc.word_in_rewriting(&["s", "f", "f", "s"]));
        // Invalid: broken vertical adjacency: rows [s,f] then [m,f]:
        // V needs (s,m) ✓ and (f,f) ✓ — that is valid; instead break with
        // rows [s,m] then [f,f]: V needs (s,f) ∉ V.
        assert!(!enc.word_in_rewriting(&["s", "m", "f", "f"]));
    }

    #[test]
    fn degenerate_lengths_are_reported_by_word_membership() {
        // Reproduction note: words whose length is not a multiple of 2^n have
        // no well-formed expansion, so they slip into the rewriting; the
        // tiling interpretation therefore filters them out.
        let enc = chain_encoded();
        assert!(enc.word_in_rewriting(&["s"]));
        assert_eq!(enc.word_to_tiling(&["s".to_string()]), None);
        assert!(enc
            .word_to_tiling(&["s".to_string(), "f".to_string()])
            .is_some());
    }

    #[test]
    fn unsolvable_system_words_never_encode_tilings() {
        let enc = EncodedTiling::encode(&TileSystem::unsolvable(), 1);
        assert!(!enc.word_in_rewriting(&["s", "f"]));
        assert!(!enc.word_in_rewriting(&["s", "m", "m", "f"]));
        // And indeed the solver agrees there is no tiling.
        assert!(solve(&TileSystem::unsolvable(), 2, 4).is_none());
    }

    #[test]
    #[ignore = "runs the full rewriting construction on a §3.2 instance; the automata are intentionally huge (that is the lower bound).  Run with `cargo test -p tiling --release -- --ignored` when you have time."]
    fn rewriting_words_decode_to_valid_tilings() {
        let enc = chain_encoded();
        let system = TileSystem::solvable_chain();
        let word = enc.shortest_tiling_word().expect("chain system is solvable");
        let tiling = enc.word_to_tiling(&word).expect("length is a multiple of 2");
        assert!(check_tiling(&system, enc.row_width(), &tiling));
        // The solver independently confirms solvability.
        assert!(solve(&system, 2, 4).is_some());
    }

    #[test]
    #[ignore = "runs the full rewriting construction on a §3.2 instance; the automata are intentionally huge (that is the lower bound).  Run with `cargo test -p tiling --release -- --ignored` when you have time."]
    fn unsolvable_system_yields_no_tiling_word() {
        let enc = EncodedTiling::encode(&TileSystem::unsolvable(), 1);
        assert_eq!(enc.shortest_tiling_word(), None);
    }

    #[test]
    #[ignore = "runs the full rewriting construction on a §3.2 instance; the automata are intentionally huge (that is the lower bound).  Run with `cargo test -p tiling --release -- --ignored` when you have time."]
    fn striped_system_round_trips() {
        let system = TileSystem::striped();
        let enc = EncodedTiling::encode(&system, 1);
        let word = enc.shortest_tiling_word().unwrap();
        let tiling = enc.word_to_tiling(&word).unwrap();
        assert!(check_tiling(&system, 2, &tiling));
    }
}
