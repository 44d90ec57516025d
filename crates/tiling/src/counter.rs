//! The size lower bound of Theorem 3.4: poly-size inputs whose shortest
//! nonempty rewriting is exponentially (and, composed, doubly exponentially)
//! long.
//!
//! Theorem 3.4 encodes a `2^n`-bit counter with eight view symbols
//! `b_{pcx}`; the only word in the maximal rewriting is the counter-evolution
//! word `w_C` of length `2^n · 2^{2^n}`.  The construction reuses the block
//! machinery of Theorem 3.3 (the same `$·(0+1)^{3n+1}·e` views and the same
//! bad/highlight conditions), with the eight symbols playing the role of tile
//! types whose adjacency relations encode the counter semantics.
//!
//! Materializing the doubly exponential rewriting is only feasible for the
//! smallest parameters, so this module exposes the lower bound at two levels:
//!
//! * [`exponential_family`] instantiates the Theorem 3.3 encoder with a
//!   single-row tile system, giving a poly(`n`)-size instance whose shortest
//!   rewriting word has length exactly `2^n` — the first exponential level,
//!   measured end-to-end by experiment E7; and
//! * [`counter_word`]/[`counter_word_length`] compute the paper's yardstick
//!   `w_C` (the full `2^n`-bit counter evolution) so tests and the experiment
//!   harness can report the doubly exponential growth the full construction
//!   forces, without materializing automata of that size.

use crate::encoding::EncodedTiling;
use crate::tiles::TileSystem;

/// A tile system whose `C_ES`-tilings of width `2^n` are exactly the single
/// rows `s, m, …, m, f`: the shortest (indeed every) rewriting word of the
/// encoded instance has length exactly `2^n`.
pub(crate) fn single_row_system() -> TileSystem {
    TileSystem::new(
        ["s", "m", "f"],
        [("s", "m"), ("m", "m"), ("m", "f"), ("s", "f")],
        // No vertical pairs: only one-row tilings are possible.
        [],
        "s",
        "f",
    )
}

/// The Theorem 3.4-style family at the first exponential level: an instance
/// of size polynomial in `n` whose shortest nonempty (tiling-shaped) rewriting
/// word has length exactly `2^n`.
pub fn exponential_family(n: usize) -> EncodedTiling {
    EncodedTiling::encode(&single_row_system(), n)
}

/// Length of the paper's yardstick word `w_C`: the `2^n`-bit counter runs
/// through `2^{2^n}` configurations of `2^n` blocks each.
pub fn counter_word_length(n: u32) -> u128 {
    let bits: u32 = 1u32 << n;
    let configs: u128 = 1u128 << bits;
    (bits as u128) * configs
}

/// One block of the counter-evolution word: the position bit `p`, the carry
/// bit `c` into this position, and the next value `x = p ⊕ c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterBlock {
    /// Current value of this bit of the counter.
    pub position: bool,
    /// Carry into this bit when incrementing the configuration.
    pub carry: bool,
    /// Value of this bit in the next configuration.
    pub next: bool,
}

impl CounterBlock {
    /// The symbol name `b_pcx` the paper uses for this block.
    pub fn symbol(&self) -> String {
        format!(
            "b{}{}{}",
            u8::from(self.position),
            u8::from(self.carry),
            u8::from(self.next)
        )
    }
}

/// The counter-evolution word `w_C` for a `width`-bit counter: for every
/// configuration `j = 0 … 2^width − 1` and every bit position `i` (least
/// significant first), the block records the bit, the carry of the increment
/// `j → j+1`, and the resulting bit of `j+1`.
///
/// `width` is `2^n` in the paper's parameterization; it is exposed directly
/// so tests can validate the structure on small widths without materializing
/// the doubly exponential case.
pub fn counter_word(width: u32) -> Vec<CounterBlock> {
    assert!((1..=20).contains(&width), "width {width} out of supported range");
    let configs: u64 = 1u64 << width;
    let mut out = Vec::with_capacity((width as usize) * configs as usize);
    for j in 0..configs {
        let mut carry = true; // incrementing adds 1 at the least significant bit
        for i in 0..width {
            let p = (j >> i) & 1 == 1;
            let c = carry;
            let x = p ^ c;
            carry = p && c;
            out.push(CounterBlock {
                position: p,
                carry: c,
                next: x,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_word_has_the_papers_length() {
        // |w_C| = 2^n · 2^(2^n)
        assert_eq!(counter_word_length(1), 2 * 4);
        assert_eq!(counter_word_length(2), 4 * 16);
        assert_eq!(counter_word_length(3), 8 * 256);
        assert_eq!(counter_word(2).len() as u128, counter_word_length(1));
        assert_eq!(counter_word(4).len() as u128, counter_word_length(2));
    }

    #[test]
    fn counter_word_encodes_successive_increments() {
        let width = 4u32;
        let word = counter_word(width);
        let configs = 1u64 << width;
        for j in 0..configs {
            let blocks = &word[(j as usize * width as usize)..((j + 1) as usize * width as usize)];
            // The position bits spell out j (LSB first).
            let mut value = 0u64;
            for (i, b) in blocks.iter().enumerate() {
                if b.position {
                    value |= 1 << i;
                }
            }
            assert_eq!(value, j, "configuration {j} mis-encoded");
            // The next bits spell out j+1 (mod 2^width).
            let mut next_value = 0u64;
            for (i, b) in blocks.iter().enumerate() {
                if b.next {
                    next_value |= 1 << i;
                }
                // Per-block consistency: x = p ⊕ c.
                assert_eq!(b.next, b.position ^ b.carry);
            }
            assert_eq!(next_value, (j + 1) % configs);
            // Carry chain: c_0 = 1, c_i = p_{i-1} ∧ c_{i-1}.
            assert!(blocks[0].carry);
            for i in 1..width as usize {
                assert_eq!(blocks[i].carry, blocks[i - 1].position && blocks[i - 1].carry);
            }
        }
    }

    #[test]
    fn block_symbols_follow_the_papers_naming() {
        let b = CounterBlock {
            position: false,
            carry: true,
            next: true,
        };
        assert_eq!(b.symbol(), "b011");
        // Exactly 8 distinct symbols appear across a large enough word.
        let names: std::collections::BTreeSet<String> =
            counter_word(6).iter().map(CounterBlock::symbol).collect();
        assert!(names.len() <= 8);
        assert!(names.contains("b011"));
    }

    #[test]
    #[ignore = "runs the full rewriting construction on a §3.2 instance; the automata are intentionally huge (that is the lower bound).  Run with `cargo test -p tiling --release -- --ignored` when you have time."]
    fn exponential_family_has_poly_size_but_exponential_rewriting() {
        // Instance size grows polynomially …
        let sizes: Vec<usize> = (1..=3)
            .map(|n| exponential_family(n).instance_size())
            .collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
        assert!(sizes[2] < 40 * sizes[0]);
        // … while the shortest rewriting word, of length 2^n, doubles with
        // every step of n (checked end-to-end for n = 1 here; the bench
        // pushes further).
        let enc = exponential_family(1);
        let word = enc.shortest_tiling_word().expect("single-row tiling exists");
        assert_eq!(word.len(), 2);
    }

    #[test]
    fn single_row_system_admits_only_one_row() {
        let system = single_row_system();
        assert!(crate::solver::solve(&system, 4, 1).is_some());
        // Two rows are impossible (V is empty), so the solver bounded to more
        // rows still returns the single-row witness.
        let tiling = crate::solver::solve(&system, 4, 5).unwrap();
        assert_eq!(tiling.len(), 1);
    }
}
