//! # tiling — the lower-bound constructions of §3.2
//!
//! The complexity lower bounds of the reproduced paper (EXPSPACE-hardness of
//! nonemptiness of the maximal rewriting, Theorem 3.3; doubly exponential
//! rewriting sizes, Theorem 3.4; 2EXPSPACE-hardness of exact-rewriting
//! existence, Theorem 3.5) are proved by reductions from bounded tiling
//! problems.  This crate makes those reductions executable:
//!
//! * [`TileSystem`] and a brute-force [`solve`]r for the bounded `C_ES`
//!   tiling problem,
//! * [`EncodedTiling::encode`] — the Theorem 3.3 reduction producing a
//!   rewriting problem of size polynomial in `|T|` and `n` whose rewriting
//!   contains a width-`2^n` tiling word iff a tiling exists, and
//! * the Theorem 3.4 size lower bound: the counter-evolution yardstick
//!   [`counter_word`] (`w_C`) and the feasible first-exponential
//!   [`exponential_family`] measured by experiment E7.
//!
//! ```
//! use tiling::{EncodedTiling, TileSystem};
//!
//! let encoded = EncodedTiling::encode(&TileSystem::solvable_chain(), 1);
//! // `s·f` describes a valid 2×1 tiling, so it is in the maximal rewriting.
//! assert!(encoded.word_in_rewriting(&["s", "f"]));
//! assert!(!encoded.word_in_rewriting(&["m", "f"]));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod counter;
mod encoding;
mod solver;
mod tiles;

pub use counter::{counter_word, counter_word_length, exponential_family, CounterBlock};
pub use encoding::EncodedTiling;
pub use solver::{check_tiling, solve, Tiling};
pub use tiles::TileSystem;
