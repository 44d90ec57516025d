//! Tile systems (§3.2 of the paper).
//!
//! The lower bounds of the paper are proved by reductions from bounded tiling
//! problems: a *tiling system* is a finite set of tile types `Δ` with
//! horizontal and vertical adjacency relations `H, V ⊆ Δ × Δ`, and the
//! `C_ES` variant asks whether a `2^n × k` region (for some `k`) can be tiled
//! so that the bottom-left tile is `t_S` and the top-right tile is `t_F`.

use std::collections::BTreeSet;

/// A tiling system `T = (Δ, H, V, t_S, t_F)` for the `C_ES` bounded tiling
/// problem of Theorem 3.3.
#[derive(Debug, Clone)]
pub struct TileSystem {
    /// The tile types Δ (their names double as alphabet symbols in the
    /// reduction).
    pub tiles: Vec<String>,
    /// Horizontal adjacency: `(left, right)` pairs allowed next to each other
    /// within a row.
    pub horizontal: BTreeSet<(String, String)>,
    /// Vertical adjacency: `(below, above)` pairs allowed on top of each
    /// other.
    pub vertical: BTreeSet<(String, String)>,
    /// The tile required at position `(0, 0)` (bottom-left).
    pub start: String,
    /// The tile required at position `(2^n − 1, k − 1)` (top-right).
    pub finish: String,
}

impl TileSystem {
    /// Builds a tile system, normalizing the relation representations.
    pub fn new(
        tiles: impl IntoIterator<Item = &'static str>,
        horizontal: impl IntoIterator<Item = (&'static str, &'static str)>,
        vertical: impl IntoIterator<Item = (&'static str, &'static str)>,
        start: &str,
        finish: &str,
    ) -> Self {
        let tiles: Vec<String> = tiles.into_iter().map(str::to_string).collect();
        assert!(!tiles.is_empty(), "a tile system needs at least one tile");
        let check = |t: &str| {
            assert!(
                tiles.iter().any(|x| x == t),
                "tile `{t}` is not declared in Δ"
            )
        };
        let horizontal: BTreeSet<(String, String)> = horizontal
            .into_iter()
            .map(|(a, b)| {
                check(a);
                check(b);
                (a.to_string(), b.to_string())
            })
            .collect();
        let vertical: BTreeSet<(String, String)> = vertical
            .into_iter()
            .map(|(a, b)| {
                check(a);
                check(b);
                (a.to_string(), b.to_string())
            })
            .collect();
        check(start);
        check(finish);
        Self {
            tiles,
            horizontal,
            vertical,
            start: start.to_string(),
            finish: finish.to_string(),
        }
    }

    /// Whether `(left, right)` respects the horizontal relation.
    pub(crate) fn h_ok(&self, left: &str, right: &str) -> bool {
        self.horizontal
            .contains(&(left.to_string(), right.to_string()))
    }

    /// Whether `(below, above)` respects the vertical relation.
    pub(crate) fn v_ok(&self, below: &str, above: &str) -> bool {
        self.vertical
            .contains(&(below.to_string(), above.to_string()))
    }

    /// A solvable chain system: rows must read `s, m, …, m, f` and rows may
    /// be stacked freely.  A `2^n × k` tiling exists for every width ≥ 2 and
    /// every `k ≥ 1`, so the reduction of Theorem 3.3 must produce a
    /// *nonempty* rewriting for it.
    pub fn solvable_chain() -> TileSystem {
        TileSystem::new(
            ["s", "m", "f"],
            [("s", "m"), ("m", "m"), ("m", "f"), ("s", "f")],
            [
                ("s", "s"),
                ("m", "m"),
                ("f", "f"),
                ("s", "m"),
                ("m", "s"),
                ("m", "f"),
                ("f", "m"),
            ],
            "s",
            "f",
        )
    }

    /// An unsolvable system: the start tile admits no right neighbour and no
    /// tile above it, so no region of width ≥ 2 can be tiled.  The reduction
    /// must produce an *empty* rewriting (on the intended row-width lattice).
    pub fn unsolvable() -> TileSystem {
        TileSystem::new(
            ["s", "m", "f"],
            [("m", "m"), ("m", "f"), ("f", "m")],
            [("m", "m"), ("f", "f"), ("m", "f")],
            "s",
            "f",
        )
    }

    /// A system whose only valid rows alternate two tiles, forcing every
    /// second column to differ — used to exercise the vertical relation in
    /// tests (the left border column is uniform, so the reduction's
    /// two-rows-apart corner case is harmless, as in the paper's Turing
    /// machine encodings).
    pub fn striped() -> TileSystem {
        TileSystem::new(
            ["s", "w", "b", "f"],
            [("s", "b"), ("b", "w"), ("w", "b"), ("b", "f"), ("s", "f"), ("w", "f")],
            [
                ("s", "s"),
                ("w", "w"),
                ("b", "b"),
                ("f", "f"),
                ("s", "w"),
                ("w", "s"),
                ("b", "f"),
                ("f", "b"),
                ("s", "b"),
                ("b", "s"),
                ("w", "f"),
                ("f", "w"),
            ],
            "s",
            "f",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_are_queryable() {
        let t = TileSystem::solvable_chain();
        assert!(t.h_ok("s", "m"));
        assert!(t.h_ok("s", "f"));
        assert!(!t.h_ok("f", "s"));
        assert!(t.v_ok("s", "s"));
        assert!(!t.v_ok("s", "f"));
        assert_eq!(t.start, "s");
        assert_eq!(t.finish, "f");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_tiles_are_rejected() {
        TileSystem::new(["a"], [("a", "b")], [], "a", "a");
    }

    #[test]
    fn builtin_systems_have_expected_shape() {
        let u = TileSystem::unsolvable();
        assert!(!u.horizontal.iter().any(|(l, _)| l == "s"));
        let s = TileSystem::striped();
        assert!(s.h_ok("s", "b"));
        assert!(s.h_ok("b", "w"));
        assert!(!s.h_ok("w", "w"));
    }
}
