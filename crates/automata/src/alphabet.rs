//! Interned alphabets and symbols.
//!
//! Every automaton in this workspace is defined over an [`Alphabet`]: an
//! ordered, interned set of symbol names.  Symbols are referenced by a compact
//! [`Symbol`] index so that transition tables stay small and comparisons are
//! cheap, while the human-readable names (e.g. `rome`, `restaurant`, or view
//! symbols such as `e1`) remain available for display and parsing.
//!
//! Alphabets are cheap to clone (`Arc` internally) and two automata are
//! considered compatible when their alphabets contain the same names in the
//! same order.  An alphabet is immutable once built, so its content
//! [`digest`](Alphabet::digest) is computed at most once and shared by
//! every clone: a key that hashes "the alphabet" writes 128 bits, not every
//! name.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::dense::FxHasher;

/// A symbol of an [`Alphabet`], represented by its index.
///
/// A `Symbol` is only meaningful relative to the alphabet that produced it;
/// mixing symbols across alphabets is a logic error that the automaton
/// operations guard against by checking alphabet compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Returns the index of the symbol within its alphabet.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[derive(Debug, Default)]
struct AlphabetInner {
    names: Vec<String>,
    index: HashMap<String, u32>,
    /// [`Alphabet::digest`], on its first call.
    digest: OnceLock<u128>,
}

/// An ordered, interned set of symbol names.
///
/// ```
/// use automata::Alphabet;
///
/// let ab = Alphabet::from_names(["a", "b", "c"]).unwrap();
/// assert_eq!(ab.len(), 3);
/// let a = ab.symbol("a").unwrap();
/// assert_eq!(ab.name(a), "a");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Alphabet {
    inner: Arc<AlphabetInner>,
}

/// Errors raised while building or combining alphabets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlphabetError {
    /// The same name was inserted twice.
    DuplicateName(String),
    /// A name was looked up that is not part of the alphabet.
    UnknownName(String),
    /// Two automata with incompatible alphabets were combined.
    Incompatible {
        /// Rendering of the left alphabet.
        left: String,
        /// Rendering of the right alphabet.
        right: String,
    },
}

impl fmt::Display for AlphabetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlphabetError::DuplicateName(n) => write!(f, "duplicate symbol name `{n}`"),
            AlphabetError::UnknownName(n) => write!(f, "unknown symbol name `{n}`"),
            AlphabetError::Incompatible { left, right } => {
                write!(f, "incompatible alphabets: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for AlphabetError {}

impl Alphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an alphabet from an ordered list of names.
    ///
    /// Fails with [`AlphabetError::DuplicateName`] if a name repeats.
    pub fn from_names<I, S>(names: I) -> Result<Self, AlphabetError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut inner = AlphabetInner::default();
        for name in names {
            let name = name.into();
            if inner.index.contains_key(&name) {
                return Err(AlphabetError::DuplicateName(name));
            }
            let id = inner.names.len() as u32;
            inner.index.insert(name.clone(), id);
            inner.names.push(name);
        }
        Ok(Self { inner: Arc::new(inner) })
    }

    /// Convenience constructor for single-character alphabets such as
    /// `a`, `b`, `c`.
    pub fn from_chars<I: IntoIterator<Item = char>>(chars: I) -> Result<Self, AlphabetError> {
        Self::from_names(chars.into_iter().map(|c| c.to_string()))
    }

    /// Number of symbols in the alphabet.
    pub fn len(&self) -> usize {
        self.inner.names.len()
    }

    /// Whether the alphabet has no symbols.
    pub fn is_empty(&self) -> bool {
        self.inner.names.is_empty()
    }

    /// Looks a symbol up by name.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.inner.index.get(name).map(|&i| Symbol(i))
    }

    /// Looks a symbol up by name, returning an error if absent.
    pub fn require(&self, name: &str) -> Result<Symbol, AlphabetError> {
        self.symbol(name)
            .ok_or_else(|| AlphabetError::UnknownName(name.to_string()))
    }

    /// Returns the name of a symbol.
    ///
    /// # Panics
    /// Panics if the symbol does not belong to this alphabet.
    pub fn name(&self, sym: Symbol) -> &str {
        &self.inner.names[sym.index()]
    }

    /// Iterates over all symbols in index order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.len() as u32).map(Symbol)
    }

    /// Iterates over `(symbol, name)` pairs in index order.
    pub fn entries(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        self.inner
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol(i as u32), n.as_str()))
    }

    /// All names in index order.
    pub fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.inner.names.iter().map(String::as_str)
    }

    /// A 128-bit digest of the names in order: equal for compatible
    /// alphabets, and different otherwise up to hash collisions (two
    /// independently seeded [`FxHasher`] streams over each name's length and
    /// bytes).  Hashed on the first call, then read from the alphabet.
    pub fn digest(&self) -> u128 {
        *self.inner.digest.get_or_init(|| {
            let (mut lo, mut hi) = (FxHasher::default(), FxHasher::default());
            hi.write_u64(0x9e37_79b9_7f4a_7c15);
            for hasher in [&mut lo, &mut hi] {
                hasher.write_u64(self.len() as u64);
                for name in self.names() {
                    hasher.write_u64(name.len() as u64);
                    hasher.write(name.as_bytes());
                }
            }
            ((hi.finish() as u128) << 64) | lo.finish() as u128
        })
    }

    /// Whether two alphabets are compatible: same names in the same order.
    pub fn is_compatible(&self, other: &Alphabet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.names == other.inner.names
    }

    /// Checks compatibility, returning a descriptive error if it fails.
    pub fn check_compatible(&self, other: &Alphabet) -> Result<(), AlphabetError> {
        if self.is_compatible(other) {
            Ok(())
        } else {
            Err(AlphabetError::Incompatible {
                left: self.render(),
                right: other.render(),
            })
        }
    }

    /// Builds a new alphabet that is the union of the two (self's order first,
    /// then symbols of `other` not already present).
    pub fn union(&self, other: &Alphabet) -> Alphabet {
        let mut names: Vec<String> = self.inner.names.clone();
        for n in &other.inner.names {
            if !self.inner.index.contains_key(n) {
                names.push(n.clone());
            }
        }
        Alphabet::from_names(names).expect("union preserves uniqueness")
    }

    /// Converts a sequence of names into a word of symbols.
    pub fn word(&self, names: &[&str]) -> Result<Vec<Symbol>, AlphabetError> {
        names.iter().map(|n| self.require(n)).collect()
    }

    /// Converts a string of single-character symbols into a word.
    pub fn word_from_str(&self, s: &str) -> Result<Vec<Symbol>, AlphabetError> {
        s.chars().map(|c| self.require(&c.to_string())).collect()
    }

    /// Renders the alphabet as `{a, b, c}` for error messages.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.inner.names.join(", "))
    }
}

impl PartialEq for Alphabet {
    fn eq(&self, other: &Self) -> bool {
        self.is_compatible(other)
    }
}

impl Eq for Alphabet {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_looks_up() {
        let ab = Alphabet::from_names(["a", "b", "rome"]).unwrap();
        assert_eq!(ab.len(), 3);
        assert!(!ab.is_empty());
        let rome = ab.symbol("rome").unwrap();
        assert_eq!(ab.name(rome), "rome");
        assert_eq!(rome.index(), 2);
        assert!(ab.symbol("paris").is_none());
    }

    #[test]
    fn rejects_duplicates() {
        let err = Alphabet::from_names(["a", "a"]).unwrap_err();
        assert_eq!(err, AlphabetError::DuplicateName("a".to_string()));
    }

    #[test]
    fn require_reports_unknown() {
        let ab = Alphabet::from_chars(['a']).unwrap();
        assert!(matches!(ab.require("z"), Err(AlphabetError::UnknownName(_))));
    }

    #[test]
    fn compatibility_by_content() {
        let a = Alphabet::from_chars(['a', 'b']).unwrap();
        let b = Alphabet::from_chars(['a', 'b']).unwrap();
        let c = Alphabet::from_chars(['b', 'a']).unwrap();
        assert!(a.is_compatible(&b));
        assert!(!a.is_compatible(&c));
        assert!(a.check_compatible(&c).is_err());
    }

    #[test]
    fn union_preserves_order() {
        let a = Alphabet::from_chars(['a', 'b']).unwrap();
        let b = Alphabet::from_chars(['b', 'c']).unwrap();
        let u = a.union(&b);
        let names: Vec<&str> = u.names().collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn words_and_rendering() {
        let ab = Alphabet::from_names(["a", "b"]).unwrap();
        let w = ab.word(&["a", "b", "a"]).unwrap();
        let names: Vec<&str> = w.iter().map(|&s| ab.name(s)).collect();
        assert_eq!(names, ["a", "b", "a"]);
        let w2 = ab.word_from_str("ab").unwrap();
        assert_eq!(w2.len(), 2);
        assert!(ab.word_from_str("az").is_err());
    }

    #[test]
    fn symbols_iterates_in_order() {
        let ab = Alphabet::from_chars(['x', 'y', 'z']).unwrap();
        let idx: Vec<usize> = ab.symbols().map(Symbol::index).collect();
        assert_eq!(idx, vec![0, 1, 2]);
        let entries: Vec<(usize, &str)> = ab.entries().map(|(s, n)| (s.index(), n)).collect();
        assert_eq!(entries, vec![(0, "x"), (1, "y"), (2, "z")]);
    }

    #[test]
    fn digest_follows_the_names_in_order() {
        let names = |ab: &[&str]| Alphabet::from_names(ab.iter().copied()).unwrap();
        let abc = names(&["a", "b", "rome"]);
        assert_eq!(abc.digest(), names(&["a", "b", "rome"]).digest());
        assert_eq!(abc.digest(), abc.clone().digest());
        for other in [
            names(&["b", "a", "rome"]),
            names(&["a", "b", "roma"]),
            names(&["a", "b", "rome", "c"]),
            names(&["a", "b"]),
            names(&["ab", "rome"]),
            names(&["a", "brome"]),
            Alphabet::new(),
        ] {
            assert_ne!(abc.digest(), other.digest(), "{}", other.render());
        }
        assert_eq!(Alphabet::new().digest(), names(&[]).digest());
    }

    #[test]
    fn equal_digests_are_compatibility_on_generated_alphabets() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Short names from a small pool, so that many pairs are compatible.
        const POOL: [&str; 6] = ["a", "b", "ab", "c", "rome", "e1"];
        let mut rng = StdRng::seed_from_u64(0xD16E57);
        let alphabets: Vec<Alphabet> = (0..300)
            .map(|_| {
                let mut pool = POOL.to_vec();
                let len = rng.gen_range(0..4);
                let picked = (0..len).map(|_| pool.remove(rng.gen_range(0..pool.len())));
                Alphabet::from_names(picked.collect::<Vec<_>>()).unwrap()
            })
            .collect();
        let mut compatible_pairs = 0;
        for a in &alphabets {
            for b in &alphabets {
                let (left, right) = (a.render(), b.render());
                assert_eq!(a.is_compatible(b), a.digest() == b.digest(), "{left} {right}");
                compatible_pairs += usize::from(a.is_compatible(b));
            }
        }
        assert!(compatible_pairs > 2 * alphabets.len(), "{compatible_pairs} compatible pairs");
    }

    #[test]
    fn render_shows_braces() {
        let ab = Alphabet::from_chars(['a']).unwrap();
        assert_eq!(ab.render(), "{a}");
    }
}
