//! 128-bit structural fingerprints for queries.
//!
//! The compile cache must recognize "the same query again" across call
//! sites that hold different in-memory values: a regex parsed twice, a view
//! definition grounded per problem, a rewriting automaton rebuilt per
//! comparison.  Fingerprints hash a canonical form — the regex rendering or
//! the DFA transition structure, always together with the alphabet — into
//! 128 bits (two independently-seeded [`FxHasher`] streams), wide enough
//! that accidental collisions are not a practical concern.  A query text is
//! fingerprinted twice over: by its raw bytes ([`fingerprint_text`], the key
//! of the compile cache's text memo, computed without parsing) and by its
//! parse's rendering, which is what every other cache is keyed by.

use std::hash::Hasher;

use automata::FxHasher;
use regexlang::Regex;

/// A 128-bit query fingerprint (two independently-seeded 64-bit halves).
pub(crate) type Fingerprint = u128;

/// Two [`FxHasher`] streams with distinct initial states, combined into one
/// [`Fingerprint`] at the end.
struct Fp2 {
    lo: FxHasher,
    hi: FxHasher,
}

impl Fp2 {
    fn new(discriminant: u64) -> Self {
        let mut lo = FxHasher::default();
        let mut hi = FxHasher::default();
        lo.write_u64(discriminant);
        // Different seeds keep the halves independent even though the
        // streams see identical input afterwards.
        hi.write_u64(!discriminant);
        hi.write_u64(0x9e37_79b9_7f4a_7c15);
        Fp2 { lo, hi }
    }

    fn write_u64(&mut self, v: u64) {
        self.lo.write_u64(v);
        self.hi.write_u64(v);
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.lo.write(s.as_bytes());
        self.hi.write(s.as_bytes());
    }

    fn finish(self) -> Fingerprint {
        ((self.hi.finish() as u128) << 64) | self.lo.finish() as u128
    }
}

fn write_alphabet(fp: &mut Fp2, alphabet: &automata::Alphabet) {
    fp.write_u64(alphabet.len() as u64);
    for name in alphabet.names() {
        fp.write_str(name);
    }
}

/// Fingerprint of a regex to be compiled over `domain`.
///
/// The rendering of a [`Regex`] is canonical (it round-trips through the
/// parser), so two structurally equal expressions fingerprint equally even
/// when built through different constructors.
pub(crate) fn fingerprint_regex(domain: &automata::Alphabet, regex: &Regex) -> Fingerprint {
    let mut fp = Fp2::new(0x0052_4547_4558_u64); // "REGEX"
    write_alphabet(&mut fp, domain);
    fp.write_str(&regex.to_string());
    fp.finish()
}

/// Fingerprint of a query *text* to be parsed and compiled over `domain`:
/// a hash of its raw bytes, with no parse and no rendering.  Two spellings
/// of one expression (`a·b`, `a.b`, `a b`) differ here; the compile cache's
/// text memo maps each to the [`fingerprint_regex`] they share.
pub(crate) fn fingerprint_text(domain: &automata::Alphabet, text: &str) -> Fingerprint {
    let mut fp = Fp2::new(0x5445_5854_u64); // "TEXT"
    write_alphabet(&mut fp, domain);
    fp.write_str(text);
    fp.finish()
}

/// Fingerprint of a DFA's transition structure, tagged with the (compatible)
/// alphabet the frozen automaton will be evaluated over.
///
/// Rewriting automata are deterministic and re-labeled over the engine's
/// view alphabet before Σ_E-evaluation; fingerprinting the DFA directly
/// lets the compile cache intern the frozen dense form without constructing
/// a tree NFA per call.  The hash walks the next-state table once — final
/// states in ascending order, then transitions by state and symbol — and
/// allocates nothing, since every over-views read computes it.
pub(crate) fn fingerprint_dfa(target: &automata::Alphabet, dfa: &automata::Dfa) -> Fingerprint {
    let mut fp = Fp2::new(0x0044_4641_u64); // "DFA"
    write_alphabet(&mut fp, target);
    fp.write_u64(dfa.num_states() as u64);
    fp.write_u64(dfa.initial() as u64);
    fp.write_u64(u64::MAX); // section separator
    for s in dfa.finals().iter() {
        fp.write_u64(s as u64);
    }
    fp.write_u64(u64::MAX);
    for (from, sym, to) in dfa.transitions() {
        fp.write_u64(from as u64);
        fp.write_u64(sym.index() as u64);
        fp.write_u64(to as u64);
    }
    fp.finish()
}

/// The answer-cache key of a Σ_E read: the rewriting's [`fingerprint_dfa`]
/// salted with the epoch of the view set it is read over.  The automaton
/// only names view *symbols*; which relation a symbol stands for changes
/// when a view is re-registered under a new definition, which bumps the
/// epoch without bumping the database revision.
pub(crate) fn fingerprint_over_views(views_epoch: u64, rewriting: Fingerprint) -> Fingerprint {
    let mut fp = Fp2::new(0x0056_4945_5753_u64); // "VIEWS"
    fp.write_u64(views_epoch);
    fp.write_u64(rewriting as u64);
    fp.write_u64((rewriting >> 64) as u64);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Alphabet;

    #[test]
    fn equal_regexes_fingerprint_equally() {
        let domain = Alphabet::from_chars(['a', 'b']).unwrap();
        let r1 = regexlang::parse("a·(b+a)*").unwrap();
        let r2 = regexlang::parse("a·(b+a)*").unwrap();
        assert_eq!(fingerprint_regex(&domain, &r1), fingerprint_regex(&domain, &r2));
        let r3 = regexlang::parse("a·(b+a)").unwrap();
        assert_ne!(fingerprint_regex(&domain, &r1), fingerprint_regex(&domain, &r3));
    }

    #[test]
    fn alphabet_is_part_of_the_fingerprint() {
        let d1 = Alphabet::from_chars(['a', 'b']).unwrap();
        let d2 = Alphabet::from_chars(['a', 'b', 'c']).unwrap();
        let r = regexlang::parse("a·b").unwrap();
        assert_ne!(fingerprint_regex(&d1, &r), fingerprint_regex(&d2, &r));
        assert_ne!(fingerprint_text(&d1, "a·b"), fingerprint_text(&d2, "a·b"));
    }

    #[test]
    fn text_fingerprints_hash_the_spelling_not_the_expression() {
        let domain = Alphabet::from_chars(['a', 'b']).unwrap();
        assert_eq!(fingerprint_text(&domain, "a·b"), fingerprint_text(&domain, "a·b"));
        assert_ne!(fingerprint_text(&domain, "a·b"), fingerprint_text(&domain, "a.b"));
        assert_ne!(fingerprint_text(&domain, "a·b"), fingerprint_text(&domain, "a·b "));
    }

    #[test]
    fn dfa_fingerprint_distinguishes_structure_target_and_view_epoch() {
        let alpha = Alphabet::from_names(["v1", "v2"]).unwrap();
        let dfa = |text: &str| {
            let regex = regexlang::parse(text).unwrap();
            automata::determinize(&regexlang::thompson(&regex, &alpha).unwrap())
        };
        let (d1, d2, d3) = (dfa("v1·v2*"), dfa("v1·v2*"), dfa("v2·v1*"));
        assert_eq!(fingerprint_dfa(&alpha, &d1), fingerprint_dfa(&alpha, &d2));
        assert_ne!(fingerprint_dfa(&alpha, &d1), fingerprint_dfa(&alpha, &d3));
        let renamed = Alphabet::from_names(["w1", "w2"]).unwrap();
        assert_ne!(fingerprint_dfa(&alpha, &d1), fingerprint_dfa(&renamed, &d1));
        let fp = fingerprint_dfa(&alpha, &d1);
        assert_eq!(fingerprint_over_views(3, fp), fingerprint_over_views(3, fp));
        assert_ne!(fingerprint_over_views(3, fp), fingerprint_over_views(4, fp));
        assert_ne!(fingerprint_over_views(3, fp), fp);
    }
}
