//! Golden rendered text: the benchmark's render set, pinned by size and hash.
//!
//! `rewrite_offline`'s render set is the determinization blow-up rewriting
//! for k = 3 and 4 plus four of the paper's examples, each rendered by
//! `MaximalRewriting::regex()` (state elimination, then `simplify`).  The
//! table pins, per problem, the rendered expression's `size()` (AST nodes)
//! and the 64-bit FNV-1a hash of its `to_string()`, so any change to the
//! elimination order or to a simplification rule shows up here, not only in
//! the benchmark's `rendered` digest.  The sizes sum to the benchmark's
//! `regexlang.rendered_size`.
//!
//! If a change moves an entry on purpose, re-record the table and say why in
//! `CHANGES.md`.

use bench::blowup_rewriting_problem;
use rewriter::{compute_maximal_rewriting, RewriteProblem};

/// 64-bit FNV-1a over the UTF-8 bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(problem, size(), fnv1a(to_string()))`, recorded before the renderer
/// moved onto hash-consed expressions.
const GOLDEN: [(&str, usize, u64); 6] = [
    ("blow-up k=3", 16_533, 0x9589_74dc_e7e5_0c0e),
    ("blow-up k=4", 327_026, 0xcecc_aeb1_d0db_5b62),
    ("figure 1", 6, 0x9558_fc9c_bcb0_a9c4),
    ("a* over e=a*", 2, 0x088e_7407_b539_ac9e),
    ("figure 1 without e3", 4, 0x38a2_cb4a_6a87_f1fd),
    ("a·(b+c) over single symbols", 5, 0x4ea5_57be_0f06_f513),
];

fn render_set() -> Vec<RewriteProblem> {
    let examples = [
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]),
        RewriteProblem::parse("a*", [("e", "a*")]),
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b")]),
        RewriteProblem::parse("a·(b+c)", [("q1", "a"), ("q2", "b"), ("q3", "c")]),
    ];
    (3..=4)
        .map(blowup_rewriting_problem)
        .chain(
            examples
                .into_iter()
                .map(|p| p.expect("paper example parses")),
        )
        .collect()
}

#[test]
fn render_set_text_is_pinned() {
    let problems = render_set();
    assert_eq!(problems.len(), GOLDEN.len());
    for (problem, &(name, size, hash)) in problems.iter().zip(&GOLDEN) {
        let regex = compute_maximal_rewriting(problem).regex();
        let got = (regex.size(), fnv1a(&regex.to_string()));
        assert_eq!(
            got,
            (size, hash),
            "{name}: rendered size / text hash moved (got {}, {:#018x})",
            got.0,
            got.1
        );
    }
    let total: usize = GOLDEN.iter().map(|&(_, size, _)| size).sum();
    assert_eq!(total, 343_576, "the benchmark's regexlang.rendered_size");
}
