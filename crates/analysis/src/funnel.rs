//! Rule `regex-funnel`: one way from a regex to the automaton a sweep runs.
//!
//! Every product sweep over a graph costs *visited product states × work per
//! state*, and the query automaton sets the first factor; the rewriting
//! pipeline reads only the views' languages, so the smallest automaton is
//! the best one there too.  Every crate therefore turns a regex into an
//! automaton in exactly one way, `regexlang::compile` (ε-free position
//! automaton, trim, bisimilar states merged).  Thompson's construction puts
//! a whole ε-closure of successor states on each matched edge; a
//! `regexlang::thompson` call (qualified, or imported and called bare) in
//! non-test code would quietly fork the funnel, so it is a finding.
//!
//! Out of scope: tests, which keep Thompson as their oracle, `regexlang`,
//! which defines both constructions, and the dev-only `testkit`, whose
//! oracles build tree automata on purpose.  The one Thompson call production
//! keeps carries an allow comment.

use crate::scan::{is_ident, SourceFile};
use crate::workspace::Workspace;
use crate::{push_unless_suppressed, Finding};

const RULE: &str = "regex-funnel";

/// The crates whose non-test code may build Thompson automata.
const EXEMPT_CRATES: &[&str] = &["regexlang", "testkit"];

/// Runs the rule over the sources of every non-exempt crate.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for krate in ws.non_shims().filter(|k| !EXEMPT_CRATES.contains(&k.name.as_str())) {
        for file in &krate.sources {
            findings.extend(check_file(file));
        }
    }
    findings
}

/// Whether `code` mentions the identifier `thompson` (not `thompson_auto`,
/// not `my_thompson`): a call, qualified or bare, or the import behind one.
fn names_thompson(code: &str) -> bool {
    const NAME: &str = "thompson";
    code.match_indices(NAME).any(|(at, _)| {
        !code[..at].chars().next_back().is_some_and(is_ident)
            && !code[at + NAME.len()..].chars().next().is_some_and(is_ident)
    })
}

/// Runs the rule over one file.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if !line.in_test && names_thompson(&line.code) {
            push_unless_suppressed(
                &mut findings,
                file,
                idx,
                Finding {
                    rule: RULE,
                    path: file.path.clone(),
                    line: idx + 1,
                    message: "`regexlang::thompson` outside `regexlang` — compile regexes \
                              through `regexlang::compile` (the one funnel)"
                        .to_string(),
                },
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualified_calls_bare_calls_and_imports_all_fire() {
        let src = "use regexlang::{thompson, Regex};\nfn f(r: &Regex, a: &Alphabet) {\n    let _ = regexlang::thompson(r, a);\n    let _ = thompson(r, a);\n}\n";
        let findings = check_file(&SourceFile::parse("crates/engine/src/x.rs", src));
        assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [1, 3, 4]);
    }

    #[test]
    fn other_identifiers_comments_and_test_modules_are_clean() {
        let src = "/// Unlike thompson, this is ε-free.\nfn f(r: &Regex) {\n    let _ = regexlang::thompson_auto(r); // not thompson\n    let _ = my_thompson(r);\n}\n#[cfg(test)]\nmod tests {\n    fn oracle(r: &Regex, a: &Alphabet) {\n        let _ = regexlang::thompson(r, a);\n    }\n}\n";
        let findings = check_file(&SourceFile::parse("crates/engine/src/x.rs", src));
        assert!(findings.is_empty(), "{findings:?}");
    }
}
