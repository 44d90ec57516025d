//! Rule `try-parity`: every panicking public method on `QueryEngine` or
//! `EngineSnapshot` delegates to a fallible `try_*` method of the same impl.
//!
//! "Panicking" is read off the method's own contract: a `# Panics` section
//! in its doc comment.  "Delegates" is token-level: the body calls
//! `.try_…(` or `Self::try_…(`.  A panicking convenience is then a wrapper
//! that re-panics an `EngineError`, so whatever it does, a caller holding
//! untrusted input can do through the fallible spelling — by construction,
//! with no same-named twin kept only for the lint.

use crate::scan::SourceFile;
use crate::workspace::Workspace;
use crate::{push_unless_suppressed, Finding};

const RULE: &str = "try-parity";

/// The impl blocks the rule covers.
const IMPLS: &[&str] = &["impl QueryEngine", "impl EngineSnapshot"];

/// Runs the rule over the engine crate.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    ws.by_name("engine")
        .map(|engine| engine.sources.iter().flat_map(check_file).collect())
        .unwrap_or_default()
}

/// Runs the rule over one file, for each covered impl block it contains.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for needle in IMPLS {
        let Some((start, end, _)) = file.impl_span(needle) else {
            continue;
        };
        for func in &file.functions {
            let in_impl = func.header > start && func.header <= end;
            if !in_impl || !func.is_pub || func.in_test {
                continue;
            }
            if func.name.starts_with("try_") || !func.doc.contains("# Panics") {
                continue;
            }
            let delegates = file
                .lines
                .iter()
                .take(func.body_end + 1)
                .skip(func.body_start)
                .any(|line| line.code.contains(".try_") || line.code.contains("Self::try_"));
            if !delegates {
                push_unless_suppressed(
                    &mut findings,
                    file,
                    func.header,
                    Finding {
                        rule: RULE,
                        path: file.path.clone(),
                        line: func.header + 1,
                        message: format!(
                            "panicking method `{}` does not delegate to a `try_*` method — \
                             make it a wrapper over the fallible spelling so serving code \
                             can avoid the panic path",
                            func.name
                        ),
                    },
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_twin_fires_present_twin_passes() {
        let src = "\
impl EngineSnapshot {
    /// Evaluates.
    ///
    /// # Panics
    /// Panics on a malformed query.
    pub fn eval_str(&self) {
        parse().expect(\"query must parse\");
    }

    /// Evaluates a pair.
    ///
    /// # Panics
    /// Panics on a malformed query.
    pub fn eval_pair_str(&self) -> bool {
        expect_verdict(self.try_eval(&request))
    }

    /// Fallible entry point: nothing to delegate to.
    pub fn try_eval(&self) {}

    /// Documents no panic, so not covered.
    pub fn revision(&self) -> u64 {
        self.revision
    }
}
";
        let file = SourceFile::parse("crates/engine/src/snapshot.rs", src);
        let findings = check_file(&file);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`eval_str`"));
    }
}
