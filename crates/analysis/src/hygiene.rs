//! Rule `hygiene`: every non-shim crate root must carry
//! `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`, and declares no
//! `pub mod`.
//!
//! The workspace has zero `unsafe` blocks and zero missing docs today;
//! this rule locks both in so neither can sneak into a hot path in a
//! future PR.  A crate's public API is its root re-exports: a public module
//! gives every item in it a second path that other crates can grow to
//! depend on, so a module kept public on purpose carries
//! `// lint: allow(hygiene) — <who names the path>`.  Shims are exempt —
//! they mirror external crate APIs and are not part of the engine's
//! contract surface.

use crate::scan::SourceFile;
use crate::workspace::Workspace;
use crate::{push_unless_suppressed, Finding};

const RULE: &str = "hygiene";

/// Runs the rule over every non-shim crate root (`src/lib.rs` or, for a
/// binary-only crate, `src/main.rs`).
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for krate in ws.non_shims() {
        let root = krate
            .sources
            .iter()
            .find(|f| f.path.ends_with("src/lib.rs"))
            .or_else(|| krate.sources.iter().find(|f| f.path.ends_with("src/main.rs")));
        let Some(root) = root else { continue };
        findings.extend(check_file(root, &krate.name));
    }
    findings
}

/// Checks one crate-root file for the two required attributes and for
/// public module declarations.
pub fn check_file(file: &SourceFile, krate: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let has = |attr: &str| file.lines.iter().any(|l| l.code.contains(attr));
    if !has("#![forbid(unsafe_code)]") {
        push_unless_suppressed(
            &mut findings,
            file,
            0,
            Finding {
                rule: RULE,
                path: file.path.clone(),
                line: 0,
                message: format!("crate `{krate}` is missing `#![forbid(unsafe_code)]`"),
            },
        );
    }
    if !has("#![deny(missing_docs)]") {
        push_unless_suppressed(
            &mut findings,
            file,
            0,
            Finding {
                rule: RULE,
                path: file.path.clone(),
                line: 0,
                message: format!("crate `{krate}` is missing `#![deny(missing_docs)]`"),
            },
        );
    }
    for (idx, line) in file.lines.iter().enumerate() {
        let Some(rest) = line.code.trim_start().strip_prefix("pub mod ") else {
            continue;
        };
        let module = rest.trim_end_matches(|c: char| c == ';' || c == '{' || c.is_whitespace());
        push_unless_suppressed(
            &mut findings,
            file,
            idx,
            Finding {
                rule: RULE,
                path: file.path.clone(),
                line: idx + 1,
                message: format!(
                    "crate `{krate}` declares `pub mod {module}`: re-export its items at the root \
                     instead, or say who names the path"
                ),
            },
        );
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_attributes_fire() {
        let src = "#![warn(missing_docs)]\npub fn f() {}\n";
        let findings = check_file(&SourceFile::parse("crates/x/src/lib.rs", src), "x");
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn both_present_is_clean() {
        let src = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\nmod m;\npub use m::f;\n";
        assert!(check_file(&SourceFile::parse("crates/x/src/lib.rs", src), "x").is_empty());
    }
}
