//! `rpq-lint`: a workspace invariant checker for the rewriting-rpq engine.
//!
//! Seven named rules machine-enforce the contracts that previously lived only
//! in ARCHITECTURE.md prose:
//!
//! | rule         | invariant                                                       |
//! |--------------|-----------------------------------------------------------------|
//! | `layering`   | crate dependency DAG respects the declared layer order          |
//! | `panic`      | no panic sites in service request paths or engine `try_*` fns   |
//! | `lock-order` | lock acquisition graph is acyclic; no guard held across I/O     |
//! | `ordering`   | every non-SeqCst atomic ordering carries a `// ordering:` note  |
//! | `try-parity` | panicking engine/snapshot methods delegate to a `try_*` method  |
//! | `hygiene`    | `forbid(unsafe_code)` + `deny(missing_docs)` on non-shim crates, |
//! |              | and no `pub mod` in their roots (the API is the re-exports)     |
//! | `regex-funnel` | no `regexlang::thompson` outside `regexlang` and `testkit`    |
//!
//! Each finding is individually suppressible with `// lint: allow(<rule>)`
//! on the offending line or the line directly above it.  The scanner is a
//! token-level approximation, not a parser — see ARCHITECTURE.md for the
//! known false-negative shapes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod atomics;
mod funnel;
mod hygiene;
mod layering;
mod locks;
mod panics;
mod parity;
mod scan;
mod workspace;

pub use scan::SourceFile;
pub use workspace::{CrateInfo, Manifest, Workspace};

use std::fmt;
use std::path::Path;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule name (`layering`, `panic`, `lock-order`, `ordering`,
    /// `try-parity`, `hygiene`, `regex-funnel`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file (or manifest).
    pub path: String,
    /// 1-based line number; 0 for file- or crate-level findings.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.path, self.rule, self.message)
        } else {
            write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
        }
    }
}

/// Whether the finding at 0-based `line_idx` in `file` is suppressed by a
/// `// lint: allow(<rule>)` comment on the same line or the line above.
pub fn suppressed(file: &SourceFile, line_idx: usize, rule: &str) -> bool {
    let needle = format!("lint: allow({rule})");
    let hit = |idx: usize| {
        file.lines
            .get(idx)
            .is_some_and(|l| l.comment.contains(&needle))
    };
    hit(line_idx) || (line_idx > 0 && hit(line_idx - 1))
}

/// Pushes `finding` unless a suppression comment covers it.
pub fn push_unless_suppressed(
    out: &mut Vec<Finding>,
    file: &SourceFile,
    line_idx: usize,
    finding: Finding,
) {
    if !suppressed(file, line_idx, finding.rule) {
        out.push(finding);
    }
}

/// Runs all seven rules over the workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let ws = Workspace::load(root)?;
    Ok(run_loaded(&ws))
}

/// Runs all seven rules over an already-loaded workspace.
pub fn run_loaded(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(layering::check(ws));
    findings.extend(panics::check(ws));
    findings.extend(locks::check(ws));
    findings.extend(atomics::check(ws));
    findings.extend(parity::check(ws));
    findings.extend(hygiene::check(ws));
    findings.extend(funnel::check(ws));
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings
}
