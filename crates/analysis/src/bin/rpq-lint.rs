//! `rpq-lint` — runs the seven workspace invariant rules and prints findings.
//!
//! Usage: `rpq-lint [--root <path>]`.  With no `--root`, walks up from the
//! current directory to the nearest `Cargo.toml` declaring a `[workspace]`.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("rpq-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: rpq-lint [--root <workspace-root>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("rpq-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(find_workspace_root) {
        Some(root) => root,
        None => {
            eprintln!("rpq-lint: no workspace root found (looked for Cargo.toml with [workspace])");
            return ExitCode::from(2);
        }
    };
    match analysis::run_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("rpq-lint: workspace clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for finding in &findings {
                println!("{finding}");
            }
            println!("rpq-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("rpq-lint: {err}");
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory to the nearest workspace manifest.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
