//! Rule `layering`: the crate dependency DAG must respect the declared
//! layer order, with shims as leaves.
//!
//! Layers (low to high):
//!
//! 1. `automata`, `telemetry`, `analysis` — foundations with no
//!    intra-workspace deps
//! 2. `regexlang`
//! 3. `graphdb`, `rewriter`
//! 4. `engine`, `tiling`
//! 5. `rpq`, `service`
//! 6. `bench`
//! 7. `rewriting-rpq` (the root facade)
//! 8. `testkit` — the dev-only test oracles, above every production crate
//!
//! Shims sit below everything (rank 0) and may depend only on other shims.
//! An edge `A → B` is legal iff `rank(B) < rank(A)`; anything else is a
//! back-edge.  The one exception is `testkit`: it depends on the crates
//! whose integration tests use it, so an edge into it is legal only under
//! `[dev-dependencies]`, and such an edge is neither ranked nor part of the
//! cycle scan (Cargo builds it against the crate's non-test library).  A
//! full cycle scan backstops the rank check so that cycles among unranked
//! (unknown) crates are still reported.

use crate::workspace::Workspace;
use crate::Finding;
use std::collections::{HashMap, HashSet};

/// The dev-only oracle crate.
const TESTKIT: &str = "testkit";

/// The declared layer rank of a known crate, or `None` for strangers.
fn rank(ws: &Workspace, name: &str) -> Option<usize> {
    if ws.by_name(name).is_some_and(|c| c.is_shim) {
        return Some(0);
    }
    Some(match name {
        "automata" | "telemetry" | "analysis" => 1,
        "regexlang" => 2,
        "graphdb" | "rewriter" => 3,
        "engine" | "tiling" => 4,
        "rpq" | "service" => 5,
        "bench" => 6,
        "rewriting-rpq" => 7,
        TESTKIT => 8,
        _ => return None,
    })
}

/// Checks every manifest edge against the layer order, then scans the
/// whole dependency graph for cycles.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut graph: HashMap<&str, Vec<&str>> = HashMap::new();
    for krate in &ws.crates {
        let manifest_path = if krate.rel_path == "." {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", krate.rel_path)
        };
        let normal = krate.manifest.dependencies.iter().map(|d| (d, false));
        let dev = krate.manifest.dev_dependencies.iter().map(|d| (d, true));
        for (dep, dev) in normal.chain(dev) {
            if dev && dep == TESTKIT {
                continue;
            }
            graph.entry(krate.name.as_str()).or_default().push(dep.as_str());
            if krate.is_shim {
                if !ws.by_name(dep).is_some_and(|c| c.is_shim) {
                    findings.push(Finding {
                        rule: "layering",
                        path: manifest_path.clone(),
                        line: 0,
                        message: format!(
                            "shim `{}` depends on non-shim `{dep}` — shims must be leaves",
                            krate.name
                        ),
                    });
                }
                continue;
            }
            if dep == TESTKIT {
                findings.push(Finding {
                    rule: "layering",
                    path: manifest_path.clone(),
                    line: 0,
                    message: format!(
                        "`{}` lists the dev-only `{TESTKIT}` under [dependencies]; \
                         it belongs under [dev-dependencies]",
                        krate.name
                    ),
                });
                continue;
            }
            let (Some(from), Some(to)) = (rank(ws, &krate.name), rank(ws, dep)) else {
                findings.push(Finding {
                    rule: "layering",
                    path: manifest_path.clone(),
                    line: 0,
                    message: format!(
                        "dependency `{}` → `{dep}` involves a crate with no declared layer",
                        krate.name
                    ),
                });
                continue;
            };
            if to >= from {
                findings.push(Finding {
                    rule: "layering",
                    path: manifest_path.clone(),
                    line: 0,
                    message: format!(
                        "back-edge: `{}` (layer {from}) depends on `{dep}` (layer {to}); \
                         dependencies must point strictly downward",
                        krate.name
                    ),
                });
            }
        }
    }
    findings.extend(cycles(&graph));
    findings
}

/// DFS cycle scan over the raw dependency graph.
fn cycles(graph: &HashMap<&str, Vec<&str>>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut done: HashSet<&str> = HashSet::new();
    let mut names: Vec<&&str> = graph.keys().collect();
    names.sort();
    for &start in names {
        if done.contains(start) {
            continue;
        }
        let mut path: Vec<&str> = Vec::new();
        let mut on_path: HashSet<&str> = HashSet::new();
        // Iterative DFS with an explicit path so the cycle can be printed.
        fn visit<'a>(
            node: &'a str,
            graph: &HashMap<&'a str, Vec<&'a str>>,
            path: &mut Vec<&'a str>,
            on_path: &mut HashSet<&'a str>,
            done: &mut HashSet<&'a str>,
            findings: &mut Vec<Finding>,
        ) {
            if done.contains(node) {
                return;
            }
            if !on_path.insert(node) {
                let from = path.iter().position(|&n| n == node).unwrap_or(0);
                findings.push(Finding {
                    rule: "layering",
                    path: "Cargo.toml".to_string(),
                    line: 0,
                    message: format!("dependency cycle: {} → {node}", path[from..].join(" → ")),
                });
                return;
            }
            path.push(node);
            if let Some(deps) = graph.get(node) {
                for dep in deps {
                    visit(dep, graph, path, on_path, done, findings);
                }
            }
            path.pop();
            on_path.remove(node);
            done.insert(node);
        }
        visit(start, graph, &mut path, &mut on_path, &mut done, &mut findings);
    }
    findings
}
