//! Rule `lock-order`: the lock acquisition graph must be acyclic, and no
//! guard may be held across a blocking channel send or socket I/O call.
//!
//! The analysis is a per-crate approximation:
//!
//! - An acquisition is a `.read()`, `.write()`, or `.lock()` call (exact
//!   empty-paren spelling, so `io::Write::write(buf)` never matches).
//!   The lock's identity is `file-stem::receiver-field` — good enough to
//!   tell `server::snapshot` from `server::engine` without type info.
//! - A `let`-bound guard (chain ending in `?`, `.unwrap()`, `.expect(…)`,
//!   `.unwrap_or_else(…)`, or `.map_err(…)?`, or a poison-refusing
//!   `let Ok(name) = m.lock() else {`) is live until its enclosing
//!   block closes or an explicit `drop(name)`.  An acquisition chained
//!   into a longer expression is a statement-temporary, live for that
//!   line only.
//! - While a guard is live, every new acquisition adds an order edge
//!   `held → new`; one level of intra-crate call inlining adds edges for
//!   locks acquired anywhere in a directly-called function's body.
//! - Cycles in the edge graph are reported as potential deadlocks;
//!   blocking ops (`.send(`, `.recv(`, `.write_all(`, `.flush(`,
//!   `.read_line(`, `.fill_buf(`, `.accept(`) with a guard live are
//!   reported directly.
//!
//! Known false negatives (documented in ARCHITECTURE.md): multi-line
//! acquisition chains register as temporaries, guards returned from
//! helper functions are invisible, and inlining is one level deep.

use crate::scan::SourceFile;
use crate::workspace::Workspace;
use crate::{push_unless_suppressed, Finding};
use std::collections::{HashMap, HashSet};

const RULE: &str = "lock-order";

const ACQUIRE: &[&str] = &[".read()", ".write()", ".lock()"];
const BLOCKING: &[&str] = &[
    ".send(",
    ".recv(",
    ".write_all(",
    ".read_line(",
    ".fill_buf(",
    ".flush(",
    ".accept(",
];

/// A lock-order edge `from → to`, anchored at the acquisition site of `to`.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: usize,
    line: usize,
}

/// Runs the rule over every non-shim crate independently.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for krate in ws.non_shims() {
        findings.extend(check_crate(&krate.sources));
    }
    findings
}

/// Runs the rule over one crate's files (fixtures pass a single file).
pub fn check_crate(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Pass 1: every function's acquired lock set, for call inlining.
    let mut fn_locks: HashMap<String, Vec<String>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        let stem = file_stem(&file.path);
        for func in &file.functions {
            if func.in_test {
                continue;
            }
            let mut locks = Vec::new();
            for idx in func.body_start..=func.body_end.min(file.lines.len() - 1) {
                for acq in acquisitions(&files[fi].lines[idx].code, stem) {
                    if !locks.contains(&acq) {
                        locks.push(acq);
                    }
                }
            }
            if !locks.is_empty() {
                fn_locks.entry(func.name.clone()).or_default().extend(locks);
            }
        }
    }
    // Pass 2: simulate guard liveness per function, collecting edges and
    // direct findings.
    let mut edges: Vec<Edge> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let stem = file_stem(&file.path);
        for func in &file.functions {
            if func.in_test {
                continue;
            }
            simulate(
                file, fi, stem, func, &fn_locks, &mut edges, &mut findings,
            );
        }
    }
    // Cycle detection over the collected edges.
    findings.extend(cycles(&edges, files));
    findings
}

/// A live guard inside the liveness simulation.
struct Guard {
    id: String,
    name: Option<String>,
    depth: usize,
}

#[allow(clippy::too_many_arguments)]
fn simulate(
    file: &SourceFile,
    fi: usize,
    stem: &str,
    func: &crate::scan::Function,
    fn_locks: &HashMap<String, Vec<String>>,
    edges: &mut Vec<Edge>,
    findings: &mut Vec<Finding>,
) {
    let mut live: Vec<Guard> = Vec::new();
    let end = func.body_end.min(file.lines.len() - 1);
    for idx in func.body_start..=end {
        let line = &file.lines[idx];
        let code = line.code.as_str();
        // Expire guards whose enclosing block has closed.
        live.retain(|g| line.depth_start >= g.depth);
        if code.trim_start().starts_with('}') {
            live.retain(|g| g.depth < line.depth_start);
        }
        // Explicit drops.
        for name in drop_targets(code) {
            live.retain(|g| g.name.as_deref() != Some(name.as_str()));
        }
        // New acquisitions on this line.
        let acquired = acquisitions(code, stem);
        let bound = let_bound_guard(code);
        let mut line_temps: Vec<String> = Vec::new();
        for id in &acquired {
            for held in live.iter().map(|g| &g.id).chain(line_temps.iter()) {
                if held == id {
                    push_unless_suppressed(
                        findings,
                        file,
                        idx,
                        Finding {
                            rule: RULE,
                            path: file.path.clone(),
                            line: idx + 1,
                            message: format!(
                                "`{id}` re-acquired in `{}` while already held — \
                                 self-deadlock on a non-reentrant lock",
                                func.name
                            ),
                        },
                    );
                } else {
                    edges.push(Edge {
                        from: held.clone(),
                        to: id.clone(),
                        file: fi,
                        line: idx,
                    });
                }
            }
            match &bound {
                Some(name) if acquired.len() == 1 => live.push(Guard {
                    id: id.clone(),
                    name: Some(name.clone()),
                    depth: line.depth_start.max(func.body_depth),
                }),
                _ => line_temps.push(id.clone()),
            }
        }
        // One-level call inlining: a call made with guards live orders the
        // held locks before everything the callee acquires.
        if !live.is_empty() || !line_temps.is_empty() {
            for callee in call_targets(code, &func.name) {
                if let Some(callee_locks) = fn_locks.get(&callee) {
                    for to in callee_locks {
                        for held in live.iter().map(|g| &g.id).chain(line_temps.iter()) {
                            if held == to {
                                push_unless_suppressed(
                                    findings,
                                    file,
                                    idx,
                                    Finding {
                                        rule: RULE,
                                        path: file.path.clone(),
                                        line: idx + 1,
                                        message: format!(
                                            "`{}` called from `{}` while `{held}` is held — \
                                             the callee re-acquires the same lock",
                                            callee, func.name
                                        ),
                                    },
                                );
                            } else {
                                edges.push(Edge {
                                    from: held.clone(),
                                    to: to.clone(),
                                    file: fi,
                                    line: idx,
                                });
                            }
                        }
                    }
                }
            }
            // Blocking ops with a guard live (or a same-line temporary).
            for op in BLOCKING {
                if code.contains(op) {
                    let held: Vec<&String> =
                        live.iter().map(|g| &g.id).chain(line_temps.iter()).collect();
                    if let Some(first) = held.first() {
                        push_unless_suppressed(
                            findings,
                            file,
                            idx,
                            Finding {
                                rule: RULE,
                                path: file.path.clone(),
                                line: idx + 1,
                                message: format!(
                                    "blocking `{op}…)` in `{}` while holding `{first}` — \
                                     release the guard before channel/socket I/O",
                                    func.name
                                ),
                            },
                        );
                    }
                }
            }
        }
    }
}

/// Every lock id acquired on a code line.
fn acquisitions(code: &str, stem: &str) -> Vec<String> {
    let mut out = Vec::new();
    for token in ACQUIRE {
        let mut from = 0;
        while let Some(at) = code[from..].find(token) {
            let at = from + at;
            out.push(format!("{stem}::{}", receiver(code, at)));
            from = at + token.len();
        }
    }
    out
}

/// The receiver field identifier immediately before the acquisition dot at
/// byte offset `dot` (e.g. `self.shared.snapshot` → `snapshot`).  A call
/// result receiver (`cache().lock()`) resolves to the call's name.
fn receiver(code: &str, dot: usize) -> String {
    let bytes = code.as_bytes();
    let mut i = dot;
    // Skip a balanced `(…)` group backwards (receiver is a call result).
    if i > 0 && bytes[i - 1] == b')' {
        let mut depth = 0usize;
        while i > 0 {
            i -= 1;
            match bytes[i] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let end = i;
    while i > 0 {
        let c = bytes[i - 1] as char;
        if c.is_alphanumeric() || c == '_' {
            i -= 1;
        } else {
            break;
        }
    }
    if i == end {
        "<expr>".to_string()
    } else {
        code[i..end].to_string()
    }
}

/// If the line is `let [mut] name = <acquisition chain>;` where the chain
/// after the lock call only unwraps/propagates (never transforms the
/// guard), or `let Ok([mut] name) = <acquisition> else {`, returns the
/// binding name.
fn let_bound_guard(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let let_else = rest.starts_with("Ok(");
    let rest = rest.strip_prefix("Ok(").unwrap_or(rest);
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        return None;
    }
    // Locate the last acquisition token and validate the trailing chain.
    let tail_at = ACQUIRE
        .iter()
        .filter_map(|t| code.rfind(t).map(|at| at + t.len()))
        .max()?;
    let tail = &code[tail_at..];
    let tail = if let_else { tail.trim_end().strip_suffix("else {")? } else { tail };
    chain_preserves_guard(tail).then_some(name)
}

/// Whether a post-acquisition chain keeps returning the guard: any mix of
/// `?` and `.unwrap() / .expect(…) / .unwrap_or_else(…) / .map_err(…)`
/// calls, ending the statement.
fn chain_preserves_guard(mut rest: &str) -> bool {
    const KEEPERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];
    loop {
        rest = rest.trim_start();
        if rest.is_empty() || rest == ";" {
            return true;
        }
        if let Some(r) = rest.strip_prefix('?') {
            rest = r;
            continue;
        }
        let Some(r) = rest.strip_prefix('.') else { return false };
        let ident: String = r.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if !KEEPERS.contains(&ident.as_str()) {
            return false;
        }
        let after = &r[ident.len()..];
        let Some(close) = matching_paren(after) else { return false };
        rest = &after[close + 1..];
    }
}

/// Byte offset of the `)` closing the `(` that `s` must start with.
fn matching_paren(s: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ if i == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Binding names passed to `drop(...)` on this line.
fn drop_targets(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find("drop(") {
        let at = from + at;
        let before_ok = at == 0
            || !code.as_bytes()[at - 1].is_ascii_alphanumeric() && code.as_bytes()[at - 1] != b'_';
        if before_ok {
            let arg: String = code[at + 5..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !arg.is_empty() {
                out.push(arg);
            }
        }
        from = at + 5;
    }
    out
}

/// Function names invoked on this line, excluding the enclosing function
/// itself and `drop`.  Method calls are inlined only through `self` —
/// a dotted call on a local (`map.get(…)`) usually operates on an
/// already-acquired guard, and treating it as a call into the same-named
/// lock-taking method would manufacture re-acquire false positives.
fn call_targets(code: &str, this_fn: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '(' {
            let mut j = i;
            while j > 0 && (chars[j - 1].is_alphanumeric() || chars[j - 1] == '_') {
                j -= 1;
            }
            if j < i {
                if j >= 1 && chars[j - 1] == '.' {
                    let mut k = j - 1;
                    while k > 0 && (chars[k - 1].is_alphanumeric() || chars[k - 1] == '_') {
                        k -= 1;
                    }
                    let receiver: String = chars[k..j - 1].iter().collect();
                    if receiver != "self" {
                        i += 1;
                        continue;
                    }
                }
                let name: String = chars[j..i].iter().collect();
                if name != this_fn
                    && name != "drop"
                    && !name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    && !out.contains(&name)
                {
                    out.push(name);
                }
            }
        }
        i += 1;
    }
    out
}

/// Finds cycles in the edge graph, reporting each once (anchored at the
/// lexicographically-first edge site so a suppression there silences it).
fn cycles(edges: &[Edge], files: &[SourceFile]) -> Vec<Finding> {
    let mut graph: HashMap<&str, Vec<&Edge>> = HashMap::new();
    for e in edges {
        graph.entry(e.from.as_str()).or_default().push(e);
    }
    let mut findings = Vec::new();
    let mut reported: HashSet<String> = HashSet::new();
    let mut nodes: Vec<&&str> = graph.keys().collect();
    nodes.sort();
    for &start in nodes {
        let mut path: Vec<&Edge> = Vec::new();
        let mut on_path: HashSet<&str> = HashSet::new();
        dfs(start, &graph, &mut path, &mut on_path, &mut reported, files, &mut findings);
    }
    findings
}

#[allow(clippy::too_many_arguments)]
fn dfs<'a>(
    node: &'a str,
    graph: &HashMap<&'a str, Vec<&'a Edge>>,
    path: &mut Vec<&'a Edge>,
    on_path: &mut HashSet<&'a str>,
    reported: &mut HashSet<String>,
    files: &[SourceFile],
    findings: &mut Vec<Finding>,
) {
    if !on_path.insert(node) {
        return;
    }
    if let Some(out) = graph.get(node) {
        for edge in out {
            if on_path.contains(edge.to.as_str()) {
                // Found a cycle: the path suffix from `to` plus this edge.
                let from = path
                    .iter()
                    .position(|e| e.from == edge.to)
                    .unwrap_or(path.len());
                let mut cycle: Vec<&Edge> = path[from..].to_vec();
                cycle.push(edge);
                let mut names: Vec<&str> = cycle.iter().map(|e| e.from.as_str()).collect();
                names.push(&edge.to);
                // Canonical key: rotate to the smallest node name.
                let mut key_nodes: Vec<&str> = cycle.iter().map(|e| e.from.as_str()).collect();
                key_nodes.sort_unstable();
                let key = key_nodes.join("|");
                if reported.insert(key) {
                    let anchor = cycle
                        .iter()
                        .min_by_key(|e| (&files[e.file].path, e.line))
                        .map(|e| (e.file, e.line));
                    if let Some((fi, line)) = anchor {
                        let sites: Vec<String> = cycle
                            .iter()
                            .map(|e| {
                                format!("{} → {} at {}:{}", e.from, e.to, files[e.file].path, e.line + 1)
                            })
                            .collect();
                        push_unless_suppressed(
                            findings,
                            &files[fi],
                            line,
                            Finding {
                                rule: RULE,
                                path: files[fi].path.clone(),
                                line: line + 1,
                                message: format!(
                                    "lock acquisition cycle {} ({})",
                                    names.join(" → "),
                                    sites.join("; ")
                                ),
                            },
                        );
                    }
                }
            } else {
                path.push(edge);
                dfs(edge.to.as_str(), graph, path, on_path, reported, files, findings);
                path.pop();
            }
        }
    }
    on_path.remove(node);
}

/// `crates/service/src/server.rs` → `server`.
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn let_bound_vs_temporary() {
        assert_eq!(
            let_bound_guard("    let guard = self.map.write().unwrap();"),
            Some("guard".to_string())
        );
        assert_eq!(
            let_bound_guard("    let mut g = self.map.write().expect(\"poisoned\");"),
            Some("g".to_string())
        );
        assert_eq!(
            let_bound_guard(
                "    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);"
            ),
            Some("g".to_string())
        );
        // `.clone()` after the acquisition means the guard is a temporary.
        assert_eq!(let_bound_guard("    let s = self.snap.read().unwrap().clone();"), None);
        assert_eq!(let_bound_guard("    self.map.write().unwrap().insert(k, v);"), None);
        // A let-else that leaves on poison binds the guard itself.
        assert_eq!(
            let_bound_guard("    let Ok(mut engine) = shared.engine.lock() else {"),
            Some("engine".to_string())
        );
        assert_eq!(let_bound_guard("    let Ok(n) = m.lock().map(|g| g.len()) else {"), None);
    }

    #[test]
    fn inverted_order_is_a_cycle() {
        let src = "\
fn a(&self) {
    let g1 = self.alpha.lock().unwrap();
    let g2 = self.beta.lock().unwrap();
    drop(g2);
    drop(g1);
}
fn b(&self) {
    let g2 = self.beta.lock().unwrap();
    let g1 = self.alpha.lock().unwrap();
    drop(g1);
    drop(g2);
}
";
        let file = SourceFile::parse("x.rs", src);
        let findings = check_crate(std::slice::from_ref(&file));
        assert!(
            findings.iter().any(|f| f.message.contains("cycle")),
            "expected a cycle finding, got: {findings:?}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "\
fn a(&self) {
    let g1 = self.alpha.lock().unwrap();
    let g2 = self.beta.lock().unwrap();
    drop(g2);
    drop(g1);
}
fn b(&self) {
    let g1 = self.alpha.lock().unwrap();
    let g2 = self.beta.lock().unwrap();
    drop(g2);
    drop(g1);
}
";
        let file = SourceFile::parse("x.rs", src);
        assert!(check_crate(std::slice::from_ref(&file)).is_empty());
    }

    #[test]
    fn send_under_guard_is_flagged() {
        let src = "\
fn a(&self) {
    let g = self.state.lock().unwrap();
    self.tx.send(1).ok();
}
";
        let file = SourceFile::parse("x.rs", src);
        let findings = check_crate(std::slice::from_ref(&file));
        assert!(findings.iter().any(|f| f.message.contains("blocking")));
    }

    #[test]
    fn a_let_else_guard_is_live_until_dropped() {
        let src = "\
fn a(&self, out: &mut W) {
    let Ok(g) = self.state.lock() else {
        return;
    };
    out.flush().ok();
    drop(g);
    out.flush().ok();
}
";
        let file = SourceFile::parse("x.rs", src);
        let findings = check_crate(std::slice::from_ref(&file));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 5);
    }
}
