//! Fixture suite for `rpq-lint`: one bad snippet per rule proving the rule
//! fires, plus its suppressed twin proving `// lint: allow(<rule>)` (or the
//! rule-specific justification comment) silences exactly that finding — and
//! a whole-workspace run proving the committed tree is clean.

use analysis::{run_loaded, run_workspace, CrateInfo, Finding, Manifest, SourceFile, Workspace};
use std::path::Path;

/// Builds one in-memory workspace member.
fn krate(name: &str, rel: &str, deps: &[&str], files: &[(&str, &str)]) -> CrateInfo {
    CrateInfo {
        name: name.to_string(),
        rel_path: rel.to_string(),
        is_shim: rel.starts_with("shims/"),
        manifest: Manifest {
            name: name.to_string(),
            dependencies: deps.iter().map(|d| d.to_string()).collect(),
            dev_dependencies: Vec::new(),
        },
        sources: files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect(),
    }
}

fn rule_findings<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------------------
// layering

#[test]
fn layering_back_edge_fires_and_forward_edge_is_clean() {
    // automata (layer 1) depending on engine (layer 4) is a back-edge.
    let bad = Workspace::from_parts(vec![
        krate("automata", "crates/automata", &["engine"], &[]),
        krate("engine", "crates/engine", &[], &[]),
    ]);
    let findings = run_loaded(&bad);
    let hits = rule_findings(&findings, "layering");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("back-edge"), "{}", hits[0]);
    assert_eq!(hits[0].path, "crates/automata/Cargo.toml");

    // The same edge the right way round is clean.
    let good = Workspace::from_parts(vec![
        krate("automata", "crates/automata", &[], &[]),
        krate("engine", "crates/engine", &["automata"], &[]),
    ]);
    assert!(rule_findings(&run_loaded(&good), "layering").is_empty());
}

#[test]
fn layering_shim_with_workspace_dep_fires() {
    let ws = Workspace::from_parts(vec![
        krate("rand", "shims/rand", &["automata"], &[]),
        krate("automata", "crates/automata", &[], &[]),
    ]);
    let findings = run_loaded(&ws);
    let hits = rule_findings(&findings, "layering");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("shims must be leaves"), "{}", hits[0]);
}

#[test]
fn layering_dependency_cycle_fires() {
    // Two unranked crates depending on each other: the rank check reports
    // the unknown layers, and the cycle scan reports the loop itself.
    let ws = Workspace::from_parts(vec![
        krate("zeta", "crates/zeta", &["yotta"], &[]),
        krate("yotta", "crates/yotta", &["zeta"], &[]),
    ]);
    let findings = run_loaded(&ws);
    assert!(
        rule_findings(&findings, "layering")
            .iter()
            .any(|f| f.message.contains("dependency cycle")),
        "{findings:?}"
    );
}

#[test]
fn layering_testkit_is_legal_only_as_a_dev_dependency() {
    // The oracle crate depends on the crate whose tests use it: as a
    // dev-dependency that edge is clean, and no cycle.
    let mut automata = krate("automata", "crates/automata", &[], &[]);
    automata.manifest.dev_dependencies.push("testkit".to_string());
    let good = Workspace::from_parts(vec![
        automata,
        krate("testkit", "crates/testkit", &["automata"], &[]),
    ]);
    let findings = run_loaded(&good);
    assert!(rule_findings(&findings, "layering").is_empty(), "{findings:?}");

    // Under [dependencies] the same edge is reported.
    let bad = Workspace::from_parts(vec![
        krate("automata", "crates/automata", &["testkit"], &[]),
        krate("testkit", "crates/testkit", &["automata"], &[]),
    ]);
    let findings = run_loaded(&bad);
    let hits = rule_findings(&findings, "layering");
    assert!(
        hits.iter().any(|f| f.path == "crates/automata/Cargo.toml" && f.message.contains("dev-only")),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------------------
// panic

const PANIC_BAD: &str = "\
/// Parses a count from an untrusted frame.
pub fn parse_count(input: &str) -> usize {
    input.parse().unwrap()
}
";

const PANIC_ALLOWED: &str = "\
/// Parses a count from an untrusted frame.
pub fn parse_count(input: &str) -> usize {
    // lint: allow(panic) — fixture: input is validated one frame up
    input.parse().unwrap()
}
";

#[test]
fn panic_in_service_fires_and_allow_silences() {
    let bad = Workspace::from_parts(vec![krate(
        "service",
        "crates/service",
        &[],
        &[("crates/service/src/handler.rs", PANIC_BAD)],
    )]);
    let findings = run_loaded(&bad);
    let hits = rule_findings(&findings, "panic");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("unwrap()"), "{}", hits[0]);
    assert_eq!((hits[0].path.as_str(), hits[0].line), ("crates/service/src/handler.rs", 3));

    let allowed = Workspace::from_parts(vec![krate(
        "service",
        "crates/service",
        &[],
        &[("crates/service/src/handler.rs", PANIC_ALLOWED)],
    )]);
    assert!(rule_findings(&run_loaded(&allowed), "panic").is_empty());
}

#[test]
fn panic_scope_in_engine_is_try_fns_only() {
    let src = "\
/// Panicking spelling: out of scope for the rule.
pub fn add(&mut self) {
    self.inner.get(0).unwrap();
}
/// Fallible spelling: must actually be panic-free.
pub fn try_add(&mut self) -> Result<(), Error> {
    self.inner.get(0).unwrap();
}
";
    let ws = Workspace::from_parts(vec![krate(
        "engine",
        "crates/engine",
        &[],
        &[("crates/engine/src/thing.rs", src)],
    )]);
    let findings = run_loaded(&ws);
    let hits = rule_findings(&findings, "panic");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("try_add"), "{}", hits[0]);
}

// ---------------------------------------------------------------------------
// lock-order

const LOCK_BAD: &str = "\
fn publish(&self) {
    let stats = self.stats.lock().unwrap();
    let snap = self.snapshot.lock().unwrap();
    drop(snap);
    drop(stats);
}
fn report(&self) {
    let snap = self.snapshot.lock().unwrap();
    let stats = self.stats.lock().unwrap();
    drop(stats);
    drop(snap);
}
";

#[test]
fn lock_order_inversion_fires_and_allow_silences() {
    let ws = Workspace::from_parts(vec![krate(
        "service",
        "crates/service",
        &[],
        &[("crates/service/src/state.rs", LOCK_BAD)],
    )]);
    let findings = run_loaded(&ws);
    let hits = rule_findings(&findings, "lock-order");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("lock acquisition cycle"), "{}", hits[0]);

    // The cycle is anchored at its first edge site (state.rs:3, where the
    // second lock of `publish` is taken); an allow there silences it.
    let allowed = LOCK_BAD.replace(
        "    let snap = self.snapshot.lock().unwrap();\n    drop(snap);",
        "    // lint: allow(lock-order) — fixture: documented inversion\n    \
         let snap = self.snapshot.lock().unwrap();\n    drop(snap);",
    );
    assert_ne!(allowed, LOCK_BAD, "fixture patch must apply");
    let ws = Workspace::from_parts(vec![krate(
        "service",
        "crates/service",
        &[],
        &[("crates/service/src/state.rs", &allowed)],
    )]);
    assert!(rule_findings(&run_loaded(&ws), "lock-order").is_empty());
}

#[test]
fn lock_order_guard_across_send_fires_and_allow_silences() {
    let bad = "\
fn notify(&self) {
    let state = self.state.lock().unwrap();
    self.tx.send(state.revision).ok();
}
";
    let ws = Workspace::from_parts(vec![krate(
        "service",
        "crates/service",
        &[],
        &[("crates/service/src/notify.rs", bad)],
    )]);
    let findings = run_loaded(&ws);
    let hits = rule_findings(&findings, "lock-order");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("blocking"), "{}", hits[0]);

    let allowed = bad.replace(
        "    self.tx.send(",
        "    // lint: allow(lock-order) — fixture: bounded channel, capacity proven\n    self.tx.send(",
    );
    let ws = Workspace::from_parts(vec![krate(
        "service",
        "crates/service",
        &[],
        &[("crates/service/src/notify.rs", &allowed)],
    )]);
    assert!(rule_findings(&run_loaded(&ws), "lock-order").is_empty());
}

// ---------------------------------------------------------------------------
// ordering

const ORDERING_BAD: &str = "\
/// Bumps the counter.
pub fn bump(&self) {
    self.count.fetch_add(1, Ordering::Relaxed);
}
";

#[test]
fn unjustified_weak_ordering_fires_and_note_silences() {
    let ws = Workspace::from_parts(vec![krate(
        "engine",
        "crates/engine",
        &[],
        &[("crates/engine/src/counters.rs", ORDERING_BAD)],
    )]);
    let findings = run_loaded(&ws);
    let hits = rule_findings(&findings, "ordering");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("Ordering::Relaxed"), "{}", hits[0]);

    // A same-line `// ordering:` note is the canonical justification…
    let noted = ORDERING_BAD.replace(
        "Ordering::Relaxed);",
        "Ordering::Relaxed); // ordering: Relaxed — monotone statistic",
    );
    let ws = Workspace::from_parts(vec![krate(
        "engine",
        "crates/engine",
        &[],
        &[("crates/engine/src/counters.rs", &noted)],
    )]);
    assert!(rule_findings(&run_loaded(&ws), "ordering").is_empty());

    // …and a standalone blanket note covering the enclosing block works too.
    let blanket = ORDERING_BAD.replace(
        "    self.count",
        "    // ordering: Relaxed throughout — monotone statistics only\n    self.count",
    );
    let ws = Workspace::from_parts(vec![krate(
        "engine",
        "crates/engine",
        &[],
        &[("crates/engine/src/counters.rs", &blanket)],
    )]);
    assert!(rule_findings(&run_loaded(&ws), "ordering").is_empty());
}

// ---------------------------------------------------------------------------
// try-parity

const PARITY_BAD: &str = "\
impl QueryEngine {
    /// Adds an edge.
    ///
    /// # Panics
    /// Panics on unknown labels.
    pub fn add_edge(&mut self) {
        self.db.add_edge();
    }
}
";

#[test]
fn missing_try_twin_fires_and_allow_silences() {
    let ws = Workspace::from_parts(vec![krate(
        "engine",
        "crates/engine",
        &[],
        &[("crates/engine/src/query_engine.rs", PARITY_BAD)],
    )]);
    let findings = run_loaded(&ws);
    let hits = rule_findings(&findings, "try-parity");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].message.contains("`add_edge`"), "{}", hits[0]);

    // Delegating to a fallible method of the impl satisfies the rule — no
    // same-named twin required…
    let twinned = PARITY_BAD.replace(
        "        self.db.add_edge();\n",
        "        self.try_add_edges(&[edge]).unwrap_or_else(|e| panic!(\"{e}\"));\n",
    );
    assert_ne!(twinned, PARITY_BAD);
    let ws = Workspace::from_parts(vec![krate(
        "engine",
        "crates/engine",
        &[],
        &[("crates/engine/src/query_engine.rs", &twinned)],
    )]);
    assert!(rule_findings(&run_loaded(&ws), "try-parity").is_empty());

    // …and so does an explicit suppression on the offending header.
    let allowed = PARITY_BAD.replace(
        "    pub fn add_edge",
        "    // lint: allow(try-parity) — fixture: twin lands in the next PR\n    pub fn add_edge",
    );
    let ws = Workspace::from_parts(vec![krate(
        "engine",
        "crates/engine",
        &[],
        &[("crates/engine/src/query_engine.rs", &allowed)],
    )]);
    assert!(rule_findings(&run_loaded(&ws), "try-parity").is_empty());
}

// ---------------------------------------------------------------------------
// hygiene

const HYGIENE_BAD: &str = "\
//! A crate missing its hygiene attributes.
#![warn(missing_docs)]

/// Does nothing.
pub fn noop() {}
";

#[test]
fn missing_hygiene_attributes_fire_and_allow_silences() {
    let ws = Workspace::from_parts(vec![krate(
        "widget",
        "crates/widget",
        &[],
        &[("crates/widget/src/lib.rs", HYGIENE_BAD)],
    )]);
    let findings = run_loaded(&ws);
    let hits = rule_findings(&findings, "hygiene");
    assert_eq!(hits.len(), 2, "{findings:?}");
    assert!(hits.iter().any(|f| f.message.contains("forbid(unsafe_code)")));
    assert!(hits.iter().any(|f| f.message.contains("deny(missing_docs)")));

    // File-level findings anchor at line 1, so an allow there silences both.
    let allowed = HYGIENE_BAD.replace(
        "//! A crate missing its hygiene attributes.",
        "//! A crate missing its hygiene attributes.  lint: allow(hygiene)",
    );
    let ws = Workspace::from_parts(vec![krate(
        "widget",
        "crates/widget",
        &[],
        &[("crates/widget/src/lib.rs", &allowed)],
    )]);
    assert!(rule_findings(&run_loaded(&ws), "hygiene").is_empty());

    // A crate root's `pub mod` fires at its line; an allow naming who uses
    // the path silences it, and a private module with root re-exports is clean.
    let public_module =
        "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\n/// Parts.\npub mod parts;\n";
    let ws = Workspace::from_parts(vec![krate(
        "widget",
        "crates/widget",
        &[],
        &[("crates/widget/src/lib.rs", public_module)],
    )]);
    let findings = run_loaded(&ws);
    let hits = rule_findings(&findings, "hygiene");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].line, 5);
    assert!(hits[0].message.contains("pub mod parts"));
    for clean in [
        public_module.replace(
            "/// Parts.",
            "/// Parts.  lint: allow(hygiene) — `gadget` names `widget::parts`.",
        ),
        public_module.replace("pub mod parts;", "mod parts;\n\npub use parts::Part;"),
    ] {
        let ws = Workspace::from_parts(vec![krate(
            "widget",
            "crates/widget",
            &[],
            &[("crates/widget/src/lib.rs", &clean)],
        )]);
        assert!(
            rule_findings(&run_loaded(&ws), "hygiene").is_empty(),
            "{clean}"
        );
    }
}

// ---------------------------------------------------------------------------
// regex-funnel

const FUNNEL_BAD: &str = "\
/// Compiles a view the old way.
pub fn view_automaton(view: &Regex, domain: &Alphabet) -> DenseNfa {
    DenseNfa::from_nfa(&regexlang::thompson(view, domain).expect(\"over the domain\"))
}
";

const FUNNEL_GOOD: &str = "\
/// Compiles a view through the one funnel.
pub fn view_automaton(view: &Regex, domain: &Alphabet) -> DenseNfa {
    regexlang::compile(view, domain).expect(\"over the domain\")
}

#[cfg(test)]
mod tests {
    #[test]
    fn agrees_with_thompson() {
        let oracle = regexlang::thompson(&view(), &domain()).unwrap();
    }
}
";

#[test]
fn thompson_outside_regexlang_fires_and_the_funnel_tests_and_exempt_crates_are_clean() {
    let in_crate = |name: &str, text: &str| {
        let path = format!("crates/{name}/src/views.rs");
        Workspace::from_parts(vec![krate(name, &format!("crates/{name}"), &[], &[(&path, text)])])
    };
    for name in ["graphdb", "engine", "service", "rpq", "rewriter", "tiling", "bench"] {
        let findings = run_loaded(&in_crate(name, FUNNEL_BAD));
        let hits = rule_findings(&findings, "regex-funnel");
        assert_eq!(hits.len(), 1, "{name}: {findings:?}");
        assert_eq!((hits[0].line, hits[0].path.as_str()), (3, &*format!("crates/{name}/src/views.rs")));
        assert!(hits[0].message.contains("regexlang::compile"), "{}", hits[0]);

        // The funnel itself, with Thompson as its test oracle, is clean …
        assert!(rule_findings(&run_loaded(&in_crate(name, FUNNEL_GOOD)), "regex-funnel").is_empty());
        // … and one finding is suppressible like any other.
        let allowed = FUNNEL_BAD.replace(
            "    DenseNfa::from_nfa",
            "    // lint: allow(regex-funnel) — fixture: an ε-NFA is what this caller wants\n    DenseNfa::from_nfa",
        );
        assert!(rule_findings(&run_loaded(&in_crate(name, &allowed)), "regex-funnel").is_empty());
    }
    // The crate that defines Thompson's construction, and the oracles.
    for name in ["regexlang", "testkit"] {
        assert!(rule_findings(&run_loaded(&in_crate(name, FUNNEL_BAD)), "regex-funnel").is_empty());
    }
}

// ---------------------------------------------------------------------------
// the committed workspace

#[test]
fn committed_workspace_is_clean() {
    // crates/analysis/ → the workspace root two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let findings = run_workspace(root).expect("workspace loads");
    assert!(
        findings.is_empty(),
        "committed workspace must lint clean:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
