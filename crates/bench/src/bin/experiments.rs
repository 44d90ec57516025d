//! Experiment harness: regenerates every figure, worked example, and
//! complexity-scaling experiment of the paper (E1–E12; each function's doc
//! comment names the figure, example or theorem it reproduces).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # quick set (E1–E4, E10–E12)
//! cargo run --release -p bench --bin experiments -- all     # everything
//! cargo run --release -p bench --bin experiments -- e5 e6   # selected ids
//! ```
//!
//! Results are printed as human-readable tables and also dumped as JSON to
//! `target/experiments/<id>.json`; nothing else is written.  The timings in
//! E5, E6, E10 and E11 illustrate the paper's scaling claims; the system's
//! performance is measured by `benchmark/` (see `BENCHMARK.json`), not here.

use std::fs;
use std::time::Instant;

use bench::{
    blowup_rewriting_problem, determinization_family, random_problem, random_rpq_workload,
    RandomProblemConfig,
};
use rewriter::{
    check_exactness_with, compute_maximal_rewriting, compute_maximal_rewriting_with,
    run_and_report, ExactnessStrategy, RewriteProblem, RewriterOptions,
};
use serde_json::{json, Value};

const ALL: [&str; 12] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
];
const QUICK: [&str; 7] = ["e1", "e2", "e3", "e4", "e10", "e11", "e12"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    if let Some(unknown) = args.iter().find(|a| *a != "all" && !ALL.contains(&a.as_str())) {
        eprintln!("unknown argument `{unknown}`\nusage: experiments [all | e1 … e12]");
        std::process::exit(2);
    }
    let selected: Vec<&str> = if args.is_empty() {
        QUICK.to_vec()
    } else if args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        ALL.iter().copied().filter(|id| args.iter().any(|a| a == id)).collect()
    };
    fs::create_dir_all("target/experiments").ok();
    for id in selected {
        let started = Instant::now();
        println!("\n================ {} ================", id.to_uppercase());
        let value = match id {
            "e1" => e1_figure1(),
            "e2" => e2_example21(),
            "e3" => e3_example23(),
            "e4" => e4_example41(),
            "e5" => e5_rewriting_scaling(),
            "e6" => e6_determinization(),
            "e7" => e7_lower_bound_family(),
            "e8" => e8_expspace_reduction(),
            "e9" => e9_rpq_semantics(),
            "e10" => e10_view_eval(),
            "e11" => e11_exactness(),
            "e12" => e12_partial_rewritings(),
            _ => unreachable!(),
        };
        let path = format!("target/experiments/{id}.json");
        fs::write(&path, serde_json::to_string_pretty(&value).expect("serializable")).ok();
        println!(
            "[{}] finished in {:.2?}; JSON written to {path}",
            id.to_uppercase(),
            started.elapsed()
        );
    }
}

/// E1 — Figure 1 / Examples 2.2 & 2.3: the full pipeline on the paper's
/// running example.
fn e1_figure1() -> Value {
    let problem = RewriteProblem::parse(
        "a·(b·a+c)*",
        [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")],
    )
    .expect("paper instance");
    let report = run_and_report(&problem);
    println!("query        : {}", report.query);
    println!("views        : {:?}", report.views);
    println!("rewriting    : {}   (paper: e2*·e1·e3*)", report.rewriting);
    println!("exact        : {}   (paper: exact)", report.exact);
    println!("A_d states   : {}", report.stats.query_dfa_states);
    println!("A' edges     : {}", report.stats.a_prime_transitions);
    json!({ "report": report, "expected_rewriting": "e2*·e1·e3*", "expected_exact": true })
}

/// E2 — Example 2.1: Σ- vs Σ_E-maximality on a* w.r.t. {a*}.
fn e2_example21() -> Value {
    let problem = RewriteProblem::parse("a*", [("e", "a*")]).expect("paper instance");
    let report = run_and_report(&problem);
    println!("query      : {}", report.query);
    println!("rewriting  : {}   (paper: e* — the Σ_E-maximal one)", report.rewriting);
    println!("exact      : {}", report.exact);
    json!({ "report": report, "expected_rewriting": "e*", "expected_exact": true })
}

/// E3 — Example 2.3 variant: dropping view c loses exactness.
fn e3_example23() -> Value {
    let problem =
        RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b")]).expect("instance");
    let report = run_and_report(&problem);
    println!("query        : {}", report.query);
    println!("rewriting    : {}   (paper: e2*·e1)", report.rewriting);
    println!("exact        : {}   (paper: not exact)", report.exact);
    println!("counterexample in L(E0) missed by the rewriting: {:?}", report.counterexample);
    json!({ "report": report, "expected_rewriting": "e2*·e1", "expected_exact": false })
}

/// E4 — Example 4.1: partial rewritings at the RPQ level.
fn e4_example41() -> Value {
    let problem = rpq::RpqRewriteProblem::parse_labels("a·(b+c)", [("q1", "a"), ("q2", "b")])
        .expect("paper instance");
    let before = rpq::rewrite_rpq(&problem).expect("rewrites");
    let partial = rpq::find_partial_rewriting(&problem).expect("partial rewriting exists");
    let added: Vec<String> = partial.added.iter().map(|v| v.symbol()).collect();
    println!("query                  : a·(b+c) with views {{q1:=a, q2:=b}}");
    println!("maximal rewriting      : {}   exact: {}", before.regex(), before.is_exact());
    println!("added atomic views     : {added:?}   (paper: the elementary view c)");
    println!("partial rewriting      : {}   exact: {}", partial.rewriting.regex(), partial.rewriting.is_exact());
    json!({
        "maximal_rewriting": before.regex().to_string(),
        "maximal_exact": before.is_exact(),
        "added_views": added,
        "partial_rewriting": partial.rewriting.regex().to_string(),
        "partial_exact": partial.rewriting.is_exact(),
    })
}

/// E5 — construction scaling (Theorem 3.1 upper bound): time and sizes vs
/// query size, with/without the minimization ablation.
fn e5_rewriting_scaling() -> Value {
    println!("{:>6} {:>6} {:>10} {:>10} {:>12} {:>12}", "|E0|", "k", "A_d", "R states", "t(min) ms", "t(nomin) ms");
    let mut rows = Vec::new();
    for &query_size in &[6usize, 10, 14, 18, 22, 26] {
        for &num_views in &[2usize, 4] {
            let cfg = RandomProblemConfig {
                alphabet_size: 3,
                query_size,
                num_views,
                view_size: 5,
            };
            let mut dfa_states = 0usize;
            let mut rewriting_states = 0usize;
            let mut time_min = 0.0f64;
            let mut time_nomin = 0.0f64;
            let seeds = 5u64;
            for seed in 0..seeds {
                let problem = random_problem(&cfg, seed * 37 + query_size as u64);
                let t0 = Instant::now();
                let with_min = compute_maximal_rewriting(&problem);
                time_min += t0.elapsed().as_secs_f64() * 1e3;
                let t1 = Instant::now();
                let _ = compute_maximal_rewriting_with(
                    &problem,
                    &RewriterOptions {
                        minimize_query_dfa: false,
                        ..Default::default()
                    },
                );
                time_nomin += t1.elapsed().as_secs_f64() * 1e3;
                dfa_states += with_min.stats.query_dfa_states;
                rewriting_states += with_min.stats.rewriting_states;
            }
            let n = seeds as f64;
            println!(
                "{:>6} {:>6} {:>10.1} {:>10.1} {:>12.2} {:>12.2}",
                query_size,
                num_views,
                dfa_states as f64 / n,
                rewriting_states as f64 / n,
                time_min / n,
                time_nomin / n
            );
            rows.push(json!({
                "query_size": query_size,
                "num_views": num_views,
                "avg_query_dfa_states": dfa_states as f64 / n,
                "avg_rewriting_states": rewriting_states as f64 / n,
                "avg_ms_with_minimization": time_min / n,
                "avg_ms_without_minimization": time_nomin / n,
            }));
        }
    }
    json!({ "rows": rows })
}

/// E6 — determinization blow-up underlying Theorems 3.1/3.4.
fn e6_determinization() -> Value {
    println!("{:>4} {:>12} {:>12} {:>12}", "k", "NFA states", "DFA states", "2^(k+1)");
    let mut rows = Vec::new();
    for k in [2usize, 4, 6, 8, 10, 12] {
        let (_, nfa) = determinization_family(k);
        let t0 = Instant::now();
        let dfa = automata::determinize(&nfa);
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        println!("{:>4} {:>12} {:>12} {:>12}", k, nfa.num_states(), dfa.num_states(), 1usize << (k + 1));
        rows.push(json!({
            "k": k,
            "nfa_states": nfa.num_states(),
            "dfa_states": dfa.num_states(),
            "lower_bound": 1usize << (k + 1),
            "ms": elapsed,
        }));
    }
    json!({ "rows": rows })
}

/// E7 — Theorem 3.4 family: poly-size instances with exponentially long
/// shortest rewriting words, plus the doubly exponential yardstick.
///
/// The shortest-word claim is validated at the word level (membership of the
/// unique width-`2^n` tiling word and rejection of every shorter candidate);
/// materializing the full rewriting automaton is what the theorem proves
/// infeasible, and is left to `cargo test -p tiling --release -- --ignored`.
fn e7_lower_bound_family() -> Value {
    println!(
        "{:>3} {:>14} {:>18} {:>18} {:>22}",
        "n", "instance size", "shortest |word|", "word accepted?", "Thm 3.4 yardstick |w_C|"
    );
    let mut rows = Vec::new();
    for n in 1usize..=3 {
        let enc = tiling::exponential_family(n);
        let instance_size = enc.instance_size();
        let width = enc.row_width();
        // The unique single-row tiling word: s · m^(width-2) · f.
        let mut word: Vec<&str> = vec!["s"];
        word.extend(std::iter::repeat_n("m", width - 2));
        word.push("f");
        let accepted = enc.word_in_rewriting(&word);
        // No shorter word of tiling shape exists: the only shorter candidate
        // lattice point is the empty word, and prefixes are rejected.
        let prefix_rejected = !enc.word_in_rewriting(&word[..width - 1]);
        let yardstick = tiling::counter_word_length(n as u32);
        println!(
            "{:>3} {:>14} {:>18} {:>18} {:>22}",
            n,
            instance_size,
            width,
            accepted && prefix_rejected,
            yardstick
        );
        rows.push(json!({
            "n": n,
            "instance_size": instance_size,
            "shortest_rewriting_word": width,
            "expected_shortest": 1usize << n,
            "tiling_word_accepted": accepted,
            "shorter_prefix_rejected": prefix_rejected,
            "counter_yardstick_length": yardstick.to_string(),
        }));
    }
    // Structural validation of the counter word itself.
    let wc = tiling::counter_word(4);
    println!("counter word w_C for a 4-bit counter: {} blocks (= 4·2^4)", wc.len());
    json!({ "rows": rows, "counter_word_blocks_width4": wc.len() })
}

/// E8 — the EXPSPACE reduction of Theorem 3.3 validated at n = 1 (row width
/// 2): the brute-force tiling solver and the word-level rewriting membership
/// agree on every candidate word of tiling shape.
fn e8_expspace_reduction() -> Value {
    let systems = [
        ("solvable_chain", tiling::TileSystem::solvable_chain()),
        ("striped", tiling::TileSystem::striped()),
        ("unsolvable", tiling::TileSystem::unsolvable()),
    ];
    println!(
        "{:>16} {:>14} {:>22} {:>10}",
        "tile system", "tiling exists", "witness in rewriting", "agree"
    );
    let mut rows = Vec::new();
    for (name, system) in systems {
        let witness = tiling::solve(&system, 2, 6);
        let tiling_exists = witness.is_some();
        let enc = tiling::EncodedTiling::encode(&system, 1);
        // Either the solver's witness word is accepted, or (for unsolvable
        // systems) every length-2 candidate is rejected.
        let rewriting_has_word = match &witness {
            Some(tiling) => {
                let word: Vec<String> = tiling.iter().flatten().cloned().collect();
                let refs: Vec<&str> = word.iter().map(String::as_str).collect();
                enc.word_in_rewriting(&refs)
            }
            None => {
                let tiles: Vec<&str> = system.tiles.iter().map(String::as_str).collect();
                tiles
                    .iter()
                    .any(|&a| tiles.iter().any(|&b| enc.word_in_rewriting(&[a, b])))
            }
        };
        let agree = tiling_exists == rewriting_has_word;
        println!(
            "{:>16} {:>14} {:>22} {:>10}",
            name, tiling_exists, rewriting_has_word, agree
        );
        rows.push(json!({
            "system": name,
            "tiling_exists": tiling_exists,
            "rewriting_has_tiling_word": rewriting_has_word,
            "instance_size": enc.instance_size(),
            "agree": agree,
        }));
    }
    json!({ "n": 1, "rows": rows })
}

/// E9 — RPQ rewriting semantics over random databases (soundness always,
/// completeness iff exact).
fn e9_rpq_semantics() -> Value {
    println!("{:>8} {:>8} {:>10} {:>10} {:>8} {:>10}", "nodes", "edges", "direct", "via views", "sound", "complete");
    let mut rows = Vec::new();
    for &(nodes, edges) in &[(50usize, 150usize), (100, 400), (200, 800), (400, 1600)] {
        for seed in 0..3u64 {
            let w = random_rpq_workload(nodes, edges, seed);
            let rewriting = rpq::rewrite_rpq(&w.problem).expect("workload rewrites");
            let cmp = rpq::compare_on_database(&w.db, &w.problem, &rewriting);
            println!(
                "{:>8} {:>8} {:>10} {:>10} {:>8} {:>10}",
                nodes, edges, cmp.direct_size, cmp.via_views_size, cmp.sound, cmp.complete
            );
            rows.push(json!({
                "nodes": nodes,
                "edges": edges,
                "seed": seed,
                "exact": rewriting.is_exact(),
                "comparison": cmp,
            }));
        }
    }
    json!({ "rows": rows })
}

/// E10 — cost of evaluating the query directly vs evaluating the rewriting
/// over materialized views (Theorem 4.2's answering from views; the rewriting
/// is exact, so by Theorem 4.1 both sides must return the same pairs).  The
/// closure's answer grows like |V|², which is what both columns follow.
fn e10_view_eval() -> Value {
    println!("{:>8} {:>8} {:>14} {:>14} {:>12}", "nodes", "edges", "direct ms", "via views ms", "view tuples");
    let mut rows = Vec::new();
    let sizes =
        [(50usize, 150usize), (100, 400), (200, 800), (400, 1600), (1600, 6400), (6400, 25600)];
    for &(nodes, edges) in &sizes {
        let w = random_rpq_workload(nodes, edges, 7);
        let rewriting = rpq::rewrite_rpq(&w.problem).expect("workload rewrites");
        let t0 = Instant::now();
        let direct = rpq::answer_rpq(&w.db, &w.problem.query, &w.problem.theory);
        let direct_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let views = rpq::materialize_views(&w.db, &w.problem);
        let over_views = automata::DenseNfa::from_dfa(&rewriting.maximal.automaton)
            .with_alphabet(views.view_alphabet().clone());
        let via = views.eval_dense_over_views(&over_views.trim());
        let views_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert!(rewriting.is_exact() && via == direct, "Theorem 4.1 violated at {nodes} nodes");
        println!(
            "{:>8} {:>8} {:>14.2} {:>14.2} {:>12}",
            nodes, edges, direct_ms, views_ms, views.total_tuples()
        );
        rows.push(json!({
            "nodes": nodes,
            "edges": edges,
            "direct_ms": direct_ms,
            "views_ms": views_ms,
            "direct_answers": direct.len(),
            "via_views_answers": via.len(),
            "view_tuples": views.total_tuples(),
        }));
    }
    json!({ "rows": rows })
}

/// E11 — exactness-check ablation: on-the-fly (Theorem 3.2) vs explicit
/// complement, on random problems and on the determinization blow-up family
/// `(a+b)*·a·(a+b)^k` for k = 6..12, whose expansion `B` grows to 81 920
/// states.  The two strategies must agree on every problem.
fn e11_exactness() -> Value {
    println!(
        "{:>16} {:>8} {:>16} {:>16}",
        "problem", "|B|", "on-the-fly ms", "explicit ms"
    );
    // Both strategies on one problem: (on-the-fly ms, explicit ms, |B|, exact).
    let time_both = |problem: &RewriteProblem| {
        let rewriting = compute_maximal_rewriting(problem);
        let t0 = Instant::now();
        let lazy = check_exactness_with(&rewriting, &problem.views, ExactnessStrategy::OnTheFly);
        let lazy_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let explicit = check_exactness_with(
            &rewriting,
            &problem.views,
            ExactnessStrategy::ExplicitComplement,
        );
        let explicit_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(lazy.exact, explicit.exact, "strategies must agree");
        (lazy_ms, explicit_ms, lazy.expansion_states, lazy.exact)
    };
    let mut rows = Vec::new();
    for &query_size in &[8usize, 12, 16, 20] {
        let cfg = RandomProblemConfig {
            alphabet_size: 3,
            query_size,
            num_views: 3,
            view_size: 5,
        };
        let (mut lazy_ms, mut explicit_ms, mut states) = (0.0, 0.0, 0);
        let seeds = 5u64;
        for seed in 0..seeds {
            let (lazy, explicit, b, _) =
                time_both(&random_problem(&cfg, seed * 101 + query_size as u64));
            lazy_ms += lazy;
            explicit_ms += explicit;
            states += b;
        }
        let n = seeds as f64;
        println!(
            "{:>16} {:>8.1} {:>16.3} {:>16.3}",
            format!("random |E0|={query_size}"),
            states as f64 / n,
            lazy_ms / n,
            explicit_ms / n
        );
        rows.push(json!({
            "query_size": query_size,
            "num_views": 3,
            "on_the_fly_ms": lazy_ms / n,
            "explicit_ms": explicit_ms / n,
        }));
    }
    for k in 6..=12 {
        let (lazy_ms, explicit_ms, states, exact) = time_both(&blowup_rewriting_problem(k));
        println!(
            "{:>16} {:>8} {:>16.3} {:>16.3}",
            format!("blow-up k={k}"),
            states,
            lazy_ms,
            explicit_ms
        );
        rows.push(json!({
            "blowup_k": k,
            "expansion_states": states,
            "exact": exact,
            "on_the_fly_ms": lazy_ms,
            "explicit_ms": explicit_ms,
        }));
    }
    json!({ "rows": rows })
}

/// E12 — partial rewritings: how many atomic views random instances need.
fn e12_partial_rewritings() -> Value {
    println!("{:>6} {:>10} {:>12} {:>16}", "seed", "exact?", "added views", "added nonelem");
    let mut rows = Vec::new();
    let mut histogram = std::collections::BTreeMap::new();
    for seed in 0..10u64 {
        let cfg = RandomProblemConfig {
            alphabet_size: 3,
            query_size: 8,
            num_views: 2,
            view_size: 3,
        };
        let base = random_problem(&cfg, seed * 13 + 1);
        // Lift the regex problem to the RPQ level with an elementary theory.
        let views: Vec<(String, rpq::Rpq)> = base
            .views
            .views()
            .map(|v| (v.symbol.clone(), rpq::Rpq::from_labels(v.definition.clone())))
            .collect();
        let theory = graphdb::Theory::elementary(base.views.sigma().clone());
        let problem = rpq::RpqRewriteProblem::new(
            rpq::Rpq::from_labels(base.query.clone()),
            views,
            theory,
        )
        .expect("lifted problem is well-formed");
        let was_exact = rpq::rewrite_rpq(&problem).map(|r| r.is_exact()).unwrap_or(false);
        let partial = rpq::find_partial_rewriting(&problem);
        let (added, nonelem) = partial
            .as_ref()
            .map(|p| (p.num_added(), p.num_added_nonelementary()))
            .unwrap_or((usize::MAX, usize::MAX));
        println!("{:>6} {:>10} {:>12} {:>16}", seed, was_exact, added, nonelem);
        *histogram.entry(added).or_insert(0usize) += 1;
        rows.push(json!({
            "seed": seed,
            "already_exact": was_exact,
            "added_atomic_views": added,
            "added_nonelementary": nonelem,
        }));
    }
    let histogram: Vec<Value> = histogram
        .into_iter()
        .map(|(added, count)| json!({ "added": added, "count": count }))
        .collect();
    json!({ "rows": rows, "histogram": histogram })
}
