//! Workload generators shared by the repo benchmark (`benchmark/`) and the
//! `experiments` binary.
//!
//! Every generator is seeded and deterministic so the experiment tables and
//! the benchmark's workloads can be regenerated exactly.

use automata::{Alphabet, DenseNfa};
use graphdb::{random_graph, GraphDb, RandomGraphConfig};
use regexlang::{random_regex, random_views, RandomRegexConfig, Regex};
use rewriter::{RewriteProblem, View, ViewSet};
use rpq::RpqRewriteProblem;

/// Parameters for random rewriting problems (experiments E5/E11).
#[derive(Debug, Clone)]
pub struct RandomProblemConfig {
    /// Number of symbols of the base alphabet Σ.
    pub alphabet_size: usize,
    /// Target AST size of the query expression.
    pub query_size: usize,
    /// Number of views.
    pub num_views: usize,
    /// Target AST size of each view expression.
    pub view_size: usize,
}

impl Default for RandomProblemConfig {
    fn default() -> Self {
        Self {
            alphabet_size: 3,
            query_size: 12,
            num_views: 3,
            view_size: 5,
        }
    }
}

/// Generates a random rewriting problem (query + views over a shared
/// alphabet).
pub fn random_problem(config: &RandomProblemConfig, seed: u64) -> RewriteProblem {
    let alphabet = alphabet_of_size(config.alphabet_size);
    let query_cfg = RandomRegexConfig {
        target_size: config.query_size,
        ..Default::default()
    };
    let view_cfg = RandomRegexConfig {
        target_size: config.view_size,
        ..Default::default()
    };
    let query = random_regex(&alphabet, &query_cfg, seed);
    let views: Vec<View> = random_views(&alphabet, &view_cfg, config.num_views, seed ^ 0x9e37)
        .into_iter()
        .enumerate()
        .map(|(i, def)| View::new(format!("v{i}"), ensure_nonempty(def, &alphabet)))
        .collect();
    let view_set = ViewSet::new(alphabet, views).expect("generated views are well-formed");
    RewriteProblem::new(query, view_set).expect("generated query is over the alphabet")
}

/// The classic determinization worst case `(a+b)*·a·(a+b)^k` (experiment E6),
/// compiled through [`regexlang::compile`]: its minimal DFA needs `2^(k+1)`
/// states.
pub fn determinization_family(k: usize) -> (Regex, DenseNfa) {
    let alphabet = Alphabet::from_chars(['a', 'b']).expect("distinct");
    let any = Regex::symbol("a").or(Regex::symbol("b"));
    let mut expr = any.clone().star().then(Regex::symbol("a"));
    for _ in 0..k {
        expr = expr.then(any.clone());
    }
    let nfa = regexlang::compile(&expr, &alphabet).expect("expression over {a,b}");
    (expr, nfa)
}

/// The determinization blow-up family turned into a rewriting problem: the
/// query `(a+b)*·a·(a+b)^k` (whose `A_d` needs `2^(k+1)` states) with the
/// identity views plus one composite view.  Stresses every stage of the
/// Theorem 2.2 construction — subset construction, minimization, and one
/// reachability sweep per view over the exponentially large `A_d` — which is
/// exactly where the dense pipeline separates from the tree baseline.
pub fn blowup_rewriting_problem(k: usize) -> RewriteProblem {
    let (expr, _) = determinization_family(k);
    let alphabet = Alphabet::from_chars(['a', 'b']).expect("distinct");
    let views = vec![
        View::new("va", Regex::symbol("a")),
        View::new("vb", Regex::symbol("b")),
        View::new("vab", Regex::symbol("a").then(Regex::symbol("b"))),
    ];
    let view_set = ViewSet::new(alphabet, views).expect("fixed views are well-formed");
    RewriteProblem::new(expr, view_set).expect("family query is over {a,b}")
}

/// A full RPQ workload: a database, a label-based RPQ rewriting problem, and
/// the query string, for experiments E9/E10.
#[derive(Debug, Clone)]
pub struct RpqWorkload {
    /// The database to evaluate over.
    pub db: GraphDb,
    /// The rewriting problem (query + views + elementary theory).
    pub problem: RpqRewriteProblem,
}

/// Generates an RPQ workload over a `{a,b,c,d}` label domain: a random graph
/// plus the Figure 1-style query and views lifted to that domain.
pub fn random_rpq_workload(num_nodes: usize, num_edges: usize, seed: u64) -> RpqWorkload {
    let problem = RpqRewriteProblem::parse_labels(
        "a·(b·a+c)*·d?",
        [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c"), ("e4", "d")],
    )
    .expect("fixed workload problem is well-formed");
    let domain = problem.theory.domain().clone();
    let db = random_graph(
        &domain,
        &RandomGraphConfig {
            num_nodes,
            num_edges,
        },
        seed,
    );
    RpqWorkload { db, problem }
}

fn alphabet_of_size(k: usize) -> Alphabet {
    let letters: Vec<String> = (0..k.clamp(1, 26))
        .map(|i| ((b'a' + i as u8) as char).to_string())
        .collect();
    Alphabet::from_names(letters).expect("distinct letters")
}

/// Random view definitions occasionally denote the empty language (e.g. `∅`
/// sub-expressions); replace those by a single symbol so the view set stays
/// meaningful.
fn ensure_nonempty(def: Regex, alphabet: &Alphabet) -> Regex {
    if def.is_syntactically_empty() {
        Regex::symbol(alphabet.names().next().expect("nonempty alphabet"))
    } else {
        def
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::determinize_to_dense;

    #[test]
    fn random_problems_are_reproducible_and_solvable() {
        let cfg = RandomProblemConfig::default();
        let p1 = random_problem(&cfg, 3);
        let p2 = random_problem(&cfg, 3);
        assert_eq!(p1.query, p2.query);
        assert_eq!(p1.views.len(), cfg.num_views);
        // The pipeline runs without panicking on a handful of seeds.
        for seed in 0..5 {
            let problem = random_problem(&cfg, seed);
            let report = rewriter::run_and_report(&problem);
            assert!(!report.query.is_empty());
        }
    }

    #[test]
    fn determinization_family_blows_up() {
        let (expr, nfa) = determinization_family(6);
        assert!(expr.size() > 6);
        assert_eq!(determinize_to_dense(&nfa).dfa.num_states(), 1 << 7);
    }

    #[test]
    fn rpq_workload_is_consistent() {
        let w = random_rpq_workload(30, 90, 11);
        assert_eq!(w.db.num_nodes(), 30);
        assert_eq!(w.db.num_edges(), 90);
        assert!(w.db.domain().is_compatible(w.problem.theory.domain()));
        let rewriting = rpq::rewrite_rpq(&w.problem).unwrap();
        let cmp = rpq::compare_on_database(&w.db, &w.problem, &rewriting);
        assert!(cmp.sound);
    }
}
