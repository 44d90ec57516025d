//! `materialize` — batch answering through `engine`, every evaluation cold.
//!
//! Three graphs, three kinds of cost.  Six selective queries on a power-law
//! graph of 10⁵ nodes are *sweep-bound*: every source is swept, answers are
//! small.  Two closure queries on a dense random graph of 2000 nodes are
//! *merge- and answer-bound*: about 1.75 M pairs each.  The third graph has
//! community structure and carries the paper's Section 4 setting: an exact
//! rewriting of the query over four views, answered from the view extensions
//! alone.  The answer cache is off (`answer_cache_capacity: 0`), so nothing
//! is ever served from memory; almost all time is `graphdb::eval` and
//! `engine::parallel`, and `service` does nothing.
//!
//! Known cliffs the sizes avoid: a hot-label closure such as `a·(b·a+c)*` on
//! the power-law graph never finishes (the answer is about |V|²), so the
//! sparse queries only close over rare labels; evaluating a rewriting over
//! views is quadratic in |V| (0.15 / 0.6 / 2.5 s at 3000 / 6000 / 12 000
//! nodes, against milliseconds for direct evaluation), so the community graph
//! stays at 6000 nodes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use engine::{CompileCache, EngineConfig, EngineSnapshot, EngineStats, QueryEngine};
use graphdb::{
    community_graph, eval_csr, power_law_graph, random_graph, Answer, CommunityGraphConfig,
    MaterializedViews, PowerLawGraphConfig, RandomGraphConfig,
};
use rpq::{RpqRewriteProblem, RpqRewriting};

use crate::gen::{letters, stream, Digest, EdgeList, SHAPE_SEED};
use crate::harness::{Call, Ctx, Parent, Workload};
use crate::host::engine_threads;

const SPARSE: &str = "materialize_sparse_ms";
const DENSE: &str = "materialize_dense_ms";
const OVER_VIEWS: &str = "answer_over_views_ms";

/// Selective queries of the power-law graph (labels `a..h`, Zipf(1.0): `a`
/// is on 37 % of the edges, `h` on under 5 %).
pub const SPARSE_QUERIES: [&str; 6] = [
    "h·(f+g)*·e",
    "g·(e+h)*·f",
    "e·f*·(g+h)",
    "h·g*",
    "(f+g)·h*·e?",
    "d·(g+h)*",
];
/// Closure queries of the dense random graph (labels `a..d`, uniform).
const DENSE_QUERIES: [&str; 2] = ["a·(b·a+c)*·d?", "(a+b)*·c"];

/// The power-law graph shared with `serve_interactive`.
pub fn power_law_edges(ctx: &Ctx, salt: u64) -> EdgeList {
    let config = PowerLawGraphConfig {
        num_nodes: ctx.scale.pick(100_000, 4_000),
        num_edges: ctx.scale.pick(400_000, 16_000),
        label_exponent: 1.0,
    };
    EdgeList::from_shape(
        &power_law_graph(&letters(8), &config, SHAPE_SEED),
        &mut stream(ctx.seed, salt),
    )
}

/// The engine configuration of the cold workload.
fn cold_config() -> EngineConfig {
    EngineConfig {
        threads: engine_threads(),
        answer_cache_capacity: 0,
        ..EngineConfig::default()
    }
}

/// One graph with its queries and their reference digests.
struct QuerySet {
    edges: EdgeList,
    queries: &'static [&'static str],
    /// Digest and size of each query's answer under sequential
    /// `graphdb::eval_csr`.
    reference: Vec<(Digest, usize)>,
}

impl QuerySet {
    fn new(
        ctx: &mut Ctx,
        what: &str,
        edges: EdgeList,
        queries: &'static [&'static str],
    ) -> QuerySet {
        ctx.digest(&format!("{what}_graph"), edges.digest().hex());
        let csr = edges.build().csr_out();
        let compile = CompileCache::new();
        let mut all = Digest::default();
        let reference = queries
            .iter()
            .map(|query| {
                let regex = regexlang::parse(query).expect("fixed query parses");
                let answer = eval_csr(&csr, &compile.compile_regex(&edges.domain, &regex));
                let digest = Digest::of_pairs(answer.iter());
                all.u64(answer.len() as u64).str(&digest.hex());
                (digest, answer.len())
            })
            .collect();
        ctx.digest(&format!("{what}_answers"), all.hex());
        QuerySet {
            edges,
            queries,
            reference,
        }
    }

    /// Checks one pass of cold answers against the reference.
    fn check(&self, ctx: &mut Ctx, answers: &[Arc<Answer>]) {
        for ((query, answer), (digest, len)) in
            self.queries.iter().zip(answers).zip(&self.reference)
        {
            ctx.check(
                answer.len() == *len && Digest::of_pairs(answer.iter()) == *digest,
                || {
                    format!(
                        "{query}: {} pairs, sequential eval_csr gives {len}",
                        answer.len()
                    )
                },
            );
        }
    }
}

/// Generated inputs and reference answers.
pub struct Inputs {
    sparse: QuerySet,
    dense: QuerySet,
    community: EdgeList,
    problem: RpqRewriteProblem,
}

/// One complete set-up: three engines with a published snapshot each.
pub struct Materialize {
    sparse: Arc<EngineSnapshot>,
    dense: Arc<EngineSnapshot>,
    community: Arc<EngineSnapshot>,
    rewriting: RpqRewriting,
    /// Engines stay alive so the snapshots' shared state does.
    engines: Vec<QueryEngine>,
    window_stats: [EngineStats; 2],
}

fn cold_pass(snapshot: &EngineSnapshot, queries: &[&str]) -> Vec<Arc<Answer>> {
    queries
        .iter()
        .map(|query| snapshot.eval_str(query))
        .collect()
}

impl Materialize {
    fn sparse_pass(&self, inputs: &Inputs, ctx: &mut Ctx) {
        let answers = ctx.unit(SPARSE, "engine", "EngineSnapshot::eval_str x6", 1, || {
            cold_pass(&self.sparse, inputs.sparse.queries)
        });
        inputs.sparse.check(ctx, &answers);
    }
}

impl Workload for Materialize {
    type Inputs = Inputs;

    fn generate(ctx: &mut Ctx) -> Inputs {
        let sparse_edges = power_law_edges(ctx, 0x5041);
        let sparse = QuerySet::new(ctx, "sparse", sparse_edges, &SPARSE_QUERIES);
        let dense_config = RandomGraphConfig {
            num_nodes: ctx.scale.pick(2000, 300),
            num_edges: ctx.scale.pick(8000, 1200),
        };
        let dense_edges = EdgeList::from_shape(
            &random_graph(&letters(4), &dense_config, SHAPE_SEED),
            &mut stream(ctx.seed, 0x4445),
        );
        let dense = QuerySet::new(ctx, "dense", dense_edges, &DENSE_QUERIES);
        let community_config = CommunityGraphConfig {
            num_communities: ctx.scale.pick(12, 4),
            community_size: ctx.scale.pick(500, 100),
            num_edges: ctx.scale.pick(24_000, 1_600),
            intra_fraction: 0.9,
        };
        let community = EdgeList::from_shape(
            &community_graph(&letters(8), &community_config, SHAPE_SEED),
            &mut stream(ctx.seed, 0x434f),
        );
        ctx.digest("community_graph", community.digest().hex());
        let problem = RpqRewriteProblem::parse_labels(
            "h·(g·h+f)*·e?",
            [("e1", "h"), ("e2", "h·f*·g"), ("e3", "f"), ("e4", "e")],
        )
        .expect("fixed problem is well-formed");
        Inputs {
            sparse,
            dense,
            community,
            problem,
        }
    }

    fn setup(inputs: &Inputs, _ctx: &mut Ctx) -> Self {
        let mut sparse = QueryEngine::with_config(inputs.sparse.edges.build(), cold_config());
        let mut dense = QueryEngine::with_config(inputs.dense.edges.build(), cold_config());
        // The community graph's domain is `a..h`; the problem's theory only
        // knows the labels it mentions, which is all grounding needs.
        let mut community = QueryEngine::with_config(inputs.community.build(), cold_config());
        let rewriting = rpq::rewrite_rpq(&inputs.problem).expect("fixed problem rewrites");
        let community_snapshot = rpq::snapshot_for_problem(&mut community, &inputs.problem);
        community_snapshot.materialized_views();
        Materialize {
            sparse: sparse.publish_snapshot(),
            dense: dense.publish_snapshot(),
            community: community_snapshot,
            rewriting,
            engines: vec![sparse, dense, community],
            window_stats: [EngineStats::default(); 2],
        }
    }

    fn round(&mut self, inputs: &Inputs, ctx: &mut Ctx) {
        // The sparse pass is the short one (six parallel sections of
        // 10–50 ms, the most exposed to the scheduler), so a round holds
        // three of them around the two long units.
        self.sparse_pass(inputs, ctx);

        let answers = ctx.unit(DENSE, "engine", "EngineSnapshot::eval_str x2", 1, || {
            cold_pass(&self.dense, inputs.dense.queries)
        });
        inputs.dense.check(ctx, &answers);
        drop(answers);
        self.sparse_pass(inputs, ctx);

        let over_views = ctx.unit(
            OVER_VIEWS,
            "rpq",
            "rpq::answer_rewriting_over_views_at",
            1,
            || rpq::answer_rewriting_over_views_at(&self.community, &self.rewriting),
        );
        // Theorem 4.1: a rewriting's answer is contained in the query's, and
        // equals it when the rewriting is exact.
        let direct = rpq::answer_rpq_at(
            &self.community,
            &inputs.problem.query,
            &inputs.problem.theory,
        );
        let sound = over_views.is_subset(&direct);
        let complete = !self.rewriting.is_exact() || direct.is_subset(&over_views);
        ctx.check(sound && complete, || {
            format!(
                "over views {} pairs vs direct {} (sound {sound}, exact {})",
                over_views.len(),
                direct.len(),
                self.rewriting.is_exact()
            )
        });
        drop((over_views, direct));
        self.sparse_pass(inputs, ctx);
    }

    fn open_window(&mut self, _inputs: &Inputs, _ctx: &mut Ctx) {
        self.window_stats = [self.sparse.stats(), self.dense.stats()];
    }

    fn replay(&mut self, inputs: &Inputs, ctx: &mut Ctx) {
        use std::hint::black_box;
        let threads = engine_threads();
        let compile = CompileCache::new();

        // Cold evaluation, sparse and dense: what the engine adds on top of a
        // sequential sweep, and how a parallel evaluation splits.
        let mut busy_ms = 0.0;
        let mut pairs = 0usize;
        let mut split_ms = [0.0f64; 5];
        let (mut chunks, mut steals) = (0u64, 0u64);
        for (op, set, snapshot, engine_metric, graphdb_metric) in [
            (
                SPARSE,
                &inputs.sparse,
                &self.sparse,
                "engine.eval_cold_sparse_ms",
                "graphdb.eval_sparse_ms",
            ),
            (
                DENSE,
                &inputs.dense,
                &self.dense,
                "engine.eval_cold_dense_ms",
                "graphdb.eval_dense_ms",
            ),
        ] {
            let regexes: Vec<_> = set
                .queries
                .iter()
                .map(|q| regexlang::parse(q).expect("fixed query"))
                .collect();
            let dense: Vec<_> = regexes
                .iter()
                .map(|r| compile.compile_regex(&set.edges.domain, r))
                .collect();
            let cold = ctx.replay(
                Call::part(engine_metric, "engine", "EngineSnapshot::eval_regex"),
                Parent::Unit(op),
                1,
                || {
                    for regex in &regexes {
                        black_box(snapshot.eval_regex(regex));
                    }
                },
            );
            let sequential = ctx.replay(
                Call::info(graphdb_metric, "graphdb", "graphdb::eval_csr"),
                Parent::Span(cold.span),
                1,
                || {
                    dense
                        .iter()
                        .map(|nfa| eval_csr(snapshot.csr_out(), nfa).len())
                        .sum::<usize>()
                },
            );
            busy_ms += sequential.ms;
            pairs += sequential.out;
            for nfa in &dense {
                let started = Instant::now();
                let (answer, breakdown) =
                    engine::eval_csr_parallel_breakdown(snapshot.csr_out(), nfa, threads);
                let parallel_ms = started.elapsed().as_secs_f64() * 1e3;
                black_box(answer);
                let slowest = breakdown
                    .workers
                    .iter()
                    .map(|w| w.sweep_us)
                    .max()
                    .unwrap_or(0);
                for (total, part) in split_ms.iter_mut().zip([
                    parallel_ms,
                    breakdown.total_sweep_us() as f64 / 1e3,
                    slowest as f64 / 1e3,
                    breakdown.merge_us as f64 / 1e3,
                    breakdown.total_acquire_us() as f64 / 1e3,
                ]) {
                    *total += part;
                }
                chunks += breakdown.total_chunks();
                steals += breakdown.total_steals();
            }
        }
        // How the parallel evaluations split, summed over all eight queries:
        // total wall time, sweep time of all workers and of the slowest one
        // per query, merge, and chunk acquisition.
        for (metric, ms) in [
            "engine.parallel_ms",
            "engine.sweep_ms",
            "engine.sweep_max_ms",
            "engine.merge_ms",
            "engine.acquire_ms",
        ]
        .into_iter()
        .zip(split_ms)
        {
            ctx.sample(metric, ms);
        }
        ctx.count("engine.chunks", chunks as f64);
        ctx.count("engine.steals", steals as f64);
        ctx.count("graphdb.pairs_per_busy_s", pairs as f64 / (busy_ms / 1e3));
        ctx.count("graphdb.answer_pairs", pairs as f64);
        let sparse_regex = regexlang::parse(SPARSE_QUERIES[0]).expect("fixed query");
        ctx.replay(
            Call::info(
                "engine.compile_miss_us",
                "engine",
                "CompileCache::compile_regex (miss)",
            ),
            Parent::Unit(SPARSE),
            1,
            || {
                black_box(
                    CompileCache::new().compile_regex(&inputs.sparse.edges.domain, &sparse_regex),
                )
            },
        );

        // Set-up costs: freeze, engine construction, publish, views.
        let db = inputs.sparse.edges.build();
        ctx.replay(
            Call::info("graphdb.csr_freeze_ms", "graphdb", "GraphDb::csr_out"),
            Parent::Span(None),
            1,
            || black_box(db.csr_out()),
        );
        let mut fresh = ctx
            .replay(
                Call::info("engine.new_ms", "engine", "QueryEngine::with_config"),
                Parent::Span(None),
                1,
                || QueryEngine::with_config(db, cold_config()),
            )
            .out;
        ctx.replay(
            Call::info(
                "engine.publish_us",
                "engine",
                "QueryEngine::publish_snapshot",
            ),
            Parent::Span(None),
            1,
            || black_box(fresh.publish_snapshot()),
        );
        let mut fresh = QueryEngine::with_config(inputs.community.build(), cold_config());
        rpq::register_problem_views(&mut fresh, &inputs.problem);
        ctx.replay(
            Call::info(
                "engine.view_materialize_ms",
                "engine",
                "QueryEngine::materialized_views",
            ),
            Parent::Span(None),
            1,
            || black_box(fresh.materialized_views()),
        );

        // The Section 4 path and its parts.
        ctx.replay(
            Call::info("rpq.ground_us", "rpq", "Rpq::ground"),
            Parent::Span(None),
            1,
            || black_box(inputs.problem.query.ground(&inputs.problem.theory)),
        );
        ctx.replay(
            Call::info("rpq.rewrite_rpq_ms", "rpq", "rpq::rewrite_rpq"),
            Parent::Span(None),
            1,
            || black_box(rpq::rewrite_rpq(&inputs.problem).expect("rewrites")),
        );
        let over = ctx.replay(
            Call::part(
                "rpq.over_views_ms",
                "rpq",
                "rpq::answer_rewriting_over_views_at",
            ),
            Parent::Unit(OVER_VIEWS),
            1,
            || {
                black_box(rpq::answer_rewriting_over_views_at(
                    &self.community,
                    &self.rewriting,
                ))
            },
        );
        // Direct evaluation of the same query on the same graph, cold.
        let direct = ctx.replay(
            Call::info("rpq.direct_ms", "rpq", "rpq::answer_rpq_at"),
            Parent::Unit(OVER_VIEWS),
            1,
            || {
                black_box(rpq::answer_rpq_at(
                    &self.community,
                    &inputs.problem.query,
                    &inputs.problem.theory,
                ))
            },
        );
        ctx.count("rpq.over_views_vs_direct", over.ms / direct.ms);
        let views = self.community.materialized_views();
        ctx.count("rpq.view_tuples", views.total_tuples() as f64);
        let rewriting_nfa =
            compile.compile_dfa(views.view_alphabet(), &self.rewriting.maximal.automaton);
        ctx.replay(
            Call::part(
                "graphdb.views_eval_ms",
                "graphdb",
                "MaterializedViews::eval_dense_over_views",
            ),
            Parent::Span(over.span),
            1,
            || black_box(views.eval_dense_over_views(&rewriting_nfa)),
        );
        let extensions: BTreeMap<String, Arc<Answer>> = self
            .community
            .view_names()
            .map(|name| {
                let extension = self
                    .community
                    .view_extension(name)
                    .expect("registered view");
                (name.to_string(), Arc::new(extension.clone()))
            })
            .collect();
        ctx.replay(
            Call::info(
                "graphdb.view_graph_build_ms",
                "graphdb",
                "MaterializedViews::from_shared_extensions",
            ),
            Parent::Span(None),
            1,
            || {
                black_box(MaterializedViews::from_shared_extensions(
                    views.view_alphabet().clone(),
                    extensions,
                    self.community.num_nodes(),
                ))
            },
        );
    }

    fn close_window(&mut self, _inputs: &Inputs, ctx: &mut Ctx) {
        let delta = |f: fn(&EngineStats) -> u64| {
            (f(&self.sparse.stats()) - f(&self.window_stats[0]) + f(&self.dense.stats())
                - f(&self.window_stats[1])) as f64
        };
        ctx.count("engine.full_materializations", delta(|s| s.answer_misses));
        let (hits, misses) = (delta(|s| s.compile_hits), delta(|s| s.compile_misses));
        ctx.count("engine.compile_hit_share", hits / (hits + misses).max(1.0));
        let (hits, misses) = (delta(|s| s.answer_hits), delta(|s| s.answer_misses));
        ctx.count("engine.answer_hit_share", hits / (hits + misses).max(1.0));
    }

    fn teardown(self) {
        drop(self.engines);
    }
}
