//! The benchmark's metric tables: the workloads, the end-to-end operations
//! each one times, the slot of `BENCHMARK.json` each operation reports under,
//! and every per-layer metric of the traced run.
//!
//! **Slots.**  The driver's contract wants every end-to-end metric of
//! `BENCHMARK.json` from every workload, steady and never zero.  The
//! operations of the four workloads are disjoint on purpose (a workload
//! exists to bypass what another exercises), so an operation-named metric
//! would be meaningless in three workloads out of four.  The end-to-end
//! metrics are therefore `setup_s`, `peak_rss_mb` and four slots
//! `op1_ms … op4_ms`; [`WORKLOADS`] says which named operation a slot holds
//! in which workload.  Every human-readable line and `out/<workload>.json`
//! use the operation names; only the driver's last line uses slot names.

/// One timed end-to-end operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Name, with the unit it is printed in as suffix (`_us` or `_ms`).
    pub name: &'static str,
    /// What one sample is.
    pub what: &'static str,
}

impl Op {
    /// The unit the operation is printed in.
    pub fn unit(&self) -> &'static str {
        if self.name.ends_with("_us") {
            "us"
        } else {
            "ms"
        }
    }

    /// Converts a sample (always kept in milliseconds) to the printed unit.
    pub fn display(&self, ms: f64) -> f64 {
        if self.unit() == "us" {
            ms * 1e3
        } else {
            ms
        }
    }
}

/// One workload: its name, why it exists, and its four slots.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists and what its
    /// slots hold.
    pub why: &'static str,
    /// The operations behind `op1_ms … op4_ms`.
    pub ops: [Op; 4],
}

/// Fourth slot of the three-operation workloads: one whole round of the
/// script.
const ROUND: Op = Op {
    name: "round_ms",
    what: "sum of the unit times of one round of the script",
};

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "rewrite_offline",
        why: "Paper pipeline, no graph: op1 rewrite_typical (text to regex, per problem) op2 rewrite_hard (blow-up k=6..12) op3 rewrite_render op4 round; blind to graphdb/engine/service changes.",
        ops: [
            Op {
                name: "rewrite_typical_us",
                what: "block of 1024 problems, each text -> parse -> ViewSet/RewriteProblem -> rewriter::rewrite -> regex(); / 1024",
            },
            Op {
                name: "rewrite_hard_ms",
                what: "one pass over the blow-up family k=6..12: compute_maximal_rewriting + check_exactness, no rendering",
            },
            Op {
                name: "rewrite_render_ms",
                what: "regex() of the blow-up k=3 and k=4 rewritings plus the paper's examples",
            },
            ROUND,
        ],
    },
    WorkloadDef {
        name: "materialize",
        why: "Cold batch answering through engine: op1 materialize_sparse (sweep-bound, |V|=1e5) op2 materialize_dense (merge-bound, |V|=2000) op3 answer_over_views (Thm 4.2 path) op4 round; blind to service.",
        ops: [
            Op {
                name: "materialize_sparse_ms",
                what: "three passes of six selective queries, each a cold EngineSnapshot::eval_str on the power-law |V|=1e5 graph; / 3",
            },
            Op {
                name: "materialize_dense_ms",
                what: "two closure queries, cold, on the random |V|=2000 graph (about 1.75 M pairs each)",
            },
            Op {
                name: "answer_over_views_ms",
                what: "rpq::answer_rewriting_over_views_at on the community |V|=6000 graph, views already materialized",
            },
            ROUND,
        ],
    },
    WorkloadDef {
        name: "serve_interactive",
        why: "Read-only point traffic over TCP, blocks of 64 pipelined requests 7:2:1: op1 pair_read op2 from_read op3 hit_read (per request) op4 round; bypasses sweep/merge/repair entirely.",
        ops: [
            Op { name: "pair_read_us", what: "seven blocks of 64 pipelined single_pair requests / 448" },
            Op { name: "from_read_us", what: "two blocks of 64 pipelined reachable_from requests / 128" },
            Op {
                name: "hit_read_us",
                what: "one block of 64 pipelined query requests (limit 100) on resident answers / 64",
            },
            ROUND,
        ],
    },
    WorkloadDef {
        name: "serve_churn",
        why: "Writes beside reads over TCP, every read misses the revision-tagged caches: op1 insert (8 edges) op2 delete (8 edges, DRed) op3 cold_query op4 view_read; shows what caching costs.",
        ops: [
            Op {
                name: "insert_ms",
                what: "four add_edges round trips (8 edges each; three views repaired; publish) / 4",
            },
            Op {
                name: "delete_ms",
                what: "four remove_edges round trips (8 original edges each; DRed repair; publish) / 4",
            },
            Op {
                name: "cold_query_ms",
                what: "eight first-query-after-a-mutation round trips (limit 100; full materialization at the new revision) / 8",
            },
            Op { name: "view_read_ms", what: "four view round trips (the e2 extension) / 4" },
        ],
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Names of the slot metrics, in slot order.
pub const SLOTS: [&str; 4] = ["op1_ms", "op2_ms", "op3_ms", "op4_ms"];

/// Regression bound of every end-to-end metric: the contract's cap.  On the
/// 2-core shared VM this benchmark was defined on, ten runs of one build
/// spread (quartile distance ÷ median) by 1–3 % per operation in a quiet phase
/// and by 7–24 % while a neighbour is busy — phases that last minutes and
/// took up about half of the measuring sessions — and the driver refuses a
/// benchmark, and later every change, whose spread or A/A shift exceeds the
/// bound.  A tighter bound would reject innocent changes; use `aa.sh` and
/// paired runs (see the README) to resolve smaller differences.
pub const BOUND: f64 = 0.25;

/// Kind of a per-layer metric: decides its unit and what an unexercised
/// layer reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A time, sampled in milliseconds and printed in the given unit.
    Time(&'static str),
    /// A count or ratio with the given unit.
    Count(&'static str),
}

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit and kind.
    pub kind: Kind,
    /// `lower` or `higher`.
    pub better: &'static str,
}

impl LayerMetric {
    /// The unit string of `BENCHMARK.json`.
    pub fn unit(&self) -> &'static str {
        match self.kind {
            Kind::Time(unit) | Kind::Count(unit) => unit,
        }
    }
}

const fn t(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        kind: Kind::Time(unit),
        better: "lower",
    }
}

const fn c(name: &'static str, unit: &'static str, better: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        kind: Kind::Count(unit),
        better,
    }
}

/// Every per-layer metric, grouped by layer.  The end-to-end operation and
/// workload each one should move is tabulated in `README.md`.
pub const PER_LAYER: &[LayerMetric] = &[
    // regexlang
    t("regexlang.parse_us", "us"),
    t("regexlang.thompson_us", "us"),
    t("regexlang.state_elim_ms", "ms"),
    t("regexlang.simplify_ms", "ms"),
    c("regexlang.rendered_size", "count", "lower"),
    // automata
    t("automata.freeze_us", "us"),
    t("automata.det_min_typical_us", "us"),
    t("automata.determinize_ms", "ms"),
    t("automata.minimize_ms", "ms"),
    t("automata.containment_ms", "ms"),
    c("automata.dfa_states", "count", "lower"),
    // rewriter
    t("rewriter.maximal_typical_us", "us"),
    t("rewriter.maximal_ms", "ms"),
    t("rewriter.maximal_self_ms", "ms"),
    t("rewriter.exactness_ms", "ms"),
    t("rewriter.exactness_explicit_ms", "ms"),
    t("rewriter.expand_ms", "ms"),
    c("rewriter.rewriting_states", "count", "lower"),
    c("rewriter.rewriting_trimmed_states", "count", "lower"),
    c("rewriter.a_prime_transitions", "count", "lower"),
    c("rewriter.exact_share", "ratio", "higher"),
    // rpq
    t("rpq.ground_us", "us"),
    t("rpq.rewrite_rpq_ms", "ms"),
    t("rpq.over_views_ms", "ms"),
    t("rpq.direct_ms", "ms"),
    c("rpq.over_views_vs_direct", "ratio", "lower"),
    c("rpq.view_tuples", "count", "lower"),
    // graphdb
    t("graphdb.csr_freeze_ms", "ms"),
    t("graphdb.mutate_us", "us"),
    t("graphdb.eval_sparse_ms", "ms"),
    t("graphdb.eval_dense_ms", "ms"),
    c("graphdb.pairs_per_busy_s", "1/s", "higher"),
    c("graphdb.answer_pairs", "count", "lower"),
    t("graphdb.views_eval_ms", "ms"),
    t("graphdb.view_graph_build_ms", "ms"),
    t("graphdb.pair_us", "us"),
    t("graphdb.pair_p99_us", "us"),
    t("graphdb.from_us", "us"),
    t("graphdb.contains_ns", "ns"),
    // engine
    t("engine.new_ms", "ms"),
    t("engine.view_materialize_ms", "ms"),
    t("engine.publish_us", "us"),
    t("engine.eval_cold_sparse_ms", "ms"),
    t("engine.eval_cold_dense_ms", "ms"),
    t("engine.compile_miss_us", "us"),
    t("engine.parallel_ms", "ms"),
    t("engine.sweep_ms", "ms"),
    t("engine.sweep_max_ms", "ms"),
    t("engine.merge_ms", "ms"),
    t("engine.acquire_ms", "ms"),
    c("engine.chunks", "count", "lower"),
    c("engine.steals", "count", "lower"),
    t("engine.pair_us", "us"),
    t("engine.pair_resident_us", "us"),
    t("engine.from_topk_us", "us"),
    t("engine.from_drain_us", "us"),
    t("engine.from_hit_us", "us"),
    t("engine.eval_hit_us", "us"),
    c("engine.compile_hit_share", "ratio", "higher"),
    c("engine.answer_hit_share", "ratio", "higher"),
    c("engine.point_hit_share", "ratio", "higher"),
    c("engine.point_extension_hits", "count", "higher"),
    t("engine.add_edges_ms", "ms"),
    t("engine.remove_edges_ms", "ms"),
    t("engine.delta_pairs_ms", "ms"),
    t("engine.deletion_repair_ms", "ms"),
    c("engine.delta_repairs", "count", "lower"),
    c("engine.deletion_repairs", "count", "lower"),
    c("engine.support_skips", "count", "higher"),
    c("engine.overdeleted_pairs", "count", "lower"),
    c("engine.rederived_sources", "count", "lower"),
    c("engine.overdelete_survivor_share", "ratio", "lower"),
    c("engine.full_materializations", "count", "lower"),
    c("engine.answer_stale_evictions", "count", "lower"),
    c("engine.budget_interrupts", "count", "lower"),
    c("engine.repair_budget_drops", "count", "lower"),
    // service
    t("service.parse_frame_us", "us"),
    t("service.render_us", "us"),
    t("service.pair_self_us", "us"),
    t("service.from_self_us", "us"),
    t("service.hit_self_us", "us"),
    t("service.rtt_us", "us"),
    t("service.rtt_p99_us", "us"),
    c("service.response_bytes", "count", "lower"),
    t("service.write_wait_ms", "ms"),
    t("service.query_self_ms", "ms"),
    t("service.view_serialize_ms", "ms"),
    c("service.frames", "count", "lower"),
    c("service.protocol_errors", "count", "lower"),
    c("service.rejected", "count", "lower"),
    c("service.interrupted", "count", "lower"),
    // telemetry
    t("telemetry.record_ns", "ns"),
    c("telemetry.trace_flag_share", "ratio", "lower"),
    c("telemetry.trace_spans", "count", "lower"),
];

/// Scale factor from milliseconds to a time unit.
pub fn from_ms(unit: &str) -> f64 {
    match unit {
        "s" => 1e-3,
        "ms" => 1.0,
        "us" => 1e3,
        "ns" => 1e6,
        other => panic!("not a time unit: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = PER_LAYER
            .iter()
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .chain(SLOTS)
            .chain(["setup_s", "peak_rss_mb"]);
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch)));
        }
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why has {} characters",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
        for m in PER_LAYER {
            if let Kind::Time(unit) = m.kind {
                assert!(
                    m.name.ends_with(&format!("_{unit}")),
                    "{} is not in {unit}",
                    m.name
                );
                assert!(from_ms(unit) > 0.0);
            }
        }
    }

    #[test]
    fn ops_print_in_their_suffix_unit() {
        let pair = WORKLOADS[2].ops[0];
        assert_eq!(pair.unit(), "us");
        assert_eq!(pair.display(0.077), 77.0);
        assert_eq!(ROUND.display(3.5), 3.5);
        assert!(workload("serve_churn").is_some() && workload("nope").is_none());
    }
}
