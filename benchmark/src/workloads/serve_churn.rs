//! `serve_churn` — the same service used the other way: writes beside reads.
//!
//! A random graph of 1000 nodes and 4000 edges carries three materialized
//! views (one of them a closure of about 4·10⁵ tuples).  Each round removes a
//! batch of 8 original edges, queries, probes a block of pairs, reads a view,
//! re-inserts the batch removed two rounds earlier, and queries again:
//!
//! `remove_edges → query → single_pair block → view e2 → add_edges → query`
//!
//! Every read after a write misses the revision-tagged caches, so a caching
//! trick that wins on `serve_interactive` shows its cost here, and insert
//! against delete exposes the asymmetry of DRed repair.  The script is
//! stationary: two batches are out at any time, whatever the window length.

use std::sync::Arc;

use automata::Symbol;
use engine::{CompileCache, EngineStats, QueryEngine};
use graphdb::{random_graph, Answer, GraphDb, RandomGraphConfig};
use rand::Rng;
use serde_json::{json, Value};
use service::{protocol, Server, ServiceStatsSnapshot};

use super::serve_interactive::{
    check_reply, count_service_deltas, reply_pairs, service_config, Block, Request, BLOCK,
};
use crate::gen::{letters, node_name, shuffle, stream, Digest, EdgeList, SHAPE_SEED};
use crate::harness::{Call, Ctx, Parent, Workload};
use crate::wire::{frame, Client};

const INSERT: &str = "insert_ms";
const DELETE: &str = "delete_ms";
const COLD: &str = "cold_query_ms";
const VIEW: &str = "view_read_ms";
/// The pair block keeps reads between the writes; it is not a metric.
const PAIRS: &str = "churn_pair_block";

/// Edges per mutation batch.
pub const BATCH: usize = 8;
/// A batch is re-inserted this many rounds after it was removed.
pub const REINSERT_AFTER: usize = 2;
/// Distinct batches; the script cycles through them, one per round.
pub const BATCHES: usize = 4;
/// The oracle compares against the shadow database every this many rounds.
const ORACLE_EVERY: usize = 5;

const VIEWS: [(&str, &str); 3] = [("vq", "a·(b·a+c)*·d?"), ("e2", "a·c*·b"), ("e3", "c")];
const QUERY: &str = "(a+b)*·c";

type Triple = (usize, Symbol, usize);
type Counter = fn(&EngineStats) -> u64;

/// Generated inputs.
pub struct Inputs {
    edges: EdgeList,
    /// [`BATCHES`] batches of [`BATCH`] original edges; round `r` removes
    /// batch `r mod BATCHES`.
    removal_order: Vec<Triple>,
    /// One block of uniform pairs on [`QUERY`] per script position.
    pair_blocks: Vec<Block>,
}

impl Inputs {
    /// The batch removed in round `r`.
    pub fn batch(&self, r: usize) -> &[Triple] {
        let start = (r % BATCHES) * BATCH;
        &self.removal_order[start..start + BATCH]
    }

    fn batch_frame(&self, op: &str, batch: &[Triple]) -> String {
        let edges: Vec<Value> = batch
            .iter()
            .map(|&(from, label, to)| {
                json!([
                    node_name(from),
                    self.edges.domain.name(label).to_string(),
                    node_name(to)
                ])
            })
            .collect();
        frame(json!({ "id": 0, "op": op, "edges": edges }))
    }
}

/// The script's effect on a database, for the shadow oracle and the
/// stationarity test: round `r` removes batch `r`...
pub fn apply_removal(db: &mut GraphDb, batch: &[Triple]) -> bool {
    batch
        .iter()
        .all(|&(from, label, to)| db.remove_edge(from, label, to))
}

/// ...and re-inserts batch `r - REINSERT_AFTER`.
pub fn apply_insertion(db: &mut GraphDb, batch: &[Triple]) {
    for &(from, label, to) in batch {
        db.add_edge(from, label, to);
    }
}

/// In-process twin of the server's engine, fed the same mutation stream.
struct Twin {
    engine: QueryEngine,
    window_stats: EngineStats,
}

/// One complete set-up: a server with three views, one connection, and the
/// shadow database of the oracle.
pub struct ServeChurn {
    server: Server,
    client: Client,
    shadow: GraphDb,
    round: usize,
    replies: Vec<String>,
    twin: Option<Twin>,
    window_service: ServiceStatsSnapshot,
    /// Size of the last `view e2` reply, for the replay.
    view_reply: String,
}

fn ok_reply(reply: &std::io::Result<String>) -> Result<Value, String> {
    let reply = reply.as_ref().map_err(|e| e.to_string())?;
    let value =
        serde_json::from_str(reply.trim_end()).map_err(|_| "reply is not JSON".to_string())?;
    if value["ok"].as_bool() == Some(true) {
        Ok(value)
    } else {
        Err(format!("error reply {}", reply.trim_end()))
    }
}

impl ServeChurn {
    /// One mutation round trip as a timed unit, mirrored on the shadow.
    fn mutate(&mut self, inputs: &Inputs, ctx: &mut Ctx, op: &'static str, batch: &[Triple]) {
        let removing = op == DELETE;
        let wire_op = if removing {
            "remove_edges"
        } else {
            "add_edges"
        };
        let request = inputs.batch_frame(wire_op, batch);
        let reply = ctx.unit(op, "service", wire_op, 1, || {
            self.client.roundtrip(&request)
        });
        let verdict = ok_reply(&reply).and_then(|value| {
            (value["applied"].as_u64() == Some(BATCH as u64))
                .then_some(())
                .ok_or_else(|| format!("{wire_op}: applied {:?}", value["applied"]))
        });
        ctx.check(verdict.is_ok(), || verdict.unwrap_err());
        if removing {
            let present = apply_removal(&mut self.shadow, batch);
            ctx.check(present, || {
                "the script removed an edge the shadow does not have".to_string()
            });
        } else {
            apply_insertion(&mut self.shadow, batch);
        }
        if self.twin.is_some() {
            self.mirror_on_twin(inputs, ctx, op, batch);
        }
    }

    /// Traced run: applies the mutation the server just applied to the twin
    /// engine, as child spans of the round trip, and replays the repair of
    /// the closure view through the public delta entry points.
    fn mirror_on_twin(
        &mut self,
        inputs: &Inputs,
        ctx: &mut Ctx,
        op: &'static str,
        batch: &[Triple],
    ) {
        let removing = op == DELETE;
        let twin = self.twin.as_mut().expect("only called in the traced run");
        let (round_trip_ms, _) = ctx.last_unit(op);
        let names: Vec<(String, String, String)> = batch
            .iter()
            .map(|&(f, l, t)| {
                (
                    node_name(f),
                    inputs.edges.domain.name(l).to_string(),
                    node_name(t),
                )
            })
            .collect();
        let refs: Vec<(&str, &str, &str)> = names
            .iter()
            .map(|(f, l, t)| (f.as_str(), l.as_str(), t.as_str()))
            .collect();
        // The DRed replay needs the closure view and both freezes from
        // before the deletion.
        let before = removing.then(|| {
            let extension = twin
                .engine
                .view_extension("vq")
                .expect("registered")
                .clone();
            (
                twin.engine.db().csr_out(),
                twin.engine.db().csr_in(),
                extension,
            )
        });
        let engine = &mut twin.engine;
        let (metric, call) = if removing {
            (
                "engine.remove_edges_ms",
                "QueryEngine::try_remove_edges_named",
            )
        } else {
            ("engine.add_edges_ms", "QueryEngine::try_add_edges_named")
        };
        let applied = ctx.replay(
            Call::part(metric, "engine", call),
            Parent::Unit(op),
            1,
            || {
                if removing {
                    engine.try_remove_edges_named(&refs)
                } else {
                    engine.try_add_edges_named(&refs)
                }
            },
        );
        ctx.check(applied.out.is_ok(), || {
            "the twin engine rejected a scripted mutation".to_string()
        });
        ctx.replay(
            Call::part(
                "engine.publish_us",
                "engine",
                "QueryEngine::publish_snapshot",
            ),
            Parent::Unit(op),
            1,
            || std::hint::black_box(engine.publish_snapshot()),
        );
        ctx.sample(
            "service.write_wait_ms",
            (round_trip_ms - applied.ms).max(0.0),
        );

        // The repair of the closure view alone, on the freezes the engine
        // itself works from.
        let compile = CompileCache::new();
        let view = compile.compile_regex(
            &inputs.edges.domain,
            &regexlang::parse(VIEWS[0].1).expect("fixed view parses"),
        );
        let reverse = view.reverse_closed();
        let (csr_out, csr_in) = (engine.db().csr_out(), engine.db().csr_in());
        let parent = Parent::Span(applied.span);
        match before {
            None => {
                ctx.replay(
                    Call::part("engine.delta_pairs_ms", "engine", "engine::delta_pairs"),
                    parent,
                    1,
                    || {
                        for &(from, label, to) in batch {
                            std::hint::black_box(engine::delta_pairs(
                                &csr_out, &csr_in, &view, &reverse, from, label, to,
                            ));
                        }
                    },
                );
            }
            Some((old_out, old_in, mut pairs)) => {
                let cached = pairs.len();
                let report = ctx
                    .replay(
                        Call::part(
                            "engine.deletion_repair_ms",
                            "engine",
                            "engine::deletion_repair",
                        ),
                        parent,
                        1,
                        || {
                            engine::deletion_repair(
                                &old_out, &old_in, &csr_out, &view, &reverse, batch, &mut pairs,
                            )
                        },
                    )
                    .out;
                // Useful ÷ attempted: of the pairs over-deletion removed,
                // the share that re-derivation did not have to put back.
                let gone = cached - pairs.len();
                ctx.count(
                    "engine.overdelete_survivor_share",
                    gone as f64 / (report.overdeleted_pairs as f64).max(1.0),
                );
            }
        }
    }

    /// One `query` round trip as a timed unit; `oracle` compares it with the
    /// shadow database.
    fn cold_query(&mut self, ctx: &mut Ctx, oracle: Option<&Answer>) {
        let request = frame(json!({ "id": 0, "op": "query", "q": QUERY, "limit": 100 }));
        let reply = ctx.unit(COLD, "service", "query", 1, || {
            self.client.roundtrip(&request)
        });
        let verdict = match (oracle, &reply) {
            (Some(reference), Ok(reply)) => check_reply(
                &Request::Hit { q: 0 },
                0,
                reply,
                std::slice::from_ref(reference),
            ),
            _ => ok_reply(&reply).map(|_| ()),
        };
        ctx.check(verdict.is_ok(), || verdict.unwrap_err());
        if let Some(twin) = &self.twin {
            let (round_trip_ms, _) = ctx.last_unit(COLD);
            let snapshot = twin
                .engine
                .retained_snapshots()
                .last()
                .expect("serving config retains")
                .clone();
            let evaluated = ctx.replay(
                Call::part(
                    "engine.eval_cold_dense_ms",
                    "engine",
                    "EngineSnapshot::eval_str",
                ),
                Parent::Unit(COLD),
                1,
                || std::hint::black_box(snapshot.eval_str(QUERY)),
            );
            ctx.sample(
                "service.query_self_ms",
                (round_trip_ms - evaluated.ms).max(0.0),
            );
        }
    }
}

impl Workload for ServeChurn {
    type Inputs = Inputs;

    /// Two rounds, so that two batches are out when the window opens and
    /// every timed round both removes and re-inserts.
    const WARMUP_ROUNDS: usize = REINSERT_AFTER;

    /// One sample covers every batch once.
    const CYCLE: usize = BATCHES;

    fn generate(ctx: &mut Ctx) -> Inputs {
        let config = RandomGraphConfig {
            num_nodes: ctx.scale.pick(1000, 200),
            num_edges: ctx.scale.pick(4000, 800),
        };
        let edges = EdgeList::from_shape(
            &random_graph(&letters(4), &config, SHAPE_SEED),
            &mut stream(ctx.seed, 0x4348),
        );
        ctx.digest("graph", edges.digest().hex());
        // The mutation script is part of the shape (see `gen`): what a batch
        // costs depends on where its edges sit in the closure (30–135 ms for
        // an insertion), and a run only has time for a few dozen mutations,
        // so the batches are the same whatever the seed and every sample
        // covers all of them.  Every batch takes the same number of edges of
        // each label.
        let mut shuffled = edges.edges.clone();
        shuffled.sort_unstable();
        shuffle(&mut shuffled, &mut stream(SHAPE_SEED, 0x4d55));
        let labels = edges.domain.len();
        let per_label = BATCH / labels;
        let mut by_label: Vec<Vec<Triple>> = vec![Vec::new(); labels];
        for edge in shuffled {
            if by_label[edge.1.index()].len() < per_label * BATCHES {
                by_label[edge.1.index()].push(edge);
            }
        }
        let mut removal_order = Vec::with_capacity(BATCHES * BATCH);
        for batch in 0..BATCHES {
            for group in &by_label {
                removal_order.extend_from_slice(&group[batch * per_label..(batch + 1) * per_label]);
            }
        }
        let mut rng = stream(ctx.seed, 0x4d55);
        let mut script = Digest::default();
        for &(from, label, to) in &removal_order {
            script
                .u64(from as u64)
                .u64(u64::from(label.0))
                .u64(to as u64);
        }
        let queries = vec![QUERY.to_string()];
        let pair_blocks: Vec<Block> = (0..32)
            .map(|_| {
                let requests = (0..BLOCK)
                    .map(|_| Request::Pair {
                        q: 0,
                        from: rng.gen_range(0..edges.num_nodes),
                        to: rng.gen_range(0..edges.num_nodes),
                    })
                    .collect();
                Block::new(PAIRS, &queries, requests, false)
            })
            .collect();
        for block in &pair_blocks {
            script.str(block.text());
        }
        ctx.digest("mutation_and_request_script", script.hex());
        Inputs {
            edges,
            removal_order,
            pair_blocks,
        }
    }

    fn setup(inputs: &Inputs, ctx: &mut Ctx) -> Self {
        let server =
            Server::start(inputs.edges.build_named(), service_config()).expect("server starts");
        let mut client = Client::connect(server.addr()).expect("connects over loopback");
        for (name, regex) in VIEWS {
            let reply = client.roundtrip(&frame(
                json!({ "id": 0, "op": "register_view", "name": name, "regex": regex }),
            ));
            let verdict = ok_reply(&reply);
            ctx.check(verdict.is_ok(), || verdict.unwrap_err().to_string());
        }
        let twin = ctx.tracer.enabled().then(|| {
            let mut engine =
                QueryEngine::with_config(inputs.edges.build_named(), service_config().engine);
            for (name, regex) in VIEWS {
                engine.register_view(name, regexlang::parse(regex).expect("fixed view parses"));
            }
            engine.publish_snapshot();
            Twin {
                engine,
                window_stats: EngineStats::default(),
            }
        });
        let window_service = server.stats();
        ServeChurn {
            server,
            client,
            shadow: inputs.edges.build_named(),
            round: 0,
            replies: Vec::new(),
            twin,
            window_service,
            view_reply: String::new(),
        }
    }

    fn round(&mut self, inputs: &Inputs, ctx: &mut Ctx) {
        let r = self.round;
        self.round += 1;
        let oracle_round = r.is_multiple_of(ORACLE_EVERY);

        self.mutate(inputs, ctx, DELETE, inputs.batch(r));
        let reference = oracle_round.then(|| graphdb::eval_str(&self.shadow, QUERY));
        self.cold_query(ctx, reference.as_ref());

        let block = &inputs.pair_blocks[r % inputs.pair_blocks.len()];
        let sent = ctx.unit(PAIRS, "service", "pipelined block of 64", BLOCK, || {
            self.client.block(block.text(), BLOCK, &mut self.replies)
        });
        ctx.check(sent.is_ok(), || "pair block failed".to_string());
        if let (Ok(()), Some(reference)) = (&sent, &reference) {
            let references = std::slice::from_ref(reference);
            for (id, (request, reply)) in block.requests().iter().zip(&self.replies).enumerate() {
                let verdict = check_reply(request, id, reply, references);
                ctx.check(verdict.is_ok(), || verdict.unwrap_err());
            }
        }

        let request = frame(json!({ "id": 0, "op": "view", "name": "e2" }));
        let reply = ctx.unit(VIEW, "service", "view", 1, || {
            self.client.roundtrip(&request)
        });
        let verdict = ok_reply(&reply).and_then(|value| {
            if !oracle_round {
                return Ok(());
            }
            let reference = graphdb::eval_str(&self.shadow, VIEWS[1].1);
            (Digest::of_pairs(&reply_pairs(&value)) == Digest::of_pairs(reference.iter()))
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "view e2: {:?} pairs, shadow has {}",
                        value["count"],
                        reference.len()
                    )
                })
        });
        ctx.check(verdict.is_ok(), || verdict.unwrap_err());
        if self.twin.is_some() {
            self.view_reply = reply.unwrap_or_default();
        }

        if r >= REINSERT_AFTER {
            self.mutate(inputs, ctx, INSERT, inputs.batch(r - REINSERT_AFTER));
        }
        self.cold_query(ctx, None);
    }

    fn open_window(&mut self, _inputs: &Inputs, _ctx: &mut Ctx) {
        self.window_service = self.server.stats();
        if let Some(twin) = &mut self.twin {
            twin.window_stats = twin.engine.stats();
        }
    }

    fn replay(&mut self, inputs: &Inputs, ctx: &mut Ctx) {
        use std::hint::black_box;
        // graphdb: the raw mutations and the refreeze every write pays.
        let batch = inputs.batch(self.round);
        let mut scratch = self.shadow.clone();
        ctx.replay(
            Call::info(
                "graphdb.mutate_us",
                "graphdb",
                "GraphDb::remove_edge + add_edge",
            ),
            Parent::Unit(DELETE),
            2 * BATCH,
            || {
                for &(from, label, to) in batch {
                    black_box(scratch.remove_edge(from, label, to));
                }
                for &(from, label, to) in batch {
                    scratch.add_edge(from, label, to);
                }
            },
        );
        ctx.replay(
            Call::info("graphdb.csr_freeze_ms", "graphdb", "GraphDb::csr_out"),
            Parent::Unit(DELETE),
            1,
            || black_box(self.shadow.csr_out()),
        );

        // service: what a view read costs beyond finding the extension.
        let twin = self
            .twin
            .as_mut()
            .expect("the traced set-up builds the twin");
        let extension: Arc<Answer> = Arc::new(
            twin.engine
                .view_extension("e2")
                .expect("registered")
                .clone(),
        );
        ctx.replay(
            Call::part(
                "service.view_serialize_ms",
                "service",
                "pairs payload + protocol::render_ok",
            ),
            Parent::Unit(VIEW),
            1,
            || {
                let pairs: Vec<Value> = extension
                    .iter()
                    .map(|&(x, y)| Value::Array(vec![Value::Int(x as i128), Value::Int(y as i128)]))
                    .collect();
                let fields = vec![
                    ("revision".to_string(), Value::Int(0)),
                    ("count".to_string(), Value::Int(extension.len() as i128)),
                    ("truncated".to_string(), Value::Bool(false)),
                    ("pairs".to_string(), Value::Array(pairs)),
                ];
                black_box(protocol::render_ok(Some(0), fields))
            },
        );
        ctx.count("service.response_bytes", self.view_reply.len() as f64);
    }

    fn close_window(&mut self, _inputs: &Inputs, ctx: &mut Ctx) {
        count_service_deltas(ctx, &self.window_service, &self.server.stats());
        let twin = self
            .twin
            .as_ref()
            .expect("the traced set-up builds the twin");
        let (now, then) = (twin.engine.stats(), twin.window_stats);
        let counts: [(&'static str, Counter); 10] = [
            ("engine.delta_repairs", |s| s.view_delta_repairs),
            ("engine.deletion_repairs", |s| s.view_deletion_repairs),
            ("engine.support_skips", |s| s.deletion_support_skips),
            ("engine.overdeleted_pairs", |s| s.deletion_overdeleted_pairs),
            ("engine.rederived_sources", |s| s.deletion_rederived_sources),
            ("engine.full_materializations", |s| {
                s.answer_misses + s.view_full_materializations
            }),
            ("engine.answer_stale_evictions", |s| {
                s.answer_stale_evictions
            }),
            ("engine.budget_interrupts", |s| s.budget_interrupted_evals),
            ("engine.repair_budget_drops", |s| s.repair_budget_drops),
            ("engine.steals", |s| s.parallel_steals),
        ];
        for (metric, field) in counts {
            ctx.count(metric, (field(&now) - field(&then)) as f64);
        }
    }

    fn teardown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn the_script_is_stationary() {
        let mut ctx = Ctx::new(9, Scale::Check, false);
        let inputs = ServeChurn::generate(&mut ctx);
        let mut db = inputs.edges.build_named();
        let start = db.num_edges();
        for r in 0..10 * BATCHES + 3 {
            assert!(
                apply_removal(&mut db, inputs.batch(r)),
                "round {r} removes edges that are there"
            );
            if r >= REINSERT_AFTER {
                apply_insertion(&mut db, inputs.batch(r - REINSERT_AFTER));
            }
            let out = start - db.num_edges();
            assert!(out <= REINSERT_AFTER * BATCH, "round {r}: {out} edges out");
            assert!(out as f64 <= 0.02 * start as f64);
        }
        assert_eq!(start - db.num_edges(), REINSERT_AFTER * BATCH);
    }

    #[test]
    fn every_batch_takes_two_edges_of_each_label() {
        let mut ctx = Ctx::new(9, Scale::Check, false);
        let inputs = ServeChurn::generate(&mut ctx);
        for r in 0..BATCHES {
            let mut per_label = [0usize; 4];
            for &(_, label, _) in inputs.batch(r) {
                per_label[label.index()] += 1;
            }
            assert_eq!(per_label, [2, 2, 2, 2]);
        }
        // The batches are the same whatever the seed.
        let other = ServeChurn::generate(&mut Ctx::new(10, Scale::Check, false));
        assert_eq!(inputs.removal_order, other.removal_order);
    }
}
