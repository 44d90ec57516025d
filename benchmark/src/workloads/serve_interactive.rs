//! `serve_interactive` — read-only point traffic over loopback TCP.
//!
//! The same power-law graph as `materialize`, used the other way: no request
//! here materializes anything.  Blocks of 64 pipelined requests of one kind
//! are scripted 7 : 2 : 1 — `single_pair`, `reachable_from`, and `query`
//! (limit 100) on answers that are already resident.  Half of the pairs are
//! drawn from the reference answer (connected), half uniformly (mostly not);
//! half of the pair requests name a query whose full answer is resident (a
//! binary search), half one that is not (a bidirectional search).  Sources
//! are Zipf(1.0) over all nodes; half of the `reachable_from` requests carry
//! `limit: 16` (never cached), half are unlimited (their complete drains fill
//! the 256-entry point cache, which the head of the Zipf then hits).
//!
//! Per-request work is `service` framing, parsing and rendering, `engine`
//! cache probes, and tiny `graphdb` searches — the split a full
//! materialization hides.  The sweep/merge/repair path is bypassed entirely.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use automata::{DenseNfa, DenseReverse};
use engine::{CompileCache, EngineConfig, EngineSnapshot, QueryEngine};
use graphdb::{
    eval_csr, eval_csr_from, eval_csr_pair, Answer, CsrAdjacency, EvalScratch, PairScratch,
};
use rand::rngs::StdRng;
use rand::Rng;
use serde_json::{json, Value};
use service::{protocol, Server, ServiceConfig, ServiceStatsSnapshot};
use telemetry::Histogram;

use super::materialize::power_law_edges;
use crate::gen::{shuffle, stream, Digest, EdgeList, Zipf};
use crate::harness::{Call, Ctx, Parent, Workload};
use crate::host::engine_threads;
use crate::stats::{median, per_op_ms};
use crate::wire::{frame, Client};

const PAIR: &str = "pair_read_us";
const FROM: &str = "from_read_us";
const HIT: &str = "hit_read_us";

/// Requests per block.
pub const BLOCK: usize = 64;
/// Rounds of the pre-generated script (it is cycled).
const SCRIPT_ROUNDS: usize = 32;
/// Queries whose full answers are made resident during set-up.
const RESIDENT: [&str; 2] = ["e·f*·(g+h)", "h·g*"];
/// Queries that are only ever asked point-wise.
const SEARCHED: [&str; 2] = ["(f+g)·h*·e?", "d·(g+h)*"];
/// `limit` of the top-k half of the `reachable_from` requests.
const TOP_K: usize = 16;

/// One scripted request and what the oracle needs to check its reply.
#[derive(Debug, Clone)]
pub enum Request {
    /// `single_pair` on query `q` (index into [`Inputs::queries`]).
    Pair { q: usize, from: usize, to: usize },
    /// `reachable_from`.
    From {
        q: usize,
        from: usize,
        limit: Option<usize>,
    },
    /// `query` with `limit: 100` on a resident answer.
    Hit { q: usize },
}

/// A block: its requests, and their frames concatenated.
pub struct Block {
    op: &'static str,
    requests: Vec<Request>,
    text: String,
}

impl Block {
    /// Renders `requests` (ids `0..`) as one pipelined write.  `traced` adds
    /// `"trace": true` to every frame.
    pub fn new(
        op: &'static str,
        queries: &[String],
        requests: Vec<Request>,
        traced: bool,
    ) -> Block {
        let mut text = String::new();
        for (id, request) in requests.iter().enumerate() {
            let mut fields = match request {
                Request::Pair { q, from, to } => {
                    json!({ "id": id, "op": "single_pair", "q": queries[*q], "from": *from, "to": *to })
                }
                Request::From {
                    q,
                    from,
                    limit: Some(limit),
                } => {
                    json!({ "id": id, "op": "reachable_from", "q": queries[*q], "from": *from, "limit": *limit })
                }
                Request::From {
                    q,
                    from,
                    limit: None,
                } => {
                    json!({ "id": id, "op": "reachable_from", "q": queries[*q], "from": *from })
                }
                Request::Hit { q } => {
                    json!({ "id": id, "op": "query", "q": queries[*q], "limit": 100 })
                }
            };
            if let (true, Value::Object(entries)) = (traced, &mut fields) {
                entries.push(("trace".to_string(), Value::Bool(true)));
            }
            text.push_str(&frame(fields));
        }
        Block { op, requests, text }
    }

    /// The frames, concatenated.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The requests, in frame order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }
}

/// The `pairs` array of a `query` or `view` reply.
pub fn reply_pairs(value: &Value) -> Vec<(usize, usize)> {
    let pair = |p: &Value| {
        let p = p.as_array()?;
        Some((p.first()?.as_u64()? as usize, p.get(1)?.as_u64()? as usize))
    };
    value["pairs"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(pair)
        .collect()
}

/// Counts the service's own counters over the window.
pub fn count_service_deltas(
    ctx: &mut Ctx,
    before: &ServiceStatsSnapshot,
    now: &ServiceStatsSnapshot,
) {
    let deltas = [
        ("service.frames", now.frames - before.frames),
        (
            "service.protocol_errors",
            now.protocol_errors - before.protocol_errors,
        ),
        (
            "service.rejected",
            now.queries_rejected - before.queries_rejected,
        ),
        (
            "service.interrupted",
            now.queries_interrupted - before.queries_interrupted,
        ),
    ];
    for (metric, delta) in deltas {
        ctx.count(metric, delta as f64);
    }
}

/// The row of `source` in a sorted answer.
pub fn row(answer: &Answer, source: usize) -> &[(usize, usize)] {
    let pairs = answer.as_slice();
    let lo = pairs.partition_point(|&(x, _)| x < source);
    let hi = pairs.partition_point(|&(x, _)| x <= source);
    &pairs[lo..hi]
}

/// Checks one reply against the reference answer of its query.  `Err` says
/// what is wrong with it.
pub fn check_reply(
    request: &Request,
    id: usize,
    reply: &str,
    references: &[Answer],
) -> Result<(), String> {
    let value =
        serde_json::from_str(reply.trim_end()).map_err(|_| "reply is not JSON".to_string())?;
    if value["ok"].as_bool() != Some(true) {
        return Err(format!("error reply {}", reply.trim_end()));
    }
    if value["id"].as_u64() != Some(id as u64) {
        return Err(format!("reply id {:?} for request {id}", value["id"]));
    }
    match request {
        Request::Pair { q, from, to } => {
            let expected = references[*q].contains(&(*from, *to));
            (value["connected"].as_bool() == Some(expected))
                .then_some(())
                .ok_or_else(|| format!("pair ({from},{to}): expected connected={expected}"))
        }
        Request::From { q, from, limit } => {
            let row = row(&references[*q], *from);
            let targets: Vec<usize> = value["targets"]
                .as_array()
                .ok_or("no targets")?
                .iter()
                .filter_map(|t| t.as_u64().map(|t| t as usize))
                .collect();
            let truncated = value["truncated"].as_bool().ok_or("no truncated flag")?;
            let all_genuine = targets
                .iter()
                .all(|t| row.binary_search(&(*from, *t)).is_ok());
            let cap = limit.unwrap_or(usize::MAX);
            let right_count = targets.len() == row.len().min(cap);
            // A fresh top-k search that finds exactly k cannot know whether
            // more exist, so at `row.len() == cap` either flag is right.
            let right_flag = match row.len().cmp(&cap) {
                std::cmp::Ordering::Less => !truncated,
                std::cmp::Ordering::Equal => true,
                std::cmp::Ordering::Greater => truncated,
            };
            (all_genuine && right_count && right_flag)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                    "from {from} limit {limit:?}: {} targets (row has {}), truncated {truncated}",
                    targets.len(),
                    row.len()
                )
                })
        }
        Request::Hit { q } => {
            let reference = &references[*q];
            let head = Digest::of_pairs(reference.iter().take(100));
            let pairs = reply_pairs(&value);
            (value["count"].as_u64() == Some(reference.len() as u64)
                && Digest::of_pairs(&pairs) == head)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "query hit: count {:?}, reference {}",
                        value["count"],
                        reference.len()
                    )
                })
        }
    }
}

/// Generated inputs and reference answers.
pub struct Inputs {
    edges: EdgeList,
    /// `RESIDENT` then `SEARCHED`.
    queries: Vec<String>,
    references: Vec<Answer>,
    /// `SCRIPT_ROUNDS` rounds of ten blocks: 7 pair, 2 from, 1 hit.
    script: Vec<Vec<Block>>,
}

fn pair_block(
    inputs_queries: &[String],
    references: &[Answer],
    num_nodes: usize,
    rng: &mut StdRng,
) -> Block {
    let mut requests = Vec::with_capacity(BLOCK);
    for i in 0..BLOCK {
        // Alternate resident / searched queries; within each, alternate a
        // pair drawn from the reference answer and a uniform pair.
        let q = if i % 2 == 0 {
            rng.gen_range(0..2usize)
        } else {
            2 + rng.gen_range(0..2usize)
        };
        let reference = references[q].as_slice();
        let (from, to) = if (i / 2) % 2 == 0 && !reference.is_empty() {
            reference[rng.gen_range(0..reference.len())]
        } else {
            (rng.gen_range(0..num_nodes), rng.gen_range(0..num_nodes))
        };
        requests.push(Request::Pair { q, from, to });
    }
    shuffle(&mut requests, rng);
    Block::new(PAIR, inputs_queries, requests, false)
}

fn from_block(queries: &[String], sources: &Zipf, rng: &mut StdRng) -> Block {
    let mut requests: Vec<Request> = (0..BLOCK)
        .map(|i| Request::From {
            q: 2 + rng.gen_range(0..2usize),
            from: sources.sample(rng),
            limit: (i % 2 == 0).then_some(TOP_K),
        })
        .collect();
    shuffle(&mut requests, rng);
    Block::new(FROM, queries, requests, false)
}

fn hit_block(queries: &[String], traced: bool) -> Block {
    let requests = (0..BLOCK).map(|i| Request::Hit { q: i % 2 }).collect();
    Block::new(HIT, queries, requests, traced)
}

/// The serving configuration of both service workloads.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        engine: EngineConfig {
            threads: engine_threads(),
            ..EngineConfig::serving()
        },
        ..ServiceConfig::default()
    }
}

/// In-process twin of the server's engine, for the traced run's replays.
struct Twin {
    /// Keeps the snapshot's shared caches alive.
    _engine: QueryEngine,
    snapshot: Arc<EngineSnapshot>,
    csr_in: CsrAdjacency,
    dense: Vec<(Arc<DenseNfa>, DenseReverse)>,
}

/// One complete set-up: a server, one connection, resident answers.
pub struct ServeInteractive {
    server: Server,
    client: Client,
    round: usize,
    replies: Vec<String>,
    /// Traced run: per kind, the last block sent (its slot in the round), its
    /// per-request time and its replies, for the replay.
    last: BTreeMap<&'static str, (usize, f64, Vec<String>)>,
    twin: Option<Twin>,
    window_service: ServiceStatsSnapshot,
    window_engine: Value,
}

impl ServeInteractive {
    fn engine_stats(&mut self) -> Value {
        let reply = self
            .client
            .roundtrip(&frame(json!({ "op": "stats" })))
            .unwrap_or_default();
        serde_json::from_str(reply.trim_end())
            .map(|v: Value| v["engine"].clone())
            .unwrap_or(Value::Null)
    }
}

/// Sends one block as a timed unit and checks every reply.
fn run_block(
    ctx: &mut Ctx,
    client: &mut Client,
    block: &Block,
    references: &[Answer],
    replies: &mut Vec<String>,
) {
    let sent = ctx.unit(block.op, "service", "pipelined block of 64", BLOCK, || {
        client.block(&block.text, block.requests.len(), replies)
    });
    if let Err(e) = sent {
        for _ in &block.requests {
            ctx.check(false, || format!("{}: {e}", block.op));
        }
        return;
    }
    for (id, (request, reply)) in block.requests.iter().zip(replies.iter()).enumerate() {
        let verdict = check_reply(request, id, reply, references);
        ctx.check(verdict.is_ok(), || verdict.unwrap_err());
    }
}

impl Workload for ServeInteractive {
    type Inputs = Inputs;

    /// Enough rounds for the unlimited `reachable_from` drains to fill the
    /// point cache, so its hit share is level when the window opens.
    const WARMUP_ROUNDS: usize = 8;

    fn generate(ctx: &mut Ctx) -> Inputs {
        let edges = power_law_edges(ctx, 0x5041);
        ctx.digest("graph", edges.digest().hex());
        let queries: Vec<String> = RESIDENT
            .iter()
            .chain(&SEARCHED)
            .map(|q| q.to_string())
            .collect();
        let csr = edges.build().csr_out();
        let compile = CompileCache::new();
        let references: Vec<Answer> = queries
            .iter()
            .map(|q| {
                let regex = regexlang::parse(q).expect("fixed query parses");
                eval_csr(&csr, &compile.compile_regex(&edges.domain, &regex))
            })
            .collect();
        let mut answers = Digest::default();
        for reference in &references {
            answers
                .u64(reference.len() as u64)
                .str(&Digest::of_pairs(reference.iter()).hex());
        }
        ctx.digest("reference_answers", answers.hex());

        let mut rng = stream(ctx.seed, 0x5343);
        let sources = Zipf::new(edges.num_nodes);
        let mut requests = Digest::default();
        let script: Vec<Vec<Block>> = (0..SCRIPT_ROUNDS)
            .map(|_| {
                // 7 : 2 : 1, the rarer kinds spread through the round.
                let round: Vec<Block> = (0..10)
                    .map(|slot| match slot {
                        3 | 7 => from_block(&queries, &sources, &mut rng),
                        9 => hit_block(&queries, false),
                        _ => pair_block(&queries, &references, edges.num_nodes, &mut rng),
                    })
                    .collect();
                for block in &round {
                    requests.str(&block.text);
                }
                round
            })
            .collect();
        ctx.digest("request_script", requests.hex());
        Inputs {
            edges,
            queries,
            references,
            script,
        }
    }

    fn setup(inputs: &Inputs, ctx: &mut Ctx) -> Self {
        let server = Server::start(inputs.edges.build(), service_config()).expect("server starts");
        let mut client = Client::connect(server.addr()).expect("connects over loopback");
        // Make the resident answers resident.
        for (q, query) in RESIDENT.iter().enumerate() {
            let reply = client.roundtrip(&frame(
                json!({ "id": 0, "op": "query", "q": *query, "limit": 100 }),
            ));
            let verdict = reply
                .map_err(|e| e.to_string())
                .and_then(|reply| check_reply(&Request::Hit { q }, 0, &reply, &inputs.references));
            ctx.check(verdict.is_ok(), || verdict.unwrap_err());
        }
        let twin = ctx.tracer.enabled().then(|| {
            let mut engine =
                QueryEngine::with_config(inputs.edges.build(), service_config().engine);
            let snapshot = engine.publish_snapshot();
            for query in RESIDENT {
                snapshot.eval_str(query);
            }
            let compile = CompileCache::new();
            let dense = inputs
                .queries
                .iter()
                .map(|q| {
                    let nfa = compile
                        .compile_regex(&inputs.edges.domain, &regexlang::parse(q).expect("parses"));
                    let reverse = nfa.reverse_closed();
                    (nfa, reverse)
                })
                .collect();
            let csr_in = engine.db().csr_in();
            Twin {
                _engine: engine,
                snapshot,
                csr_in,
                dense,
            }
        });
        let window_service = server.stats();
        ServeInteractive {
            server,
            client,
            round: 0,
            replies: Vec::new(),
            last: BTreeMap::new(),
            twin,
            window_service,
            window_engine: Value::Null,
        }
    }

    fn round(&mut self, inputs: &Inputs, ctx: &mut Ctx) {
        let index = self.round % inputs.script.len();
        self.round += 1;
        for (slot, block) in inputs.script[index].iter().enumerate() {
            run_block(
                ctx,
                &mut self.client,
                block,
                &inputs.references,
                &mut self.replies,
            );
            if ctx.tracer.enabled() {
                self.last.insert(
                    block.op,
                    (slot, ctx.last_unit(block.op).0, self.replies.clone()),
                );
            }
        }
    }

    fn open_window(&mut self, _inputs: &Inputs, _ctx: &mut Ctx) {
        self.window_service = self.server.stats();
        self.window_engine = self.engine_stats();
    }

    fn replay(&mut self, inputs: &Inputs, ctx: &mut Ctx) {
        use std::hint::black_box;
        let round = &inputs.script[(self.round - 1) % inputs.script.len()];
        let twin = self
            .twin
            .as_ref()
            .expect("the traced set-up builds the twin");
        let snapshot = &twin.snapshot;
        let csr_out = snapshot.csr_out();

        // The last block of each kind, replayed against the twin engine.
        for (slot, per_request_ms, replies) in self.last.values() {
            let block = &round[*slot];
            // service: parse the frames, render the replies.
            let lines: Vec<&str> = block.text.lines().collect();
            ctx.replay(
                Call::part("service.parse_frame_us", "service", "protocol::parse_frame"),
                Parent::Unit(block.op),
                BLOCK,
                || {
                    for line in &lines {
                        let _ = black_box(protocol::parse_frame(line));
                    }
                },
            );
            let fields: Vec<Vec<(String, Value)>> = replies
                .iter()
                .filter_map(|reply| serde_json::from_str(reply.trim_end()).ok())
                .filter_map(|value: Value| value.as_object().map(|entries| entries[2..].to_vec()))
                .collect();
            ctx.replay(
                Call::part("service.render_us", "service", "protocol::render_ok"),
                Parent::Unit(block.op),
                BLOCK,
                || {
                    for (id, fields) in fields.into_iter().enumerate() {
                        black_box(protocol::render_ok(Some(id as i64), fields));
                    }
                },
            );

            // engine: the same requests against the twin, timed one by one so
            // that each lands in the metric of the path that served it.
            let mut engine_ms = 0.0;
            let engine_started = Instant::now();
            for request in &block.requests {
                let before = snapshot.stats();
                let started = Instant::now();
                match request {
                    Request::Pair { q, from, to } => {
                        black_box(snapshot.eval_pair_str(&inputs.queries[*q], *from, *to));
                    }
                    Request::From { q, from, limit } => {
                        black_box(snapshot.eval_from_str(&inputs.queries[*q], *from, *limit));
                    }
                    Request::Hit { q } => {
                        black_box(snapshot.eval_str(&inputs.queries[*q]));
                    }
                }
                let ms = started.elapsed().as_secs_f64() * 1e3;
                engine_ms += ms;
                let after = snapshot.stats();
                let metric = match request {
                    Request::Pair { .. } if after.pair_evals > before.pair_evals => {
                        "engine.pair_us"
                    }
                    Request::Pair { .. } => "engine.pair_resident_us",
                    Request::From { .. } if after.from_evals == before.from_evals => {
                        "engine.from_hit_us"
                    }
                    Request::From { limit: Some(_), .. } => "engine.from_topk_us",
                    Request::From { limit: None, .. } => "engine.from_drain_us",
                    Request::Hit { .. } => "engine.eval_hit_us",
                };
                ctx.sample(metric, ms);
            }
            // One span for the block's engine time (the bookkeeping between
            // the calls is not part of it).
            let unit_span = ctx.last_unit(block.op).1;
            let engine_ended = engine_started + Duration::from_secs_f64(engine_ms / 1e3);
            ctx.tracer.record(
                "EngineSnapshot::eval_{pair,from}_str / eval_str",
                "engine",
                unit_span,
                true,
                engine_started,
                engine_ended,
            );
            let self_metric = match block.op {
                PAIR => "service.pair_self_us",
                FROM => "service.from_self_us",
                _ => "service.hit_self_us",
            };
            ctx.sample(
                self_metric,
                (per_request_ms - per_op_ms(engine_ms, BLOCK)).max(0.0),
            );

            // graphdb: the searches alone, on reused scratch.
            match block.op {
                PAIR => {
                    let mut scratch: Vec<PairScratch> = twin
                        .dense
                        .iter()
                        .map(|(nfa, _)| PairScratch::new(csr_out, nfa))
                        .collect();
                    let mut samples = Vec::with_capacity(BLOCK);
                    for request in &block.requests {
                        let Request::Pair { q, from, to } = request else {
                            continue;
                        };
                        let (nfa, reverse) = &twin.dense[*q];
                        let started = Instant::now();
                        black_box(eval_csr_pair(
                            csr_out,
                            &twin.csr_in,
                            nfa,
                            reverse,
                            *from as u32,
                            *to as u32,
                            &mut scratch[*q],
                        ));
                        samples.push(started.elapsed().as_secs_f64() * 1e3);
                    }
                    ctx.sample("graphdb.pair_us", median(&samples).unwrap_or(0.0));
                    samples.sort_by(f64::total_cmp);
                    ctx.sample(
                        "graphdb.pair_p99_us",
                        samples[(samples.len() * 99).div_ceil(100) - 1],
                    );
                    let resident = &inputs.references[0];
                    let probes: Vec<(usize, usize)> = block
                        .requests
                        .iter()
                        .filter_map(|r| match r {
                            Request::Pair { from, to, .. } => Some((*from, *to)),
                            _ => None,
                        })
                        .collect();
                    ctx.replay(
                        Call::info("graphdb.contains_ns", "graphdb", "SortedPairs::contains"),
                        Parent::Unit(PAIR),
                        probes.len() * 16,
                        || {
                            for _ in 0..16 {
                                for probe in &probes {
                                    black_box(resident.contains(probe));
                                }
                            }
                        },
                    );
                }
                FROM => {
                    let mut scratch: Vec<EvalScratch> = twin
                        .dense
                        .iter()
                        .map(|(nfa, _)| EvalScratch::new(csr_out, nfa))
                        .collect();
                    ctx.replay(
                        Call::info("graphdb.from_us", "graphdb", "graphdb::eval_csr_from"),
                        Parent::Unit(FROM),
                        BLOCK,
                        || {
                            for request in &block.requests {
                                let Request::From { q, from, limit } = request else {
                                    continue;
                                };
                                black_box(eval_csr_from(
                                    csr_out,
                                    &twin.dense[*q].0,
                                    *from as u32,
                                    *limit,
                                    &mut scratch[*q],
                                ));
                            }
                        },
                    );
                }
                _ => {
                    let bytes: usize = replies.iter().map(String::len).sum();
                    ctx.count("service.response_bytes", bytes as f64 / BLOCK as f64);
                    ctx.replay(
                        Call::info("regexlang.parse_us", "regexlang", "regexlang::parse"),
                        Parent::Unit(HIT),
                        BLOCK,
                        || {
                            for request in &block.requests {
                                let Request::Hit { q } = request else {
                                    continue;
                                };
                                black_box(regexlang::parse(&inputs.queries[*q]).expect("parses"));
                            }
                        },
                    );
                }
            }
        }

        // The same pair requests unpipelined: what a ping-pong client sees.
        if let Some(block) = round.iter().find(|b| b.op == PAIR) {
            let mut rtt = Vec::with_capacity(BLOCK);
            for line in block.text.lines() {
                let line = format!("{line}\n");
                let started = Instant::now();
                let ok = self.client.roundtrip(&line).is_ok();
                rtt.push(started.elapsed().as_secs_f64() * 1e3);
                ctx.check(ok, || "ping-pong request failed".to_string());
            }
            ctx.sample("service.rtt_us", median(&rtt).unwrap_or(0.0));
            rtt.sort_by(f64::total_cmp);
            ctx.sample(
                "service.rtt_p99_us",
                rtt[(rtt.len() * 99).div_ceil(100) - 1],
            );
        }

        // telemetry: the histogram on every request's path, and the cost of
        // asking for a trace.
        let histogram = Histogram::new();
        ctx.replay(
            Call::info("telemetry.record_ns", "telemetry", "Histogram::record"),
            Parent::Span(None),
            10_000,
            || {
                for value in 0..10_000u64 {
                    histogram.record(black_box(value));
                }
            },
        );
        let mut replies = Vec::new();
        let mut time_hits = |traced: bool, replies: &mut Vec<String>| {
            let block = hit_block(&inputs.queries, traced);
            let started = Instant::now();
            let sent = self.client.block(&block.text, BLOCK, replies);
            (started.elapsed().as_secs_f64() * 1e3, sent.is_ok())
        };
        let (plain_ms, plain_ok) = time_hits(false, &mut replies);
        let (traced_ms, traced_ok) = time_hits(true, &mut replies);
        ctx.check(plain_ok && traced_ok, || {
            "trace-flag block failed".to_string()
        });
        ctx.count("telemetry.trace_flag_share", traced_ms / plain_ms);
        let spans: usize = replies
            .iter()
            .filter_map(|reply| serde_json::from_str(reply.trim_end()).ok())
            .filter_map(|value: Value| value["trace"]["spans"].as_array().map(<[Value]>::len))
            .sum();
        ctx.count("telemetry.trace_spans", spans as f64);
    }

    fn close_window(&mut self, _inputs: &Inputs, ctx: &mut Ctx) {
        count_service_deltas(ctx, &self.window_service, &self.server.stats());
        let engine = self.engine_stats();
        let delta = |key: &str| {
            engine[key].as_f64().unwrap_or(0.0) - self.window_engine[key].as_f64().unwrap_or(0.0)
        };
        let share = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
        ctx.count(
            "engine.compile_hit_share",
            share(delta("compile_hits"), delta("compile_misses")),
        );
        ctx.count(
            "engine.answer_hit_share",
            share(delta("answer_hits"), delta("answer_misses")),
        );
        ctx.count(
            "engine.point_hit_share",
            share(delta("point_hits"), delta("point_misses")),
        );
        ctx.count("engine.point_extension_hits", delta("point_extension_hits"));
    }

    fn teardown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Vec<Answer> {
        vec![Answer::from([(1, 2), (1, 5), (3, 4)])]
    }

    #[test]
    fn wrong_replies_are_caught() {
        let references = reference();
        let pair = Request::Pair {
            q: 0,
            from: 1,
            to: 5,
        };
        assert!(check_reply(
            &pair,
            7,
            r#"{"id":7,"ok":true,"connected":true}"#,
            &references
        )
        .is_ok());
        assert!(check_reply(
            &pair,
            7,
            r#"{"id":7,"ok":true,"connected":false}"#,
            &references
        )
        .is_err());
        assert!(check_reply(
            &pair,
            7,
            r#"{"id":8,"ok":true,"connected":true}"#,
            &references
        )
        .is_err());
        assert!(check_reply(
            &pair,
            7,
            r#"{"id":7,"ok":false,"error":{"code":"overloaded"}}"#,
            &references
        )
        .is_err());
        assert!(check_reply(&pair, 7, "", &references).is_err());

        let all = Request::From {
            q: 0,
            from: 1,
            limit: None,
        };
        let ok = r#"{"id":0,"ok":true,"count":2,"truncated":false,"targets":[2,5]}"#;
        let missing = r#"{"id":0,"ok":true,"count":1,"truncated":false,"targets":[2]}"#;
        let invented = r#"{"id":0,"ok":true,"count":2,"truncated":false,"targets":[2,9]}"#;
        assert!(check_reply(&all, 0, ok, &references).is_ok());
        assert!(check_reply(&all, 0, missing, &references).is_err());
        assert!(check_reply(&all, 0, invented, &references).is_err());
        let top1 = Request::From {
            q: 0,
            from: 1,
            limit: Some(1),
        };
        let truncated = r#"{"id":0,"ok":true,"count":1,"truncated":true,"targets":[5]}"#;
        assert!(check_reply(&top1, 0, truncated, &references).is_ok());
        assert!(
            check_reply(&top1, 0, missing, &references).is_err(),
            "a cut answer must say so"
        );

        let hit = Request::Hit { q: 0 };
        let full = r#"{"id":0,"ok":true,"count":3,"truncated":false,"pairs":[[1,2],[1,5],[3,4]]}"#;
        let short = r#"{"id":0,"ok":true,"count":2,"truncated":false,"pairs":[[1,2],[1,5]]}"#;
        assert!(check_reply(&hit, 0, full, &references).is_ok());
        assert!(check_reply(&hit, 0, short, &references).is_err());
    }

    #[test]
    fn rows_are_sliced_out_of_a_sorted_answer() {
        let answer = &reference()[0];
        assert_eq!(row(answer, 1), [(1, 2), (1, 5)]);
        assert_eq!(row(answer, 2), []);
        assert_eq!(row(answer, 3), [(3, 4)]);
    }
}
