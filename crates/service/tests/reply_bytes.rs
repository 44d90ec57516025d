//! Reply bytes: every reply the service writes with `protocol::Reply` is byte
//! for byte the line the `Value`-tree rendering wrote — build one
//! `[Int, Int]` array per pair, then serialize the whole object — which is
//! kept here as the oracle (`tree_line`).
//!
//! The writer is checked on answers of 0, 1 and 10⁴ pairs, truncated by a
//! `limit` and by `max_result_pairs`, on node ids at every decimal digit
//! boundary up to `usize::MAX`, on request ids `None`, negative and
//! `i64::MIN`, on a traced reply, and on scalar fields and error messages at
//! the edges of the writer's fmt-free paths: every ASCII character and a few
//! multi-byte ones, integers around `u64`'s and `i128`'s ends, and the floats
//! that render as `null`, `-0.0` or without an exponent.  A live server then
//! answers `query`, `view` and `reachable_from` frames, and each reply line
//! must equal the oracle built from an in-process snapshot of the same graph
//! — the fields in the documented order, `eval_us` after the answer and
//! `trace` last.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use automata::Alphabet;
use engine::QueryEngine;
use graphdb::{GraphDb, NodeId};
use serde_json::Value;
use service::protocol::{render_err, render_ok, Reply};
use service::{Server, ServiceConfig};

// ---------------------------------------------------------------------------
// The oracle: the whole reply as a `Value` tree, rendered by the compact
// writer the service used before `Reply`.

fn tree_line(id: Option<i64>, ok: bool, fields: Vec<(&str, Value)>) -> String {
    let id = id.map_or(Value::Null, |id| Value::Int(id.into()));
    let mut entries = vec![("id".to_string(), id), ("ok".to_string(), Value::Bool(ok))];
    entries.extend(fields.into_iter().map(|(key, value)| (key.to_string(), value)));
    let mut line = String::new();
    write_tree(&Value::Object(entries), &mut line);
    line.push('\n');
    line
}

fn write_tree(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) if x.is_finite() => {
            let rendered = format!("{x}");
            out.push_str(&rendered);
            if !rendered.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Float(_) => out.push_str("null"),
        Value::String(s) => write_tree_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_tree(item, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_tree_string(key, out);
                out.push(':');
                write_tree(item, out);
            }
            out.push('}');
        }
    }
}

fn write_tree_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn int(n: impl Into<i128>) -> Value {
    Value::Int(n.into())
}

fn node(n: NodeId) -> Value {
    Value::Int(n as i128)
}

/// `count`, `truncated` and the first `cap` pairs, as the tree rendering
/// built them.
fn tree_pairs(pairs: &[(NodeId, NodeId)], cap: usize) -> Vec<(&'static str, Value)> {
    let shown: Vec<Value> =
        pairs.iter().take(cap).map(|&(x, y)| Value::Array(vec![node(x), node(y)])).collect();
    vec![
        ("count", node(pairs.len())),
        ("truncated", Value::Bool(shown.len() < pairs.len())),
        ("pairs", Value::Array(shown)),
    ]
}

fn tree_targets(targets: &[NodeId], complete: bool) -> Vec<(&'static str, Value)> {
    vec![
        ("count", node(targets.len())),
        ("truncated", Value::Bool(!complete)),
        ("targets", Value::Array(targets.iter().map(|&t| node(t)).collect())),
    ]
}

/// A read reply's tail: `eval_us`, then the trace when there is one.
fn tree_tail(eval_us: u64, trace: Option<&Value>) -> Vec<(&'static str, Value)> {
    let mut tail = vec![("eval_us", int(eval_us))];
    tail.extend(trace.map(|trace| ("trace", trace.clone())));
    tail
}

// ---------------------------------------------------------------------------
// The writer, composed the way the server composes each reply.

fn finish_read(reply: Reply, eval_us: u64, trace: Option<&Value>) -> String {
    let reply = reply.field("eval_us", &int(eval_us));
    match trace {
        Some(trace) => reply.field("trace", trace),
        None => reply,
    }
    .finish()
}

fn query_reply(
    id: Option<i64>,
    revision: u64,
    pairs: &[(NodeId, NodeId)],
    cap: usize,
    eval_us: u64,
    trace: Option<&Value>,
) -> String {
    let reply = Reply::ok(id).field("revision", &int(revision)).pairs(pairs, cap);
    finish_read(reply, eval_us, trace)
}

fn query_oracle(
    id: Option<i64>,
    revision: u64,
    pairs: &[(NodeId, NodeId)],
    cap: usize,
    eval_us: u64,
    trace: Option<&Value>,
) -> String {
    let mut fields = vec![("revision", int(revision))];
    fields.extend(tree_pairs(pairs, cap));
    fields.extend(tree_tail(eval_us, trace));
    tree_line(id, true, fields)
}

fn view_reply(id: Option<i64>, revision: u64, pairs: &[(NodeId, NodeId)], cap: usize) -> String {
    Reply::ok(id).field("revision", &int(revision)).pairs(pairs, cap).finish()
}

fn view_oracle(id: Option<i64>, revision: u64, pairs: &[(NodeId, NodeId)], cap: usize) -> String {
    let mut fields = vec![("revision", int(revision))];
    fields.extend(tree_pairs(pairs, cap));
    tree_line(id, true, fields)
}

fn targets_reply(
    id: Option<i64>,
    revision: u64,
    targets: &[NodeId],
    complete: bool,
    eval_us: u64,
    trace: Option<&Value>,
) -> String {
    let reply = Reply::ok(id).field("revision", &int(revision)).targets(targets, complete);
    finish_read(reply, eval_us, trace)
}

fn targets_oracle(
    id: Option<i64>,
    revision: u64,
    targets: &[NodeId],
    complete: bool,
    eval_us: u64,
    trace: Option<&Value>,
) -> String {
    let mut fields = vec![("revision", int(revision))];
    fields.extend(tree_targets(targets, complete));
    fields.extend(tree_tail(eval_us, trace));
    tree_line(id, true, fields)
}

// ---------------------------------------------------------------------------
// Inputs

const IDS: [Option<i64>; 6] = [None, Some(0), Some(7), Some(-1), Some(i64::MIN), Some(i64::MAX)];

/// 0, 9, 10, 99, 100, …, 10¹⁹ − 1, 10¹⁹, and the top of `usize`.
fn digit_boundaries() -> Vec<NodeId> {
    let mut ids = vec![0];
    let mut power: usize = 10;
    loop {
        ids.extend([power - 1, power]);
        match power.checked_mul(10) {
            Some(next) => power = next,
            None => break,
        }
    }
    ids.extend([usize::MAX - 1, usize::MAX]);
    ids
}

/// `n` pairs over ids of one to six digits.
fn pairs_of(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n).map(|i| (i / 7, (i * 7_919) % 100_003)).collect()
}

/// A trace object shaped like the server's: integers, strings, nulls,
/// nested objects and arrays.
fn sample_trace() -> Value {
    let span = |phase: &str, worker: Option<i64>, start: i64, duration: i64| {
        Value::Object(vec![
            ("phase".into(), Value::String(phase.into())),
            ("worker".into(), worker.map_or(Value::Null, int)),
            ("start_us".into(), int(start)),
            ("duration_us".into(), int(duration)),
        ])
    };
    Value::Object(vec![
        ("trace_id".into(), int(u64::MAX)),
        ("total_us".into(), int(1_234)),
        ("top_level_us".into(), int(1_200)),
        ("dropped_spans".into(), int(0)),
        (
            "phase_totals".into(),
            Value::Object(vec![("parse".into(), int(3)), ("product_bfs".into(), int(1_100))]),
        ),
        (
            "spans".into(),
            Value::Array(vec![span("parse", None, 0, 3), span("product_bfs", Some(1), 9, 1_100)]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// The writer against the oracle

#[test]
fn query_and_view_replies_match_the_tree_rendering() {
    let trace = sample_trace();
    for n in [0, 1, 10_000] {
        let pairs = pairs_of(n);
        // The server's cap is `limit.unwrap_or(usize::MAX).min(max_result_pairs)`.
        for limit in [None, Some(0), Some(1), Some(3), Some(n.saturating_sub(1)), Some(n + 1)] {
            for max_result_pairs in [100_000, 100, 1] {
                let cap = limit.unwrap_or(usize::MAX).min(max_result_pairs);
                for id in IDS {
                    for trace in [None, Some(&trace)] {
                        assert_eq!(
                            query_reply(id, 42, &pairs, cap, 17, trace),
                            query_oracle(id, 42, &pairs, cap, 17, trace),
                            "query: {n} pairs, cap {cap}, id {id:?}, traced {}",
                            trace.is_some(),
                        );
                    }
                    assert_eq!(
                        view_reply(id, 3, &pairs, max_result_pairs),
                        view_oracle(id, 3, &pairs, max_result_pairs),
                        "view: {n} pairs, cap {max_result_pairs}, id {id:?}",
                    );
                }
            }
        }
    }
}

#[test]
fn reachable_from_and_single_pair_replies_match_the_tree_rendering() {
    let trace = sample_trace();
    for n in [0, 1, 10_000] {
        let targets: Vec<NodeId> = (0..n).map(|i| i * 13).collect();
        for complete in [true, false] {
            for id in IDS {
                for trace in [None, Some(&trace)] {
                    assert_eq!(
                        targets_reply(id, 5, &targets, complete, 0, trace),
                        targets_oracle(id, 5, &targets, complete, 0, trace),
                    );
                }
            }
        }
    }
    for (connected, id) in [(true, Some(1)), (false, None)] {
        let reply = Reply::ok(id)
            .field("revision", &int(9u64))
            .field("connected", &Value::Bool(connected));
        let mut fields = vec![("revision", int(9u64)), ("connected", Value::Bool(connected))];
        fields.extend(tree_tail(u64::MAX, None));
        assert_eq!(finish_read(reply, u64::MAX, None), tree_line(id, true, fields));
    }
}

#[test]
fn node_ids_at_digit_boundaries_render_exactly() {
    let ids = digit_boundaries();
    assert_eq!(ids.last(), Some(&usize::MAX));
    let pairs: Vec<(NodeId, NodeId)> =
        ids.iter().flat_map(|&x| ids.iter().map(move |&y| (x, y))).collect();
    for cap in [usize::MAX, pairs.len() / 2] {
        assert_eq!(
            query_reply(Some(i64::MIN), u64::MAX, &pairs, cap, u64::MAX, None),
            query_oracle(Some(i64::MIN), u64::MAX, &pairs, cap, u64::MAX, None),
        );
    }
    assert_eq!(
        targets_reply(Some(-10), 0, &ids, true, 10, None),
        targets_oracle(Some(-10), 0, &ids, true, 10, None),
    );
    // Each id on its own, so a wrong digit points at the id that has it.
    for &x in &ids {
        let reply = Reply::ok(None).targets(&[x], true).finish();
        assert!(reply.contains(&format!("\"targets\":[{x}]")), "{x}: {reply}");
    }
}

#[test]
fn render_ok_and_render_err_match_the_tree_rendering() {
    let awkward = "q\"uote\\ back\nnew\rret\ttab\u{1}\u{1f} ·ε/é";
    let fields = vec![
        (awkward, Value::String(awkward.into())),
        ("floats", Value::Array(vec![Value::Float(0.0), Value::Float(-2.5), Value::Float(1e21)])),
        ("nested", sample_trace()),
        ("empty", Value::Array(vec![Value::Object(vec![]), Value::Array(vec![])])),
        ("null", Value::Null),
        ("big", Value::Int(i128::MIN)),
    ];
    for id in IDS {
        let owned = fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        assert_eq!(render_ok(id, owned), tree_line(id, true, fields.clone()));
        assert_eq!(render_ok(id, Vec::new()), tree_line(id, true, Vec::new()));
        for retry_after_ms in [None, Some(0), Some(25), Some(u64::MAX)] {
            let mut oracle = vec![(
                "error",
                Value::Object(vec![
                    ("code".into(), Value::String("overloaded".into())),
                    ("message".into(), Value::String(awkward.into())),
                ]),
            )];
            oracle.extend(retry_after_ms.map(|ms| ("retry_after_ms", int(ms))));
            assert_eq!(
                render_err(id, "overloaded", awkward, retry_after_ms),
                tree_line(id, false, oracle),
            );
        }
    }
}

/// The writer's own paths end exactly at these values: a string is copied
/// whole unless it holds `"`, `\` or a byte below 0x20; an integer goes
/// digit by digit when it is in `0..=u64::MAX`; floats always go through
/// `Display`.
#[test]
fn point_values_at_the_writer_fast_path_boundaries_match_the_tree_rendering() {
    let mut strings: Vec<String> = (0..=0x7f_u8).map(|b| char::from(b).to_string()).collect();
    strings.push((0..=0x7f_u8).map(char::from).collect());
    strings.extend(["é", "·", "🦀", "é\u{1}·\"🦀\\", ""].map(String::from));
    for s in &strings {
        for id in IDS {
            let reply = Reply::ok(id).field("s", &Value::String(s.clone())).finish();
            assert_eq!(reply, tree_line(id, true, vec![("s", Value::String(s.clone()))]), "{s:?}");
            let error = Value::Object(vec![
                ("code".into(), Value::String("bad_request".into())),
                ("message".into(), Value::String(s.clone())),
            ]);
            assert_eq!(
                Reply::err(id, "bad_request", s).finish(),
                tree_line(id, false, vec![("error", error)]),
                "{s:?}",
            );
        }
    }

    let u64_max = i128::from(u64::MAX);
    let ints = [0, 9, 10, i128::from(i64::MAX), u64_max, u64_max + 1, -1];
    let ints = ints.into_iter().chain([i128::from(i64::MIN), i128::MIN, i128::MAX]);
    let floats = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e21];
    let values = ints.map(Value::Int).chain(floats.map(Value::Float));
    for value in values.chain([Value::Bool(true), Value::Bool(false), Value::Null]) {
        for id in IDS {
            assert_eq!(
                Reply::ok(id).field("v", &value).finish(),
                tree_line(id, true, vec![("v", value.clone())]),
                "{value:?}",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// A live server against an in-process snapshot of the same graph

/// `v0 -a-> v1 -a-> … -a-> v{n}`, plus a `b` edge back from every tenth
/// node; node ids are creation order, so `v{i}` is id `i`.
fn chain_db(n: usize) -> GraphDb {
    let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b']).unwrap());
    for i in 0..n {
        db.add_edge_named(&format!("v{i}"), "a", &format!("v{}", i + 1));
    }
    for i in (10..=n).step_by(10) {
        db.add_edge_named(&format!("v{i}"), "b", &format!("v{}", i - 10));
    }
    db
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        // As the server and the benchmark client do: a frame goes out as two
        // writes, and with Nagle on the second waits for a delayed ACK.
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { writer: stream, reader }
    }

    /// Sends one frame and returns the raw reply line, newline included,
    /// with its parse.
    fn roundtrip(&mut self, frame: &str) -> (String, Value) {
        self.writer.write_all(frame.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).expect("recv") > 0, "server hung up");
        let value = serde_json::from_str(line.trim_end()).expect("reply is JSON");
        assert_eq!(value["ok"].as_bool(), Some(true), "{line}");
        (line, value)
    }
}

fn keys(reply: &Value) -> Vec<&str> {
    reply.as_object().expect("object").iter().map(|(key, _)| key.as_str()).collect()
}

fn pairs_in(reply: &Value) -> Vec<(NodeId, NodeId)> {
    let pair = |p: &Value| {
        let p = p.as_array().expect("pair");
        (p[0].as_u64().unwrap() as NodeId, p[1].as_u64().unwrap() as NodeId)
    };
    reply["pairs"].as_array().expect("pairs").iter().map(pair).collect()
}

#[test]
fn live_replies_equal_the_snapshot_and_the_tree_rendering() {
    const N: usize = 120;
    const Q: &str = "a·a*";
    let config = ServiceConfig {
        engine: engine::EngineConfig { threads: 2, ..engine::EngineConfig::default() },
        ..ServiceConfig::default()
    };
    let server = Server::start(chain_db(N), config).unwrap();
    let mut client = Client::connect(&server);
    client.roundtrip(r#"{"id":1,"op":"register_view","name":"v","regex":"(a+b)·a*"}"#);

    let mut twin = QueryEngine::new(chain_db(N));
    twin.register_view("v", regexlang::parse("(a+b)·a*").unwrap());
    let snapshot = twin.publish_snapshot();
    let answer = snapshot.eval_str(Q);
    let extension = snapshot.view_extension("v").expect("registered");
    assert!(answer.len() > 7_000, "ids cross 9/10 and 99/100: {} pairs", answer.len());

    // `query`, whole and cut by `limit`; `trace` comes last, after `eval_us`.
    for (frame, cap) in [
        (format!(r#"{{"id":-2,"op":"query","q":"{Q}"}}"#), usize::MAX),
        (format!(r#"{{"id":3,"op":"query","q":"{Q}","limit":5}}"#), 5),
        (format!(r#"{{"op":"query","q":"{Q}","trace":true}}"#), usize::MAX),
    ] {
        let (line, reply) = client.roundtrip(&frame);
        let traced = reply.get("trace");
        let mut order = vec!["id", "ok", "revision", "count", "truncated", "pairs", "eval_us"];
        order.extend(traced.map(|_| "trace"));
        assert_eq!(keys(&reply), order, "{frame}");
        let expected: Vec<_> = answer.iter().copied().take(cap).collect();
        assert_eq!(pairs_in(&reply), expected, "{frame}");
        assert_eq!(reply["count"].as_u64(), Some(answer.len() as u64));
        let id = reply["id"].as_i64();
        let revision = reply["revision"].as_u64().unwrap();
        let eval_us = reply["eval_us"].as_u64().unwrap();
        assert_eq!(line, query_oracle(id, revision, answer.as_slice(), cap, eval_us, traced));
    }

    // `view`: no `eval_us`.
    let (line, reply) = client.roundtrip(r#"{"id":4,"op":"view","name":"v"}"#);
    assert_eq!(keys(&reply), ["id", "ok", "revision", "count", "truncated", "pairs"]);
    assert_eq!(pairs_in(&reply), extension.as_slice());
    let revision = reply["revision"].as_u64().unwrap();
    assert_eq!(line, view_oracle(Some(4), revision, extension.as_slice(), usize::MAX));

    // `reachable_from`, whole and stopped early.
    for (limit, tail) in [(None, String::new()), (Some(4), r#","limit":4"#.to_string())] {
        let frame = format!(r#"{{"id":5,"op":"reachable_from","q":"{Q}","from":0{tail}}}"#);
        let (line, reply) = client.roundtrip(&frame);
        assert_eq!(
            keys(&reply),
            ["id", "ok", "revision", "count", "truncated", "targets", "eval_us"]
        );
        let expected = snapshot.eval_from_str(Q, 0, limit);
        let revision = reply["revision"].as_u64().unwrap();
        let eval_us = reply["eval_us"].as_u64().unwrap();
        assert_eq!(
            line,
            targets_oracle(Some(5), revision, &expected.targets, expected.complete, eval_us, None),
        );
    }
    server.shutdown();
}
