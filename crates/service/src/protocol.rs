//! Wire protocol: line-delimited JSON frames.
//!
//! Every request is one JSON object on one line; every response is one JSON
//! object on one line.  Requests carry an optional numeric `"id"` which is
//! echoed verbatim in the response so clients may pipeline.  Success
//! responses have `"ok": true`; failures have `"ok": false` plus an
//! `"error"` object with a stable machine-readable `"code"` (the
//! [`engine::EngineError::code`] strings plus the service-level codes below)
//! and a human-readable `"message"`.  Overload rejections additionally carry
//! `"retry_after_ms"` so well-behaved clients can back off.
//!
//! Every response is written by one [`Reply`], once and in order; a read's
//! fields are `revision`, then `count`, `truncated` and `pairs` (or
//! `targets`, or `connected`), then `eval_us`, then `trace` when asked for.
//!
//! Service-level error codes (not produced by the engine itself):
//!
//! | code              | meaning                                             |
//! |-------------------|-----------------------------------------------------|
//! | `parse_error`     | frame is not valid JSON / not an object / bad shape |
//! | `unknown_op`      | `"op"` missing or not one of the supported verbs    |
//! | `frame_too_large` | request line exceeded `max_frame_bytes`             |
//! | `batch_too_large` | mutation batch exceeded `max_batch_edges`           |
//! | `overloaded`      | admission gate or writer queue full — retry later   |
//! | `unknown_view`    | `view` request named an unregistered view           |
//! | `shutting_down`   | server is draining; no new work accepted            |

use std::fmt::Write;

use graphdb::NodeId;
use serde_json::Value;

/// The per-request knobs the six evaluating verbs — `query`, `single_pair`,
/// `reachable_from`, `add_edges`, `remove_edges`, `register_view` — all
/// accept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Deadline in milliseconds, clamped to the server's `max_timeout_ms`.
    /// Absent, a read runs under the server's default and a write's repair
    /// under no deadline.
    pub timeout_ms: Option<u64>,
    /// Cap on visited product pairs (admission-controlled work bound): of
    /// the evaluation for a read, of the view repair for a write — which
    /// still applies when the cap trips, dropping the extensions it could
    /// not repair in time.
    pub max_visited: Option<u64>,
    /// When true the response carries a `trace` object: per-phase spans
    /// (parse / cache_lookup / compile / product_bfs / chunk_merge for a
    /// read, validate / csr_freeze / repair / snapshot_publish for a write,
    /// plus per-worker and per-view detail) and their totals — the explain
    /// surface.
    pub trace: bool,
    /// Caller-supplied trace id, echoed in the trace object so clients can
    /// correlate across systems; the server allocates one if absent.
    pub trace_id: Option<u64>,
}

impl RequestOptions {
    fn parse(value: &Value) -> Self {
        RequestOptions {
            timeout_ms: value.get("timeout_ms").and_then(Value::as_u64),
            max_visited: value.get("max_visited").and_then(Value::as_u64),
            trace: value.get("trace").and_then(Value::as_bool).unwrap_or(false),
            trace_id: value.get("trace_id").and_then(Value::as_u64),
        }
    }
}

/// A parsed request verb with its operands.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate an RPQ (concrete syntax, e.g. `a·(b+c)*`) against the
    /// current published snapshot under a per-request budget.
    Query {
        /// Query text in the concrete regex syntax.
        q: String,
        /// Cap on returned pairs (the full count is still reported).
        limit: Option<usize>,
        /// Budget and tracing.
        options: RequestOptions,
    },
    /// Single-pair reachability probe: is node `to` reachable from node
    /// `from` along a path matching `q`?  Served by the snapshot's
    /// interactive read path (materialized-answer probe, then bidirectional
    /// meet-in-the-middle search) — never a full materialization.  A trace
    /// carries the interactive phases (`meet_check`, `bidir_forward`,
    /// `bidir_backward`) alongside parse/compile.
    SinglePair {
        /// Query text in the concrete regex syntax.
        q: String,
        /// Source node id (as reported by mutation responses).
        from: usize,
        /// Target node id.
        to: usize,
        /// Budget and tracing.
        options: RequestOptions,
    },
    /// Single-source sweep: all nodes reachable from `from` along paths
    /// matching `q`, optionally stopping early after `limit` targets
    /// (top-k).  Served by the snapshot's interactive read path.
    ReachableFrom {
        /// Query text in the concrete regex syntax.
        q: String,
        /// Source node id.
        from: usize,
        /// Stop after this many distinct targets (the response's
        /// `truncated` flag reports whether the sweep stopped early).
        limit: Option<usize>,
        /// Budget and tracing.
        options: RequestOptions,
    },
    /// Insert a batch of `[from, label, to]` name triples atomically.
    AddEdges {
        /// Edge triples; unknown node names are created, unknown labels
        /// reject the whole batch.
        edges: Vec<(String, String, String)>,
        /// Repair budget and tracing.
        options: RequestOptions,
    },
    /// Remove a batch of `[from, label, to]` name triples atomically
    /// (validate-before-mutate: a missing occurrence rejects the batch).
    RemoveEdges {
        /// Edge triples to remove.
        edges: Vec<(String, String, String)>,
        /// Repair budget and tracing.
        options: RequestOptions,
    },
    /// Register (or replace) a named materialized view.
    RegisterView {
        /// View name.
        name: String,
        /// View definition in the concrete regex syntax.
        regex: String,
        /// Tracing (a registration repairs nothing, so its budget is idle).
        options: RequestOptions,
    },
    /// Read a registered view's extension from the current snapshot.
    View {
        /// View name.
        name: String,
    },
    /// Service + engine counters.
    Stats,
    /// Latency histograms, the served snapshot's age, and the slow-query
    /// log's depth and evictions.
    Metrics {
        /// `None`/`"json"` returns structured summaries; `"prometheus"`
        /// returns text exposition (format 0.0.4) in an `exposition` field.
        format: Option<String>,
    },
    /// Liveness probe.
    Health,
    /// Ask the server to stop accepting work and drain.
    Shutdown,
}

/// A protocol-level failure: stable code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable error code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    fn parse(message: impl Into<String>) -> Self {
        ProtocolError { code: "parse_error", message: message.into() }
    }
}

fn parse_edges(value: Option<&Value>) -> Result<Vec<(String, String, String)>, ProtocolError> {
    let items = value
        .and_then(Value::as_array)
        .ok_or_else(|| ProtocolError::parse("\"edges\" must be an array of [from, label, to]"))?;
    let mut edges = Vec::with_capacity(items.len());
    for item in items {
        let triple = item
            .as_array()
            .filter(|parts| parts.len() == 3)
            .ok_or_else(|| ProtocolError::parse("each edge must be a [from, label, to] array"))?;
        let mut parts = triple.iter().map(|part| {
            part.as_str()
                .map(str::to_string)
                .ok_or_else(|| ProtocolError::parse("edge endpoints and labels must be strings"))
        });
        let (Some(from), Some(label), Some(to)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(ProtocolError::parse("each edge must be a [from, label, to] array"));
        };
        edges.push((from?, label?, to?));
    }
    Ok(edges)
}

fn required_str(obj: &Value, key: &str) -> Result<String, ProtocolError> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtocolError::parse(format!("\"{key}\" must be a string")))
}

fn required_node(obj: &Value, key: &str) -> Result<usize, ProtocolError> {
    obj.get(key)
        .and_then(Value::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| {
            ProtocolError::parse(format!("\"{key}\" must be a non-negative integer node id"))
        })
}

/// Parses one request line.  The request id (echoed in responses) is
/// extracted best-effort even when the rest of the frame is malformed, so
/// pipelining clients can correlate errors.
pub fn parse_frame(line: &str) -> (Option<i64>, Result<Request, ProtocolError>) {
    let value = match serde_json::from_str(line) {
        Ok(value) => value,
        Err(_) => return (None, Err(ProtocolError::parse("frame is not valid JSON"))),
    };
    if value.as_object().is_none() {
        return (None, Err(ProtocolError::parse("frame must be a JSON object")));
    }
    let id = value.get("id").and_then(Value::as_i64);
    (id, parse_request(&value))
}

fn parse_request(value: &Value) -> Result<Request, ProtocolError> {
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtocolError { code: "unknown_op", message: "missing \"op\"".into() })?;
    let options = RequestOptions::parse(value);
    let limit = || value.get("limit").and_then(Value::as_u64).map(|n| n as usize);
    match op {
        "query" => Ok(Request::Query { q: required_str(value, "q")?, limit: limit(), options }),
        "single_pair" => Ok(Request::SinglePair {
            q: required_str(value, "q")?,
            from: required_node(value, "from")?,
            to: required_node(value, "to")?,
            options,
        }),
        "reachable_from" => Ok(Request::ReachableFrom {
            q: required_str(value, "q")?,
            from: required_node(value, "from")?,
            limit: limit(),
            options,
        }),
        "add_edges" => Ok(Request::AddEdges { edges: parse_edges(value.get("edges"))?, options }),
        "remove_edges" => {
            Ok(Request::RemoveEdges { edges: parse_edges(value.get("edges"))?, options })
        }
        "register_view" => Ok(Request::RegisterView {
            name: required_str(value, "name")?,
            regex: required_str(value, "regex")?,
            options,
        }),
        "view" => Ok(Request::View { name: required_str(value, "name")? }),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics {
            format: value.get("format").and_then(Value::as_str).map(str::to_string),
        }),
        "health" => Ok(Request::Health),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError {
            code: "unknown_op",
            message: format!("unsupported op {other:?}"),
        }),
    }
}

/// One reply line, written once and in order: `{"id":…,"ok":…`, then each
/// field as it is added, then `}` and the newline.  Nothing is built to be
/// serialized afterwards: answer pairs and target ids are written straight
/// from the slice they live in, integers digit by digit with no heap
/// allocation, and [`Value`] fields by reference.  No step can fail, so a
/// reply has no error path.
#[derive(Debug)]
#[must_use = "a reply is sent only once `finish` returns its line"]
pub struct Reply {
    line: String,
}

impl Reply {
    /// Starts a success reply: `{"id":…,"ok":true`.
    pub fn ok(id: Option<i64>) -> Self {
        Reply::start(id, ",\"ok\":true")
    }

    /// Starts a failure reply:
    /// `{"id":…,"ok":false,"error":{"code":…,"message":…}`.
    pub fn err(id: Option<i64>, code: &str, message: &str) -> Self {
        let mut reply = Reply::start(id, ",\"ok\":false");
        reply.key("error");
        reply.line.push_str("{\"code\":");
        push_json_str(&mut reply.line, code);
        reply.line.push_str(",\"message\":");
        push_json_str(&mut reply.line, message);
        reply.line.push('}');
        reply
    }

    fn start(id: Option<i64>, ok: &str) -> Self {
        let mut line = String::from("{\"id\":");
        // Writing into a `String` cannot fail.
        let _ = match id {
            Some(id) => write!(line, "{id}{ok}"),
            None => write!(line, "null{ok}"),
        };
        Reply { line }
    }

    fn key(&mut self, key: &str) {
        self.line.push(',');
        push_json_str(&mut self.line, key);
        self.line.push(':');
    }

    /// Appends `"key":value`, the value written in place.
    pub fn field(mut self, key: &str, value: &Value) -> Self {
        self.key(key);
        // Neither writing into a `String` nor `Value`'s `Display` can fail.
        let _ = write!(self.line, "{value}");
        self
    }

    /// Appends a relation capped at `cap` pairs: `"count"` (its whole
    /// size), `"truncated"` (whether the cap dropped any) and `"pairs"` (the
    /// first `cap`, as `[x,y]` arrays) — the body of a `query` or `view`
    /// reply.
    pub fn pairs(mut self, pairs: &[(NodeId, NodeId)], cap: usize) -> Self {
        let shown = pairs.get(..cap).unwrap_or(pairs);
        self = self
            .field("count", &Value::Int(pairs.len() as i128))
            .field("truncated", &Value::Bool(shown.len() < pairs.len()));
        self.key("pairs");
        self.line.push('[');
        for (i, &(x, y)) in shown.iter().enumerate() {
            if i > 0 {
                self.line.push(',');
            }
            self.line.push('[');
            push_uint(&mut self.line, x as u64);
            self.line.push(',');
            push_uint(&mut self.line, y as u64);
            self.line.push(']');
        }
        self.line.push(']');
        self
    }

    /// Appends the targets of a single-source sweep: `"count"`,
    /// `"truncated"` (the sweep stopped before it was `complete`) and
    /// `"targets"` — the body of a `reachable_from` reply.
    pub fn targets(mut self, targets: &[NodeId], complete: bool) -> Self {
        self = self
            .field("count", &Value::Int(targets.len() as i128))
            .field("truncated", &Value::Bool(!complete));
        self.key("targets");
        self.line.push('[');
        for (i, &target) in targets.iter().enumerate() {
            if i > 0 {
                self.line.push(',');
            }
            push_uint(&mut self.line, target as u64);
        }
        self.line.push(']');
        self
    }

    /// Closes the object and returns the line, newline included.
    pub fn finish(mut self) -> String {
        self.line.push_str("}\n");
        self.line
    }
}

/// Appends `n` in decimal without allocating: the digits go least
/// significant first into a stack buffer, then into the line in order.
fn push_uint(line: &mut String, mut n: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut len = 0;
    for slot in &mut digits {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
        len += 1;
        if n == 0 {
            break;
        }
    }
    line.extend(digits.iter().take(len).rev().map(|&d| char::from(d)));
}

/// Appends `s` as a JSON string literal, escaped the way `Value`'s
/// `Display` escapes it.
fn push_json_str(line: &mut String, s: &str) {
    line.push('"');
    for c in s.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(line, "\\u{:04x}", c as u32);
            }
            c => line.push(c),
        }
    }
    line.push('"');
}

/// Renders a success response: `{"id":…,"ok":true, …fields}` plus newline.
pub fn render_ok(id: Option<i64>, fields: Vec<(String, Value)>) -> String {
    fields.iter().fold(Reply::ok(id), |reply, (key, value)| reply.field(key, value)).finish()
}

/// Renders a failure response: `{"id":…,"ok":false,"error":{…}}` plus
/// newline; `retry_after_ms` is included only for overload rejections.
pub fn render_err(
    id: Option<i64>,
    code: &str,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let reply = Reply::err(id, code, message);
    match retry_after_ms {
        Some(ms) => reply.field("retry_after_ms", &Value::Int(ms.into())),
        None => reply,
    }
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_frames_parse_with_optional_budgets() {
        let (id, req) =
            parse_frame(r#"{"id":7,"op":"query","q":"a·b*","timeout_ms":50,"limit":10}"#);
        assert_eq!(id, Some(7));
        assert_eq!(
            req.unwrap(),
            Request::Query {
                q: "a·b*".into(),
                limit: Some(10),
                options: RequestOptions { timeout_ms: Some(50), ..RequestOptions::default() },
            }
        );
    }

    #[test]
    fn trace_flags_and_metrics_frames_parse() {
        let (_, req) = parse_frame(r#"{"op":"query","q":"a","trace":true,"trace_id":4242}"#);
        match req.unwrap() {
            Request::Query { options, .. } => {
                assert!(options.trace);
                assert_eq!(options.trace_id, Some(4242));
            }
            other => panic!("expected query, got {other:?}"),
        }

        let (_, req) = parse_frame(r#"{"op":"metrics"}"#);
        assert_eq!(req.unwrap(), Request::Metrics { format: None });
        let (_, req) = parse_frame(r#"{"op":"metrics","format":"prometheus"}"#);
        assert_eq!(req.unwrap(), Request::Metrics { format: Some("prometheus".into()) });
    }

    #[test]
    fn edge_batches_parse_as_name_triples() {
        let (_, req) = parse_frame(r#"{"op":"add_edges","edges":[["x","a","y"],["y","b","z"]]}"#);
        assert_eq!(
            req.unwrap(),
            Request::AddEdges {
                edges: vec![
                    ("x".into(), "a".into(), "y".into()),
                    ("y".into(), "b".into(), "z".into()),
                ],
                options: RequestOptions::default(),
            }
        );
        // Write frames take the options read frames take.
        let (_, req) = parse_frame(
            r#"{"op":"remove_edges","edges":[],"timeout_ms":5,"max_visited":9,"trace":true}"#,
        );
        let options = RequestOptions {
            timeout_ms: Some(5),
            max_visited: Some(9),
            trace: true,
            trace_id: None,
        };
        assert_eq!(req.unwrap(), Request::RemoveEdges { edges: vec![], options });
    }

    #[test]
    fn interactive_frames_parse_with_integer_node_ids() {
        let (id, req) =
            parse_frame(r#"{"id":2,"op":"single_pair","q":"a·b*","from":3,"to":9}"#);
        assert_eq!(id, Some(2));
        assert_eq!(
            req.unwrap(),
            Request::SinglePair {
                q: "a·b*".into(),
                from: 3,
                to: 9,
                options: RequestOptions::default(),
            }
        );

        let (_, req) =
            parse_frame(r#"{"op":"reachable_from","q":"a","from":0,"limit":5,"trace":true}"#);
        assert_eq!(
            req.unwrap(),
            Request::ReachableFrom {
                q: "a".into(),
                from: 0,
                limit: Some(5),
                options: RequestOptions { trace: true, ..RequestOptions::default() },
            }
        );
    }

    #[test]
    fn malformed_frames_fail_without_panicking() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            "42",
            r#"{"op":"query"}"#,
            r#"{"op":"add_edges","edges":[["x","a"]]}"#,
            r#"{"op":"add_edges","edges":[["x","a",3]]}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"q":"a"}"#,
            r#"{"op":"single_pair","q":"a","from":0}"#,
            r#"{"op":"single_pair","q":"a","to":1}"#,
            r#"{"op":"single_pair","from":0,"to":1}"#,
            r#"{"op":"single_pair","q":"a","from":-1,"to":1}"#,
            r#"{"op":"single_pair","q":"a","from":"n0","to":1}"#,
            r#"{"op":"reachable_from","q":"a"}"#,
            r#"{"op":"reachable_from","from":0}"#,
            r#"{"op":"reachable_from","q":"a","from":1.5}"#,
        ] {
            let (_, req) = parse_frame(bad);
            assert!(req.is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn ids_survive_malformed_request_bodies() {
        let (id, req) = parse_frame(r#"{"id":3,"op":"query"}"#);
        assert_eq!(id, Some(3));
        assert!(req.is_err());
    }

    #[test]
    fn responses_render_as_single_lines() {
        let ok = render_ok(Some(1), vec![("count".into(), Value::Int(2))]);
        assert_eq!(ok, "{\"id\":1,\"ok\":true,\"count\":2}\n");
        let err = render_err(None, "overloaded", "try later", Some(25));
        assert_eq!(
            err,
            "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"overloaded\",\
             \"message\":\"try later\"},\"retry_after_ms\":25}\n"
        );
        let parsed = serde_json::from_str(err.trim_end()).unwrap();
        assert_eq!(parsed["error"]["code"].as_str(), Some("overloaded"));
    }
}
