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
//! [`parse_frame`] reads a request in one pass over the line's bytes: no
//! `Value` tree, no recursion, time linear in the frame.  It accepts exactly
//! the JSON the `serde_json` shim accepts, rejects nesting deeper than 128
//! arrays and objects as invalid JSON, keeps the first value of each key it
//! knows, and skips the rest.  The [`Request`]'s strings borrow from the
//! line; one is owned only when the frame spelled it with an escape.
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
//! | `overloaded`      | admission gate or write permits full — retry later  |
//! | `unknown_view`    | `view` request named an unregistered view           |
//! | `shutting_down`   | server is draining; no new work accepted            |

use std::borrow::Cow;
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

/// A parsed request verb with its operands.  Its strings borrow from the
/// frame's line; one is owned only when the frame spelled it with an escape.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// Evaluate an RPQ (concrete syntax, e.g. `a·(b+c)*`) against the
    /// current published snapshot under a per-request budget.
    Query {
        /// Query text in the concrete regex syntax.
        q: Cow<'a, str>,
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
        q: Cow<'a, str>,
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
        q: Cow<'a, str>,
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
        edges: Vec<(Cow<'a, str>, Cow<'a, str>, Cow<'a, str>)>,
        /// Repair budget and tracing.
        options: RequestOptions,
    },
    /// Remove a batch of `[from, label, to]` name triples atomically
    /// (validate-before-mutate: a missing occurrence rejects the batch).
    RemoveEdges {
        /// Edge triples to remove.
        edges: Vec<(Cow<'a, str>, Cow<'a, str>, Cow<'a, str>)>,
        /// Repair budget and tracing.
        options: RequestOptions,
    },
    /// Register (or replace) a named materialized view.
    RegisterView {
        /// View name.
        name: Cow<'a, str>,
        /// View definition in the concrete regex syntax.
        regex: Cow<'a, str>,
        /// Tracing (a registration repairs nothing, so its budget is idle).
        options: RequestOptions,
    },
    /// Read a registered view's extension from the current snapshot.
    View {
        /// View name.
        name: Cow<'a, str>,
    },
    /// Service + engine counters.
    Stats,
    /// Latency histograms, the served snapshot's age, and the slow-query
    /// log's depth and evictions.
    Metrics {
        /// `None`/`"json"` returns structured summaries; `"prometheus"`
        /// returns text exposition (format 0.0.4) in an `exposition` field.
        format: Option<Cow<'a, str>>,
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

    fn missing_op() -> Self {
        ProtocolError { code: "unknown_op", message: "missing \"op\"".into() }
    }
}

const NOT_A_BATCH: &str = "\"edges\" must be an array of [from, label, to]";
const NOT_AN_EDGE: &str = "each edge must be a [from, label, to] array";
const NOT_NAMES: &str = "edge endpoints and labels must be strings";

/// How deep arrays and objects may nest in a frame: deeper is not valid
/// JSON, as for the `serde_json` shim (and real `serde_json`'s default
/// recursion limit).
const MAX_DEPTH: u32 = 128;

/// One edge of a batch: `(from, label, to)` names.
pub(crate) type Edge<'a> = (Cow<'a, str>, Cow<'a, str>, Cow<'a, str>);

/// Parses one request line.  The request id (echoed in responses) is
/// extracted best-effort even when the rest of the frame is malformed, so
/// pipelining clients can correlate errors.
///
/// One pass over the line validates the whole frame and keeps the first
/// value of each key the protocol reads; no `Value` is built, and a string
/// is borrowed from `line` unless it holds an escape.  Only a valid frame's
/// fields are interpreted, so every error is the one a `Value` tree would
/// give.
pub fn parse_frame(line: &str) -> (Option<i64>, Result<Request<'_>, ProtocolError>) {
    let Some(mut fields) = Scan { line, ..Scan::default() }.run() else {
        return (None, Err(ProtocolError::parse("frame is not valid JSON")));
    };
    if !fields.object {
        return (None, Err(ProtocolError::parse("frame must be a JSON object")));
    }
    let id = fields.take("id").and_then(|id| id.as_i64());
    (id, fields.request())
}

/// A value where the protocol reads it: as much of it as a field can take.
#[derive(Debug)]
enum Scalar<'a> {
    Int(i128),
    Bool(bool),
    Str(Cow<'a, str>),
    /// `null`, a float, an array or an object: no field takes one.
    Other,
}

impl<'a> Scalar<'a> {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    fn as_i64(&self) -> Option<i64> {
        match self {
            Scalar::Int(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    fn into_str(self) -> Option<Cow<'a, str>> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The top-level keys the protocol reads, but `"edges"`.
const KEYS: [&str; 13] = [
    "id",
    "op",
    "q",
    "from",
    "to",
    "limit",
    "timeout_ms",
    "max_visited",
    "trace",
    "trace_id",
    "name",
    "regex",
    "format",
];

/// What a scan keeps of a frame: whether it is an object, and the first
/// value of each top-level key the protocol reads.
#[derive(Debug, Default)]
struct Fields<'a> {
    object: bool,
    /// The first value of each of [`KEYS`].
    values: [Option<Scalar<'a>>; KEYS.len()],
    /// The `"edges"` batch, or the message of what is wrong with it first.
    edges: Option<Result<Vec<Edge<'a>>, &'static str>>,
}

impl<'a> Fields<'a> {
    fn value(&mut self, key: &str) -> Option<&mut Option<Scalar<'a>>> {
        self.values.get_mut(KEYS.iter().position(|known| *known == key)?)
    }

    fn take(&mut self, key: &str) -> Option<Scalar<'a>> {
        self.value(key)?.take()
    }

    fn uint(&mut self, key: &str) -> Option<u64> {
        self.take(key)?.as_u64()
    }

    fn string(&mut self, key: &str) -> Result<Cow<'a, str>, ProtocolError> {
        self.take(key)
            .and_then(Scalar::into_str)
            .ok_or_else(|| ProtocolError::parse(format!("\"{key}\" must be a string")))
    }

    fn node(&mut self, key: &str) -> Result<usize, ProtocolError> {
        self.uint(key).map(|n| n as usize).ok_or_else(|| {
            ProtocolError::parse(format!("\"{key}\" must be a non-negative integer node id"))
        })
    }

    /// Records `message` unless the batch is already wrong.
    fn fail_batch(&mut self, message: &'static str) {
        if let Some(Ok(_)) = self.edges {
            self.edges = Some(Err(message));
        }
    }

    /// Interprets the fields of a valid object frame: the op, then its
    /// operands in order.
    fn request(mut self) -> Result<Request<'a>, ProtocolError> {
        let op =
            self.take("op").and_then(Scalar::into_str).ok_or_else(ProtocolError::missing_op)?;
        let options = RequestOptions {
            timeout_ms: self.uint("timeout_ms"),
            max_visited: self.uint("max_visited"),
            trace: matches!(self.take("trace"), Some(Scalar::Bool(true))),
            trace_id: self.uint("trace_id"),
        };
        let limit = self.uint("limit").map(|n| n as usize);
        let edges = self.edges.take().unwrap_or(Err(NOT_A_BATCH)).map_err(ProtocolError::parse);
        match op.as_ref() {
            "query" => Ok(Request::Query { q: self.string("q")?, limit, options }),
            "single_pair" => Ok(Request::SinglePair {
                q: self.string("q")?,
                from: self.node("from")?,
                to: self.node("to")?,
                options,
            }),
            "reachable_from" => Ok(Request::ReachableFrom {
                q: self.string("q")?,
                from: self.node("from")?,
                limit,
                options,
            }),
            "add_edges" => Ok(Request::AddEdges { edges: edges?, options }),
            "remove_edges" => Ok(Request::RemoveEdges { edges: edges?, options }),
            "register_view" => Ok(Request::RegisterView {
                name: self.string("name")?,
                regex: self.string("regex")?,
                options,
            }),
            "view" => Ok(Request::View { name: self.string("name")? }),
            "stats" => Ok(Request::Stats),
            "metrics" => {
                Ok(Request::Metrics { format: self.take("format").and_then(Scalar::into_str) })
            }
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError {
                code: "unknown_op",
                message: format!("unsupported op {other:?}"),
            }),
        }
    }
}

/// The first three parts of an edge, those that are strings, and how many
/// parts it has.
#[derive(Debug, Default)]
struct EdgeParts<'a> {
    names: [Option<Cow<'a, str>>; 3],
    len: usize,
}

impl<'a> EdgeParts<'a> {
    fn push(&mut self, part: Scalar<'a>) {
        if let Some(slot) = self.names.get_mut(self.len) {
            *slot = part.into_str();
        }
        self.len += 1;
    }

    fn finish(self) -> Result<Edge<'a>, &'static str> {
        match self {
            EdgeParts { names: [Some(from), Some(label), Some(to)], len: 3 } => {
                Ok((from, label, to))
            }
            EdgeParts { len: 3, .. } => Err(NOT_NAMES),
            _ => Err(NOT_AN_EDGE),
        }
    }
}

/// What the value a scan is about to read is to the protocol.
#[derive(Clone, Copy)]
enum Role {
    /// The whole frame.
    Frame,
    /// The value of the top-level key last read.
    Field,
    /// An element of the `"edges"` batch.
    Edge,
    /// A part of the edge being read.
    Part,
    /// Anything else: checked, not kept.
    Ignored,
}

/// One pass over a frame: the grammar the `serde_json` shim accepts, read
/// without recursion and without building a value.  Lax number syntax
/// (`007`, `.5`, `+1`), `\u` escapes read by `u32::from_str_radix` and raw
/// control characters in strings are accepted exactly as the shim accepts
/// them, so the scan and a `Value` tree agree on every frame.
#[derive(Default)]
struct Scan<'a> {
    line: &'a str,
    pos: usize,
    /// How many arrays and objects are open.
    depth: u32,
    /// Bit `d` is set when the container open at depth `d + 1` is an object.
    objects: u128,
    /// The top-level key whose value is read next.
    key: Cow<'a, str>,
    /// Whether the array open at depth 2 is the `"edges"` batch.
    batch: bool,
    /// The edge open at depth 3, an array in the batch.
    edge: Option<EdgeParts<'a>>,
    fields: Fields<'a>,
}

impl<'a> Scan<'a> {
    /// Reads the frame to its end: its fields, or `None` when it is not one
    /// JSON value nested at most [`MAX_DEPTH`] deep.
    fn run(mut self) -> Option<Fields<'a>> {
        loop {
            // One value.
            self.skip_ws();
            match self.peek()? {
                open @ (b'{' | b'[') => {
                    let object = open == b'{';
                    self.open(object)?;
                    self.skip_ws();
                    if !self.eat(if object { b'}' } else { b']' }) {
                        if object {
                            self.key()?;
                        }
                        continue;
                    }
                    self.close();
                }
                b'"' => {
                    let s = self.string()?;
                    self.take(Scalar::Str(s));
                }
                b't' if self.literal("true") => self.take(Scalar::Bool(true)),
                b'f' if self.literal("false") => self.take(Scalar::Bool(false)),
                b'n' if self.literal("null") => self.take(Scalar::Other),
                _ => {
                    let number = self.number()?;
                    self.take(number);
                }
            }
            // Closers and separators, up to the next value or the end.
            loop {
                self.skip_ws();
                if self.depth == 0 {
                    return (self.pos == self.line.len()).then_some(self.fields);
                }
                let object = self.objects >> (self.depth - 1) & 1 == 1;
                match self.peek()? {
                    b',' => {
                        self.pos += 1;
                        if object {
                            self.skip_ws();
                            self.key()?;
                        }
                        break;
                    }
                    closer @ (b'}' | b']') if object == (closer == b'}') => {
                        self.pos += 1;
                        self.close();
                    }
                    _ => return None,
                }
            }
        }
    }

    fn role(&self) -> Role {
        match self.depth {
            0 => Role::Frame,
            1 if self.fields.object => Role::Field,
            2 if self.batch => Role::Edge,
            3 if self.edge.is_some() => Role::Part,
            _ => Role::Ignored,
        }
    }

    /// Files a value that opens neither the batch nor an edge.
    fn take(&mut self, value: Scalar<'a>) {
        match self.role() {
            Role::Field if self.key == "edges" => {
                if self.fields.edges.is_none() {
                    self.fields.edges = Some(Err(NOT_A_BATCH));
                }
            }
            Role::Field => {
                // The first occurrence of a key wins.
                if let Some(slot @ None) = self.fields.value(&self.key) {
                    *slot = Some(value);
                }
            }
            Role::Edge => self.fields.fail_batch(NOT_AN_EDGE),
            Role::Part => {
                if let Some(edge) = &mut self.edge {
                    edge.push(value);
                }
            }
            Role::Frame | Role::Ignored => {}
        }
    }

    /// Opens an array or object at `pos`.
    fn open(&mut self, object: bool) -> Option<()> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        match self.role() {
            Role::Frame => self.fields.object = object,
            Role::Field if !object && self.key == "edges" && self.fields.edges.is_none() => {
                self.fields.edges = Some(Ok(Vec::new()));
                self.batch = true;
            }
            Role::Edge if !object => {
                if let Some(Ok(_)) = self.fields.edges {
                    self.edge = Some(EdgeParts::default());
                }
            }
            _ => self.take(Scalar::Other),
        }
        let bit = 1u128 << self.depth;
        self.objects = if object { self.objects | bit } else { self.objects & !bit };
        self.depth += 1;
        self.pos += 1;
        Some(())
    }

    /// Closes the innermost container, its closer already read.
    fn close(&mut self) {
        if let Some(edge) = self.edge.take_if(|_| self.depth == 3) {
            match edge.finish() {
                Ok(edge) => {
                    if let Some(Ok(batch)) = &mut self.fields.edges {
                        batch.push(edge);
                    }
                }
                Err(message) => self.fields.fail_batch(message),
            }
        }
        if self.depth == 2 {
            self.batch = false;
        }
        self.depth -= 1;
    }

    /// Reads `"key":`; a top-level key is kept to file its value.
    fn key(&mut self) -> Option<()> {
        let key = self.string()?;
        if self.depth == 1 {
            self.key = key;
        }
        self.skip_ws();
        self.eat(b':').then_some(())
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        let found = self
            .line
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(word.as_bytes()));
        self.pos += if found { word.len() } else { 0 };
        found
    }

    /// Reads a string literal: borrowed from the line unless it holds an
    /// escape.  Each run between escapes is found and copied once.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        let line = self.line;
        if !self.eat(b'"') {
            return None;
        }
        let mut owned: Option<String> = None;
        loop {
            // Quote and backslash are ASCII: the run ends on a char boundary.
            let run =
                line.as_bytes().get(self.pos..)?.iter().position(|&b| b == b'"' || b == b'\\')?;
            let text = line.get(self.pos..self.pos + run)?;
            self.pos += run;
            if self.eat(b'"') {
                return Some(match owned {
                    Some(mut s) => {
                        s.push_str(text);
                        Cow::Owned(s)
                    }
                    None => Cow::Borrowed(text),
                });
            }
            self.pos += 1;
            let c = self.escape()?;
            let s = owned.get_or_insert_with(String::new);
            s.push_str(text);
            s.push(c);
        }
    }

    /// Reads the escape after a backslash, as the shim decodes it.
    fn escape(&mut self) -> Option<char> {
        let c = match self.peek()? {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'u' => {
                let hex = self.line.get(self.pos + 1..self.pos + 5)?;
                self.pos += 4;
                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
            }
            _ => return None,
        };
        self.pos += 1;
        Some(c)
    }

    /// Reads a number as the shim does: a sign, then any run of digits and
    /// `.eE+-`; an integer (`i128`) unless the run holds one of `.eE+-`.
    fn number(&mut self) -> Option<Scalar<'a>> {
        let start = self.pos;
        self.eat(b'-');
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = self.line.get(start..self.pos)?;
        if float {
            text.parse::<f64>().ok().map(|_| Scalar::Other)
        } else {
            text.parse::<i128>().ok().map(Scalar::Int)
        }
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

/// The parse the scanner replaced, kept as its oracle: a `Value` tree from
/// `serde_json::from_str`, then one lookup per field.
#[cfg(test)]
mod oracle {
    use super::*;

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

    fn owned(s: &str) -> Cow<'static, str> {
        Cow::Owned(s.to_string())
    }

    fn parse_edges(value: Option<&Value>) -> Result<Vec<Edge<'static>>, ProtocolError> {
        let items =
            value.and_then(Value::as_array).ok_or_else(|| ProtocolError::parse(NOT_A_BATCH))?;
        let mut edges = Vec::with_capacity(items.len());
        for item in items {
            let triple = item
                .as_array()
                .filter(|parts| parts.len() == 3)
                .ok_or_else(|| ProtocolError::parse(NOT_AN_EDGE))?;
            let mut parts = triple.iter().map(|part| {
                part.as_str().map(owned).ok_or_else(|| ProtocolError::parse(NOT_NAMES))
            });
            let (Some(from), Some(label), Some(to)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(ProtocolError::parse(NOT_AN_EDGE));
            };
            edges.push((from?, label?, to?));
        }
        Ok(edges)
    }

    fn required_str(obj: &Value, key: &str) -> Result<Cow<'static, str>, ProtocolError> {
        obj.get(key)
            .and_then(Value::as_str)
            .map(owned)
            .ok_or_else(|| ProtocolError::parse(format!("\"{key}\" must be a string")))
    }

    fn required_node(obj: &Value, key: &str) -> Result<usize, ProtocolError> {
        obj.get(key).and_then(Value::as_u64).map(|n| n as usize).ok_or_else(|| {
            ProtocolError::parse(format!("\"{key}\" must be a non-negative integer node id"))
        })
    }

    pub(super) fn parse_frame(
        line: &str,
    ) -> (Option<i64>, Result<Request<'static>, ProtocolError>) {
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

    fn parse_request(value: &Value) -> Result<Request<'static>, ProtocolError> {
        let op = value.get("op").and_then(Value::as_str).ok_or_else(ProtocolError::missing_op)?;
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
            "add_edges" => {
                Ok(Request::AddEdges { edges: parse_edges(value.get("edges"))?, options })
            }
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
                format: value.get("format").and_then(Value::as_str).map(owned),
            }),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError {
                code: "unknown_op",
                message: format!("unsupported op {other:?}"),
            }),
        }
    }
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

    /// A seeded xorshift generator: every run sees the same frames.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }

        fn pick<'s>(&mut self, items: &[&'s str]) -> &'s str {
            items[self.below(items.len())]
        }
    }

    const KEYS: &[&str] = &[
        "id",
        "op",
        "q",
        "from",
        "to",
        "limit",
        "timeout_ms",
        "max_visited",
        "trace",
        "trace_id",
        "name",
        "regex",
        "format",
        "edges",
    ];
    /// Keys the protocol does not read, one of them `op` spelled with an
    /// escape (which is `op` once decoded).
    const UNKNOWN_KEYS: &[&str] = &["x", "nested", "", "ops", r"o\u0070", "é·"];
    const OPS: &[&str] = &[
        "query",
        "single_pair",
        "reachable_from",
        "add_edges",
        "remove_edges",
        "register_view",
        "view",
        "stats",
        "metrics",
        "health",
        "shutdown",
        "frobnicate",
        r"qu\u0065ry",
        "",
    ];
    /// Integers in and out of every range a field reads, floats, and the
    /// shim's lax number syntax — a few of them not JSON at all.
    const NUMBERS: &[&str] = &[
        "0",
        "7",
        "007",
        "-1",
        "-0",
        "3",
        "1.5",
        "-2.5e3",
        "1e3",
        "1E+2",
        ".5",
        "+1",
        "1.",
        "-",
        "--1",
        "1-2",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "18446744073709551615",
        "18446744073709551616",
        "170141183460469231731687303715884105727",
        "170141183460469231731687303715884105728",
        "1e400",
    ];
    /// Strings with every escape, non-ASCII runs, a raw control character
    /// and some broken escapes.
    const STRINGS: &[&str] = &[
        r#""a""#,
        r#""a·b*""#,
        r#""a\u00b7b""#,
        r#""x\"y""#,
        r#""\\""#,
        r#""ε日本·""#,
        r#""\n\t\/\b\f\r""#,
        "\"raw\u{1}ctl\"",
        r#""\u+041""#,
        r#""\ud800""#,
        r#""\x""#,
        r#""\u12""#,
        r#""prometheus""#,
        r#""""#,
        r#""unterminated"#,
    ];
    const WHITESPACE: &[&str] = &["", "", "", " ", "\t", "\r\n "];

    fn value(rng: &mut Rng, depth: usize) -> String {
        match rng.below(if depth > 3 { 5 } else { 8 }) {
            0 | 1 => rng.pick(NUMBERS).to_string(),
            2 | 3 => rng.pick(STRINGS).to_string(),
            4 => rng.pick(&["true", "false", "null", "tru", "nul"]).to_string(),
            5 => {
                let items: Vec<String> = (0..rng.below(4)).map(|_| value(rng, depth + 1)).collect();
                format!("[{}]", items.join(","))
            }
            6 => {
                let entries: Vec<String> = (0..rng.below(4))
                    .map(|_| {
                        let key =
                            if rng.chance(50) { rng.pick(KEYS) } else { rng.pick(UNKNOWN_KEYS) };
                        format!("\"{key}\":{}", value(rng, depth + 1))
                    })
                    .collect();
                format!("{{{}}}", entries.join(","))
            }
            _ => batch(rng, depth),
        }
    }

    fn name(rng: &mut Rng) -> String {
        if rng.chance(85) {
            format!(
                "\"{}\"",
                rng.pick(&["x", "y", "n0", "a", "b", "ε", "a\\\"b", r"\u00b7", "日本"])
            )
        } else {
            rng.pick(STRINGS).to_string()
        }
    }

    /// An edge batch, mostly well formed; an edge may have the wrong
    /// length, a part that is no string, or be no array at all.
    fn batch(rng: &mut Rng, depth: usize) -> String {
        let edges: Vec<String> = (0..rng.below(5))
            .map(|_| match rng.below(10) {
                0 => {
                    let parts: Vec<String> = (0..rng.below(6)).map(|_| name(rng)).collect();
                    format!("[{}]", parts.join(","))
                }
                1 => {
                    let mut parts = [name(rng), name(rng), name(rng)];
                    parts[rng.below(3)] = value(rng, depth + 2);
                    format!("[{}]", parts.join(","))
                }
                2 => value(rng, depth + 1),
                _ => format!("[{},{},{}]", name(rng), name(rng), name(rng)),
            })
            .collect();
        format!("[{}]", edges.join(","))
    }

    /// A value of the type `key` takes, or (sometimes) any value at all.
    fn field(rng: &mut Rng, key: &str) -> String {
        if rng.chance(25) {
            return value(rng, 1);
        }
        match key {
            "op" => format!("\"{}\"", rng.pick(OPS)),
            "q" | "name" | "regex" | "format" => name(rng),
            "trace" => rng.pick(&["true", "false"]).to_string(),
            "edges" => batch(rng, 1),
            _ => rng.pick(&["0", "1", "7", "42", "-1", "1.5"]).to_string(),
        }
    }

    /// A frame: known keys in any order, duplicated and mixed with unknown
    /// keys holding nested values; sometimes one ASCII byte is replaced,
    /// and sometimes the frame is no object at all.
    fn frame(rng: &mut Rng) -> String {
        if rng.chance(3) {
            return value(rng, 0);
        }
        let mut entries: Vec<(String, String)> = Vec::new();
        entries.push(("op".into(), format!("\"{}\"", rng.pick(OPS))));
        for key in KEYS {
            if rng.chance(30) {
                entries.push((key.to_string(), field(rng, key)));
            }
        }
        for _ in 0..rng.below(3) {
            entries.push((rng.pick(UNKNOWN_KEYS).to_string(), value(rng, 1)));
        }
        for _ in 0..rng.below(3) {
            let key = entries[rng.below(entries.len())].0.clone();
            let value = field(rng, &key);
            entries.push((key, value));
        }
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.below(i + 1));
        }
        let mut text = String::from("{");
        for (i, (key, value)) in entries.iter().enumerate() {
            let (a, b, c) = (rng.pick(WHITESPACE), rng.pick(WHITESPACE), rng.pick(WHITESPACE));
            let comma = if i == 0 { "" } else { "," };
            text += &format!("{comma}{a}\"{key}\"{b}:{c}{value}");
        }
        text += rng.pick(WHITESPACE);
        text.push('}');
        if rng.chance(10) {
            // An ASCII byte for an ASCII byte: still UTF-8, maybe no JSON.
            let ascii: Vec<usize> =
                (0..text.len()).filter(|&i| text.as_bytes()[i] < 0x80).collect();
            let at = ascii[rng.below(ascii.len())];
            let by = rng.pick(&["{", "}", "[", "]", ",", ":", "\"", "\\", " ", "0", "-", "e"]);
            text.replace_range(at..at + 1, by);
        }
        text
    }

    fn assert_agrees(line: &str) -> Result<Request<'_>, ProtocolError> {
        let (id, request) = parse_frame(line);
        let (oracle_id, oracle_request) = oracle::parse_frame(line);
        assert_eq!((id, &request), (oracle_id, &oracle_request), "frame {line:?}");
        request
    }

    #[test]
    fn the_scan_agrees_with_the_value_tree_on_generated_frames() {
        let mut rng = Rng(0x5eed_f00d_cafe_beef);
        let mut outcomes = std::collections::BTreeSet::new();
        let mut prefixes = 0;
        for _ in 0..4_000 {
            let line = frame(&mut rng);
            let outcome = match assert_agrees(&line) {
                Ok(_) => "ok".to_string(),
                Err(e) => e.message,
            };
            if outcome != "frame is not valid JSON" {
                // Truncated anywhere, a valid frame must fail alike.
                for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
                    let _ = assert_agrees(&line[..end]);
                    prefixes += 1;
                }
            }
            outcomes.insert(outcome.split(' ').take(3).collect::<Vec<_>>().join(" "));
        }
        // The frames reach every kind of outcome, not just one.
        for expected in [
            "ok",
            "frame is not",
            "frame must be",
            "missing \"op\"",
            "unsupported op \"frobnicate\"",
            "\"q\" must be",
            "\"from\" must be",
            "\"to\" must be",
            "\"name\" must be",
            "\"regex\" must be",
            "\"edges\" must be",
            "each edge must",
            "edge endpoints and",
        ] {
            assert!(outcomes.contains(expected), "no frame ended in {expected:?}: {outcomes:?}");
        }
        assert!(prefixes > 10_000, "only {prefixes} prefixes");
    }

    #[test]
    fn the_scan_agrees_with_the_value_tree_at_the_depth_limit() {
        for depth in [4, 127, 128, 129, 1_000] {
            // `depth` counts the frame's own object.
            let arrays = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
            let objects = |d: usize| format!("{}1{}", "{\"k\":".repeat(d), "}".repeat(d));
            let inner = depth - 1;
            for line in [
                format!(r#"{{"id":1,"op":"health","x":{}}}"#, arrays(inner)),
                format!(r#"{{"id":1,"op":"health","x":{}}}"#, objects(inner)),
                format!(r#"{{"op":"add_edges","id":2,"edges":{}}}"#, arrays(inner)),
                format!(
                    r#"{{"op":"add_edges","edges":[["x","a",{}]]}}"#,
                    arrays(depth.saturating_sub(3))
                ),
                arrays(depth),
            ] {
                let request = assert_agrees(&line);
                let valid = request
                    .as_ref()
                    .map_or_else(|e| e.message != "frame is not valid JSON", |_| true);
                assert_eq!(valid, depth <= 128, "depth {depth}: {line:.60}");
            }
        }
        // Far past the limit the scan stops at it, with no recursion to
        // overflow a stack.
        let line = format!(r#"{{"id":1,"op":"health","x":{}}}"#, "[".repeat(100_000));
        assert_eq!(
            parse_frame(&line),
            (None, Err(ProtocolError::parse("frame is not valid JSON")))
        );
    }

    #[test]
    fn the_first_occurrence_of_a_key_wins() {
        let request = assert_agrees(
            r#"{"op":"single_pair","q":"a","from":1,"to":2,"q":"b","from":"x","op":"stats"}"#,
        );
        assert_eq!(
            request.unwrap(),
            Request::SinglePair {
                q: "a".into(),
                from: 1,
                to: 2,
                options: RequestOptions::default()
            }
        );
        // A malformed batch under a second `edges` key is checked, not read.
        let request = assert_agrees(r#"{"op":"add_edges","edges":[["x","a","y"]],"edges":[1]}"#);
        assert!(request.is_ok());
    }

    #[test]
    fn escape_free_strings_borrow_from_the_line() {
        let inside = |s: &str, line: &str| line.as_bytes().as_ptr_range().contains(&s.as_ptr());
        let line = r#"{"id":1,"op":"single_pair","q":"a·b*","from":3,"to":9}"#;
        let Ok(Request::SinglePair { q: Cow::Borrowed(q), .. }) = parse_frame(line).1 else {
            panic!("`q` of {line} is not borrowed");
        };
        assert!(q == "a·b*" && inside(q, line));

        let line = r#"{"op":"add_edges","edges":[["x","a","y"],["y","b","é"]]}"#;
        let Ok(Request::AddEdges { edges, .. }) = parse_frame(line).1 else {
            panic!("{line} is a batch");
        };
        for (from, label, to) in &edges {
            for name in [from, label, to] {
                assert!(matches!(name, Cow::Borrowed(s) if inside(s, line)), "{name:?} is owned");
            }
        }

        // An escape is decoded into an owned string.
        let line = r#"{"op":"query","q":"a\u00b7b"}"#;
        let Ok(Request::Query { q: Cow::Owned(q), .. }) = parse_frame(line).1 else {
            panic!("`q` of {line} is borrowed");
        };
        assert_eq!(q, "a·b");
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
