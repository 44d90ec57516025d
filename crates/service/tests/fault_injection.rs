//! Fault injection against a live server: malformed frames, oversized
//! input, disconnects, deadline storms, queue overflow, admission
//! rejection, and graceful shutdown.  The invariant under test everywhere:
//! the server never panics, never wedges, and keeps serving well-formed
//! traffic after every abuse.  One session of every kind of frame, fault
//! included, moves every `ServiceStatsSnapshot` counter, so a counter added
//! without a path that reaches it fails here.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use automata::Alphabet;
use graphdb::GraphDb;
use serde_json::Value;
use service::{Server, ServiceConfig};

// ---------------------------------------------------------------------------
// Harness

fn small_db() -> GraphDb {
    let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
    db.add_edge_named("n0", "a", "n1");
    db.add_edge_named("n1", "b", "n2");
    db.add_edge_named("n2", "a", "n1");
    db.add_edge_named("n1", "c", "n3");
    db
}

/// A long `a`-chain with no `b`-edge.  `a*` over it visits O(n²) product
/// pairs, and so does [`BLOCKER`], whose answer is empty — sweep time with
/// nothing to merge or render.
fn chain_db(n: usize) -> GraphDb {
    let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b']).unwrap());
    for i in 0..n {
        db.add_edge_named(&format!("v{i}"), "a", &format!("v{}", i + 1));
    }
    db
}

/// The query the overload tests occupy a slot with: over `chain_db(n)` it
/// costs n²/2 product pops, so the chain length alone decides how long the
/// slot is held — no race with how fast the evaluator has become.
const BLOCKER: &str = "a*·b";

/// Polls `condition` until it holds (the tests' only way of waiting for the
/// server to reach a state; a fixed sleep would be a guess).
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(30);
    while !condition() {
        assert!(Instant::now() < give_up, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A chain length over which one thread of this host, in this build profile
/// (the suite runs unoptimized under `cargo test`, ~40× slower than release),
/// takes about `secs` to sweep [`BLOCKER`] — measured on a short chain and
/// scaled by the n² cost.  For work that carries no deadline of its own.
fn chain_taking(secs: f64) -> usize {
    let probe = 1_500;
    let db = chain_db(probe);
    let started = Instant::now();
    assert!(graphdb::eval_str(&db, BLOCKER).is_empty());
    let secs_per_pop = started.elapsed().as_secs_f64() / (probe * probe / 2) as f64;
    ((2.0 * secs / secs_per_pop).sqrt() as usize).max(probe)
}

fn test_config() -> ServiceConfig {
    ServiceConfig {
        engine: engine::EngineConfig { threads: 2, ..engine::EngineConfig::default() },
        ..ServiceConfig::default()
    }
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
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { writer: stream, reader }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        serde_json::from_str(line.trim_end()).expect("response is valid JSON")
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        self.send_raw(line);
        self.recv()
    }
}

fn assert_ok(response: &Value) {
    assert_eq!(response["ok"].as_bool(), Some(true), "expected ok: {response:?}");
}

fn error_code(response: &Value) -> String {
    assert_eq!(response["ok"].as_bool(), Some(false), "expected error: {response:?}");
    response["error"]["code"].as_str().expect("error.code").to_string()
}

// ---------------------------------------------------------------------------
// Frame-level faults

#[test]
fn malformed_frames_fail_the_frame_not_the_connection() {
    let server = Server::start(small_db(), test_config()).unwrap();
    let mut client = Client::connect(&server);
    for bad in [
        "not json",
        "{",
        "[1,2,3]",
        "42",
        "{\"op\":\"frobnicate\"}",
        "{\"op\":\"query\"}",
        "{\"op\":\"add_edges\",\"edges\":[[\"x\",\"a\"]]}",
        "\u{1F980} unicode garbage",
    ] {
        let response = client.roundtrip(bad);
        assert_eq!(response["ok"].as_bool(), Some(false), "{bad:?}");
    }
    // The same connection still answers real queries.
    let response = client.roundtrip("{\"id\":9,\"op\":\"query\",\"q\":\"a\\u00b7b\"}");
    assert_ok(&response);
    // (n0, n2) directly and (n2, n2) through the a-cycle.
    assert_eq!(response["count"].as_u64(), Some(2));
    assert!(server.stats().protocol_errors >= 8);
    server.shutdown();
}

#[test]
fn deeply_nested_frames_fail_the_frame_not_the_server() {
    let server = Server::start(small_db(), test_config()).unwrap();
    let mut client = Client::connect(&server);
    // 100 000 nested arrays, ~200 KB: under the default 1 MiB frame cap, and
    // far deeper than a recursive parser gets on a connection thread's stack.
    let depth = 100_000;
    let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let response = client.roundtrip(&format!(r#"{{"id":1,"op":"health","x":{nested}}}"#));
    assert_eq!(error_code(&response), "parse_error");
    assert_eq!(response["id"], Value::Null);
    // The same connection still answers.
    let response = client.roundtrip(r#"{"id":2,"op":"health"}"#);
    assert_ok(&response);
    assert_eq!(response["id"].as_i64(), Some(2));
    server.shutdown();
}

#[test]
fn oversized_frames_are_drained_and_rejected() {
    let config = ServiceConfig { max_frame_bytes: 256, ..test_config() };
    let server = Server::start(small_db(), config).unwrap();
    let mut client = Client::connect(&server);
    // 64 KiB of garbage on one line, well past the 256-byte cap.
    let huge = "x".repeat(64 * 1024);
    let response = client.roundtrip(&huge);
    assert_eq!(error_code(&response), "frame_too_large");
    // An oversized but well-formed frame is rejected the same way.
    let edges: Vec<String> = (0..200).map(|i| format!("[\"x{i}\",\"a\",\"y{i}\"]")).collect();
    let big_batch = format!("{{\"op\":\"add_edges\",\"edges\":[{}]}}", edges.join(","));
    let response = client.roundtrip(&big_batch);
    assert_eq!(error_code(&response), "frame_too_large");
    // The connection survives and serves normal traffic.
    let response = client.roundtrip("{\"op\":\"query\",\"q\":\"a\"}");
    assert_ok(&response);
    assert_eq!(server.stats().frames_too_large, 2);
    server.shutdown();
}

#[test]
fn oversized_batches_are_rejected_atomically() {
    let config = ServiceConfig { max_batch_edges: 2, ..test_config() };
    let server = Server::start(small_db(), config).unwrap();
    let mut client = Client::connect(&server);
    let response = client.roundtrip(
        "{\"op\":\"add_edges\",\"edges\":[[\"p\",\"a\",\"q\"],[\"q\",\"a\",\"r\"],[\"r\",\"a\",\"s\"]]}",
    );
    assert_eq!(error_code(&response), "batch_too_large");
    // Nothing was applied: the new nodes don't exist.
    let response = client.roundtrip("{\"op\":\"health\"}");
    assert_ok(&response);
    assert_eq!(response["revision"].as_u64(), Some(0), "rejected batch must not bump revision");
    // A conforming batch still works.
    let response =
        client.roundtrip("{\"op\":\"add_edges\",\"edges\":[[\"p\",\"a\",\"q\"],[\"q\",\"a\",\"r\"]]}");
    assert_ok(&response);
    server.shutdown();
}

#[test]
fn invalid_mutations_reject_the_whole_batch() {
    let server = Server::start(small_db(), test_config()).unwrap();
    let mut client = Client::connect(&server);
    // Unknown label rejects atomically (first triple alone would be fine).
    let response = client
        .roundtrip("{\"op\":\"add_edges\",\"edges\":[[\"n0\",\"a\",\"n2\"],[\"n0\",\"z\",\"n2\"]]}");
    assert_eq!(error_code(&response), "unknown_label");
    // Removing a non-present occurrence rejects atomically too.
    let response = client
        .roundtrip("{\"op\":\"remove_edges\",\"edges\":[[\"n0\",\"a\",\"n1\"],[\"n0\",\"a\",\"n1\"]]}");
    assert_eq!(error_code(&response), "edge_not_present");
    let response = client.roundtrip("{\"op\":\"health\"}");
    assert_eq!(response["revision"].as_u64(), Some(0));
    // A view over an out-of-domain label is rejected; the view is absent.
    let response =
        client.roundtrip("{\"op\":\"register_view\",\"name\":\"w\",\"regex\":\"z*\"}");
    assert_eq!(error_code(&response), "unknown_label");
    let response = client.roundtrip("{\"op\":\"view\",\"name\":\"w\"}");
    assert_eq!(error_code(&response), "unknown_view");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Disconnects

#[test]
fn mid_query_disconnects_leave_the_server_healthy() {
    let server = Server::start(chain_db(600), test_config()).unwrap();
    for _ in 0..4 {
        let mut client = Client::connect(&server);
        // Fire an expensive query and hang up without reading the answer.
        client.send_raw("{\"op\":\"query\",\"q\":\"a*\",\"timeout_ms\":10000}");
        drop(client);
    }
    // Fresh connections are served while/after the orphans burn out.
    let mut client = Client::connect(&server);
    let response = client.roundtrip("{\"op\":\"query\",\"q\":\"a·a\",\"timeout_ms\":10000}");
    assert_ok(&response);
    assert_eq!(response["count"].as_u64(), Some(599));
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Budgets under load

#[test]
fn deadline_storms_interrupt_queries_but_never_poison_answers() {
    let server = Server::start(chain_db(900), test_config()).unwrap();
    let mut client = Client::connect(&server);
    let mut interrupted = 0;
    for i in 0..12 {
        // timeout_ms: 0 expires immediately; a tiny visit cap trips fast.
        let frame = if i % 2 == 0 {
            format!("{{\"id\":{i},\"op\":\"query\",\"q\":\"a*\",\"timeout_ms\":0}}")
        } else {
            format!("{{\"id\":{i},\"op\":\"query\",\"q\":\"a*\",\"max_visited\":64}}")
        };
        let response = client.roundtrip(&frame);
        let code = error_code(&response);
        assert!(
            matches!(code.as_str(), "deadline_exceeded" | "visit_budget_exceeded"),
            "unexpected code {code}"
        );
        interrupted += 1;
    }
    assert_eq!(interrupted, 12);
    assert!(server.stats().queries_interrupted >= 12);
    // The interrupted partial answers were never cached: a full-budget run
    // of the same query text returns the complete closure.
    let response = client.roundtrip("{\"op\":\"query\",\"q\":\"a*\",\"timeout_ms\":30000}");
    assert_ok(&response);
    let expected = (901 * 902) / 2; // all i <= j pairs on a 901-node chain
    assert_eq!(response["count"].as_u64(), Some(expected));
    server.shutdown();
}

#[test]
fn admission_gate_rejects_excess_load_with_retry_hint() {
    let config = ServiceConfig { max_inflight: 1, ..test_config() };
    // ~2·10⁹ pops: many times the blocker's own 2 s deadline on any host, so
    // the single slot is held for 2 s by construction.
    let server = Server::start(chain_db(60_000), config).unwrap();
    let mut slow = Client::connect(&server);
    slow.send_raw(&format!("{{\"id\":1,\"op\":\"query\",\"q\":\"{BLOCKER}\",\"timeout_ms\":2000}}"));
    wait_until("the blocker is admitted", || server.stats().in_flight == 1);

    // While it runs, a second connection must see `overloaded` (+ hint).
    let mut fast = Client::connect(&server);
    let response = fast.roundtrip("{\"id\":2,\"op\":\"query\",\"q\":\"b\",\"timeout_ms\":1000}");
    assert_eq!(response["ok"].as_bool(), Some(false), "gate admitted past its cap: {response:?}");
    assert_eq!(response["error"]["code"].as_str(), Some("overloaded"));
    assert!(response["retry_after_ms"].as_u64().unwrap() > 0);

    // The blocker ends (at its deadline, or with the empty answer on a host
    // fast enough to finish) and the gate reopens: retrying succeeds.
    let ended = slow.recv();
    if ended["ok"].as_bool() == Some(true) {
        assert_eq!(ended["count"].as_u64(), Some(0));
    } else {
        assert_eq!(error_code(&ended), "deadline_exceeded");
    }
    assert_ok(&fast.roundtrip("{\"id\":3,\"op\":\"query\",\"q\":\"b\",\"timeout_ms\":1000}"));
    assert!(server.stats().queries_rejected >= 1);
    server.shutdown();
}

#[test]
fn writer_queue_overflow_is_backpressure_not_a_stall() {
    let config = ServiceConfig { writer_queue_depth: 1, ..test_config() };
    // Make the writer slow: registering the blocker as a view materializes
    // it (unbudgeted, on two threads) when the writer publishes the next
    // snapshot — a second or more, three orders of magnitude longer than the
    // loopback round trips that have to land meanwhile.
    let server = Server::start(chain_db(chain_taking(3.0)), config).unwrap();

    let mut blocker = Client::connect(&server);
    blocker.send_raw(&format!(
        "{{\"id\":1,\"op\":\"register_view\",\"name\":\"slow\",\"regex\":\"{BLOCKER}\"}}"
    ));
    wait_until("the blocker's frame is dispatched", || server.stats().frames >= 1);

    // While the writer chews, three more writes arrive at once.  The queue
    // holds one, so whichever order they land in at least one overflows —
    // immediately, not after the blocker.
    let mut writers: Vec<Client> = (0..3).map(|_| Client::connect(&server)).collect();
    for (i, writer) in writers.iter_mut().enumerate() {
        writer.send_raw(&format!(
            "{{\"id\":{},\"op\":\"add_edges\",\"edges\":[[\"s{i}\",\"b\",\"t{i}\"]]}}",
            i + 2
        ));
    }
    let mut overflows = 0;
    for writer in &mut writers {
        let response = writer.recv();
        match response["ok"].as_bool() {
            // Every accepted write still completed.
            Some(true) => {}
            Some(false) => {
                assert_eq!(response["error"]["code"].as_str(), Some("overloaded"));
                assert!(response["retry_after_ms"].as_u64().unwrap() > 0);
                overflows += 1;
            }
            None => panic!("malformed response {response:?}"),
        }
    }
    assert!(overflows >= 1, "depth-1 writer queue never overflowed under a busy writer");
    assert_ok(&blocker.recv());
    assert!(server.stats().writer_overflows >= 1);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Lifecycle

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let server = Server::start(chain_db(800), test_config()).unwrap();
    let addr = server.addr();

    let mut client = Client::connect(&server);
    client.send_raw("{\"id\":1,\"op\":\"query\",\"q\":\"a*\",\"timeout_ms\":30000,\"limit\":1}");
    // Let the query get admitted before the drain starts.
    std::thread::sleep(Duration::from_millis(20));

    let reader_thread = std::thread::spawn(move || client.recv());
    server.shutdown();

    // The in-flight query was drained, not dropped.
    let response = reader_thread.join().expect("reader panicked");
    assert_ok(&response);
    assert!(response["truncated"].as_bool().unwrap());

    // The listener is gone: new connections fail.
    std::thread::sleep(Duration::from_millis(50));
    assert!(TcpStream::connect(addr).is_err(), "listener must be closed after shutdown");
}

#[test]
fn shutdown_returns_only_after_an_in_flight_reads_reply_is_written() {
    // A read that sweeps for about a second, on a graph whose answer is
    // empty: nothing to render, only the sweep to wait for.
    let server = Server::start(chain_db(chain_taking(1.0)), test_config()).unwrap();
    let mut client = Client::connect(&server);
    client.send_raw(&format!(r#"{{"id":1,"op":"query","q":"{BLOCKER}","timeout_ms":30000}}"#));
    wait_until("the read is admitted", || server.stats().in_flight == 1);
    client.reader.get_ref().set_nonblocking(true).expect("nonblocking");
    let mut early = String::new();
    let pending = client.reader.read_line(&mut early);
    assert!(
        matches!(&pending, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the read replied before shutdown began: {pending:?} {early:?}"
    );

    server.shutdown();

    // The reply is already in the socket when shutdown returns: read
    // without waiting for it.
    let response = client.recv();
    assert_ok(&response);
    assert_eq!(response["id"].as_u64(), Some(1));
    assert_eq!(response["count"].as_u64(), Some(0), "{response:?}");
}

#[test]
fn client_initiated_shutdown_stops_the_server() {
    let server = Server::start(small_db(), test_config()).unwrap();
    let mut client = Client::connect(&server);
    let response = client.roundtrip("{\"op\":\"shutdown\"}");
    assert_ok(&response);
    assert_eq!(response["status"].as_str(), Some("draining"));
    for _ in 0..200 {
        if server.is_shutting_down() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.is_shutting_down());
    server.shutdown();
}

#[test]
fn writes_after_shutdown_are_refused_not_lost() {
    let server = Server::start(small_db(), test_config()).unwrap();
    let mut a = Client::connect(&server);
    let mut b = Client::connect(&server);
    assert_ok(&a.roundtrip("{\"op\":\"add_edges\",\"edges\":[[\"n0\",\"a\",\"n2\"]]}"));
    assert_ok(&b.roundtrip("{\"op\":\"shutdown\"}"));
    // The draining server may close `a` or answer `shutting_down`; either
    // way it must not hang and must not apply the write.
    a.send_raw("{\"op\":\"add_edges\",\"edges\":[[\"n2\",\"a\",\"n0\"]]}");
    let mut line = String::new();
    let n = a.reader.read_line(&mut line).unwrap_or(0);
    if n > 0 {
        let response: Value = serde_json::from_str(line.trim_end()).expect("valid JSON");
        assert_eq!(error_code(&response), "shutting_down");
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Observability

#[test]
fn health_and_stats_report_the_serving_state() {
    let server = Server::start(small_db(), test_config()).unwrap();
    let mut client = Client::connect(&server);

    let health = client.roundtrip("{\"op\":\"health\"}");
    assert_ok(&health);
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert_eq!(health["in_flight"].as_u64(), Some(0));

    assert_ok(&client.roundtrip("{\"op\":\"query\",\"q\":\"a·b\"}"));
    assert_ok(&client.roundtrip("{\"op\":\"query\",\"q\":\"a·b\"}"));
    assert_ok(&client.roundtrip("{\"op\":\"register_view\",\"name\":\"ab\",\"regex\":\"a·b\"}"));
    let view = client.roundtrip("{\"op\":\"view\",\"name\":\"ab\"}");
    assert_ok(&view);
    assert_eq!(view["count"].as_u64(), Some(2));

    let stats = client.roundtrip("{\"op\":\"stats\"}");
    assert_ok(&stats);
    assert_eq!(stats["service"]["queries_ok"].as_u64(), Some(2));
    assert_eq!(stats["service"]["writes_applied"].as_u64(), Some(1));
    assert_eq!(stats["service"]["protocol_errors"].as_u64(), Some(0));
    // The second identical query hit the answer cache.
    assert!(stats["engine"]["answer_hits"].as_u64().unwrap() >= 1);
    server.shutdown();
}

/// The service counters `server` reports as nonzero right now.
fn nonzero_counters(server: &Server) -> Vec<&'static str> {
    let fields = server.stats().fields();
    fields.into_iter().filter(|&(_, n)| n > 0).map(|(name, _)| name).collect()
}

#[test]
fn one_session_moves_every_service_counter() {
    // One admission slot and a one-deep writer queue, so both overload paths
    // are reachable; `in_flight` is a gauge, so it is read while the slot is
    // held.
    let config = ServiceConfig {
        max_inflight: 1,
        writer_queue_depth: 1,
        max_frame_bytes: 1024,
        ..test_config()
    };
    let server = Server::start(chain_db(chain_taking(1.0)), config).unwrap();
    let mut client = Client::connect(&server);
    assert_ok(&client.roundtrip("{\"op\":\"query\",\"q\":\"a·a\"}"));
    assert_eq!(error_code(&client.roundtrip("not json")), "parse_error");
    assert_eq!(error_code(&client.roundtrip(&"x".repeat(2048))), "frame_too_large");
    assert_eq!(error_code(&client.roundtrip("{\"op\":\"query\",\"q\":\"z\"}")), "unknown_label");
    let capped = client.roundtrip("{\"op\":\"query\",\"q\":\"a*\",\"max_visited\":64}");
    assert_eq!(error_code(&capped), "visit_budget_exceeded");
    assert_ok(&client.roundtrip("{\"op\":\"add_edges\",\"edges\":[[\"x\",\"a\",\"y\"]]}"));
    let bad_label = client.roundtrip("{\"op\":\"add_edges\",\"edges\":[[\"x\",\"z\",\"y\"]]}");
    assert_eq!(error_code(&bad_label), "unknown_label");

    // A query holding the one slot turns the next one away.
    let mut slow = Client::connect(&server);
    slow.send_raw(&format!("{{\"op\":\"query\",\"q\":\"{BLOCKER}\",\"timeout_ms\":30000}}"));
    wait_until("the blocker is admitted", || server.stats().in_flight == 1);
    let mut moved = nonzero_counters(&server);
    assert_eq!(error_code(&client.roundtrip("{\"op\":\"query\",\"q\":\"b\"}")), "overloaded");
    assert_ok(&slow.recv());

    // A writer materializing the blocker as a view turns a write away.  The
    // frame count is read before the frame is sent: the server may dispatch
    // it before the next line runs.
    let frames = server.stats().frames;
    slow.send_raw(&format!("{{\"op\":\"register_view\",\"name\":\"slow\",\"regex\":\"{BLOCKER}\"}}"));
    wait_until("the registration is dispatched", || server.stats().frames > frames);
    let mut writers: Vec<Client> = (0..3).map(|_| Client::connect(&server)).collect();
    for (i, writer) in writers.iter_mut().enumerate() {
        writer.send_raw(&format!("{{\"op\":\"add_edges\",\"edges\":[[\"s{i}\",\"b\",\"t{i}\"]]}}"));
    }
    for writer in &mut writers {
        writer.recv();
    }
    assert_ok(&slow.recv());

    moved.extend(nonzero_counters(&server));
    let still: Vec<&str> = server
        .stats()
        .fields()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !moved.contains(name))
        .collect();
    assert!(still.is_empty(), "no test path moves these service counters: {still:?}");
    server.shutdown();
}

/// How many compiled automata the engine's compile cache keeps (the bound in
/// `engine::cache`).
const COMPILE_CAPACITY: usize = 1024;

#[test]
fn ever_new_query_texts_keep_the_compile_cache_bounded() {
    let server = Server::start(small_db(), test_config()).unwrap();
    let mut client = Client::connect(&server);
    // Query `i` spells `i` in binary, `a` for 0 and `b` for 1: every text is
    // new, and each compiles.
    let query = |i: usize| {
        let word: Vec<&str> =
            format!("{i:b}").chars().map(|bit| if bit == '0' { "a" } else { "b" }).collect();
        format!("{{\"op\":\"query\",\"q\":\"{}\"}}", word.join("·"))
    };
    let first = client.roundtrip(&query(0));
    assert_ok(&first);
    let k = 5;
    for i in 1..COMPILE_CAPACITY + k {
        assert_ok(&client.roundtrip(&query(i)));
    }
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(stats["engine"]["compile_misses"].as_u64(), Some((COMPILE_CAPACITY + k) as u64));
    assert_eq!(stats["engine"]["compile_evictions"].as_u64(), Some(k as u64));
    let metrics = client.roundtrip(r#"{"op":"metrics","format":"prometheus"}"#);
    let text = metrics["exposition"].as_str().expect("exposition text");
    assert!(text.contains(&format!("\nrpq_compile_evictions_total {k}\n")), "{text}");
    // The first query went long ago (its answer too): sent again, it is
    // compiled again and answers as it did.
    let again = client.roundtrip(&query(0));
    assert_ok(&again);
    assert_eq!(again["pairs"], first["pairs"]);
    let pairs = again["pairs"].as_array().map(|pairs| pairs.len());
    assert_eq!(pairs, Some(2), "n0 -a-> n1, n2 -a-> n1");
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(stats["engine"]["compile_evictions"].as_u64(), Some(k as u64 + 1));
    server.shutdown();
}

#[test]
fn result_truncation_caps_the_payload_not_the_count() {
    let config = ServiceConfig { max_result_pairs: 5, ..test_config() };
    let server = Server::start(chain_db(50), config).unwrap();
    let mut client = Client::connect(&server);
    let response = client.roundtrip("{\"op\":\"query\",\"q\":\"a*\",\"timeout_ms\":30000}");
    assert_ok(&response);
    assert_eq!(response["pairs"].as_array().unwrap().len(), 5);
    assert_eq!(response["count"].as_u64(), Some((51 * 52) / 2));
    assert!(response["truncated"].as_bool().unwrap());
    // An explicit smaller limit narrows it further.
    let response = client.roundtrip("{\"op\":\"query\",\"q\":\"a*\",\"timeout_ms\":30000,\"limit\":2}");
    assert_eq!(response["pairs"].as_array().unwrap().len(), 2);
    server.shutdown();
}
