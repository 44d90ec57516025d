//! Interactive ops against a live server: `single_pair` / `reachable_from`
//! round trips, budget clamping (visit caps and the server-side timeout
//! ceiling), `limit` truncation with exact counts, malformed-argument
//! rejection that keeps the connection alive, trace-id echo on the
//! interactive explain surface, and the reply buffer's flush rule: no reply
//! is held while the connection waits, another connection's write included,
//! and a pipelined block is answered in few socket writes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use automata::Alphabet;
use graphdb::GraphDb;
use serde_json::Value;
use service::{Server, ServiceConfig};

// ---------------------------------------------------------------------------
// Harness (same shape as the telemetry suite)

fn chain_db(n: usize) -> GraphDb {
    let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b']).unwrap());
    for i in 0..n {
        db.add_edge_named(&format!("v{i}"), "a", &format!("v{}", i + 1));
    }
    db
}

/// A query whose sweep over `chain_db(n)` costs n²/2 product pops and whose
/// answer is empty: registered as a view, it holds the engine that long.
const BLOCKER: &str = "a*·b";

/// A chain length over which one thread of this host, in this build profile,
/// takes about `secs` to sweep [`BLOCKER`] — measured on a short chain and
/// scaled by the n² cost (the fault-injection suite's calibration).
fn chain_taking(secs: f64) -> usize {
    let probe = 1_500;
    let db = chain_db(probe);
    let started = Instant::now();
    assert!(graphdb::eval_str(&db, BLOCKER).is_empty());
    let secs_per_pop = started.elapsed().as_secs_f64() / (probe * probe / 2) as f64;
    ((2.0 * secs / secs_per_pop).sqrt() as usize).max(probe)
}

/// Polls `condition` until it holds.
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(30);
    while !condition() {
        assert!(Instant::now() < give_up, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
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

    fn roundtrip(&mut self, line: &str) -> Value {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.recv()
    }

    /// Sends `frames` as one pipelined block: one write, a newline after each.
    fn send_block(&mut self, frames: &[String]) {
        let block: String = frames.iter().map(|frame| format!("{frame}\n")).collect();
        self.writer.write_all(block.as_bytes()).expect("send block");
    }

    /// The next raw reply line, newline included.  The read timeout turns a
    /// reply the server holds back into a failure, not a hang.
    fn recv_line(&mut self) -> String {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        reply
    }

    fn recv(&mut self) -> Value {
        serde_json::from_str(self.recv_line().trim_end()).expect("response is valid JSON")
    }
}

fn assert_ok(response: &Value) {
    assert_eq!(response["ok"].as_bool(), Some(true), "expected ok: {response:?}");
}

fn error_code(response: &Value) -> &str {
    assert_eq!(response["ok"].as_bool(), Some(false), "expected error: {response:?}");
    response["error"]["code"].as_str().expect("error.code")
}

// ---------------------------------------------------------------------------
// Round trips

#[test]
fn interactive_ops_round_trip_on_a_live_connection() {
    // chain_db(10) numbers v0..v10 as node ids 0..10 in creation order.
    let server = Server::start(chain_db(10), test_config()).unwrap();
    let mut client = Client::connect(&server);

    let response =
        client.roundtrip(r#"{"id":1,"op":"single_pair","q":"a*","from":0,"to":7}"#);
    assert_ok(&response);
    assert_eq!(response["connected"].as_bool(), Some(true));
    assert!(response["revision"].as_u64().is_some());

    // The chain only runs forward: the reversed pair is a clean `false`,
    // not an error.
    let response =
        client.roundtrip(r#"{"id":2,"op":"single_pair","q":"a*","from":7,"to":0}"#);
    assert_ok(&response);
    assert_eq!(response["connected"].as_bool(), Some(false));

    let response =
        client.roundtrip(r#"{"id":3,"op":"reachable_from","q":"a·a*","from":3}"#);
    assert_ok(&response);
    assert_eq!(response["count"].as_u64(), Some(7), "nodes 4..=10");
    assert_eq!(response["truncated"].as_bool(), Some(false));
    let targets: Vec<u64> =
        response["targets"].as_array().expect("targets").iter().map(|t| t.as_u64().unwrap()).collect();
    assert_eq!(targets, (4..=10).collect::<Vec<u64>>());

    // Interactive answers stay revision-consistent with writes on the same
    // connection.
    let response = client.roundtrip(r#"{"op":"add_edges","edges":[["v10","a","v0"]]}"#);
    assert_ok(&response);
    let response =
        client.roundtrip(r#"{"id":4,"op":"single_pair","q":"a*","from":7,"to":0}"#);
    assert_ok(&response);
    assert_eq!(response["connected"].as_bool(), Some(true), "the new back-edge closes the cycle");

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Limits

#[test]
fn reachable_from_truncates_with_exact_counts() {
    let mut config = test_config();
    config.max_result_pairs = 4;
    let server = Server::start(chain_db(10), config).unwrap();
    let mut client = Client::connect(&server);

    // Client limit below the server cap: exactly `limit` targets come back
    // and the truncation is flagged.
    let response =
        client.roundtrip(r#"{"op":"reachable_from","q":"a*","from":0,"limit":2}"#);
    assert_ok(&response);
    assert_eq!(response["count"].as_u64(), Some(2));
    assert_eq!(response["truncated"].as_bool(), Some(true));
    assert_eq!(response["targets"].as_array().map(|t| t.len()), Some(2));

    // No client limit: the server's own result-size bound still applies.
    let response = client.roundtrip(r#"{"op":"reachable_from","q":"a*","from":0}"#);
    assert_ok(&response);
    assert_eq!(response["count"].as_u64(), Some(4), "max_result_pairs cap");
    assert_eq!(response["truncated"].as_bool(), Some(true));

    // A cold limit that happens to match the true target count still reports
    // truncation: the early-exited sweep cannot prove the set was done.
    let response =
        client.roundtrip(r#"{"op":"reachable_from","q":"a*","from":8,"limit":3}"#);
    assert_ok(&response);
    assert_eq!(response["count"].as_u64(), Some(3), "nodes 8, 9, 10");
    assert_eq!(response["truncated"].as_bool(), Some(true));

    // After an unlimited sweep caches the complete drain, the same limit is
    // recognized as the whole answer.
    let response = client.roundtrip(r#"{"op":"reachable_from","q":"a*","from":8}"#);
    assert_ok(&response);
    assert_eq!(response["count"].as_u64(), Some(3));
    assert_eq!(response["truncated"].as_bool(), Some(false));
    let response =
        client.roundtrip(r#"{"op":"reachable_from","q":"a*","from":8,"limit":3}"#);
    assert_ok(&response);
    assert_eq!(response["count"].as_u64(), Some(3));
    assert_eq!(response["truncated"].as_bool(), Some(false));

    // limit 0 is a valid (if degenerate) ask: nothing comes back and the
    // non-empty remainder is flagged as truncated.
    let response =
        client.roundtrip(r#"{"op":"reachable_from","q":"a*","from":0,"limit":0}"#);
    assert_ok(&response);
    assert_eq!(response["count"].as_u64(), Some(0));
    assert_eq!(response["truncated"].as_bool(), Some(true));

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Budgets

#[test]
fn interactive_budgets_clamp_and_interrupt() {
    // Budget checks fire every 4096 sweep pops: the chain must be longer
    // than one check interval for a cap of 1 to ever trip.
    let server = Server::start(chain_db(6000), test_config()).unwrap();
    let mut client = Client::connect(&server);

    let response = client
        .roundtrip(r#"{"op":"single_pair","q":"a*","from":0,"to":6000,"max_visited":1}"#);
    assert_eq!(error_code(&response), "visit_budget_exceeded");

    let response = client
        .roundtrip(r#"{"op":"reachable_from","q":"a*","from":0,"max_visited":1}"#);
    assert_eq!(error_code(&response), "visit_budget_exceeded");

    // The connection survives the interrupts, and an unbudgeted retry of the
    // same lookups succeeds.
    let response =
        client.roundtrip(r#"{"op":"single_pair","q":"a*","from":0,"to":6000}"#);
    assert_ok(&response);
    assert_eq!(response["connected"].as_bool(), Some(true));

    server.shutdown();
}

#[test]
fn client_timeouts_are_clamped_to_the_server_ceiling() {
    // max_timeout_ms = 1: whatever the client asks for is clamped to a 1 ms
    // deadline.  A 400 000-hop chain sweep cannot finish inside it, so the
    // interrupt is proof the 60-second request did not win.
    let mut config = test_config();
    config.max_timeout_ms = 1;
    let domain = Alphabet::from_chars(['a', 'b']).unwrap();
    let a = domain.symbol("a").expect("a in domain");
    let mut db = GraphDb::new(domain);
    let mut prev = db.add_node();
    for _ in 0..400_000 {
        let next = db.add_node();
        db.add_edge(prev, a, next);
        prev = next;
    }
    let last = prev;
    let server = Server::start(db, config).unwrap();
    let mut client = Client::connect(&server);

    let response = client.roundtrip(&format!(
        r#"{{"op":"single_pair","q":"a*","from":0,"to":{last},"timeout_ms":60000}}"#
    ));
    assert_eq!(error_code(&response), "deadline_exceeded");

    let response = client
        .roundtrip(r#"{"op":"reachable_from","q":"a*","from":0,"timeout_ms":60000}"#);
    assert_eq!(error_code(&response), "deadline_exceeded");

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Malformed arguments

#[test]
fn malformed_interactive_frames_fail_the_frame_not_the_connection() {
    let server = Server::start(chain_db(10), test_config()).unwrap();
    let mut client = Client::connect(&server);

    for (frame, why) in [
        (r#"{"op":"single_pair","q":"a*","from":0}"#, "missing to"),
        (r#"{"op":"single_pair","q":"a*","to":0}"#, "missing from"),
        (r#"{"op":"single_pair","from":0,"to":1}"#, "missing q"),
        (r#"{"op":"single_pair","q":"a*","from":-1,"to":1}"#, "negative node id"),
        (r#"{"op":"single_pair","q":"a*","from":"v0","to":1}"#, "string node id"),
        (r#"{"op":"reachable_from","q":"a*"}"#, "missing from"),
        (r#"{"op":"reachable_from","from":0}"#, "missing q"),
        (r#"{"op":"reachable_from","q":"a*","from":1.5}"#, "fractional node id"),
    ] {
        let response = client.roundtrip(frame);
        assert_eq!(error_code(&response), "parse_error", "{why}: {response:?}");
    }

    // Well-formed frames with bad *semantics* map to their own codes.
    let response =
        client.roundtrip(r#"{"op":"single_pair","q":"a*","from":0,"to":999999}"#);
    assert_eq!(error_code(&response), "node_out_of_range");
    let response =
        client.roundtrip(r#"{"op":"reachable_from","q":"a·(","from":0}"#);
    assert_eq!(error_code(&response), "parse_error");

    // Every rejection above failed only its frame: the connection still
    // serves.
    let response = client.roundtrip(r#"{"op":"single_pair","q":"a*","from":0,"to":1}"#);
    assert_ok(&response);
    assert_eq!(response["connected"].as_bool(), Some(true));

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Tracing

#[test]
fn interactive_traces_echo_ids_and_expose_the_bidirectional_phases() {
    let server = Server::start(chain_db(300), test_config()).unwrap();
    let mut client = Client::connect(&server);

    // A fresh single-pair search: caller-supplied trace id comes back
    // verbatim and the bidirectional halves show up as phases.
    let response = client.roundtrip(
        r#"{"id":1,"op":"single_pair","q":"a*","from":0,"to":299,"trace":true,"trace_id":777}"#,
    );
    assert_ok(&response);
    let trace = &response["trace"];
    assert_eq!(trace["trace_id"].as_u64(), Some(777));
    let totals = &trace["phase_totals"];
    for phase in ["parse", "meet_check", "compile", "bidir_forward", "bidir_backward"] {
        assert!(totals[phase].as_u64().is_some(), "missing {phase}: {response:?}");
    }
    assert!(response["eval_us"].as_u64().is_some());

    // A traced single-source sweep runs the product BFS, not the
    // bidirectional search.
    let response = client.roundtrip(
        r#"{"id":2,"op":"reachable_from","q":"a·a*","from":0,"trace":true,"trace_id":778}"#,
    );
    assert_ok(&response);
    let trace = &response["trace"];
    assert_eq!(trace["trace_id"].as_u64(), Some(778));
    assert!(trace["phase_totals"]["product_bfs"].as_u64().is_some(), "{response:?}");

    // Absent trace_id: the server allocates a nonzero one.
    let response = client.roundtrip(
        r#"{"id":3,"op":"single_pair","q":"a·a","from":0,"to":2,"trace":true}"#,
    );
    assert_ok(&response);
    assert!(response["trace"]["trace_id"].as_u64().expect("allocated id") > 0);

    // Untraced interactive ops carry no trace object at all.
    let response = client.roundtrip(r#"{"id":4,"op":"single_pair","q":"a","from":0,"to":1}"#);
    assert_ok(&response);
    assert!(response["trace"].as_object().is_none());

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Pipelining and the reply buffer

fn pair_frame(id: usize, from: usize, to: usize) -> String {
    format!(r#"{{"id":{id},"op":"single_pair","q":"a*","from":{from},"to":{to}}}"#)
}

#[test]
fn a_round_trip_costs_one_write_and_a_pipelined_block_far_fewer_than_its_frames() {
    let server = Server::start(chain_db(10), test_config()).unwrap();
    let mut client = Client::connect(&server);
    // The writes of a reply are counted before they are made, so the count
    // is settled by the time the reply is read.
    let before = server.stats().reply_writes;
    assert_ok(&client.roundtrip(&pair_frame(0, 0, 7)));
    assert_eq!(server.stats().reply_writes - before, 1, "a lone round trip is one write");

    let frames: Vec<String> = (0..64).map(|i| pair_frame(i, i % 11, (i * 7) % 11)).collect();
    let before = server.stats().reply_writes;
    client.send_block(&frames);
    for i in 0..64 {
        let reply = client.recv();
        assert_ok(&reply);
        assert_eq!(reply["id"].as_u64(), Some(i), "replies come back in order");
        let (from, to) = (i % 11, (i * 7) % 11);
        assert_eq!(reply["connected"].as_bool(), Some(from <= to), "{from} → {to}");
    }
    let writes = server.stats().reply_writes - before;
    assert!(writes <= 8, "64 pipelined frames took {writes} writes");
    server.shutdown();
}

/// A reply line without its `eval_us` field, the one part that may differ
/// between the replies to equal requests.
fn untimed(reply: &str) -> String {
    const FIELD: &str = r#","eval_us":"#;
    let start = reply.find(FIELD).expect("an eval_us field");
    let value = &reply[start + FIELD.len()..];
    let end = value.find(|c: char| !c.is_ascii_digit()).expect("a field after eval_us");
    format!("{}{}", &reply[..start], &value[end..])
}

#[test]
fn equal_queries_get_equal_replies_and_compile_once_however_spelled() {
    let server = Server::start(chain_db(10), test_config()).unwrap();
    let mut client = Client::connect(&server);
    let compile_misses = |client: &mut Client| {
        client.roundtrip(r#"{"op":"stats"}"#)["engine"]["compile_misses"].as_u64().unwrap()
    };
    let before = compile_misses(&mut client);
    // One frame 64 times over, pipelined: one reply, 64 times over.
    client.send_block(&vec![pair_frame(1, 2, 8); 64]);
    let replies: Vec<String> = (0..64).map(|_| untimed(&client.recv_line())).collect();
    assert!(replies.iter().all(|reply| *reply == replies[0]), "{replies:?}");
    assert!(replies[0].contains(r#""connected":true"#), "{}", replies[0]);
    // Three spellings of `a·a`: one answer, byte for byte.
    let spellings: Vec<String> = ["a·a", "a.a", "a a"]
        .iter()
        .map(|q| format!(r#"{{"id":2,"op":"query","q":"{q}"}}"#))
        .collect();
    client.send_block(&spellings);
    let replies: Vec<String> = spellings.iter().map(|_| untimed(&client.recv_line())).collect();
    assert!(replies.iter().all(|reply| *reply == replies[0]), "{replies:?}");
    let reply: Value = serde_json::from_str(replies[0].trim_end()).unwrap();
    assert_eq!(reply["count"].as_u64(), Some(9), "v0 → v2 … v8 → v10");
    // Two distinct queries, two compilations.
    assert_eq!(compile_misses(&mut client) - before, 2);
    server.shutdown();
}

#[test]
fn complete_frames_are_answered_while_the_next_one_is_half_sent() {
    let server = Server::start(chain_db(10), test_config()).unwrap();
    let mut client = Client::connect(&server);
    let third = pair_frame(3, 5, 2);
    let (head, tail) = third.split_at(third.len() / 2);
    let sent = format!("{}\n{}\n{head}", pair_frame(1, 0, 9), pair_frame(2, 9, 0));
    client.writer.write_all(sent.as_bytes()).expect("send");
    // The server now blocks reading the rest of frame 3: both replies must
    // have left before it did.
    for (id, connected) in [(1, true), (2, false)] {
        let reply = client.recv();
        assert_eq!(reply["id"].as_u64(), Some(id));
        assert_eq!(reply["connected"].as_bool(), Some(connected));
    }
    client.writer.write_all(format!("{tail}\n").as_bytes()).expect("send the rest");
    let reply = client.recv();
    assert_eq!(reply["id"].as_u64(), Some(3));
    assert_eq!(reply["connected"].as_bool(), Some(false));
    server.shutdown();
}

#[test]
fn a_write_inside_a_pipelined_block_keeps_the_order_and_is_read_after() {
    let server = Server::start(chain_db(10), test_config()).unwrap();
    let mut client = Client::connect(&server);
    let before = server.stats().reply_writes;
    client.send_block(&[
        pair_frame(1, 7, 0),
        r#"{"id":2,"op":"add_edges","edges":[["v10","a","v0"]]}"#.to_string(),
        pair_frame(3, 7, 0),
    ]);
    let (first, write, second) = (client.recv(), client.recv(), client.recv());
    assert_eq!(first["id"].as_u64(), Some(1));
    assert_eq!(first["connected"].as_bool(), Some(false));
    assert_eq!(write["id"].as_u64(), Some(2));
    assert_ok(&write);
    assert_eq!(second["id"].as_u64(), Some(3));
    assert_eq!(second["connected"].as_bool(), Some(true), "the back-edge closes the cycle");
    let revision = |reply: &Value| reply["revision"].as_u64().expect("revision");
    assert!(revision(&first) < revision(&write));
    assert_eq!(revision(&second), revision(&write), "the read sees the write");
    // The first reply left before the write job was queued; the other two
    // together when the input ran dry.
    assert_eq!(server.stats().reply_writes - before, 2);
    server.shutdown();
}

#[test]
fn replies_before_a_write_leave_while_it_waits_for_another_connections_write() {
    let server = Server::start(chain_db(chain_taking(2.0)), test_config()).unwrap();
    // Connection `a` registers the blocker as a view: its write holds the
    // engine for seconds.
    let mut a = Client::connect(&server);
    a.send_block(&[format!(r#"{{"id":1,"op":"register_view","name":"slow","regex":"{BLOCKER}"}}"#)]);
    wait_until("the slow write is dispatched", || server.stats().frames >= 1);

    // Connection `b` pipelines a read and a write that must wait for `a`'s:
    // the read's reply leaves before the wait, so it arrives while `a`'s
    // write is still applying.
    let mut b = Client::connect(&server);
    b.send_block(&[
        pair_frame(2, 0, 9),
        r#"{"id":3,"op":"add_edges","edges":[["s","b","t"]]}"#.to_string(),
    ]);
    let read = b.recv();
    assert_eq!(read["id"].as_u64(), Some(2));
    assert_eq!(read["connected"].as_bool(), Some(true));
    assert_eq!(server.stats().writes_applied, 0, "the read's reply waited for a write");

    let slow = a.recv();
    assert_ok(&slow);
    let write = b.recv();
    assert_eq!(write["id"].as_u64(), Some(3));
    assert_ok(&write);
    let revision = |reply: &Value| reply["revision"].as_u64().expect("revision");
    assert!(revision(&slow) < revision(&write), "`b`'s write applied after `a`'s");
    server.shutdown();
}

#[test]
fn a_shutdown_inside_a_pipelined_block_answers_what_came_before_then_closes() {
    let server = Server::start(chain_db(10), test_config()).unwrap();
    let mut client = Client::connect(&server);
    client.send_block(&[
        pair_frame(1, 0, 9),
        pair_frame(2, 9, 0),
        pair_frame(3, 2, 4),
        r#"{"id":4,"op":"shutdown"}"#.to_string(),
        pair_frame(5, 0, 1),
        pair_frame(6, 1, 0),
    ]);
    for (id, connected) in [(1, true), (2, false), (3, true)] {
        let reply = client.recv();
        assert_eq!(reply["id"].as_u64(), Some(id));
        assert_eq!(reply["connected"].as_bool(), Some(connected));
    }
    let draining = client.recv();
    assert_eq!(draining["id"].as_u64(), Some(4));
    assert_eq!(draining["status"].as_str(), Some("draining"));
    let mut rest = String::new();
    assert_eq!(client.reader.read_line(&mut rest).expect("EOF, not a timeout"), 0, "{rest}");
    server.shutdown();
}

#[test]
fn replies_larger_than_the_buffer_keep_their_bytes_and_order_in_a_block() {
    // `a*` over a 150-edge chain has 151 · 152 / 2 pairs, well over 64 KiB
    // rendered; `a` has 150.
    let server = Server::start(chain_db(150), test_config()).unwrap();
    let mut client = Client::connect(&server);
    assert_ok(&client.roundtrip(r#"{"op":"register_view","name":"big","regex":"a*"}"#));
    assert_ok(&client.roundtrip(r#"{"op":"register_view","name":"small","regex":"a"}"#));
    let frames: Vec<String> = ["small", "big", "small", "nope", "big", "big", "small"]
        .iter()
        .enumerate()
        .map(|(id, name)| format!(r#"{{"id":{id},"op":"view","name":"{name}"}}"#))
        .collect();
    let lone: Vec<String> = frames
        .iter()
        .map(|frame| {
            client.send_block(std::slice::from_ref(frame));
            client.recv_line()
        })
        .collect();
    assert!(lone[1].len() > 64 << 10, "the big view's reply is {} bytes", lone[1].len());
    client.send_block(&frames);
    let pipelined: Vec<String> = frames.iter().map(|_| client.recv_line()).collect();
    assert_eq!(pipelined, lone);
    server.shutdown();
}
