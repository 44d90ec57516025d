//! Observability against a live server: trace-id propagation over the TCP
//! round trip, the explain (`trace`) payload shape, the metrics op in both
//! formats, and the slow-query log under concurrent readers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use automata::Alphabet;
use graphdb::GraphDb;
use serde_json::Value;
use service::{Server, ServiceConfig};

// ---------------------------------------------------------------------------
// Harness (same shape as the fault-injection suite)

fn chain_db(n: usize) -> GraphDb {
    let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b']).unwrap());
    for i in 0..n {
        db.add_edge_named(&format!("v{i}"), "a", &format!("v{}", i + 1));
    }
    db
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
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        serde_json::from_str(reply.trim_end()).expect("response is valid JSON")
    }
}

fn assert_ok(response: &Value) {
    assert_eq!(response["ok"].as_bool(), Some(true), "expected ok: {response:?}");
}

// ---------------------------------------------------------------------------
// Tracing

#[test]
fn traced_queries_return_a_phase_breakdown_and_echo_trace_ids() {
    let server = Server::start(chain_db(300), test_config()).unwrap();
    let mut client = Client::connect(&server);

    // Caller-supplied trace id comes back verbatim.
    let response =
        client.roundtrip(r#"{"id":1,"op":"query","q":"a*","trace":true,"trace_id":4242}"#);
    assert_ok(&response);
    let trace = &response["trace"];
    assert_eq!(trace["trace_id"].as_u64(), Some(4242));

    // The explain surface: every pipeline phase of a cold evaluation shows
    // up as a top-level total, and their sum is bounded by the wall time.
    let totals = &trace["phase_totals"];
    for phase in ["parse", "cache_lookup", "compile", "product_bfs", "chunk_merge"] {
        assert!(totals[phase].as_u64().is_some(), "missing {phase}: {response:?}");
    }
    let total_us = trace["total_us"].as_u64().expect("total_us");
    let top_level_us = trace["top_level_us"].as_u64().expect("top_level_us");
    assert!(top_level_us <= total_us.max(1), "{top_level_us} > {total_us}");
    assert!(trace["spans"].as_array().is_some_and(|s| !s.is_empty()));
    assert_eq!(trace["dropped_spans"].as_u64(), Some(0));
    // Success responses carry the eval/queue-wait split input.
    assert!(response["eval_us"].as_u64().is_some());

    // Absent trace_id: the server allocates a nonzero one.
    let response = client.roundtrip(r#"{"id":2,"op":"query","q":"a·a","trace":true}"#);
    assert_ok(&response);
    let allocated = response["trace"]["trace_id"].as_u64().expect("allocated id");
    assert!(allocated > 0);

    // Untraced queries carry no trace object at all.
    let response = client.roundtrip(r#"{"id":3,"op":"query","q":"a"}"#);
    assert_ok(&response);
    assert!(response["trace"].as_object().is_none());

    server.shutdown();
}

#[test]
fn traced_writes_return_the_write_waterfall_and_budgeted_writes_degrade() {
    let server = Server::start(chain_db(300), test_config()).unwrap();
    let mut client = Client::connect(&server);
    let keys = |response: &Value| -> Vec<String> {
        response.as_object().expect("object").iter().map(|(key, _)| key.clone()).collect()
    };

    // `register_view` traced: the definition's validation on the writer,
    // then the publish that materializes it.
    let response =
        client.roundtrip(r#"{"id":1,"op":"register_view","name":"star","regex":"a*","trace":true}"#);
    assert_ok(&response);
    let totals = &response["trace"]["phase_totals"];
    assert!(totals["validate"].as_u64().is_some() && totals["snapshot_publish"].as_u64().is_some());
    assert!(totals["repair"].as_u64().is_none(), "a registration repairs nothing: {response:?}");

    // An edge the cached view reads, inserted and then removed, each traced:
    // the four steps of a write cover what it took, and the view's repair
    // shows up inside `repair` under its index.
    for (op, rederives) in [("add_edges", false), ("remove_edges", true)] {
        let response = client.roundtrip(&format!(
            r#"{{"id":2,"op":"{op}","edges":[["v300","a","w0"]],"trace":true,"trace_id":77}}"#
        ));
        assert_ok(&response);
        let trace = &response["trace"];
        assert_eq!(trace["trace_id"].as_u64(), Some(77));
        for phase in ["validate", "csr_freeze", "repair", "snapshot_publish"] {
            assert!(trace["phase_totals"][phase].as_u64().is_some(), "{op}: missing {phase}");
        }
        let total_us = trace["total_us"].as_u64().expect("total_us");
        let top_level_us = trace["top_level_us"].as_u64().expect("top_level_us");
        assert!(top_level_us <= total_us.max(1), "{op}: {top_level_us} > {total_us}");
        assert!(
            top_level_us as f64 >= 0.9 * total_us as f64,
            "{op}: spans cover only {top_level_us} of {total_us} us (< 90 %)"
        );
        let detail: Vec<&str> = trace["spans"]
            .as_array()
            .expect("spans")
            .iter()
            .filter(|span| span["worker"].as_u64() == Some(0))
            .map(|span| span["phase"].as_str().expect("phase"))
            .collect();
        for phase in ["delta_backward", "delta_forward", "splice"] {
            assert!(detail.contains(&phase), "{op}: no {phase} for view 0 in {detail:?}");
        }
        assert_eq!(detail.contains(&"rederive"), rederives, "{op}: {detail:?}");
        assert_eq!(trace["dropped_spans"].as_u64(), Some(0));
    }

    // Untraced, a write's reply is what it always was.
    let response = client.roundtrip(r#"{"id":3,"op":"add_edges","edges":[["v300","a","w0"]]}"#);
    assert_ok(&response);
    assert_eq!(keys(&response), ["id", "ok", "revision", "num_nodes", "applied"]);
    assert_eq!(response["revision"].as_u64(), Some(3));

    // A removal whose repair may visit one product state: it still applies,
    // the view it could not repair is dropped (and counted), and the next
    // read of the view is a fresh, exact materialization.
    let drops = |client: &mut Client| {
        client.roundtrip(r#"{"op":"stats"}"#)["engine"]["repair_budget_drops"].as_u64().unwrap()
    };
    assert_eq!(drops(&mut client), 0);
    let response = client
        .roundtrip(r#"{"id":4,"op":"remove_edges","edges":[["v150","a","v151"]],"max_visited":1}"#);
    assert_ok(&response);
    assert_eq!(keys(&response), ["id", "ok", "revision", "num_nodes", "applied"]);
    assert_eq!(response["revision"].as_u64(), Some(4));
    assert_eq!(drops(&mut client), 1);
    let view = client.roundtrip(r#"{"op":"view","name":"star"}"#);
    let direct = client.roundtrip(r#"{"op":"query","q":"a*"}"#);
    assert_ok(&view);
    assert_eq!(view["revision"].as_u64(), Some(4));
    assert_eq!(view["truncated"].as_bool(), Some(false));
    // Two chains of 151 nodes now: v0..v150, and v151..v300 with w0.
    assert_eq!(view["count"].as_u64(), Some(2 * (151 * 152 / 2)));
    assert_eq!(view["pairs"], direct["pairs"]);

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Metrics op

#[test]
fn metrics_op_reports_histograms_in_both_formats() {
    let server = Server::start(chain_db(100), test_config()).unwrap();
    let mut client = Client::connect(&server);
    for i in 0..5 {
        let response = client.roundtrip(&format!(r#"{{"id":{i},"op":"query","q":"a*"}}"#));
        assert_ok(&response);
    }
    let response = client.roundtrip(r#"{"op":"add_edges","edges":[["x","a","y"]]}"#);
    assert_ok(&response);

    // JSON: engine + service histograms with non-zero counts after load.
    let response = client.roundtrip(r#"{"op":"metrics"}"#);
    assert_ok(&response);
    assert_eq!(response["engine"]["eval"]["count"].as_u64(), Some(5));
    assert_eq!(response["engine"]["compile"]["count"].as_u64(), Some(1), "4 of 5 were cache hits");
    assert!(response["engine"]["snapshot_publish"]["count"].as_u64().unwrap_or(0) >= 2);
    assert_eq!(response["service"]["query"]["count"].as_u64(), Some(5));
    assert_eq!(response["service"]["eval"]["count"].as_u64(), Some(5));
    assert_eq!(response["service"]["write"]["count"].as_u64(), Some(1));
    let p50 = response["service"]["query"]["p50_ms"].as_f64().expect("p50_ms");
    let p99 = response["service"]["query"]["p99_ms"].as_f64().expect("p99_ms");
    assert!(p50 <= p99, "percentiles must be monotone: {p50} > {p99}");
    assert!(response["snapshot_age_s"].as_f64().is_some());
    assert!(response["snapshot_ages"].as_array().is_some_and(|a| !a.is_empty()));

    // Prometheus: well-formed exposition text with the expected families.
    let response = client.roundtrip(r#"{"op":"metrics","format":"prometheus"}"#);
    assert_ok(&response);
    let text = response["exposition"].as_str().expect("exposition text");
    for needle in [
        "# TYPE rpq_engine_eval_duration_seconds histogram",
        "# TYPE rpq_service_query_duration_seconds histogram",
        "rpq_queries_ok_total 5",
        "rpq_writes_applied_total 1",
        "# TYPE rpq_snapshot_age_seconds gauge",
        "rpq_retained_snapshot_age_seconds{revision=",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
        value.parse::<f64>().unwrap_or_else(|_| panic!("bad value on line: {line}"));
    }

    // Unknown format fails the frame, not the connection.
    let response = client.roundtrip(r#"{"op":"metrics","format":"xml"}"#);
    assert_eq!(response["ok"].as_bool(), Some(false));
    assert!(client.roundtrip(r#"{"op":"health"}"#)["ok"].as_bool().unwrap());

    server.shutdown();
}

/// `EngineStats::fields()`, name by name, in order.
const ENGINE_COUNTERS: [&str; 33] = [
    "compile_hits",
    "compile_misses",
    "answer_hits",
    "answer_misses",
    "view_full_materializations",
    "view_cache_hits",
    "view_delta_repairs",
    "parallel_evals",
    "sequential_evals",
    "parallel_chunks",
    "parallel_steals",
    "answer_evictions",
    "answer_stale_evictions",
    "identity_cover_pairs",
    "view_deletion_repairs",
    "deletion_support_skips",
    "deletion_overdeleted_pairs",
    "deletion_rederived_sources",
    "budget_interrupted_evals",
    "repair_budget_drops",
    "snapshot_retained",
    "snapshot_dropped",
    "answer_compactions",
    "point_hits",
    "point_misses",
    "point_compactions",
    "pair_evals",
    "from_evals",
    "point_extension_hits",
    "insertion_new_pairs",
    "compile_evictions",
    "point_scratch_allocations",
    "extension_buffer_allocations",
];

#[test]
fn every_engine_counter_is_exported_by_stats_and_by_prometheus() {
    let server = Server::start(chain_db(20), test_config()).unwrap();
    let mut client = Client::connect(&server);
    assert_ok(&client.roundtrip(r#"{"op":"query","q":"a*"}"#));
    assert_ok(&client.roundtrip(r#"{"op":"query","q":"a*"}"#)); // one answer hit

    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert_ok(&stats);
    let metrics = client.roundtrip(r#"{"op":"metrics","format":"prometheus"}"#);
    let text = metrics["exposition"].as_str().expect("exposition text");
    let fields = engine::EngineStats::default().fields();
    // The names and their order are what `benchmark/` and dashboards read:
    // pinned here, whatever generates the table.
    let names: Vec<&str> = fields.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, ENGINE_COUNTERS);
    let reported: Vec<&str> = stats["engine"]
        .as_object()
        .expect("engine object")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(reported, ENGINE_COUNTERS);
    for (name, _) in fields {
        assert!(stats["engine"][name].as_u64().is_some(), "stats.engine lacks {name}");
        let family = format!("# TYPE rpq_{name}_total counter");
        assert!(text.contains(&family), "exposition lacks {family:?}");
    }
    assert_eq!(stats["engine"].as_object().map(|o| o.len()), Some(fields.len()));
    // The service's own table: every field in `stats.service`, every counter
    // in the exposition (`in_flight` is the `rpq_in_flight_queries` gauge).
    let fields = server.stats().fields();
    for (name, _) in fields {
        assert!(stats["service"][name].as_u64().is_some(), "stats.service lacks {name}");
        let family = match name {
            "in_flight" => "# TYPE rpq_in_flight_queries gauge".to_string(),
            _ => format!("# TYPE rpq_{name}_total counter"),
        };
        assert!(text.contains(&family), "exposition lacks {family:?}");
    }
    assert_eq!(stats["service"].as_object().map(|o| o.len()), Some(fields.len()));
    // The values are the live counters, not the table's defaults.
    assert_eq!(stats["engine"]["answer_hits"].as_u64(), Some(1));
    assert!(text.contains("\nrpq_answer_hits_total 1\n"), "{text}");
    assert_eq!(stats["service"]["connections"].as_u64(), Some(1));
    assert!(text.contains("\nrpq_connections_total 1\n"), "{text}");
    server.shutdown();
}

#[test]
fn one_query_and_one_write_move_every_service_histogram() {
    let server = Server::start(chain_db(50), test_config()).unwrap();
    let mut client = Client::connect(&server);
    assert_ok(&client.roundtrip(r#"{"op":"query","q":"a*"}"#));
    assert_ok(&client.roundtrip(r#"{"op":"add_edges","edges":[["x","a","y"]]}"#));

    let response = client.roundtrip(r#"{"op":"metrics"}"#);
    assert_ok(&response);
    let histograms = response["service"].as_object().expect("service histograms");
    let names: Vec<&str> = histograms.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["query", "eval", "write"]);
    for (name, summary) in histograms {
        assert!(summary["count"].as_u64() > Some(0), "nothing recorded into `{name}`");
    }

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Slow-query log

#[test]
fn slow_query_log_drains_once_through_stats() {
    let mut config = test_config();
    config.slow_query_threshold_ms = 0; // log every query
    config.slow_query_log_capacity = 4;
    let server = Server::start(chain_db(50), config).unwrap();
    let mut client = Client::connect(&server);

    for i in 0..6 {
        let response =
            client.roundtrip(&format!(r#"{{"op":"query","q":"a*","trace":true,"trace_id":{}}}"#, i + 100));
        assert_ok(&response);
    }

    // Capacity 4 with 6 observations: the newest 4 survive, evictions are
    // reflected in the metrics counter (total observed stays 6).
    let response = client.roundtrip(r#"{"op":"metrics"}"#);
    assert_eq!(response["slow_query_log"]["pending"].as_u64(), Some(4));
    assert_eq!(response["slow_query_log"]["total_observed"].as_u64(), Some(6));

    let response = client.roundtrip(r#"{"op":"stats"}"#);
    assert_ok(&response);
    let slow = response["slow_queries"].as_array().expect("slow_queries").to_vec();
    assert_eq!(slow.len(), 4);
    for entry in &slow {
        assert_eq!(entry["query"].as_str(), Some("a*"));
        assert!(entry["elapsed_us"].as_u64().is_some());
        assert!(entry["trace_id"].as_u64().unwrap() >= 100, "newest entries win");
    }
    // Ring order: oldest surviving entry first.
    assert_eq!(slow[0]["trace_id"].as_u64(), Some(102));
    assert_eq!(slow[3]["trace_id"].as_u64(), Some(105));

    // Draining is exactly-once: a second stats call reports nothing.
    let response = client.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(response["slow_queries"].as_array().map(|s| s.len()), Some(0));

    server.shutdown();
}

#[test]
fn slow_query_log_stays_consistent_under_concurrent_readers() {
    let mut config = test_config();
    config.slow_query_threshold_ms = 0;
    config.slow_query_log_capacity = 8;
    let server = Server::start(chain_db(30), config).unwrap();

    const WRITERS: usize = 4;
    const QUERIES_PER_WRITER: usize = 10;
    let mut drained = 0usize;
    std::thread::scope(|scope| {
        let server = &server;
        let handles: Vec<_> = (0..WRITERS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(server);
                    for _ in 0..QUERIES_PER_WRITER {
                        assert_ok(&client.roundtrip(r#"{"op":"query","q":"a·a"}"#));
                    }
                })
            })
            .collect();
        // A concurrent drainer: stats calls race the observers without
        // panicking, duplicating, or wedging anything.
        let mut client = Client::connect(server);
        while handles.iter().any(|h| !h.is_finished()) {
            let response = client.roundtrip(r#"{"op":"stats"}"#);
            assert_ok(&response);
            drained += response["slow_queries"].as_array().map_or(0, |s| s.len());
        }
        for handle in handles {
            handle.join().expect("writer client");
        }
    });

    // Final drain: everything observed was reported at most once, and
    // nothing beyond what was actually sent.
    let mut client = Client::connect(&server);
    let response = client.roundtrip(r#"{"op":"stats"}"#);
    drained += response["slow_queries"].as_array().map_or(0, |s| s.len());
    assert!(drained <= WRITERS * QUERIES_PER_WRITER, "{drained} drained of 40 sent");
    let response = client.roundtrip(r#"{"op":"metrics"}"#);
    assert_eq!(
        response["slow_query_log"]["total_observed"].as_u64(),
        Some((WRITERS * QUERIES_PER_WRITER) as u64)
    );

    server.shutdown();
}
