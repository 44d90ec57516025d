//! `rpq-server` — serve RPQ evaluation over line-delimited JSON on TCP.
//!
//! ```text
//! rpq-server [--addr HOST:PORT] [--labels a,b,c] [--max-inflight N] [--timeout-ms MS]
//!            [--slow-query-ms MS]
//! ```
//!
//! Starts with an empty database over the given edge-label alphabet; load
//! data through `add_edges` frames.  Try it with netcat:
//!
//! ```text
//! $ rpq-server --addr 127.0.0.1:7878 --labels a,b &
//! $ printf '%s\n' '{"id":1,"op":"add_edges","edges":[["x","a","y"],["y","b","z"]]}' \
//!     '{"id":2,"op":"query","q":"a·b"}' | nc 127.0.0.1 7878
//! {"id":1,"ok":true,"revision":1,"num_nodes":3,"applied":2}
//! {"id":2,"ok":true,"revision":1,"count":1,"truncated":false,"pairs":[[0,2]]}
//! ```
//!
//! Observability is built in, and its latency histograms are always on:
//! `{"op":"query","q":"a·b","trace":true}` returns a per-phase `trace`
//! breakdown, `{"op":"metrics"}` returns latency histograms and snapshot-age
//! gauges (add `"format":"prometheus"` for text exposition), and
//! `{"op":"stats"}` drains the slow-query log.
//!
//! A client `{"op":"shutdown"}` frame drains and stops the process.

use automata::Alphabet;
use graphdb::GraphDb;
use service::{Server, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: rpq-server [--addr HOST:PORT] [--labels a,b,c] \
         [--max-inflight N] [--timeout-ms MS] [--slow-query-ms MS]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServiceConfig { addr: "127.0.0.1:7878".to_string(), ..Default::default() };
    let mut labels: Vec<char> = vec!['a', 'b', 'c'];

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_for(flag));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--labels" => {
                labels = value("--labels")
                    .split(',')
                    .filter_map(|part| part.trim().chars().next())
                    .collect();
            }
            "--max-inflight" => {
                config.max_inflight = value("--max-inflight").parse().unwrap_or_else(|_| usage())
            }
            "--timeout-ms" => {
                config.default_timeout_ms =
                    value("--timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--slow-query-ms" => {
                config.slow_query_threshold_ms =
                    value("--slow-query-ms").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let alphabet = Alphabet::from_chars(labels.iter().copied()).unwrap_or_else(|e| {
        eprintln!("rpq-server: bad --labels: {e}");
        std::process::exit(2);
    });
    let server = Server::start(GraphDb::new(alphabet), config).unwrap_or_else(|e| {
        eprintln!("rpq-server: failed to start: {e}");
        std::process::exit(1);
    });
    println!("rpq-server listening on {}", server.addr());

    // No signal handling without external crates: run until a client sends
    // the shutdown op, then drain and exit.
    while !server.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    server.shutdown();
    println!("rpq-server drained; bye");
}

fn usage_for(flag: &str) -> String {
    eprintln!("rpq-server: {flag} needs a value");
    usage()
}
