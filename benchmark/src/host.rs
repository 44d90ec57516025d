//! The host stamp of a run and the process's peak memory.
//!
//! Numbers taken on different hosts, with different thread counts or from
//! different commits of the toolchain are not comparable; every output
//! carries a stamp and [`comparable`] refuses mismatched pairs.

use serde_json::{json, Value};

/// Engine worker threads of every workload: `min(nproc, 4)`, never more
/// threads than cores (the legacy snapshot's 4-threads-on-2-cores rows
/// measured oversubscription).
pub fn engine_threads() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The stamp: cores, engine threads, client connections, CPU model,
/// compiler and commit (`run.sh` passes the last two through the
/// environment; the checkout need not be a git repository).
pub fn stamp() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    json!({
        "nproc": nproc(),
        "engine_threads": engine_threads(),
        "connections": 1,
        "cpu": cpu,
        "rustc": env("RPQ_BENCH_RUSTC"),
        "commit": env("RPQ_BENCH_COMMIT")
    })
}

/// Whether two outputs may be compared: every field of the stamp except the
/// commit must agree (comparing two commits is what the benchmark is for).
/// On refusal the error names the first field that differs.
pub fn comparable(a: &Value, b: &Value) -> Result<(), String> {
    for key in ["nproc", "engine_threads", "connections", "cpu", "rustc"] {
        if a[key] != b[key] {
            return Err(format!(
                "host stamps differ on {key}: {:?} vs {:?} — refusing to compare",
                a[key], b[key]
            ));
        }
    }
    Ok(())
}

/// Resets the kernel's high-water mark of this process's resident set to its
/// current size.  Best effort: where procfs does not allow it, every reading
/// of [`peak_rss_mib`] is the peak since the process started.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatched_stamps_are_refused_and_commit_is_not_a_mismatch() {
        let here = stamp();
        assert!(comparable(&here, &here).is_ok());
        let mut other_commit = here.clone();
        let mut more_threads = here.clone();
        if let (Value::Object(a), Value::Object(b)) = (&mut other_commit, &mut more_threads) {
            a.iter_mut().find(|(k, _)| k == "commit").unwrap().1 = Value::String("abc".into());
            b.iter_mut().find(|(k, _)| k == "engine_threads").unwrap().1 = Value::Int(64);
        }
        assert!(comparable(&here, &other_commit).is_ok());
        let refusal = comparable(&here, &more_threads).unwrap_err();
        assert!(refusal.contains("engine_threads"), "{refusal}");
    }

    #[test]
    fn threads_never_exceed_cores_and_rss_is_positive() {
        assert!(engine_threads() >= 1 && engine_threads() <= 4);
        assert!(engine_threads() <= nproc());
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
