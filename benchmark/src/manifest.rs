//! `BENCHMARK.json` as the metric tables define it, and the A/A comparison
//! of two result directories.

use std::path::Path;

use serde_json::{json, Value};

use crate::host;
use crate::metrics::{BOUND, PER_LAYER, SLOTS, WORKLOADS};

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// The end-to-end metrics with their units, in reporting order.
fn end_to_end() -> Vec<(&'static str, &'static str)> {
    let mut metrics = vec![("setup_s", "s"), ("peak_rss_mb", "MiB")];
    metrics.extend(SLOTS.iter().map(|slot| (*slot, "ms")));
    metrics
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let end_to_end: Vec<Value> = end_to_end()
        .into_iter()
        .map(
            |(name, unit)| json!({ "name": name, "unit": unit, "better": "lower", "bound": BOUND }),
        )
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit(), "better": m.better }))
        .collect();
    json!({
        "command": vec!["bash", "benchmark/run.sh"],
        "paths": vec!["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer
    })
}

fn load(dir: &Path, workload: &str) -> Result<Value, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|_| format!("{}: not JSON", path.display()))
}

/// Compares two result directories of the same build, metric by metric:
/// prints both values, the relative difference and the bound, and reports
/// whether every end-to-end metric agrees within its bound and every
/// `failed_share` is equal.  Refuses outputs with different host stamps.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let mut agree = true;
    for workload in &WORKLOADS {
        let (ra, rb) = (load(a, workload.name)?, load(b, workload.name)?);
        host::comparable(&ra["host"], &rb["host"])?;
        if ra["scale"] != rb["scale"] || ra["scale"].as_str() != Some("Full") {
            return Err(format!(
                "{}: only full-scale results are comparable",
                workload.name
            ));
        }
        println!("{}", workload.name);
        let mut rows = vec![
            ("setup_s", ra["setup_s"].as_f64(), rb["setup_s"].as_f64()),
            (
                "peak_rss_mb",
                ra["peak_rss_mb"].as_f64(),
                rb["peak_rss_mb"].as_f64(),
            ),
        ];
        for op in &workload.ops {
            let value = |r: &Value| r["ops"][op.name]["median"].as_f64();
            rows.push((op.name, value(&ra), value(&rb)));
        }
        for (name, va, vb) in rows {
            let (Some(va), Some(vb)) = (va, vb) else {
                return Err(format!("{}: {name} is missing", workload.name));
            };
            let relative = (vb - va) / va;
            let verdict = if relative.abs() <= BOUND {
                "ok"
            } else {
                "DISAGREES"
            };
            agree &= relative.abs() <= BOUND;
            println!(
                "  {name:24} {va:12.4} {vb:12.4} {:+7.2} %  bound {:.0} %  {verdict}",
                relative * 100.0,
                BOUND * 100.0
            );
        }
        let (fa, fb) = (ra["failed_share"].as_f64(), rb["failed_share"].as_f64());
        println!(
            "  {:24} {:12} {:12}",
            "failed_share",
            fa.unwrap_or(f64::NAN),
            fb.unwrap_or(f64::NAN)
        );
        agree &= fa.is_some() && fa == fb;
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk: Value = serde_json::from_str(
            &std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root"),
        )
        .expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `rpq-benchmark manifest`"
        );
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let manifest = benchmark_json();
        let end_to_end = manifest["end_to_end"].as_array().unwrap();
        assert!((1..=16).contains(&end_to_end.len()));
        assert!(end_to_end
            .iter()
            .any(|m| m["name"].as_str() == Some("setup_s")));
        let max_bound = end_to_end
            .iter()
            .filter_map(|m| m["bound"].as_f64())
            .fold(0.0, f64::max);
        assert!(max_bound <= 0.25);
        assert_eq!(
            end_to_end
                .iter()
                .find(|m| m["name"].as_str() == Some("setup_s"))
                .unwrap()["bound"]
                .as_f64(),
            Some(max_bound),
            "setup_s carries the largest bound"
        );
        assert!((2..=8).contains(&manifest["workloads"].as_array().unwrap().len()));
        assert!((1..=60).contains(&manifest["run_seconds"].as_u64().unwrap()));
        assert!(serde_json::to_string_pretty(&manifest).unwrap().len() <= 64 * 1024);
    }

    #[test]
    fn comparison_refuses_mismatched_hosts_and_flags_disagreement() {
        let dir =
            std::env::temp_dir().join(format!("rpq-benchmark-compare-{}", std::process::id()));
        let write = |sub: &str, threads: u64, delete_ms: f64| {
            let out = dir.join(sub);
            std::fs::create_dir_all(&out).unwrap();
            for workload in &WORKLOADS {
                let ops: Vec<(String, Value)> = workload
                    .ops
                    .iter()
                    .map(|op| {
                        let median = if op.name == "delete_ms" {
                            delete_ms
                        } else {
                            10.0
                        };
                        (op.name.to_string(), json!({ "median": median }))
                    })
                    .collect();
                let mut stamp = host::stamp();
                if let Value::Object(entries) = &mut stamp {
                    entries
                        .iter_mut()
                        .find(|(k, _)| k == "engine_threads")
                        .unwrap()
                        .1 = json!(threads);
                }
                let result = json!({
                    "scale": "Full", "host": stamp, "ops": Value::Object(ops),
                    "setup_s": 1.0, "peak_rss_mb": 50.0, "failed_share": 0.0
                });
                std::fs::write(
                    out.join(format!("{}.json", workload.name)),
                    serde_json::to_string(&result).unwrap(),
                )
                .unwrap();
            }
            out
        };
        let base = write("a", 2, 100.0);
        assert_eq!(compare(&base, &write("b", 2, 104.0)), Ok(true));
        assert_eq!(compare(&base, &write("c", 2, 140.0)), Ok(false));
        let refusal = compare(&base, &write("d", 8, 100.0)).unwrap_err();
        assert!(refusal.contains("engine_threads"), "{refusal}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
