//! The repo benchmark.  See `README.md` next to this package.

mod gen;
mod harness;
mod host;
mod manifest;
mod metrics;
mod spans;
mod stats;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Args, Scale};

const USAGE: &str = "usage: rpq-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--scale full|check] [--out DIR]\n       \
                     rpq-benchmark --compare DIR_A DIR_B\n       \
                     rpq-benchmark --manifest";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "check" => Scale::Check,
                    other => return Err(format!("--scale: unknown scale {other}\n{USAGE}")),
                };
            }
            "--out" => args.out = PathBuf::from(value()?),
            // `--trace` alone means a traced run; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn run_one(def: &'static metrics::WorkloadDef, args: &Args) -> std::io::Result<harness::Report> {
    match def.name {
        "rewrite_offline" => harness::run::<workloads::rewrite_offline::RewriteOffline>(def, args),
        "materialize" => harness::run::<workloads::materialize::Materialize>(def, args),
        "serve_interactive" => {
            harness::run::<workloads::serve_interactive::ServeInteractive>(def, args)
        }
        "serve_churn" => harness::run::<workloads::serve_churn::ServeChurn>(def, args),
        other => unreachable!("workload {other} is in the table but has no driver"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--manifest"] => {
            let manifest = serde_json::to_string_pretty(manifest::benchmark_json());
            println!("{}", manifest.expect("infallible"));
            return ExitCode::SUCCESS;
        }
        ["--compare", a, b] => {
            return match manifest::compare(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(3),
                Err(refusal) => {
                    eprintln!("{refusal}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&'static metrics::WorkloadDef> = if args.workload == "all" {
        metrics::WORKLOADS.iter().collect()
    } else {
        match metrics::workload(&args.workload) {
            Some(def) => vec![def],
            None => {
                eprintln!("unknown workload {}\n{USAGE}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let mut all_correct = true;
    for def in selected {
        match run_one(def, &args) {
            Ok(report) => {
                all_correct &= report.correct;
                println!(
                    "{}",
                    serde_json::to_string(&report.last_line).expect("infallible")
                );
            }
            Err(e) => {
                eprintln!("{}: {e}", def.name);
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
