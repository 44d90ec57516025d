//! The timing rules, in one place.
//!
//! Every workload is a closed loop on one driver thread: repeated complete
//! set-ups (their median is `setup_s`), each followed by its share of the
//! window, in which the workload's script runs cycle after cycle.  A cycle is
//! a fixed sequence of *units*; a unit is the smallest thing timed, and
//! correctness checks run between units, never inside one.  One *sample* of
//! an operation is all its units in one cycle, time ÷ operations — the block
//! rule: what is too short or too uneven to time alone (a 30 µs request, a
//! deletion whose cost depends on the edge) is timed as a fixed block, and
//! every sample holds the same block.  Each operation's metric is the median
//! over its samples.  A traced run additionally replays, after each round,
//! the calls each layer received, as child spans of the unit that caused
//! them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::host;
use crate::metrics::{self, Kind, WorkloadDef};
use crate::spans::{SpanId, Tracer};
use crate::stats::{highest_supported_percentile, median, per_op_ms};

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Shrunk graphs and problem sets for a smoke run of a few seconds; its
    /// numbers are never meant for comparison.
    Check,
}

impl Scale {
    /// Picks the value for this scale.
    pub fn pick<T>(self, full: T, check: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Check => check,
        }
    }
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Output directory.
    pub out: PathBuf,
}

/// A replayed call into a layer: the per-layer metric it samples (if any),
/// the layer, the function, and whether it is a part of its parent's work
/// (it then counts against the parent's self time) or an informational
/// replay of an alternative.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Per-layer time metric the call samples.
    pub metric: Option<&'static str>,
    /// Layer (crate) called into.
    pub layer: &'static str,
    /// Function called.
    pub name: &'static str,
    /// Part of the parent's work?
    pub part: bool,
}

impl Call {
    /// A call that is part of its parent's work.
    pub const fn part(metric: &'static str, layer: &'static str, name: &'static str) -> Call {
        Call {
            metric: Some(metric),
            layer,
            name,
            part: true,
        }
    }

    /// An informational replay that the parent did not itself make.
    pub const fn info(metric: &'static str, layer: &'static str, name: &'static str) -> Call {
        Call {
            metric: Some(metric),
            layer,
            name,
            part: false,
        }
    }

    /// A part that has a span but feeds no metric of its own.
    pub const fn unmetered(layer: &'static str, name: &'static str) -> Call {
        Call {
            metric: None,
            layer,
            name,
            part: true,
        }
    }
}

/// What a replayed call hangs under.
#[derive(Debug, Clone, Copy)]
pub enum Parent {
    /// The latest unit of this end-to-end operation.
    Unit(&'static str),
    /// An earlier replay.
    Span(Option<SpanId>),
}

/// Result of a replayed call.
pub struct Replayed<T> {
    /// What the call returned.
    pub out: T,
    /// Its total time in milliseconds.
    pub ms: f64,
    /// Its span, to hang further replays under.
    pub span: Option<SpanId>,
}

/// Mutable state of one run: samples, spans, counters, digests.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Span recorder (disabled in the untraced run).
    pub tracer: Tracer,
    /// Outputs checked against an oracle.
    pub attempted: u64,
    /// Of those, the ones that were wrong.
    pub failed: u64,
    recording: bool,
    ops: BTreeMap<&'static str, Vec<f64>>,
    /// Per operation, the time and operation count of the open cycle.
    cycle: BTreeMap<&'static str, (f64, usize)>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    /// Per operation, the per-operation time and the span of its latest unit.
    last_unit: BTreeMap<&'static str, (f64, Option<SpanId>)>,
    digests: Vec<(String, String)>,
    failures: Vec<String>,
}

impl Ctx {
    /// Fresh state for one run.
    pub fn new(seed: u64, scale: Scale, trace: bool) -> Ctx {
        Ctx {
            seed,
            scale,
            tracer: Tracer::new(trace),
            attempted: 0,
            failed: 0,
            recording: false,
            ops: BTreeMap::new(),
            cycle: BTreeMap::new(),
            layers: BTreeMap::new(),
            counts: BTreeMap::new(),
            last_unit: BTreeMap::new(),
            digests: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Records the digest of a generated input or a reference answer.
    pub fn digest(&mut self, what: &str, hex: String) {
        self.digests.push((what.to_string(), hex));
    }

    /// Times one unit of `ops` operations of kind `op` and returns its
    /// output.  The time counts towards the open cycle's sample of `op`, and
    /// the traced run records a root span for it.
    pub fn unit<T>(
        &mut self,
        op: &'static str,
        layer: &'static str,
        call: &'static str,
        ops: usize,
        body: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let out = body();
        let ended = Instant::now();
        let block_ms = (ended - started).as_secs_f64() * 1e3;
        let entry = self.cycle.entry(op).or_insert((0.0, 0));
        entry.0 += block_ms;
        entry.1 += ops;
        let span = self.tracer.record(call, layer, None, false, started, ended);
        self.last_unit.insert(op, (per_op_ms(block_ms, ops), span));
        out
    }

    /// Closes a cycle: every operation's units become one sample of it, and
    /// all unit times together one `round_ms` sample (outside warm-up).
    pub fn end_cycle(&mut self) {
        let cycle = std::mem::take(&mut self.cycle);
        if self.recording {
            let total: f64 = cycle.values().map(|&(ms, _)| ms).sum();
            self.ops.entry("round_ms").or_default().push(total);
            for (op, (ms, ops)) in cycle {
                self.ops.entry(op).or_default().push(per_op_ms(ms, ops));
            }
        }
    }

    /// One checked output: attempted, and failed unless `ok` (an error
    /// response, an oracle mismatch and a timeout all fail).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Traced run only: replays `ops` calls into a layer as a child span of
    /// `parent`, and adds the per-call time as a sample of the call's
    /// per-layer metric.
    pub fn replay<T>(
        &mut self,
        call: Call,
        parent: Parent,
        ops: usize,
        body: impl FnOnce() -> T,
    ) -> Replayed<T> {
        let started = Instant::now();
        let out = body();
        let ended = Instant::now();
        let ms = (ended - started).as_secs_f64() * 1e3;
        if let Some(metric) = call.metric {
            self.sample(metric, per_op_ms(ms, ops));
        }
        let parent = match parent {
            Parent::Unit(op) => self.last_unit(op).1,
            Parent::Span(span) => span,
        };
        let span = self
            .tracer
            .record(call.name, call.layer, parent, call.part, started, ended);
        Replayed { out, ms, span }
    }

    /// Adds a sample (in milliseconds) of a per-layer time metric.
    pub fn sample(&mut self, metric: &'static str, ms: f64) {
        self.layers.entry(metric).or_default().push(ms);
    }

    /// Sets a per-layer count or ratio.
    pub fn count(&mut self, metric: &'static str, value: f64) {
        self.counts.insert(metric, value);
    }

    /// Per-operation time (in milliseconds) and span of the latest unit of
    /// `op`, warm-up included.
    pub fn last_unit(&self, op: &str) -> (f64, Option<SpanId>) {
        self.last_unit.get(op).copied().unwrap_or((0.0, None))
    }
}

/// A workload: seeded inputs, a complete set-up, a script round, and the
/// per-layer replay of the traced run.
pub trait Workload: Sized {
    /// Generated inputs and reference answers (made once, never timed).
    type Inputs;

    /// Untimed warm-up rounds that end a set-up.
    const WARMUP_ROUNDS: usize = 1;

    /// Rounds per cycle of the script.  More than one when consecutive
    /// rounds do differently expensive work (the mutation batches of
    /// `serve_churn`), so that every sample covers the same work.
    const CYCLE: usize = 1;

    /// Generates the inputs from `ctx.seed` and records their digests.
    fn generate(ctx: &mut Ctx) -> Self::Inputs;

    /// One complete set-up up to the point where requests can be served:
    /// build the databases from the generated edge lists, start the engine
    /// or server, register views.
    fn setup(inputs: &Self::Inputs, ctx: &mut Ctx) -> Self;

    /// One round of the script: timed units with checks in between.
    fn round(&mut self, inputs: &Self::Inputs, ctx: &mut Ctx);

    /// Called once when the window opens (baselines for counter deltas).
    fn open_window(&mut self, _inputs: &Self::Inputs, _ctx: &mut Ctx) {}

    /// Traced run only: replays the layer calls behind the last round.
    fn replay(&mut self, inputs: &Self::Inputs, ctx: &mut Ctx);

    /// Traced run only: counter deltas over the window and derived ratios.
    fn close_window(&mut self, _inputs: &Self::Inputs, _ctx: &mut Ctx) {}

    /// Stops everything the set-up started and waits for it.
    fn teardown(self);
}

/// What a run reports.
pub struct Report {
    /// The driver's last line.
    pub last_line: Value,
    /// Whether every output was correct.
    pub correct: bool,
    /// Traced run: among spans with part children, the share whose parts
    /// add up to at most [`PART_SLACK`] × the span.
    #[cfg_attr(not(test), allow(dead_code))]
    pub parts_within_parent: Option<f64>,
}

/// Complete set-ups per run; `setup_s` is their median.
fn setups(args: &Args) -> usize {
    match (args.trace, args.scale) {
        (true, _) => 1,
        (false, Scale::Full) => 5,
        (false, Scale::Check) => 2,
    }
}

/// Runs one workload under the timing rules and writes its outputs.
pub fn run<W: Workload>(def: &'static WorkloadDef, args: &Args) -> std::io::Result<Report> {
    let mut ctx = Ctx::new(args.seed, args.scale, args.trace);
    let inputs = W::generate(&mut ctx);

    // Set-up, several times over.  Every set-up gets an equal share of the
    // window: run-to-run variance on a small host is mostly where a build's
    // memory happened to land, and measuring in several builds averages it
    // inside one run (and `setup_s` is the median of the complete set-ups,
    // teardown included).
    let repeats = setups(args);
    let share = Duration::from_secs_f64(args.seconds / repeats as f64);
    let mut setup_s = Vec::new();
    let mut peak_rss_mb = Vec::new();
    for _ in 0..repeats {
        // The high-water mark restarts with every set-up, so that it stops
        // reflecting input generation and the oracles' reference answers,
        // and `peak_rss_mb` is a median like everything else.
        host::reset_peak_rss();
        let started = Instant::now();
        let mut world = W::setup(&inputs, &mut ctx);
        for _ in 0..W::WARMUP_ROUNDS {
            world.round(&inputs, &mut ctx);
        }
        ctx.end_cycle();
        let ready = started.elapsed();

        ctx.recording = true;
        world.open_window(&inputs, &mut ctx);
        let deadline = Instant::now() + share;
        loop {
            for _ in 0..W::CYCLE {
                world.round(&inputs, &mut ctx);
                if args.trace {
                    world.replay(&inputs, &mut ctx);
                }
            }
            ctx.end_cycle();
            if Instant::now() >= deadline {
                break;
            }
        }
        ctx.recording = false;
        if args.trace {
            world.close_window(&inputs, &mut ctx);
        }
        peak_rss_mb.extend(host::peak_rss_mib());

        let started = Instant::now();
        world.teardown();
        setup_s.push((ready + started.elapsed()).as_secs_f64());
    }
    let setup_median = median(&setup_s).expect("at least one set-up");
    let peak_rss_median = median(&peak_rss_mb).unwrap_or(f64::NAN);

    report(def, args, &ctx, setup_median, peak_rss_median)
}

/// Share of spans whose parts may exceed them and still count as "within":
/// replays run after the unit, on other instances and warm caches.
const PART_SLACK: f64 = 1.25;

/// The reading of an unexercised layer's time metric: the cost of timing
/// nothing.  A literal zero would be indistinguishable from "not measured".
fn timer_floor_ms() -> f64 {
    let samples: Vec<f64> = (0..101)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).expect("101 samples")
}

fn metric_value(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

/// Prints one operation as `name value unit (n=…, tail)` and returns its
/// entry of the result file.
fn op_summary(op: &metrics::Op, samples_ms: &[f64]) -> Value {
    let scaled: Vec<f64> = samples_ms.iter().map(|&ms| op.display(ms)).collect();
    let center = median(&scaled).unwrap_or(f64::NAN);
    let tail = highest_supported_percentile(&scaled);
    let shown = tail.map_or(String::new(), |(label, value)| {
        format!(" {label}={value:.4}")
    });
    println!(
        "{} {center:.4} {}  (n={}{shown})",
        op.name,
        op.unit(),
        scaled.len()
    );
    json!({
        "what": op.what,
        "median": center,
        "unit": op.unit(),
        "samples": scaled.len(),
        "tail": tail.map_or(Value::Null, |(label, value)| json!({ "percentile": label, "value": value })),
        "values": scaled
    })
}

fn report(
    def: &'static WorkloadDef,
    args: &Args,
    ctx: &Ctx,
    setup_s: f64,
    peak_rss_mb: f64,
) -> std::io::Result<Report> {
    let failed_share = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    let scale = format!("{:?}", args.scale);
    println!(
        "workload {} seed {} seconds {} scale {scale} trace {}",
        def.name, args.seed, args.seconds, args.trace
    );
    for (what, hex) in &ctx.digests {
        println!("digest {what} {hex}");
    }
    let samples = |op: &str| ctx.ops.get(op).map_or(&[][..], Vec::as_slice);
    let ops: Vec<(String, Value)> = def
        .ops
        .iter()
        .map(|op| (op.name.to_string(), op_summary(op, samples(op.name))))
        .collect();
    println!("setup_s {setup_s:.4} s");
    println!("peak_rss_mb {peak_rss_mb:.2} MiB");
    println!(
        "attempted {} failed {} failed_share {failed_share}",
        ctx.attempted, ctx.failed
    );
    for failure in &ctx.failures {
        println!("failure {failure}");
    }

    std::fs::create_dir_all(&args.out)?;
    let result_path = args.out.join(format!("{}.json", def.name));
    let metrics_line = if args.trace {
        let untraced = std::fs::read_to_string(&result_path)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .filter(|v: &Value| {
                v["seed"].as_u64() == Some(args.seed) && v["scale"].as_str() == Some(&scale)
            });
        let (per_layer, trace) = traced_report(def, args, ctx, ops, untraced.as_ref());
        let trace_path = args.out.join(format!("{}.trace.json", def.name));
        std::fs::write(
            trace_path,
            serde_json::to_string_pretty(&trace).expect("infallible"),
        )?;
        per_layer
    } else {
        let digests: Vec<(String, Value)> = ctx
            .digests
            .iter()
            .map(|(what, hex)| (what.clone(), json!(hex)))
            .collect();
        let result = json!({
            "workload": def.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": scale,
            "host": host::stamp(),
            "digests": Value::Object(digests),
            "ops": Value::Object(ops),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "attempted": ctx.attempted,
            "failed": ctx.failed,
            "failed_share": failed_share,
            "failures": ctx.failures.clone()
        });
        std::fs::write(
            &result_path,
            serde_json::to_string_pretty(&result).expect("infallible"),
        )?;
        // The driver's names: the slots, always in milliseconds.
        let mut line = vec![
            ("setup_s".to_string(), metric_value(setup_s, "s")),
            ("peak_rss_mb".to_string(), metric_value(peak_rss_mb, "MiB")),
        ];
        for (slot, op) in metrics::SLOTS.iter().zip(&def.ops) {
            let center = median(samples(op.name)).unwrap_or(f64::NAN);
            line.push((slot.to_string(), metric_value(center, "ms")));
        }
        line
    };

    let last_line = json!({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted.max(1),
        "failed": ctx.failed,
        "metrics": Value::Object(metrics_line)
    });
    Ok(Report {
        last_line,
        correct: ctx.failed == 0,
        parts_within_parent: ctx.tracer.parts_within_parent_share(PART_SLACK),
    })
}

/// The traced run's own outputs: every per-layer metric (printed, and
/// returned for the driver's last line), and the trace file — spans,
/// per-layer values, and the tracing overhead against the untraced run of
/// the same seed when its result file is there.
fn traced_report(
    def: &WorkloadDef,
    args: &Args,
    ctx: &Ctx,
    ops: Vec<(String, Value)>,
    untraced: Option<&Value>,
) -> (Vec<(String, Value)>, Value) {
    let floor = timer_floor_ms();
    let mut per_layer = Vec::new();
    for metric in metrics::PER_LAYER {
        let samples = ctx.layers.get(metric.name).map_or(&[][..], Vec::as_slice);
        let value = match metric.kind {
            Kind::Time(unit) => median(samples).unwrap_or(floor) * metrics::from_ms(unit),
            Kind::Count(_) => ctx.counts.get(metric.name).copied().unwrap_or(0.0),
        };
        println!(
            "{} {value} {}  (n={})",
            metric.name,
            metric.unit(),
            samples.len()
        );
        per_layer.push((metric.name.to_string(), metric_value(value, metric.unit())));
    }
    let mut overhead = Vec::new();
    for (name, traced) in &ops {
        let base = untraced.and_then(|result| result["ops"][name.as_str()]["median"].as_f64());
        if let (Some(base), Some(now)) = (base, traced["median"].as_f64()) {
            let relative = (now - base) / base;
            println!("tracing_overhead {name} {:+.2} %", relative * 100.0);
            overhead.push((name.clone(), Value::Float(relative)));
        }
    }
    if let Some(share) = ctx.tracer.parts_within_parent_share(PART_SLACK) {
        println!("trace_parts_within_parent_share {share:.3}");
    }
    let mut trace = vec![
        ("workload".to_string(), json!(def.name)),
        ("seed".to_string(), json!(args.seed)),
        ("host".to_string(), host::stamp()),
        ("per_layer".to_string(), Value::Object(per_layer.clone())),
        ("ops_traced".to_string(), Value::Object(ops)),
        ("tracing_overhead".to_string(), Value::Object(overhead)),
    ];
    if let Value::Object(spans) = ctx.tracer.to_json() {
        trace.extend(spans);
    }
    (per_layer, Value::Object(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{
        materialize::Materialize, rewrite_offline::RewriteOffline, serve_churn::ServeChurn,
        serve_interactive::ServeInteractive,
    };

    #[test]
    fn units_of_one_cycle_make_one_sample_per_operation() {
        let mut ctx = Ctx::new(1, Scale::Check, false);
        ctx.recording = true;
        let sleep = |ms| std::thread::sleep(Duration::from_millis(ms));
        ctx.unit("pair_read_us", "service", "block", 64, || sleep(4));
        ctx.unit("pair_read_us", "service", "block", 64, || sleep(4));
        ctx.unit("hit_read_us", "service", "block", 64, || sleep(2));
        ctx.end_cycle();
        let pair = &ctx.ops["pair_read_us"];
        assert_eq!(pair.len(), 1, "two blocks of one cycle are one sample");
        assert!(
            (8.0 / 128.0..24.0 / 128.0).contains(&pair[0]),
            "8 ms over 128 requests, got {}",
            pair[0]
        );
        let round = ctx.ops["round_ms"][0];
        assert!((round - (pair[0] * 128.0 + ctx.ops["hit_read_us"][0] * 64.0)).abs() < 1e-9);
        // Warm-up units leave no sample behind.
        ctx.recording = false;
        ctx.unit("pair_read_us", "service", "block", 64, || ());
        ctx.end_cycle();
        assert_eq!(ctx.ops["pair_read_us"].len(), 1);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut ctx = Ctx::new(1, Scale::Check, false);
        ctx.check(true, || unreachable!());
        ctx.check(false, || "wrong digest".to_string());
        assert_eq!((ctx.attempted, ctx.failed), (2, 1));
        assert_eq!(ctx.failures, ["wrong digest"]);
    }

    fn digests<W: Workload>(seed: u64) -> Vec<(String, String)> {
        let mut ctx = Ctx::new(seed, Scale::Check, false);
        W::generate(&mut ctx);
        assert_eq!(ctx.failed, 0, "pass-1 oracles hold on generated inputs");
        ctx.digests
    }

    #[test]
    fn same_seed_same_input_digests_other_seed_other_digests() {
        fn check<W: Workload>(name: &str) {
            let (a, again, other) = (digests::<W>(11), digests::<W>(11), digests::<W>(12));
            assert!(!a.is_empty(), "{name} prints its input digests");
            assert_eq!(a, again, "{name}: same seed, same inputs");
            assert_ne!(a, other, "{name}: another seed, other inputs");
        }
        check::<RewriteOffline>("rewrite_offline");
        check::<Materialize>("materialize");
        check::<ServeInteractive>("serve_interactive");
        check::<ServeChurn>("serve_churn");
    }

    #[test]
    fn traced_run_emits_every_per_layer_metric_and_parts_stay_within_parents() {
        let out = std::env::temp_dir().join(format!("rpq-benchmark-trace-{}", std::process::id()));
        let args = Args {
            workload: "rewrite_offline".to_string(),
            seed: 5,
            seconds: 0.5,
            trace: true,
            scale: Scale::Check,
            out: out.clone(),
        };
        let def = metrics::workload("rewrite_offline").unwrap();
        let report = run::<RewriteOffline>(def, &args).unwrap();
        assert!(report.correct);
        let emitted = report.last_line["metrics"].as_object().unwrap();
        assert_eq!(emitted.len(), metrics::PER_LAYER.len());
        for (metric, (name, value)) in metrics::PER_LAYER.iter().zip(emitted) {
            assert_eq!(metric.name, name);
            assert!(value["value"].as_f64().unwrap().is_finite());
        }
        // An exercised layer reads well above the timer floor, an idle one at it.
        let value = |name: &str| report.last_line["metrics"][name]["value"].as_f64().unwrap();
        assert!(value("rewriter.maximal_typical_us") > 1.0);
        assert!(value("graphdb.eval_dense_ms") < 0.001);
        let share = report
            .parts_within_parent
            .expect("the replay records part spans");
        assert!(
            share >= 0.95,
            "parts exceed their parent in {:.0} % of spans",
            (1.0 - share) * 100.0
        );
        let trace: Value = serde_json::from_str(
            &std::fs::read_to_string(out.join("rewrite_offline.trace.json")).unwrap(),
        )
        .unwrap();
        assert!(trace["span_count"].as_u64().unwrap() > 10);
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let out = std::env::temp_dir().join(format!("rpq-benchmark-run-{}", std::process::id()));
        let args = Args {
            workload: "serve_churn".to_string(),
            seed: 5,
            seconds: 0.5,
            trace: false,
            scale: Scale::Check,
            out: out.clone(),
        };
        let report = run::<ServeChurn>(metrics::workload("serve_churn").unwrap(), &args).unwrap();
        assert!(
            report.correct,
            "{}",
            serde_json::to_string(&report.last_line).unwrap()
        );
        let names: Vec<&str> = report.last_line["metrics"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "peak_rss_mb",
                "op1_ms",
                "op2_ms",
                "op3_ms",
                "op4_ms"
            ]
        );
        for (name, metric) in report.last_line["metrics"].as_object().unwrap() {
            assert!(
                metric["value"].as_f64().unwrap() > 0.0,
                "{name} must never be zero"
            );
        }
        let result: Value =
            serde_json::from_str(&std::fs::read_to_string(out.join("serve_churn.json")).unwrap())
                .unwrap();
        assert_eq!(result["failed_share"].as_f64(), Some(0.0));
        assert!(result["ops"]["delete_ms"]["samples"].as_u64().unwrap() >= 1);
        std::fs::remove_dir_all(&out).unwrap();
    }
}
