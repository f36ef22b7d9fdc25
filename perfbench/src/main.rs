//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <fleet|stress> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run drives the three things this system exists to produce or
//! serve, through their production entry points only:
//!
//! 1. **train** — each of the ten suite benchmarks trained to its
//!    quality target (`benchmarks::build` + `harness::run_benchmark`),
//!    one run at a time: time-to-train per benchmark (§3.2), and its
//!    geometric mean over the suite as the end-to-end row;
//! 2. **reingest** — `RoundArchive::replay` of an archived round with a
//!    warm page cache, in slices between the training jobs: `:::MLLOG`
//!    files re-ingested per second;
//! 3. **live round** — in traced runs, an in-process `HttpServer` fed
//!    seeded Poisson open-loop submits and leaderboard reads from at
//!    most two sender threads, then a two-connection closed loop, then
//!    `close_round`.
//!
//! The two workloads differ in their inputs (see `Workload`). Every
//! part checks its outputs; a failed check sets `"correct": false` and
//! the exit code to 1. With `--trace 0` the result line carries the
//! end-to-end metrics; with `--trace 1` a separate traced run times the
//! calls into each layer with `mlperf_telemetry` spans, reports the
//! per-layer metrics, and writes the spans as a Chrome trace under
//! `.bench_trace/` at exit.

mod live;
mod reingest;
mod stats;
mod train;

use mlperf_telemetry::{write_trace, Telemetry, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-up passes per run, spread evenly over the training jobs;
/// `setup_s` is their median. A pass does the untimed work of every
/// part once: each benchmark's data preparation and model creation, and
/// the generation of the archive's rounds.
const SETUPS: usize = 15;

/// The input set a run uses. Both workloads run every part, so every
/// run reports every metric; they differ in what the parts are fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The three fleet rounds with injected review faults and a storage
    /// fault; live traffic with rule-breaking bundles; training seed
    /// panel 0.
    Fleet,
    /// One 500-bundle stress round with a storage fault; clean live
    /// traffic; training seed panel 1.
    Stress,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet" => Some(Workload::Fleet),
            "stress" => Some(Workload::Stress),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Stress => "stress",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What a run found: operation counts, failed checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.check(false, || format!("metric {name} is not a finite number: {value}"));
            return;
        }
        self.metrics.insert(name, (value, unit));
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let problem = what();
            eprintln!("CHECK FAILED: {problem}");
            self.problems.push(problem);
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn to_json(&self) -> String {
        let metrics: serde_json::Map = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                (name.clone(), serde_json::json!({ "value": value, "unit": unit }))
            })
            .collect();
        serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
        .to_string()
    }
}

/// A fresh scratch directory for one run, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_run").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind once the last run is done.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// Span durations of one `(layer, name)` pair, in microseconds.
pub fn span_us(snapshot: &TelemetrySnapshot, layer: &str, name: &str) -> Vec<f64> {
    snapshot
        .spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.duration_us() as f64)
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet|stress> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(&args) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let telemetry = if args.trace { Telemetry::recording() } else { Telemetry::disabled() };
    let pool_before = mlperf_pool::pool_stats();
    let mut report = Report::default();

    // The archive is written first; its replays and the set-up passes
    // then run between the training jobs, so every part samples the
    // host's speed over the whole run, not one stretch of it. The live
    // round runs in traced runs only (see `live`).
    let jobs = train::jobs(&args).len();
    let setup_at: Vec<usize> = (0..SETUPS).map(|k| k * jobs / SETUPS).collect();
    let mut setup_s = Vec::new();
    let mut done = 0;
    let mut replayer = reingest::prepare(&args, &work, &mut report)
        .and_then(|archive| reingest::Replayer::start(&args, archive, jobs, &mut report));
    train::run(&args, &telemetry, &mut report, &mut |report| {
        if let Some(replayer) = replayer.as_mut() {
            replayer.slice(&args, &telemetry, report);
        }
        // Only untraced runs report set-up time.
        if !args.trace && setup_at.contains(&done) {
            setup_s.push(train::setup_s() + reingest::setup_s(&args));
        }
        done += 1;
    });
    if let Some(replayer) = replayer {
        replayer.finish(&args, &telemetry, &mut report);
    }
    if args.trace {
        if let Some(service) = live::prepare(&args, &work, &mut report) {
            live::measure(&args, &telemetry, &work, service, &mut report);
        }
    }

    if args.trace {
        let pool = mlperf_pool::pool_stats();
        report.metric(
            "pool.items",
            (pool.items_completed - pool_before.items_completed) as f64,
            "count",
        );
        report.metric("pool.fanouts", (pool.fanouts - pool_before.fanouts) as f64, "count");
        let path = Path::new(".bench_trace").join(format!(
            "{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(".bench_trace")
            .map_err(|e| e.to_string())
            .and_then(|()| write_trace(&telemetry.snapshot(), &path).map_err(|e| e.to_string()));
        report.check(written.is_ok(), || format!("trace not written: {written:?}"));
        eprintln!("trace: {}", path.display());
    } else {
        report.metric("setup_s", stats::median(&setup_s), "s");
    }
    drop(work);

    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
