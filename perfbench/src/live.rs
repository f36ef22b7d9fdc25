//! Part 3: a live round over HTTP.
//!
//! An in-process `HttpServer` over a fresh archive receives seeded
//! Poisson open-loop traffic — bundle submits and leaderboard reads,
//! each stream at a fixed rate — from two sender threads. Each request
//! is timed from when it was due, so a stall also counts against the
//! requests queued behind it, and the generator's own lateness and
//! backlog are kept beside the latencies. A closed loop over two
//! connections follows, then `close_round`, whose outcome must equal
//! batch `run_round` of the same bundles in receipt-index order.
//!
//! The part runs in traced runs only and reports per-layer metrics:
//! its latencies follow the state of the host's disk more than the
//! code (see `METRICS.md`), so they cannot hold an end-to-end bound.

use crate::stats::{mean, quantile, SplitMix};
use crate::{span_us, Args, Report, WorkDir, Workload};
use mlperf_distsim::Round;
use mlperf_service::{http_get, http_post, HttpServer, ServerHandle, ServiceCore};
use mlperf_submission::{
    round_references, run_round, synthetic_stress_round, RoundArchive, RoundSubmissions,
    SubmissionBundle,
};
use mlperf_telemetry::{arg, Telemetry, TelemetrySnapshot};
use serde_json::json;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of the open loop, as a share of `--seconds`.
const OPEN_SHARE: f64 = 1.0;
/// Length of the closed loop, as a share of `--seconds`.
const CLOSED_SHARE: f64 = 0.4;
/// Open-loop bundle submits per second (Poisson).
const SUBMIT_RATE: f64 = 50.0;
/// Open-loop leaderboard reads per second (Poisson).
const BOARD_RATE: f64 = 50.0;
/// Sender threads, and connections in flight, in both loops.
const SENDERS: usize = 2;
/// In `fleet`, every this-many-th bundle breaks a Closed-division rule.
const QUARANTINE_EVERY: usize = 8;
/// Bundles prepared beyond the open loop's, for the closed loop; it
/// wraps around to the start when it uses them all.
const CLOSED_BUNDLES: usize = 1200;
/// The latency recorded for a failed request: it misses any limit.
const FAILED_MS: f64 = 30_000.0;
/// Bundles the serial in-process layer probes submit.
const PROBE_BUNDLES: usize = 300;
const ROUND: Round = Round::V06;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit the prepared body with this index.
    Submit(usize),
    Board,
}

/// One open-loop request as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    op: Op,
    ok: bool,
    latency_ms: f64,
    late_ms: f64,
    /// The receipt's submission index, for a successful submit.
    receipt: Option<u64>,
}

/// The generated traffic: serialized bodies and the open-loop schedule.
struct Traffic {
    bundles: Vec<SubmissionBundle>,
    bodies: Vec<String>,
    /// `(seconds after start, op)`, ascending.
    schedule: Vec<(f64, Op)>,
}

fn traffic(workload: Workload, seed: u64, open_s: f64) -> Traffic {
    let mut rng = SplitMix::new(seed ^ 0x6c69_7665);
    let mut schedule = Vec::new();
    for (rate, board) in [(SUBMIT_RATE, false), (BOARD_RATE, true)] {
        let mut at = rng.exponential(rate);
        while at < open_s {
            schedule.push((at, board));
            at += rng.exponential(rate);
        }
    }
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0));
    let submits = schedule.iter().filter(|(_, board)| !board).count();
    let total = submits + CLOSED_BUNDLES;
    let mut bundles = synthetic_stress_round(ROUND, total, seed).bundles;
    if workload == Workload::Fleet {
        // A Closed-division bundle that changed a restricted
        // hyperparameter: review quarantines it.
        for (k, bundle) in bundles.iter_mut().enumerate() {
            if breaks_rules(workload, k) {
                bundle.run_sets[0].hyperparameters.insert("momentum".into(), 0.5);
            }
        }
    }
    let bodies =
        bundles.iter().map(|b| serde_json::to_string(b).expect("bundles serialize")).collect();
    let mut next = 0;
    let schedule = schedule
        .into_iter()
        .map(|(at, board)| {
            if board {
                (at, Op::Board)
            } else {
                next += 1;
                (at, Op::Submit(next - 1))
            }
        })
        .collect();
    Traffic { bundles, bodies, schedule }
}

fn breaks_rules(workload: Workload, k: usize) -> bool {
    workload == Workload::Fleet && k % QUARANTINE_EVERY == QUARANTINE_EVERY - 1
}

fn start_server(dir: &Path) -> Result<(Arc<ServiceCore>, ServerHandle), String> {
    let archive = RoundArchive::create(dir).map_err(|e| e.to_string())?;
    // Recording, as `round_pipeline serve` runs it: `/metrics` reports
    // the service counters.
    let core = Arc::new(ServiceCore::new(archive, Telemetry::recording()));
    core.open_round(ROUND, round_references(ROUND)).map_err(|e| e.to_string())?;
    let server = HttpServer::bind(Arc::clone(&core), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let handle = server.serve_background().map_err(|e| e.to_string())?;
    Ok((core, handle))
}

fn receipt_index(body: &str) -> Option<u64> {
    serde_json::from_str::<serde_json::Value>(body).ok()?["index"].as_u64()
}

/// Sends one request: `None` when it failed (a connection error or a
/// status other than 200), else the receipt index of a submit.
fn send(addr: &str, traffic: &Traffic, op: Op) -> Option<Option<u64>> {
    match op {
        Op::Submit(k) => {
            let path = format!("/rounds/{ROUND}/bundles");
            let reply = http_post(addr, &path, Some(&traffic.bodies[k])).ok()?;
            (reply.status == 200).then(|| receipt_index(&reply.body))?.map(Some)
        }
        Op::Board => {
            let reply = http_get(addr, &format!("/rounds/{ROUND}/leaderboard")).ok()?;
            (reply.status == 200).then_some(None)
        }
    }
}

/// The open loop: senders claim scheduled requests in order, wait for
/// each one's due time, and time it from then.
fn open_loop(addr: &str, traffic: &Traffic, telemetry: &Telemetry) -> (Vec<Sample>, usize) {
    let next = AtomicUsize::new(0);
    let backlog_max = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let samples = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut spans = telemetry.timeline_scope();
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&(at, op)) = traffic.schedule.get(i) else { break };
                        let due = start + Duration::from_secs_f64(at);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let elapsed = sent.duration_since(start).as_secs_f64();
                        let due_by = traffic.schedule.partition_point(|(t, _)| *t <= elapsed);
                        backlog_max.fetch_max(due_by.saturating_sub(i), Ordering::SeqCst);
                        let name = match op {
                            Op::Submit(_) => "submit",
                            Op::Board => "board",
                        };
                        let span = spans.start("http", name);
                        let outcome = send(addr, traffic, op);
                        spans.end(span);
                        let done = Instant::now();
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        samples.push(Sample {
                            op,
                            ok: outcome.is_some(),
                            latency_ms: match outcome {
                                Some(_) => ms(done.duration_since(due)),
                                None => FAILED_MS,
                            },
                            late_ms: ms(sent.duration_since(due)),
                            receipt: outcome.flatten(),
                        });
                    }
                    samples
                })
            })
            .collect();
        senders.into_iter().flat_map(|s| s.join().expect("sender thread")).collect()
    });
    (samples, backlog_max.load(Ordering::SeqCst))
}

/// The closed loop: each connection submits its next bundle as soon as
/// the previous reply arrives. Returns `(body, receipt)` pairs, the
/// failure count and the elapsed time.
fn closed_loop(
    addr: &str,
    traffic: &Traffic,
    first: usize,
    seconds: f64,
) -> (Vec<(usize, u64)>, u64, f64) {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<(usize, u64)>, u64)> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|_| {
                scope.spawn(|| {
                    let (mut accepted, mut failed) = (Vec::new(), 0);
                    while Instant::now() < deadline {
                        let k = next.fetch_add(1, Ordering::SeqCst) % traffic.bodies.len();
                        match send(addr, traffic, Op::Submit(k)) {
                            Some(Some(index)) => accepted.push((k, index)),
                            _ => failed += 1,
                        }
                    }
                    (accepted, failed)
                })
            })
            .collect();
        senders.into_iter().map(|s| s.join().expect("closed-loop sender")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let failed = results.iter().map(|(_, f)| f).sum();
    (results.into_iter().flat_map(|(a, _)| a).collect(), failed, elapsed)
}

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> u64 {
    snapshot.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

/// The traffic and a running server with the round open.
pub struct Prepared {
    traffic: Traffic,
    core: Arc<ServiceCore>,
    handle: ServerHandle,
}

/// Generates and serializes the traffic and starts the server.
pub fn prepare(args: &Args, work: &WorkDir, report: &mut Report) -> Option<Prepared> {
    let traffic = traffic(args.workload, args.seed, args.seconds * OPEN_SHARE);
    match start_server(&work.path("live")) {
        Ok((core, handle)) => Some(Prepared { traffic, core, handle }),
        Err(e) => {
            report.check(false, || format!("live: server did not start: {e}"));
            None
        }
    }
}

/// Drives the open loop, the closed loop and the close, and checks the
/// published outcome.
pub fn measure(
    args: &Args,
    telemetry: &Telemetry,
    work: &WorkDir,
    prepared: Prepared,
    report: &mut Report,
) {
    let Prepared { traffic, core, handle } = prepared;
    let addr = handle.addr().to_string();

    let (samples, backlog_max) = open_loop(&addr, &traffic, telemetry);
    let latencies = |board: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| matches!(s.op, Op::Board) == board)
            .map(|s| s.latency_ms)
            .collect()
    };
    let (submit_ms, board_ms) = (latencies(false), latencies(true));
    let late_ms: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    let open_failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let mut received: Vec<(u64, usize)> = samples
        .iter()
        .filter_map(|s| match (s.op, s.receipt) {
            (Op::Submit(k), Some(index)) => Some((index, k)),
            _ => None,
        })
        .collect();

    let first_closed =
        traffic.schedule.iter().filter(|(_, op)| matches!(op, Op::Submit(_))).count();
    let (closed, closed_failed, closed_s) =
        closed_loop(&addr, &traffic, first_closed, args.seconds * CLOSED_SHARE);
    received.extend(closed.iter().map(|&(k, index)| (index, k)));
    report.attempted += (samples.len() + closed.len()) as u64 + closed_failed;
    report.failed += open_failed + closed_failed;
    report.check(open_failed + closed_failed == 0, || {
        format!("live: {open_failed} open-loop and {closed_failed} closed-loop requests failed")
    });

    let metrics = http_get(&addr, "/metrics").map(|r| r.body).unwrap_or_default();
    let submitted = format!("service_bundles_submitted_total {}", received.len());
    report.check(metrics.lines().any(|l| l == submitted), || {
        format!("live: /metrics does not report `{submitted}`")
    });
    let live_counters = core.telemetry().snapshot();
    handle.shutdown();

    // Batch ingest of the same bundles in receipt-index order must
    // publish the identical outcome.
    received.sort_unstable();
    let indices_dense = received.iter().enumerate().all(|(i, &(index, _))| index == i as u64);
    report.check(indices_dense, || "live: receipt indices are not 0..n".into());
    match core.close_round(ROUND) {
        Ok(outcome) => {
            let batch = RoundSubmissions {
                round: ROUND,
                references: round_references(ROUND),
                bundles: received.iter().map(|&(_, k)| traffic.bundles[k].clone()).collect(),
            };
            report.check(outcome == run_round(&batch), || {
                "live: closed round differs from batch run_round of the same bundles".into()
            });
            let injected =
                received.iter().filter(|&&(_, k)| breaks_rules(args.workload, k)).count();
            report.check(outcome.quarantined.len() == injected, || {
                format!(
                    "live: {} bundles quarantined, {injected} injected",
                    outcome.quarantined.len()
                )
            });
        }
        Err(e) => report.check(false, || format!("live: close_round failed: {e}")),
    }

    let sustained = closed.len() as f64 / closed_s;
    eprintln!(
        "live[{}]: {} submits p50 {:.2} ms p99 {:.2} ms, {} reads p99 {:.2} ms, generator late p99 \
         {:.2} ms, backlog max {backlog_max}; closed loop {sustained:.1} bundles/s",
        args.workload.name(),
        submit_ms.len(),
        quantile(&submit_ms, 0.5),
        quantile(&submit_ms, 0.99),
        board_ms.len(),
        quantile(&board_ms, 0.99),
        quantile(&late_ms, 0.99),
    );
    report.metric("live.submit_p50_ms", quantile(&submit_ms, 0.5), "ms");
    report.metric("live.submit_p99_ms", quantile(&submit_ms, 0.99), "ms");
    report.metric("live.board_p99_ms", quantile(&board_ms, 0.99), "ms");
    report.metric("live.sustained_bundles_per_s", sustained, "1/s");
    report.metric("live.late_ms.p99", quantile(&late_ms, 0.99), "ms");
    report.metric("live.backlog_max", backlog_max as f64, "count");
    report.metric("live.connections", SENDERS as f64, "count");
    let hits = counter(&live_counters, "service.leaderboard_cache_hits");
    let reads = hits + counter(&live_counters, "service.leaderboard_cache_misses");
    report.metric("state.board_reads", reads as f64, "count");
    report.metric("state.board_cache_hit_ratio", hits as f64 / reads.max(1) as f64, "ratio");
    layer_probes(&traffic, work, telemetry, report);
}

/// Serial, in-process costs of one submit's layers: body decode,
/// `ServiceCore::submit_bundle`, cached and re-rendered leaderboard
/// reads, and the store's `write_bundle`.
fn layer_probes(traffic: &Traffic, work: &WorkDir, telemetry: &Telemetry, report: &mut Report) {
    let probe = || -> Result<(), String> {
        let core = ServiceCore::new(
            RoundArchive::create(work.path("probe-core")).map_err(|e| e.to_string())?,
            Telemetry::recording(),
        );
        core.open_round(ROUND, round_references(ROUND)).map_err(|e| e.to_string())?;
        let writer = RoundArchive::create(work.path("probe-store"))
            .and_then(|a| a.open_round(ROUND, round_references(ROUND)))
            .map_err(|e| e.to_string())?;
        let misses = core.telemetry().counter("service.leaderboard_cache_misses");
        let mut scope = telemetry.timeline_scope();
        for (k, body) in traffic.bodies.iter().take(PROBE_BUNDLES).enumerate() {
            let bundle = scope
                .record("http", "decode", || serde_json::from_str::<SubmissionBundle>(body))
                .map_err(|e| e.to_string())?;
            scope
                .record("state", "submit", || core.submit_bundle(ROUND, &bundle))
                .map_err(|e| e.to_string())?;
            let before = misses.value();
            let span = scope.start("state", "leaderboard");
            core.leaderboard(ROUND).map_err(|e| e.to_string())?;
            let kind = if misses.value() > before { "miss" } else { "hit" };
            scope.end_with(span, || serde_json::Map::from([arg("cache", json!(kind))]));
            scope
                .record("state", "leaderboard_hit", || core.leaderboard(ROUND))
                .map_err(|e| e.to_string())?;
            scope
                .record("store", "write_bundle", || writer.write_bundle(k as u64, &bundle))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    if let Err(e) = probe() {
        report.check(false, || format!("live: layer probe failed: {e}"));
        return;
    }
    let snapshot = telemetry.snapshot();
    let us = |layer: &str, name: &str| span_us(&snapshot, layer, name);
    let misses: Vec<f64> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "leaderboard" && s.args.get("cache").is_some_and(|v| v == "miss"))
        .map(|s| s.duration_us() as f64)
        .collect();
    let decode = us("http", "decode");
    let submit = us("state", "submit");
    let write = us("store", "write_bundle");
    report.metric("http.decode_us", mean(&decode), "us");
    report.metric("state.submit_us.p50", quantile(&submit, 0.5), "us");
    report.metric("state.submit_us.p99", quantile(&submit, 0.99), "us");
    report.metric("store.write_bundle_us.p50", quantile(&write, 0.5), "us");
    report.metric("store.write_bundle_us.p99", quantile(&write, 0.99), "us");
    report.metric("state.leaderboard_us.hit", mean(&us("state", "leaderboard_hit")), "us");
    if !misses.is_empty() {
        report.metric("state.leaderboard_us.miss", mean(&misses), "us");
    }
    // The HTTP round trip's p50 less the p50s of the parts measured
    // in-process: connection, thread spawn and, under load, lock wait.
    let http_ms = quantile(&us("http", "submit"), 0.5) / 1e3;
    let other = http_ms - (quantile(&decode, 0.5) + quantile(&submit, 0.5)) / 1e3;
    report.metric("http.other_ms", other, "ms");
}
