//! Part 2: `RoundArchive::replay` of an archive with a warm page cache.
//!
//! `fleet` archives the three synthetic fleet rounds v0.5–v0.7 with
//! the review faults `round_pipeline` injects, plus one truncated log
//! (a storage fault). `stress` archives one 500-bundle stress round,
//! also with one truncated log. Replay runs no tensor code and writes
//! nothing.

use crate::stats::median;
use crate::{span_us, Args, Report, WorkDir, Workload};
use mlperf_core::mllog::MlLogger;
use mlperf_distsim::Round;
use mlperf_submission::manifest::BundleManifest;
use mlperf_submission::{
    review_bundle, run_round, synthetic_round, synthetic_stress_round, Fault, RoundArchive,
    RoundOutcome, RoundSubmissions, SubmissionBundle, SyntheticRoundSpec,
};
use mlperf_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bundles in the stress round.
const STRESS_BUNDLES: usize = 500;

/// The generated rounds, with every fault already applied in memory,
/// and the numbers of injected faults the replay must report.
struct Generated {
    rounds: Vec<RoundSubmissions>,
    storage_faults: usize,
    quarantined_bundles: usize,
}

fn generate(workload: Workload, seed: u64) -> Generated {
    match workload {
        Workload::Fleet => {
            let mut rounds: Vec<RoundSubmissions> = Round::ALL
                .into_iter()
                .enumerate()
                .map(|(i, round)| synthetic_round(&fleet_spec(round, seed + i as u64)))
                .collect();
            // The storage fault lands in a bundle no review fault touches.
            let victim = rounds[0]
                .bundles
                .iter_mut()
                .find(|b| b.org == "Aurora")
                .expect("the fleet has an Aurora bundle");
            truncate_first_log(victim);
            // The garbage line is malformed text as well as a review
            // fault, so the store flags both damaged logs.
            Generated { rounds, storage_faults: 2, quarantined_bundles: 5 }
        }
        Workload::Stress => {
            let mut round = synthetic_stress_round(Round::V07, STRESS_BUNDLES, seed);
            truncate_first_log(&mut round.bundles[0]);
            Generated { rounds: vec![round], storage_faults: 1, quarantined_bundles: 1 }
        }
    }
}

/// The storage fault: a log whose last line was cut short, as by a
/// writer that crashed. The store flags it and review quarantines it.
fn truncate_first_log(bundle: &mut SubmissionBundle) {
    let log = &mut bundle.run_sets[0].logs[0];
    log.truncate(log.len() - 7);
}

/// The review faults `round_pipeline write` injects: one or two
/// saboteurs per round.
fn fleet_spec(round: Round, seed: u64) -> SyntheticRoundSpec {
    let spec = SyntheticRoundSpec::new(round, seed);
    match round {
        Round::V05 => spec.with_fault(Fault::MissingRunStop { org: "Borealis".into() }),
        Round::V06 => spec.with_fault(Fault::GarbageLine { org: "Cumulus".into() }).with_fault(
            Fault::IllegalHyperparameter { org: "Aurora".into(), name: "momentum".into() },
        ),
        Round::V07 => spec.with_fault(Fault::WrongQualityTarget { org: "Borealis".into() }),
    }
}

fn build_archive(dir: &Path, generated: &Generated) -> Result<RoundArchive, String> {
    let archive = RoundArchive::create(dir).map_err(|e| e.to_string())?;
    for round in &generated.rounds {
        archive.write_round(round).map_err(|e| e.to_string())?;
    }
    Ok(archive)
}

fn files_named(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            files_named(&path, keep, out);
        } else if keep(&path) {
            out.push(path);
        }
    }
}

/// A written archive and what its replay must reproduce.
pub struct Prepared {
    dir: PathBuf,
    /// Time to write the archive, in seconds.
    write_s: f64,
    archive: RoundArchive,
    generated: Generated,
    expected: Vec<RoundOutcome>,
    logs: usize,
}

/// Seconds to generate the rounds once: the part's set-up.
///
/// The archive write is not set-up time; it is reported per layer: on
/// a virtual disk it follows the host's I/O load, not the code
/// (0.3–2.1 s for the same 4.9 MB archive across runs on a 2-vCPU VM),
/// so no set-up bound could hold it.
pub fn setup_s(args: &Args) -> f64 {
    let start = Instant::now();
    std::hint::black_box(generate(args.workload, args.seed));
    start.elapsed().as_secs_f64()
}

/// Generates the rounds and writes them to a fresh archive.
pub fn prepare(args: &Args, work: &WorkDir, report: &mut Report) -> Option<Prepared> {
    let generated = generate(args.workload, args.seed);
    let dir = work.path("archive");
    let start = Instant::now();
    let archive = build_archive(&dir, &generated);
    let write_s = start.elapsed().as_secs_f64();
    let archive = match archive {
        Ok(archive) => archive,
        Err(e) => {
            report.check(false, || format!("reingest: archive not written: {e}"));
            return None;
        }
    };
    let expected = generated.rounds.iter().map(run_round).collect();
    let logs = generated
        .rounds
        .iter()
        .flat_map(|r| &r.bundles)
        .flat_map(|b| &b.run_sets)
        .map(|rs| rs.logs.len())
        .sum();
    Some(Prepared { dir, write_s, archive, generated, expected, logs })
}

/// Replays of the archive, spread over the run in slices.
///
/// The first replay warms the page cache and is checked in full; then
/// every slice replays for its share of `--seconds`, at least once.
/// Taken in slices between training jobs, the replays sample the
/// host's speed over the whole run, as the training times do, instead
/// of over one stretch of a few seconds.
pub struct Replayer {
    prepared: Prepared,
    rounds: Vec<Round>,
    slice: Duration,
    replay_s: Vec<f64>,
    traced_s: Vec<f64>,
    broken: bool,
}

impl Replayer {
    /// Checks the first replay; `None` if it failed. The remaining
    /// replays run in `slices` slices.
    pub fn start(
        args: &Args,
        prepared: Prepared,
        slices: usize,
        report: &mut Report,
    ) -> Option<Replayer> {
        let Prepared { archive, generated, expected, .. } = &prepared;
        report.attempted += 1;
        match archive.replay() {
            Ok(replay) => {
                report.check(replay.history.outcomes() == expected.as_slice(), || {
                    "reingest: replayed outcome differs from run_round of the generated rounds"
                        .into()
                });
                report.check(replay.faults.len() == generated.storage_faults, || {
                    format!(
                        "reingest: {} storage faults, {} injected: {:?}",
                        replay.faults.len(),
                        generated.storage_faults,
                        replay.faults
                    )
                });
                let quarantined: usize =
                    replay.history.outcomes().iter().map(|o| o.quarantined.len()).sum();
                report.check(quarantined == generated.quarantined_bundles, || {
                    format!(
                        "reingest: {quarantined} bundles quarantined, {} injected",
                        generated.quarantined_bundles
                    )
                });
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("reingest: replay failed: {e}"));
                return None;
            }
        }
        let rounds = archive.rounds().unwrap_or_default();
        let slice = Duration::from_secs_f64(args.seconds / slices.max(1) as f64);
        Some(Replayer {
            prepared,
            rounds,
            slice,
            replay_s: Vec::new(),
            traced_s: Vec::new(),
            broken: false,
        })
    }

    /// Replays for one slice of the budget, and at least once.
    pub fn slice(&mut self, args: &Args, telemetry: &Telemetry, report: &mut Report) {
        let start = Instant::now();
        loop {
            self.replay_once(args, telemetry, report);
            if self.broken || start.elapsed() >= self.slice {
                break;
            }
        }
    }

    fn replay_once(&mut self, args: &Args, telemetry: &Telemetry, report: &mut Report) {
        let Prepared { archive, expected, .. } = &self.prepared;
        report.attempted += 1;
        let t = Instant::now();
        let replay = archive.replay();
        self.replay_s.push(t.elapsed().as_secs_f64());
        let ok = replay.as_ref().is_ok_and(|r| r.history.outcomes().len() == expected.len());
        if !ok {
            report.failed += 1;
            report.check(false, || "reingest: a repeated replay lost rounds".into());
            self.broken = true;
            return;
        }
        if args.trace {
            // replay()'s composition, from outside: read, then review,
            // round by round.
            let t = Instant::now();
            let mut scope = telemetry.timeline_scope();
            for &round in &self.rounds {
                let ingest = scope.record("store", "read_round", || archive.read_round(round));
                match ingest {
                    Ok(ingest) => {
                        scope.record("round", "run_round", || run_round(&ingest.submissions));
                    }
                    Err(e) => report.check(false, || format!("reingest: read_round: {e}")),
                }
            }
            self.traced_s.push(t.elapsed().as_secs_f64());
        }
    }

    /// Tops the replays up to at least three and reports the metrics.
    pub fn finish(mut self, args: &Args, telemetry: &Telemetry, report: &mut Report) {
        while !self.broken && self.replay_s.len() < 3 {
            self.replay_once(args, telemetry, report);
        }
        if self.broken {
            return;
        }
        let Replayer { prepared, rounds, replay_s, traced_s, .. } = self;
        let Prepared { dir, write_s, generated, logs, .. } = prepared;
        let replay_median = median(&replay_s);
        eprintln!(
            "reingest[{}]: {logs} logs, {} replays, median {:.1} ms",
            args.workload.name(),
            replay_s.len(),
            replay_median * 1e3
        );

        if !args.trace {
            report.metric("reingest_logs_per_s", logs as f64 / replay_median, "1/s");
            return;
        }
        let overhead = median(&traced_s) / replay_median - 1.0;
        report.metric("trace.overhead_pct.reingest", overhead * 100.0, "%");
        layer_probes(&dir, &generated, telemetry, report);
        let snapshot = telemetry.snapshot();
        let per_pass_ms = |layer: &str, name: &str| {
            let spans = span_us(&snapshot, layer, name);
            let passes: Vec<f64> =
                spans.chunks(rounds.len().max(1)).map(|c| c.iter().sum::<f64>() / 1e3).collect();
            median(&passes)
        };
        report.metric("store.write_round_ms", write_s * 1e3, "ms");
        report.metric("store.read_round_ms", per_pass_ms("store", "read_round"), "ms");
        report.metric("round.run_round_ms", per_pass_ms("round", "run_round"), "ms");
        let bundles: usize = generated.rounds.iter().map(|r| r.bundles.len()).sum();
        let mut files = Vec::new();
        files_named(&dir, &|_| true, &mut files);
        let bytes: u64 = files.iter().filter_map(|p| p.metadata().ok()).map(|m| m.len()).sum();
        report.metric("reingest.bundles", bundles as f64, "count");
        report.metric("reingest.logs", logs as f64, "count");
        report.metric("reingest.bytes", bytes as f64, "B");
        report.metric("reingest.faults", generated.storage_faults as f64, "count");
        report.metric("reingest.quarantined", generated.quarantined_bundles as f64, "count");
    }
}

/// Mean microseconds per item of `f` over `items`, timed in passes of
/// one span each until at least `MIN_PROBE` has elapsed.
fn per_item_us<T>(
    telemetry: &Telemetry,
    layer: &'static str,
    name: &str,
    items: &[T],
    mut f: impl FnMut(&T),
) -> f64 {
    const MIN_PROBE: Duration = Duration::from_millis(300);
    let mut scope = telemetry.timeline_scope();
    let start = Instant::now();
    let mut passes = 0;
    while start.elapsed() < MIN_PROBE || passes == 0 {
        scope.record(layer, name, || items.iter().for_each(&mut f));
        passes += 1;
    }
    drop(scope);
    let total: f64 = span_us(&telemetry.snapshot(), layer, name).iter().sum();
    total / (passes * items.len().max(1)) as f64
}

/// Per-call costs of the read path's layers, over the archive's own
/// manifests and logs and the generated bundles.
fn layer_probes(dir: &Path, generated: &Generated, telemetry: &Telemetry, report: &mut Report) {
    let read_all = |keep: &dyn Fn(&Path) -> bool| {
        let mut paths = Vec::new();
        files_named(dir, keep, &mut paths);
        paths.iter().filter_map(|p| std::fs::read_to_string(p).ok()).collect::<Vec<String>>()
    };
    let manifests = read_all(&|p| p.file_name().is_some_and(|n| n == "bundle.json"));
    let logs = read_all(&|p| p.extension().is_some_and(|e| e == "log"));
    let reviews: Vec<_> = generated
        .rounds
        .iter()
        .flat_map(|r| r.bundles.iter().map(move |b| (b, r.references.as_slice())))
        .collect();

    let unparsed = manifests.iter().filter(|t| BundleManifest::parse(t).is_err()).count();
    let parse_us = per_item_us(telemetry, "manifest", "parse", &manifests, |text| {
        std::hint::black_box(BundleManifest::parse(text).is_ok());
    });
    report.check(unparsed == 0, || format!("reingest: {unparsed} bundle manifests do not parse"));
    report.metric("manifest.parse_us", parse_us, "us");
    let damaged = logs.iter().filter(|t| MlLogger::validate(t).is_err()).count();
    let validate_us = per_item_us(telemetry, "mllog", "validate", &logs, |text| {
        std::hint::black_box(MlLogger::validate(text).is_ok());
    });
    report.check(damaged == generated.storage_faults, || {
        format!("reingest: {damaged} logs fail validation, {} injected", generated.storage_faults)
    });
    report.metric("mllog.validate_us", validate_us, "us");
    report.metric(
        "mllog.parse_us",
        per_item_us(telemetry, "mllog", "parse", &logs, |text| {
            std::hint::black_box(MlLogger::parse(text).is_ok());
        }),
        "us",
    );
    report.metric(
        "review.bundle_us",
        per_item_us(telemetry, "review", "bundle", &reviews, |(bundle, references)| {
            std::hint::black_box(review_bundle(bundle, references).is_clean());
        }),
        "us",
    );
}
