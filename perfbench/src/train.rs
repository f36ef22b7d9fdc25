//! Part 1: the ten suite benchmarks trained to their quality targets,
//! one run at a time, through `benchmarks::build` and the unchanged
//! `harness::run_benchmark`.
//!
//! Run seeds come from a fixed panel per benchmark, not from the
//! workload seed: epochs-to-target varies with the run seed (MiniGo
//! 20–28 epochs, BERT 7–19, DLRM 4–14 over seeds 0–7 on this suite), so
//! a time-to-train drawn at a fresh seed per run would spread by more
//! than any regression bound. With the panel fixed, a run's TTT moves
//! only when the code gets slower or converges differently. The
//! workload seed orders the runs.
//!
//! A panel run that misses its target is a valid outcome of the
//! harness (its log ends `aborted`), not a failed operation: it stays
//! out of the TTT mean and is counted in `harness.missed_runs`.
//!
//! The end-to-end row is the geometric mean over the ten benchmarks of
//! their mean TTT, so each benchmark weighs the same whatever its
//! length; the per-benchmark rows are per-layer metrics. On a shared
//! two-vCPU host a single row's TTT spreads by up to a third from run
//! to run, more than any bound allows; the mean over ten rows keeps
//! only the part common to the whole run.

use crate::stats::{mean, SplitMix};
use crate::{span_us, Args, Report, Workload};
use mlperf_core::benchmarks::build;
use mlperf_core::compliance::check_log;
use mlperf_core::harness::{run_benchmark, Benchmark, RunResult};
use mlperf_core::suite::BenchmarkId;
use mlperf_core::timing::RealClock;
use mlperf_data::{
    epoch_batches, reference_games, Compose, ImageNetConfig, MaskedLmConfig, MaskedSentence,
    PackedImages, SyntheticImageNet, SyntheticMaskedLm, SyntheticTranslation, TranslationConfig,
    TranslationPair,
};
use mlperf_models::{BertConfig, BertMini, GnmtConfig, GnmtMini, ResNetConfig, ResNetMini};
use mlperf_nn::Module;
use mlperf_optim::{clip_grad_norm, Adam, LrSchedule, MultiStepDecay, Optimizer, SgdTorch};
use mlperf_telemetry::{SpanScope, Telemetry, TelemetrySnapshot};
use mlperf_tensor::TensorRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Each benchmark's panel: how many run seeds, and how often each
/// run is repeated. Sub-second rows run many seeds; rows of one to two
/// seconds repeat their run so the mean spans more than one stretch of
/// the host's speed; longer rows run once, to keep a run under a
/// minute.
const PANELS: [(BenchmarkId, u64, usize); 10] = [
    (BenchmarkId::ImageClassification, 1, 1),
    (BenchmarkId::ObjectDetection, 1, 3),
    (BenchmarkId::InstanceSegmentation, 1, 3),
    (BenchmarkId::TranslationRecurrent, 1, 2),
    (BenchmarkId::TranslationNonRecurrent, 1, 1),
    (BenchmarkId::Recommendation, 32, 1),
    (BenchmarkId::ReinforcementLearning, 1, 1),
    (BenchmarkId::LanguageModeling, 1, 2),
    (BenchmarkId::RecommendationDlrm, 32, 1),
    (BenchmarkId::SpeechRecognition, 8, 1),
];

/// The training runs of one part, `(benchmark, run seed)`: each panel's
/// first seeds for `fleet`, its next seeds for `stress`, in an order
/// the workload seed shuffles, so repeats and the many short runs
/// spread over the whole part.
pub fn jobs(args: &Args) -> Vec<(BenchmarkId, u64)> {
    let index = match args.workload {
        Workload::Fleet => 0,
        Workload::Stress => 1,
    };
    let mut jobs = Vec::new();
    for (id, seeds, repeats) in PANELS {
        // Repeats only steady the end-to-end timings; a traced run
        // trains each panel seed once, untraced and traced.
        let repeats = if args.trace { 1 } else { repeats };
        for seed in index * seeds..(index + 1) * seeds {
            jobs.extend(std::iter::repeat_n((id, seed), repeats));
        }
    }
    SplitMix::new(args.seed ^ 0x7472_6169_6e00).shuffle(&mut jobs);
    jobs
}

/// What one benchmark's runs gave.
#[derive(Default)]
struct Runs {
    ttt: Vec<f64>,
    missed: Vec<f64>,
}

/// A `Benchmark` decorator that records one span per lifecycle call,
/// so the traced run times the layers without touching the harness.
struct Timed<'t> {
    inner: Box<dyn Benchmark>,
    scope: SpanScope<'t>,
    slug: &'static str,
}

impl Timed<'_> {
    fn span<R>(
        &mut self,
        layer: &'static str,
        stage: &str,
        f: impl FnOnce(&mut dyn Benchmark) -> R,
    ) -> R {
        let handle = self.scope.start(layer, &format!("{stage}.{}", self.slug));
        let out = f(self.inner.as_mut());
        self.scope.end(handle);
        out
    }
}

impl Benchmark for Timed<'_> {
    fn id(&self) -> BenchmarkId {
        self.inner.id()
    }
    fn prepare(&mut self) {
        self.span("data", "prepare", |b| b.prepare());
    }
    fn create_model(&mut self, seed: u64) {
        self.span("models", "create", |b| b.create_model(seed));
    }
    fn train_epoch(&mut self, epoch: usize) {
        self.span("harness", "epoch", |b| b.train_epoch(epoch));
    }
    fn evaluate(&mut self) -> f64 {
        self.span("harness", "eval", |b| b.evaluate())
    }
    fn target(&self) -> f64 {
        self.inner.target()
    }
    fn max_epochs(&self) -> usize {
        self.inner.max_epochs()
    }
    fn hyperparameters(&self) -> Vec<(String, f64)> {
        self.inner.hyperparameters()
    }
}

fn train(id: BenchmarkId, seed: u64, telemetry: Option<&Telemetry>) -> RunResult {
    let clock = RealClock::new();
    match telemetry {
        None => run_benchmark(build(id).as_mut(), seed, &clock),
        Some(telemetry) => {
            let mut timed =
                Timed { inner: build(id), scope: telemetry.timeline_scope(), slug: id.slug() };
            run_benchmark(&mut timed, seed, &clock)
        }
    }
}

/// Seconds to do, once for every benchmark, the untimed work of a
/// training run: `build`, dataset `prepare` and `create_model`, outside
/// the harness.
pub fn setup_s() -> f64 {
    let start = Instant::now();
    for (id, _, _) in PANELS {
        let mut benchmark = build(id);
        benchmark.prepare();
        benchmark.create_model(0);
    }
    start.elapsed().as_secs_f64()
}

/// Runs the part. `between` runs after every training job, so work
/// measured beside training samples the whole run rather than one
/// stretch of it.
pub fn run(
    args: &Args,
    telemetry: &Telemetry,
    report: &mut Report,
    between: &mut dyn FnMut(&mut Report),
) {
    let mut runs: BTreeMap<&'static str, Runs> = BTreeMap::new();
    let (mut untraced_total, mut traced_total) = (Duration::ZERO, Duration::ZERO);
    for (id, seed) in jobs(args) {
        let slug = id.slug();
        let result = train(id, seed, None);
        report.attempted += 1;
        let issues = check_log(result.log.entries());
        report.check(issues.is_empty(), || {
            format!("{slug} seed {seed}: log not compliant: {issues:?}")
        });
        let runs = runs.entry(slug).or_default();
        let seconds = result.time_to_train.as_secs_f64();
        if result.reached_target {
            runs.ttt.push(seconds);
        } else {
            runs.missed.push(seconds);
            eprintln!(
                "train: {slug} seed {seed} missed its target ({:.4} after {} epochs)",
                result.quality, result.epochs
            );
        }
        if args.trace {
            let traced = train(id, seed, Some(telemetry));
            report.attempted += 1;
            report.check(
                traced.quality_history == result.quality_history && traced.epochs == result.epochs,
                || format!("{slug} seed {seed}: traced run diverged from the untraced run"),
            );
            untraced_total += result.time_to_train;
            traced_total += traced.time_to_train;
        }
        between(report);
    }

    let mut log_ttt = Vec::new();
    for (slug, runs) in &runs {
        // With no run on target the mean of the aborted runs is a lower
        // bound on the time to train.
        let value = if runs.ttt.is_empty() { mean(&runs.missed) } else { mean(&runs.ttt) };
        log_ttt.push(value.ln());
        if args.trace {
            report.metric(format!("harness.ttt_s.{slug}"), value, "s");
        }
    }
    if !args.trace {
        report.metric("ttt_s.geomean", mean(&log_ttt).exp(), "s");
    } else {
        let missed: usize = runs.values().map(|r| r.missed.len()).sum();
        report.metric("harness.missed_runs", missed as f64, "count");
        let snapshot = telemetry.snapshot();
        for slug in runs.keys() {
            per_benchmark_layers(&snapshot, slug, report);
        }
        let overhead = traced_total.as_secs_f64() / untraced_total.as_secs_f64() - 1.0;
        report.metric("trace.overhead_pct.train", overhead * 100.0, "%");
        step_probes(telemetry, report);
        selfplay_probe(telemetry, report);
    }
}

fn per_benchmark_layers(snapshot: &TelemetrySnapshot, slug: &str, report: &mut Report) {
    let mean_s = |layer: &str, stage: &str| {
        mean(&span_us(snapshot, layer, &format!("{stage}.{slug}"))) / 1e6
    };
    report.metric(format!("harness.epoch_s.{slug}"), mean_s("harness", "epoch"), "s");
    report.metric(format!("harness.eval_s.{slug}"), mean_s("harness", "eval"), "s");
    let epochs = span_us(snapshot, "harness", &format!("epoch.{slug}")).len();
    report.metric(format!("harness.epochs.{slug}"), epochs as f64, "count");
    report.metric(format!("data.prepare_s.{slug}"), mean_s("data", "prepare"), "s");
    report.metric(format!("models.create_s.{slug}"), mean_s("models", "create"), "s");
}

/// Spans for the parts of one training step. The probes below mirror
/// the step of `core/src/benchmarks/{resnet,bert,gnmt}.rs` call for
/// call, timing each public call into a layer.
struct StepSpans<'t> {
    scope: SpanScope<'t>,
    slug: &'static str,
}

impl StepSpans<'_> {
    fn time<R>(&mut self, layer: &'static str, part: &str, f: impl FnOnce() -> R) -> R {
        let handle = self.scope.start(layer, &format!("{part}.{}", self.slug));
        let out = f();
        self.scope.end(handle);
        out
    }

    fn report(&self, snapshot: &TelemetrySnapshot, report: &mut Report) {
        let slug = self.slug;
        let mean_ms = |layer: &str, part: &str| {
            mean(&span_us(snapshot, layer, &format!("{part}.{slug}"))) / 1e3
        };
        let parts = [
            ("data.batch_ms", mean_ms("data", "batch")),
            ("models.forward_ms", mean_ms("models", "forward")),
            ("autograd.backward_ms", mean_ms("autograd", "backward")),
            ("optim.step_ms", mean_ms("optim", "step")),
        ];
        let whole = mean_ms("step", "whole");
        for (name, value) in parts {
            report.metric(format!("{name}.{slug}"), value, "ms");
        }
        let other = whole - parts.iter().map(|(_, v)| v).sum::<f64>();
        report.metric(format!("step.other_ms.{slug}"), other, "ms");
    }
}

/// One epoch of steps per model at run seed 0, after the same
/// preparation the benchmark does.
fn step_probes(telemetry: &Telemetry, report: &mut Report) {
    let mut resnet = StepSpans { scope: telemetry.timeline_scope(), slug: "resnet" };
    {
        // core/src/benchmarks/resnet.rs
        let config = ImageNetConfig::default();
        let data = SyntheticImageNet::generate(config, 0x1357_9bdf);
        let (packed, _) = PackedImages::pack(data.train.images());
        let mut rng = TensorRng::new(0);
        let model = ResNetMini::new(
            ResNetConfig {
                in_channels: config.channels,
                input_size: config.image_size,
                classes: config.classes,
                base_width: 8,
                blocks_per_stage: 1,
            },
            &mut rng,
        );
        let mut opt = SgdTorch::new(model.params(), 0.9, 1e-4);
        let mut rng = rng.split();
        let augment = Compose::standard(1, 0.1);
        let lr = MultiStepDecay { base: 0.08, gamma: 0.2, milestones: vec![12, 18] }.lr(0);
        let labels = data.train.labels();
        for batch in epoch_batches(data.train.len(), 32, &mut rng).iter() {
            let whole = resnet.scope.start("step", "whole.resnet");
            let (images, batch_labels) = resnet.time("data", "batch", || {
                let images = augment.apply_batch(&packed.read_batch(batch), &mut rng);
                (images, batch.iter().map(|&i| labels[i]).collect::<Vec<usize>>())
            });
            opt.zero_grad();
            let loss = resnet.time("models", "forward", || model.loss(&images, &batch_labels));
            resnet.time("autograd", "backward", || loss.backward());
            resnet.time("optim", "step", || opt.step(lr));
            resnet.scope.end(whole);
        }
    }

    let mut bert = StepSpans { scope: telemetry.timeline_scope(), slug: "bert" };
    {
        // core/src/benchmarks/bert.rs
        let config = MaskedLmConfig::default();
        let data = SyntheticMaskedLm::generate(config, 0x7be2_91a4);
        let mut rng = TensorRng::new(0);
        let model = BertMini::new(
            BertConfig {
                vocab: config.vocab,
                max_len: config.sentence_len(),
                ..Default::default()
            },
            &mut rng,
        );
        let mut opt = Adam::with_defaults(model.params());
        let mut rng = rng.split();
        for (step, batch) in epoch_batches(data.train.len(), 16, &mut rng).iter().enumerate() {
            let whole = bert.scope.start("step", "whole.bert");
            let chunk = bert.time("data", "batch", || {
                batch.iter().map(|&i| &data.train[i]).collect::<Vec<&MaskedSentence>>()
            });
            let lr = if step + 1 < 12 { 0.01 * (step + 1) as f32 / 12.0 } else { 0.01 };
            opt.zero_grad();
            let loss = bert.time("models", "forward", || model.loss(&chunk));
            bert.time("autograd", "backward", || loss.backward());
            bert.time("optim", "step", || opt.step(lr));
            bert.scope.end(whole);
        }
    }

    let mut gnmt = StepSpans { scope: telemetry.timeline_scope(), slug: "gnmt" };
    {
        // core/src/benchmarks/gnmt.rs
        let config = TranslationConfig::default();
        let data = SyntheticTranslation::generate(config, 0x48d1_59e2);
        let mut rng = TensorRng::new(0);
        let model = GnmtMini::new(
            GnmtConfig {
                vocab: config.vocab,
                max_len: config.max_len + 2,
                embed_dim: 24,
                hidden: 48,
            },
            &mut rng,
        );
        let mut opt = Adam::with_defaults(model.params());
        let mut rng = rng.split();
        let lr = MultiStepDecay { base: 0.012, gamma: 0.4, milestones: vec![50, 70] }.lr(0);
        for batch in epoch_batches(data.train.len(), 32, &mut rng).iter() {
            let whole = gnmt.scope.start("step", "whole.gnmt");
            let padded = gnmt.time("data", "batch", || {
                let pairs: Vec<&TranslationPair> = batch.iter().map(|&i| &data.train[i]).collect();
                SyntheticTranslation::pad_batch(&pairs, config.max_len)
            });
            opt.zero_grad();
            let loss = gnmt.time("models", "forward", || model.loss(&padded));
            gnmt.time("autograd", "backward", || loss.backward());
            gnmt.time("optim", "step", || {
                clip_grad_norm(&model.params(), 5.0);
                opt.step(lr)
            });
            gnmt.scope.end(whole);
        }
    }

    let snapshot = telemetry.snapshot();
    for probe in [&resnet, &bert, &gnmt] {
        probe.report(&snapshot, report);
    }
}

/// `reference_games` for one MiniGo epoch's games (four 9×9 games), at
/// the game seeds run seed 0 uses in its first eight epochs.
fn selfplay_probe(telemetry: &Telemetry, report: &mut Report) {
    let mut scope = telemetry.timeline_scope();
    for epoch in 0..8u64 {
        let games = scope.record("gomini", "selfplay", || reference_games(4, 9, epoch + 1));
        report.check(games.len() == 4, || format!("selfplay produced {} games", games.len()));
    }
    drop(scope);
    let ms = mean(&span_us(&telemetry.snapshot(), "gomini", "selfplay")) / 1e3;
    report.metric("gomini.selfplay_ms", ms, "ms");
}
