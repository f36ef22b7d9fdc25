//! Scratch profiler: phase breakdown of BertMini training epochs on the
//! tensor kernels, their dispatch counters, and per-component
//! forward/backward timings. Not part of the shipped CLI surface.
//!
//! `--flame FILE` additionally records the run as telemetry spans and
//! writes a collapsed-stack flamegraph (`stack;frames count`, one line
//! per unique stack, self-time in microseconds — feed to inferno or
//! speedscope).

use mlperf_autograd::Var;
use mlperf_data::{epoch_batches, MaskedLmConfig, MaskedSentence, SyntheticMaskedLm};
use mlperf_models::{BertConfig, BertMini};
use mlperf_nn::{LayerNorm, Linear, MaskedLmHead, Module, MultiHeadAttention};
use mlperf_optim::{Adam, Optimizer};
use mlperf_telemetry::{write_collapsed, Telemetry};
use mlperf_tensor::{enable_kernel_stats, kernel_stats, TensorRng};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn time_fwd_bwd(label: &str, iters: u32, f: impl Fn() -> Var) {
    // Warm up.
    for _ in 0..5 {
        f().sum().backward();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let fwd = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..iters {
        f().sum().backward();
    }
    let both = t1.elapsed();
    let per = |d: Duration| d.as_secs_f64() * 1e6 / iters as f64;
    println!("    {label:<28} fwd {:7.1}us  fwd+bwd {:7.1}us", per(fwd), per(both));
}

fn components() {
    println!("  components:");
    let mut rng = TensorRng::new(7);
    let x = Var::param(rng.normal(&[16, 12, 16], 0.0, 1.0));
    let attn = MultiHeadAttention::new(16, 2, &mut rng);
    time_fwd_bwd("attention [16,12,16]", 200, || attn.self_attention(&x, None));
    let ln = LayerNorm::new(16);
    time_fwd_bwd("layernorm [16,12,16]", 200, || ln.forward(&x));
    let up = Linear::new(16, 32, true, &mut rng);
    let down = Linear::new(32, 16, true, &mut rng);
    time_fwd_bwd("feedforward [16,12,16]", 200, || down.forward(&up.forward(&x).relu()));
    let head = MaskedLmHead::new(16, 24, &mut rng);
    let masked: Vec<(usize, usize, usize)> =
        (0..16).flat_map(|b| [(b, 1usize, 3usize), (b, 7, 5)]).collect();
    time_fwd_bwd("mlm head loss [16,12,16]", 200, || head.loss(&x, &masked));
}

fn print_kernel_stats() {
    let k = kernel_stats();
    println!(
        "  kernels: gemm ref {} / direct {} / packed {} \
         (packed {} KiB, {} fanouts, width peak {})",
        k.gemm_reference,
        k.gemm_direct,
        k.gemm_packed,
        k.packed_bytes / 1024,
        k.gemm_fanouts,
        k.fanout_width_peak
    );
}

fn main() -> ExitCode {
    let mut flame: Option<PathBuf> = None;
    let mut cli = std::env::args().skip(1);
    while let Some(flag) = cli.next() {
        match (flag.as_str(), cli.next()) {
            ("--flame", Some(value)) => flame = Some(PathBuf::from(value)),
            _ => {
                eprintln!("usage: profile_backend [--flame FILE]");
                return ExitCode::FAILURE;
            }
        }
    }
    let telemetry = if flame.is_some() { Telemetry::recording() } else { Telemetry::disabled() };
    enable_kernel_stats();

    let data_config = MaskedLmConfig::default();
    let data = SyntheticMaskedLm::generate(data_config, 0x7be2_91a4);
    let mut scope = telemetry.timeline_scope();
    let run_span = scope.start("profile", "run");
    let mut rng = TensorRng::new(21);
    let model = BertMini::new(
        BertConfig {
            vocab: data_config.vocab,
            max_len: data_config.sentence_len(),
            ..Default::default()
        },
        &mut rng,
    );
    let mut opt = Adam::with_defaults(model.params());
    let mut data_rng = rng.split();
    let (mut t_batch, mut t_fwd, mut t_bwd, mut t_opt) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let epochs = 5;
    let mut steps = 0u32;
    for epoch in 0..epochs {
        let epoch_span = scope.start("profile", &format!("epoch {epoch}"));
        for batch in epoch_batches(data.train.len(), 16, &mut data_rng).iter() {
            steps += 1;
            let t0 = Instant::now();
            let chunk: Vec<&MaskedSentence> = scope
                .record("profile", "batch", || batch.iter().map(|&i| &data.train[i]).collect());
            let t1 = Instant::now();
            opt.zero_grad();
            let loss = scope.record("profile", "forward", || model.loss(&chunk));
            let t2 = Instant::now();
            scope.record("profile", "backward", || loss.backward());
            let t3 = Instant::now();
            scope.record("profile", "optimizer", || opt.step(0.01));
            let t4 = Instant::now();
            t_batch += t1 - t0;
            t_fwd += t2 - t1;
            t_bwd += t3 - t2;
            t_opt += t4 - t3;
        }
        scope.end(epoch_span);
    }
    let per = |d: Duration| d.as_secs_f64() * 1e6 / steps as f64;
    println!(
        "per step: batch {:7.1}us  fwd {:7.1}us  bwd {:7.1}us  opt {:7.1}us  total {:7.1}us/step ({steps} steps)",
        per(t_batch),
        per(t_fwd),
        per(t_bwd),
        per(t_opt),
        per(t_batch + t_fwd + t_bwd + t_opt)
    );
    print_kernel_stats();
    components();
    scope.end(run_span);

    if let Some(path) = flame {
        if let Err(e) = write_collapsed(&telemetry.snapshot(), &path) {
            eprintln!("error: failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote flamegraph {}", path.display());
    }
    ExitCode::SUCCESS
}
