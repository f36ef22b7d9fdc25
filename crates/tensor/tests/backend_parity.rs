//! Differential property tests: the production kernels agree with the
//! reference oracle (`mlperf_tensor::oracle`) on every op they
//! reimplement, across randomized shapes.
//!
//! The kernels accumulate each output element over the same ascending-k
//! order as the reference loops, so for the finite inputs generated
//! here agreement is *bitwise* — `to_bits` equality on the raw f32
//! data, no tolerance — on every path: the direct register-tile GEMM,
//! the packed-panel GEMM (`k·n` above the L1 threshold), the fused
//! transposed variants, conv2d and its parallel backward with the
//! ordered per-sample fold, the fused reductions, and the odometer
//! broadcast walk. A tolerance would only be needed if a kernel
//! reordered summation; this suite is what keeps that contract honest.

use mlperf_tensor::oracle::reference;
use mlperf_tensor::{conv2d_backward, Conv2dSpec, Tensor, TensorRng};
use proptest::prelude::*;

/// A deterministic tensor with a sprinkling of exact zeros, so the
/// reference GEMM's zero-skip fast path is exercised too.
fn tensor(rng: &mut TensorRng, shape: &[usize]) -> Tensor {
    let mut t = rng.uniform(shape, -2.0, 2.0);
    let data = t.data_mut();
    for i in (0..data.len()).step_by(7) {
        data[i] = 0.0;
    }
    t
}

/// Asserts two tensors carry bit-identical data (and the same shape).
fn assert_bits_equal(label: &str, reference: &Tensor, production: &Tensor) {
    assert_eq!(reference.shape(), production.shape(), "{label}: shape mismatch");
    for (i, (r, p)) in reference.data().iter().zip(production.data()).enumerate() {
        assert_eq!(r.to_bits(), p.to_bits(), "{label}: element {i} diverged: {r} vs {p}");
    }
}

/// Runs `op` on the oracle and on the production kernels and asserts
/// bitwise agreement.
fn agree(label: &str, op: impl Fn() -> Tensor) {
    assert_bits_equal(label, &reference(&op), &op());
}

proptest! {
    #[test]
    fn matmul_agrees(m in 1usize..24, k in 1usize..96, n in 1usize..96, seed in 0u64..1 << 32) {
        // k and n range high enough that k*n crosses the packed-panel
        // threshold on some cases, covering both GEMM paths.
        let mut rng = TensorRng::new(seed);
        let a = tensor(&mut rng, &[m, k]);
        let b = tensor(&mut rng, &[k, n]);
        agree("matmul", || a.matmul(&b));
    }

    #[test]
    fn transposed_matmuls_agree(m in 1usize..16, k in 1usize..32, n in 1usize..32, seed in 0u64..1 << 32) {
        let mut rng = TensorRng::new(seed);
        let a = tensor(&mut rng, &[m, k]);
        let bt = tensor(&mut rng, &[n, k]);
        agree("matmul_abt", || a.matmul_abt(&bt));
        let at = tensor(&mut rng, &[k, m]);
        let b = tensor(&mut rng, &[k, n]);
        agree("matmul_atb", || at.matmul_atb(&b));
    }

    #[test]
    fn matmul_bias_agrees(m in 1usize..16, k in 1usize..24, n in 1usize..24, seed in 0u64..1 << 32) {
        let mut rng = TensorRng::new(seed);
        let a = tensor(&mut rng, &[m, k]);
        let b = tensor(&mut rng, &[k, n]);
        let bias = tensor(&mut rng, &[n]);
        agree("matmul_bias", || a.matmul_bias(&b, &bias));
    }

    #[test]
    fn bmm_agrees(b in 1usize..5, m in 1usize..12, k in 1usize..16, n in 1usize..16, seed in 0u64..1 << 32) {
        let mut rng = TensorRng::new(seed);
        let lhs = tensor(&mut rng, &[b, m, k]);
        let rhs = tensor(&mut rng, &[b, k, n]);
        agree("bmm", || lhs.bmm(&rhs));
        let rhs_t = tensor(&mut rng, &[b, n, k]);
        agree("bmm_abt", || lhs.bmm_abt(&rhs_t));
        let lhs_t = tensor(&mut rng, &[b, k, m]);
        agree("bmm_atb", || lhs_t.bmm_atb(&rhs));
    }

    #[test]
    fn conv2d_and_backward_agree(
        (n, cin, cout) in (1usize..6, 1usize..4, 1usize..4),
        (hw, kernel, stride, padding) in (3usize..9, 1usize..4, 1usize..3, 0usize..2),
        seed in 0u64..1 << 32,
    ) {
        // Up to five samples, so the backward pass's per-sample fan-out
        // and its ordered fold of the weight and bias partials run.
        prop_assume!(hw + 2 * padding >= kernel);
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let mut rng = TensorRng::new(seed);
        let input = tensor(&mut rng, &[n, cin, hw, hw]);
        let weight = tensor(&mut rng, &[cout, cin, kernel, kernel]);
        let bias = tensor(&mut rng, &[cout]);

        agree("conv2d", || input.conv2d(&weight, Some(&bias), spec));
        agree("conv2d (no bias)", || input.conv2d(&weight, None, spec));

        let out_shape = input.conv2d(&weight, None, spec).shape().to_vec();
        let grad_out = tensor(&mut rng, &out_shape);
        let backward = || conv2d_backward(&input, &weight, &grad_out, spec);
        let (ri, rw, rb) = reference(backward);
        let (pi, pw, pb) = backward();
        assert_bits_equal("conv2d_backward grad_input", &ri, &pi);
        assert_bits_equal("conv2d_backward grad_weight", &rw, &pw);
        assert_bits_equal("conv2d_backward grad_bias", &rb, &pb);
    }

    #[test]
    fn reductions_agree(rows in 1usize..48, cols in 1usize..96, seed in 0u64..1 << 32) {
        let mut rng = TensorRng::new(seed);
        let t = tensor(&mut rng, &[rows, cols]);
        agree("sum_axis(0)", || t.sum_axis(0, false));
        agree("sum_axis(1)", || t.sum_axis(1, true));
        agree("softmax_last_axis", || t.softmax_last_axis());
        agree("log_softmax_last_axis", || t.log_softmax_last_axis());
    }

    #[test]
    fn broadcast_elementwise_agrees(b in 1usize..4, m in 1usize..12, n in 1usize..12, seed in 0u64..1 << 32) {
        let mut rng = TensorRng::new(seed);
        // Representative broadcast patterns: full-shape, row vector,
        // column vector, and leading-batch broadcast.
        let lhs = tensor(&mut rng, &[b, m, n]);
        for rhs_shape in [vec![b, m, n], vec![n], vec![m, 1], vec![1, m, n]] {
            let rhs = tensor(&mut rng, &rhs_shape);
            agree("broadcast add", || &lhs + &rhs);
            agree("broadcast mul", || &lhs * &rhs);
            agree("broadcast zip", || lhs.zip_broadcast(&rhs, |a, b| a * 2.0 - b));
        }
    }
}
