//! Fused multi-op graph nodes.
//!
//! The layer implementations in `mlperf-nn` are written as compositions
//! of primitive [`Var`] ops; on the tiny tensors the miniaturized
//! benchmarks train on, the per-node cost of that composition
//! (allocation, operand clones captured by backward closures, gradient
//! map traffic) dwarfs the arithmetic. The ops here collapse a whole
//! composition into ONE graph node with hand-written forward and
//! backward passes.
//!
//! # Bit-identity contract
//!
//! Each fused op is required to produce *bit-identical* forwards AND
//! gradients to the composition it replaces — a test holds whole
//! training runs to the reference oracle, and f32 trajectories diverge
//! chaotically under any reordering. Every loop below therefore
//! replicates the composed ops' arithmetic element by element in the
//! same order:
//!
//! - reductions accumulate in the same ascending order as
//!   `Tensor::sum_axis`, starting from `+0.0`;
//! - where the composition applies two ops in sequence (e.g. `mul` then
//!   `add`), the fused loop performs two separate rounded operations —
//!   never a fused multiply-add;
//! - where a gradient receives two contributions, they are added in the
//!   same arrival order as the backward pass's descending-id walk;
//! - matrix products reuse the tensor GEMM kernels, which are bitwise
//!   interchangeable with the oracle's (see `mlperf-tensor`'s parity
//!   suite); products commuted relative to the composition are exact
//!   because f32 multiplication commutes.
//!
//! The compositions survive as the test-only oracle in `mlperf-nn`,
//! whose differential tests (`tests/fused_parity.rs`) hold the fused
//! paths to `to_bits()` equality against them.

use crate::var::Var;
use mlperf_tensor::Tensor;

/// Reorders token-major `[b, t, h*dh]` data into head-major
/// `[b*h, t, dh]` (the `reshape → permute([0,2,1,3]) → reshape` of
/// `split_heads`, as one copy).
fn to_heads(src: &[f32], b: usize, t: usize, h: usize, dh: usize) -> Vec<f32> {
    let d = h * dh;
    let mut out = vec![0.0f32; src.len()];
    for bi in 0..b {
        for hi in 0..h {
            for ti in 0..t {
                let dst = ((bi * h + hi) * t + ti) * dh;
                let s = (bi * t + ti) * d + hi * dh;
                out[dst..dst + dh].copy_from_slice(&src[s..s + dh]);
            }
        }
    }
    out
}

/// Inverse of [`to_heads`]: head-major `[b*h, t, dh]` back to
/// token-major `[b, t, h*dh]`.
fn from_heads(src: &[f32], b: usize, t: usize, h: usize, dh: usize) -> Vec<f32> {
    let d = h * dh;
    let mut out = vec![0.0f32; src.len()];
    for bi in 0..b {
        for hi in 0..h {
            for ti in 0..t {
                let s = ((bi * h + hi) * t + ti) * dh;
                let dst = (bi * t + ti) * d + hi * dh;
                out[dst..dst + dh].copy_from_slice(&src[s..s + dh]);
            }
        }
    }
    out
}

impl Var {
    /// Fused layer normalization over the trailing axis: one graph node
    /// replacing the ~11-node `mean / center / var / normalize / affine`
    /// composition, bit-identical to it in both value and gradients.
    ///
    /// `gamma` and `beta` must be `[d]` where `d` is the trailing
    /// dimension of `self`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn layer_norm_fused(&self, gamma: &Var, beta: &Var, eps: f32) -> Var {
        let shape = self.shape();
        let d = *shape.last().expect("layer_norm_fused needs at least 1-D input");
        assert_eq!(gamma.shape(), vec![d], "layer_norm_fused gamma shape");
        assert_eq!(beta.shape(), vec![d], "layer_norm_fused beta shape");
        let inv = 1.0 / d as f32;

        let rows = self.value().len() / d;
        let mut centered = vec![0.0f32; rows * d];
        let mut norm = vec![0.0f32; rows * d];
        let mut denom = vec![0.0f32; rows];
        let mut y = vec![0.0f32; rows * d];
        {
            let x = self.value();
            let xs = x.data();
            let gamma_b = gamma.value();
            let beta_b = beta.value();
            let gd = gamma_b.data();
            let bd = beta_b.data();
            for r in 0..rows {
                let row = &xs[r * d..(r + 1) * d];
                // mean_axis = ascending sum, then scale by 1/d.
                let mut sum = 0.0f32;
                for &v in row {
                    sum += v;
                }
                let mean = sum * inv;
                let cr = &mut centered[r * d..(r + 1) * d];
                for i in 0..d {
                    cr[i] = row[i] - mean;
                }
                let mut sumsq = 0.0f32;
                for &c in cr.iter() {
                    sumsq += c * c;
                }
                let var = sumsq * inv;
                let den = (var + eps).sqrt();
                denom[r] = den;
                let nr = &mut norm[r * d..(r + 1) * d];
                for i in 0..d {
                    nr[i] = cr[i] / den;
                }
                let yr = &mut y[r * d..(r + 1) * d];
                for i in 0..d {
                    // Two rounded ops (mul, then add), like the
                    // composition — not a fused multiply-add.
                    let scaled = nr[i] * gd[i];
                    yr[i] = scaled + bd[i];
                }
            }
        }

        let gamma_data = gamma.value().data().to_vec();
        let out_shape = shape.clone();
        let value = Tensor::from_vec(y, &out_shape);
        // `x` appears TWICE as a parent: the composition delivers two
        // separate gradient contributions to it (one through the
        // centering subtraction, one through the mean), and when `x`
        // has other consumers (e.g. a residual connection) the
        // accumulation order `(g_prior + A) + B` is not associative
        // with a pre-summed `g_prior + (A + B)`. Returning the two
        // pieces separately replays the composition's arrival order
        // bit for bit.
        Var::from_op(
            value,
            vec![self.clone(), self.clone(), gamma.clone(), beta.clone()],
            Box::new(move |g| {
                let gs = g.data();
                // Reductions over the leading axes must reproduce
                // `sum_to`'s axis-by-axis summation tree, so they go
                // through the real tensor ops.
                let g_beta = g.sum_to(&[d]);
                let mut prod = vec![0.0f32; gs.len()];
                for i in 0..gs.len() {
                    prod[i] = gs[i] * norm[i];
                }
                let g_gamma = Tensor::from_vec(prod, &out_shape).sum_to(&[d]);

                // First contribution to `x`: the accumulated centered
                // gradient passed through the subtraction's identity.
                let mut gx_a = vec![0.0f32; gs.len()];
                // Second contribution: the mean chain, broadcast back.
                let mut gx_b = vec![0.0f32; gs.len()];
                for r in 0..rows {
                    let gr = &gs[r * d..(r + 1) * d];
                    let cr = &centered[r * d..(r + 1) * d];
                    let den = denom[r];
                    let dd = den * den;
                    let gxr = &mut gx_a[r * d..(r + 1) * d];
                    // div backward: centered's first contribution and
                    // the ascending-sum reduction onto denom.
                    let mut g_denom = 0.0f32;
                    for i in 0..d {
                        let g_norm = gr[i] * gamma_data[i];
                        gxr[i] = g_norm / den;
                        g_denom += -(g_norm * cr[i]) / dd;
                    }
                    // sqrt → add_scalar (identity) → mean scale.
                    let g_veps = g_denom * (1.0 / (2.0 * den));
                    let g_sq_s = g_veps * inv;
                    // square backward arrives second at `centered`
                    // (descending-id order: div before square), then
                    // sub backward reduces -g_centered onto the mean.
                    let mut g_mean = 0.0f32;
                    for i in 0..d {
                        let g_c2 = g_sq_s * (2.0 * cr[i]);
                        gxr[i] += g_c2;
                        g_mean += -gxr[i];
                    }
                    let g_x2 = g_mean * inv;
                    for i in 0..d {
                        gx_b[r * d + i] = g_x2;
                    }
                }
                vec![
                    Some(Tensor::from_vec(gx_a, &out_shape)),
                    Some(Tensor::from_vec(gx_b, &out_shape)),
                    Some(g_gamma),
                    Some(g_beta),
                ]
            }),
        )
    }

    /// Fused scaled-dot-product attention core: one graph node covering
    /// everything between the q/k/v projections and the output
    /// projection (head split, `q·kᵀ`, scale, optional mask, softmax,
    /// `attn·v`, head merge) — bit-identical to the ~16-node
    /// composition in value and gradients.
    ///
    /// `q` is `[b, tq, d]`, `k`/`v` are `[b, tk, d]`, `mask` (if any)
    /// is `[tq, tk]`, and `d` must be divisible by `heads`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn attention_core(q: &Var, k: &Var, v: &Var, mask: Option<&Tensor>, heads: usize) -> Var {
        let qs = q.shape();
        let ks = k.shape();
        assert_eq!(qs.len(), 3, "attention_core expects [b, t, d] query, got {qs:?}");
        let (b, tq, d) = (qs[0], qs[1], qs[2]);
        let tk = ks[1];
        assert_eq!(ks, vec![b, tk, d], "attention_core key shape");
        assert_eq!(v.shape(), vec![b, tk, d], "attention_core value shape");
        assert_eq!(d % heads, 0, "model dim {d} not divisible by {heads} heads");
        let h = heads;
        let dh = d / h;
        let inv_sqrt = 1.0 / (dh as f32).sqrt();

        let qh = Tensor::from_vec(to_heads(q.value().data(), b, tq, h, dh), &[b * h, tq, dh]);
        let kh = Tensor::from_vec(to_heads(k.value().data(), b, tk, h, dh), &[b * h, tk, dh]);
        let vh = Tensor::from_vec(to_heads(v.value().data(), b, tk, h, dh), &[b * h, tk, dh]);
        // q·kᵀ via the transposed-GEMM kernel ≡ bmm against a permuted
        // key (bitwise, per the kernel parity suite), then the same
        // scale → mask-add op order as the composition.
        let mut scores = qh.bmm_abt(&kh).scale(inv_sqrt);
        if let Some(m) = mask {
            assert_eq!(m.shape(), &[tq, tk], "mask must be [t_q, t_k]");
            scores = &scores + m;
        }
        let attn = scores.softmax_last_axis();
        let ctx = attn.bmm(&vh);
        let merged = Tensor::from_vec(from_heads(ctx.data(), b, tq, h, dh), &[b, tq, d]);

        Var::from_op(
            merged,
            vec![q.clone(), k.clone(), v.clone()],
            Box::new(move |g| {
                let g_ctx = Tensor::from_vec(to_heads(g.data(), b, tq, h, dh), &[b * h, tq, dh]);
                let g_attn = g_ctx.bmm_abt(&vh);
                let g_vh = attn.bmm_atb(&g_ctx);

                // Softmax backward, row-wise: dot = Σ g·s ascending,
                // then s · (g − dot) — exactly the composed
                // `(g*s).sum_axis` / broadcast-subtract / multiply.
                let a = attn.data();
                let ga = g_attn.data();
                let mut g_scores = vec![0.0f32; ga.len()];
                for r in 0..b * h * tq {
                    let ar = &a[r * tk..(r + 1) * tk];
                    let gr = &ga[r * tk..(r + 1) * tk];
                    let mut dot = 0.0f32;
                    for i in 0..tk {
                        dot += gr[i] * ar[i];
                    }
                    let out = &mut g_scores[r * tk..(r + 1) * tk];
                    for i in 0..tk {
                        out[i] = ar[i] * (gr[i] - dot);
                    }
                }
                // Mask-add backward is the identity; scale backward
                // scales by the same factor.
                for vsc in g_scores.iter_mut() {
                    *vsc *= inv_sqrt;
                }
                let g_s0 = Tensor::from_vec(g_scores, &[b * h, tq, tk]);

                // g_qh = g_s0 · kh  (≡ composed bmm_abt against the
                // permuted key); g_kh = g_s0ᵀ · qh (≡ composed
                // `qh.bmm_atb(g_s0)` then inverse permute — products
                // commuted, sums in the same ascending order).
                let g_qh = g_s0.bmm(&kh);
                let g_kh = g_s0.bmm_atb(&qh);

                vec![
                    Some(Tensor::from_vec(from_heads(g_qh.data(), b, tq, h, dh), &[b, tq, d])),
                    Some(Tensor::from_vec(from_heads(g_kh.data(), b, tk, h, dh), &[b, tk, d])),
                    Some(Tensor::from_vec(from_heads(g_vh.data(), b, tk, h, dh), &[b, tk, d])),
                ]
            }),
        )
    }
}
