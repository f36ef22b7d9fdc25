//! The reference oracle: the original scalar kernels of this crate and
//! the unfused layer compositions, kept so tests can prove the
//! production path bit-identical to them.
//!
//! None of this is compiled into a release build. It exists for this
//! crate's own tests and behind the `oracle` feature, which only
//! dev-dependencies enable. A test runs a computation on the oracle by
//! wrapping it in [`reference`]: every tensor op the closure performs
//! on the calling thread runs on [`Reference`]'s scalar loops, and the
//! layers in `mlperf-nn` consult [`active`] to build their primitive-op
//! compositions instead of the fused graph nodes. The switch is
//! thread-local, so tests running concurrently in one process never
//! see each other's choice, and it never reaches the worker pool: none
//! of the reference kernels fan out.

use crate::conv::{col2im_into, im2col_one, nchw, Conv2dSpec};
use crate::kernels::{reference_gemm, sum_axis_serial, Kernels};
use crate::tensor::Tensor;
use std::cell::Cell;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's tensor ops on the reference oracle, and
/// restores the previous choice afterwards (also on unwind).
pub fn reference<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|active| active.set(self.0));
        }
    }
    let _restore = Restore(ACTIVE.with(|active| active.replace(true)));
    f()
}

/// Whether the calling thread is inside a [`reference`] scope.
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// The original scalar kernels of this crate, extracted verbatim.
pub(crate) struct Reference;

/// The reference 2-D transpose loop (as in `Tensor::transpose`),
/// operating on raw buffers so the reference transposed-GEMM variants
/// compose it with [`reference_gemm`] exactly like the pre-backend
/// call sites did.
fn reference_transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = src[i * cols + j];
        }
    }
    out
}

impl Kernels for Reference {
    fn gemm(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        reference_gemm(a, b, out, m, k, n);
    }

    fn gemm_abt(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        // Verbatim composition of the pre-backend call sites:
        // `a.matmul(&b.transpose())`.
        let bt = reference_transpose(b, n, k); // [n,k] -> [k,n]
        reference_gemm(a, &bt, out, m, k, n);
    }

    fn gemm_atb(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        // Verbatim composition of `a.transpose().matmul(b)`.
        let at = reference_transpose(a, k, m); // [k,m] -> [m,k]
        reference_gemm(&at, b, out, m, k, n);
    }

    fn bmm(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        for bi in 0..batch {
            reference_gemm(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                &mut out[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    fn bmm_abt(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        for bi in 0..batch {
            self.gemm_abt(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * n * k..(bi + 1) * n * k],
                &mut out[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    fn bmm_atb(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        for bi in 0..batch {
            self.gemm_atb(
                &a[bi * k * m..(bi + 1) * k * m],
                &b[bi * k * n..(bi + 1) * k * n],
                &mut out[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    fn gemm_bias(
        &self,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        reference_gemm(a, b, out, m, k, n);
        for i in 0..m {
            for (o, &bv) in out[i * n..i * n + n].iter_mut().zip(bias.iter()) {
                *o += bv;
            }
        }
    }

    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let (n, c, h, w) = nchw(input);
        let ws = weight.shape();
        assert_eq!(ws.len(), 4, "conv2d weight must be 4-D, got {:?}", ws);
        let (oc, wc, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        assert_eq!(wc, c, "conv2d channel mismatch: input {c}, weight {wc}");
        assert_eq!(kh, spec.kernel, "weight kernel height disagrees with spec");
        assert_eq!(kw, spec.kernel, "weight kernel width disagrees with spec");
        let oh = spec.out_extent(h);
        let ow = spec.out_extent(w);
        let wmat = weight.reshape(&[oc, c * kh * kw]);
        let mut out = Vec::with_capacity(n * oc * oh * ow);
        for ni in 0..n {
            let cols = im2col_one(input, ni, spec, oh, ow);
            let mut prod = vec![0.0f32; oc * oh * ow];
            reference_gemm(wmat.data(), cols.data(), &mut prod, oc, c * kh * kw, oh * ow);
            out.extend_from_slice(&prod);
        }
        let mut out = Tensor::from_vec(out, &[n, oc, oh, ow]);
        if let Some(b) = bias {
            assert_eq!(b.shape(), &[oc], "conv2d bias must be [{oc}]");
            let data = out.data_mut();
            for ni in 0..n {
                for o in 0..oc {
                    let bv = b.data()[o];
                    let base = (ni * oc + o) * oh * ow;
                    for v in &mut data[base..base + oh * ow] {
                        *v += bv;
                    }
                }
            }
        }
        out
    }

    fn conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: Conv2dSpec,
    ) -> (Tensor, Tensor, Tensor) {
        let (n, c, h, w) = nchw(input);
        let ws = weight.shape();
        let (oc, _, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        let oh = spec.out_extent(h);
        let ow = spec.out_extent(w);
        assert_eq!(
            grad_out.shape(),
            &[n, oc, oh, ow],
            "grad_out shape mismatch in conv2d_backward"
        );
        let wmat = weight.reshape(&[oc, c * kh * kw]);
        let wmat_t = wmat.transpose(); // [c*kh*kw, oc]
        let mut grad_w = Tensor::zeros(&[oc, c * kh * kw]);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let mut grad_b = Tensor::zeros(&[oc]);
        for ni in 0..n {
            let go = grad_out.narrow(0, ni, 1).reshape(&[oc, oh * ow]);
            let cols = im2col_one(input, ni, spec, oh, ow); // [c*kh*kw, oh*ow]
            grad_w.axpy(1.0, &{
                let mut prod = vec![0.0f32; oc * c * kh * kw];
                let cols_t = reference_transpose(cols.data(), c * kh * kw, oh * ow);
                reference_gemm(go.data(), &cols_t, &mut prod, oc, oh * ow, c * kh * kw);
                Tensor::from_vec(prod, &[oc, c * kh * kw])
            });
            let mut dcols = vec![0.0f32; c * kh * kw * oh * ow];
            reference_gemm(wmat_t.data(), go.data(), &mut dcols, c * kh * kw, oc, oh * ow);
            let dcols = Tensor::from_vec(dcols, &[c * kh * kw, oh * ow]);
            let sample = &mut grad_in.data_mut()[ni * c * h * w..(ni + 1) * c * h * w];
            col2im_into(dcols.data(), sample, c, h, w, spec, oh, ow);
            for o in 0..oc {
                let s: f32 = go.data()[o * oh * ow..(o + 1) * oh * ow].iter().sum();
                grad_b.data_mut()[o] += s;
            }
        }
        (grad_in, grad_w.reshape(&[oc, c, kh, kw]), grad_b)
    }

    fn softmax_rows(&self, src: &[f32], out: &mut [f32], rows: usize, inner: usize) {
        for r in 0..rows {
            let row = &src[r * inner..(r + 1) * inner];
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let mut z = 0.0;
            for (i, &v) in row.iter().enumerate() {
                let e = (v - m).exp();
                out[r * inner + i] = e;
                z += e;
            }
            for slot in &mut out[r * inner..(r + 1) * inner] {
                *slot /= z;
            }
        }
    }

    fn log_softmax_rows(&self, src: &[f32], out: &mut [f32], rows: usize, inner: usize) {
        for r in 0..rows {
            let row = &src[r * inner..(r + 1) * inner];
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
            for (i, &v) in row.iter().enumerate() {
                out[r * inner + i] = v - lse;
            }
        }
    }

    fn sum_axis(&self, src: &[f32], out: &mut [f32], outer: usize, extent: usize, inner: usize) {
        sum_axis_serial(src, out, outer, extent, inner);
    }
}
