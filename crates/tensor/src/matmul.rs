//! Matrix multiplication: 2-D GEMM, batched 3-D matmul, and the fused
//! transposed/bias variants the backward passes and layers use.
//!
//! Shape checking and output allocation live here; the inner loops run
//! in the crate's kernels.

use crate::kernels::kernels;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product of two 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul rhs must be 2-D, got {:?}", rhs.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul inner dimension mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = vec![0.0f32; m * n];
        kernels().gemm(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Fused `self · rhsᵀ`: `[m, c] x [n, c] -> [m, n]` (both operands
    /// contract over their **last** dimension).
    ///
    /// Numerically identical to `self.matmul(&rhs.transpose())` but
    /// skips materializing the transpose. This is the backward-pass
    /// form `grad · Bᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the last dimensions
    /// disagree.
    pub fn matmul_abt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_abt lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul_abt rhs must be 2-D, got {:?}", rhs.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_abt contraction mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            rhs.shape()
        );
        let mut out = vec![0.0f32; m * n];
        kernels().gemm_abt(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Fused `selfᵀ · rhs`: `[c, m] x [c, n] -> [m, n]` (both operands
    /// contract over their **first** dimension).
    ///
    /// Numerically identical to `self.transpose().matmul(rhs)` but
    /// skips materializing the transpose. This is the backward-pass
    /// form `Aᵀ · grad`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the first dimensions
    /// disagree.
    pub fn matmul_atb(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_atb lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul_atb rhs must be 2-D, got {:?}", rhs.shape());
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_atb contraction mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = vec![0.0f32; m * n];
        kernels().gemm_atb(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Fused affine map: `self · rhs + bias` with `bias` (`[n]`)
    /// broadcast over rows — what a dense layer computes, in one pass
    /// with no intermediate tensor.
    ///
    /// Numerically identical to `matmul` followed by a broadcast add.
    ///
    /// # Panics
    ///
    /// Panics on the [`Tensor::matmul`] conditions or if `bias` is not
    /// `[n]`.
    pub fn matmul_bias(&self, rhs: &Tensor, bias: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_bias lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul_bias rhs must be 2-D, got {:?}", rhs.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_bias inner dimension mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(bias.shape(), &[n], "matmul_bias bias must be [{n}], got {:?}", bias.shape());
        let mut out = vec![0.0f32; m * n];
        kernels().gemm_bias(self.data(), rhs.data(), bias.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Batched matrix product of two 3-D tensors:
    /// `[b, m, k] x [b, k, n] -> [b, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 3-D, batch sizes differ, or inner
    /// dimensions disagree.
    pub fn bmm(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 3, "bmm rhs must be 3-D, got {:?}", rhs.shape());
        let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, k2, n) = (rhs.shape()[0], rhs.shape()[1], rhs.shape()[2]);
        assert_eq!(b, b2, "bmm batch mismatch: {b} vs {b2}");
        assert_eq!(k, k2, "bmm inner dimension mismatch: {:?} x {:?}", self.shape(), rhs.shape());
        let mut out = vec![0.0f32; b * m * n];
        kernels().bmm(self.data(), rhs.data(), &mut out, b, m, k, n);
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Batched fused `self · rhsᵀ`: `[b, m, c] x [b, n, c] -> [b, m, n]`.
    ///
    /// Numerically identical to `self.bmm(&rhs.transpose_last2())`
    /// without the transpose copy.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 3-D, batch sizes differ, or last
    /// dimensions disagree.
    pub fn bmm_abt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm_abt lhs must be 3-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 3, "bmm_abt rhs must be 3-D, got {:?}", rhs.shape());
        let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, n, k2) = (rhs.shape()[0], rhs.shape()[1], rhs.shape()[2]);
        assert_eq!(b, b2, "bmm_abt batch mismatch: {b} vs {b2}");
        assert_eq!(k, k2, "bmm_abt contraction mismatch: {:?} x {:?}ᵀ", self.shape(), rhs.shape());
        let mut out = vec![0.0f32; b * m * n];
        kernels().bmm_abt(self.data(), rhs.data(), &mut out, b, m, k, n);
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Batched fused `selfᵀ · rhs`: `[b, c, m] x [b, c, n] -> [b, m, n]`.
    ///
    /// Numerically identical to `self.transpose_last2().bmm(rhs)`
    /// without the transpose copy.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 3-D, batch sizes differ, or
    /// middle dimensions disagree.
    pub fn bmm_atb(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 3, "bmm_atb lhs must be 3-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 3, "bmm_atb rhs must be 3-D, got {:?}", rhs.shape());
        let (b, k, m) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (b2, k2, n) = (rhs.shape()[0], rhs.shape()[1], rhs.shape()[2]);
        assert_eq!(b, b2, "bmm_atb batch mismatch: {b} vs {b2}");
        assert_eq!(k, k2, "bmm_atb contraction mismatch: {:?}ᵀ x {:?}", self.shape(), rhs.shape());
        let mut out = vec![0.0f32; b * m * n];
        kernels().bmm_atb(self.data(), rhs.data(), &mut out, b, m, k, n);
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Transposes the last two dimensions of a 3-D tensor (copying).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-D.
    pub fn transpose_last2(&self) -> Tensor {
        assert_eq!(self.ndim(), 3, "transpose_last2 requires a 3-D tensor");
        self.permute(&[0, 2, 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::arange(6, 1.0, 1.0).reshape(&[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = Tensor::from_vec(vec![2.0, 3.0, 5.0, 4.0, 6.0, 7.0], &[2, 3]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[3, 3]);
        assert_close(c.data(), &[2.0, 3.0, 5.0, 4.0, 6.0, 7.0, 6.0, 9.0, 12.0], 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        a.matmul(&b);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::arange(12, 0.0, 1.0).reshape(&[2, 2, 3]);
        let b = Tensor::arange(12, 1.0, 0.5).reshape(&[2, 3, 2]);
        let c = a.bmm(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        for bi in 0..2 {
            let a2 = a.narrow(0, bi, 1).reshape(&[2, 3]);
            let b2 = b.narrow(0, bi, 1).reshape(&[3, 2]);
            let expected = a2.matmul(&b2);
            let got = c.narrow(0, bi, 1).reshape(&[2, 2]);
            assert_close(got.data(), expected.data(), 1e-5);
        }
    }

    #[test]
    fn transpose_last2_swaps() {
        let a = Tensor::arange(12, 0.0, 1.0).reshape(&[2, 2, 3]);
        let t = a.transpose_last2();
        assert_eq!(t.shape(), &[2, 3, 2]);
        assert_eq!(t.at(&[1, 2, 0]), a.at(&[1, 0, 2]));
    }

    /// Runs `check` on the production kernels and on the oracle.
    fn on_both(check: impl Fn()) {
        check();
        crate::oracle::reference(check);
    }

    #[test]
    fn fused_transposed_variants_match_composition() {
        on_both(|| {
            let a = Tensor::arange(12, -2.0, 0.7).reshape(&[3, 4]);
            let b = Tensor::arange(20, 1.0, -0.3).reshape(&[5, 4]);
            assert_eq!(a.matmul_abt(&b), a.matmul(&b.transpose()), "abt");

            let a = Tensor::arange(12, -2.0, 0.7).reshape(&[4, 3]);
            let b = Tensor::arange(20, 1.0, -0.3).reshape(&[4, 5]);
            assert_eq!(a.matmul_atb(&b), a.transpose().matmul(&b), "atb");

            let a = Tensor::arange(24, -2.0, 0.5).reshape(&[2, 3, 4]);
            let b = Tensor::arange(40, 1.0, -0.2).reshape(&[2, 5, 4]);
            assert_eq!(a.bmm_abt(&b), a.bmm(&b.transpose_last2()), "bmm_abt");

            let a = Tensor::arange(24, -2.0, 0.5).reshape(&[2, 4, 3]);
            let b = Tensor::arange(40, 1.0, -0.2).reshape(&[2, 4, 5]);
            assert_eq!(a.bmm_atb(&b), a.transpose_last2().bmm(&b), "bmm_atb");
        });
    }

    #[test]
    fn matmul_bias_matches_matmul_plus_bias() {
        on_both(|| {
            let a = Tensor::arange(6, -1.0, 0.5).reshape(&[2, 3]);
            let b = Tensor::arange(12, 0.3, 0.25).reshape(&[3, 4]);
            let bias = Tensor::from_slice(&[0.1, -0.2, 0.3, -0.4]);
            assert_eq!(a.matmul_bias(&b, &bias), &a.matmul(&b) + &bias, "matmul_bias");
        });
    }
}
