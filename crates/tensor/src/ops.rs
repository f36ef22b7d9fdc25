//! Elementwise arithmetic with NumPy-style broadcasting, plus the
//! nonlinearities used by the benchmark models.

use crate::shape::{broadcast_shapes, Shape};
use crate::tensor::Tensor;
use std::ops::{Add, Div, Mul, Neg, Sub};

impl Tensor {
    /// Applies a binary operation with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.shape() == other.shape() {
            // Fast path: identical shapes.
            let data =
                self.data().iter().zip(other.data().iter()).map(|(&a, &b)| f(a, b)).collect();
            return Tensor::from_vec(data, self.shape());
        }
        let out_dims = broadcast_shapes(self.shape(), other.shape()).unwrap_or_else(|| {
            panic!("shapes {:?} and {:?} are not broadcast-compatible", self.shape(), other.shape())
        });
        let mut out = vec![0.0; Shape::new(&out_dims).len()];
        let a_idx = BroadcastIndexer::new(self.shape(), &out_dims);
        let b_idx = BroadcastIndexer::new(other.shape(), &out_dims);
        #[cfg(any(test, feature = "oracle"))]
        if crate::oracle::active() {
            zip_broadcast_reference(
                self.data(),
                other.data(),
                &mut out,
                &a_idx,
                &b_idx,
                &out_dims,
                &f,
            );
            return Tensor::from_vec(out, &out_dims);
        }
        zip_broadcast_odometer(
            self.data(),
            other.data(),
            &mut out,
            &a_idx.strides,
            &b_idx.strides,
            &out_dims,
            &f,
        );
        Tensor::from_vec(out, &out_dims)
    }

    /// Broadcasts this tensor to `dims`.
    ///
    /// # Panics
    ///
    /// Panics if this shape cannot broadcast to `dims`.
    pub fn broadcast_to(&self, dims: &[usize]) -> Tensor {
        let merged = broadcast_shapes(self.shape(), dims)
            .unwrap_or_else(|| panic!("cannot broadcast {:?} to {:?}", self.shape(), dims));
        assert_eq!(merged, dims, "cannot broadcast {:?} to {:?}", self.shape(), dims);
        self.zip_broadcast(&Tensor::zeros(dims), |a, _| a)
    }

    /// Elementwise maximum with broadcasting.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast(other, f32::max)
    }

    /// Elementwise minimum with broadcasting.
    pub fn minimum(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast(other, f32::min)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Elementwise reciprocal.
    pub fn recip(&self) -> Tensor {
        self.map(|x| 1.0 / x)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|x| x * x)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise power.
    pub fn powf(&self, p: f32) -> Tensor {
        self.map(|x| x.powf(p))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Logistic sigmoid, numerically stable in both tails.
    pub fn sigmoid(&self) -> Tensor {
        self.map(sigmoid_scalar)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// In-place AXPY: `self += alpha * other` (shapes must match).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "axpy shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scale: `self *= alpha`.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for a in self.data_mut() {
            *a *= alpha;
        }
    }
}

/// Numerically stable logistic sigmoid for a single value.
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The broadcast walk: keeps running source offsets for both
/// operands and advances them odometer-style (increment the innermost
/// non-contracted dimension, carry on overflow), with the innermost
/// dimension specialized on its `(a, b)` stride pattern. Element pairs
/// and application order match the reference div/mod walk exactly.
#[allow(clippy::too_many_arguments)]
fn zip_broadcast_odometer(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    a_str: &[usize],
    b_str: &[usize],
    out_dims: &[usize],
    f: &impl Fn(f32, f32) -> f32,
) {
    let ndim = out_dims.len();
    if ndim == 0 {
        out[0] = f(a[0], b[0]);
        return;
    }
    let inner = out_dims[ndim - 1];
    if inner == 0 || out.is_empty() {
        return;
    }
    let (a_in, b_in) = (a_str[ndim - 1], b_str[ndim - 1]);
    let outer = out.len() / inner;
    let mut idx = vec![0usize; ndim.saturating_sub(1)];
    let (mut a_off, mut b_off) = (0usize, 0usize);
    for (row, chunk) in out.chunks_mut(inner).enumerate() {
        match (a_in, b_in) {
            (1, 1) => {
                for (c, slot) in chunk.iter_mut().enumerate() {
                    *slot = f(a[a_off + c], b[b_off + c]);
                }
            }
            (1, 0) => {
                let bv = b[b_off];
                for (c, slot) in chunk.iter_mut().enumerate() {
                    *slot = f(a[a_off + c], bv);
                }
            }
            (0, 1) => {
                let av = a[a_off];
                for (c, slot) in chunk.iter_mut().enumerate() {
                    *slot = f(av, b[b_off + c]);
                }
            }
            _ => {
                for (c, slot) in chunk.iter_mut().enumerate() {
                    *slot = f(a[a_off + c * a_in], b[b_off + c * b_in]);
                }
            }
        }
        if row + 1 < outer {
            for d in (0..ndim - 1).rev() {
                idx[d] += 1;
                a_off += a_str[d];
                b_off += b_str[d];
                if idx[d] < out_dims[d] {
                    break;
                }
                a_off -= out_dims[d] * a_str[d];
                b_off -= out_dims[d] * b_str[d];
                idx[d] = 0;
            }
        }
    }
}

/// The reference oracle's broadcast walk: a div/mod index decomposition
/// per output element.
#[cfg(any(test, feature = "oracle"))]
fn zip_broadcast_reference(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    a_idx: &BroadcastIndexer,
    b_idx: &BroadcastIndexer,
    out_dims: &[usize],
    f: &impl Fn(f32, f32) -> f32,
) {
    let strides = Shape::new(out_dims).strides();
    let ndim = out_dims.len();
    let mut idx = vec![0usize; ndim];
    for (lin, slot) in out.iter_mut().enumerate() {
        let mut rem = lin;
        for i in 0..ndim {
            idx[i] = rem / strides[i];
            rem %= strides[i];
        }
        *slot = f(a[a_idx.offset(&idx)], b[b_idx.offset(&idx)]);
    }
}

/// Precomputed mapping from broadcast-output indices back to source
/// offsets: dimensions of extent 1 get stride 0.
struct BroadcastIndexer {
    strides: Vec<usize>,
}

impl BroadcastIndexer {
    fn new(src_dims: &[usize], out_dims: &[usize]) -> Self {
        let pad = out_dims.len() - src_dims.len();
        let src_shape = Shape::new(src_dims);
        let src_strides = src_shape.strides();
        let mut strides = vec![0usize; out_dims.len()];
        for i in 0..src_dims.len() {
            strides[pad + i] = if src_dims[i] == 1 { 0 } else { src_strides[i] };
        }
        BroadcastIndexer { strides }
    }

    #[cfg(any(test, feature = "oracle"))]
    fn offset(&self, idx: &[usize]) -> usize {
        idx.iter().zip(self.strides.iter()).map(|(&i, &s)| i * s).sum()
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_broadcast(rhs, |a, b| a $op b)
            }
        }
        impl $trait<Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                (&self).$method(rhs)
            }
        }
        impl $trait<Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                self.$method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl Neg for Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        assert_eq!((&a + &b).data(), &[11.0, 22.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_slice(&[10.0, 20.0, 30.0]);
        let c = &a + &b;
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![100.0, 200.0], &[2, 1]);
        let c = &a + &b;
        assert_eq!(c.data(), &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]);
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let s = Tensor::scalar(5.0);
        assert_eq!((&a * &s).data(), &[5.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "broadcast-compatible")]
    fn incompatible_broadcast_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        let _ = &a + &b;
    }

    #[test]
    fn broadcast_to_expands() {
        let b = Tensor::from_slice(&[1.0, 2.0]);
        let e = b.broadcast_to(&[3, 2]);
        assert_eq!(e.shape(), &[3, 2]);
        assert_eq!(e.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn sigmoid_stable_in_tails() {
        let t = Tensor::from_slice(&[-100.0, 0.0, 100.0]);
        let s = t.sigmoid();
        assert!(s.all_finite());
        assert_close(s.data(), &[0.0, 0.5, 1.0], 1e-6);
    }

    #[test]
    fn relu_and_clamp() {
        let t = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        assert_eq!(t.relu().data(), &[0.0, 0.5, 2.0]);
        assert_eq!(t.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn broadcast_walk_matches_reference() {
        // Every stride specialization of the odometer walk: (1,1) via
        // distinct shapes, (1,0), (0,1), and the general strided case.
        let cases: &[(&[usize], &[usize])] = &[
            (&[2, 3], &[3]),       // row broadcast
            (&[2, 3], &[2, 1]),    // column broadcast (b inner stride 0)
            (&[2, 1], &[2, 3]),    // column broadcast (a inner stride 0)
            (&[4, 1, 3], &[2, 1]), // both operands broadcast
            (&[1], &[2, 2, 2]),    // scalar-ish expansion
            (&[3, 1], &[1, 4]),    // outer product pattern
        ];
        for (sa, sb) in cases {
            let la: usize = sa.iter().product();
            let lb: usize = sb.iter().product();
            let a = Tensor::arange(la, -1.0, 0.7).reshape(sa);
            let b = Tensor::arange(lb, 2.0, -0.4).reshape(sb);
            let walked = a.zip_broadcast(&b, |x, y| x * 2.0 - y);
            let reference = crate::oracle::reference(|| a.zip_broadcast(&b, |x, y| x * 2.0 - y));
            assert_eq!(reference, walked, "broadcast {sa:?} vs {sb:?}");
        }
    }

    #[test]
    fn neg_and_div() {
        let a = Tensor::from_slice(&[2.0, -4.0]);
        assert_eq!((-&a).data(), &[-2.0, 4.0]);
        let b = Tensor::from_slice(&[2.0, 2.0]);
        assert_eq!((&a / &b).data(), &[1.0, -2.0]);
    }
}
