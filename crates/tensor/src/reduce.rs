//! Reductions (sum, mean, max, argmax), softmax / log-softmax, and
//! gradient-side helpers such as [`Tensor::sum_to`].

use crate::kernels::kernels;
use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data().iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.data().iter().fold(f32::INFINITY, |m, &x| m.min(x))
    }

    /// Sums along `axis`. With `keepdim`, the reduced dimension stays as
    /// extent 1; otherwise it is removed.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let dims = self.shape();
        assert!(axis < dims.len(), "axis {axis} out of range for {:?}", dims);
        let outer: usize = dims[..axis].iter().product();
        let extent = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![0.0; outer * inner];
        kernels().sum_axis(self.data(), &mut out, outer, extent, inner);
        let mut new_dims: Vec<usize> = dims.to_vec();
        if keepdim {
            new_dims[axis] = 1;
        } else {
            new_dims.remove(axis);
        }
        Tensor::from_vec(out, &new_dims)
    }

    /// Mean along `axis` (see [`Tensor::sum_axis`]).
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let extent = self.shape()[axis] as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / extent)
    }

    /// Maximum along `axis`.
    pub fn max_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let dims = self.shape();
        assert!(axis < dims.len(), "axis {axis} out of range for {:?}", dims);
        let outer: usize = dims[..axis].iter().product();
        let extent = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![f32::NEG_INFINITY; outer * inner];
        for o in 0..outer {
            for e in 0..extent {
                let base = (o * extent + e) * inner;
                for i in 0..inner {
                    let v = self.data()[base + i];
                    let slot = &mut out[o * inner + i];
                    if v > *slot {
                        *slot = v;
                    }
                }
            }
        }
        let mut new_dims: Vec<usize> = dims.to_vec();
        if keepdim {
            new_dims[axis] = 1;
        } else {
            new_dims.remove(axis);
        }
        Tensor::from_vec(out, &new_dims)
    }

    /// Index of the maximum along the last axis, one per leading slice.
    ///
    /// For a `[batch, classes]` tensor this is the predicted class per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics on a 0-dimensional tensor.
    pub fn argmax_last_axis(&self) -> Vec<usize> {
        assert!(self.ndim() >= 1, "argmax of scalar");
        let inner = *self.shape().last().expect("ndim >= 1");
        let rows = self.len() / inner;
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data()[r * inner..(r + 1) * inner];
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        out
    }

    /// Softmax along the last axis, numerically stabilized by max
    /// subtraction.
    pub fn softmax_last_axis(&self) -> Tensor {
        let inner = *self.shape().last().expect("softmax of scalar");
        let rows = self.len() / inner;
        let mut out = vec![0.0; self.len()];
        kernels().softmax_rows(self.data(), &mut out, rows, inner);
        Tensor::from_vec(out, self.shape())
    }

    /// Log-softmax along the last axis (stable log-sum-exp form).
    pub fn log_softmax_last_axis(&self) -> Tensor {
        let inner = *self.shape().last().expect("log_softmax of scalar");
        let rows = self.len() / inner;
        let mut out = vec![0.0; self.len()];
        kernels().log_softmax_rows(self.data(), &mut out, rows, inner);
        Tensor::from_vec(out, self.shape())
    }

    /// Reduces this tensor (by summation) down to `dims`, inverting a
    /// broadcast. This is the adjoint of [`Tensor::broadcast_to`] and is
    /// used by autograd to accumulate gradients of broadcast operands.
    ///
    /// # Panics
    ///
    /// Panics if `dims` cannot be broadcast to this tensor's shape.
    pub fn sum_to(&self, dims: &[usize]) -> Tensor {
        if self.shape() == dims {
            return self.clone();
        }
        let my_dims = self.shape().to_vec();
        assert!(
            crate::shape::broadcast_shapes(dims, &my_dims).as_deref() == Some(&my_dims[..]),
            "cannot sum {:?} down to {:?}",
            my_dims,
            dims
        );
        let mut t = self.clone();
        // Remove leading dimensions that `dims` lacks.
        while t.ndim() > dims.len() {
            t = t.sum_axis(0, false);
        }
        // Collapse broadcast (extent-1) dimensions.
        for (axis, &d) in dims.iter().enumerate() {
            if d == 1 && t.shape()[axis] != 1 {
                t = t.sum_axis(axis, true);
            }
        }
        t.reshape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn sum_axis_all_axes() {
        let t = Tensor::arange(6, 1.0, 1.0).reshape(&[2, 3]);
        assert_eq!(t.sum_axis(0, false).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis(1, false).data(), &[6.0, 15.0]);
        assert_eq!(t.sum_axis(1, true).shape(), &[2, 1]);
    }

    #[test]
    fn mean_and_max_axis() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0, 4.0, 6.0], &[2, 3]);
        assert_eq!(t.mean_axis(1, false).data(), &[3.0, 4.0]);
        assert_eq!(t.max_axis(0, false).data(), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3], &[2, 3]);
        assert_eq!(t.argmax_last_axis(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let s = t.softmax_last_axis();
        assert!(s.all_finite(), "softmax must be stable for large logits");
        let row0: f32 = s.data()[..3].iter().sum();
        let row1: f32 = s.data()[3..].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-5 && (row1 - 1.0).abs() < 1e-5);
        assert_close(&s.data()[3..], &[1.0 / 3.0; 3], 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.0], &[2, 2]);
        let a = t.log_softmax_last_axis();
        let b = t.softmax_last_axis().ln();
        assert_close(a.data(), b.data(), 1e-5);
    }

    #[test]
    fn sum_to_inverts_broadcast() {
        let row = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let big = row.broadcast_to(&[4, 3]);
        let back = big.sum_to(&[3]);
        assert_eq!(back.data(), &[4.0, 8.0, 12.0]);

        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let big = col.broadcast_to(&[2, 5]);
        let back = big.sum_to(&[2, 1]);
        assert_eq!(back.data(), &[5.0, 10.0]);
    }

    #[test]
    fn sum_to_identity_when_same_shape() {
        let t = Tensor::arange(4, 0.0, 1.0).reshape(&[2, 2]);
        assert_eq!(t.sum_to(&[2, 2]), t);
    }

    #[test]
    fn sum_to_scalar_shape() {
        let t = Tensor::ones(&[2, 3]);
        let s = t.sum_to(&[]);
        assert_eq!(s.item(), 6.0);
    }
}
