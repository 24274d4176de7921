//! A minimal dense tensor with row-major storage.

use msvs_types::{Error, Result};

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// Rank-2 tensors `[batch, features]` feed dense layers; rank-3 tensors
/// `[batch, channels, length]` feed 1-D convolutions.
///
/// # Examples
/// ```
/// # use msvs_nn::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]).unwrap();
/// assert_eq!(t.get2(1, 0), 3.0);
/// assert_eq!(t.shape(), &[2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Builds a zero-filled tensor of the given shape.
    ///
    /// # Panics
    /// Panics if the shape has a zero dimension.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        assert!(
            n > 0 && !shape.is_empty(),
            "tensor shape must be non-empty with positive dims, got {shape:?}"
        );
        Self {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Errors
    /// Returns [`Error::ShapeMismatch`] if `data.len()` does not equal the
    /// product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: Vec<usize>) -> Result<Self> {
        let n: usize = shape.iter().product();
        if n != data.len() || shape.is_empty() {
            return Err(Error::shape(
                format!("{shape:?} ({n} elems)"),
                format!("{} elems", data.len()),
            ));
        }
        Ok(Self { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: tensors have at least one element by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Immutable view of the raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes in place (same element count).
    ///
    /// # Errors
    /// Returns [`Error::ShapeMismatch`] if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Self> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(Error::shape(
                format!("{} elems", self.data.len()),
                format!("{shape:?} ({n} elems)"),
            ));
        }
        self.shape = shape;
        Ok(self)
    }

    /// Element access for rank-2 tensors.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2 or indices are out of bounds.
    #[inline]
    pub fn get2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element access for rank-2 tensors.
    #[inline]
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c] = v;
    }

    /// Element access for rank-3 tensors `[b, c, t]`.
    #[inline]
    pub fn get3(&self, b: usize, c: usize, t: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3);
        self.data[(b * self.shape[1] + c) * self.shape[2] + t]
    }

    /// Adds `v` at a rank-3 index.
    #[inline]
    pub fn add3(&mut self, b: usize, c: usize, t: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 3);
        self.data[(b * self.shape[1] + c) * self.shape[2] + t] += v;
    }

    /// Matrix product of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    /// Panics if either operand is not rank-2 or the inner dims disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be rank-2");
        assert_eq!(rhs.shape.len(), 2, "rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions must agree: {k} vs {k2}");
        let mut out = Tensor::zeros(vec![m, n]);
        crate::kernels::gemm_zero_skip(&self.data, &rhs.data, &mut out.data, m, k, n);
        out
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires rank-2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(vec![n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// In-place `self += other * s` (axpy).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy needs equal shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Index of the maximum element in a rank-2 row.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2 or `row` is out of bounds.
    pub fn argmax_row(&self, row: usize) -> usize {
        assert_eq!(self.shape.len(), 2);
        let n = self.shape[1];
        let slice = &self.data[row * n..(row + 1) * n];
        slice
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN in logits"))
            .map(|(i, _)| i)
            .expect("row is non-empty")
    }

    /// Extracts row `row` of a rank-2 tensor as a vector.
    pub fn row(&self, row: usize) -> Vec<f32> {
        assert_eq!(self.shape.len(), 2);
        let n = self.shape[1];
        self.data[row * n..(row + 1) * n].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_shape() {
        assert!(Tensor::from_vec(vec![1.0; 6], vec![2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], vec![2, 3]).is_err());
        assert!(Tensor::from_vec(vec![], vec![]).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], vec![3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![3.0, -1.0, 2.0, 0.5], vec![2, 2]).unwrap();
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], vec![2, 2]).unwrap();
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), vec![3, 4]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get2(2, 1), a.get2(1, 2));
    }

    #[test]
    fn rank3_indexing() {
        let mut t = Tensor::zeros(vec![2, 3, 4]);
        t.add3(1, 2, 3, 9.0);
        assert_eq!(t.get3(1, 2, 3), 9.0);
        assert_eq!(t.data()[23], 9.0);
        t.add3(1, 2, 3, 1.0);
        assert_eq!(t.get3(1, 2, 3), 10.0);
        assert_eq!(t.get3(0, 0, 0), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]).unwrap();
        let r = t.clone().reshape(vec![4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![3]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], vec![2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], vec![2]).unwrap();
        a.axpy(10.0, &b);
        assert_eq!(a.data(), &[31.0, 52.0]);
    }

    #[test]
    fn argmax_and_row() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 2.0, -1.0, 0.0], vec![2, 3]).unwrap();
        assert_eq!(t.argmax_row(0), 1);
        assert_eq!(t.argmax_row(1), 0);
        assert_eq!(t.row(1), vec![2.0, -1.0, 0.0]);
    }

    #[test]
    fn mean_and_fill() {
        let mut t = Tensor::zeros(vec![2, 2]);
        t.fill(3.0);
        assert!(t.data().iter().all(|&v| v == 3.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        let _ = a.matmul(&b);
    }
}
