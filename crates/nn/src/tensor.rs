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
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]).unwrap();
        let r = t.clone().reshape(vec![4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![3]).is_err());
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
}
