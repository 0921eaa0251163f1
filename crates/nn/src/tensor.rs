//! Dense `f32` tensors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major tensor of `f32` values with a dynamic shape.
///
/// This is deliberately minimal: the network layers index into the raw
/// buffer directly, so the tensor only needs shape bookkeeping, elementwise
/// ops, and a few reductions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "shape must be non-empty");
        let n: usize = shape.iter().product();
        assert!(n > 0, "shape must have no zero dimension");
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "data length {} != shape product {n}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Tensor shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor has no elements (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(mut self, shape: Vec<usize>) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(self.data.len(), n, "reshape element count mismatch");
        self.shape = shape;
        self
    }

    /// `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}[{} elems]", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(vec![2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.shape(), &[2, 3]);
        assert!(t.data().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![3]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "shape product")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(vec![1.0], vec![3]);
    }

    #[test]
    fn reshape_keeps_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![4]).reshaped(vec![2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn finite_check() {
        let mut t = Tensor::zeros(vec![2]);
        assert!(t.is_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.is_finite());
    }
}
