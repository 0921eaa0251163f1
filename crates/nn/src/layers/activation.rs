//! Elementwise activation layers.

use super::Layer;
use crate::tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
    shape: Vec<usize>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask.clear();
            self.mask.extend(input.data().iter().map(|v| *v > 0.0));
            self.shape = input.shape().to_vec();
        } else {
            // Inference allocates no mask; a stale one must not linger.
            self.mask.clear();
            self.shape.clear();
        }
        Tensor::from_vec(
            input.data().iter().map(|v| v.max(0.0)).collect(),
            input.shape().to_vec(),
        )
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.mask.len(), "backward before forward");
        Tensor::from_vec(
            grad_out
                .data()
                .iter()
                .zip(&self.mask)
                .map(|(g, m)| if *m { *g } else { 0.0 })
                .collect(),
            self.shape.clone(),
        )
    }

    fn kind(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(vec![-1.0, 0.0, 2.0], vec![3]), true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], vec![3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn preserves_shape() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::zeros(vec![2, 3, 4]), false);
        assert_eq!(y.shape(), &[2, 3, 4]);
    }
}
