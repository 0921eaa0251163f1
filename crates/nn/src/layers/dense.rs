//! Fully-connected layer.

use super::panel::{lane_blocks, WeightPanel};
use super::{Layer, ParamSlice};
use crate::init::he_uniform;
use crate::tensor::Tensor;
use rand::Rng;

/// A fully-connected (affine) layer: `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `[out_dim × in_dim]`.
    weight: Vec<f32>,
    /// `weight` interleaved for the forward kernel.
    panel: WeightPanel,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dimensions must be non-zero");
        let mut weight = vec![0.0; in_dim * out_dim];
        he_uniform(rng, in_dim, &mut weight);
        Dense {
            in_dim,
            out_dim,
            weight,
            panel: WeightPanel::default(),
            bias: vec![0.0; out_dim],
            grad_weight: vec![0.0; in_dim * out_dim],
            grad_bias: vec![0.0; out_dim],
            cached_input: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Scalar reference forward — the pre-blocking loop, retained as the
    /// differential oracle for the lane-batched kernel. Never caches.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.len(),
            self.in_dim,
            "dense expects {} inputs, got {}",
            self.in_dim,
            input.len()
        );
        let x = input.data();
        let mut y = vec![0.0f32; self.out_dim];
        for (o, yo) in y.iter_mut().enumerate() {
            let row = &self.weight[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.bias[o];
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            *yo = acc;
        }
        Tensor::from_vec(y, vec![self.out_dim])
    }

    /// Outputs `first..first + L`, one accumulator lane each, over one
    /// pass of the input.
    fn forward_block<const L: usize>(&self, x: &[f32], first: usize, y: &mut [f32]) {
        let mut acc: [f32; L] = std::array::from_fn(|l| self.bias[first + l]);
        for (w, &xi) in self.panel.block::<L>(first, self.in_dim).iter().zip(x) {
            for (a, &wl) in acc.iter_mut().zip(w) {
                *a += wl * xi;
            }
        }
        y[first..first + L].copy_from_slice(&acc);
    }
}

impl Layer for Dense {
    /// Blocked, lane-batched forward: the outputs are split into lane
    /// blocks (16 wide, then 8, then single), and a block's lanes share
    /// one pass over the input with their weights read contiguously from
    /// the packed panel. Lanes are independent outputs and each output
    /// accumulates in the exact scalar order, so the result is
    /// bit-identical to [`Dense::forward_reference`].
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(
            input.len(),
            self.in_dim,
            "dense expects {} inputs, got {}",
            self.in_dim,
            input.len()
        );
        self.panel.refresh(&self.weight, self.in_dim);
        let x = input.data();
        let mut y = vec![0.0f32; self.out_dim];
        for (first, lanes) in lane_blocks(self.out_dim) {
            let block = match lanes {
                16 => Self::forward_block::<16>,
                8 => Self::forward_block::<8>,
                _ => Self::forward_block::<1>,
            };
            block(self, x, first, &mut y);
        }
        self.cached_input = if train { Some(input.clone()) } else { None };
        Tensor::from_vec(y, vec![self.out_dim])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let x = input.data();
        let gy = grad_out.data();
        assert_eq!(gy.len(), self.out_dim);
        let mut gx = vec![0.0f32; self.in_dim];
        for (o, &g) in gy.iter().enumerate() {
            self.grad_bias[o] += g;
            let row_w = &self.weight[o * self.in_dim..(o + 1) * self.in_dim];
            let row_gw = &mut self.grad_weight[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                row_gw[i] += g * x[i];
                gx[i] += row_w[i] * g;
            }
        }
        Tensor::from_vec(gx, vec![self.in_dim])
    }

    fn params(&mut self) -> Vec<ParamSlice<'_>> {
        self.panel.mark_stale();
        vec![
            ParamSlice {
                name: "weight".to_string(),
                values: &mut self.weight,
                grads: &mut self.grad_weight,
            },
            ParamSlice {
                name: "bias".to_string(),
                values: &mut self.bias,
                grads: &mut self.grad_bias,
            },
        ]
    }

    fn kind(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::check_input_gradient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_is_affine() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights.
        {
            let mut ps = d.params();
            ps[0].values.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            ps[1].values.copy_from_slice(&[0.5, -0.5]);
        }
        let y = d.forward(&Tensor::from_vec(vec![1.0, 1.0], vec![2]), false);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dense::new(5, 3, &mut rng);
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.8, 0.1, -0.5], vec![5]);
        check_input_gradient(&mut d, &x, 1e-2);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -1.0, 0.25], vec![3]);
        let out = d.forward(&x, true);
        let _ = d.backward(&out.clone());
        // Analytic dL/dW[0][1] for L = Σ out²/2 is out[0] * x[1].
        let expected = out.data()[0] * x.data()[1];
        let got = d.params()[0].grads[1];
        assert!((got - expected).abs() < 1e-5, "got {got}, want {expected}");
    }

    #[test]
    fn grads_accumulate_until_cleared() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut d = Dense::new(2, 1, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 1.0], vec![2]);
        for _ in 0..2 {
            let y = d.forward(&x, true);
            d.backward(&y);
        }
        let g1 = d.params()[1].grads[0];
        assert!(g1.abs() > 0.0);
    }

    #[test]
    #[should_panic(expected = "dense expects")]
    fn rejects_wrong_input_size() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut d = Dense::new(3, 2, &mut rng);
        let _ = d.forward(&Tensor::zeros(vec![4]), false);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn inference_forward_does_not_cache() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut d = Dense::new(3, 2, &mut rng);
        let y = d.forward(&Tensor::zeros(vec![3]), false);
        let _ = d.backward(&y);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn inference_forward_clears_training_cache() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::zeros(vec![3]);
        let _ = d.forward(&x, true);
        // An inference pass must not leave a stale training cache behind.
        let y = d.forward(&x, false);
        let _ = d.backward(&y);
    }
}
