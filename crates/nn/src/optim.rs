//! The Adam optimizer.
//!
//! Adam holds per-parameter state keyed by the position of each
//! [`ParamSlice`] in the network's parameter list, which is stable across
//! steps for a fixed architecture.

use crate::layers::ParamSlice;

/// Adam optimizer (Kingma & Ba, 2015).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the usual defaults (`β₁ = 0.9`, `β₂ = 0.999`).
    ///
    /// # Panics
    ///
    /// Panics unless `lr > 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step using the accumulated gradients, then zeroes
    /// them.
    pub fn step(&mut self, params: &mut [ParamSlice<'_>]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.values.len()]).collect();
            self.v = self.m.clone();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for i in 0..p.values.len() {
                let g = p.grads[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let mh = m[i] / bc1;
                let vh = v[i] / bc2;
                p.values[i] -= self.lr * mh / (vh.sqrt() + self.eps);
                p.grads[i] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer};
    use crate::loss::mse;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn train_linear(opt: &mut Adam, steps: usize) -> f32 {
        // Learn y = 2x with a single dense unit.
        let mut rng = StdRng::seed_from_u64(13);
        let mut d = Dense::new(1, 1, &mut rng);
        let mut last = f32::INFINITY;
        for k in 0..steps {
            let x = ((k % 10) as f32 - 5.0) / 5.0;
            let input = Tensor::from_vec(vec![x], vec![1]);
            let target = Tensor::from_vec(vec![2.0 * x], vec![1]);
            let out = d.forward(&input, true);
            let (l, g) = mse(&out, &target);
            d.backward(&g);
            opt.step(&mut d.params());
            last = l;
        }
        last
    }

    #[test]
    fn adam_converges_on_linear() {
        let mut opt = Adam::new(0.05);
        let loss = train_linear(&mut opt, 300);
        assert!(loss < 1e-3, "loss={loss}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, -1.0], vec![2]);
        let y = d.forward(&x, true);
        d.backward(&y);
        let mut opt = Adam::new(0.01);
        opt.step(&mut d.params());
        for p in d.params() {
            assert!(p.grads.iter().all(|g| *g == 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_zero_lr() {
        let _ = Adam::new(0.0);
    }
}
