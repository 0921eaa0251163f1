//! Neural-network layers with hand-written forward/backward passes.
//!
//! Layers are stateful: `forward` caches what `backward` needs, and
//! parameter gradients accumulate until an optimizer consumes them. This
//! sample-at-a-time design (no batch dimension) keeps the code auditable;
//! minibatching is done by accumulating gradients across samples before an
//! optimizer step.

mod activation;
mod conv;
mod dense;
mod flatten;
mod panel;

pub use activation::Relu;
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;

use crate::tensor::Tensor;

/// A named view of one parameter array and its gradient accumulator.
///
/// This is the machine-learning fault-injection surface: AVFI's localizer
/// enumerates `ParamSlice`s to pick "specific neurons and layers", and its
/// injectors mutate `values` in place (noise, bit flips, stuck-at).
#[derive(Debug)]
pub struct ParamSlice<'a> {
    /// Qualified parameter name, e.g. `"conv0.weight"`.
    pub name: String,
    /// Parameter values (mutable: optimizers and fault injectors write
    /// here).
    pub values: &'a mut [f32],
    /// Gradient accumulator, same length as `values`.
    pub grads: &'a mut [f32],
}

/// A differentiable layer. `Send + Sync` so one built network can be
/// shared by worker threads that each drive a clone of it.
pub trait Layer: std::fmt::Debug + Send + Sync + LayerClone {
    /// Computes the layer output. With `train = true` the layer caches
    /// whatever `backward` needs; with `train = false` no caching happens —
    /// inference is allocation-lean and a subsequent `backward` panics.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out` (∂loss/∂output), accumulating parameter
    /// gradients and returning ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// May panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable views of the layer's parameters (empty for stateless
    /// layers). This is the only way to write them: a layer may keep a
    /// copy derived from its weights (the packed panel of its forward
    /// kernel), which a call here marks stale for the next `forward`.
    fn params(&mut self) -> Vec<ParamSlice<'_>> {
        Vec::new()
    }

    /// Short kind tag for diagnostics ("dense", "conv2d", …).
    fn kind(&self) -> &'static str;
}

/// Boxed cloning, so a network of boxed layers is `Clone`; every `Clone`
/// layer has it. A clone written through `params()` repacks its own panel.
pub trait LayerClone {
    /// A boxed copy of the layer.
    fn boxed_clone(&self) -> Box<dyn Layer>;
}

impl<L: Layer + Clone + 'static> LayerClone for L {
    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Finite-difference gradient check for a layer's input gradient.
    ///
    /// Perturbs each input element, measures the change of a scalar loss
    /// `L = Σ out²/2`, and compares against the analytic `backward` result.
    pub fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let out = layer.forward(input, true);
        // dL/dout = out for L = Σ out² / 2.
        let grad_in = layer.backward(&out.clone());
        let eps = 1e-3;
        let base_loss: f32 = out.data().iter().map(|v| v * v * 0.5).sum();
        for i in 0..input.len() {
            let mut pert = input.clone();
            pert.data_mut()[i] += eps;
            let out2 = layer.forward(&pert, false);
            let loss2: f32 = out2.data().iter().map(|v| v * v * 0.5).sum();
            let numeric = (loss2 - base_loss) / eps;
            let analytic = grad_in.data()[i];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                "grad mismatch at {i}: numeric={numeric} analytic={analytic}"
            );
        }
    }
}
