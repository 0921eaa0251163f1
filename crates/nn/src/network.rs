//! The [`Sequential`] network container.

use crate::layers::{Layer, ParamSlice};
use crate::tensor::Tensor;

/// An activation override installed by the machine-learning fault injector:
/// after layer `layer` runs, output unit `unit` is forced to `value`
/// (a stuck-at neuron fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationOverride {
    /// Index of the layer whose output is patched.
    pub layer: usize,
    /// Flat index of the output unit.
    pub unit: usize,
    /// Forced value.
    pub value: f32,
}

/// A stack of layers applied in order.
#[derive(Debug, Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    overrides: Vec<ActivationOverride>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            overrides: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Installs a stuck-at activation override (ML neuron fault).
    pub fn add_override(&mut self, ov: ActivationOverride) {
        self.overrides.push(ov);
    }

    /// Runs the stack forward. The input is only cloned when the stack is
    /// empty; the first layer reads it in place.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let mut out = layer.forward(x.as_ref().unwrap_or(input), train);
            for ov in &self.overrides {
                if ov.layer == i && ov.unit < out.len() {
                    out.data_mut()[ov.unit] = ov.value;
                }
            }
            x = Some(out);
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// Backpropagates through the stack, returning ∂loss/∂input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// All parameters with qualified names (`"<idx><kind>.<param>"`).
    pub fn params(&mut self) -> Vec<ParamSlice<'_>> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let kind = layer.kind();
            for mut p in layer.params() {
                p.name = format!("{kind}{i}.{}", p.name);
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::loss::mse;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(8, 1, &mut rng));
        net
    }

    #[test]
    fn sequential_learns_xor() {
        let mut net = xor_net(20);
        let mut opt = Adam::new(0.02);
        let data = [
            ([0.0f32, 0.0], 0.0f32),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        for _ in 0..800 {
            for (x, y) in data {
                let out = net.forward(&Tensor::from_vec(x.to_vec(), vec![2]), true);
                let (_, g) = mse(&out, &Tensor::from_vec(vec![y], vec![1]));
                net.backward(&g);
                opt.step(&mut net.params());
            }
        }
        for (x, y) in data {
            let out = net.forward(&Tensor::from_vec(x.to_vec(), vec![2]), false);
            assert!(
                (out.data()[0] - y).abs() < 0.25,
                "xor({x:?}) = {} want {y}",
                out.data()[0]
            );
        }
    }

    #[test]
    fn params_are_named_and_counted() {
        let mut net = xor_net(21);
        let names: Vec<String> = net.params().iter().map(|p| p.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "dense0.weight",
                "dense0.bias",
                "dense2.weight",
                "dense2.bias"
            ]
        );
        let count: usize = net.params().iter().map(|p| p.values.len()).sum();
        assert_eq!(count, 2 * 8 + 8 + 8 + 1);
    }

    #[test]
    fn override_forces_neuron() {
        let mut net = Sequential::new();
        let mut rng = StdRng::seed_from_u64(22);
        net.push(Dense::new(2, 4, &mut rng));
        net.push(Relu::new());
        let x = Tensor::from_vec(vec![0.1, 0.2], vec![2]);
        let clean = net.forward(&x, false);
        net.add_override(ActivationOverride {
            layer: 1,
            unit: 2,
            value: 42.0,
        });
        let out = net.forward(&x, false);
        assert_eq!(out.data()[2], 42.0);
        assert_ne!(clean.data()[2], 42.0);
    }
}
