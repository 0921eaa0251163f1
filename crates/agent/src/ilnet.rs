//! The conditional imitation-learning network.
//!
//! Architecture (a compact version of Codevilla et al., sized to our 32×24
//! camera input):
//!
//! ```text
//! image [1,24,32]
//!   → Conv2d(1→8, k5, s2, p2) → ReLU        [8,12,16]
//!   → Conv2d(8→16, k3, s2, p1) → ReLU       [16,6,8]
//!   → Flatten → Dense(768→64) → ReLU        features [64]
//! features ⊕ speed  →  per-command head: Dense(65→32) → ReLU → Dense(32→3)
//! output: [steer, throttle, brake]
//! ```
//!
//! One head exists per [`Command`]; only the head selected by the current
//! planner command is evaluated and trained — the *conditional* part of
//! conditional imitation learning.

use crate::features::{NET_HEIGHT, NET_WIDTH};
use avfi_nn::layers::{Conv2d, Dense, Flatten, ParamSlice, Relu};
use avfi_nn::loss::weighted_mse;
use avfi_nn::network::{ActivationOverride, Sequential};
use avfi_nn::serialize::{load_weights, save_weights, LoadWeightsError};
use avfi_nn::Tensor;
use avfi_sim::map::route::Command;
use avfi_sim::physics::VehicleControl;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of trunk output features.
pub const FEATURE_DIM: usize = 64;

/// Per-output loss weights: steering dominates (Codevilla et al. weigh
/// steer highest).
pub const LOSS_WEIGHTS: [f32; 3] = [2.0, 0.5, 0.5];

/// The conditional imitation network; see the module docs.
#[derive(Debug, Clone)]
pub struct IlNetwork {
    trunk: Sequential,
    heads: Vec<Sequential>,
    last_branch: Option<usize>,
}

impl IlNetwork {
    /// Builds a freshly initialized network.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trunk = Sequential::new();
        trunk.push(Conv2d::new(1, 8, 5, 2, 2, &mut rng));
        trunk.push(Relu::new());
        trunk.push(Conv2d::new(8, 16, 3, 2, 1, &mut rng));
        trunk.push(Relu::new());
        trunk.push(Flatten::new());
        trunk.push(Dense::new(
            16 * (NET_HEIGHT / 4) * (NET_WIDTH / 4),
            FEATURE_DIM,
            &mut rng,
        ));
        trunk.push(Relu::new());
        let heads = (0..Command::ALL.len())
            .map(|_| {
                let mut h = Sequential::new();
                h.push(Dense::new(FEATURE_DIM + 1, 32, &mut rng));
                h.push(Relu::new());
                h.push(Dense::new(32, 3, &mut rng));
                h
            })
            .collect();
        IlNetwork {
            trunk,
            heads,
            last_branch: None,
        }
    }

    /// Rebuilds a network of the default architecture and loads trained
    /// weights into it.
    ///
    /// # Errors
    ///
    /// Propagates [`LoadWeightsError`] for malformed or mismatched bytes.
    pub fn from_weights(bytes: &[u8]) -> Result<Self, LoadWeightsError> {
        let mut net = Self::new(0);
        load_weights(bytes, &mut net.params())?;
        Ok(net)
    }

    /// Serializes the current weights.
    pub fn to_weights(&mut self) -> Vec<u8> {
        save_weights(&self.params())
    }

    /// Forward pass: image tensor `[1, 24, 32]`, normalized speed, command.
    pub fn forward(&mut self, image: &Tensor, speed: f32, command: Command, train: bool) -> Tensor {
        let features = self.trunk.forward(image, train);
        // One exact-size allocation; `into_vec() + push` would realloc.
        let mut head_in = Vec::with_capacity(features.len() + 1);
        head_in.extend_from_slice(features.data());
        head_in.push(speed);
        let n = head_in.len();
        let branch = command.index();
        self.last_branch = Some(branch);
        self.heads[branch].forward(&Tensor::from_vec(head_in, vec![n]), train)
    }

    /// Backward pass for the last `forward` call.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let branch = self.last_branch.expect("backward before forward");
        let grad_head_in = self.heads[branch].backward(grad_out);
        // Strip the speed slot; the remaining gradient flows into the
        // trunk.
        let mut g = grad_head_in.into_vec();
        g.pop();
        let n = g.len();
        let _ = self.trunk.backward(&Tensor::from_vec(g, vec![n]));
    }

    /// Supervised step helper: forward + weighted-MSE + backward; returns
    /// the loss. The caller owns the optimizer step.
    pub fn loss_backward(
        &mut self,
        image: &Tensor,
        speed: f32,
        command: Command,
        target: &[f32; 3],
    ) -> f32 {
        let out = self.forward(image, speed, command, true);
        let tgt = Tensor::from_vec(target.to_vec(), vec![3]);
        let (loss, grad) = weighted_mse(&out, &tgt, &LOSS_WEIGHTS);
        self.backward(&grad);
        loss
    }

    /// Inference: produces a vehicle control (clamped to legal ranges).
    pub fn predict(&mut self, image: &Tensor, speed: f32, command: Command) -> VehicleControl {
        let out = self.forward(image, speed, command, false);
        let d = out.data();
        VehicleControl::new(d[0] as f64, d[1] as f64, d[2] as f64)
    }

    /// All parameters (trunk first, then heads), named.
    pub fn params(&mut self) -> Vec<ParamSlice<'_>> {
        let mut out = Vec::new();
        for mut p in self.trunk.params() {
            p.name = format!("trunk.{}", p.name);
            out.push(p);
        }
        for (h, head) in self.heads.iter_mut().enumerate() {
            for mut p in head.params() {
                p.name = format!("head{h}.{}", p.name);
                out.push(p);
            }
        }
        out
    }

    /// Installs a stuck-at neuron fault after a trunk layer (ML fault
    /// injection).
    pub fn add_trunk_override(&mut self, layer: usize, unit: usize, value: f32) {
        self.trunk
            .add_override(ActivationOverride { layer, unit, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Tensor {
        Tensor::from_vec(
            (0..NET_WIDTH * NET_HEIGHT)
                .map(|i| ((i % 13) as f32 - 6.0) * 0.05)
                .collect(),
            vec![1, NET_HEIGHT, NET_WIDTH],
        )
    }

    #[test]
    fn output_is_three_values() {
        let mut net = IlNetwork::new(1);
        let out = net.forward(&image(), 0.4, Command::Follow, false);
        assert_eq!(out.shape(), &[3]);
        assert!(out.is_finite());
    }

    #[test]
    fn heads_differ_by_command() {
        let mut net = IlNetwork::new(2);
        let a = net.forward(&image(), 0.4, Command::Left, false);
        let b = net.forward(&image(), 0.4, Command::Right, false);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn speed_input_matters() {
        let mut net = IlNetwork::new(3);
        let a = net.forward(&image(), 0.0, Command::Follow, false);
        let b = net.forward(&image(), 1.0, Command::Follow, false);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn loss_decreases_with_training() {
        use avfi_nn::optim::Adam;
        let mut net = IlNetwork::new(4);
        let mut opt = Adam::new(0.003);
        let img = image();
        let target = [0.3f32, 0.5, 0.0];
        let first = net.loss_backward(&img, 0.4, Command::Follow, &target);
        opt.step(&mut net.params());
        let mut last = first;
        for _ in 0..60 {
            last = net.loss_backward(&img, 0.4, Command::Follow, &target);
            opt.step(&mut net.params());
        }
        assert!(last < first * 0.1, "first={first} last={last}");
    }

    #[test]
    fn weights_roundtrip() {
        let mut a = IlNetwork::new(5);
        let bytes = a.to_weights();
        let mut b = IlNetwork::from_weights(&bytes).unwrap();
        let img = image();
        let ya = a.forward(&img, 0.2, Command::Straight, false);
        let yb = b.forward(&img, 0.2, Command::Straight, false);
        assert_eq!(ya.data(), yb.data());
    }

    #[test]
    fn neuron_override_changes_output() {
        let mut net = IlNetwork::new(6);
        let img = image();
        let clean = net.forward(&img, 0.4, Command::Follow, false);
        // Stuck-at on the final trunk ReLU (layer index 6), unit 0.
        net.add_trunk_override(6, 0, 50.0);
        let faulty = net.forward(&img, 0.4, Command::Follow, false);
        assert_ne!(clean.data(), faulty.data());
    }

    #[test]
    fn param_count_is_substantial() {
        let mut net = IlNetwork::new(7);
        // conv1: 8*1*25+8; conv2: 16*8*9+16; dense: 768*64+64;
        // heads: 4 * (65*32+32 + 32*3+3).
        let expected =
            (8 * 25 + 8) + (16 * 8 * 9 + 16) + (768 * 64 + 64) + 4 * (65 * 32 + 32 + 32 * 3 + 3);
        let count: usize = net.params().iter().map(|p| p.values.len()).sum();
        assert_eq!(count, expected);
    }
}
