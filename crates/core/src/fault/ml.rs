//! Machine-learning faults: corruption of the IL-CNN itself.
//!
//! "AVFI injects faults into the neural network by adding noise into the
//! parameters of the machine learning model (e.g., weights of the neural
//! network), which is modeled on real-world hardware failures."
//!
//! Fault localization — "choosing specific neurons and layers in the
//! IL-CNN" — is part of each fault: weight faults select parameters with a
//! [`ParamSelector`] (see [`crate::localizer`]), and
//! [`MlFault::NeuronStuckAt`] names its trunk layer and unit. This module
//! defines the mutation models applied at those sites.

use crate::localizer::ParamSelector;
use avfi_agent::IlNetwork;
use avfi_sim::rng::normal;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// An ML fault plan. ML faults are applied to the network once, at agent
/// construction (modeling a corrupted model file or a latched hardware
/// fault in the accelerator's weight memory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MlFault {
    /// Additive Gaussian noise on a fraction of the selected parameters.
    WeightNoise {
        /// Noise standard deviation (weights are O(0.1)).
        sigma: f64,
        /// Fraction of selected parameters perturbed, `0..=1`.
        fraction: f64,
        /// Which parameters are eligible.
        selector: ParamSelector,
    },
    /// Random bit flips in selected parameters (f32 bit space).
    WeightBitFlip {
        /// Number of flipped bits.
        flips: usize,
        /// Which parameters are eligible.
        selector: ParamSelector,
    },
    /// A neuron stuck at a value after a trunk layer.
    NeuronStuckAt {
        /// Trunk layer index.
        layer: usize,
        /// Flat unit index within the layer output.
        unit: usize,
        /// Stuck value.
        value: f32,
    },
}

impl MlFault {
    /// Label for tables.
    pub fn label(&self) -> String {
        match self {
            MlFault::WeightNoise { sigma, .. } => format!("weight-noise σ={sigma}"),
            MlFault::WeightBitFlip { flips, .. } => format!("weight-bitflip x{flips}"),
            MlFault::NeuronStuckAt { layer, unit, .. } => {
                format!("neuron-stuck L{layer}#{unit}")
            }
        }
    }

    /// Applies the fault to a network. Deterministic given `rng`.
    pub fn apply(&self, net: &mut IlNetwork, rng: &mut StdRng) {
        match self {
            MlFault::WeightNoise {
                sigma,
                fraction,
                selector,
            } => {
                let mut params = net.params();
                for p in params.iter_mut().filter(|p| selector.matches(&p.name)) {
                    for v in p.values.iter_mut() {
                        if rng.random_range(0.0..1.0) < *fraction {
                            *v += normal(rng, 0.0, *sigma) as f32;
                        }
                    }
                }
            }
            MlFault::WeightBitFlip { flips, selector } => {
                // Collect eligible (param, elem) sites, then flip `flips`
                // random bits across them.
                let mut params = net.params();
                let eligible: Vec<usize> = params
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| selector.matches(&p.name))
                    .map(|(i, _)| i)
                    .collect();
                if eligible.is_empty() {
                    return;
                }
                for _ in 0..*flips {
                    let pi = eligible[rng.random_range(0..eligible.len())];
                    let len = params[pi].values.len();
                    let ei = rng.random_range(0..len);
                    let bit = rng.random_range(0..32u8);
                    let v = params[pi].values[ei];
                    // Work in f32 bit space (the deployed model runs f32).
                    let flipped = f32::from_bits(v.to_bits() ^ (1u32 << bit));
                    params[pi].values[ei] = flipped;
                }
            }
            MlFault::NeuronStuckAt { layer, unit, value } => {
                net.add_trunk_override(*layer, *unit, *value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::rng::stream_rng;

    fn param_snapshot(net: &mut IlNetwork) -> Vec<Vec<f32>> {
        net.params().iter().map(|p| p.values.to_vec()).collect()
    }

    #[test]
    fn weight_noise_perturbs_selected_layers_only() {
        let mut net = IlNetwork::new(1);
        let before = param_snapshot(&mut net);
        let fault = MlFault::WeightNoise {
            sigma: 0.5,
            fraction: 1.0,
            selector: ParamSelector::Prefix("trunk.".to_string()),
        };
        fault.apply(&mut net, &mut stream_rng(1, 0));
        let after = param_snapshot(&mut net);
        let names: Vec<String> = net.params().iter().map(|p| p.name.clone()).collect();
        for ((b, a), name) in before.iter().zip(&after).zip(&names) {
            if name.starts_with("trunk.") {
                assert_ne!(b, a, "{name} unchanged");
            } else {
                assert_eq!(b, a, "{name} should be untouched");
            }
        }
    }

    #[test]
    fn weight_noise_fraction_zero_is_noop() {
        let mut net = IlNetwork::new(2);
        let before = param_snapshot(&mut net);
        let fault = MlFault::WeightNoise {
            sigma: 1.0,
            fraction: 0.0,
            selector: ParamSelector::All,
        };
        fault.apply(&mut net, &mut stream_rng(2, 0));
        assert_eq!(before, param_snapshot(&mut net));
    }

    #[test]
    fn bit_flips_change_exactly_some_weights() {
        let mut net = IlNetwork::new(3);
        let before = param_snapshot(&mut net);
        let fault = MlFault::WeightBitFlip {
            flips: 5,
            selector: ParamSelector::All,
        };
        fault.apply(&mut net, &mut stream_rng(3, 0));
        let after = param_snapshot(&mut net);
        let changed: usize = before
            .iter()
            .zip(&after)
            .map(|(b, a)| {
                b.iter()
                    .zip(a)
                    .filter(|(x, y)| x.to_bits() != y.to_bits())
                    .count()
            })
            .sum();
        assert!((1..=5).contains(&changed), "changed={changed}");
    }

    #[test]
    fn neuron_stuck_changes_prediction() {
        use avfi_nn::Tensor;
        use avfi_sim::map::route::Command;
        let mut clean = IlNetwork::new(4);
        let mut faulty = IlNetwork::from_weights(&clean.to_weights()).unwrap();
        MlFault::NeuronStuckAt {
            layer: 6,
            unit: 3,
            value: 30.0,
        }
        .apply(&mut faulty, &mut stream_rng(4, 0));
        let img = Tensor::zeros(vec![1, 24, 32]);
        let a = clean.forward(&img, 0.5, Command::Follow, false);
        let b = faulty.forward(&img, 0.5, Command::Follow, false);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn deterministic_given_seed() {
        let apply = |seed| {
            let mut net = IlNetwork::new(5);
            MlFault::WeightNoise {
                sigma: 0.1,
                fraction: 0.5,
                selector: ParamSelector::All,
            }
            .apply(&mut net, &mut stream_rng(seed, 0));
            param_snapshot(&mut net)
        };
        assert_eq!(apply(7), apply(7));
        assert_ne!(apply(7), apply(8));
    }
}
