//! Demonstration collection for imitation learning.
//!
//! The collector runs the expert in closed loop and records
//! (observation features, expert action) pairs. Following the original
//! conditional-imitation recipe, temporally correlated *exploration noise*
//! is injected into the executed steering so the dataset covers off-center
//! states — the expert's corrective action is recorded as the label, which
//! is what makes the learned policy stable in closed loop.

use crate::expert::ExpertDriver;
use crate::features::{image_to_tensor, normalize_speed};
use avfi_nn::Tensor;
use avfi_sim::map::route::Command;
use avfi_sim::physics::VehicleControl;
use avfi_sim::rng::stream_rng;
use avfi_sim::scenario::Scenario;
use avfi_sim::world::World;
use rand::RngExt;

/// One demonstration sample.
#[derive(Debug, Clone)]
pub struct DemoSample {
    /// Preprocessed camera tensor `[1, 24, 32]`.
    pub image: Tensor,
    /// Normalized speed.
    pub speed: f32,
    /// Active planner command.
    pub command: Command,
    /// Expert action `[steer, throttle, brake]`.
    pub target: [f32; 3],
}

/// A demonstration dataset.
#[derive(Debug, Clone, Default)]
pub struct DemoDataset {
    samples: Vec<DemoSample>,
}

impl DemoDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        DemoDataset::default()
    }

    /// The samples.
    pub fn samples(&self) -> &[DemoSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: DemoSample) {
        self.samples.push(sample);
    }

    /// Merges another dataset into this one.
    pub fn extend(&mut self, other: DemoDataset) {
        self.samples.extend(other.samples);
    }
}

/// Collection options.
#[derive(Debug, Clone, Copy)]
pub struct CollectConfig {
    /// Maximum frames recorded per scenario.
    pub max_frames: usize,
    /// Probability per frame of starting a noise episode.
    pub noise_rate: f64,
    /// Length of a noise episode, frames.
    pub noise_len: usize,
    /// Peak steering offset during a noise episode.
    pub noise_mag: f64,
    /// Seed for the noise stream.
    pub seed: u64,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            max_frames: 1200,
            noise_rate: 0.02,
            noise_len: 8,
            noise_mag: 0.35,
            seed: 0xDA66,
        }
    }
}

/// Runs the expert on one scenario and records demonstrations.
pub fn collect_scenario(scenario: &Scenario, config: &CollectConfig) -> DemoDataset {
    let mut world = World::from_scenario(scenario);
    let mut expert = ExpertDriver::new();
    let mut rng = stream_rng(config.seed, scenario.seed);
    let mut data = DemoDataset::new();
    let mut noise_left = 0usize;
    let mut noise_amp = 0.0f64;
    for _ in 0..config.max_frames {
        let obs = world.observe();
        let label = expert.control_for(&world);
        data.push(DemoSample {
            image: image_to_tensor(&obs.sensors.image),
            speed: normalize_speed(obs.sensors.speed),
            command: obs.command,
            target: [
                label.steer as f32,
                label.throttle as f32,
                label.brake as f32,
            ],
        });
        // Exploration noise: execute a perturbed steering, keep the clean
        // label.
        let executed = if noise_left > 0 {
            noise_left -= 1;
            VehicleControl::new(label.steer + noise_amp, label.throttle, label.brake)
        } else {
            if rng.random_range(0.0..1.0) < config.noise_rate {
                noise_left = config.noise_len;
                noise_amp = if rng.random_range(0.0..1.0) < 0.5 {
                    config.noise_mag
                } else {
                    -config.noise_mag
                };
            }
            label
        };
        if world.step(executed).is_terminal() {
            break;
        }
    }
    data
}

/// Collects demonstrations across several scenarios and merges them.
pub fn collect_many(scenarios: &[Scenario], config: &CollectConfig) -> DemoDataset {
    let mut all = DemoDataset::new();
    for s in scenarios {
        all.extend(collect_scenario(s, config));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::scenario::TownSpec;

    fn scenario(seed: u64) -> Scenario {
        Scenario::builder(TownSpec::grid(3, 3))
            .seed(seed)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(40.0)
            .build()
    }

    #[test]
    fn collects_labeled_frames() {
        let cfg = CollectConfig {
            max_frames: 120,
            ..CollectConfig::default()
        };
        let data = collect_scenario(&scenario(1), &cfg);
        assert!(data.len() > 60, "len={}", data.len());
        for s in data.samples() {
            assert_eq!(s.image.shape(), &[1, 24, 32]);
            assert!(s.target.iter().all(|v| v.is_finite()));
            assert!(s.target[0].abs() <= 1.0);
        }
    }

    #[test]
    fn covers_multiple_commands() {
        let cfg = CollectConfig {
            max_frames: 1500,
            ..CollectConfig::default()
        };
        let data = collect_many(&[scenario(2), scenario(3)], &cfg);
        let mut counts = [0usize; 4];
        for s in data.samples() {
            counts[s.command.index()] += 1;
        }
        let covered = counts.iter().filter(|c| **c > 0).count();
        assert!(covered >= 2, "commands covered: {counts:?}");
    }

    #[test]
    fn deterministic_collection() {
        let cfg = CollectConfig {
            max_frames: 60,
            ..CollectConfig::default()
        };
        let a = collect_scenario(&scenario(4), &cfg);
        let b = collect_scenario(&scenario(4), &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.samples().iter().zip(b.samples()) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.image.data(), y.image.data());
        }
    }
}
