//! GPS sensor: noisy position fixes.

use crate::math::Vec2;
use crate::rng::normal;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// GPS noise configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsConfig {
    /// Standard deviation of the per-axis position noise, meters.
    pub sigma: f64,
}

impl Default for GpsConfig {
    fn default() -> Self {
        GpsConfig { sigma: 0.5 }
    }
}

/// One GPS fix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsFix {
    /// Estimated position (true position plus noise).
    pub position: Vec2,
    /// Nominal 1-σ accuracy of the fix, meters.
    pub accuracy: f64,
}

/// The GPS sensor: adds white Gaussian noise to the true position.
#[derive(Debug, Clone)]
pub struct Gps {
    config: GpsConfig,
}

impl Gps {
    /// Creates a GPS with the given noise level.
    pub fn new(config: GpsConfig) -> Self {
        Gps { config }
    }

    /// Produces a fix for the true position.
    pub fn measure(&self, truth: Vec2, rng: &mut StdRng) -> GpsFix {
        let s = self.config.sigma;
        GpsFix {
            position: Vec2::new(normal(rng, truth.x, s), normal(rng, truth.y, s)),
            accuracy: s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    #[test]
    fn noise_has_right_scale() {
        let gps = Gps::new(GpsConfig { sigma: 2.0 });
        let mut rng = stream_rng(42, 0);
        let truth = Vec2::new(100.0, -50.0);
        let n = 5000;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let fix = gps.measure(truth, &mut rng);
            sum_sq += fix.position.distance_sq(truth);
        }
        // E[dx² + dy²] = 2σ².
        let mean_sq = sum_sq / n as f64;
        assert!((mean_sq - 8.0).abs() < 0.8, "mean_sq={mean_sq}");
    }

    #[test]
    fn zero_sigma_is_exact() {
        let gps = Gps::new(GpsConfig { sigma: 0.0 });
        let mut rng = stream_rng(42, 1);
        let truth = Vec2::new(3.0, 4.0);
        let fix = gps.measure(truth, &mut rng);
        assert_eq!(fix.position, truth);
    }
}
