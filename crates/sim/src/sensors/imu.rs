//! Inertial measurement unit: noisy longitudinal acceleration and yaw
//! rate, derived from consecutive vehicle states.

use crate::rng::normal;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// IMU noise configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuConfig {
    /// Accelerometer noise σ, m/s².
    pub accel_sigma: f64,
    /// Gyro noise σ, rad/s.
    pub gyro_sigma: f64,
}

impl Default for ImuConfig {
    fn default() -> Self {
        ImuConfig {
            accel_sigma: 0.05,
            gyro_sigma: 0.005,
        }
    }
}

/// One IMU reading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuReading {
    /// Longitudinal acceleration, m/s².
    pub accel: f64,
    /// Yaw rate, rad/s.
    pub yaw_rate: f64,
}

/// The IMU sensor: differentiates consecutive (speed, heading) samples and
/// adds white noise.
#[derive(Debug, Clone)]
pub struct Imu {
    config: ImuConfig,
    last: Option<(f64, f64)>,
}

impl Imu {
    /// Creates an IMU.
    pub fn new(config: ImuConfig) -> Self {
        Imu { config, last: None }
    }

    /// Produces a reading from the current true speed and heading; `dt` is
    /// the time since the previous call. The first call reports zeros
    /// (no history to differentiate).
    pub fn measure(&mut self, speed: f64, heading: f64, dt: f64, rng: &mut StdRng) -> ImuReading {
        let reading = match self.last {
            Some((v0, h0)) if dt > 1e-9 => {
                let mut dh = heading - h0;
                // Unwrap across ±π.
                if dh > std::f64::consts::PI {
                    dh -= std::f64::consts::TAU;
                } else if dh < -std::f64::consts::PI {
                    dh += std::f64::consts::TAU;
                }
                ImuReading {
                    accel: (speed - v0) / dt,
                    yaw_rate: dh / dt,
                }
            }
            _ => ImuReading {
                accel: 0.0,
                yaw_rate: 0.0,
            },
        };
        self.last = Some((speed, heading));
        ImuReading {
            accel: normal(rng, reading.accel, self.config.accel_sigma),
            yaw_rate: normal(rng, reading.yaw_rate, self.config.gyro_sigma),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;
    use crate::FRAME_DT;

    fn noiseless() -> Imu {
        Imu::new(ImuConfig {
            accel_sigma: 0.0,
            gyro_sigma: 0.0,
        })
    }

    #[test]
    fn first_reading_is_zero() {
        let mut imu = noiseless();
        let mut rng = stream_rng(1, 0);
        let r = imu.measure(5.0, 0.3, FRAME_DT, &mut rng);
        assert_eq!(r.accel, 0.0);
        assert_eq!(r.yaw_rate, 0.0);
    }

    #[test]
    fn differentiates_speed_and_heading() {
        let mut imu = noiseless();
        let mut rng = stream_rng(2, 0);
        imu.measure(5.0, 0.0, FRAME_DT, &mut rng);
        let r = imu.measure(5.0 + 2.0 * FRAME_DT, 0.1 * FRAME_DT, FRAME_DT, &mut rng);
        assert!((r.accel - 2.0).abs() < 1e-9);
        assert!((r.yaw_rate - 0.1).abs() < 1e-9);
    }

    #[test]
    fn yaw_unwraps_across_pi() {
        let mut imu = noiseless();
        let mut rng = stream_rng(3, 0);
        imu.measure(1.0, std::f64::consts::PI - 0.01, FRAME_DT, &mut rng);
        let r = imu.measure(1.0, -std::f64::consts::PI + 0.01, FRAME_DT, &mut rng);
        // Crossed the wrap-around going CCW by 0.02 rad, not by -2π+0.02.
        assert!(
            (r.yaw_rate - 0.02 / FRAME_DT).abs() < 1e-6,
            "yaw={}",
            r.yaw_rate
        );
    }

    #[test]
    fn noise_has_configured_scale() {
        let mut imu = Imu::new(ImuConfig {
            accel_sigma: 0.5,
            gyro_sigma: 0.0,
        });
        let mut rng = stream_rng(4, 0);
        imu.measure(3.0, 0.0, FRAME_DT, &mut rng);
        let n = 2000;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let r = imu.measure(3.0, 0.0, FRAME_DT, &mut rng);
            sum_sq += r.accel * r.accel;
        }
        let rms = (sum_sq / n as f64).sqrt();
        assert!((rms - 0.5).abs() < 0.05, "rms={rms}");
    }
}
