//! Kinematic bicycle model — the vehicle dynamics used for both the ego
//! vehicle and NPC traffic.

use super::VehicleControl;
use crate::math::{normalize_angle, Pose, Vec2};
use serde::{Deserialize, Serialize};

/// Physical parameters of a vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleParams {
    /// Distance between axles, meters.
    pub wheelbase: f64,
    /// Body length, meters (collision footprint).
    pub length: f64,
    /// Body width, meters (collision footprint).
    pub width: f64,
    /// Maximum wheel deflection at `steer = ±1`, radians.
    pub max_steer: f64,
    /// Maximum engine acceleration at `throttle = 1`, m/s².
    pub max_accel: f64,
    /// Maximum service-brake deceleration at `brake = 1`, m/s².
    pub max_brake: f64,
    /// Top speed, m/s.
    pub max_speed: f64,
    /// Maximum steering slew rate, radians of wheel angle per second
    /// (the actuator cannot jump between lock positions instantly).
    pub max_steer_rate: f64,
    /// Quadratic drag coefficient (per meter).
    pub drag: f64,
    /// Rolling-resistance deceleration, m/s².
    pub rolling: f64,
}

impl Default for VehicleParams {
    fn default() -> Self {
        VehicleParams {
            wheelbase: 2.7,
            length: 4.5,
            width: 1.9,
            max_steer: 35f64.to_radians(),
            max_accel: 3.5,
            max_brake: 8.0,
            max_speed: 30.0,
            // Full lock-to-lock in about 0.6 s.
            max_steer_rate: 2.0,
            drag: 0.0008,
            rolling: 0.1,
        }
    }
}

/// Kinematic state of a vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleState {
    /// Pose of the body center.
    pub pose: Pose,
    /// Forward speed, m/s (non-negative; the model does not reverse).
    pub speed: f64,
    /// Current wheel deflection, radians (slew-limited toward the
    /// command).
    pub steer_angle: f64,
}

impl VehicleState {
    /// Creates a state at rest with centered steering.
    pub fn at_rest(pose: Pose) -> Self {
        VehicleState {
            pose,
            speed: 0.0,
            steer_angle: 0.0,
        }
    }
}

/// Integrates the kinematic bicycle model.
///
/// ```text
/// ẋ = v cos θ      θ̇ = v / L · tan(δ)
/// ẏ = v sin θ      v̇ = a_throttle − a_brake − a_drag − a_rolling
/// ```
///
/// Friction (from weather) scales braking and limits lateral acceleration:
/// when the commanded turn would exceed `μ · a_lat_max`, the effective
/// steering angle is reduced (understeer on wet roads).
#[derive(Debug, Clone, Copy)]
pub struct BicycleModel {
    params: VehicleParams,
}

impl BicycleModel {
    /// Lateral acceleration limit on dry pavement, m/s².
    const LAT_ACCEL_MAX: f64 = 7.0;

    /// Creates a model with the given parameters.
    pub fn new(params: VehicleParams) -> Self {
        BicycleModel { params }
    }

    /// Vehicle parameters.
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Advances the state by `dt` seconds under `control`, with tire
    /// friction multiplier `friction ∈ (0, 1]` (1 = dry).
    pub fn step(
        &self,
        state: VehicleState,
        control: VehicleControl,
        friction: f64,
        dt: f64,
    ) -> VehicleState {
        let p = &self.params;
        let c = control.clamped();
        let friction = friction.clamp(0.05, 1.0);

        // Longitudinal dynamics.
        let accel = c.throttle * p.max_accel
            - c.brake * p.max_brake * friction
            - p.drag * state.speed * state.speed
            - if state.speed > 0.01 { p.rolling } else { 0.0 };
        let mut speed = (state.speed + accel * dt).clamp(0.0, p.max_speed);

        // Lateral dynamics: slew-limited steering actuator, then
        // friction-limited effective wheel angle.
        let target_delta = c.steer * p.max_steer;
        let max_step = p.max_steer_rate * dt;
        let steer_angle =
            state.steer_angle + (target_delta - state.steer_angle).clamp(-max_step, max_step);
        let mut delta = steer_angle;
        if speed > 0.5 {
            let lat_acc = speed * speed * delta.tan().abs() / p.wheelbase;
            let lat_max = Self::LAT_ACCEL_MAX * friction;
            if lat_acc > lat_max {
                let max_tan = lat_max * p.wheelbase / (speed * speed);
                delta = max_tan.atan() * delta.signum();
            }
        }

        // Midpoint integration of the pose.
        let yaw_rate = speed / p.wheelbase * delta.tan();
        let mid_heading = state.pose.heading + 0.5 * yaw_rate * dt;
        let avg_speed = 0.5 * (state.speed + speed);
        let position = state.pose.position + Vec2::from_angle(mid_heading) * (avg_speed * dt);
        let heading = normalize_angle(state.pose.heading + yaw_rate * dt);

        // Numerical hygiene: a corrupted control can never produce NaN
        // state because of clamping, but guard anyway.
        if !position.is_finite() || !heading.is_finite() || !speed.is_finite() {
            return state;
        }
        speed = speed.max(0.0);
        VehicleState {
            pose: Pose::new(position, heading),
            speed,
            steer_angle,
        }
    }

    /// Distance needed to stop from `speed` at full brake (kinematic,
    /// ignoring drag), used by controllers.
    pub fn stopping_distance(&self, speed: f64, friction: f64) -> f64 {
        let a = self.params.max_brake * friction.clamp(0.05, 1.0);
        speed * speed / (2.0 * a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FRAME_DT;

    fn model() -> BicycleModel {
        BicycleModel::new(VehicleParams::default())
    }

    #[test]
    fn accelerates_forward_straight() {
        let m = model();
        let mut s = VehicleState::at_rest(Pose::origin());
        for _ in 0..150 {
            s = m.step(s, VehicleControl::new(0.0, 1.0, 0.0), 1.0, FRAME_DT);
        }
        assert!(s.speed > 5.0, "speed={}", s.speed);
        assert!(s.pose.position.x > 10.0);
        assert!(s.pose.position.y.abs() < 1e-9);
        assert!(s.pose.heading.abs() < 1e-9);
    }

    #[test]
    fn brakes_to_stop() {
        let m = model();
        let mut s = VehicleState {
            pose: Pose::origin(),
            speed: 10.0,
            steer_angle: 0.0,
        };
        for _ in 0..60 {
            s = m.step(s, VehicleControl::full_brake(), 1.0, FRAME_DT);
        }
        assert_eq!(s.speed, 0.0);
    }

    #[test]
    fn never_reverses() {
        let m = model();
        let mut s = VehicleState::at_rest(Pose::origin());
        for _ in 0..30 {
            s = m.step(s, VehicleControl::full_brake(), 1.0, FRAME_DT);
            assert!(s.speed >= 0.0);
        }
        assert_eq!(s.pose.position, Vec2::ZERO);
    }

    #[test]
    fn steering_turns_left() {
        let m = model();
        let mut s = VehicleState {
            pose: Pose::origin(),
            speed: 5.0,
            steer_angle: 0.0,
        };
        for _ in 0..30 {
            s = m.step(s, VehicleControl::new(1.0, 0.3, 0.0), 1.0, FRAME_DT);
        }
        assert!(s.pose.heading > 0.2, "heading={}", s.pose.heading);
        assert!(s.pose.position.y > 0.0);
    }

    #[test]
    fn wet_road_understeers() {
        let m = model();
        let start = VehicleState {
            pose: Pose::origin(),
            speed: 15.0,
            steer_angle: 0.0,
        };
        let mut dry = start;
        let mut wet = start;
        for _ in 0..15 {
            dry = m.step(dry, VehicleControl::new(1.0, 0.5, 0.0), 1.0, FRAME_DT);
            wet = m.step(wet, VehicleControl::new(1.0, 0.5, 0.0), 0.4, FRAME_DT);
        }
        assert!(
            wet.pose.heading < dry.pose.heading,
            "wet {} vs dry {}",
            wet.pose.heading,
            dry.pose.heading
        );
    }

    #[test]
    fn wet_road_brakes_longer() {
        let m = model();
        let start = VehicleState {
            pose: Pose::origin(),
            speed: 15.0,
            steer_angle: 0.0,
        };
        let stop_x = |friction: f64| {
            let mut s = start;
            for _ in 0..200 {
                s = m.step(s, VehicleControl::full_brake(), friction, FRAME_DT);
                if s.speed == 0.0 {
                    break;
                }
            }
            s.pose.position.x
        };
        assert!(stop_x(0.5) > stop_x(1.0) * 1.5);
    }

    #[test]
    fn top_speed_respected() {
        let m = model();
        let mut s = VehicleState::at_rest(Pose::origin());
        for _ in 0..3000 {
            s = m.step(s, VehicleControl::new(0.0, 1.0, 0.0), 1.0, FRAME_DT);
        }
        assert!(s.speed <= m.params().max_speed + 1e-9);
    }

    #[test]
    fn corrupted_control_does_not_poison_state() {
        let m = model();
        let mut s = VehicleState {
            pose: Pose::origin(),
            speed: 8.0,
            steer_angle: 0.0,
        };
        let evil = VehicleControl {
            steer: f64::NAN,
            throttle: f64::INFINITY,
            brake: -3.0,
        };
        for _ in 0..15 {
            s = m.step(s, evil, 1.0, FRAME_DT);
        }
        assert!(s.pose.position.is_finite());
        assert!(s.speed.is_finite());
    }

    #[test]
    fn stopping_distance_matches_sim() {
        let m = model();
        let predicted = m.stopping_distance(10.0, 1.0);
        let mut s = VehicleState {
            pose: Pose::origin(),
            speed: 10.0,
            steer_angle: 0.0,
        };
        while s.speed > 0.0 {
            s = m.step(s, VehicleControl::full_brake(), 1.0, FRAME_DT);
        }
        let actual = s.pose.position.x;
        assert!(
            (actual - predicted).abs() < 1.5,
            "predicted {predicted}, actual {actual}"
        );
    }
}
