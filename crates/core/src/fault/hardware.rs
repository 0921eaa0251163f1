//! Hardware faults: bit-level corruption of commands and sensor scalars.
//!
//! "AVFI injects hardware faults by injecting single-bit, multiple-bit,
//! and stuck-at faults in the hardware components of the autonomous
//! systems \[…\]. For example, AVFI can intercept and corrupt a control
//! command from the IL-CNN and then forward it to the server."
//!
//! Faults operate on the IEEE-754 representation of the targeted scalar.
//! Downstream sanitization (drive-by-wire clamping of commands) is part of
//! the system under test and is *not* bypassed — a flipped sign bit on
//! `steer` matters; a flipped exponent bit that produces `inf` gets
//! clamped, exactly as a real actuation firmware would saturate.

use crate::trigger::Trigger;
use avfi_sim::physics::VehicleControl;
use serde::{Deserialize, Serialize};

/// Which scalar the fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HardwareTarget {
    /// Steering command out of the ADA.
    ControlSteer,
    /// Throttle command out of the ADA.
    ControlThrottle,
    /// Brake command out of the ADA.
    ControlBrake,
    /// Speed measurement into the ADA.
    SensorSpeed,
    /// GPS easting into the ADA.
    SensorGpsX,
    /// GPS northing into the ADA.
    SensorGpsY,
}

impl HardwareTarget {
    /// All targets (for sweeps).
    pub const ALL: [HardwareTarget; 6] = [
        HardwareTarget::ControlSteer,
        HardwareTarget::ControlThrottle,
        HardwareTarget::ControlBrake,
        HardwareTarget::SensorSpeed,
        HardwareTarget::SensorGpsX,
        HardwareTarget::SensorGpsY,
    ];

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            HardwareTarget::ControlSteer => "steer",
            HardwareTarget::ControlThrottle => "throttle",
            HardwareTarget::ControlBrake => "brake",
            HardwareTarget::SensorSpeed => "speed",
            HardwareTarget::SensorGpsX => "gps-x",
            HardwareTarget::SensorGpsY => "gps-y",
        }
    }

    /// `true` for targets on the command (output) path.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            HardwareTarget::ControlSteer
                | HardwareTarget::ControlThrottle
                | HardwareTarget::ControlBrake
        )
    }
}

/// The bit-level fault model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BitFaultModel {
    /// Flip one bit of the IEEE-754 double.
    SingleBitFlip {
        /// Bit position `0..64` (63 = sign, 52–62 = exponent).
        bit: u8,
    },
    /// Flip several bits.
    MultiBitFlip {
        /// Bit positions.
        bits: Vec<u8>,
    },
    /// Force the scalar to a constant.
    StuckAt {
        /// The stuck value.
        value: f64,
    },
}

impl BitFaultModel {
    /// Applies the model to a scalar.
    pub fn apply(&self, value: f64) -> f64 {
        match self {
            BitFaultModel::SingleBitFlip { bit } => flip_bit(value, *bit),
            BitFaultModel::MultiBitFlip { bits } => bits.iter().fold(value, |v, b| flip_bit(v, *b)),
            BitFaultModel::StuckAt { value } => *value,
        }
    }

    /// Short label.
    pub fn label(&self) -> String {
        match self {
            BitFaultModel::SingleBitFlip { bit } => format!("bitflip@{bit}"),
            BitFaultModel::MultiBitFlip { bits } => format!("bitflip x{}", bits.len()),
            BitFaultModel::StuckAt { value } => format!("stuck@{value}"),
        }
    }
}

/// Flips bit `bit` (0 = LSB of the mantissa, 63 = sign) of an `f64`.
///
/// # Panics
///
/// Panics if `bit >= 64`.
pub fn flip_bit(value: f64, bit: u8) -> f64 {
    assert!(bit < 64, "bit index out of range");
    f64::from_bits(value.to_bits() ^ (1u64 << bit))
}

/// A complete hardware-fault plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareFault {
    /// Corrupted scalar.
    pub target: HardwareTarget,
    /// Bit-level model.
    pub model: BitFaultModel,
    /// When the fault is active.
    pub trigger: Trigger,
}

impl HardwareFault {
    /// A fault active on every frame.
    pub fn always(target: HardwareTarget, model: BitFaultModel) -> Self {
        HardwareFault {
            target,
            model,
            trigger: Trigger::Always,
        }
    }

    /// A fault that flips a uniformly random bit, intermittently with
    /// per-frame probability `p` (transient fault in the processing
    /// fabric).
    pub fn transient(target: HardwareTarget, bit: u8, p: f64) -> Self {
        HardwareFault {
            target,
            model: BitFaultModel::SingleBitFlip { bit },
            trigger: Trigger::Bernoulli { p },
        }
    }

    /// Label for tables.
    pub fn label(&self) -> String {
        format!("{}:{}", self.target.label(), self.model.label())
    }

    /// Applies the fault to a control command (command-path targets only;
    /// sensor targets leave it unchanged).
    pub fn corrupt_control(&self, control: VehicleControl) -> VehicleControl {
        let mut c = control;
        match self.target {
            HardwareTarget::ControlSteer => c.steer = self.model.apply(c.steer),
            HardwareTarget::ControlThrottle => c.throttle = self.model.apply(c.throttle),
            HardwareTarget::ControlBrake => c.brake = self.model.apply(c.brake),
            _ => {}
        }
        c
    }

    /// Applies the fault to sensor scalars `(speed, gps_x, gps_y)`
    /// (sensor-path targets only).
    pub fn corrupt_sensors(&self, speed: &mut f64, gps_x: &mut f64, gps_y: &mut f64) {
        match self.target {
            HardwareTarget::SensorSpeed => *speed = self.model.apply(*speed),
            HardwareTarget::SensorGpsX => *gps_x = self.model.apply(*gps_x),
            HardwareTarget::SensorGpsY => *gps_y = self.model.apply(*gps_y),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_sign_bit() {
        assert_eq!(flip_bit(1.0, 63), -1.0);
        assert_eq!(flip_bit(-0.5, 63), 0.5);
    }

    #[test]
    fn flip_is_involution() {
        for bit in [0u8, 17, 40, 52, 62, 63] {
            let v = 0.7253;
            assert_eq!(flip_bit(flip_bit(v, bit), bit), v);
        }
    }

    #[test]
    fn exponent_flip_is_large() {
        let v = 0.5;
        let f = flip_bit(v, 62);
        assert!(f.abs() > 1e10 || f.abs() < 1e-10 || !f.is_finite(), "f={f}");
    }

    #[test]
    fn stuck_at_overrides() {
        let m = BitFaultModel::StuckAt { value: 1.0 };
        assert_eq!(m.apply(0.123), 1.0);
    }

    #[test]
    fn corrupt_control_touches_only_target() {
        let fault = HardwareFault::always(
            HardwareTarget::ControlSteer,
            BitFaultModel::SingleBitFlip { bit: 63 },
        );
        let c = VehicleControl::new(0.5, 0.7, 0.0);
        let f = fault.corrupt_control(c);
        assert_eq!(f.steer, -0.5);
        assert_eq!(f.throttle, 0.7);
        assert_eq!(f.brake, 0.0);
    }

    #[test]
    fn sensor_target_does_not_touch_control() {
        let fault = HardwareFault::always(
            HardwareTarget::SensorSpeed,
            BitFaultModel::StuckAt { value: 0.0 },
        );
        let c = VehicleControl::new(0.5, 0.7, 0.0);
        assert_eq!(fault.corrupt_control(c), c);
        let (mut s, mut x, mut y) = (8.0, 100.0, 50.0);
        fault.corrupt_sensors(&mut s, &mut x, &mut y);
        assert_eq!(s, 0.0);
        assert_eq!((x, y), (100.0, 50.0));
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn bit_out_of_range_panics() {
        let _ = flip_bit(1.0, 64);
    }
}
