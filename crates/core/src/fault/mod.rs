//! Fault models: the four classes of §II of the paper.

pub mod hardware;
pub mod input;
pub mod ml;
pub mod timing;

use avfi_sim::sensors::SensorMask;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Complete fault plan for one campaign: which class, which model, when.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum FaultSpec {
    /// Golden (fault-free) run.
    #[default]
    None,
    /// Data faults on sensor payloads.
    Input(input::InputFault),
    /// Bit-level faults on commands and sensor scalars.
    Hardware(hardware::HardwareFault),
    /// Delays / drops / reordering between ADA and actuation.
    Timing(timing::TimingFault),
    /// Faults in the IL-CNN parameters or neurons.
    Ml(ml::MlFault),
}

impl FaultSpec {
    /// Short label for tables and plots (matches the paper's axis labels
    /// for the input models).
    pub fn label(&self) -> String {
        match self {
            FaultSpec::None => "NoInject".to_string(),
            FaultSpec::Input(f) => f.label(),
            FaultSpec::Hardware(f) => f.label(),
            FaultSpec::Timing(f) => f.label(),
            FaultSpec::Ml(f) => f.label(),
        }
    }

    /// Paper fault class name.
    pub fn class(&self) -> &'static str {
        match self {
            FaultSpec::None => "none",
            FaultSpec::Input(_) => "data",
            FaultSpec::Hardware(_) => "hardware",
            FaultSpec::Timing(_) => "timing",
            FaultSpec::Ml(_) => "machine-learning",
        }
    }

    /// The masked sensors the injector reads in order to corrupt them: a
    /// camera model needs the rendered image, a LIDAR fault the scan. A
    /// world running the fault must compute them even for a driver that
    /// ignores them, because the injector draws randomness per pixel or
    /// per beam of what it is given. Every other fault touches neither.
    pub fn touches(&self) -> SensorMask {
        match self {
            FaultSpec::Input(f) => SensorMask {
                camera: f.model.is_some(),
                lidar: f.lidar.is_some(),
            },
            FaultSpec::None | FaultSpec::Hardware(_) | FaultSpec::Timing(_) | FaultSpec::Ml(_) => {
                SensorMask::NONE
            }
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
    use super::input::{GpsFault, ImageFault, InputFault, LidarFault, SpeedFault};
    use super::ml::MlFault;
    use super::timing::TimingFault;
    use super::*;
    use crate::localizer::ParamSelector;

    #[test]
    fn labels_match_paper_axes() {
        assert_eq!(FaultSpec::None.label(), "NoInject");
        let g = FaultSpec::Input(InputFault::always(ImageFault::gaussian(0.1)));
        assert_eq!(g.label(), "Gaussian");
        assert_eq!(g.class(), "data");
    }

    #[test]
    fn spec_serializes() {
        let spec = FaultSpec::Input(InputFault::always(ImageFault::salt_pepper(0.05)));
        let s = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn touches_names_the_sensors_each_fault_family_reads() {
        let lidar = LidarFault::BeamDropout { p: 0.3 };
        let gps = GpsFault {
            bias_x: 1.0,
            bias_y: 0.0,
            sigma: 0.5,
        };
        let table = [
            (FaultSpec::None, SensorMask::NONE),
            (
                FaultSpec::Input(InputFault::always(ImageFault::gaussian(0.1))),
                SensorMask::CAMERA,
            ),
            (
                FaultSpec::Input(InputFault::always(ImageFault::water_drop(4, 0.08))),
                SensorMask::CAMERA,
            ),
            (
                FaultSpec::Input(InputFault::scalar_only().with_lidar(lidar)),
                SensorMask::LIDAR,
            ),
            (
                FaultSpec::Input(
                    InputFault::always(ImageFault::salt_pepper(0.05)).with_lidar(lidar),
                ),
                SensorMask::ALL,
            ),
            (
                FaultSpec::Input(InputFault::scalar_only().with_gps(gps)),
                SensorMask::NONE,
            ),
            (
                FaultSpec::Input(InputFault::scalar_only().with_speed(SpeedFault::Scale(0.5))),
                SensorMask::NONE,
            ),
            (
                FaultSpec::Hardware(HardwareFault::always(
                    HardwareTarget::SensorGpsX,
                    BitFaultModel::StuckAt { value: 0.0 },
                )),
                SensorMask::NONE,
            ),
            (
                FaultSpec::Hardware(HardwareFault::always(
                    HardwareTarget::ControlBrake,
                    BitFaultModel::StuckAt { value: 1.0 },
                )),
                SensorMask::NONE,
            ),
            (
                FaultSpec::Timing(TimingFault::OutputDelay { frames: 10 }),
                SensorMask::NONE,
            ),
            (
                FaultSpec::Ml(MlFault::WeightNoise {
                    sigma: 0.1,
                    fraction: 0.5,
                    selector: ParamSelector::All,
                }),
                SensorMask::NONE,
            ),
        ];
        for (spec, mask) in table {
            assert_eq!(spec.touches(), mask, "{spec:?}");
        }
    }
}
