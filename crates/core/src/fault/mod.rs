//! Fault models: the four classes of §II of the paper.

pub mod hardware;
pub mod input;
pub mod ml;
pub mod timing;

use avfi_sim::scenario::MAX_LIDAR_BEAMS;
use hardware::BitFaultModel;
use input::{ImageFault, LidarFault};
use ml::MlFault;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Most droplets a water-drop fault may place: over ten times the 5 of
/// the `dashcam` example. The layout holds each droplet, and each one
/// blends up to the whole image on every injected frame.
pub const MAX_WATER_DROPS: usize = 64;

/// Most ghost returns a LIDAR fault may inject per frame: one per beam of
/// the widest sweep a scenario may ask for, over ten times the 5 the
/// lockstep test runs.
pub const MAX_GHOSTS: usize = MAX_LIDAR_BEAMS;

/// Most weight bits an ML fault may flip: over ten times the 20 of
/// `ext_c_ml_faults`. Each flip draws three numbers when the driver is
/// built.
pub const MAX_WEIGHT_FLIPS: usize = 1_024;

/// Most bit positions a [`BitFaultModel::MultiBitFlip`] may list: the 64
/// bits of an `f64`, over ten times the 2 of `ext_d_hw_faults`. Every
/// injected frame flips each listed bit.
pub const MAX_FLIPPED_BITS: usize = 64;

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

    /// Checks the fault's sizes before any run starts: every bit index a
    /// hardware fault flips is below 64, and no count that sizes a run's
    /// memory or per-frame work is over its `MAX_*` cap. Unchecked, a
    /// bit index of 64 fails [`hardware::flip_bit`]'s assert in every
    /// run, and 2^40 water drops ask for a 24 TiB layout, which aborts
    /// the process.
    ///
    /// # Errors
    ///
    /// The first problem found.
    pub fn check(&self) -> Result<(), FaultProblem> {
        let capped = |what, count, cap| match count > cap {
            true => Err(FaultProblem::OverCap { what, count, cap }),
            false => Ok(()),
        };
        match self {
            FaultSpec::Input(f) => {
                if let Some(ImageFault::WaterDrop { drops, .. }) = f.model {
                    capped("water-drop count", drops, MAX_WATER_DROPS)?;
                }
                if let Some(LidarFault::Ghost { count, .. }) = f.lidar {
                    capped("ghost count", count, MAX_GHOSTS)?;
                }
            }
            FaultSpec::Hardware(f) => {
                let bits = match &f.model {
                    BitFaultModel::SingleBitFlip { bit } => std::slice::from_ref(bit),
                    BitFaultModel::MultiBitFlip { bits } => {
                        capped("bit-flip list length", bits.len(), MAX_FLIPPED_BITS)?;
                        bits
                    }
                    BitFaultModel::StuckAt { .. } => &[],
                };
                if let Some(&bit) = bits.iter().find(|&&bit| bit >= 64) {
                    return Err(FaultProblem::BitIndex(bit));
                }
            }
            FaultSpec::Ml(MlFault::WeightBitFlip { flips, .. }) => {
                capped("weight bit-flip count", *flips, MAX_WEIGHT_FLIPS)?;
            }
            FaultSpec::None | FaultSpec::Timing(_) | FaultSpec::Ml(_) => {}
        }
        Ok(())
    }
}

/// Why [`FaultSpec::check`] refused a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultProblem {
    /// A hardware fault flips a bit outside an `f64`'s 64.
    BitIndex(u8),
    /// A count over its `MAX_*` cap.
    OverCap {
        /// What is counted, as the message names it.
        what: &'static str,
        /// The fault's count.
        count: usize,
        /// The cap.
        cap: usize,
    },
}

impl fmt::Display for FaultProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultProblem::BitIndex(bit) => write!(f, "bit index {bit} is outside 0..64"),
            FaultProblem::OverCap { what, count, cap } => {
                write!(f, "{what} {count} is over the cap of {cap}")
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
    use super::input::{ImageFault, InputFault};
    use super::*;

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
}
