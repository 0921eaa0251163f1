//! # avfi-agent — autonomous driving agents
//!
//! The AVFI paper drives its AV with the conditional imitation-learning CNN
//! of Codevilla et al.: a camera-in/control-out network whose output head
//! is selected by a high-level planner command (follow / left / right /
//! straight). This crate reproduces that agent end to end, in process:
//!
//! * [`expert::ExpertDriver`] — a rule-based autopilot (pure-pursuit
//!   steering + speed PID + obstacle/red-light braking) that plays the role
//!   of the human demonstration data the original network was trained on,
//!   and doubles as the fault-free oracle baseline;
//! * [`features`] — camera preprocessing (grayscale downsample) into
//!   network input tensors;
//! * [`ilnet::IlNetwork`] — the conditional network: shared conv trunk,
//!   one head per command, speed appended at the head input;
//! * [`dataset`] / [`train`] — demonstration collection (with exploration
//!   noise, DAgger-style) and the imitation trainer;
//! * [`controller`] — the [`controller::Agent`] the campaign runner builds
//!   once per campaign and the fault injector wraps, one clone per run.
//!
//! Training is fast enough to run in tests: the default
//! [`train::train_default_agent`] fits the network in seconds on one core.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod dataset;
pub mod expert;
pub mod features;
pub mod ilnet;
pub mod train;

pub use controller::{Agent, DriverInput};
pub use expert::ExpertDriver;
pub use ilnet::IlNetwork;
