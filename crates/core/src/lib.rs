//! # avfi-core — the Autonomous Vehicle Fault Injector
//!
//! The primary contribution of Jha et al., *AVFI: Fault Injection for
//! Autonomous Vehicles* (DSN 2018): an end-to-end resilience-assessment
//! engine that injects faults into a simulated AV's
//! sensor–compute–actuation pipeline and quantifies domain-specific
//! failure metrics.
//!
//! AVFI runs fault-injection campaigns in two steps: "(a) selecting the
//! location of faults (e.g., choosing specific neurons and layers in the
//! IL-CNN) and (b) injecting the faults into the chosen locations using
//! the fault models". The four fault classes of the paper map to modules
//! here:
//!
//! | Paper class | Module | Examples |
//! |---|---|---|
//! | Data faults | [`fault::input`] | camera Gaussian/S&P noise, solid & transparent occlusions, water drops; GPS bias; speedometer corruption |
//! | Hardware faults | [`fault::hardware`] | single/multi-bit flips and stuck-at on control commands and sensor scalars |
//! | Timing faults | [`fault::timing`] | output delay between ADA and actuation, frame drops, out-of-order delivery |
//! | Machine-learning faults | [`fault::ml`] | weight noise, weight bit flips, stuck-at neurons in the IL-CNN |
//!
//! Fault *location* selection lives in [`localizer`] (weight faults pick
//! parameters with a `ParamSelector`; a neuron fault names its trunk
//! layer and unit), *when* to inject in [`trigger`], and the wrapper that
//! applies everything around a driving agent in [`harness`].
//! [`campaign`] defines campaigns and runs one seeded mission
//! ([`campaign::run_mission`]);
//! [`engine`] flattens whole multi-campaign studies into one
//! deterministic work-stealing queue with streamed
//! [`engine::ProgressSink`] observability, and [`engine::pool`] keeps a
//! persistent [`engine::MultiplexPool`] that multiplexes many
//! concurrently submitted plans onto one shared worker pool (the
//! `avfi-server` campaign service is built on it);
//! [`metrics`] computes the paper's resilience metrics (MSR, VPK, APK,
//! TTV); [`stats`] and [`report`] summarize and render results. The
//! flight recorder (the `avfi-trace` crate) plugs in through
//! [`engine::TraceConfig`]; [`replay`] re-executes any recorded run and
//! verifies bit-identity, [`triage`] walks failed-run traces to
//! attribute each first violation to the injection that preceded it, and
//! [`shrink`] delta-debugs any failed trace into a minimal,
//! replay-verified repro. [`adaptive`] layers a deterministic
//! Thompson-sampling planner above [`engine`]: instead of sweeping the
//! fault grid uniformly it spends a fixed run budget where failures
//! concentrate, proposing batches through `Engine::evaluate_jobs`.
//!
//! ## Quick example
//!
//! ```no_run
//! use avfi_core::campaign::{AgentSpec, CampaignConfig};
//! use avfi_core::engine::Engine;
//! use avfi_core::fault::FaultSpec;
//! use avfi_core::fault::input::{ImageFault, InputFault};
//! use avfi_core::metrics;
//! use avfi_sim::scenario::{Scenario, TownSpec};
//!
//! let scenario = Scenario::builder(TownSpec::grid(3, 3)).build();
//! let config = CampaignConfig::builder(vec![scenario])
//!     .agent(AgentSpec::Expert)
//!     .fault(FaultSpec::Input(InputFault::always(ImageFault::gaussian(0.1))))
//!     .runs_per_scenario(5)
//!     .build();
//! let result = Engine::new().workers(4).run_campaign(config);
//! println!("MSR = {:.1}%", metrics::mission_success_rate(result.runs()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod campaign;
pub mod engine;
pub mod fault;
pub mod harness;
pub mod localizer;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod shrink;
pub mod stats;
pub mod triage;
pub mod trigger;

pub use adaptive::{
    run_adaptive, AdaptiveConfig, AdaptiveOutcome, AdaptivePlanner, AdaptiveSpace,
    AdaptiveTrajectory,
};
pub use campaign::{CampaignConfig, CampaignResult, RunResult, TraceSpec};
pub use engine::{
    Engine, MultiplexPool, PlanError, PlanEvent, PlanTicket, ProgressEvent, ProgressSink,
    RecoveredSubmission, RunSink, StudyResult, TraceConfig, WorkPlan,
};
pub use fault::FaultSpec;
pub use harness::AvDriver;
pub use shrink::{shrink_trace, MinimalRepro, ShrinkConfig, ShrinkOutcome};
pub use trigger::Trigger;
