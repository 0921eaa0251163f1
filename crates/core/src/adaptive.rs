//! Adaptive campaigns: deterministic Bayesian fault-space search.
//!
//! The paper's uniform `fig*`/`ext_*` sweeps spend almost all of their
//! run budget on benign injections; the UIUC group's follow-up ("ML-based
//! Fault Injection for Autonomous Vehicles: A Case for Bayesian Fault
//! Injection", DSN 2019) shows guided search finds orders of magnitude
//! more *activated* failures per run. This module is that planning layer
//! for the reproduction: an online planner that models
//! P(failure | scenario, fault channel, magnitude band, onset band) with
//! one Beta-Bernoulli posterior per lattice arm, proposes the next batch
//! of [`EvalJob`]s by Thompson sampling, and spends a fixed total-run
//! budget where failures concentrate instead of spreading it uniformly.
//!
//! ## Determinism contract
//!
//! The whole chosen trajectory — every proposed batch, every posterior
//! state, and the final report — is **byte-identical for any worker
//! count**, the same contract [`shrink`](crate::shrink) honors:
//!
//! 1. the Thompson sampler draws from one [`StdRng`] seeded from the
//!    campaign seed (stream-split, so it is independent of every
//!    simulation stream);
//! 2. batches are evaluated through [`Engine::evaluate_jobs`], which
//!    returns results **in job order** regardless of scheduling;
//! 3. observations are folded into the posteriors in that same
//!    flat-plan batch order, and the sampler is never touched during the
//!    fold — so the RNG consumption sequence is a pure function of the
//!    outcome history, which itself is a pure function of the seeds.
//!
//! Each pull of an arm gets `run_index` = the number of earlier pulls of
//! that arm, so per-run world seeds follow the exact derivation uniform
//! campaigns use (`split_seed(template, scenario << 32 | run+1)`): two
//! arms probing the same scenario at the same pull count share a world —
//! paired comparisons for free — while repeated pulls of one arm never
//! replay an identical run.
//!
//! The planner core is oracle-generic ([`AdaptiveOracle`]) so its search
//! behavior and determinism are testable without the simulator;
//! [`EngineOracle`] is the production implementation, fanning proposals
//! through the job-level engine API and classifying failures with
//! [`triage::failure_class`](crate::triage::failure_class).

use crate::campaign::{AgentSpec, TraceSpec};
use crate::engine::{Engine, EvalJob};
use crate::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
use crate::fault::input::{GpsFault, ImageFault, InputFault, LidarFault, SpeedFault};
use crate::fault::timing::TimingFault;
use crate::fault::FaultSpec;
use crate::triage::failure_class;
use crate::trigger::Trigger;
use avfi_agent::Agent;
use avfi_sim::rng::{split_seed, standard_normal};
use avfi_sim::scenario::Scenario;
use avfi_trace::{RunTrace, TraceLevel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// RNG stream tag for the Thompson sampler (disjoint from every
/// simulation stream, which all derive from per-run world seeds).
const SAMPLER_STREAM: u64 = 0xADA7_71FE;

/// One fault channel of the search lattice: a parameterized injector
/// whose severity scales with the arm's magnitude band and whose
/// activation starts at the arm's onset band.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArmChannel {
    /// A camera fault model; magnitude scales its severity parameter.
    Camera(ImageFault),
    /// GPS bias + noise; magnitude scales bias and sigma.
    GpsBias {
        /// Base easting bias, meters (northing gets the negative).
        bias: f64,
        /// Base per-axis noise sigma, meters.
        sigma: f64,
    },
    /// Speedometer multiplicative corruption; magnitude scales the
    /// deviation from 1 (factor 1.8 at magnitude 0.5 reads ×1.4).
    SpeedScale {
        /// Base over/under-read factor at magnitude 1.
        factor: f64,
    },
    /// LIDAR beam dropout; magnitude scales the per-beam probability.
    LidarDropout {
        /// Base dropout probability at magnitude 1.
        p: f64,
    },
    /// A command/sensor scalar stuck at a value; magnitude scales it.
    HardwareStuck {
        /// The corrupted scalar.
        target: HardwareTarget,
        /// Base stuck value at magnitude 1.
        value: f64,
    },
    /// Output pipeline delay; magnitude scales the frame count. Delay
    /// has no activation trigger, so the onset axis collapses for it.
    OutputDelay {
        /// Base delay in frames at magnitude 1.
        frames: usize,
    },
}

impl ArmChannel {
    /// Short channel label for arms and reports.
    pub fn label(&self) -> String {
        match self {
            ArmChannel::Camera(model) => format!("camera:{}", model.label()),
            ArmChannel::GpsBias { .. } => "gps-bias".to_string(),
            ArmChannel::SpeedScale { .. } => "speed-scale".to_string(),
            ArmChannel::LidarDropout { .. } => "lidar-dropout".to_string(),
            ArmChannel::HardwareStuck { target, .. } => format!("hw-stuck:{}", target.label()),
            ArmChannel::OutputDelay { .. } => "output-delay".to_string(),
        }
    }

    /// Whether the onset axis applies (timing delays are pipeline
    /// properties with no trigger, so their arms collapse to one onset).
    pub fn supports_onset(&self) -> bool {
        !matches!(self, ArmChannel::OutputDelay { .. })
    }

    /// Builds the concrete fault for one arm of the lattice.
    pub fn fault_spec(&self, magnitude: f64, onset: u64) -> FaultSpec {
        let trigger = Trigger::From { frame: onset };
        match *self {
            ArmChannel::Camera(model) => FaultSpec::Input(InputFault {
                model: Some(scale_image_fault(model, magnitude)),
                gps: None,
                speed: None,
                lidar: None,
                trigger,
            }),
            ArmChannel::GpsBias { bias, sigma } => FaultSpec::Input(InputFault {
                model: None,
                gps: Some(GpsFault {
                    bias_x: bias * magnitude,
                    bias_y: -bias * magnitude,
                    sigma: sigma * magnitude,
                }),
                speed: None,
                lidar: None,
                trigger,
            }),
            ArmChannel::SpeedScale { factor } => FaultSpec::Input(InputFault {
                model: None,
                gps: None,
                speed: Some(SpeedFault::Scale(1.0 + (factor - 1.0) * magnitude)),
                lidar: None,
                trigger,
            }),
            ArmChannel::LidarDropout { p } => FaultSpec::Input(InputFault {
                model: None,
                gps: None,
                speed: None,
                lidar: Some(LidarFault::BeamDropout {
                    p: (p * magnitude).clamp(0.0, 0.95),
                }),
                trigger,
            }),
            ArmChannel::HardwareStuck { target, value } => FaultSpec::Hardware(HardwareFault {
                target,
                model: BitFaultModel::StuckAt {
                    value: value * magnitude,
                },
                trigger,
            }),
            ArmChannel::OutputDelay { frames } => FaultSpec::Timing(TimingFault::OutputDelay {
                frames: ((frames as f64 * magnitude).round() as usize).max(1),
            }),
        }
    }
}

/// Scales an image fault's severity parameter by `m`, clamping into the
/// model's sane range.
fn scale_image_fault(model: ImageFault, m: f64) -> ImageFault {
    match model {
        ImageFault::Gaussian { sigma } => ImageFault::Gaussian { sigma: sigma * m },
        ImageFault::SaltPepper { p } => ImageFault::SaltPepper {
            p: (p * m).clamp(0.0, 0.5),
        },
        ImageFault::SolidOcclusion { frac } => ImageFault::SolidOcclusion {
            frac: (frac * m).clamp(0.0, 0.9),
        },
        ImageFault::TransparentOcclusion { frac, alpha } => ImageFault::TransparentOcclusion {
            frac,
            alpha: (alpha * m).clamp(0.0, 1.0),
        },
        ImageFault::WaterDrop { drops, radius_frac } => ImageFault::WaterDrop {
            drops,
            radius_frac: (radius_frac * m).clamp(0.0, 0.4),
        },
    }
}

/// The search space: the same campaign dimensions the uniform binaries
/// sweep, declared once and expanded into the arm lattice
/// scenario × channel × magnitude band × onset band (onset collapses for
/// channels without a trigger).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveSpace {
    /// Scenario templates (the evaluation suite, usually).
    pub scenarios: Vec<Scenario>,
    /// Fault channels under search.
    pub channels: Vec<ArmChannel>,
    /// Magnitude multipliers applied to each channel's base severity.
    pub magnitudes: Vec<f64>,
    /// Injection onset frames (15 frames = 1 s).
    pub onsets: Vec<u64>,
}

impl AdaptiveSpace {
    /// The paper-dimension channel set: the five Figure 2/3 camera
    /// models, GPS/speed/LIDAR data faults, stuck-at hardware faults on
    /// brake and throttle, and the Figure 4 output delay.
    pub fn paper_channels() -> Vec<ArmChannel> {
        let mut channels: Vec<ArmChannel> = ImageFault::paper_suite()
            .into_iter()
            .map(ArmChannel::Camera)
            .collect();
        channels.push(ArmChannel::GpsBias {
            bias: 4.0,
            sigma: 1.0,
        });
        channels.push(ArmChannel::SpeedScale { factor: 1.8 });
        channels.push(ArmChannel::LidarDropout { p: 0.3 });
        channels.push(ArmChannel::HardwareStuck {
            target: HardwareTarget::ControlBrake,
            value: 1.0,
        });
        channels.push(ArmChannel::HardwareStuck {
            target: HardwareTarget::ControlThrottle,
            value: 0.9,
        });
        channels.push(ArmChannel::OutputDelay { frames: 15 });
        channels
    }

    /// Expands the space into the deterministic arm lattice. Arm order
    /// is scenario-major, then channel, magnitude, onset — stable, so an
    /// arm index fully identifies its coordinates.
    pub fn arms(&self) -> Vec<ArmSpec> {
        let mut arms = Vec::new();
        let single_onset = &self.onsets[..1.min(self.onsets.len())];
        for (scenario_index, _) in self.scenarios.iter().enumerate() {
            for channel in &self.channels {
                let onsets = if channel.supports_onset() {
                    &self.onsets[..]
                } else {
                    single_onset
                };
                for &magnitude in &self.magnitudes {
                    for &onset in onsets {
                        let fault = channel.fault_spec(magnitude, onset);
                        arms.push(ArmSpec {
                            descriptor: Arm {
                                index: arms.len(),
                                scenario_index,
                                channel: channel.label(),
                                magnitude,
                                onset,
                                fault: fault.label(),
                            },
                            fault,
                        });
                    }
                }
            }
        }
        arms
    }
}

/// Serializable description of one lattice arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arm {
    /// Position in the lattice (stable arm identifier).
    pub index: usize,
    /// Scenario template index within the space.
    pub scenario_index: usize,
    /// Channel label.
    pub channel: String,
    /// Magnitude multiplier of this band.
    pub magnitude: f64,
    /// Onset frame of this band.
    pub onset: u64,
    /// Concrete fault label.
    pub fault: String,
}

/// One arm with its concrete fault plan.
#[derive(Debug, Clone)]
pub struct ArmSpec {
    /// Serializable coordinates.
    pub descriptor: Arm,
    /// The concrete fault this arm injects.
    pub fault: FaultSpec,
}

/// Beta-Bernoulli posterior over one arm's failure probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BetaPosterior {
    /// Failure pseudo-count (successes of the *search*, failures of the
    /// vehicle).
    pub alpha: f64,
    /// Benign pseudo-count.
    pub beta: f64,
}

impl Default for BetaPosterior {
    fn default() -> Self {
        BetaPosterior::uniform()
    }
}

impl BetaPosterior {
    /// The uniform Beta(1, 1) prior.
    pub fn uniform() -> Self {
        BetaPosterior {
            alpha: 1.0,
            beta: 1.0,
        }
    }

    /// Folds one observation.
    pub fn observe(&mut self, failed: bool) {
        if failed {
            self.alpha += 1.0;
        } else {
            self.beta += 1.0;
        }
    }

    /// Posterior mean failure probability.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Draws one Thompson sample (a Beta variate via the two-gamma
    /// ratio). Pure Rust, deterministic under a seeded [`StdRng`].
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        let a = sample_gamma(self.alpha, rng);
        let b = sample_gamma(self.beta, rng);
        a / (a + b)
    }
}

/// Samples Gamma(shape, 1) by Marsaglia–Tsang squeeze; posteriors keep
/// `shape >= 1`, where the method needs no boost step.
fn sample_gamma(shape: f64, rng: &mut StdRng) -> f64 {
    debug_assert!(shape >= 1.0, "Beta-Bernoulli counts never drop below 1");
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (3.0 * d.sqrt());
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random_range(1e-12..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Planner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Total runs the search may spend.
    pub budget: usize,
    /// Proposals per batch (the engine evaluates one batch at a time).
    pub batch: usize,
    /// Campaign seed; the Thompson sampler stream-splits from it.
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            budget: 120,
            batch: 8,
            seed: 2018,
        }
    }
}

/// One proposed run: an arm pull with frozen seed coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Proposal {
    /// The pulled arm's lattice index.
    pub arm: usize,
    /// Scenario template index (mixed into the world seed).
    pub scenario_index: usize,
    /// Pull count of this arm so far (mixed into the world seed).
    pub run_index: usize,
    /// The concrete fault to inject.
    pub fault: FaultSpec,
}

/// Outcome of one evaluated proposal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Whether the run failed (mission not successful, or any traffic
    /// violation occurred — the flight recorder's failure predicate).
    pub failed: bool,
    /// Triage class of the failure, when a trace was captured.
    pub class: Option<String>,
}

/// Trajectory record of one evaluated pull.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PullRecord {
    /// Pulled arm index.
    pub arm: usize,
    /// Run index the pull used.
    pub run_index: usize,
    /// Whether the run failed.
    pub failed: bool,
    /// Triage class, when classified.
    pub class: Option<String>,
}

/// Trajectory record of one proposed-and-observed batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Batch ordinal, 0-based.
    pub batch: usize,
    /// The batch's pulls, in flat-plan (job) order.
    pub pulls: Vec<PullRecord>,
    /// Posterior summaries after folding this batch: every arm pulled so
    /// far, in arm order.
    pub posteriors: Vec<PosteriorSummary>,
}

/// Posterior state of one arm at a point in the trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PosteriorSummary {
    /// Arm index.
    pub arm: usize,
    /// Pulls so far.
    pub pulls: usize,
    /// Failures so far.
    pub failures: usize,
    /// Posterior alpha.
    pub alpha: f64,
    /// Posterior beta.
    pub beta: f64,
    /// Posterior mean failure probability.
    pub mean: f64,
}

/// Failure count for one triage class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassCount {
    /// Rendered failure class (`outcome / violation / channel`).
    pub class: String,
    /// Failures of that class found by the search.
    pub count: usize,
}

/// Final search report: the headline failures-per-run metric plus the
/// concentration profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveReport {
    /// Configured budget.
    pub budget: usize,
    /// Runs actually spent.
    pub spent: usize,
    /// Failures found.
    pub failures: usize,
    /// Failures per run.
    pub failures_per_run: f64,
    /// Arms pulled at least once, ranked by posterior mean (descending;
    /// ties by arm index).
    pub top_arms: Vec<PosteriorSummary>,
    /// Failure counts grouped by triage class, descending.
    pub classes: Vec<ClassCount>,
}

/// The serializable search trajectory: config echo, the full arm
/// lattice, every batch, final posteriors, and the report. This is the
/// artifact the smoke tier golden-diffs, so it is byte-stable across
/// worker counts by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveTrajectory {
    /// Campaign seed the sampler split from.
    pub seed: u64,
    /// Total-run budget.
    pub budget: usize,
    /// Batch size.
    pub batch: usize,
    /// The full arm lattice, in order.
    pub arms: Vec<Arm>,
    /// Every proposed-and-observed batch.
    pub batches: Vec<BatchRecord>,
    /// Final report.
    pub report: AdaptiveReport,
}

/// Evaluates proposal batches; the planner is generic over this so its
/// search logic is testable without the simulator.
pub trait AdaptiveOracle {
    /// Evaluates a batch and returns its observations **in proposal
    /// order** — the fold order the determinism contract depends on.
    fn evaluate(&mut self, proposals: &[Proposal]) -> Vec<Observation>;
}

/// The online Thompson-sampling planner over the arm lattice.
#[derive(Debug, Clone)]
pub struct AdaptivePlanner {
    arms: Vec<ArmSpec>,
    config: AdaptiveConfig,
    posteriors: Vec<BetaPosterior>,
    scheduled: Vec<usize>,
    pulls: Vec<usize>,
    failures: Vec<usize>,
    spent: usize,
    rng: StdRng,
    batches: Vec<BatchRecord>,
}

impl AdaptivePlanner {
    /// Builds the planner over a space.
    ///
    /// # Panics
    ///
    /// Panics when the space expands to an empty lattice.
    pub fn new(space: &AdaptiveSpace, config: AdaptiveConfig) -> Self {
        let arms = space.arms();
        assert!(!arms.is_empty(), "adaptive space has no arms");
        let n = arms.len();
        let rng = StdRng::seed_from_u64(split_seed(config.seed, SAMPLER_STREAM));
        AdaptivePlanner {
            arms,
            config,
            posteriors: vec![BetaPosterior::uniform(); n],
            scheduled: vec![0; n],
            pulls: vec![0; n],
            failures: vec![0; n],
            spent: 0,
            rng,
            batches: Vec::new(),
        }
    }

    /// The arm lattice.
    pub fn arms(&self) -> &[ArmSpec] {
        &self.arms
    }

    /// Runs spent so far.
    pub fn spent(&self) -> usize {
        self.spent
    }

    /// Whether the budget is exhausted.
    pub fn finished(&self) -> bool {
        self.spent >= self.config.budget
    }

    /// Proposes the next batch by Thompson sampling: for each slot, one
    /// posterior sample per arm (drawn in arm order — the deterministic
    /// RNG consumption sequence), highest sample wins, ties to the lower
    /// arm index. Returns at most `batch` proposals, clipped to the
    /// remaining budget; empty once the budget is spent.
    pub fn propose(&mut self) -> Vec<Proposal> {
        let remaining = self.config.budget.saturating_sub(self.spent);
        let slots = remaining.min(self.config.batch);
        let mut proposals = Vec::with_capacity(slots);
        for _ in 0..slots {
            let mut best = 0usize;
            let mut best_sample = f64::NEG_INFINITY;
            for (arm, posterior) in self.posteriors.iter().enumerate() {
                let sample = posterior.sample(&mut self.rng);
                if sample > best_sample {
                    best_sample = sample;
                    best = arm;
                }
            }
            let spec = &self.arms[best];
            proposals.push(Proposal {
                arm: best,
                scenario_index: spec.descriptor.scenario_index,
                run_index: self.scheduled[best],
                fault: spec.fault.clone(),
            });
            self.scheduled[best] += 1;
        }
        proposals
    }

    /// Folds one batch of observations, in proposal order, into the
    /// posteriors and the trajectory.
    ///
    /// # Panics
    ///
    /// Panics when `observations` and `proposals` disagree in length —
    /// an oracle contract violation, not a recoverable condition.
    pub fn observe(&mut self, proposals: &[Proposal], observations: &[Observation]) {
        assert_eq!(
            proposals.len(),
            observations.len(),
            "oracle must observe every proposal"
        );
        let mut pulls = Vec::with_capacity(proposals.len());
        for (proposal, obs) in proposals.iter().zip(observations) {
            self.posteriors[proposal.arm].observe(obs.failed);
            self.pulls[proposal.arm] += 1;
            if obs.failed {
                self.failures[proposal.arm] += 1;
            }
            self.spent += 1;
            pulls.push(PullRecord {
                arm: proposal.arm,
                run_index: proposal.run_index,
                failed: obs.failed,
                class: obs.class.clone(),
            });
        }
        self.batches.push(BatchRecord {
            batch: self.batches.len(),
            pulls,
            posteriors: self.posterior_summaries(),
        });
    }

    /// Posterior summaries of every arm pulled so far, in arm order.
    fn posterior_summaries(&self) -> Vec<PosteriorSummary> {
        (0..self.arms.len())
            .filter(|&arm| self.pulls[arm] > 0)
            .map(|arm| PosteriorSummary {
                arm,
                pulls: self.pulls[arm],
                failures: self.failures[arm],
                alpha: self.posteriors[arm].alpha,
                beta: self.posteriors[arm].beta,
                mean: self.posteriors[arm].mean(),
            })
            .collect()
    }

    /// Assembles the final report.
    pub fn report(&self) -> AdaptiveReport {
        let spent = self.spent;
        let failures: usize = self.failures.iter().sum();
        let mut top_arms = self.posterior_summaries();
        top_arms.sort_by(|a, b| {
            b.mean
                .partial_cmp(&a.mean)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.arm.cmp(&b.arm))
        });
        let mut classes: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for batch in &self.batches {
            for pull in &batch.pulls {
                if let Some(class) = &pull.class {
                    *classes.entry(class.clone()).or_insert(0) += 1;
                }
            }
        }
        let mut classes: Vec<ClassCount> = classes
            .into_iter()
            .map(|(class, count)| ClassCount { class, count })
            .collect();
        classes.sort_by(|a, b| b.count.cmp(&a.count).then(a.class.cmp(&b.class)));
        AdaptiveReport {
            budget: self.config.budget,
            spent,
            failures,
            failures_per_run: if spent == 0 {
                0.0
            } else {
                failures as f64 / spent as f64
            },
            top_arms,
            classes,
        }
    }

    /// Assembles the full serializable trajectory.
    pub fn trajectory(&self) -> AdaptiveTrajectory {
        AdaptiveTrajectory {
            seed: self.config.seed,
            budget: self.config.budget,
            batch: self.config.batch,
            arms: self.arms.iter().map(|a| a.descriptor.clone()).collect(),
            batches: self.batches.clone(),
            report: self.report(),
        }
    }
}

/// Drives a planner against an oracle until the budget is spent.
pub fn drive(planner: &mut AdaptivePlanner, oracle: &mut dyn AdaptiveOracle) {
    while !planner.finished() {
        let proposals = planner.propose();
        if proposals.is_empty() {
            break;
        }
        let observations = oracle.evaluate(&proposals);
        planner.observe(&proposals, &observations);
    }
}

/// The production oracle: fans proposals through
/// [`Engine::evaluate_jobs`] and classifies failures by triage class.
/// Captured failure traces are kept, keyed by global pull index (the
/// flat-plan order), so `triage`/`shrink` tooling consumes them exactly
/// like campaign trace directories.
#[derive(Debug)]
pub struct EngineOracle<'a> {
    engine: &'a Engine,
    agent: Agent,
    scenarios: Vec<Scenario>,
    spec: TraceSpec,
    evaluated: usize,
    /// Failure traces captured so far, keyed by global pull index.
    pub traces: Vec<(usize, RunTrace)>,
}

impl<'a> EngineOracle<'a> {
    /// Builds the oracle over the space's scenario templates, and its
    /// agent once (panicking if its weights do not decode): every pull
    /// drives a clone of it.
    pub fn new(
        engine: &'a Engine,
        agent: AgentSpec,
        scenarios: Vec<Scenario>,
        study: &str,
    ) -> Self {
        EngineOracle {
            engine,
            spec: TraceSpec {
                level: TraceLevel::Blackbox,
                study: study.to_string(),
                blackbox_frames: 64,
                weights_fingerprint: agent.weights_fingerprint(),
            },
            agent: agent.build().expect("adaptive agent weights decode"),
            scenarios,
            evaluated: 0,
            traces: Vec::new(),
        }
    }
}

impl AdaptiveOracle for EngineOracle<'_> {
    fn evaluate(&mut self, proposals: &[Proposal]) -> Vec<Observation> {
        let jobs: Vec<EvalJob> = proposals
            .iter()
            .map(|p| EvalJob {
                scenario: self.scenarios[p.scenario_index].clone(),
                scenario_index: p.scenario_index,
                run_index: p.run_index,
                fault: p.fault.clone(),
            })
            .collect();
        let results = self.engine.evaluate_jobs(&jobs, &self.agent, &self.spec);
        let mut observations = Vec::with_capacity(results.len());
        for (offset, (result, trace)) in results.into_iter().enumerate() {
            let failed = !result.outcome.is_success() || !result.violations.is_empty();
            let class = trace
                .as_ref()
                .and_then(failure_class)
                .map(|c| c.to_string());
            if let Some(trace) = trace {
                self.traces.push((self.evaluated + offset, trace));
            }
            observations.push(Observation { failed, class });
        }
        self.evaluated += proposals.len();
        observations
    }
}

/// Result of one engine-backed adaptive search.
#[derive(Debug)]
pub struct AdaptiveOutcome {
    /// The full serializable trajectory.
    pub trajectory: AdaptiveTrajectory,
    /// Failure traces, keyed by global pull index.
    pub traces: Vec<(usize, RunTrace)>,
}

/// Failure tally of a uniform control sweep at matched budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniformReport {
    /// Runs spent.
    pub spent: usize,
    /// Failures found.
    pub failures: usize,
    /// Failures per run.
    pub failures_per_run: f64,
}

/// The uniform control: round-robins the same arm lattice (arm order,
/// wrapping) through the same oracle until `budget` runs are spent —
/// exactly the exhaustive-grid spending pattern adaptive search
/// replaces, with identical per-pull seed semantics, so failures-per-run
/// is directly comparable.
pub fn run_uniform(
    space: &AdaptiveSpace,
    budget: usize,
    batch: usize,
    oracle: &mut dyn AdaptiveOracle,
) -> UniformReport {
    let arms = space.arms();
    let mut scheduled = vec![0usize; arms.len()];
    let mut spent = 0usize;
    let mut failures = 0usize;
    let mut cursor = 0usize;
    while spent < budget {
        let slots = (budget - spent).min(batch.max(1));
        let mut proposals = Vec::with_capacity(slots);
        for _ in 0..slots {
            let arm = cursor % arms.len();
            cursor += 1;
            let spec = &arms[arm];
            proposals.push(Proposal {
                arm,
                scenario_index: spec.descriptor.scenario_index,
                run_index: scheduled[arm],
                fault: spec.fault.clone(),
            });
            scheduled[arm] += 1;
        }
        let observations = oracle.evaluate(&proposals);
        assert_eq!(observations.len(), proposals.len());
        failures += observations.iter().filter(|o| o.failed).count();
        spent += proposals.len();
    }
    UniformReport {
        spent,
        failures,
        failures_per_run: if spent == 0 {
            0.0
        } else {
            failures as f64 / spent as f64
        },
    }
}

/// Runs an adaptive search end to end: Thompson-sampled batches through
/// the engine until `config.budget` runs are spent. The returned
/// trajectory (and trace set) is byte-identical for any engine worker
/// count.
pub fn run_adaptive(
    engine: &Engine,
    space: &AdaptiveSpace,
    config: AdaptiveConfig,
    agent: &AgentSpec,
    study: &str,
) -> AdaptiveOutcome {
    let mut planner = AdaptivePlanner::new(space, config);
    let mut oracle = EngineOracle::new(engine, agent.clone(), space.scenarios.clone(), study);
    drive(&mut planner, &mut oracle);
    AdaptiveOutcome {
        trajectory: planner.trajectory(),
        traces: oracle.traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::scenario::TownSpec;

    fn tiny_scenario(seed: u64) -> Scenario {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(seed)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(15.0)
            .min_route_length(50.0)
            .build()
    }

    fn tiny_space() -> AdaptiveSpace {
        AdaptiveSpace {
            scenarios: vec![tiny_scenario(11), tiny_scenario(13)],
            channels: vec![
                ArmChannel::Camera(ImageFault::gaussian(0.08)),
                ArmChannel::HardwareStuck {
                    target: HardwareTarget::ControlBrake,
                    value: 1.0,
                },
                ArmChannel::OutputDelay { frames: 15 },
            ],
            magnitudes: vec![0.5, 1.0],
            onsets: vec![0, 75],
        }
    }

    /// Oracle where a fixed arm set always fails and everything else is
    /// benign.
    struct FixedFailureOracle {
        failing: std::collections::BTreeSet<usize>,
    }

    impl AdaptiveOracle for FixedFailureOracle {
        fn evaluate(&mut self, proposals: &[Proposal]) -> Vec<Observation> {
            proposals
                .iter()
                .map(|p| Observation {
                    failed: self.failing.contains(&p.arm),
                    class: self
                        .failing
                        .contains(&p.arm)
                        .then(|| "timeout / none / none".to_string()),
                })
                .collect()
        }
    }

    #[test]
    fn lattice_order_is_stable_and_onset_collapses_for_delay() {
        let space = tiny_space();
        let arms = space.arms();
        // 2 scenarios × (2 triggered channels × 2 magnitudes × 2 onsets
        //              + 1 delay channel × 2 magnitudes × 1 onset)
        assert_eq!(arms.len(), 2 * (2 * 2 * 2 + 2));
        for (i, arm) in arms.iter().enumerate() {
            assert_eq!(arm.descriptor.index, i);
        }
        let delay_arms: Vec<&ArmSpec> = arms
            .iter()
            .filter(|a| a.descriptor.channel == "output-delay")
            .collect();
        assert_eq!(delay_arms.len(), 4);
        assert!(delay_arms.iter().all(|a| a.descriptor.onset == 0));
        // Magnitude scales the delay.
        assert_eq!(delay_arms[0].descriptor.fault, "delay 8f");
        assert_eq!(delay_arms[1].descriptor.fault, "delay 15f");
        // Expansion is deterministic.
        let again = space.arms();
        assert_eq!(
            arms.iter().map(|a| &a.descriptor).collect::<Vec<_>>(),
            again.iter().map(|a| &a.descriptor).collect::<Vec<_>>()
        );
    }

    #[test]
    fn posterior_counts_and_mean() {
        let mut p = BetaPosterior::uniform();
        assert_eq!(p.mean(), 0.5);
        p.observe(true);
        p.observe(true);
        p.observe(false);
        assert_eq!((p.alpha, p.beta), (3.0, 2.0));
        assert!((p.mean() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn beta_samples_are_in_unit_interval_and_deterministic() {
        let p = BetaPosterior {
            alpha: 7.0,
            beta: 3.0,
        };
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let x = p.sample(&mut a);
            let y = p.sample(&mut b);
            assert!(x > 0.0 && x < 1.0, "sample out of range: {x}");
            assert_eq!(x, y, "sampling must be deterministic under a seed");
        }
        // Samples track the posterior mean for a peaked posterior.
        let peaked = BetaPosterior {
            alpha: 400.0,
            beta: 100.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mean = (0..500).map(|_| peaked.sample(&mut rng)).sum::<f64>() / 500.0;
        assert!((mean - 0.8).abs() < 0.02, "empirical mean {mean}");
    }

    #[test]
    fn planner_spends_exactly_the_budget_in_batches() {
        let space = tiny_space();
        let config = AdaptiveConfig {
            budget: 10,
            batch: 4,
            seed: 1,
        };
        let mut planner = AdaptivePlanner::new(&space, config);
        let mut oracle = FixedFailureOracle {
            failing: std::collections::BTreeSet::new(),
        };
        let mut batch_sizes = Vec::new();
        while !planner.finished() {
            let proposals = planner.propose();
            batch_sizes.push(proposals.len());
            let obs = oracle.evaluate(&proposals);
            planner.observe(&proposals, &obs);
        }
        assert_eq!(batch_sizes, vec![4, 4, 2], "last batch clips to budget");
        assert_eq!(planner.spent(), 10);
        let trajectory = planner.trajectory();
        assert_eq!(trajectory.batches.len(), 3);
        assert_eq!(trajectory.report.spent, 10);
    }

    #[test]
    fn thompson_sampling_concentrates_on_the_failing_arm() {
        let space = tiny_space();
        let arms = space.arms().len();
        let failing_arm = 5usize;
        let config = AdaptiveConfig {
            budget: 120,
            batch: 6,
            seed: 2018,
        };
        let mut planner = AdaptivePlanner::new(&space, config);
        let mut oracle = FixedFailureOracle {
            failing: [failing_arm].into_iter().collect(),
        };
        drive(&mut planner, &mut oracle);
        let report = planner.report();
        assert_eq!(report.spent, 120);
        let top = &report.top_arms[0];
        assert_eq!(
            top.arm, failing_arm,
            "the always-failing arm must rank first"
        );
        // The search must concentrate: the failing arm gets far more than
        // the uniform share of the budget.
        let uniform_share = 120 / arms;
        assert!(
            top.pulls > 5 * uniform_share.max(1),
            "failing arm pulled {} times (uniform share {})",
            top.pulls,
            uniform_share
        );
        assert_eq!(report.failures, top.failures);
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].count, report.failures);
    }

    #[test]
    fn run_indices_count_pulls_per_arm() {
        let space = tiny_space();
        let config = AdaptiveConfig {
            budget: 40,
            batch: 5,
            seed: 3,
        };
        let mut planner = AdaptivePlanner::new(&space, config);
        let mut oracle = FixedFailureOracle {
            failing: [2usize].into_iter().collect(),
        };
        let mut seen: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        while !planner.finished() {
            let proposals = planner.propose();
            for p in &proposals {
                let expected = seen.entry(p.arm).or_insert(0);
                assert_eq!(
                    p.run_index, *expected,
                    "run_index must equal prior pulls of the arm"
                );
                *expected += 1;
            }
            let obs = oracle.evaluate(&proposals);
            planner.observe(&proposals, &obs);
        }
    }

    #[test]
    fn identical_histories_yield_identical_trajectories() {
        let space = tiny_space();
        let config = AdaptiveConfig {
            budget: 60,
            batch: 4,
            seed: 77,
        };
        let run = || {
            let mut planner = AdaptivePlanner::new(&space, config.clone());
            let mut oracle = FixedFailureOracle {
                failing: [1usize, 9].into_iter().collect(),
            };
            drive(&mut planner, &mut oracle);
            serde_json::to_string_pretty(&planner.trajectory()).unwrap()
        };
        assert_eq!(
            run(),
            run(),
            "trajectory must be a pure function of seed + outcomes"
        );
    }

    #[test]
    fn trajectory_round_trips_through_json() {
        let space = tiny_space();
        let config = AdaptiveConfig {
            budget: 8,
            batch: 4,
            seed: 5,
        };
        let mut planner = AdaptivePlanner::new(&space, config);
        let mut oracle = FixedFailureOracle {
            failing: [0usize].into_iter().collect(),
        };
        drive(&mut planner, &mut oracle);
        let trajectory = planner.trajectory();
        let json = serde_json::to_string(&trajectory).unwrap();
        let back: AdaptiveTrajectory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trajectory);
    }

    #[test]
    fn channel_faults_scale_with_magnitude_and_onset() {
        let camera = ArmChannel::Camera(ImageFault::gaussian(0.08));
        match camera.fault_spec(2.0, 75) {
            FaultSpec::Input(f) => {
                assert_eq!(f.model, Some(ImageFault::Gaussian { sigma: 0.16 }));
                assert_eq!(f.trigger, Trigger::From { frame: 75 });
            }
            other => panic!("unexpected spec {other:?}"),
        }
        let stuck = ArmChannel::HardwareStuck {
            target: HardwareTarget::ControlBrake,
            value: 1.0,
        };
        match stuck.fault_spec(0.5, 150) {
            FaultSpec::Hardware(f) => {
                assert_eq!(f.model, BitFaultModel::StuckAt { value: 0.5 });
                assert_eq!(f.trigger, Trigger::From { frame: 150 });
            }
            other => panic!("unexpected spec {other:?}"),
        }
        // Salt & pepper clamps its probability.
        let sp = ArmChannel::Camera(ImageFault::salt_pepper(0.4));
        match sp.fault_spec(4.0, 0) {
            FaultSpec::Input(f) => {
                assert_eq!(f.model, Some(ImageFault::SaltPepper { p: 0.5 }))
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn uniform_control_round_robins_the_lattice() {
        let space = tiny_space();
        let arms = space.arms().len();
        let failing_arm = 5usize;
        let mut oracle = FixedFailureOracle {
            failing: [failing_arm].into_iter().collect(),
        };
        // Two full laps plus a partial third.
        let budget = 2 * arms + 3;
        let report = run_uniform(&space, budget, 7, &mut oracle);
        assert_eq!(report.spent, budget);
        // Round-robin pulls the failing arm once per completed lap.
        assert_eq!(report.failures, 2);
        assert!((report.failures_per_run - 2.0 / budget as f64).abs() < 1e-12);
    }

    #[test]
    fn neural_oracle_traces_record_the_weights_fingerprint() {
        let mut net = avfi_agent::IlNetwork::new(5);
        let fingerprint = avfi_trace::fingerprint(&net.to_weights());
        let engine = Engine::new().workers(1);
        let agent = AgentSpec::neural(&mut net);
        let mut oracle = EngineOracle::new(&engine, agent, vec![tiny_scenario(11)], "fp");
        let stuck_brake = ArmChannel::HardwareStuck {
            target: HardwareTarget::ControlBrake,
            value: 1.0,
        };
        let observations = oracle.evaluate(&[Proposal {
            arm: 0,
            scenario_index: 0,
            run_index: 0,
            fault: stuck_brake.fault_spec(1.0, 0),
        }]);
        assert!(observations[0].failed, "a stuck brake fails the mission");
        let (_, trace) = &oracle.traces[0];
        assert_eq!(trace.header.weights_fingerprint, Some(fingerprint));
    }

    #[test]
    fn paper_channels_cover_all_fault_classes() {
        let channels = AdaptiveSpace::paper_channels();
        assert_eq!(channels.len(), 11);
        let classes: std::collections::BTreeSet<&'static str> = channels
            .iter()
            .map(|c| c.fault_spec(1.0, 0).class())
            .collect();
        assert!(classes.contains("data"));
        assert!(classes.contains("hardware"));
        assert!(classes.contains("timing"));
    }
}
