//! Trace-driven failure minimization: a delta-debugging shrinker that
//! turns any failed run's flight-recorder trace into a minimal,
//! replay-verified repro.
//!
//! A blackbox trace pins down *when* a run failed; this module answers
//! *how little it takes*. Starting from the scenario + fault the trace
//! header records, the shrinker walks a **reduction lattice** — fewer
//! NPC vehicles and pedestrians, lower crossing rate, shorter route and
//! time budget, simpler weather, later fault onset, narrower trigger
//! window, smaller fault magnitude — re-executing each candidate through
//! the same `run_mission` path the campaign used and keeping a reduction
//! only if the run still fails in the **same
//! [`FailureClass`]** (outcome, first violation kind, causal channel;
//! see [`crate::triage`]). Every accepted step is **replay-verified**: a
//! second re-execution must reproduce the candidate's trace bit for bit
//! ([`crate::replay`] semantics), so the emitted minimum is a
//! standalone deterministic repro, not a flaky one-off.
//!
//! ## Deterministic parallel shrink
//!
//! Each iteration proposes every lattice candidate for the current
//! state, evaluates **all of them** through the work-stealing
//! [`Engine`] (speculative evaluation; results land in preassigned
//! slots), then folds the verdicts **in flat-lattice proposal order**:
//! the first class-preserving, replay-verified candidate wins the
//! iteration. Because the fold order is fixed and every evaluation is
//! seeded from the frozen `(template seed, scenario index, run index)`
//! coordinates of the original failure, the shrink trajectory — and the
//! final minimum — is byte-identical for any `--workers N`; worker
//! count buys wall-clock only.
//!
//! Termination: integer axes strictly decrease, `f64` axes halve
//! against absolute floors, trigger onsets binary-search monotonically
//! toward the violation anchor, and a global
//! [`ShrinkConfig::max_iterations`] cap backstops everything.

use crate::campaign::TraceSpec;
use crate::engine::{blackbox_frames, Engine, EvalJob, BLACKBOX_SECONDS};
use crate::fault::hardware::BitFaultModel;
use crate::fault::input::{ImageFault, InputFault, LidarFault, SpeedFault};
use crate::fault::ml::MlFault;
use crate::fault::timing::TimingFault;
use crate::fault::FaultSpec;
use crate::replay::{decode_header, replay_trace, ReplayError, ReplayVerdict};
use crate::triage::{failure_class, FailureClass};
use crate::trigger::Trigger;
use avfi_agent::Agent;
use avfi_sim::scenario::Scenario;
use avfi_sim::weather::Weather;
use avfi_sim::FRAME_DT;
use avfi_trace::{RunTrace, TraceEvent, TraceLevel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Shrinker tuning knobs.
#[derive(Debug, Clone)]
pub struct ShrinkConfig {
    /// Hard cap on lattice iterations (each iteration accepts at most
    /// one reduction).
    pub max_iterations: usize,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig { max_iterations: 40 }
    }
}

/// A reduction-lattice axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Axis {
    /// The unreduced original (used only for the baseline re-execution).
    Baseline,
    /// Fewer NPC traffic vehicles.
    NpcVehicles,
    /// Fewer pedestrians.
    Pedestrians,
    /// Lower pedestrian road-crossing rate.
    CrossRate,
    /// Smaller mission time budget.
    TimeBudget,
    /// Shorter minimum route length.
    RouteLength,
    /// Simpler weather preset.
    Weather,
    /// Later fault onset (trigger start moves toward the violation).
    FaultOnset,
    /// Narrower trigger window (open-ended triggers close just past the
    /// violation).
    TriggerWindow,
    /// Smaller fault magnitude (σ, probabilities, patch sizes, bit
    /// counts, delays — including dropping the fault or a channel
    /// entirely).
    FaultMagnitude,
}

impl Axis {
    /// Stable kebab-case label (used in shrink logs and repro JSON).
    pub fn label(self) -> &'static str {
        match self {
            Axis::Baseline => "baseline",
            Axis::NpcVehicles => "npc-vehicles",
            Axis::Pedestrians => "pedestrians",
            Axis::CrossRate => "cross-rate",
            Axis::TimeBudget => "time-budget",
            Axis::RouteLength => "route-length",
            Axis::Weather => "weather",
            Axis::FaultOnset => "fault-onset",
            Axis::TriggerWindow => "trigger-window",
            Axis::FaultMagnitude => "fault-magnitude",
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One point of the reduction lattice: a candidate (scenario, fault)
/// pair differing from the current state on exactly one axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The axis the candidate reduces.
    pub axis: Axis,
    /// Human-readable `old → new` description for the shrink log.
    pub description: String,
    /// Candidate scenario template (seed never changes).
    pub scenario: Scenario,
    /// Candidate fault plan.
    pub fault: FaultSpec,
}

/// Frame anchors of the current failure, used to bound onset/window
/// proposals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Frame of the first violation, when one occurred.
    pub violation_frame: Option<u64>,
    /// Last recorded frame of the run.
    pub final_frame: u64,
}

/// What one candidate evaluation established.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEval {
    /// The candidate run's failure class (`None`: did not fail).
    pub class: Option<FailureClass>,
    /// Updated anchors from the candidate run, when it failed.
    pub anchor: Option<Anchor>,
}

/// The evaluation back end the generic shrink loop drives.
///
/// The real implementation is [`EngineOracle`] (re-executes candidates
/// through the engine); tests substitute synthetic oracles to check
/// lattice invariants without running the simulator.
pub trait ShrinkOracle {
    /// Evaluates a batch of candidates, one eval per candidate, in
    /// order. Implementations must be deterministic in the candidates.
    fn evaluate(&mut self, candidates: &[Candidate]) -> Vec<CandidateEval>;

    /// Replay-verifies candidate `index` of the batch most recently
    /// passed to [`ShrinkOracle::evaluate`]: `true` when a re-execution
    /// reproduces it bit-identically.
    fn verify(&mut self, index: usize) -> bool;
}

/// Verdict on one proposed candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShrinkVerdict {
    /// Same failure class and replay-verified: the reduction is kept.
    Accepted,
    /// The reduced run no longer fails.
    RejectedNoFailure,
    /// The reduced run fails in a different class.
    RejectedClassChanged,
    /// Same class, but a re-execution did not reproduce bit-identically.
    RejectedReplayDiverged,
    /// Evaluated speculatively but an earlier candidate (in proposal
    /// order) was already accepted this iteration.
    NotSelected,
}

/// One shrink-log entry: what was tried and what happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShrinkStep {
    /// Lattice iteration (1-based).
    pub iteration: usize,
    /// Axis label of the candidate.
    pub axis: String,
    /// `old → new` candidate description.
    pub candidate: String,
    /// What happened to the candidate.
    pub verdict: ShrinkVerdict,
    /// Cumulative simulator runs spent through this iteration
    /// (evaluations + replay verifications).
    pub runs_spent: usize,
}

/// A minimal, replay-verified repro: everything needed to re-execute
/// the minimized failure deterministically and what to expect from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinimalRepro {
    /// Trace file the shrink started from.
    pub source_trace: String,
    /// Study name from the source header.
    pub study: String,
    /// Agent name (`"expert"` / `"il-cnn"`).
    pub agent: String,
    /// Label of the minimized fault.
    pub fault_label: String,
    /// Scenario index held fixed through the shrink.
    pub scenario_index: usize,
    /// Run index held fixed through the shrink.
    pub run_index: usize,
    /// Derived per-run seed (unchanged: the template seed and indices
    /// are frozen, so every candidate reuses the original derivation).
    pub seed: u64,
    /// The minimized scenario template.
    pub scenario: Scenario,
    /// The minimized fault plan.
    pub fault: FaultSpec,
    /// The failure class the repro must land in.
    pub expected: FailureClass,
    /// Accepted reductions, in order (`axis: old → new`).
    pub reductions: Vec<String>,
    /// Lattice iterations executed.
    pub iterations: usize,
    /// Total simulator runs spent (baseline + evaluations +
    /// verifications).
    pub runs_spent: usize,
}

/// Result of shrinking one trace: the repro plus the full shrink log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShrinkOutcome {
    /// The minimal repro.
    pub repro: MinimalRepro,
    /// Every candidate tried, with verdicts, in order.
    pub log: Vec<ShrinkStep>,
}

/// Why a shrink could not be attempted.
#[derive(Debug, Clone, PartialEq)]
pub enum ShrinkError {
    /// The trace is not re-executable (bad fault spec, seed mismatch,
    /// unknown agent, missing, mismatched or undecodable weights).
    Replay(ReplayError),
    /// The trace records a successful, violation-free run — nothing to
    /// minimize.
    NotAFailure,
    /// Re-executing the unreduced original did not land in the recorded
    /// failure class; shrinking would minimize a different failure.
    BaselineMismatch {
        /// Class recorded in the trace.
        expected: Box<FailureClass>,
        /// Class the re-execution produced (`None`: did not fail).
        got: Option<Box<FailureClass>>,
    },
}

impl fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShrinkError::Replay(e) => write!(f, "trace not re-executable: {e}"),
            ShrinkError::NotAFailure => f.write_str("trace records a successful run"),
            ShrinkError::BaselineMismatch { expected, got } => write!(
                f,
                "baseline re-execution landed in class {} instead of {expected}",
                got.as_ref()
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "<no failure>".to_string())
            ),
        }
    }
}

impl std::error::Error for ShrinkError {}

impl From<ReplayError> for ShrinkError {
    fn from(e: ReplayError) -> Self {
        ShrinkError::Replay(e)
    }
}

/// Result of the generic shrink loop (before repro assembly).
#[derive(Debug, Clone)]
pub struct ShrinkLoopResult {
    /// The minimized scenario.
    pub scenario: Scenario,
    /// The minimized fault.
    pub fault: FaultSpec,
    /// Full candidate log.
    pub log: Vec<ShrinkStep>,
    /// Iterations executed.
    pub iterations: usize,
    /// Simulator runs spent by the loop.
    pub runs_spent: usize,
}

// ---------------------------------------------------------------------
// Reduction lattice
// ---------------------------------------------------------------------

/// Strict-decrease halving toward an absolute floor. Returns `None`
/// once `value` cannot decrease meaningfully (termination guarantee for
/// `f64` axes).
fn halve(value: f64, floor: f64) -> Option<f64> {
    let next = (value / 2.0).max(floor);
    (next < value - 1e-9).then_some(next)
}

/// Reduction candidates for an integer count: try zero first (biggest
/// cut), then half, then one less — classic ddmin granularity.
fn count_steps(n: usize) -> Vec<usize> {
    let mut steps = Vec::new();
    for k in [0, n / 2, n.saturating_sub(1)] {
        if k < n && !steps.contains(&k) {
            steps.push(k);
        }
    }
    steps
}

/// Complexity rank of a weather preset (lower = simpler to simulate
/// and reason about).
fn weather_rank(w: Weather) -> u8 {
    match w {
        Weather::ClearNoon => 0,
        Weather::Overcast => 1,
        Weather::Dusk => 2,
        Weather::Rain => 3,
        Weather::Fog => 4,
    }
}

fn weather_by_rank(rank: u8) -> Weather {
    match rank {
        0 => Weather::ClearNoon,
        1 => Weather::Overcast,
        2 => Weather::Dusk,
        3 => Weather::Rain,
        _ => Weather::Fog,
    }
}

fn trigger_desc(t: &Trigger) -> String {
    match *t {
        Trigger::Always => "always".to_string(),
        Trigger::From { frame } => format!("from {frame}"),
        Trigger::Window { start, end } => format!("window {start}..{end}"),
        Trigger::Bernoulli { p } => format!("bernoulli p={p}"),
    }
}

/// The trigger of a fault plan, when the class has one (timing and ML
/// faults are structurally always-on).
fn fault_trigger(fault: &FaultSpec) -> Option<&Trigger> {
    match fault {
        FaultSpec::Input(f) => Some(&f.trigger),
        FaultSpec::Hardware(f) => Some(&f.trigger),
        _ => None,
    }
}

fn with_trigger(fault: &FaultSpec, trigger: Trigger) -> FaultSpec {
    let mut fault = fault.clone();
    match &mut fault {
        FaultSpec::Input(f) => f.trigger = trigger,
        FaultSpec::Hardware(f) => f.trigger = trigger,
        _ => {}
    }
    fault
}

/// Magnitude-reduction candidates for a fault plan, as
/// `(description, reduced fault)` pairs in fixed order.
fn magnitude_candidates(fault: &FaultSpec) -> Vec<(String, FaultSpec)> {
    let mut out: Vec<(String, FaultSpec)> = Vec::new();
    // The biggest possible cut first: no fault at all. Survives the
    // class check only when the failure never needed the injection
    // (e.g. a timeout the traffic causes on its own).
    if *fault != FaultSpec::None {
        out.push(("fault dropped entirely".to_string(), FaultSpec::None));
    }
    match fault {
        FaultSpec::None => {}
        FaultSpec::Input(f) => input_magnitude_candidates(f, &mut out),
        FaultSpec::Hardware(h) => {
            if let BitFaultModel::MultiBitFlip { bits } = &h.model {
                if bits.len() >= 2 {
                    let keep = bits.len().div_ceil(2);
                    let mut reduced = h.clone();
                    reduced.model = BitFaultModel::MultiBitFlip {
                        bits: bits[..keep].to_vec(),
                    };
                    out.push((
                        format!("bit flips {} → {keep}", bits.len()),
                        FaultSpec::Hardware(reduced),
                    ));
                }
            }
        }
        FaultSpec::Timing(t) => match *t {
            TimingFault::OutputDelay { frames } => {
                if frames >= 2 {
                    out.push((
                        format!("delay {frames}f → {}f", frames / 2),
                        FaultSpec::Timing(TimingFault::OutputDelay { frames: frames / 2 }),
                    ));
                }
            }
            TimingFault::DropFrames { p } => {
                if let Some(q) = halve(p, 1e-3) {
                    out.push((
                        format!("drop p {p} → {q}"),
                        FaultSpec::Timing(TimingFault::DropFrames { p: q }),
                    ));
                }
            }
            TimingFault::Reorder { window } => {
                if window >= 4 {
                    out.push((
                        format!("reorder window {window} → {}", window / 2),
                        FaultSpec::Timing(TimingFault::Reorder { window: window / 2 }),
                    ));
                }
            }
        },
        FaultSpec::Ml(m) => match m {
            MlFault::WeightNoise {
                sigma,
                fraction,
                selector,
            } => {
                if let Some(s) = halve(*sigma, 1e-4) {
                    out.push((
                        format!("weight-noise σ {sigma} → {s}"),
                        FaultSpec::Ml(MlFault::WeightNoise {
                            sigma: s,
                            fraction: *fraction,
                            selector: selector.clone(),
                        }),
                    ));
                }
                if let Some(fr) = halve(*fraction, 0.01) {
                    out.push((
                        format!("weight-noise fraction {fraction} → {fr}"),
                        FaultSpec::Ml(MlFault::WeightNoise {
                            sigma: *sigma,
                            fraction: fr,
                            selector: selector.clone(),
                        }),
                    ));
                }
            }
            MlFault::WeightBitFlip { flips, selector } => {
                if *flips >= 2 {
                    out.push((
                        format!("weight bit flips {flips} → {}", flips / 2),
                        FaultSpec::Ml(MlFault::WeightBitFlip {
                            flips: flips / 2,
                            selector: selector.clone(),
                        }),
                    ));
                }
            }
            MlFault::NeuronStuckAt { .. } => {}
        },
    }
    out
}

fn input_magnitude_candidates(f: &InputFault, out: &mut Vec<(String, FaultSpec)>) {
    let active_channels = [
        f.model.is_some(),
        f.gps.is_some(),
        f.speed.is_some(),
        f.lidar.is_some(),
    ]
    .iter()
    .filter(|b| **b)
    .count();
    // Channel drops: only when another channel keeps the fault alive.
    if active_channels >= 2 {
        if f.model.is_some() {
            let mut g = f.clone();
            g.model = None;
            out.push(("camera channel dropped".to_string(), FaultSpec::Input(g)));
        }
        if f.gps.is_some() {
            let mut g = f.clone();
            g.gps = None;
            out.push(("gps channel dropped".to_string(), FaultSpec::Input(g)));
        }
        if f.speed.is_some() {
            let mut g = f.clone();
            g.speed = None;
            out.push(("speed channel dropped".to_string(), FaultSpec::Input(g)));
        }
        if f.lidar.is_some() {
            let mut g = f.clone();
            g.lidar = None;
            out.push(("lidar channel dropped".to_string(), FaultSpec::Input(g)));
        }
    }
    if let Some(model) = f.model {
        let mut push_model = |desc: String, m: ImageFault| {
            let mut g = f.clone();
            g.model = Some(m);
            out.push((desc, FaultSpec::Input(g)));
        };
        match model {
            ImageFault::Gaussian { sigma } => {
                if let Some(s) = halve(sigma, 1e-3) {
                    push_model(
                        format!("image σ {sigma} → {s}"),
                        ImageFault::Gaussian { sigma: s },
                    );
                }
            }
            ImageFault::SaltPepper { p } => {
                if let Some(q) = halve(p, 1e-4) {
                    push_model(
                        format!("image s&p p {p} → {q}"),
                        ImageFault::SaltPepper { p: q },
                    );
                }
            }
            ImageFault::SolidOcclusion { frac } => {
                if let Some(fr) = halve(frac, 0.01) {
                    push_model(
                        format!("occlusion frac {frac} → {fr}"),
                        ImageFault::SolidOcclusion { frac: fr },
                    );
                }
            }
            ImageFault::TransparentOcclusion { frac, alpha } => {
                if let Some(fr) = halve(frac, 0.01) {
                    push_model(
                        format!("occlusion frac {frac} → {fr}"),
                        ImageFault::TransparentOcclusion { frac: fr, alpha },
                    );
                }
                if let Some(a) = halve(alpha, 0.01) {
                    push_model(
                        format!("occlusion alpha {alpha} → {a}"),
                        ImageFault::TransparentOcclusion { frac, alpha: a },
                    );
                }
            }
            ImageFault::WaterDrop { drops, radius_frac } => {
                if drops >= 2 {
                    push_model(
                        format!("drops {drops} → {}", drops / 2),
                        ImageFault::WaterDrop {
                            drops: drops / 2,
                            radius_frac,
                        },
                    );
                }
                if let Some(r) = halve(radius_frac, 0.005) {
                    push_model(
                        format!("drop radius {radius_frac} → {r}"),
                        ImageFault::WaterDrop {
                            drops,
                            radius_frac: r,
                        },
                    );
                }
            }
        }
    }
    if let Some(gps) = f.gps {
        let scale = gps.bias_x.abs().max(gps.bias_y.abs()).max(gps.sigma);
        if scale > 1e-3 {
            let mut g = f.clone();
            g.gps = Some(avfi_core_gps_halved(gps));
            out.push((
                format!("gps magnitude halved (scale {scale})"),
                FaultSpec::Input(g),
            ));
        }
    }
    if let Some(SpeedFault::Scale(s)) = f.speed {
        let toward_one = (s + 1.0) / 2.0;
        if (toward_one - 1.0).abs() > 1e-3 && (toward_one - s).abs() > 1e-9 {
            let mut g = f.clone();
            g.speed = Some(SpeedFault::Scale(toward_one));
            out.push((
                format!("speed scale {s} → {toward_one}"),
                FaultSpec::Input(g),
            ));
        }
    }
    if let Some(lidar) = f.lidar {
        let mut push_lidar = |desc: String, l: LidarFault| {
            let mut g = f.clone();
            g.lidar = Some(l);
            out.push((desc, FaultSpec::Input(g)));
        };
        match lidar {
            LidarFault::BeamDropout { p } => {
                if let Some(q) = halve(p, 1e-4) {
                    push_lidar(
                        format!("lidar dropout p {p} → {q}"),
                        LidarFault::BeamDropout { p: q },
                    );
                }
            }
            LidarFault::RangeNoise { sigma } => {
                if let Some(s) = halve(sigma, 1e-3) {
                    push_lidar(
                        format!("lidar σ {sigma} → {s}"),
                        LidarFault::RangeNoise { sigma: s },
                    );
                }
            }
            LidarFault::Ghost { count, range } => {
                if count >= 2 {
                    push_lidar(
                        format!("lidar ghosts {count} → {}", count / 2),
                        LidarFault::Ghost {
                            count: count / 2,
                            range,
                        },
                    );
                }
            }
        }
    }
}

fn avfi_core_gps_halved(gps: crate::fault::input::GpsFault) -> crate::fault::input::GpsFault {
    crate::fault::input::GpsFault {
        bias_x: gps.bias_x / 2.0,
        bias_y: gps.bias_y / 2.0,
        sigma: gps.sigma / 2.0,
    }
}

/// Proposes every lattice candidate for the current state, in the fixed
/// flat-lattice order acceptance folds over. Pure in its inputs:
/// identical states propose identical candidate lists.
pub fn propose(scenario: &Scenario, fault: &FaultSpec, anchor: &Anchor) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    let mut push = |axis: Axis, description: String, scenario: Scenario, fault: FaultSpec| {
        out.push(Candidate {
            axis,
            description,
            scenario,
            fault,
        });
    };

    for k in count_steps(scenario.npc_vehicles) {
        push(
            Axis::NpcVehicles,
            format!("npc_vehicles {} → {k}", scenario.npc_vehicles),
            scenario.to_builder().npc_vehicles(k).build(),
            fault.clone(),
        );
    }
    for k in count_steps(scenario.pedestrians) {
        push(
            Axis::Pedestrians,
            format!("pedestrians {} → {k}", scenario.pedestrians),
            scenario.to_builder().pedestrians(k).build(),
            fault.clone(),
        );
    }
    let rate = scenario.pedestrian_cross_rate;
    if scenario.pedestrians > 0 && rate > 0.0 {
        push(
            Axis::CrossRate,
            format!("pedestrian_cross_rate {rate} → 0"),
            scenario.to_builder().pedestrian_cross_rate(0.0).build(),
            fault.clone(),
        );
        if let Some(r) = halve(rate, 1e-4) {
            push(
                Axis::CrossRate,
                format!("pedestrian_cross_rate {rate} → {r}"),
                scenario.to_builder().pedestrian_cross_rate(r).build(),
                fault.clone(),
            );
        }
    }
    // Budget reductions only make sense when the failure is anchored to
    // a violation: a pure-timeout class is *trivially* preserved by any
    // budget cut (every mission becomes impossible in 5 s), which would
    // shrink toward a vacuous repro instead of the real failure.
    let budget = scenario.time_budget;
    if let Some(v) = anchor.violation_frame {
        // Just past the violation: the tightest budget that can still
        // contain the failure.
        let tight = ((v as f64) * FRAME_DT + 1.0).max(5.0);
        if tight < budget - 1e-9 {
            push(
                Axis::TimeBudget,
                format!("time_budget {budget} → {tight}"),
                scenario.to_builder().time_budget(tight).build(),
                fault.clone(),
            );
        }
        if let Some(b) = halve(budget, 5.0) {
            push(
                Axis::TimeBudget,
                format!("time_budget {budget} → {b}"),
                scenario.to_builder().time_budget(b).build(),
                fault.clone(),
            );
        }
    }
    if let Some(r) = halve(scenario.min_route_length, 20.0) {
        push(
            Axis::RouteLength,
            format!("min_route_length {} → {r}", scenario.min_route_length),
            scenario.to_builder().min_route_length(r).build(),
            fault.clone(),
        );
    }
    let rank = weather_rank(scenario.weather);
    if rank > 0 {
        push(
            Axis::Weather,
            format!("weather {} → {}", scenario.weather, Weather::ClearNoon),
            scenario.to_builder().weather(Weather::ClearNoon).build(),
            fault.clone(),
        );
        if rank > 1 {
            let simpler = weather_by_rank(rank - 1);
            push(
                Axis::Weather,
                format!("weather {} → {simpler}", scenario.weather),
                scenario.to_builder().weather(simpler).build(),
                fault.clone(),
            );
        }
    }
    if let Some(trigger) = fault_trigger(fault) {
        let bound = anchor.violation_frame.unwrap_or(anchor.final_frame);
        if let Some(earliest) = trigger.earliest_frame() {
            // Later onset: binary-search the start toward the anchor.
            let capped_bound = match *trigger {
                Trigger::Window { end, .. } => bound.min(end.saturating_sub(1)),
                _ => bound,
            };
            let mid = (earliest + capped_bound) / 2;
            if mid > earliest {
                let later = match *trigger {
                    Trigger::Always | Trigger::From { .. } => Trigger::From { frame: mid },
                    Trigger::Window { end, .. } => Trigger::Window { start: mid, end },
                    Trigger::Bernoulli { .. } => unreachable!("earliest_frame is None"),
                };
                push(
                    Axis::FaultOnset,
                    format!(
                        "trigger {} → {}",
                        trigger_desc(trigger),
                        trigger_desc(&later)
                    ),
                    scenario.clone(),
                    with_trigger(fault, later),
                );
            }
        }
        if let Some(v) = anchor.violation_frame {
            // Narrow open-ended triggers to close just past the violation.
            let narrowed = match *trigger {
                Trigger::Always if v + 1 < anchor.final_frame => Some(Trigger::Window {
                    start: 0,
                    end: v + 1,
                }),
                Trigger::From { frame } if v >= frame && v + 1 < anchor.final_frame => {
                    Some(Trigger::Window {
                        start: frame,
                        end: v + 1,
                    })
                }
                Trigger::Window { start, end } if v + 1 < end && v >= start => {
                    Some(Trigger::Window { start, end: v + 1 })
                }
                _ => None,
            };
            if let Some(t) = narrowed {
                push(
                    Axis::TriggerWindow,
                    format!("trigger {} → {}", trigger_desc(trigger), trigger_desc(&t)),
                    scenario.clone(),
                    with_trigger(fault, t),
                );
            }
        }
    }
    for (description, reduced) in magnitude_candidates(fault) {
        push(Axis::FaultMagnitude, description, scenario.clone(), reduced);
    }
    out
}

// ---------------------------------------------------------------------
// Generic shrink loop
// ---------------------------------------------------------------------

/// Runs delta debugging over the reduction lattice against an oracle.
///
/// Each iteration proposes all candidates for the current state,
/// evaluates the whole batch (speculatively — the oracle may fan out),
/// and accepts the **first** candidate in proposal order whose class
/// equals `class` and whose replay verification passes. The loop stops
/// when an iteration accepts nothing, proposals run dry, or
/// [`ShrinkConfig::max_iterations`] is reached.
pub fn shrink_with_oracle(
    scenario: &Scenario,
    fault: &FaultSpec,
    class: &FailureClass,
    anchor: Anchor,
    oracle: &mut dyn ShrinkOracle,
    config: &ShrinkConfig,
) -> ShrinkLoopResult {
    let mut cur_scenario = scenario.clone();
    let mut cur_fault = fault.clone();
    let mut cur_anchor = anchor;
    let mut log: Vec<ShrinkStep> = Vec::new();
    let mut runs_spent = 0usize;
    let mut iterations = 0usize;

    for iteration in 1..=config.max_iterations {
        let candidates = propose(&cur_scenario, &cur_fault, &cur_anchor);
        if candidates.is_empty() {
            break;
        }
        iterations = iteration;
        let evals = oracle.evaluate(&candidates);
        assert_eq!(
            evals.len(),
            candidates.len(),
            "oracle must evaluate every candidate"
        );
        runs_spent += candidates.len();

        let mut accepted: Option<usize> = None;
        let mut verdicts: Vec<ShrinkVerdict> = Vec::with_capacity(candidates.len());
        for (i, eval) in evals.iter().enumerate() {
            if accepted.is_some() {
                verdicts.push(ShrinkVerdict::NotSelected);
                continue;
            }
            match &eval.class {
                None => verdicts.push(ShrinkVerdict::RejectedNoFailure),
                Some(c) if c != class => verdicts.push(ShrinkVerdict::RejectedClassChanged),
                Some(_) => {
                    runs_spent += 1;
                    if oracle.verify(i) {
                        verdicts.push(ShrinkVerdict::Accepted);
                        accepted = Some(i);
                    } else {
                        verdicts.push(ShrinkVerdict::RejectedReplayDiverged);
                    }
                }
            }
        }
        for (candidate, verdict) in candidates.iter().zip(&verdicts) {
            log.push(ShrinkStep {
                iteration,
                axis: candidate.axis.label().to_string(),
                candidate: candidate.description.clone(),
                verdict: *verdict,
                runs_spent,
            });
        }
        match accepted {
            Some(i) => {
                cur_scenario = candidates[i].scenario.clone();
                cur_fault = candidates[i].fault.clone();
                if let Some(a) = evals[i].anchor {
                    cur_anchor = a;
                }
            }
            None => break,
        }
    }

    ShrinkLoopResult {
        scenario: cur_scenario,
        fault: cur_fault,
        log,
        iterations,
        runs_spent,
    }
}

// ---------------------------------------------------------------------
// Engine-backed oracle and the end-to-end entry point
// ---------------------------------------------------------------------

/// Frame anchors extracted from a candidate's trace.
fn anchor_of(trace: &RunTrace) -> Anchor {
    let violation_frame = match trace.first_violation() {
        Some(TraceEvent::Violation { frame, .. }) => Some(*frame),
        _ => None,
    };
    let final_frame = trace
        .frames
        .last()
        .map(|f| f.frame)
        .unwrap_or_else(|| (trace.summary.duration / FRAME_DT).round() as u64);
    Anchor {
        violation_frame,
        final_frame,
    }
}

/// The production oracle: candidates re-execute through
/// [`Engine::evaluate_jobs`] at the frozen coordinates of the original
/// failure, and verification replays the candidate's own trace.
pub struct EngineOracle<'a> {
    engine: &'a Engine,
    agent: Agent,
    weights: Option<Vec<u8>>,
    spec: TraceSpec,
    scenario_index: usize,
    run_index: usize,
    last_traces: Vec<Option<RunTrace>>,
}

impl<'a> EngineOracle<'a> {
    /// Builds the oracle from a source trace and the agent built from
    /// the spec [`decode_header`] read from its header; every candidate
    /// drives a clone of it (coordinates and black-box window also come
    /// from the header; a summary trace, which has no window, gets the
    /// default one).
    pub fn from_trace(
        engine: &'a Engine,
        trace: &RunTrace,
        agent: Agent,
        weights: Option<&[u8]>,
    ) -> Self {
        let blackbox_frames = if trace.header.blackbox_frames > 0 {
            trace.header.blackbox_frames
        } else {
            blackbox_frames(BLACKBOX_SECONDS)
        };
        EngineOracle {
            engine,
            agent,
            weights: weights.map(|w| w.to_vec()),
            spec: TraceSpec {
                level: TraceLevel::Blackbox,
                study: trace.header.study.clone(),
                blackbox_frames,
                weights_fingerprint: trace.header.weights_fingerprint,
            },
            scenario_index: trace.header.scenario_index,
            run_index: trace.header.run_index,
            last_traces: Vec::new(),
        }
    }
}

impl ShrinkOracle for EngineOracle<'_> {
    fn evaluate(&mut self, candidates: &[Candidate]) -> Vec<CandidateEval> {
        let jobs: Vec<EvalJob> = candidates
            .iter()
            .map(|c| EvalJob {
                scenario: c.scenario.clone(),
                scenario_index: self.scenario_index,
                run_index: self.run_index,
                fault: c.fault.clone(),
            })
            .collect();
        let results = self.engine.evaluate_jobs(&jobs, &self.agent, &self.spec);
        let evals = results
            .iter()
            .map(|(_, trace)| CandidateEval {
                class: trace.as_ref().and_then(failure_class),
                anchor: trace.as_ref().map(anchor_of),
            })
            .collect();
        self.last_traces = results.into_iter().map(|(_, trace)| trace).collect();
        evals
    }

    fn verify(&mut self, index: usize) -> bool {
        match self.last_traces.get(index) {
            Some(Some(trace)) => matches!(
                replay_trace(trace, self.weights.as_deref()),
                Ok(ReplayVerdict::Match { .. })
            ),
            _ => false,
        }
    }
}

/// Shrinks a failed run's trace into a [`MinimalRepro`].
///
/// `source` names the trace (echoed into the repro), `weights` must be
/// the IL-CNN weights for neural traces (fingerprint-checked), and the
/// engine's worker count parallelizes candidate evaluation without
/// affecting the result.
///
/// # Errors
///
/// [`ShrinkError::NotAFailure`] for successful traces,
/// [`ShrinkError::Replay`] when the trace cannot be re-executed, and
/// [`ShrinkError::BaselineMismatch`] when re-executing the unreduced
/// original does not reproduce the recorded failure class.
pub fn shrink_trace(
    engine: &Engine,
    source: &str,
    trace: &RunTrace,
    weights: Option<&[u8]>,
    config: &ShrinkConfig,
) -> Result<ShrinkOutcome, ShrinkError> {
    let class = failure_class(trace).ok_or(ShrinkError::NotAFailure)?;
    let (fault, agent) = decode_header(&trace.header, weights)?;
    let agent = agent.build().map_err(ReplayError::BadWeights)?;
    let mut oracle = EngineOracle::from_trace(engine, trace, agent, weights);

    // Baseline: the unreduced original must re-land in the recorded
    // class before any reduction is trusted (also seeds the anchors
    // from a full re-execution rather than the possibly-clipped ring).
    let baseline = Candidate {
        axis: Axis::Baseline,
        description: "baseline re-execution".to_string(),
        scenario: trace.header.scenario.clone(),
        fault: fault.clone(),
    };
    let baseline_eval = oracle
        .evaluate(std::slice::from_ref(&baseline))
        .pop()
        .expect("one eval per candidate");
    if baseline_eval.class.as_ref() != Some(&class) {
        return Err(ShrinkError::BaselineMismatch {
            expected: Box::new(class),
            got: baseline_eval.class.map(Box::new),
        });
    }
    let anchor = baseline_eval.anchor.unwrap_or_else(|| anchor_of(trace));

    let result = shrink_with_oracle(
        &trace.header.scenario,
        &fault,
        &class,
        anchor,
        &mut oracle,
        config,
    );
    let reductions: Vec<String> = result
        .log
        .iter()
        .filter(|s| s.verdict == ShrinkVerdict::Accepted)
        .map(|s| format!("{}: {}", s.axis, s.candidate))
        .collect();
    Ok(ShrinkOutcome {
        repro: MinimalRepro {
            source_trace: source.to_string(),
            study: trace.header.study.clone(),
            agent: trace.header.agent.clone(),
            fault_label: result.fault.label(),
            scenario_index: trace.header.scenario_index,
            run_index: trace.header.run_index,
            seed: trace.header.seed,
            scenario: result.scenario,
            fault: result.fault,
            expected: class,
            reductions,
            iterations: result.iterations,
            runs_spent: result.runs_spent + 1,
        },
        log: result.log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::scenario::TownSpec;

    fn base_scenario() -> Scenario {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(17)
            .npc_vehicles(4)
            .pedestrians(3)
            .pedestrian_cross_rate(0.01)
            .weather(Weather::Fog)
            .time_budget(60.0)
            .min_route_length(80.0)
            .build()
    }

    fn anchor() -> Anchor {
        Anchor {
            violation_frame: Some(300),
            final_frame: 900,
        }
    }

    #[test]
    fn count_steps_try_biggest_cut_first() {
        assert_eq!(count_steps(0), Vec::<usize>::new());
        assert_eq!(count_steps(1), vec![0]);
        assert_eq!(count_steps(2), vec![0, 1]);
        assert_eq!(count_steps(5), vec![0, 2, 4]);
    }

    #[test]
    fn halving_respects_floor_and_terminates() {
        assert_eq!(halve(60.0, 5.0), Some(30.0));
        assert_eq!(halve(8.0, 5.0), Some(5.0));
        assert_eq!(halve(5.0, 5.0), None);
        let mut v = 1024.0;
        let mut steps = 0;
        while let Some(next) = halve(v, 5.0) {
            v = next;
            steps += 1;
            assert!(steps < 64, "halving must terminate");
        }
        assert_eq!(v, 5.0);
    }

    #[test]
    fn proposals_are_deterministic_and_scenario_seed_is_frozen() {
        let s = base_scenario();
        let f = FaultSpec::Timing(TimingFault::OutputDelay { frames: 30 });
        let a = propose(&s, &f, &anchor());
        let b = propose(&s, &f, &anchor());
        assert_eq!(a, b, "propose must be pure");
        assert!(!a.is_empty());
        for c in &a {
            assert_eq!(c.scenario.seed, s.seed, "seed must never shrink");
        }
        // Flat-lattice order: scenario axes before fault axes.
        assert_eq!(a[0].axis, Axis::NpcVehicles);
        assert_eq!(a[0].description, "npc_vehicles 4 → 0");
        let mag: Vec<&Candidate> = a
            .iter()
            .filter(|c| c.axis == Axis::FaultMagnitude)
            .collect();
        assert_eq!(mag[0].description, "fault dropped entirely");
        assert_eq!(mag[1].description, "delay 30f → 15f");
    }

    #[test]
    fn pure_timeout_failures_never_shrink_the_budget() {
        let s = base_scenario();
        let f = FaultSpec::None;
        let no_violation = Anchor {
            violation_frame: None,
            final_frame: 900,
        };
        assert!(
            propose(&s, &f, &no_violation)
                .iter()
                .all(|c| c.axis != Axis::TimeBudget),
            "budget cuts trivially preserve timeouts — must not be proposed"
        );
        assert!(
            propose(&s, &f, &anchor())
                .iter()
                .any(|c| c.axis == Axis::TimeBudget),
            "violation-anchored failures do shrink the budget"
        );
    }

    #[test]
    fn onset_moves_toward_anchor_and_window_closes_past_violation() {
        let s = base_scenario();
        let f = FaultSpec::Input(InputFault::from_frame(ImageFault::gaussian(0.08), 100));
        let cands = propose(&s, &f, &anchor());
        let onset = cands
            .iter()
            .find(|c| c.axis == Axis::FaultOnset)
            .expect("onset candidate");
        assert_eq!(onset.description, "trigger from 100 → from 200");
        let window = cands
            .iter()
            .find(|c| c.axis == Axis::TriggerWindow)
            .expect("window candidate");
        assert_eq!(window.description, "trigger from 100 → window 100..301");
        // Bernoulli triggers have no onset to move.
        let bern = with_trigger(&f, Trigger::Bernoulli { p: 0.2 });
        assert!(propose(&s, &bern, &anchor())
            .iter()
            .all(|c| c.axis != Axis::FaultOnset && c.axis != Axis::TriggerWindow));
    }

    /// Synthetic oracle: the run "fails" in a fixed class iff the
    /// candidate keeps at least `required` NPC vehicles.
    struct NpcThresholdOracle {
        required: usize,
        class: FailureClass,
    }

    impl ShrinkOracle for NpcThresholdOracle {
        fn evaluate(&mut self, candidates: &[Candidate]) -> Vec<CandidateEval> {
            candidates
                .iter()
                .map(|c| CandidateEval {
                    class: (c.scenario.npc_vehicles >= self.required).then(|| self.class.clone()),
                    anchor: None,
                })
                .collect()
        }

        fn verify(&mut self, _index: usize) -> bool {
            true
        }
    }

    #[test]
    fn loop_never_shrinks_below_the_required_npcs() {
        let class = FailureClass {
            outcome: "stuck".to_string(),
            first_violation: Some("collision-vehicle".to_string()),
            causal_channel: Some("image".to_string()),
        };
        let mut oracle = NpcThresholdOracle {
            required: 2,
            class: class.clone(),
        };
        let s = base_scenario().to_builder().npc_vehicles(9).build();
        let result = shrink_with_oracle(
            &s,
            &FaultSpec::None,
            &class,
            anchor(),
            &mut oracle,
            &ShrinkConfig::default(),
        );
        assert_eq!(
            result.scenario.npc_vehicles, 2,
            "minimum is exactly the required count"
        );
        assert!(result.runs_spent > 0);
        assert!(result
            .log
            .iter()
            .any(|s| s.verdict == ShrinkVerdict::Accepted));
    }

    #[test]
    fn rejecting_oracle_accepts_nothing_and_stops() {
        struct NeverFails;
        impl ShrinkOracle for NeverFails {
            fn evaluate(&mut self, candidates: &[Candidate]) -> Vec<CandidateEval> {
                candidates
                    .iter()
                    .map(|_| CandidateEval {
                        class: None,
                        anchor: None,
                    })
                    .collect()
            }
            fn verify(&mut self, _index: usize) -> bool {
                false
            }
        }
        let class = FailureClass {
            outcome: "timeout".to_string(),
            first_violation: None,
            causal_channel: None,
        };
        let s = base_scenario();
        let result = shrink_with_oracle(
            &s,
            &FaultSpec::None,
            &class,
            anchor(),
            &mut NeverFails,
            &ShrinkConfig::default(),
        );
        assert_eq!(result.iterations, 1, "one round of rejections, then stop");
        assert_eq!(result.scenario, s);
        assert!(result
            .log
            .iter()
            .all(|s| s.verdict == ShrinkVerdict::RejectedNoFailure));
    }

    #[test]
    fn diverging_replay_blocks_acceptance() {
        // Class always matches, but verification always fails: nothing
        // may be accepted no matter how attractive the candidate.
        struct AlwaysDiverges(FailureClass);
        impl ShrinkOracle for AlwaysDiverges {
            fn evaluate(&mut self, candidates: &[Candidate]) -> Vec<CandidateEval> {
                candidates
                    .iter()
                    .map(|_| CandidateEval {
                        class: Some(self.0.clone()),
                        anchor: None,
                    })
                    .collect()
            }
            fn verify(&mut self, _index: usize) -> bool {
                false
            }
        }
        let class = FailureClass {
            outcome: "timeout".to_string(),
            first_violation: None,
            causal_channel: None,
        };
        let s = base_scenario();
        let result = shrink_with_oracle(
            &s,
            &FaultSpec::None,
            &class,
            anchor(),
            &mut AlwaysDiverges(class.clone()),
            &ShrinkConfig::default(),
        );
        assert_eq!(result.scenario, s, "nothing verified, nothing accepted");
        assert!(result
            .log
            .iter()
            .all(|s| s.verdict == ShrinkVerdict::RejectedReplayDiverged));
    }
}
