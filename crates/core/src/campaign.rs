//! Fault-injection campaigns: seeded batches of missions run in parallel.
//!
//! A campaign fixes an agent, a fault plan, and a set of scenarios, then
//! runs `runs_per_scenario` missions per scenario with derived seeds. Each
//! run is fully self-contained and deterministic, so campaigns parallelize
//! over worker threads without affecting results.

use crate::fault::FaultSpec;
use crate::harness::AvDriver;
use avfi_agent::{Agent, ExpertDriver, IlNetwork};
use avfi_nn::serialize::LoadWeightsError;
use avfi_sim::recorder::Recorder;
use avfi_sim::rng::run_seed;
use avfi_sim::scenario::Scenario;
use avfi_sim::violation::Violation;
use avfi_sim::world::{MissionStatus, World};
use avfi_trace::{RunTrace, TraceEvent, TraceHeader, TraceLevel, TraceSummary};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which agent a campaign drives.
///
/// Serializable so campaign plans can cross the `avfi-server` wire: the
/// neural variant ships its full weight blob, which the receiving side
/// decodes once per plan ([`AgentSpec::build`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AgentSpec {
    /// The rule-based oracle autopilot.
    Expert,
    /// The imitation-learning CNN; every run drives its own clone of the
    /// built network (so parallel runs and ML faults never share state).
    Neural {
        /// Trained weights, shared read-only across runs.
        weights: Arc<Vec<u8>>,
    },
}

impl AgentSpec {
    /// Builds the neural spec from a trained network.
    pub fn neural(net: &mut IlNetwork) -> AgentSpec {
        AgentSpec::Neural {
            weights: Arc::new(net.to_weights()),
        }
    }

    /// Agent name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AgentSpec::Expert => "expert",
            AgentSpec::Neural { .. } => "il-cnn",
        }
    }

    /// Builds the agent, decoding neural weights (a [`LoadWeightsError`] if
    /// they do not decode): the one place a plan's weight blob becomes a
    /// network. Each run drives a clone of it.
    pub fn build(&self) -> Result<Agent, LoadWeightsError> {
        Ok(match self {
            AgentSpec::Expert => Agent::Expert(ExpertDriver::new()),
            AgentSpec::Neural { weights } => Agent::Neural(IlNetwork::from_weights(weights)?),
        })
    }

    /// The fingerprint a trace header records for this agent's weights,
    /// so a replay with other weights fails (`None` for the expert).
    pub fn weights_fingerprint(&self) -> Option<u64> {
        match self {
            AgentSpec::Expert => None,
            AgentSpec::Neural { weights } => Some(avfi_trace::fingerprint(weights)),
        }
    }
}

/// Mission outcome of one run (serializable mirror of
/// [`MissionStatus`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MissionOutcome {
    /// Goal reached.
    Success {
        /// Completion time, seconds.
        time: f64,
    },
    /// Time budget exhausted.
    Timeout,
    /// Vehicle immobile (crashed/pinned).
    Stuck,
}

impl MissionOutcome {
    /// `true` on success.
    pub fn is_success(self) -> bool {
        matches!(self, MissionOutcome::Success { .. })
    }

    /// Outcome name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            MissionOutcome::Success { .. } => "success",
            MissionOutcome::Timeout => "timeout",
            MissionOutcome::Stuck => "stuck",
        }
    }
}

impl From<MissionStatus> for MissionOutcome {
    fn from(s: MissionStatus) -> Self {
        match s {
            MissionStatus::Success { time } => MissionOutcome::Success { time },
            MissionStatus::Stuck => MissionOutcome::Stuck,
            // A run stopped while Running is accounted as a timeout.
            MissionStatus::Timeout | MissionStatus::Running => MissionOutcome::Timeout,
        }
    }
}

/// Result of one fault-injected mission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Fault label (e.g. `"Gaussian"`, `"delay 30f"`).
    pub fault: String,
    /// Agent name.
    pub agent: String,
    /// Index of the scenario within the campaign.
    pub scenario_index: usize,
    /// Index of the run within the scenario.
    pub run_index: usize,
    /// Derived seed the run used.
    pub seed: u64,
    /// Mission outcome.
    pub outcome: MissionOutcome,
    /// Simulated duration, seconds.
    pub duration: f64,
    /// Distance driven, kilometers.
    pub distance_km: f64,
    /// All violations recorded by the traffic monitor.
    pub violations: Vec<Violation>,
    /// Simulation time of the first injection, if any.
    pub injection_time: Option<f64>,
}

/// Configuration of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Scenario templates; each gets `runs_per_scenario` derived-seed runs.
    pub scenarios: Vec<Scenario>,
    /// Missions per scenario.
    pub runs_per_scenario: usize,
    /// The fault plan applied to every run.
    pub fault: FaultSpec,
    /// The agent under test.
    pub agent: AgentSpec,
}

impl CampaignConfig {
    /// Starts a builder over scenario templates.
    ///
    /// # Panics
    ///
    /// Panics if `scenarios` is empty.
    pub fn builder(scenarios: Vec<Scenario>) -> CampaignConfigBuilder {
        assert!(
            !scenarios.is_empty(),
            "campaign needs at least one scenario"
        );
        CampaignConfigBuilder {
            config: CampaignConfig {
                scenarios,
                runs_per_scenario: 5,
                fault: FaultSpec::None,
                agent: AgentSpec::Expert,
            },
        }
    }

    /// Total number of runs, saturating at `usize::MAX`.
    pub fn total_runs(&self) -> usize {
        self.scenarios.len().saturating_mul(self.runs_per_scenario)
    }
}

/// Builder for [`CampaignConfig`].
#[derive(Debug, Clone)]
pub struct CampaignConfigBuilder {
    config: CampaignConfig,
}

impl CampaignConfigBuilder {
    /// Sets the missions per scenario.
    pub fn runs_per_scenario(mut self, n: usize) -> Self {
        self.config.runs_per_scenario = n;
        self
    }

    /// Sets the fault plan.
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.config.fault = fault;
        self
    }

    /// Sets the agent.
    pub fn agent(mut self, agent: AgentSpec) -> Self {
        self.config.agent = agent;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> CampaignConfig {
        self.config
    }
}

/// Results of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Fault label.
    pub fault: String,
    /// Agent name.
    pub agent: String,
    /// All run results, in (scenario, run) order.
    runs: Vec<RunResult>,
}

impl CampaignResult {
    /// Assembles a result from runs already in (scenario, run) order (used
    /// by the execution engine's deterministic reassembly).
    pub(crate) fn from_runs(fault: String, agent: String, runs: Vec<RunResult>) -> Self {
        CampaignResult { fault, agent, runs }
    }

    /// All runs.
    pub fn runs(&self) -> &[RunResult] {
        &self.runs
    }
}

/// What the flight recorder should capture for a traced run.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Detail level ([`TraceLevel::Off`] records nothing).
    pub level: TraceLevel,
    /// Study name recorded in trace headers.
    pub study: String,
    /// Black-box ring capacity, frames.
    pub blackbox_frames: usize,
    /// Fingerprint of the neural agent's weights, when neural.
    pub weights_fingerprint: Option<u64>,
}

/// Per-worker state reused across [`run_mission`] calls: the black-box
/// ring is allocated once per window size and reset between runs, so a
/// worker runs thousands of traced missions without reallocating it.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    ring: Recorder,
}

impl WorkerScratch {
    /// The ring for a `frames`-long window, emptied and taken out for the
    /// next run's world (the run hands it back through
    /// [`World::take_recorder`]).
    fn take_ring(&mut self, frames: usize) -> Recorder {
        if self.ring.capacity() == Some(frames.max(1)) {
            self.ring.reset();
        } else {
            self.ring = Recorder::ring(frames);
        }
        std::mem::take(&mut self.ring)
    }
}

/// Executes one fault-injected mission at its `(scenario, run)`
/// coordinates: the per-run seed comes from
/// [`run_seed`]`(template.seed, scenario_index, run_index)`, so the run
/// depends on nothing else.
///
/// With `trace` at `Summary` or `Blackbox` the flight recorder observes
/// the run without changing its [`RunResult`]. The second return is the
/// trace to persist: at `Summary` every run yields one (events only); at
/// `Blackbox` only *failed* runs do (with the ring's frame window), so
/// campaign-scale disk stays proportional to failures. With `trace`
/// `None` or at `Off`, neither the event log nor a trace is built.
///
/// The run drives its own clone of `agent`, so an ML fault corrupts only
/// that copy; nothing here decodes weights. The world is narrowed to
/// [`AvDriver::footprint`]: it renders only the camera rows that can reach
/// the agent and scans no LIDAR, which no agent reads. Nothing else can
/// change the result.
pub fn run_mission(
    template: &Scenario,
    scenario_index: usize,
    run_index: usize,
    fault: &FaultSpec,
    agent: &Agent,
    trace: Option<&TraceSpec>,
    scratch: &mut WorkerScratch,
) -> (RunResult, Option<RunTrace>) {
    let trace = trace.filter(|t| t.level != TraceLevel::Off);
    let blackbox = trace.is_some_and(|t| t.level == TraceLevel::Blackbox);
    let mut scenario = template.clone();
    scenario.seed = run_seed(template.seed, scenario_index, run_index);
    let mut world = World::from_scenario(&scenario);
    if let Some(spec) = trace.filter(|_| blackbox) {
        world.install_recorder(scratch.take_ring(spec.blackbox_frames));
    }
    let mut driver = AvDriver::new(agent.clone(), fault.clone(), scenario.seed);
    if trace.is_some() {
        driver.enable_event_log();
    }
    let camera = scenario.camera;
    world.narrow_to(driver.footprint(camera.width, camera.height));
    let mut obs = world.observe();
    loop {
        let control = driver.drive_frame(&obs, &world);
        if world.step(control).is_terminal() {
            break;
        }
        world.observe_into(&mut obs);
    }
    if blackbox {
        scratch.ring = world.take_recorder();
    }

    let result = RunResult {
        fault: fault.label(),
        agent: driver.agent_name().to_string(),
        scenario_index,
        run_index,
        seed: scenario.seed,
        outcome: world.mission().into(),
        duration: world.time(),
        distance_km: world.odometer() / 1000.0,
        violations: world.monitor().events().to_vec(),
        injection_time: driver.injection_time(),
    };
    let Some(spec) = trace else {
        return (result, None);
    };

    let (mut events, dropped_events) = driver.take_events();
    events.extend(result.violations.iter().map(|v| TraceEvent::Violation {
        frame: v.frame,
        time: v.time,
        kind: v.kind,
        x: v.position.x,
        y: v.position.y,
        odometer: v.odometer,
    }));
    // Stable by frame: harness events keep their order, violations land
    // after same-frame injections (cause before effect).
    events.sort_by_key(TraceEvent::frame);

    let ring = &scratch.ring;
    let run_trace = RunTrace {
        header: TraceHeader {
            study: spec.study.clone(),
            fault: result.fault.clone(),
            agent: result.agent.clone(),
            scenario_index,
            run_index,
            seed: scenario.seed,
            scenario: template.clone(),
            fault_spec_json: serde_json::to_string(fault).expect("fault spec serializes"),
            weights_fingerprint: spec.weights_fingerprint,
            level: spec.level,
            blackbox_frames: if blackbox { spec.blackbox_frames } else { 0 },
        },
        summary: TraceSummary {
            success: result.outcome.is_success(),
            outcome: result.outcome.name().to_string(),
            duration: result.duration,
            distance_km: result.distance_km,
            violations: result.violations.len(),
            injection_time: result.injection_time,
        },
        events,
        frames: if blackbox {
            ring.chronological().copied().collect()
        } else {
            Vec::new()
        },
        dropped_frames: if blackbox { ring.dropped() } else { 0 },
        dropped_events,
    };
    // Black-box semantics: the ring is flushed to disk only when the run
    // failed; summary traces are cheap enough to keep for every run.
    let emit = !blackbox || run_trace.is_failure();
    (result, emit.then_some(run_trace))
}

/// Executes one fault-injected mission without the flight recorder,
/// building `agent` for it (panicking if its weights do not decode).
pub fn run_single(
    template: &Scenario,
    scenario_index: usize,
    run_index: usize,
    fault: &FaultSpec,
    agent: &AgentSpec,
) -> RunResult {
    let agent = agent.build().expect("run_single: neural weights decode");
    let scratch = &mut WorkerScratch::default();
    run_mission(
        template,
        scenario_index,
        run_index,
        fault,
        &agent,
        None,
        scratch,
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::fault::timing::TimingFault;
    use avfi_sim::scenario::TownSpec;

    fn quick_scenario(seed: u64) -> Scenario {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(seed)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(20.0)
            .min_route_length(60.0)
            .build()
    }

    #[test]
    fn expert_campaign_runs_and_is_deterministic() {
        let config = CampaignConfig::builder(vec![quick_scenario(1)])
            .runs_per_scenario(3)
            .build();
        let engine = Engine::new().workers(2);
        let a = engine.run_campaign(config.clone());
        let b = engine.run_campaign(config);
        assert_eq!(a.runs().len(), 3);
        for (x, y) in a.runs().iter().zip(b.runs()) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.distance_km, y.distance_km);
            assert_eq!(x.violations.len(), y.violations.len());
            assert_eq!(x.outcome.is_success(), y.outcome.is_success());
        }
    }

    #[test]
    fn parallelism_does_not_change_results() {
        let mk = |threads| {
            Engine::new().workers(threads).run_campaign(
                CampaignConfig::builder(vec![quick_scenario(2)])
                    .runs_per_scenario(4)
                    .build(),
            )
        };
        let serial = mk(1);
        let parallel = mk(4);
        for (x, y) in serial.runs().iter().zip(parallel.runs()) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.duration, y.duration);
            assert_eq!(x.distance_km, y.distance_km);
        }
    }

    #[test]
    fn runs_get_distinct_seeds() {
        let config = CampaignConfig::builder(vec![quick_scenario(3)])
            .runs_per_scenario(4)
            .build();
        let result = Engine::new().run_campaign(config);
        let seeds: std::collections::HashSet<u64> = result.runs().iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn same_template_seed_scenarios_diverge() {
        // Two scenarios with identical template seeds must not replay the
        // same mission: the per-run seed derivation mixes in the scenario
        // index, so their trajectories (and per-run seeds) differ.
        let config = CampaignConfig::builder(vec![quick_scenario(5), quick_scenario(5)])
            .runs_per_scenario(2)
            .build();
        let result = Engine::new().workers(1).run_campaign(config);
        assert_eq!(result.runs().len(), 4);
        let seeds: std::collections::HashSet<u64> = result.runs().iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 4, "per-run seeds collided across scenarios");
        let a = &result.runs()[0]; // scenario 0, run 0
        let b = &result.runs()[2]; // scenario 1, run 0
        assert_ne!(a.seed, b.seed);
        assert_ne!(
            (a.duration, a.distance_km),
            (b.duration, b.distance_km),
            "same-seed scenarios replayed an identical trajectory"
        );
    }

    #[test]
    fn fault_label_propagates() {
        let config = CampaignConfig::builder(vec![quick_scenario(4)])
            .runs_per_scenario(1)
            .fault(FaultSpec::Timing(TimingFault::OutputDelay { frames: 10 }))
            .build();
        let result = Engine::new().run_campaign(config);
        assert_eq!(result.fault, "delay 10f");
        assert_eq!(result.runs()[0].fault, "delay 10f");
        assert_eq!(result.runs()[0].injection_time, Some(0.0));
    }
}
