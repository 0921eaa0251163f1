//! Deterministic work-stealing execution engine for campaign studies.
//!
//! The paper's evaluation is campaign-*batches*: every figure sweeps fault
//! models × scenarios × repetitions, and follow-up work (Jha et al., DSN
//! 2019) motivates making such sweeps cheap enough to run thousands of
//! experiments. Running campaigns one after another, each sharded across
//! threads, leaves cores idle at every campaign boundary (the straggler
//! of each campaign serializes the whole study).
//!
//! This module flattens an entire [`WorkPlan`] — every (study × campaign ×
//! scenario × repetition) tuple — into one shared work queue. Idle workers
//! steal the next item from the queue regardless of which campaign it
//! belongs to, so there are no barriers between campaigns and no idle
//! tail until the very last item. Each item is tagged with its (study,
//! campaign, run) indices and its result is written into a preassigned
//! slot, so reassembled results are **bit-identical for any worker
//! count** — scheduling affects only wall-clock, never output.
//!
//! Progress is streamed through a pluggable [`ProgressSink`]: runs
//! completed, kilometers driven, violations so far, per-campaign
//! completion, and per-worker utilization, so multi-hour campaigns are
//! observable instead of silent. Event *ordering* follows scheduling and
//! is therefore not deterministic; only the returned results are.
//!
//! [`pool`] lifts the same scheme into a *persistent* service shape: a
//! [`MultiplexPool`] keeps one long-lived worker
//! pool and multiplexes many independently submitted plans onto it with
//! fair round-robin scheduling and per-plan cancellation, while keeping
//! every plan's results byte-identical to a solo [`Engine::execute`].
//!
//! Both shapes run a plan through one crate-private executor,
//! `PlanExec`, and every run through one mission function,
//! [`run_mission`]: the engine drains the executor's queue through
//! scoped worker threads, the pool from its round-robin claims.

use crate::campaign::{
    run_mission, AgentSpec, CampaignConfig, CampaignResult, RunResult, TraceSpec, WorkerScratch,
};
use crate::fault::FaultProblem;
use avfi_agent::Agent;
use avfi_nn::serialize::LoadWeightsError;
use avfi_sim::scenario::{check_town_routes, TownSpec};
use avfi_sim::FRAME_DT;
use avfi_trace::{RunTrace, TraceLevel};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::borrow::Cow;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub mod pool;

pub use avfi_net::proto::PlanPhase;
pub use pool::{MultiplexPool, PlanEvent, PlanTicket, RecoveredSubmission};

/// One named group of campaigns (e.g. "fig2 input faults").
///
/// Serializable so whole plans can cross the `avfi-server` wire; the
/// neural agent's weights travel inside
/// [`AgentSpec`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyPlan {
    /// Study name, echoed in results and progress events.
    pub name: String,
    /// The campaigns of the study, in output order.
    pub campaigns: Vec<CampaignConfig>,
}

/// A complete execution plan: one or more studies, flattened by the
/// engine into a single work-item queue.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkPlan {
    studies: Vec<StudyPlan>,
}

impl WorkPlan {
    /// An empty plan.
    pub fn new() -> Self {
        WorkPlan::default()
    }

    /// A plan holding a single one-campaign study.
    pub fn single(name: impl Into<String>, campaign: CampaignConfig) -> Self {
        let mut plan = WorkPlan::new();
        plan.add_study(name, vec![campaign]);
        plan
    }

    /// Appends a study (builder style).
    pub fn with_study(mut self, name: impl Into<String>, campaigns: Vec<CampaignConfig>) -> Self {
        self.add_study(name, campaigns);
        self
    }

    /// Appends a study.
    pub fn add_study(&mut self, name: impl Into<String>, campaigns: Vec<CampaignConfig>) {
        self.studies.push(StudyPlan {
            name: name.into(),
            campaigns,
        });
    }

    /// The studies in the plan.
    pub fn studies(&self) -> &[StudyPlan] {
        &self.studies
    }

    /// Total number of campaigns across studies.
    pub fn total_campaigns(&self) -> usize {
        self.studies.iter().map(|s| s.campaigns.len()).sum()
    }

    /// Total number of runs across studies, saturating at `usize::MAX`.
    pub fn total_runs(&self) -> usize {
        self.studies
            .iter()
            .flat_map(|s| &s.campaigns)
            .map(CampaignConfig::total_runs)
            .fold(0, usize::saturating_add)
    }
}

/// The most runs an executor accepts in one plan. Before any run starts,
/// it holds a queue entry, a work item and a result slot per run, 200
/// bytes in all, so the cap bounds a plan's setup at 200 MiB. The largest
/// plan in the repository (smoke's store tier) has 200 runs.
pub const MAX_PLAN_RUNS: usize = 1 << 20;

/// Why an executor refused a plan before its first run: the first problem
/// in plan order. [`Engine`] panics with it; [`MultiplexPool`]'s `submit*`
/// return it.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The plan holds more than [`MAX_PLAN_RUNS`] runs.
    TooManyRuns {
        /// The plan's run count, saturating at `usize::MAX`.
        runs: usize,
    },
    /// A scenario template fails [`Scenario::check`](avfi_sim::Scenario::check),
    /// or its town fails [`check_town_routes`].
    Scenario {
        /// Name of the study holding the campaign.
        study: String,
        /// Index of the campaign within its study.
        campaign: usize,
        /// Index of the scenario template within its campaign.
        scenario: usize,
        /// The check's complaint.
        problem: String,
    },
    /// A campaign's fault fails [`FaultSpec::check`](crate::fault::FaultSpec::check).
    Fault {
        /// Name of the study holding the campaign.
        study: String,
        /// Index of the campaign within its study.
        campaign: usize,
        /// The check's complaint.
        problem: FaultProblem,
    },
    /// A neural campaign's weights do not decode.
    Weights {
        /// Name of the study holding the campaign.
        study: String,
        /// Index of the campaign within its study.
        campaign: usize,
        /// The decoder's complaint.
        error: LoadWeightsError,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooManyRuns { runs } => {
                write!(
                    f,
                    "plan has {runs} runs, more than the cap of {MAX_PLAN_RUNS}"
                )
            }
            PlanError::Scenario {
                study,
                campaign,
                scenario,
                problem,
            } => write!(
                f,
                "study {study:?} campaign {campaign} scenario {scenario}: {problem}"
            ),
            PlanError::Fault {
                study,
                campaign,
                problem,
            } => write!(f, "study {study:?} campaign {campaign}: fault {problem}"),
            PlanError::Weights {
                study,
                campaign,
                error,
            } => write!(
                f,
                "study {study:?} campaign {campaign}: neural weights do not decode: {error}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Results of one study: the campaigns in plan order.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StudyResult {
    /// Study name from the plan.
    pub name: String,
    /// Campaign results, in the study's campaign order.
    pub campaigns: Vec<CampaignResult>,
}

/// A progress event streamed by the engine while a plan executes.
///
/// Events are emitted from worker threads as work completes; their order
/// is scheduling-dependent (only final results are deterministic).
/// Serializable so the campaign server can stream events to watching
/// clients as wire frames.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProgressEvent {
    /// Execution started.
    Started {
        /// Total runs in the flattened queue.
        total_runs: usize,
        /// Total campaigns across studies.
        campaigns: usize,
        /// Worker threads executing the queue.
        workers: usize,
    },
    /// One run finished.
    RunCompleted {
        /// Study index within the plan.
        study: usize,
        /// Campaign index within the study.
        campaign: usize,
        /// Scenario index within the campaign.
        scenario: usize,
        /// Run index within the scenario.
        run: usize,
        /// Index of the worker that executed the run.
        worker: usize,
        /// Runs completed so far (including this one).
        completed: usize,
        /// Total runs in the queue.
        total: usize,
        /// Kilometers driven by this run.
        km: f64,
        /// Violations recorded by this run.
        violations: usize,
        /// Whether the mission succeeded.
        success: bool,
    },
    /// Every run of one campaign finished.
    CampaignCompleted {
        /// Study index within the plan.
        study: usize,
        /// Campaign index within the study.
        campaign: usize,
        /// The campaign's fault label.
        label: String,
    },
    /// The whole plan finished.
    Finished {
        /// Wall-clock seconds for the plan.
        elapsed: f64,
        /// Per-worker busy fraction (time executing runs / wall-clock),
        /// one entry per worker.
        utilization: Vec<f64>,
        /// Total kilometers driven across all runs.
        total_km: f64,
        /// Total violations across all runs.
        total_violations: usize,
    },
}

/// Consumer of engine progress events.
///
/// Implementations are called concurrently from worker threads and must
/// handle their own synchronization.
pub trait ProgressSink: Sync {
    /// Receives one event.
    fn event(&self, event: &ProgressEvent);
}

/// Discards all events (the default sink).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn event(&self, _event: &ProgressEvent) {}
}

/// Streams progress lines to stderr: a line per completed run plus
/// campaign completions and a final utilization summary.
#[derive(Debug, Default)]
pub struct StderrProgress {
    totals: parking_lot::Mutex<(f64, usize)>,
}

impl ProgressSink for StderrProgress {
    fn event(&self, event: &ProgressEvent) {
        match event {
            ProgressEvent::Started {
                total_runs,
                campaigns,
                workers,
            } => eprintln!(
                "[engine] {total_runs} runs across {campaigns} campaigns on {workers} workers"
            ),
            ProgressEvent::RunCompleted {
                completed,
                total,
                km,
                violations,
                ..
            } => {
                let mut t = self.totals.lock();
                t.0 += km;
                t.1 += violations;
                eprintln!(
                    "[engine] {completed}/{total} runs · {:.2} km · {} violations",
                    t.0, t.1
                );
            }
            ProgressEvent::CampaignCompleted {
                study,
                campaign,
                label,
            } => eprintln!("[engine] campaign done: study {study} campaign {campaign} ({label})"),
            ProgressEvent::Finished {
                elapsed,
                utilization,
                total_km,
                total_violations,
            } => {
                let util: Vec<String> = utilization
                    .iter()
                    .map(|u| format!("{:.0}%", u * 100.0))
                    .collect();
                eprintln!(
                    "[engine] finished in {elapsed:.2} s · {total_km:.2} km · \
                     {total_violations} violations · worker utilization [{}]",
                    util.join(" ")
                );
            }
        }
    }
}

/// Collects every event (for tests and custom reporting).
#[derive(Debug, Default)]
pub struct CollectSink {
    events: parking_lot::Mutex<Vec<ProgressEvent>>,
}

impl CollectSink {
    /// A new empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Drains the collected events.
    pub fn take(&self) -> Vec<ProgressEvent> {
        std::mem::take(&mut self.events.lock())
    }
}

impl ProgressSink for CollectSink {
    fn event(&self, event: &ProgressEvent) {
        self.events.lock().push(event.clone());
    }
}

/// Consumer of durable run completions: the write-ahead seam the
/// `avfi-store` crate plugs into. Where [`ProgressSink`] streams
/// observability events, a `RunSink` receives the *payloads* — each
/// finished run's [`RunResult`] keyed by flat plan index, plus the plan's
/// terminal phase — so an implementation can journal them to disk as
/// they happen.
///
/// Implementations are called concurrently from worker threads and must
/// handle their own synchronization; a pool plan shares its sink as an
/// `Arc<dyn RunSink>`, hence `Send + Sync + Debug`. The executor calls
/// `run_completed` *after* writing the run's trace file and *before*
/// publishing the result to its in-memory slot. A run whose trace could
/// not be written is published but not reported here, so resume re-runs
/// it.
pub trait RunSink: Send + Sync + fmt::Debug {
    /// One run finished: its flat-plan index and result.
    fn run_completed(&self, flat_index: usize, result: &RunResult);

    /// The plan reached a terminal phase. Called at most once.
    fn plan_terminal(&self, phase: PlanPhase) {
        let _ = phase;
    }
}

/// Deterministic reassembly: `runs` was produced in flat-plan order, so
/// draining it campaign by campaign restores (scenario, run) order
/// within each campaign exactly as the sequential path produces. Public
/// because the `avfi-store` crate reassembles journaled results the same
/// way — byte identity between the two paths is the resume contract.
pub fn assemble_results(plan: &WorkPlan, runs: Vec<RunResult>) -> Vec<StudyResult> {
    let mut rest = runs.into_iter();
    plan.studies
        .iter()
        .map(|study| StudyResult {
            name: study.name.clone(),
            campaigns: study
                .campaigns
                .iter()
                .map(|cfg| {
                    CampaignResult::from_runs(
                        cfg.fault.label(),
                        cfg.agent.name().to_string(),
                        rest.by_ref().take(cfg.total_runs()).collect(),
                    )
                })
                .collect(),
        })
        .collect()
}

/// The pool's black-box window, and the default for [`TraceConfig`] and
/// the shrinker, seconds.
pub(crate) const BLACKBOX_SECONDS: f64 = 30.0;

/// A black-box window of `seconds`, in frames (at least 1).
pub(crate) fn blackbox_frames(seconds: f64) -> usize {
    ((seconds / FRAME_DT).ceil() as usize).max(1)
}

/// Flight-recorder configuration for an engine execution.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Directory trace files are written into (created on demand).
    pub dir: PathBuf,
    /// Detail level ([`TraceLevel::Off`] disables tracing entirely).
    pub level: TraceLevel,
    /// Black-box window length: the ring keeps the last this-many seconds
    /// of frames per run.
    pub blackbox_seconds: f64,
}

impl TraceConfig {
    /// A config at `level` writing into `dir`, with the default 30 s
    /// black-box window.
    pub fn new(dir: impl Into<PathBuf>, level: TraceLevel) -> Self {
        TraceConfig {
            dir: dir.into(),
            level,
            blackbox_seconds: BLACKBOX_SECONDS,
        }
    }

    /// The black-box window in frames (at least 1).
    pub fn blackbox_frames(&self) -> usize {
        blackbox_frames(self.blackbox_seconds)
    }
}

/// One ad-hoc evaluation job: a fully specified run at explicit
/// `(scenario, run)` coordinates, outside any campaign plan.
///
/// The shrinker uses these to re-execute reduction candidates while
/// holding the coordinates of the original failing run fixed, so every
/// candidate derives its seed through the exact path the recorded run
/// took.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// Scenario template (the per-run seed is derived from it).
    pub scenario: avfi_sim::scenario::Scenario,
    /// Scenario index mixed into the seed derivation.
    pub scenario_index: usize,
    /// Run index mixed into the seed derivation.
    pub run_index: usize,
    /// Fault plan for the run.
    pub fault: crate::fault::FaultSpec,
}

/// A flattened work item: one (study, campaign, scenario, run) tuple.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    /// Study index within the plan.
    study: usize,
    /// Campaign index within the study.
    campaign: usize,
    /// Campaign index within the flattened campaign list.
    flat_campaign: usize,
    /// Scenario index within the campaign.
    scenario: usize,
    /// Run index within the scenario.
    run: usize,
}

/// One plan's execution state, shared by every worker that runs its
/// items: the flattened queue, result slots preassigned by **flat plan
/// index** (prefilled from a journal on resume), and the counters behind
/// the progress events. The one-shot [`Engine`] and the persistent
/// [`MultiplexPool`] both build every plan through [`PlanExec::new`], the
/// only place a plan is checked, so "flat plan index" means the same
/// thing — and derives the same per-run seeds — in both.
///
/// Every item runs in one order: run (under `catch_unwind`) → persist
/// (trace file, then journal record) → slot → counter → `RunCompleted`
/// (plus `CampaignCompleted` after a campaign's last run). Hence a
/// journal record never names a trace that was not written, a counter at
/// the total implies every slot is filled, and an event never reports a
/// run that is not yet counted.
#[derive(Debug)]
pub(crate) struct PlanExec<'a> {
    plan: Cow<'a, WorkPlan>,
    items: Vec<WorkItem>,
    /// Per-flat-campaign agent, one per distinct [`AgentSpec`]; each run
    /// drives a clone. The pool empties it once the plan is terminal.
    agents: parking_lot::Mutex<Vec<Arc<Agent>>>,
    /// Per-flat-campaign trace specs; `None` with tracing off.
    specs: Option<Vec<TraceSpec>>,
    /// Directory trace files go to; `None` keeps traces in `traces`.
    pub(crate) trace_dir: Option<PathBuf>,
    /// In-memory traces by flat index (sorted by [`PlanExec::finish`]).
    pub(crate) traces: parking_lot::Mutex<Vec<(usize, RunTrace)>>,
    /// `run I panicked: <message>` of the first run that panicked; once
    /// set, the plan has failed and both executors start no further run.
    pub(crate) failure: OnceLock<String>,
    slots: Vec<parking_lot::Mutex<Option<RunResult>>>,
    /// Flat indices still to run, in flat-plan order: the whole plan for
    /// a fresh execution, only the unfilled gap on resume.
    pub(crate) pending: Vec<usize>,
    /// Per-flat-campaign runs left, for `CampaignCompleted`.
    remaining: Vec<AtomicUsize>,
    /// Filled slots, prefilled ones included.
    completed: AtomicUsize,
    /// Per-worker seconds spent running this plan's items.
    busy: Vec<parking_lot::Mutex<f64>>,
    /// Origin of the `Finished` wall-clock: plan setup, or the resume of
    /// a parked plan.
    started: parking_lot::Mutex<Instant>,
}

impl<'a> PlanExec<'a> {
    /// Checks and builds `plan` in one walk, in plan order, refusing the
    /// first problem: the run cap before anything is sized, then per
    /// campaign each scenario's [`Scenario::check`](avfi_sim::Scenario::check)
    /// and, once per distinct town, [`check_town_routes`]; the fault's
    /// [`FaultSpec::check`](crate::fault::FaultSpec::check); and the agent,
    /// built once per distinct [`AgentSpec`]. Slots in `prefilled` results
    /// (first entry wins; out-of-range indices are ignored) and queues the
    /// rest. `trace` is the flight-recorder level and black-box window.
    pub(crate) fn new(
        plan: Cow<'a, WorkPlan>,
        prefilled: Vec<(usize, RunResult)>,
        trace: Option<(TraceLevel, usize)>,
        trace_dir: Option<PathBuf>,
    ) -> Result<Self, PlanError> {
        let runs = plan.total_runs();
        if runs > MAX_PLAN_RUNS {
            return Err(PlanError::TooManyRuns { runs });
        }
        let trace = trace.filter(|(level, _)| *level != TraceLevel::Off);
        let mut items = Vec::with_capacity(runs);
        let (mut specs, mut remaining, mut agents) = (Vec::new(), Vec::new(), Vec::new());
        let mut towns: Vec<&TownSpec> = Vec::new();
        let mut seen: Vec<&AgentSpec> = Vec::new();
        for (study_idx, study) in plan.studies.iter().enumerate() {
            for (campaign_idx, cfg) in study.campaigns.iter().enumerate() {
                for (scenario, template) in cfg.scenarios.iter().enumerate() {
                    let refused = |problem| PlanError::Scenario {
                        study: study.name.clone(),
                        campaign: campaign_idx,
                        scenario,
                        problem,
                    };
                    template.check().map_err(refused)?;
                    if !towns.contains(&&template.town) {
                        check_town_routes(&template.town).map_err(refused)?;
                        towns.push(&template.town);
                    }
                    for run in 0..cfg.runs_per_scenario {
                        items.push(WorkItem {
                            study: study_idx,
                            campaign: campaign_idx,
                            flat_campaign: remaining.len(),
                            scenario,
                            run,
                        });
                    }
                }
                cfg.fault.check().map_err(|problem| PlanError::Fault {
                    study: study.name.clone(),
                    campaign: campaign_idx,
                    problem,
                })?;
                let agent = match seen.iter().position(|spec| *spec == &cfg.agent) {
                    Some(i) => Arc::clone(&agents[i]),
                    None => Arc::new(cfg.agent.build().map_err(|error| PlanError::Weights {
                        study: study.name.clone(),
                        campaign: campaign_idx,
                        error,
                    })?),
                };
                seen.push(&cfg.agent);
                agents.push(agent);
                remaining.push(cfg.total_runs());
                if let Some((level, blackbox_frames)) = trace {
                    specs.push(TraceSpec {
                        level,
                        study: study.name.clone(),
                        blackbox_frames,
                        weights_fingerprint: cfg.agent.weights_fingerprint(),
                    });
                }
            }
        }
        let mut slots: Vec<_> = (0..runs).map(|_| parking_lot::Mutex::new(None)).collect();
        let mut completed = 0;
        for (idx, result) in prefilled {
            if let Some(slot @ None) = slots.get_mut(idx).map(parking_lot::Mutex::get_mut) {
                *slot = Some(result);
                remaining[items[idx].flat_campaign] -= 1;
                completed += 1;
            }
        }
        Ok(PlanExec {
            pending: (0..runs).filter(|&i| slots[i].lock().is_none()).collect(),
            plan,
            items,
            agents: parking_lot::Mutex::new(agents),
            specs: trace.map(|_| specs),
            trace_dir,
            traces: parking_lot::Mutex::new(Vec::new()),
            failure: OnceLock::new(),
            slots,
            remaining: remaining.into_iter().map(AtomicUsize::new).collect(),
            completed: AtomicUsize::new(completed),
            busy: Vec::new(),
            started: parking_lot::Mutex::new(Instant::now()),
        })
    }

    /// Sizes the per-worker busy counters for `workers` and returns the
    /// `Started` event to emit.
    pub(crate) fn start(&mut self, workers: usize) -> ProgressEvent {
        self.busy = (0..workers).map(|_| parking_lot::Mutex::new(0.0)).collect();
        ProgressEvent::Started {
            total_runs: self.total(),
            campaigns: self.remaining.len(),
            workers,
        }
    }

    /// Restarts the `Finished` wall-clock, so a parked plan's utilization
    /// is measured from its resume rather than its recovery.
    pub(crate) fn restart_clock(&self) {
        *self.started.lock() = Instant::now();
    }

    /// Total runs in the plan.
    pub(crate) fn total(&self) -> usize {
        self.items.len()
    }

    /// Runs with a filled slot.
    pub(crate) fn completed(&self) -> usize {
        self.completed.load(Ordering::Acquire)
    }

    /// Runs flat item `i` on `worker`, reporting to `sink` and `spool`. A
    /// run that panics leaves its slot empty and reports nothing.
    pub(crate) fn run_item(
        &self,
        i: usize,
        worker: usize,
        scratch: &mut WorkerScratch,
        sink: &dyn ProgressSink,
        spool: Option<&dyn RunSink>,
    ) {
        let t0 = Instant::now();
        let item = self.items[i];
        let cfg = &self.plan.studies[item.study].campaigns[item.campaign];
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            let agent = Arc::clone(&self.agents.lock()[item.flat_campaign]);
            run_mission(
                &cfg.scenarios[item.scenario],
                item.scenario,
                item.run,
                &cfg.fault,
                &agent,
                self.specs.as_ref().map(|specs| &specs[item.flat_campaign]),
                scratch,
            )
        }));
        let (result, trace) = match run {
            Ok(run) => run,
            Err(payload) => {
                // The run may have left the scratch half-written.
                *scratch = WorkerScratch::default();
                let message = format!("run {i} panicked: {}", panic_message(&*payload));
                let _ = self.failure.set(message);
                return;
            }
        };
        self.persist(i, &result, trace, spool);
        let (km, violations, success) = (
            result.distance_km,
            result.violations.len(),
            result.outcome.is_success(),
        );
        *self.slots[i].lock() = Some(result);
        *self.busy[worker].lock() += t0.elapsed().as_secs_f64();
        let completed = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
        sink.event(&ProgressEvent::RunCompleted {
            study: item.study,
            campaign: item.campaign,
            scenario: item.scenario,
            run: item.run,
            worker,
            completed,
            total: self.total(),
            km,
            violations,
            success,
        });
        if self.remaining[item.flat_campaign].fetch_sub(1, Ordering::AcqRel) == 1 {
            sink.event(&ProgressEvent::CampaignCompleted {
                study: item.study,
                campaign: item.campaign,
                label: cfg.fault.label(),
            });
        }
    }

    /// Makes a finished run durable before it is published: the trace
    /// file first, then the journal record, so a crash between the two
    /// leaves an unjournaled run that resume re-executes; so does a trace
    /// that cannot be written (reported on stderr). Without a trace
    /// directory the trace is kept in memory.
    fn persist(
        &self,
        i: usize,
        result: &RunResult,
        trace: Option<RunTrace>,
        spool: Option<&dyn RunSink>,
    ) {
        match (&self.trace_dir, trace) {
            (Some(dir), Some(trace)) => {
                if let Err(e) = avfi_trace::write_trace_file(dir, i, &trace) {
                    eprintln!("avfi engine: cannot write the trace of run {i}: {e}; not journaled");
                    return;
                }
            }
            (None, Some(trace)) => self.traces.lock().push((i, trace)),
            (_, None) => {}
        }
        if let Some(spool) = spool {
            spool.run_completed(i, result);
        }
    }

    /// Takes every slot (all must be filled), emits `Finished` with each
    /// worker's busy fraction of the wall-clock since the plan was set
    /// up, and assembles the results in plan order.
    pub(crate) fn finish(&self, sink: &dyn ProgressSink) -> Vec<StudyResult> {
        let runs: Vec<RunResult> = self
            .slots
            .iter()
            .map(|slot| slot.lock().take().expect("all runs completed"))
            .collect();
        let elapsed = self.started.lock().elapsed().as_secs_f64();
        sink.event(&ProgressEvent::Finished {
            elapsed,
            utilization: self
                .busy
                .iter()
                .map(|b| (*b.lock() / elapsed.max(1e-12)).min(1.0))
                .collect(),
            total_km: runs.iter().map(|r| r.distance_km).sum(),
            total_violations: runs.iter().map(|r| r.violations.len()).sum(),
        });
        self.traces.lock().sort_by_key(|(idx, _)| *idx);
        assemble_results(&self.plan, runs)
    }
}

/// The message a `panic!` or failed `assert!` carried.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The scoped-thread cursor: `workers` threads claim indices `0..total`
/// in order from one shared counter, each keeping one [`WorkerScratch`]
/// for every item it runs, until the indices run out or `stop` holds.
/// Which thread runs which index affects only wall-clock.
fn drain(
    workers: usize,
    total: usize,
    stop: impl Fn() -> bool + Sync,
    run: impl Fn(usize, usize, &mut WorkerScratch) + Sync,
) {
    let next = AtomicUsize::new(0);
    let (next, stop, run) = (&next, &stop, &run);
    crossbeam::scope(|scope| {
        for worker in 0..workers {
            scope.spawn(move |_| {
                let mut scratch = WorkerScratch::default();
                while !stop() {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= total {
                        break;
                    }
                    run(worker, k, &mut scratch);
                }
            });
        }
    })
    .expect("engine worker panicked");
}

/// The execution engine: worker count, optional tracing, plan execution.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    workers: usize,
    trace: Option<TraceConfig>,
}

impl Engine {
    /// An engine with automatic worker count (one per available core).
    pub fn new() -> Self {
        Engine::default()
    }

    /// Sets the worker-thread count (0 = one per available core).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Turns on the flight recorder. Trace files are routed by **flat
    /// plan index** (`run-000042.avtr` = the 43rd item of the flattened
    /// queue), so the emitted file set is identical for any worker count.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The worker count `execute` would use for `total` queued runs.
    fn effective_workers(&self, total: usize) -> usize {
        let auto = if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        };
        auto.min(total).max(1)
    }

    /// Executes a plan silently.
    pub fn execute(&self, plan: &WorkPlan) -> Vec<StudyResult> {
        self.execute_with(plan, &NullSink)
    }

    /// Executes one campaign as a single-campaign plan and returns its
    /// results. Results are identical for any worker count. Studies that
    /// run several campaigns should build one [`WorkPlan`] instead, so
    /// the queues merge and no cores idle between campaigns.
    pub fn run_campaign(&self, config: CampaignConfig) -> CampaignResult {
        self.execute(&WorkPlan::single("campaign", config))
            .pop()
            .and_then(|mut study| study.campaigns.pop())
            .expect("plan has one campaign")
    }

    /// Evaluates ad-hoc jobs across the worker pool, returning
    /// `(result, trace)` pairs **in job order** regardless of worker
    /// count — the same scoped-thread cursor and preassigned slots as
    /// [`Engine::execute_with`], so scheduling affects only wall-clock.
    ///
    /// Every job runs with the flight recorder on at `spec.level`
    /// (at `Blackbox`, the trace is `Some` only for failed runs). Nothing
    /// is written to disk and the engine's own [`TraceConfig`] is
    /// ignored: callers own the traces. Every job drives a clone of
    /// `agent`, which the caller builds once ([`AgentSpec::build`]).
    pub fn evaluate_jobs(
        &self,
        jobs: &[EvalJob],
        agent: &Agent,
        spec: &TraceSpec,
    ) -> Vec<(RunResult, Option<RunTrace>)> {
        type Slot = parking_lot::Mutex<Option<(RunResult, Option<RunTrace>)>>;
        let slots: Vec<Slot> = jobs.iter().map(|_| parking_lot::Mutex::new(None)).collect();
        drain(
            self.effective_workers(jobs.len()),
            jobs.len(),
            || false,
            |_, i, scratch| {
                let job = &jobs[i];
                *slots[i].lock() = Some(run_mission(
                    &job.scenario,
                    job.scenario_index,
                    job.run_index,
                    &job.fault,
                    agent,
                    Some(spec),
                    scratch,
                ));
            },
        );
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("all jobs completed"))
            .collect()
    }

    /// Executes every run of `plan` across the worker pool, streaming
    /// progress into `sink`, and reassembles results in plan order.
    ///
    /// Results are bit-identical for any worker count: each run derives
    /// its seed from its (campaign template, scenario, run) coordinates
    /// and lands in a preassigned slot.
    ///
    /// # Panics
    ///
    /// A plan the executor refuses panics with `plan failed: <PlanError>`
    /// before any run; a run that panics ends the call as in
    /// [`Engine::execute_resumed`].
    pub fn execute_with(&self, plan: &WorkPlan, sink: &dyn ProgressSink) -> Vec<StudyResult> {
        self.execute_resumed(plan, Vec::new(), sink, None)
            .unwrap_or_else(|e| panic!("plan failed: {e}"))
    }

    /// [`Engine::execute_with`], resumed: `prefilled` results (keyed by
    /// flat plan index — e.g. recovered from an `avfi-store` journal)
    /// slot straight into their preassigned positions and only the
    /// remaining items fan out across the workers. Each completing run is
    /// also reported to `spool` (before it is published in-memory), which
    /// is how the write-ahead journal observes execution.
    ///
    /// Because every run's output depends only on its flat-plan
    /// coordinates and results assemble in flat-plan order, the returned
    /// results are **byte-identical** to an uninterrupted
    /// [`Engine::execute`] of the same plan, for any worker count and any
    /// prefilled subset. Out-of-range or duplicate prefilled indices are
    /// ignored (first entry wins).
    ///
    /// # Errors
    ///
    /// The [`PlanError`] the executor refuses the plan with, before any
    /// run; `spool` hears nothing.
    ///
    /// # Panics
    ///
    /// Once a run panics, no further run starts; in-flight runs finish,
    /// `spool` receives [`PlanPhase::Failed`], and this call panics with
    /// `plan failed: run I panicked: <message>`.
    pub fn execute_resumed(
        &self,
        plan: &WorkPlan,
        prefilled: Vec<(usize, RunResult)>,
        sink: &dyn ProgressSink,
        spool: Option<&dyn RunSink>,
    ) -> Result<Vec<StudyResult>, PlanError> {
        let trace = self.trace.as_ref();
        let exec = PlanExec::new(
            Cow::Borrowed(plan),
            prefilled,
            trace.map(|t| (t.level, t.blackbox_frames())),
            trace.map(|t| t.dir.clone()),
        )?;
        Ok(self.run(exec, sink, spool))
    }

    /// [`Engine::execute_resumed`] of a built plan.
    fn run(
        &self,
        mut exec: PlanExec<'_>,
        sink: &dyn ProgressSink,
        spool: Option<&dyn RunSink>,
    ) -> Vec<StudyResult> {
        let workers = self.effective_workers(exec.pending.len());
        sink.event(&exec.start(workers));
        drain(
            workers,
            exec.pending.len(),
            || exec.failure.get().is_some(),
            |worker, k, scratch| exec.run_item(exec.pending[k], worker, scratch, sink, spool),
        );
        if let Some(message) = exec.failure.get() {
            if let Some(spool) = spool {
                spool.plan_terminal(PlanPhase::Failed);
            }
            panic!("plan failed: {message}");
        }
        let results = exec.finish(sink);
        if let Some(spool) = spool {
            spool.plan_terminal(PlanPhase::Completed);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{AgentSpec, CampaignConfig};
    use crate::fault::timing::TimingFault;
    use crate::fault::FaultSpec;
    use avfi_sim::scenario::{Scenario, TownSpec};
    use std::sync::Arc;

    fn quick_scenario(seed: u64) -> Scenario {
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

    fn campaign(seed: u64, fault: FaultSpec) -> CampaignConfig {
        CampaignConfig::builder(vec![quick_scenario(seed), quick_scenario(seed + 1)])
            .runs_per_scenario(2)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build()
    }

    fn two_study_plan() -> WorkPlan {
        WorkPlan::new()
            .with_study("baseline", vec![campaign(40, FaultSpec::None)])
            .with_study(
                "timing",
                vec![
                    campaign(
                        40,
                        FaultSpec::Timing(TimingFault::OutputDelay { frames: 8 }),
                    ),
                    campaign(44, FaultSpec::None),
                ],
            )
    }

    /// Checks `plan` as both executors do before its first run, and drops
    /// what that builds.
    fn validate(plan: &WorkPlan) -> Result<(), PlanError> {
        PlanExec::new(Cow::Borrowed(plan), Vec::new(), None, None).map(drop)
    }

    #[test]
    fn plan_counts() {
        let plan = two_study_plan();
        assert_eq!(plan.total_campaigns(), 3);
        assert_eq!(plan.total_runs(), 12);
    }

    #[test]
    fn validate_names_the_campaign_whose_weights_do_not_decode() {
        assert_eq!(validate(&two_study_plan()), Ok(()));
        let neural = |weights: Vec<u8>| CampaignConfig {
            agent: AgentSpec::Neural {
                weights: Arc::new(weights),
            },
            ..campaign(40, FaultSpec::None)
        };
        let good = avfi_agent::IlNetwork::new(3).to_weights();
        let plan = two_study_plan().with_study(
            "il",
            vec![neural(good.clone()), neural(good), neural(vec![1, 2, 3])],
        );
        let err = validate(&plan).unwrap_err();
        assert!(matches!(
            &err,
            PlanError::Weights { study, campaign: 2, .. } if study == "il"
        ));
        assert!(err.to_string().contains("neural weights"), "{err}");
    }

    /// A plan over the run cap is refused before anything is built for
    /// it, and a count that would overflow saturates instead of wrapping.
    #[test]
    fn validate_refuses_a_plan_over_the_run_cap() {
        let plan = |scenarios: usize, runs: usize| {
            let cfg = CampaignConfig::builder(vec![quick_scenario(1); scenarios])
                .runs_per_scenario(runs)
                .build();
            WorkPlan::single("big", cfg)
        };
        assert_eq!(validate(&plan(1, MAX_PLAN_RUNS)), Ok(()));
        let err = validate(&plan(1, 1 << 40)).unwrap_err();
        assert_eq!(err, PlanError::TooManyRuns { runs: 1 << 40 });
        assert!(
            err.to_string()
                .contains("1099511627776 runs, more than the cap of 1048576"),
            "{err}"
        );
        let overflow = plan(2, usize::MAX);
        assert_eq!(overflow.total_runs(), usize::MAX);
        assert_eq!(
            validate(&overflow),
            Err(PlanError::TooManyRuns { runs: usize::MAX })
        );
    }

    /// One mutant per bound, non-finite field and constructor assert of
    /// `Scenario::check`: each is refused, naming its study, campaign and
    /// scenario, and each bound itself is accepted. Nothing is built.
    #[test]
    fn validate_refuses_each_scenario_the_world_cannot_take() {
        use avfi_sim::scenario::{
            MAX_ACTORS, MAX_CAMERA_PIXELS, MAX_LIDAR_BEAMS, MAX_TIME_BUDGET, MAX_TOWN_EXTENT,
            MAX_TOWN_SIDE,
        };
        type Mutant = fn(&mut Scenario);
        let at_bounds: &[Mutant] = &[
            |s| s.npc_vehicles = MAX_ACTORS,
            |s| s.pedestrians = MAX_ACTORS,
            |s| {
                s.town = TownSpec::grid(MAX_TOWN_SIDE, 2);
                s.town.block = 100.0;
            },
            // 1 × block + 2 × (6 + 3.5 + 2) m: exactly the cap.
            |s| s.town.block = MAX_TOWN_EXTENT - 23.0,
            |s| (s.camera.width, s.camera.height) = (256, MAX_CAMERA_PIXELS / 256),
            |s| s.lidar.beams = MAX_LIDAR_BEAMS,
            |s| s.time_budget = MAX_TIME_BUDGET,
        ];
        let refused: &[(&str, Mutant)] = &[
            ("npc_vehicles 2001 is over the cap", |s| {
                s.npc_vehicles = MAX_ACTORS + 1
            }),
            ("pedestrians 2001 is over the cap", |s| {
                s.pedestrians = MAX_ACTORS + 1
            }),
            ("town grid 41×2 is over the cap", |s| {
                s.town.cols = MAX_TOWN_SIDE + 1
            }),
            ("town grid 2×41 is over the cap", |s| {
                s.town.rows = MAX_TOWN_SIDE + 1
            }),
            ("town extent 10000023 m is over the cap", |s| {
                s.town.block = 1e7
            }),
            ("camera 257×256 is empty or over the cap", |s| {
                (s.camera.width, s.camera.height) = (257, 256)
            }),
            ("camera 0×48 is empty", |s| s.camera.width = 0),
            ("lidar.beams 1025 is outside", |s| {
                s.lidar.beams = MAX_LIDAR_BEAMS + 1
            }),
            ("lidar.beams 1 is outside", |s| s.lidar.beams = 1),
            ("time_budget 3600.5 s is over the cap", |s| {
                s.time_budget = MAX_TIME_BUDGET + 0.5
            }),
            ("time_budget is NaN, not a finite number", |s| {
                s.time_budget = f64::NAN
            }),
            ("town.block is inf, not a finite number", |s| {
                s.town.block = f64::INFINITY
            }),
            ("camera.pitch_deg is NaN", |s| s.camera.pitch_deg = f64::NAN),
            ("gps.sigma is -inf", |s| s.gps.sigma = f64::NEG_INFINITY),
            ("pedestrian_cross_rate is NaN", |s| {
                s.pedestrian_cross_rate = f64::NAN
            }),
            ("town grid 1×1 has fewer than two intersections", |s| {
                s.town = TownSpec::grid(1, 1)
            }),
            ("town.block 22 is not wider", |s| s.town.block = 22.0),
            (
                "town grid 2×2 of 25 m blocks has 0 drive lanes longer than 20 m",
                |s| s.town.block = 25.0,
            ),
            ("town lane_width 0 must be positive", |s| {
                s.town.lane_width = 0.0
            }),
            ("sidewalk -1 and", |s| s.town.sidewalk = -1.0),
            ("town speed limits 8.33 and 0 must be positive", |s| {
                s.town.turn_speed_limit = 0.0
            }),
            ("camera.fov_deg 180 is outside (0, 180)", |s| {
                s.camera.fov_deg = 180.0
            }),
            ("lidar.max_range 0 must be positive", |s| {
                s.lidar.max_range = 0.0
            }),
        ];
        let plan = |mutate: Mutant| {
            let mut cfg = campaign(44, FaultSpec::None);
            mutate(&mut cfg.scenarios[1]);
            two_study_plan().with_study("mutant", vec![campaign(40, FaultSpec::None), cfg])
        };
        for mutate in at_bounds {
            assert_eq!(validate(&plan(*mutate)), Ok(()));
        }
        for (problem, mutate) in refused {
            let err = validate(&plan(*mutate)).unwrap_err();
            assert!(
                matches!(
                    &err,
                    PlanError::Scenario { study, campaign: 1, scenario: 1, .. } if study == "mutant"
                ),
                "{err:?}"
            );
            let message = err.to_string();
            assert!(
                message.starts_with("study \"mutant\" campaign 1 scenario 1: ")
                    && message.contains(problem),
                "{message} lacks {problem:?}"
            );
        }
    }

    /// Each fault cap is accepted at its bound and refused one above
    /// it, naming the study and campaign, and so is any bit index of 64
    /// or more. Nothing is built.
    #[test]
    fn validate_refuses_each_fault_over_its_cap() {
        use crate::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
        use crate::fault::input::{ImageFault, InputFault, LidarFault};
        use crate::fault::ml::MlFault;
        use crate::fault::{MAX_FLIPPED_BITS, MAX_GHOSTS, MAX_WATER_DROPS, MAX_WEIGHT_FLIPS};
        use crate::localizer::ParamSelector;
        let drops =
            |drops| FaultSpec::Input(InputFault::always(ImageFault::water_drop(drops, 0.1)));
        let ghosts = |count| {
            FaultSpec::Input(
                InputFault::scalar_only().with_lidar(LidarFault::Ghost { count, range: 2.0 }),
            )
        };
        let flips = |flips| {
            FaultSpec::Ml(MlFault::WeightBitFlip {
                flips,
                selector: ParamSelector::All,
            })
        };
        let bits =
            |model| FaultSpec::Hardware(HardwareFault::always(HardwareTarget::ControlSteer, model));
        let list = |len: usize| {
            bits(BitFaultModel::MultiBitFlip {
                bits: (0..len).map(|i| (i % 64) as u8).collect(),
            })
        };
        let single = |bit| bits(BitFaultModel::SingleBitFlip { bit });
        let at_bounds = [
            drops(MAX_WATER_DROPS),
            ghosts(MAX_GHOSTS),
            flips(MAX_WEIGHT_FLIPS),
            list(MAX_FLIPPED_BITS),
            single(63),
            bits(BitFaultModel::MultiBitFlip { bits: vec![0, 63] }),
        ];
        let refused = [
            (
                drops(MAX_WATER_DROPS + 1),
                "water-drop count 65 is over the cap of 64",
            ),
            (
                drops(1 << 40),
                "water-drop count 1099511627776 is over the cap of 64",
            ),
            (
                ghosts(MAX_GHOSTS + 1),
                "ghost count 1025 is over the cap of 1024",
            ),
            (
                flips(MAX_WEIGHT_FLIPS + 1),
                "weight bit-flip count 1025 is over the cap of 1024",
            ),
            (
                list(MAX_FLIPPED_BITS + 1),
                "bit-flip list length 65 is over the cap of 64",
            ),
            (single(64), "bit index 64 is outside 0..64"),
            (single(u8::MAX), "bit index 255 is outside 0..64"),
            (
                bits(BitFaultModel::MultiBitFlip { bits: vec![3, 64] }),
                "bit index 64 is outside 0..64",
            ),
        ];
        let plan = |fault: FaultSpec| {
            two_study_plan().with_study(
                "mutant",
                vec![campaign(40, FaultSpec::None), campaign(44, fault)],
            )
        };
        for fault in at_bounds {
            assert_eq!(validate(&plan(fault.clone())), Ok(()), "{fault:?}");
        }
        for (fault, problem) in refused {
            let err = validate(&plan(fault)).unwrap_err();
            assert!(
                matches!(&err, PlanError::Fault { study, campaign: 1, .. } if study == "mutant"),
                "{err:?}"
            );
            assert_eq!(
                err.to_string(),
                format!("study \"mutant\" campaign 1: fault {problem}")
            );
        }
    }

    /// What a [`RunSink`] is told: journaled flat indices and terminal
    /// phases.
    #[derive(Debug, Default)]
    struct Journaled {
        runs: parking_lot::Mutex<Vec<usize>>,
        terminal: parking_lot::Mutex<Vec<PlanPhase>>,
    }

    impl RunSink for Journaled {
        fn run_completed(&self, flat_index: usize, _result: &RunResult) {
            self.runs.lock().push(flat_index);
        }

        fn plan_terminal(&self, phase: PlanPhase) {
            self.terminal.lock().push(phase);
        }
    }

    /// The executor refuses a plan before its first run: no event, no
    /// journal record. `execute_resumed` returns the refusal and
    /// `execute_with` panics with it. The 1×1 town of the containment test
    /// below is such a plan.
    #[test]
    fn a_refused_plan_panics_before_any_run() {
        let one = CampaignConfig::builder(vec![Scenario::builder(TownSpec::grid(1, 1)).build()])
            .runs_per_scenario(1)
            .build();
        let plan = WorkPlan::new().with_study("poison", vec![one]);
        let problem = "study \"poison\" campaign 0 scenario 0: \
                       town grid 1×1 has fewer than two intersections";
        let (sink, journal) = (CollectSink::new(), Journaled::default());
        let err = Engine::new()
            .workers(2)
            .execute_resumed(&plan, Vec::new(), &sink, Some(&journal))
            .expect_err("the plan must be refused");
        assert_eq!(err.to_string(), problem);
        assert!(sink.take().is_empty());
        assert!(journal.runs.lock().is_empty() && journal.terminal.lock().is_empty());
        let refused = panic::catch_unwind(AssertUnwindSafe(|| {
            Engine::new().workers(2).execute_with(&plan, &sink)
        }));
        let payload = refused.expect_err("execute_with must panic");
        assert_eq!(panic_message(&*payload), format!("plan failed: {problem}"));
        assert!(sink.take().is_empty());
    }

    /// A panicking run fails the engine's plan as it fails a pool plan:
    /// the workers start no further run, the journal records the failure,
    /// and the call panics once with the run's message. No checked plan
    /// panics, so the test swaps a 1×1 town into a checked plan's
    /// executor.
    #[test]
    fn a_panicking_run_fails_the_plan_and_starts_no_further_run() {
        // The process's first unwind is slow (tens of ms); take it here so
        // the poison run fails before a mission can finish.
        let _ = panic::catch_unwind(|| panic!("warming the unwinder"));
        let missions = CampaignConfig::builder(vec![Scenario::builder(TownSpec::grid(3, 3))
            .seed(7)
            .time_budget(60.0)
            .build()])
        .runs_per_scenario(8)
        .agent(AgentSpec::Expert)
        .build();
        let poison = CampaignConfig {
            runs_per_scenario: 1,
            ..missions.clone()
        };
        let plan = WorkPlan::new().with_study("poison", vec![poison, missions]);
        let mut exec = PlanExec::new(Cow::Owned(plan), Vec::new(), None, None).unwrap();
        exec.plan.to_mut().studies[0].campaigns[0].scenarios[0].town = TownSpec::grid(1, 1);
        let (sink, journal) = (CollectSink::new(), Journaled::default());
        let failed = panic::catch_unwind(AssertUnwindSafe(|| {
            Engine::new().workers(2).run(exec, &sink, Some(&journal))
        }));
        let payload = failed.expect_err("the plan must fail");
        let message = panic_message(&*payload);
        assert!(
            message.starts_with("plan failed: run 0 panicked: ")
                && message.contains("town needs at least two intersections"),
            "{message}"
        );
        let completed = sink
            .take()
            .iter()
            .filter(|e| matches!(e, ProgressEvent::RunCompleted { .. }))
            .count();
        assert!(
            completed < 8,
            "{completed} runs completed after the failure"
        );
        assert_eq!(journal.runs.lock().len(), completed);
        assert_eq!(*journal.terminal.lock(), [PlanPhase::Failed]);
    }

    /// Campaigns that share a weight blob share one decoded network, and
    /// each run drives its own clone: ML-faulted campaigns that run first
    /// leave a clean campaign on the same blob byte-identical to that
    /// campaign run alone.
    #[test]
    fn ml_faults_do_not_leak_into_a_campaign_sharing_the_blob() {
        use crate::fault::ml::MlFault;
        use crate::localizer::ParamSelector;
        let agent = AgentSpec::neural(&mut avfi_agent::IlNetwork::new(21));
        let neural = |fault| CampaignConfig {
            agent: agent.clone(),
            runs_per_scenario: 1,
            ..campaign(40, FaultSpec::Ml(fault))
        };
        let noise = MlFault::WeightNoise {
            sigma: 0.8,
            fraction: 1.0,
            selector: ParamSelector::All,
        };
        let stuck = MlFault::NeuronStuckAt {
            layer: 3,
            unit: 7,
            value: 10.0,
        };
        let clean = CampaignConfig {
            fault: FaultSpec::None,
            ..neural(stuck.clone())
        };
        let plan =
            WorkPlan::new().with_study("il", vec![neural(noise), neural(stuck), clean.clone()]);
        let exec = PlanExec::new(Cow::Borrowed(&plan), Vec::new(), None, None).unwrap();
        let agents = exec.agents.lock();
        assert!(
            agents.iter().all(|a| Arc::ptr_eq(a, &agents[0])),
            "one decode"
        );
        drop(agents);
        let shared = Engine::new().workers(1).execute(&plan);
        let alone = Engine::new().workers(1).run_campaign(clean);
        assert_eq!(
            serde_json::to_string(&shared[0].campaigns[2]).unwrap(),
            serde_json::to_string(&alone).unwrap()
        );
    }

    /// A trace that cannot be written costs the run its journal record,
    /// not its result: the results match an untraced run, every traced
    /// (failed) run is left for resume to re-run, and nothing panics.
    #[test]
    fn an_unwritable_trace_leaves_its_run_unjournaled() {
        use crate::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
        let dir = std::env::temp_dir().join(format!("avfi-unwritable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // The trace "directory" is an existing regular file.
        let not_a_dir = dir.join("traces");
        std::fs::write(&not_a_dir, b"").unwrap();
        let stuck = FaultSpec::Hardware(HardwareFault::always(
            HardwareTarget::ControlBrake,
            BitFaultModel::StuckAt { value: 1.0 },
        ));
        // A budget roomy enough for the clean runs to succeed untraced.
        let clean = CampaignConfig::builder(vec![quick_scenario(60)
            .to_builder()
            .time_budget(60.0)
            .build()])
        .runs_per_scenario(2)
        .agent(AgentSpec::Expert)
        .build();
        let plan = WorkPlan::new().with_study("unwritable", vec![campaign(40, stuck), clean]);
        let journal = Journaled::default();
        let traced = Engine::new()
            .workers(2)
            .with_trace(TraceConfig::new(&not_a_dir, TraceLevel::Blackbox))
            .execute_resumed(&plan, Vec::new(), &NullSink, Some(&journal))
            .expect("a checked plan");
        let untraced = Engine::new().workers(2).execute(&plan);
        assert_eq!(
            serde_json::to_string(&traced).unwrap(),
            serde_json::to_string(&untraced).unwrap()
        );
        let succeeded: Vec<usize> = untraced
            .iter()
            .flat_map(|study| &study.campaigns)
            .flat_map(|campaign| campaign.runs())
            .enumerate()
            .filter(|(_, run)| run.outcome.is_success())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(succeeded, [4, 5], "only the clean runs succeed");
        let mut journaled = journal.runs.into_inner();
        journaled.sort_unstable();
        assert_eq!(journaled, succeeded);
        assert_eq!(journal.terminal.into_inner(), [PlanPhase::Completed]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_matches_sequential_campaigns() {
        // The flattened queue must reproduce exactly what running each
        // campaign on its own through `Engine::run_campaign` produces.
        let plan = two_study_plan();
        let engine = Engine::new().workers(3).execute(&plan);
        for (study, plan_study) in engine.iter().zip(plan.studies()) {
            for (got, cfg) in study.campaigns.iter().zip(&plan_study.campaigns) {
                let want = Engine::new().workers(1).run_campaign(cfg.clone());
                assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(&want).unwrap()
                );
            }
        }
    }

    #[test]
    fn progress_events_cover_every_run() {
        let plan = two_study_plan();
        let sink = CollectSink::new();
        Engine::new().workers(2).execute_with(&plan, &sink);
        let events = sink.take();
        let runs = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::RunCompleted { .. }))
            .count();
        let campaigns = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::CampaignCompleted { .. }))
            .count();
        assert_eq!(runs, plan.total_runs());
        assert_eq!(campaigns, plan.total_campaigns());
        assert!(matches!(
            events.first(),
            Some(ProgressEvent::Started { .. })
        ));
        let finished = events.last().expect("finished event");
        match finished {
            ProgressEvent::Finished { utilization, .. } => {
                assert_eq!(utilization.len(), 2);
                for u in utilization {
                    assert!((0.0..=1.0).contains(u));
                }
            }
            other => panic!("last event should be Finished, got {other:?}"),
        }
    }

    #[test]
    fn evaluate_jobs_is_worker_count_invariant_and_job_ordered() {
        use crate::campaign::TraceSpec;
        use crate::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
        let stuck = FaultSpec::Hardware(HardwareFault::always(
            HardwareTarget::ControlBrake,
            BitFaultModel::StuckAt { value: 1.0 },
        ));
        // Roomy budget: the clean expert run must genuinely finish the
        // mission, so only the stuck-brake jobs fail.
        let scenario = quick_scenario(60).to_builder().time_budget(60.0).build();
        let jobs: Vec<EvalJob> = (0..5)
            .map(|i| EvalJob {
                scenario: scenario.clone(),
                scenario_index: 2,
                run_index: 3,
                fault: if i % 2 == 0 {
                    stuck.clone()
                } else {
                    FaultSpec::None
                },
            })
            .collect();
        let spec = TraceSpec {
            level: avfi_trace::TraceLevel::Blackbox,
            study: "eval".to_string(),
            blackbox_frames: 64,
            weights_fingerprint: None,
        };
        let expert = AgentSpec::Expert.build().unwrap();
        let r1 = Engine::new()
            .workers(1)
            .evaluate_jobs(&jobs, &expert, &spec);
        let r8 = Engine::new()
            .workers(8)
            .evaluate_jobs(&jobs, &expert, &spec);
        assert_eq!(r1.len(), 5);
        for ((res1, tr1), (res8, tr8)) in r1.iter().zip(&r8) {
            assert_eq!(
                serde_json::to_string(res1).unwrap(),
                serde_json::to_string(res8).unwrap()
            );
            assert_eq!(tr1, tr8, "traces must be worker-count invariant");
        }
        // Stuck-brake jobs fail and carry a blackbox trace; clean runs
        // emit none. Seeds come from the explicit coordinates.
        assert!(r1[0].1.is_some());
        assert!(r1[1].1.is_none());
        let header = &r1[0].1.as_ref().unwrap().header;
        assert_eq!(header.scenario_index, 2);
        assert_eq!(header.run_index, 3);
        assert_eq!(header.seed, header.derived_seed());
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(Engine::new().workers(8).effective_workers(3), 3);
        assert_eq!(Engine::new().workers(2).effective_workers(100), 2);
        assert!(Engine::new().effective_workers(100) >= 1);
        assert_eq!(Engine::new().workers(5).effective_workers(0), 1);
    }
}
