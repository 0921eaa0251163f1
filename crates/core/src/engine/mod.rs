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
use avfi_sim::FRAME_DT;
use avfi_trace::{RunTrace, TraceLevel};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// Total number of runs across studies.
    pub fn total_runs(&self) -> usize {
        self.studies
            .iter()
            .flat_map(|s| &s.campaigns)
            .map(CampaignConfig::total_runs)
            .sum()
    }
}

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
/// finished run's [`RunResult`] (and trace, when one was recorded) keyed
/// by flat plan index, plus the plan's terminal phase — so an
/// implementation can journal them to disk as they happen.
///
/// Implementations are called concurrently from worker threads and must
/// handle their own synchronization. The executor calls `run_completed`
/// *after* writing the run's trace file and *before* publishing the
/// result to its in-memory slot, so a journal record always exists for
/// any run the engine counts as finished.
pub trait RunSink: Sync {
    /// One run finished: its flat-plan index, result, and trace (if the
    /// flight recorder emitted one).
    fn run_completed(&self, flat_index: usize, result: &RunResult, trace: Option<&RunTrace>);

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
/// [`MultiplexPool`] both execute plans through it, so "flat plan index"
/// means the same thing — and derives the same per-run seeds — in both.
///
/// Every item runs in one order: run → persist (trace file, then journal
/// record) → slot → counter → `RunCompleted` (plus `CampaignCompleted`
/// after a campaign's last run). Hence a journal record never names a
/// trace that was not written, a counter at the total implies every slot
/// is filled, and an event never reports a run that is not yet counted.
#[derive(Debug)]
pub(crate) struct PlanExec<'a> {
    plan: Cow<'a, WorkPlan>,
    items: Vec<WorkItem>,
    /// Per-flat-campaign trace specs; `None` with tracing off.
    specs: Option<Vec<TraceSpec>>,
    /// Directory trace files go to; `None` keeps traces in `traces`.
    trace_dir: Option<PathBuf>,
    /// In-memory traces by flat index (sorted by [`PlanExec::finish`]).
    pub(crate) traces: parking_lot::Mutex<Vec<(usize, RunTrace)>>,
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
    /// Flattens `plan` in plan order, slots in `prefilled` results (first
    /// entry wins; out-of-range indices are ignored), and queues the
    /// rest. `trace` is the flight-recorder level and black-box window
    /// in frames.
    pub(crate) fn new(
        plan: Cow<'a, WorkPlan>,
        prefilled: Vec<(usize, RunResult)>,
        trace: Option<(TraceLevel, usize)>,
        trace_dir: Option<PathBuf>,
    ) -> Self {
        let trace = trace.filter(|(level, _)| *level != TraceLevel::Off);
        let mut items = Vec::with_capacity(plan.total_runs());
        let mut specs = Vec::new();
        let mut remaining = Vec::new();
        for (study_idx, study) in plan.studies.iter().enumerate() {
            for (campaign_idx, cfg) in study.campaigns.iter().enumerate() {
                for scenario in 0..cfg.scenarios.len() {
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
        let mut slots: Vec<Option<RunResult>> = vec![None; items.len()];
        let mut completed = 0;
        for (idx, result) in prefilled {
            if slots.get(idx).is_some_and(Option::is_none) {
                slots[idx] = Some(result);
                remaining[items[idx].flat_campaign] -= 1;
                completed += 1;
            }
        }
        PlanExec {
            pending: (0..items.len()).filter(|&i| slots[i].is_none()).collect(),
            plan,
            items,
            specs: trace.map(|_| specs),
            trace_dir,
            traces: parking_lot::Mutex::new(Vec::new()),
            slots: slots.into_iter().map(parking_lot::Mutex::new).collect(),
            remaining: remaining.into_iter().map(AtomicUsize::new).collect(),
            completed: AtomicUsize::new(completed),
            busy: Vec::new(),
            started: parking_lot::Mutex::new(Instant::now()),
        }
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

    /// Runs flat item `i` on `worker`, reporting to `sink` and `spool`.
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
        let (result, trace) = run_mission(
            &cfg.scenarios[item.scenario],
            item.scenario,
            item.run,
            &cfg.fault,
            &cfg.agent,
            self.specs.as_ref().map(|specs| &specs[item.flat_campaign]),
            scratch,
        );
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
    /// leaves an unjournaled run that resume re-executes. Without a trace
    /// directory the trace is kept in memory.
    fn persist(
        &self,
        i: usize,
        result: &RunResult,
        trace: Option<RunTrace>,
        spool: Option<&dyn RunSink>,
    ) {
        if let (Some(dir), Some(trace)) = (&self.trace_dir, &trace) {
            avfi_trace::write_trace_file(dir, i, trace)
                .unwrap_or_else(|e| panic!("cannot write trace for run {i}: {e}"));
        }
        if let Some(spool) = spool {
            spool.run_completed(i, result, trace.as_ref());
        }
        if let (None, Some(trace)) = (&self.trace_dir, trace) {
            self.traces.lock().push((i, trace));
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

/// The scoped-thread cursor: `workers` threads claim indices `0..total`
/// in order from one shared counter, each keeping one [`WorkerScratch`]
/// for every item it runs. Which thread runs which index affects only
/// wall-clock.
fn drain(workers: usize, total: usize, run: impl Fn(usize, usize, &mut WorkerScratch) + Sync) {
    let next = AtomicUsize::new(0);
    let (next, run) = (&next, &run);
    crossbeam::scope(|scope| {
        for worker in 0..workers {
            scope.spawn(move |_| {
                let mut scratch = WorkerScratch::default();
                loop {
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
    pub fn effective_workers(&self, total: usize) -> usize {
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
    /// ignored: callers own the traces.
    pub fn evaluate_jobs(
        &self,
        jobs: &[EvalJob],
        agent: &AgentSpec,
        spec: &TraceSpec,
    ) -> Vec<(RunResult, Option<RunTrace>)> {
        type Slot = parking_lot::Mutex<Option<(RunResult, Option<RunTrace>)>>;
        let slots: Vec<Slot> = jobs.iter().map(|_| parking_lot::Mutex::new(None)).collect();
        drain(
            self.effective_workers(jobs.len()),
            jobs.len(),
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
    pub fn execute_with(&self, plan: &WorkPlan, sink: &dyn ProgressSink) -> Vec<StudyResult> {
        self.execute_resumed(plan, Vec::new(), sink, None)
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
    pub fn execute_resumed(
        &self,
        plan: &WorkPlan,
        prefilled: Vec<(usize, RunResult)>,
        sink: &dyn ProgressSink,
        spool: Option<&dyn RunSink>,
    ) -> Vec<StudyResult> {
        let trace = self.trace.as_ref();
        let mut exec = PlanExec::new(
            Cow::Borrowed(plan),
            prefilled,
            trace.map(|t| (t.level, t.blackbox_frames())),
            trace.map(|t| t.dir.clone()),
        );
        let workers = self.effective_workers(exec.pending.len());
        sink.event(&exec.start(workers));
        drain(workers, exec.pending.len(), |worker, k, scratch| {
            exec.run_item(exec.pending[k], worker, scratch, sink, spool);
        });
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

    #[test]
    fn plan_counts() {
        let plan = two_study_plan();
        assert_eq!(plan.total_campaigns(), 3);
        assert_eq!(plan.total_runs(), 12);
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
        let r1 = Engine::new()
            .workers(1)
            .evaluate_jobs(&jobs, &AgentSpec::Expert, &spec);
        let r8 = Engine::new()
            .workers(8)
            .evaluate_jobs(&jobs, &AgentSpec::Expert, &spec);
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
