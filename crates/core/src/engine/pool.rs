//! Persistent multiplexing worker pool: many plans, one pool.
//!
//! [`Engine::execute`](super::Engine::execute) is one-shot — it spins
//! workers up, drains one plan, and tears them down. A fault-injection
//! *service* instead keeps one long-lived pool and lets many clients
//! submit [`WorkPlan`]s concurrently. This module provides that shape:
//!
//! * [`MultiplexPool`] owns the worker threads for the life of the
//!   process. [`MultiplexPool::submit`] enqueues a plan and returns a
//!   [`PlanTicket`] immediately.
//! * **Fair round-robin scheduling**: active plans sit in a rotation;
//!   each claim grants one run from the front plan and sends it to the
//!   back, so an 8-run plan submitted next to an 8 000-run plan makes
//!   progress every cycle instead of queueing behind it.
//! * **Per-plan cancellation**: [`PlanTicket::cancel`] drops a plan's
//!   unclaimed runs; the cooperative check in the worker drain loop skips
//!   claimed-but-unstarted runs, and in-flight runs finish. Lifecycle
//!   transitions go through the
//!   [`PlanLifecycle`] state machine.
//! * **Parked plans**: a plan recovered from a journal with runs still
//!   missing is submitted [`PlanPhase::Interrupted`] and stays out of the
//!   rotation until [`PlanTicket::resume`] (or [`PlanTicket::cancel`]).
//! * **Plan-tagged events**: every [`ProgressEvent`] lands in the plan's
//!   own ordered log as a [`PlanEvent`] `{plan, seq, event}`, so watchers
//!   replay/follow a single plan without seeing its neighbors. The
//!   `Finished` event's `utilization` has one entry per pool worker: the
//!   share of the plan's wall-clock (since submission) that worker spent
//!   running the plan's runs.
//!
//! **Determinism survives multiplexing.** Each plan runs through the same
//! executor the one-shot engine uses: a run's output depends only on its
//! (campaign template, scenario index, run index) coordinates, and
//! results land in slots preassigned by flat plan index, reassembled by
//! the same [`assemble_results`](super::assemble_results). Scheduling
//! (worker count, rotation order, neighbor plans, which worker's scratch
//! a run reuses) affects only wall-clock, so a plan's results are
//! **byte-identical** to a solo [`Engine::execute`](super::Engine::execute)
//! of the same plan.

use super::{
    blackbox_frames, PlanExec, ProgressEvent, ProgressSink, RunSink, StudyResult, WorkPlan,
    BLACKBOX_SECONDS,
};
use crate::campaign::{RunResult, WorkerScratch};
use avfi_net::proto::{PlanId, PlanLifecycle, PlanPhase};
use avfi_trace::{RunTrace, TraceLevel};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One plan-tagged progress event: the `seq`-th event of plan `plan`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanEvent {
    /// The plan the event belongs to.
    pub plan: PlanId,
    /// Sequence number within the plan's event log (0-based, dense).
    pub seq: usize,
    /// The engine progress event.
    pub event: ProgressEvent,
}

/// The persistent pool: long-lived workers multiplexing every submitted
/// plan. Dropping the pool without calling [`MultiplexPool::shutdown`]
/// detaches the workers (the daemon normally lives as long as the
/// process); `shutdown` cancels queued plans and joins the threads.
#[derive(Debug)]
pub struct MultiplexPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

#[derive(Debug)]
struct PoolShared {
    workers: usize,
    sched: Mutex<Sched>,
    work_ready: Condvar,
    next_plan_id: AtomicU64,
    /// Claim journal for the fairness tests: (plan, flat index) in global
    /// claim order (claims are serialized by the scheduler lock, so this
    /// is a total order).
    #[cfg(test)]
    journal: parking_lot::Mutex<Vec<(PlanId, usize)>>,
}

impl PoolShared {
    /// Puts a plan at the back of the rotation and wakes the workers.
    fn enqueue(&self, run: &Arc<PlanRun>) {
        let mut sched = self.sched.lock().expect("pool sched lock");
        sched.active.push_back(Arc::clone(run));
        drop(sched);
        self.work_ready.notify_all();
    }
}

#[derive(Debug)]
struct Sched {
    /// Plans with unclaimed runs, in rotation order.
    active: VecDeque<Arc<PlanRun>>,
    paused: bool,
    shutdown: bool,
}

/// The plan's durable spool, type-erased: an `avfi-store` journal the
/// workers report each completed run (and the terminal phase) into.
struct SpoolHandle(Arc<dyn RunSink + Send + Sync>);

impl fmt::Debug for SpoolHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SpoolHandle(..)")
    }
}

/// A plan recovered from an `avfi-store` journal, re-submitted under its
/// original id with whatever the journal preserved. Built by the server's
/// spool recovery scan; see [`MultiplexPool::submit_recovered`]. Fresh
/// submissions go through the same funnel with nothing recovered.
pub struct RecoveredSubmission {
    /// The recovered plan, parsed back from the journaled submission.
    pub plan: WorkPlan,
    /// Trace level the plan was originally submitted with.
    pub level: TraceLevel,
    /// The plan's **original** id — results stay fetchable under the
    /// handle the client already holds.
    pub id: PlanId,
    /// Journaled run results by flat plan index.
    pub prefilled: Vec<(usize, RunResult)>,
    /// Traces reloaded from spooled `.avtr` files, by flat plan index.
    pub traces: Vec<(usize, RunTrace)>,
    /// The phase the plan is recovered in. A terminal phase reloads the
    /// plan as fetchable state without executing anything (`Completed`
    /// requires every run prefilled); [`PlanPhase::Interrupted`] parks it
    /// out of the rotation until [`PlanTicket::resume`]; `None` (or any
    /// other phase) queues the gap right away. A plan with no runs left
    /// completes immediately unless it is recovered terminal.
    pub phase: Option<PlanPhase>,
    /// Journal to keep appending to while the gap re-executes; it also
    /// receives the plan's terminal phase.
    pub spool: Option<Arc<dyn RunSink + Send + Sync>>,
}

impl fmt::Debug for RecoveredSubmission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveredSubmission")
            .field("id", &self.id)
            .field("level", &self.level)
            .field("prefilled", &self.prefilled.len())
            .field("traces", &self.traces.len())
            .field("phase", &self.phase)
            .finish_non_exhaustive()
    }
}

/// Shared state of one submitted plan.
#[derive(Debug)]
struct PlanRun {
    id: PlanId,
    /// The plan's executor: an owned copy of the plan (so the submitting
    /// client can disconnect while it runs), its slots, counters and
    /// in-memory traces.
    exec: PlanExec<'static>,
    /// Claim cursor into `exec.pending`; mutated only under the scheduler
    /// lock.
    next: AtomicUsize,
    /// Claimed but not yet finished (executed or skipped).
    outstanding: AtomicUsize,
    cancelled: AtomicBool,
    started: AtomicBool,
    finalized: AtomicBool,
    /// Result/trace payloads dropped by retention eviction (lifecycle
    /// status stays queryable).
    evicted: AtomicBool,
    /// Set once, when the plan reaches a terminal phase — the clock
    /// retention sweeps measure against.
    finished_at: parking_lot::Mutex<Option<Instant>>,
    /// Durable spool (write-ahead journal), when the plan is persisted.
    spool: Option<SpoolHandle>,
    state: Mutex<PlanState>,
    state_changed: Condvar,
}

#[derive(Debug)]
struct PlanState {
    lifecycle: PlanLifecycle,
    events: Vec<PlanEvent>,
    results: Option<Vec<StudyResult>>,
}

/// The plan's own ordered event log is its progress sink.
impl ProgressSink for PlanRun {
    fn event(&self, event: &ProgressEvent) {
        let mut st = self.state.lock().expect("plan state lock");
        let seq = st.events.len();
        st.events.push(PlanEvent {
            plan: self.id,
            seq,
            event: event.clone(),
        });
        drop(st);
        self.state_changed.notify_all();
    }
}

impl PlanRun {
    /// Queued → Running on the first claimed run.
    fn mark_running(&self) {
        if !self.started.swap(true, Ordering::AcqRel) {
            self.state
                .lock()
                .expect("plan state lock")
                .lifecycle
                .advance_if_legal(PlanPhase::Running);
        }
    }
}

/// Moves a plan into a terminal phase exactly once: for `Completed`,
/// appends the `Finished` event and assembles results (sorting traces);
/// then advances the lifecycle and wakes every waiter.
fn finalize(run: &PlanRun, phase: PlanPhase) {
    if run.finalized.swap(true, Ordering::AcqRel) {
        return;
    }
    let results = (phase == PlanPhase::Completed).then(|| run.exec.finish(run));
    let mut st = run.state.lock().expect("plan state lock");
    st.results = results;
    // Cancel-before-start legally jumps Queued → Cancelled; a cancel
    // racing completion loses quietly and the plan stays Completed.
    let actual = st.lifecycle.advance_if_legal(phase);
    drop(st);
    *run.finished_at.lock() = Some(Instant::now());
    if let Some(spool) = &run.spool {
        spool.0.plan_terminal(actual);
    }
    run.state_changed.notify_all();
}

/// Client handle to one submitted plan. Cloneable; all clones observe the
/// same plan.
#[derive(Debug, Clone)]
pub struct PlanTicket {
    run: Arc<PlanRun>,
    shared: Arc<PoolShared>,
}

impl PlanTicket {
    /// The server-assigned plan id.
    pub fn id(&self) -> PlanId {
        self.run.id
    }

    /// Total runs the plan flattens to.
    pub fn total_runs(&self) -> usize {
        self.run.exec.total()
    }

    /// Runs completed so far (journaled runs of a recovered plan
    /// included).
    pub fn completed_runs(&self) -> usize {
        self.run.exec.completed()
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> PlanPhase {
        self.run
            .state
            .lock()
            .expect("plan state lock")
            .lifecycle
            .phase()
    }

    /// Moves a parked ([`PlanPhase::Interrupted`]) plan to
    /// [`PlanPhase::Running`] and into the rotation, exactly once however
    /// many callers race; in any other phase it changes nothing. Returns
    /// the phase afterwards.
    pub fn resume(&self) -> PlanPhase {
        let resumed = {
            let mut st = self.run.state.lock().expect("plan state lock");
            st.lifecycle.phase() == PlanPhase::Interrupted
                && st.lifecycle.advance_if_legal(PlanPhase::Running) == PlanPhase::Running
        };
        if resumed {
            self.run.exec.restart_clock();
            self.shared.enqueue(&self.run);
        }
        self.phase()
    }

    /// Cancels the plan: unclaimed runs are dropped, claimed-but-unstarted
    /// runs are skipped by the workers' cooperative check, in-flight runs
    /// finish, and a parked plan is finalized on the spot. Returns the
    /// phase after the cancel took effect — a plan that already completed
    /// stays [`PlanPhase::Completed`].
    pub fn cancel(&self) -> PlanPhase {
        self.run.cancelled.store(true, Ordering::Release);
        {
            let mut sched = self.shared.sched.lock().expect("pool sched lock");
            sched.active.retain(|p| p.id != self.run.id);
        }
        // Idle at cancel time (queued, or every claimed run already
        // finished): nobody else will finalize, do it here.
        if self.run.outstanding.load(Ordering::Acquire) == 0
            && self.run.exec.completed() < self.run.exec.total()
        {
            finalize(&self.run, PlanPhase::Cancelled);
        }
        self.phase()
    }

    /// Blocks until the plan reaches a terminal phase and returns it.
    pub fn wait_terminal(&self) -> PlanPhase {
        let mut st = self.run.state.lock().expect("plan state lock");
        while !st.lifecycle.phase().is_terminal() {
            st = self.run.state_changed.wait(st).expect("plan state lock");
        }
        st.lifecycle.phase()
    }

    /// The plan's results: `Some` once [`PlanPhase::Completed`], `None`
    /// otherwise (including cancelled plans).
    pub fn results(&self) -> Option<Vec<StudyResult>> {
        self.run
            .state
            .lock()
            .expect("plan state lock")
            .results
            .clone()
    }

    /// Blocks until terminal, then returns the results (`None` unless the
    /// plan completed).
    pub fn wait_results(&self) -> Option<Vec<StudyResult>> {
        self.wait_terminal();
        self.results()
    }

    /// The traces collected so far, keyed and (after completion) sorted
    /// by flat plan index.
    pub fn traces(&self) -> Vec<(usize, RunTrace)> {
        self.run.exec.traces.lock().clone()
    }

    /// Time since the plan reached a terminal phase, `None` while it is
    /// still queued or running — the age a retention sweep compares
    /// against its cutoff.
    pub fn finished_elapsed(&self) -> Option<std::time::Duration> {
        self.run.finished_at.lock().map(|at| at.elapsed())
    }

    /// `true` once [`PlanTicket::evict_payloads`] dropped this plan's
    /// result and trace payloads.
    pub fn is_evicted(&self) -> bool {
        self.run.evicted.load(Ordering::Acquire)
    }

    /// Drops the plan's result and trace payloads to reclaim memory,
    /// keeping the lifecycle status (phase, run counters, event log)
    /// queryable. Only terminal plans can be evicted — a plan still
    /// queued or running is left untouched and `false` is returned.
    /// Idempotent; returns `true` once eviction has happened.
    pub fn evict_payloads(&self) -> bool {
        let mut st = self.run.state.lock().expect("plan state lock");
        if !st.lifecycle.phase().is_terminal() {
            return false;
        }
        st.results = None;
        drop(st);
        self.run.exec.traces.lock().clear();
        self.run.evicted.store(true, Ordering::Release);
        true
    }

    /// Snapshot of the event log from sequence number `from` on, plus the
    /// current phase.
    pub fn events_after(&self, from: usize) -> (Vec<PlanEvent>, PlanPhase) {
        let st = self.run.state.lock().expect("plan state lock");
        let events = st.events.get(from..).unwrap_or_default().to_vec();
        (events, st.lifecycle.phase())
    }

    /// Blocks until the log grows past `from` or the plan is terminal,
    /// then returns the new events and the phase. An empty event list
    /// with a terminal phase means the stream is exhausted.
    pub fn wait_events_after(&self, from: usize) -> (Vec<PlanEvent>, PlanPhase) {
        let mut st = self.run.state.lock().expect("plan state lock");
        while st.events.len() <= from && !st.lifecycle.phase().is_terminal() {
            st = self.run.state_changed.wait(st).expect("plan state lock");
        }
        let events = st.events.get(from..).unwrap_or_default().to_vec();
        (events, st.lifecycle.phase())
    }
}

impl MultiplexPool {
    /// A running pool with `workers` threads (0 = one per available
    /// core).
    pub fn new(workers: usize) -> Self {
        Self::build(workers, false)
    }

    /// A pool whose workers idle until [`MultiplexPool::resume`] — lets
    /// tests (and warm-up phases) stage several plans and then release
    /// them under a known rotation.
    pub fn paused(workers: usize) -> Self {
        Self::build(workers, true)
    }

    fn build(workers: usize, paused: bool) -> Self {
        let workers = if workers > 0 {
            workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        };
        let shared = Arc::new(PoolShared {
            workers,
            sched: Mutex::new(Sched {
                active: VecDeque::new(),
                paused,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            next_plan_id: AtomicU64::new(0),
            #[cfg(test)]
            journal: parking_lot::Mutex::new(Vec::new()),
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("avfi-pool-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn pool worker")
            })
            .collect();
        MultiplexPool { shared, handles }
    }

    /// The pool's worker-thread count.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Releases a [`MultiplexPool::paused`] pool's workers.
    pub fn resume(&self) {
        self.shared.sched.lock().expect("pool sched lock").paused = false;
        self.shared.work_ready.notify_all();
    }

    /// Submits a plan without tracing; returns its ticket immediately.
    pub fn submit(&self, plan: WorkPlan) -> PlanTicket {
        self.submit_traced(plan, TraceLevel::Off)
    }

    /// Submits a plan with the flight recorder at `level` (`Off` disables
    /// it); at [`TraceLevel::Blackbox`] the ring keeps the last 30 s of
    /// frames. Traces stay in memory on the plan ([`PlanTicket::traces`])
    /// — the service owns persistence.
    pub fn submit_traced(&self, plan: WorkPlan, level: TraceLevel) -> PlanTicket {
        self.submit_spooled(plan, level, |_| None)
    }

    /// [`MultiplexPool::submit_traced`] with a durable spool attached:
    /// the pool assigns the plan id first, hands it to `make_spool` (the
    /// server creates the plan's journal file there, named by id, and
    /// writes the `PlanSubmitted` record), and only then lets the plan
    /// enter the rotation — so every run a worker executes already has a
    /// journal to land in. A factory returning `None` (e.g. on an I/O
    /// failure it chose to swallow) submits the plan unspooled.
    pub fn submit_spooled(
        &self,
        plan: WorkPlan,
        level: TraceLevel,
        make_spool: impl FnOnce(PlanId) -> Option<Arc<dyn RunSink + Send + Sync>>,
    ) -> PlanTicket {
        let id = self.allocate_id();
        let spool = make_spool(id);
        self.submit_full(RecoveredSubmission {
            plan,
            level,
            id,
            prefilled: Vec::new(),
            traces: Vec::new(),
            phase: None,
            spool,
        })
    }

    /// Re-submits a plan recovered from an `avfi-store` journal under its
    /// **original** id, in the phase [`RecoveredSubmission::phase`]
    /// names: journaled results slot straight into their preassigned
    /// positions, recovered traces re-attach, and only the unjournaled gap
    /// fans out across the workers — so the final results are
    /// byte-identical to an uninterrupted run ([`Engine`]'s resume
    /// argument, lifted into the pool). Call
    /// [`MultiplexPool::reserve_plan_ids`] with the highest recovered id
    /// first so fresh submissions never collide.
    ///
    /// [`Engine`]: super::Engine
    pub fn submit_recovered(&self, sub: RecoveredSubmission) -> PlanTicket {
        self.shared
            .next_plan_id
            .fetch_max(sub.id, Ordering::Relaxed);
        self.submit_full(sub)
    }

    /// Ensures future plan ids are strictly greater than `max_seen` —
    /// recovery calls this with the highest journaled id before
    /// accepting new submissions.
    pub fn reserve_plan_ids(&self, max_seen: PlanId) {
        self.shared
            .next_plan_id
            .fetch_max(max_seen, Ordering::Relaxed);
    }

    fn allocate_id(&self) -> PlanId {
        self.shared.next_plan_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn submit_full(&self, sub: RecoveredSubmission) -> PlanTicket {
        let mut exec = PlanExec::new(
            Cow::Owned(sub.plan),
            sub.prefilled,
            Some((sub.level, blackbox_frames(BLACKBOX_SECONDS))),
            None,
        );
        *exec.traces.get_mut() = sub.traces;
        let phase = sub.phase.unwrap_or(PlanPhase::Queued);
        let started = exec.start(self.shared.workers);
        let run = Arc::new(PlanRun {
            id: sub.id,
            exec,
            next: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            cancelled: AtomicBool::new(false),
            started: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            evicted: AtomicBool::new(false),
            finished_at: parking_lot::Mutex::new(None),
            spool: sub.spool.map(SpoolHandle),
            state: Mutex::new(PlanState {
                lifecycle: PlanLifecycle::starting_at(phase),
                events: Vec::new(),
                results: None,
            }),
            state_changed: Condvar::new(),
        });
        run.event(&started);
        if phase.is_terminal() {
            // Recovered already-terminal plan: reload it as fetchable
            // state without executing anything.
            finalize(&run, phase);
        } else if run.exec.pending.is_empty() {
            // Trivially complete (empty plan, or recovery journaled every
            // run); never enters the rotation.
            run.mark_running();
            finalize(&run, PlanPhase::Completed);
        } else if phase != PlanPhase::Interrupted {
            // A parked plan instead waits for `resume` or `cancel`.
            self.shared.enqueue(&run);
        }
        PlanTicket {
            run,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Global claim journal: (plan, flat index) in claim order.
    #[cfg(test)]
    fn execution_journal(&self) -> Vec<(PlanId, usize)> {
        self.shared.journal.lock().clone()
    }

    /// Cancels every queued plan, stops the workers (in-flight runs
    /// finish), and joins them. Parked plans are left interrupted.
    pub fn shutdown(self) {
        {
            let mut sched = self.shared.sched.lock().expect("pool sched lock");
            sched.shutdown = true;
            for plan in sched.active.drain(..) {
                plan.cancelled.store(true, Ordering::Release);
                if plan.outstanding.load(Ordering::Acquire) == 0 {
                    finalize(&plan, PlanPhase::Cancelled);
                }
            }
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles {
            handle.join().expect("pool worker panicked");
        }
    }
}

/// Claims the next run under fair round-robin: one run from the front
/// plan, which then rotates to the back. Cancelled and fully claimed
/// plans drop out of the rotation here.
fn claim(sched: &mut Sched) -> Option<(Arc<PlanRun>, usize)> {
    while let Some(plan) = sched.active.pop_front() {
        if plan.cancelled.load(Ordering::Acquire) {
            if plan.outstanding.load(Ordering::Acquire) == 0 {
                finalize(&plan, PlanPhase::Cancelled);
            }
            continue;
        }
        let pending = &plan.exec.pending;
        let i = plan.next.load(Ordering::Relaxed);
        if i >= pending.len() {
            continue;
        }
        plan.next.store(i + 1, Ordering::Relaxed);
        plan.outstanding.fetch_add(1, Ordering::AcqRel);
        let flat = pending[i];
        if i + 1 < pending.len() {
            sched.active.push_back(Arc::clone(&plan));
        }
        return Some((plan, flat));
    }
    None
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    // One scratch per pool worker, reused across every plan it serves.
    let mut scratch = WorkerScratch::default();
    loop {
        let (plan, idx) = {
            let mut sched = shared.sched.lock().expect("pool sched lock");
            loop {
                if sched.shutdown {
                    return;
                }
                if !sched.paused {
                    if let Some(claimed) = claim(&mut sched) {
                        #[cfg(test)]
                        shared.journal.lock().push((claimed.0.id, claimed.1));
                        break claimed;
                    }
                }
                sched = shared.work_ready.wait(sched).expect("pool sched lock");
            }
        };
        execute_item(&plan, idx, worker, &mut scratch);
    }
}

/// Runs one claimed item through the plan's executor. The cooperative
/// cancellation check sits here: a run claimed before its plan was
/// cancelled is skipped, not executed.
fn execute_item(plan: &PlanRun, idx: usize, worker: usize, scratch: &mut WorkerScratch) {
    if !plan.cancelled.load(Ordering::Acquire) {
        plan.mark_running();
        let spool = plan.spool.as_ref().map(|s| &*s.0 as &dyn RunSink);
        plan.exec.run_item(idx, worker, scratch, plan, spool);
    }
    // The last in-flight run finalizes, so every other run's events are
    // already in the log and `Finished` is the plan's last event.
    if plan.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
        if plan.exec.completed() == plan.exec.total() {
            finalize(plan, PlanPhase::Completed);
        } else if plan.cancelled.load(Ordering::Acquire) {
            finalize(plan, PlanPhase::Cancelled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Engine, WorkPlan};
    use super::*;
    use crate::campaign::{AgentSpec, CampaignConfig};
    use crate::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
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

    fn campaign(seed: u64, runs: usize, fault: FaultSpec) -> CampaignConfig {
        CampaignConfig::builder(vec![quick_scenario(seed), quick_scenario(seed + 1)])
            .runs_per_scenario(runs)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build()
    }

    fn plan_a() -> WorkPlan {
        WorkPlan::new()
            .with_study("baseline", vec![campaign(40, 2, FaultSpec::None)])
            .with_study(
                "timing",
                vec![campaign(
                    44,
                    2,
                    FaultSpec::Timing(TimingFault::OutputDelay { frames: 8 }),
                )],
            )
    }

    fn plan_b() -> WorkPlan {
        WorkPlan::new().with_study("other", vec![campaign(52, 2, FaultSpec::None)])
    }

    fn json<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).unwrap()
    }

    /// The multiplexing gate: plans sharing one pool produce results
    /// byte-identical to a solo `Engine::execute` of each plan.
    #[test]
    fn multiplexed_plans_match_solo_engine() {
        let pool = MultiplexPool::new(3);
        let ta = pool.submit(plan_a());
        let tb = pool.submit(plan_b());
        let ra = ta.wait_results().expect("plan a completed");
        let rb = tb.wait_results().expect("plan b completed");
        assert_eq!(
            json(&ra),
            json(&Engine::new().workers(1).execute(&plan_a()))
        );
        assert_eq!(
            json(&rb),
            json(&Engine::new().workers(1).execute(&plan_b()))
        );
        assert_eq!(ta.phase(), PlanPhase::Completed);
        assert_eq!(ta.completed_runs(), ta.total_runs());
        pool.shutdown();
    }

    #[test]
    fn events_are_plan_tagged_and_complete() {
        let pool = MultiplexPool::new(2);
        let t = pool.submit(plan_a());
        t.wait_terminal();
        let (events, phase) = t.events_after(0);
        assert_eq!(phase, PlanPhase::Completed);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.plan, t.id());
            assert_eq!(e.seq, i);
        }
        assert!(matches!(
            events.first().unwrap().event,
            ProgressEvent::Started { .. }
        ));
        assert!(matches!(
            events.last().unwrap().event,
            ProgressEvent::Finished { .. }
        ));
        let runs = events
            .iter()
            .filter(|e| matches!(e.event, ProgressEvent::RunCompleted { .. }))
            .count();
        assert_eq!(runs, plan_a().total_runs());
        match &events.last().unwrap().event {
            ProgressEvent::Finished { utilization, .. } => {
                assert_eq!(utilization.len(), pool.workers());
                for u in utilization {
                    assert!((0.0..=1.0).contains(u), "utilization {u} out of range");
                }
            }
            other => panic!("last event should be Finished, got {other:?}"),
        }
        pool.shutdown();
    }

    /// One worker, two staged plans: the rotation must alternate strictly
    /// — A0 B0 A1 B1 … — instead of draining A before B.
    #[test]
    fn round_robin_is_fair_across_plans() {
        let pool = MultiplexPool::paused(1);
        let ta = pool.submit(plan_b());
        let tb = pool.submit(plan_b());
        pool.resume();
        ta.wait_terminal();
        tb.wait_terminal();
        let journal = pool.execution_journal();
        assert_eq!(journal.len(), 8);
        for (i, (plan, idx)) in journal.iter().enumerate() {
            let expect_plan = if i.is_multiple_of(2) {
                ta.id()
            } else {
                tb.id()
            };
            assert_eq!(*plan, expect_plan, "claim {i} went to the wrong plan");
            assert_eq!(*idx, i / 2, "claim {i} took the wrong item");
        }
        pool.shutdown();
    }

    #[test]
    fn cancel_before_start_yields_cancelled_without_results() {
        let pool = MultiplexPool::paused(2);
        let t = pool.submit(plan_a());
        assert_eq!(t.cancel(), PlanPhase::Cancelled);
        pool.resume();
        assert_eq!(t.wait_terminal(), PlanPhase::Cancelled);
        assert!(t.results().is_none());
        assert_eq!(t.completed_runs(), 0);
        // The pool stays healthy for later plans.
        let t2 = pool.submit(plan_b());
        assert!(t2.wait_results().is_some());
        pool.shutdown();
    }

    #[test]
    fn cancel_mid_plan_keeps_pool_and_neighbors_healthy() {
        let pool = MultiplexPool::new(2);
        // A long plan (32 runs) and a short neighbor.
        let long = WorkPlan::new().with_study(
            "long",
            vec![
                campaign(60, 8, FaultSpec::None),
                campaign(70, 8, FaultSpec::None),
            ],
        );
        let t_long = pool.submit(long);
        let t_short = pool.submit(plan_b());
        // Wait until the long plan actually progressed, then cancel it.
        t_long.wait_events_after(1);
        let phase = t_long.cancel();
        assert!(phase.is_terminal() || phase == PlanPhase::Running);
        let terminal = t_long.wait_terminal();
        assert!(terminal.is_terminal());
        if terminal == PlanPhase::Cancelled {
            assert!(t_long.results().is_none());
            assert!(t_long.completed_runs() < t_long.total_runs());
        }
        // The neighbor still completes bit-identically.
        let rb = t_short.wait_results().expect("short plan completed");
        assert_eq!(
            json(&rb),
            json(&Engine::new().workers(1).execute(&plan_b()))
        );
        pool.shutdown();
    }

    #[test]
    fn empty_plan_completes_immediately() {
        let pool = MultiplexPool::new(1);
        let t = pool.submit(WorkPlan::new());
        assert_eq!(t.wait_terminal(), PlanPhase::Completed);
        assert_eq!(t.results().expect("empty results").len(), 0);
        pool.shutdown();
    }

    #[test]
    fn shutdown_cancels_queued_plans() {
        let pool = MultiplexPool::paused(1);
        let t = pool.submit(plan_b());
        pool.shutdown();
        assert_eq!(t.wait_terminal(), PlanPhase::Cancelled);
    }

    /// Traced submissions collect blackbox traces in memory, keyed by
    /// flat index and invariant to pool scheduling.
    #[test]
    fn traced_submission_collects_worker_invariant_traces() {
        let stuck = FaultSpec::Hardware(HardwareFault::always(
            HardwareTarget::ControlBrake,
            BitFaultModel::StuckAt { value: 1.0 },
        ));
        let plan = WorkPlan::new().with_study("stuck", vec![campaign(80, 2, stuck)]);
        let collect = |workers: usize| {
            let pool = MultiplexPool::new(workers);
            let t = pool.submit_traced(plan.clone(), TraceLevel::Blackbox);
            t.wait_terminal();
            let traces = t.traces();
            pool.shutdown();
            traces
        };
        let one = collect(1);
        let four = collect(4);
        assert!(!one.is_empty(), "stuck-brake plan must emit failure traces");
        assert_eq!(
            json(&one),
            json(&four),
            "traces must be scheduling-invariant"
        );
        let indices: Vec<usize> = one.iter().map(|(i, _)| *i).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "traces sorted by flat index");
    }

    /// A recovered terminal plan reloads as fetchable state without
    /// executing anything; a recovered interrupted plan executes only
    /// its gap — both byte-identical to a solo run, both under their
    /// original ids, with fresh ids reserved past them.
    #[test]
    fn recovered_submissions_reload_and_resume() {
        let plan = plan_a();
        let solo = Engine::new().workers(1).execute(&plan);
        let solo_json = json(&solo);
        // Harvest per-run results by flat index from a fresh pool run.
        let harvest = MultiplexPool::new(2);
        let t = harvest.submit(plan.clone());
        t.wait_terminal();
        harvest.shutdown();
        let runs: Vec<(usize, RunResult)> = {
            // Re-derive flat-indexed runs from the solo results: flat
            // order is campaign-major, (scenario, run) within.
            let mut flat = Vec::new();
            for study in &solo {
                for campaign in &study.campaigns {
                    for run in campaign.runs() {
                        flat.push(run.clone());
                    }
                }
            }
            flat.into_iter().enumerate().collect()
        };
        let total = plan.total_runs();
        assert_eq!(runs.len(), total);

        let pool = MultiplexPool::new(2);
        // Terminal reload: full prefill + journaled "completed".
        let reloaded = pool.submit_recovered(RecoveredSubmission {
            plan: plan.clone(),
            level: TraceLevel::Off,
            id: 11,
            prefilled: runs.clone(),
            traces: Vec::new(),
            phase: Some(PlanPhase::Completed),
            spool: None,
        });
        assert_eq!(reloaded.id(), 11);
        assert_eq!(reloaded.wait_terminal(), PlanPhase::Completed);
        assert_eq!(json(&reloaded.wait_results().expect("reloaded")), solo_json);
        assert_eq!(reloaded.completed_runs(), total);

        // Gap resume: half the runs prefilled, no terminal record.
        let resumed = pool.submit_recovered(RecoveredSubmission {
            plan: plan.clone(),
            level: TraceLevel::Off,
            id: 12,
            prefilled: runs[..total / 2].to_vec(),
            traces: Vec::new(),
            phase: None,
            spool: None,
        });
        assert_eq!(resumed.id(), 12);
        assert_eq!(resumed.wait_terminal(), PlanPhase::Completed);
        assert_eq!(json(&resumed.wait_results().expect("resumed")), solo_json);

        // Fresh submissions allocate past every recovered id.
        let fresh = pool.submit(plan_b());
        assert!(fresh.id() > 12, "fresh id {} not reserved", fresh.id());
        pool.shutdown();
    }

    /// A parked plan claims nothing until resumed; racing resumes enter
    /// it into the rotation once; resumed, it completes byte-identical to
    /// a solo run. A plan never resumed survives pool shutdown parked and
    /// can still be cancelled.
    #[test]
    fn parked_plan_runs_only_after_one_resume() {
        let parked = |pool: &MultiplexPool, id: PlanId| {
            pool.submit_recovered(RecoveredSubmission {
                plan: plan_a(),
                level: TraceLevel::Off,
                id,
                prefilled: Vec::new(),
                traces: Vec::new(),
                phase: Some(PlanPhase::Interrupted),
                spool: None,
            })
        };
        let pool = MultiplexPool::paused(2);
        let resumed = parked(&pool, 21);
        let idle = parked(&pool, 22);
        assert_eq!(resumed.phase(), PlanPhase::Interrupted);
        let start = std::sync::Barrier::new(2);
        let phases: Vec<PlanPhase> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        resumed.resume()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(phases, [PlanPhase::Running; 2]);
        let entries = |id: PlanId| {
            let sched = pool.shared.sched.lock().unwrap();
            sched.active.iter().filter(|p| p.id == id).count()
        };
        assert_eq!(entries(resumed.id()), 1, "resumed plan entered twice");
        assert_eq!(entries(idle.id()), 0, "parked plan entered the rotation");

        pool.resume();
        let results = resumed.wait_results().expect("resumed plan completed");
        assert_eq!(
            json(&results),
            json(&Engine::new().workers(1).execute(&plan_a()))
        );
        let journal = pool.execution_journal();
        assert_eq!(journal.len(), resumed.total_runs());
        assert!(journal.iter().all(|(plan, _)| *plan == resumed.id()));
        assert_eq!(resumed.resume(), PlanPhase::Completed);

        pool.shutdown();
        assert_eq!(idle.phase(), PlanPhase::Interrupted);
        assert_eq!(idle.completed_runs(), 0);
        assert_eq!(idle.cancel(), PlanPhase::Cancelled);
    }
}
