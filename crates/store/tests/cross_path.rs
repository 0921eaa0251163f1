//! Cross-path differential test: one black-box plan executed by every
//! path that runs plans — the one-shot engine on 1 and 3 workers, the
//! multiplexing pool next to a neighbour plan, the pool spooling the plan
//! to a journal and a trace directory as the daemon does, ad-hoc
//! evaluation jobs at the same coordinates, and the checkpointed
//! `run_spooled` — must yield byte-identical `StudyResult` JSON and
//! byte-identical trace bytes for every flat index.

use avfi_core::campaign::{AgentSpec, CampaignConfig, RunResult, TraceSpec};
use avfi_core::engine::{assemble_results, EvalJob, NullSink, PlanPhase, TraceConfig};
use avfi_core::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
use avfi_core::fault::FaultSpec;
use avfi_core::{Engine, MultiplexPool, RunSink, StudyResult, WorkPlan};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_store::PlanJournal;
use avfi_trace::{RunTrace, TraceLevel};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Encoded trace bytes by flat plan index.
type Traces = BTreeMap<usize, Vec<u8>>;

const STUDY: &str = "cross-path";

fn scenario(seed: u64, npcs: usize, budget: f64) -> Scenario {
    let mut town = TownSpec::grid(2, 2);
    town.signalized = false;
    Scenario::builder(town)
        .seed(seed)
        .npc_vehicles(npcs)
        .pedestrians(0)
        .time_budget(budget)
        .min_route_length(50.0)
        .build()
}

/// One study, expert agent: a stuck-brake campaign whose runs never move
/// and time out after 34 s — failures whose traces carry a wrapped 30 s
/// ring — and a fault-free campaign that succeeds without a trace.
fn blackbox_plan() -> WorkPlan {
    let stuck = FaultSpec::Hardware(HardwareFault::always(
        HardwareTarget::ControlBrake,
        BitFaultModel::StuckAt { value: 1.0 },
    ));
    let campaign = |scenarios: Vec<Scenario>, fault: FaultSpec| {
        CampaignConfig::builder(scenarios)
            .runs_per_scenario(2)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build()
    };
    WorkPlan::new().with_study(
        STUDY,
        vec![
            campaign(vec![scenario(310, 1, 34.0), scenario(311, 1, 34.0)], stuck),
            campaign(vec![scenario(320, 0, 60.0)], FaultSpec::None),
        ],
    )
}

fn untraced_neighbour() -> WorkPlan {
    let cfg = CampaignConfig::builder(vec![scenario(330, 1, 8.0)])
        .runs_per_scenario(3)
        .agent(AgentSpec::Expert)
        .build();
    WorkPlan::new().with_study("neighbour", vec![cfg])
}

fn json(results: &[StudyResult]) -> String {
    serde_json::to_string(results).expect("results serialize")
}

/// A directory under the temp dir, removed when dropped, so a failing
/// test cleans up as a passing one does.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

fn fresh_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("avfi-cross-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

/// The trace files in `dir`, by the flat index their name encodes.
fn trace_files(dir: &Path, total: usize) -> Traces {
    (0..total)
        .filter_map(|i| {
            let bytes = std::fs::read(dir.join(avfi_trace::trace_file_name(i))).ok()?;
            Some((i, bytes))
        })
        .collect()
}

fn encoded(traces: impl IntoIterator<Item = (usize, RunTrace)>) -> Traces {
    traces
        .into_iter()
        .map(|(i, trace)| (i, avfi_trace::encode(&trace)))
        .collect()
}

fn traced_engine(workers: usize, dir: &Path) -> Engine {
    Engine::new()
        .workers(workers)
        .with_trace(TraceConfig::new(dir, TraceLevel::Blackbox))
}

#[test]
fn every_execution_path_yields_identical_results_and_traces() {
    let plan = blackbox_plan();
    let total = plan.total_runs();

    // 1. The one-shot engine, traces as files, on 1 and 3 workers.
    let mut engine_runs = Vec::new();
    for workers in [1, 3] {
        let dir = fresh_dir(&format!("engine{workers}"));
        let results = traced_engine(workers, &dir).execute_with(&plan, &NullSink);
        engine_runs.push((
            format!("engine, {workers} workers"),
            json(&results),
            trace_files(&dir, total),
        ));
    }
    let (_, want_json, want_traces) = engine_runs[0].clone();
    assert_eq!(
        want_traces.keys().copied().collect::<Vec<_>>(),
        [0, 1, 2, 3],
        "exactly the stuck-brake runs fail and leave a trace"
    );
    let first = avfi_trace::decode(&want_traces[&0]).expect("trace decodes");
    assert!(
        first.dropped_frames > 0,
        "34 s runs must wrap the 30 s ring"
    );
    let mut paths = engine_runs;

    // 2. The pool, traces in memory: two workers that also serve an
    // untraced neighbour and the same traced plan twice, so each
    // worker's scratch is reused across plans.
    let pool = MultiplexPool::new(2);
    let neighbour = pool.submit(untraced_neighbour()).unwrap();
    let tickets = [
        pool.submit_spooled(plan.clone(), TraceLevel::Blackbox, |_| None)
            .unwrap(),
        pool.submit_spooled(plan.clone(), TraceLevel::Blackbox, |_| None)
            .unwrap(),
    ];
    assert!(neighbour.wait_results().is_some());
    for (k, ticket) in tickets.iter().enumerate() {
        let results = ticket.wait_results().expect("pool plan completed");
        paths.push((
            format!("pool, submission {k}"),
            json(&results),
            encoded(ticket.traces()),
        ));
    }
    pool.shutdown();

    // 3. The pool spooling the plan as the daemon does: a journal, and a
    // `plan-<id>/` directory the traces are written to and read back from.
    let spool = fresh_dir("pool-spooled");
    let pool = MultiplexPool::new(2);
    let mut journal_path = PathBuf::new();
    let ticket = pool
        .submit_spooled(plan.clone(), TraceLevel::Blackbox, |id| {
            journal_path = spool.join(avfi_store::journal_file_name(id));
            let plan_json = serde_json::to_string(&plan).expect("plan serializes");
            let journal = PlanJournal::create(&journal_path, plan_json, TraceLevel::Blackbox)
                .expect("create journal");
            let journal: Arc<dyn RunSink> = Arc::new(journal);
            Some((journal, spool.join(avfi_store::trace_dir_name(id))))
        })
        .unwrap();
    let results = ticket.wait_results().expect("spooled pool plan completed");
    pool.shutdown();
    paths.push((
        "pool, spooled".to_string(),
        json(&results),
        encoded(ticket.traces()),
    ));
    let (records, _) = avfi_store::recover_file(&journal_path).expect("journal reads");
    let journaled = avfi_store::summarize(&records).expect("journal summarizes");
    assert_eq!(journaled.terminal, Some(PlanPhase::Completed));
    let runs: Vec<RunResult> = journaled.completed.into_iter().map(|(_, r)| r).collect();
    assert_eq!(runs.len(), total, "the journal holds every run");
    assert_eq!(json(&assemble_results(&plan, runs)), want_json);

    // 4. Ad-hoc evaluation jobs at the plan's coordinates.
    let jobs: Vec<EvalJob> = plan.studies()[0]
        .campaigns
        .iter()
        .flat_map(|cfg| {
            (0..cfg.scenarios.len()).flat_map(move |s| {
                (0..cfg.runs_per_scenario).map(move |r| EvalJob {
                    scenario: cfg.scenarios[s].clone(),
                    scenario_index: s,
                    run_index: r,
                    fault: cfg.fault.clone(),
                })
            })
        })
        .collect();
    let spec = TraceSpec {
        level: TraceLevel::Blackbox,
        study: STUDY.to_string(),
        blackbox_frames: TraceConfig::new("", TraceLevel::Blackbox).blackbox_frames(),
        weights_fingerprint: None,
    };
    let expert = AgentSpec::Expert.build().expect("the expert builds");
    let evaluated = Engine::new()
        .workers(2)
        .evaluate_jobs(&jobs, &expert, &spec);
    let (results, traces): (Vec<RunResult>, Vec<Option<RunTrace>>) = evaluated.into_iter().unzip();
    let traces = traces
        .into_iter()
        .enumerate()
        .filter_map(|(i, t)| Some((i, t?)));
    paths.push((
        "evaluate_jobs".to_string(),
        json(&assemble_results(&plan, results)),
        encoded(traces),
    ));

    // 5. The checkpointed solo path, journaling as it goes.
    let spool = fresh_dir("spooled");
    let trace_dir = spool.join("traces");
    let results = avfi_store::run_spooled(
        &traced_engine(2, &trace_dir),
        &plan,
        &spool,
        TraceLevel::Blackbox,
        &NullSink,
    )
    .expect("spooled run");
    paths.push((
        "run_spooled".to_string(),
        json(&results),
        trace_files(&trace_dir, total),
    ));

    for (path, got_json, got_traces) in &paths {
        assert_eq!(got_json, &want_json, "{path}: results differ");
        assert_eq!(
            got_traces.keys().collect::<Vec<_>>(),
            want_traces.keys().collect::<Vec<_>>(),
            "{path}: traced flat indices differ"
        );
        for (i, bytes) in got_traces {
            assert!(
                bytes == &want_traces[i],
                "{path}: trace bytes of flat index {i} differ"
            );
        }
    }
}
