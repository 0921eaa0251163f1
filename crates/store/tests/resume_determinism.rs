//! The resume contract, end to end: a plan interrupted at any point and
//! resumed with any worker count produces a final results JSON that is
//! **byte-identical** to an uninterrupted run. Also covers the
//! checkpointed solo path (`run_spooled`): fresh run, instant checkpoint
//! hit, and resume after a torn journal tail.

use avfi_core::campaign::{AgentSpec, CampaignConfig, RunResult};
use avfi_core::engine::NullSink;
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::{Engine, RunSink, WorkPlan};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_trace::TraceLevel;
use std::path::PathBuf;

/// A plan with two studies and a fault sweep — enough flat indices (8)
/// that interruption points land inside, between, and across campaigns.
fn test_plan() -> WorkPlan {
    let scenario = |seed: u64| {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(seed)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(10.0)
            .min_route_length(50.0)
            .build()
    };
    let campaign = |seed: u64, fault: FaultSpec| {
        CampaignConfig::builder(vec![scenario(seed), scenario(seed + 1)])
            .runs_per_scenario(2)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build()
    };
    WorkPlan::new()
        .with_study("baseline", vec![campaign(9000, FaultSpec::None)])
        .with_study(
            "output-delay",
            vec![campaign(
                9100,
                FaultSpec::Timing(TimingFault::OutputDelay { frames: 8 }),
            )],
        )
}

/// Captures every `(flat_index, RunResult)` the engine reports, so tests
/// can replay arbitrary prefixes/subsets as resume prefill.
#[derive(Debug, Default)]
struct CollectRuns(parking_lot::Mutex<Vec<(usize, RunResult)>>);

impl RunSink for CollectRuns {
    fn run_completed(&self, flat_index: usize, result: &RunResult) {
        self.0.lock().push((flat_index, result.clone()));
    }
}

fn results_json(results: &[avfi_core::StudyResult]) -> String {
    serde_json::to_string(results).expect("results serialize")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avfi-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool dir");
    dir
}

/// Interrupt after every k-th run and resume with 1 and 3 workers: the
/// reassembled JSON must match the uninterrupted run byte for byte.
#[test]
fn resume_is_byte_identical_at_every_interruption_point() {
    let plan = test_plan();
    let engine = Engine::new().workers(2);
    let collector = CollectRuns::default();
    let solo = engine
        .execute_resumed(&plan, Vec::new(), &NullSink, Some(&collector))
        .expect("a checked plan");
    let solo_json = results_json(&solo);
    let runs = collector.0.into_inner();
    assert_eq!(runs.len(), plan.total_runs());

    for k in 0..=runs.len() {
        for workers in [1usize, 3] {
            let resumed = Engine::new()
                .workers(workers)
                .execute_resumed(&plan, runs[..k].to_vec(), &NullSink, None)
                .expect("a checked plan");
            assert_eq!(
                results_json(&resumed),
                solo_json,
                "prefix {k}, {workers} workers"
            );
        }
    }
}

/// Resume prefill need not be a prefix: scattered subsets, duplicates,
/// and out-of-range indices all reassemble to the identical bytes.
#[test]
fn resume_tolerates_arbitrary_prefill_subsets() {
    let plan = test_plan();
    let engine = Engine::new().workers(3);
    let collector = CollectRuns::default();
    let solo_json = results_json(
        &engine
            .execute_resumed(&plan, Vec::new(), &NullSink, Some(&collector))
            .expect("a checked plan"),
    );
    let runs = collector.0.into_inner();

    let scattered: Vec<(usize, RunResult)> =
        runs.iter().filter(|(i, _)| i % 3 == 1).cloned().collect();
    let mut with_junk = scattered.clone();
    // A duplicate of an already-prefilled index and an out-of-range
    // index must both be ignored (first entry wins, bounds checked).
    with_junk.push(scattered[0].clone());
    with_junk.push((plan.total_runs() + 40, runs[0].1.clone()));

    for prefill in [scattered, with_junk] {
        let resumed = engine
            .execute_resumed(&plan, prefill, &NullSink, None)
            .expect("a checked plan");
        assert_eq!(results_json(&resumed), solo_json);
    }
}

/// `run_spooled` writes a checkpoint on first execution; a second
/// invocation with the same plan assembles from the journal without
/// executing anything, byte-identical.
#[test]
fn run_spooled_checkpoint_round_trip() {
    let plan = test_plan();
    let engine = Engine::new().workers(2);
    let dir = fresh_dir("checkpoint");
    let solo_json = results_json(&engine.execute(&plan));

    let first =
        avfi_store::run_spooled(&engine, &plan, &dir, TraceLevel::Off, &NullSink).expect("spooled");
    assert_eq!(results_json(&first), solo_json);

    // Fast path: the journal is terminal and complete.
    let again =
        avfi_store::run_spooled(&engine, &plan, &dir, TraceLevel::Off, &NullSink).expect("replay");
    assert_eq!(results_json(&again), solo_json);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash mid-plan leaves a journal with some runs and a torn tail;
/// re-invoking `run_spooled` discards the tail, re-executes only the
/// missing runs, and still emits identical bytes.
#[test]
fn run_spooled_resumes_after_torn_journal() {
    let plan = test_plan();
    let engine = Engine::new().workers(2);
    let dir = fresh_dir("torn");
    let solo_json = results_json(&engine.execute(&plan));

    // Hand-write the crashed journal at run_spooled's derived path: the
    // submission record, three completed runs, then a torn half-record.
    let plan_json = serde_json::to_string(&plan).expect("plan serializes");
    let path = dir.join(format!(
        "plan-{:016x}.avj",
        avfi_trace::fingerprint(plan_json.as_bytes())
    ));
    let collector = CollectRuns::default();
    engine
        .execute_resumed(&plan, Vec::new(), &NullSink, Some(&collector))
        .expect("a checked plan");
    let runs = collector.0.into_inner();
    let mut journal = avfi_store::Journal::create(&path).expect("create journal");
    journal
        .append(&avfi_store::JournalRecord::PlanSubmitted {
            plan_json,
            trace_level: "off".into(),
        })
        .expect("append submission");
    for (idx, result) in &runs[..3] {
        journal
            .append(&avfi_store::JournalRecord::RunCompleted {
                flat_index: *idx as u64,
                result_json: serde_json::to_string(result).expect("result serializes"),
            })
            .expect("append run");
    }
    drop(journal);
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("reopen journal");
        // A length prefix promising more bytes than follow: the torn
        // tail a crash mid-append leaves behind.
        file.write_all(&[0xFF, 0x00, 0x00, 0x00, b'{', b'"'])
            .expect("write torn tail");
    }

    let resumed =
        avfi_store::run_spooled(&engine, &plan, &dir, TraceLevel::Off, &NullSink).expect("resume");
    assert_eq!(results_json(&resumed), solo_json);

    // The resumed invocation completed the journal: the next one is a
    // pure checkpoint hit, still identical.
    let replay =
        avfi_store::run_spooled(&engine, &plan, &dir, TraceLevel::Off, &NullSink).expect("replay");
    assert_eq!(results_json(&replay), solo_json);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal written for a different plan at the same path is refused,
/// not silently merged.
#[test]
fn run_spooled_refuses_foreign_journal() {
    let plan = test_plan();
    let engine = Engine::new().workers(1);
    let dir = fresh_dir("foreign");
    let plan_json = serde_json::to_string(&plan).expect("plan serializes");
    let path = dir.join(format!(
        "plan-{:016x}.avj",
        avfi_trace::fingerprint(plan_json.as_bytes())
    ));
    let mut journal = avfi_store::Journal::create(&path).expect("create journal");
    journal
        .append(&avfi_store::JournalRecord::PlanSubmitted {
            plan_json: "{\"studies\":[]}".into(),
            trace_level: "off".into(),
        })
        .expect("append submission");
    drop(journal);

    let err = avfi_store::run_spooled(&engine, &plan, &dir, TraceLevel::Off, &NullSink)
        .expect_err("foreign journal must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A plan the executor refuses comes back as `InvalidInput` carrying the
/// refusal, before any run, and leaves no journal behind: here a town
/// whose roads are too short to start a mission on.
#[test]
fn run_spooled_refuses_an_invalid_plan() {
    let plan = test_plan();
    let mut routeless = plan.studies()[0].campaigns[0].clone();
    routeless.scenarios[0].town.block = 25.0;
    let plan = plan.with_study("routeless", vec![routeless]);
    let dir = fresh_dir("refused");
    let err = avfi_store::run_spooled(
        &Engine::new().workers(1),
        &plan,
        &dir,
        TraceLevel::Off,
        &NullSink,
    )
    .expect_err("the plan must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(
        err.to_string(),
        "study \"routeless\" campaign 0 scenario 0: town grid 2×2 of 25 m blocks \
         has 0 drive lanes longer than 20 m; a mission route needs two"
    );
    let journals: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("list spool dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "avj"))
        .collect();
    assert!(journals.is_empty(), "a refused plan left {journals:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
