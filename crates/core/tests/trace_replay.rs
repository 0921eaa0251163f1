//! End-to-end flight-recorder tests: campaign tracing through the
//! engine, worker-count invariance of the emitted file set, bit-identical
//! replay, corruption detection, and bounded black-box memory.

use avfi_agent::IlNetwork;
use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::engine::{Engine, TraceConfig, WorkPlan};
use avfi_core::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
use avfi_core::fault::input::{ImageFault, InputFault};
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::replay::{replay_trace, ReplayError, ReplayVerdict};
use avfi_core::shrink::{shrink_trace, ShrinkConfig, ShrinkError};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_trace::{list_trace_files, read_trace_file, TraceLevel};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// A plan mixing a guaranteed-failure campaign (stuck brake ⇒ the ego
/// never moves and the run times out), a perturbing timing fault, and a
/// clean baseline.
fn traced_plan() -> WorkPlan {
    let stuck_brake = FaultSpec::Hardware(HardwareFault::always(
        HardwareTarget::ControlBrake,
        BitFaultModel::StuckAt { value: 1.0 },
    ));
    let delay = FaultSpec::Timing(TimingFault::OutputDelay { frames: 30 });
    let campaign = |fault: FaultSpec| {
        CampaignConfig::builder(vec![quick_scenario(71), quick_scenario(72)])
            .runs_per_scenario(2)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build()
    };
    WorkPlan::new()
        .with_study("faulted", vec![campaign(stuck_brake), campaign(delay)])
        .with_study("baseline", vec![campaign(FaultSpec::None)])
}

fn temp_trace_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avfi-trace-it-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn blackbox_config(dir: &Path) -> TraceConfig {
    // A 4 s window against 20 s runs: the ring must wrap (bounded
    // memory is actually exercised, not just configured).
    TraceConfig {
        dir: dir.to_path_buf(),
        level: TraceLevel::Blackbox,
        blackbox_seconds: 4.0,
    }
}

#[test]
fn trace_file_set_is_identical_for_any_worker_count() {
    let plan = traced_plan();
    let dir1 = temp_trace_dir("w1");
    let dir8 = temp_trace_dir("w8");
    let r1 = Engine::new()
        .workers(1)
        .with_trace(blackbox_config(&dir1))
        .execute(&plan);
    let r8 = Engine::new()
        .workers(8)
        .with_trace(blackbox_config(&dir8))
        .execute(&plan);
    assert_eq!(
        serde_json::to_string(&r1).unwrap(),
        serde_json::to_string(&r8).unwrap(),
        "tracing must not perturb results"
    );

    let f1 = list_trace_files(&dir1).unwrap();
    let f8 = list_trace_files(&dir8).unwrap();
    assert!(!f1.is_empty(), "stuck-brake campaign must emit traces");
    let names = |files: &[PathBuf]| -> Vec<String> {
        files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect()
    };
    assert_eq!(names(&f1), names(&f8), "flat-index routing broke");
    for (a, b) in f1.iter().zip(&f8) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "trace {} differs between worker counts",
            a.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir8);
}

#[test]
fn every_emitted_trace_replays_bit_identically() {
    let plan = traced_plan();
    let dir = temp_trace_dir("replay");
    Engine::new()
        .workers(4)
        .with_trace(blackbox_config(&dir))
        .execute(&plan);
    let files = list_trace_files(&dir).unwrap();
    assert!(!files.is_empty());
    for path in &files {
        let trace = read_trace_file(path).unwrap();
        assert!(trace.is_failure(), "blackbox emits only failed runs");
        let verdict = replay_trace(&trace, None).expect("replayable");
        match verdict {
            ReplayVerdict::Match { frames_checked, .. } => {
                assert_eq!(frames_checked, trace.frames.len());
            }
            ReplayVerdict::Diverged(d) => {
                panic!("{} diverged: {d}", path.display());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_trace_is_detected_not_misreplayed() {
    let plan = traced_plan();
    let dir = temp_trace_dir("corrupt");
    Engine::new()
        .workers(2)
        .with_trace(blackbox_config(&dir))
        .execute(&plan);
    let files = list_trace_files(&dir).unwrap();
    let victim = &files[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(victim, &bytes).unwrap();
    let err = read_trace_file(victim).expect_err("corruption must not decode");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blackbox_window_bounds_frames_and_counts_drops() {
    let plan = traced_plan();
    let dir = temp_trace_dir("bounded");
    let cfg = blackbox_config(&dir);
    let cap = cfg.blackbox_frames();
    Engine::new().workers(1).with_trace(cfg).execute(&plan);
    let mut wrapped = 0usize;
    for path in list_trace_files(&dir).unwrap() {
        let trace = read_trace_file(&path).unwrap();
        assert!(
            trace.frames.len() <= cap,
            "{}: ring held {} frames, cap {cap}",
            path.display(),
            trace.frames.len()
        );
        assert_eq!(trace.header.blackbox_frames, cap);
        if trace.dropped_frames > 0 {
            wrapped += 1;
            // The retained window is the *tail*: last frame is the run's
            // final recorded frame and the window is contiguous.
            let frames = &trace.frames;
            assert_eq!(frames.len(), cap, "a wrapped ring must be full");
            for pair in frames.windows(2) {
                assert_eq!(pair[1].frame, pair[0].frame + 1);
            }
        }
    }
    assert!(
        wrapped > 0,
        "20 s runs against a 4 s window must wrap the ring"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn summary_level_traces_every_run_without_frames() {
    let plan = traced_plan();
    let dir = temp_trace_dir("summary");
    Engine::new()
        .workers(3)
        .with_trace(TraceConfig {
            dir: dir.clone(),
            level: TraceLevel::Summary,
            blackbox_seconds: 4.0,
        })
        .execute(&plan);
    let files = list_trace_files(&dir).unwrap();
    assert_eq!(files.len(), plan.total_runs(), "summary traces every run");
    let mut failures = 0usize;
    for path in &files {
        let trace = read_trace_file(path).unwrap();
        assert!(trace.frames.is_empty(), "summary traces carry no frames");
        assert_eq!(trace.dropped_frames, 0);
        if trace.is_failure() {
            failures += 1;
        }
        // Summary traces replay too (events + outcome are still checked).
        assert!(replay_trace(&trace, None).unwrap().is_match());
    }
    assert!(failures > 0, "plan contains guaranteed failures");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Image-fault campaign through the flight recorder, end to end: the
/// IL-CNN consumes span-rendered, fault-corrupted camera frames, the
/// black box records the failures, and replay re-executes each run —
/// re-rendering every camera frame through the span path. The emitted
/// file set must be worker-count invariant byte for byte, and every
/// trace must replay bit-identically. A camera whose output depended on
/// thread, scratch-buffer history, or recorder state would fail here.
#[test]
fn image_fault_campaign_traces_are_worker_invariant_and_replay() {
    let mut net = IlNetwork::new(41);
    let weights = net.to_weights();
    let agent = AgentSpec::Neural {
        weights: Arc::new(weights.clone()),
    };
    let scenario = |seed: u64| {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(seed)
            .npc_vehicles(1)
            .pedestrians(0)
            .time_budget(8.0)
            .min_route_length(40.0)
            .build()
    };
    let campaign = |fault: ImageFault| {
        CampaignConfig::builder(vec![scenario(81), scenario(82)])
            .runs_per_scenario(1)
            .fault(FaultSpec::Input(InputFault::always(fault)))
            .agent(agent.clone())
            .build()
    };
    let plan = WorkPlan::new().with_study(
        "image-faults",
        vec![
            campaign(ImageFault::gaussian(0.3)),
            campaign(ImageFault::solid_occlusion(0.5)),
        ],
    );

    let dir1 = temp_trace_dir("img-w1");
    let dir5 = temp_trace_dir("img-w5");
    let r1 = Engine::new()
        .workers(1)
        .with_trace(blackbox_config(&dir1))
        .execute(&plan);
    let r5 = Engine::new()
        .workers(5)
        .with_trace(blackbox_config(&dir5))
        .execute(&plan);
    assert_eq!(
        serde_json::to_string(&r1).unwrap(),
        serde_json::to_string(&r5).unwrap(),
        "worker count must not affect the image-fault campaign"
    );

    let f1 = list_trace_files(&dir1).unwrap();
    let f5 = list_trace_files(&dir5).unwrap();
    assert!(
        !f1.is_empty(),
        "an untrained CNN on corrupted images must miss its 40 m mission"
    );
    let name = |p: &PathBuf| p.file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(
        f1.iter().map(name).collect::<Vec<_>>(),
        f5.iter().map(name).collect::<Vec<_>>()
    );
    for (a, b) in f1.iter().zip(&f5) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "trace {} differs between worker counts",
            a.display()
        );
    }

    for path in &f1 {
        let trace = read_trace_file(path).unwrap();
        assert_eq!(trace.header.agent, "il-cnn");
        match replay_trace(&trace, Some(&weights)).expect("replayable") {
            ReplayVerdict::Match { frames_checked, .. } => {
                assert_eq!(frames_checked, trace.frames.len());
            }
            ReplayVerdict::Diverged(d) => panic!("{} diverged: {d}", path.display()),
        }
    }
    // Weights that match the header's fingerprint but do not decode are a
    // typed error, not a panic.
    let mut trace = read_trace_file(&f1[0]).unwrap();
    let cut = &weights[..100];
    trace.header.weights_fingerprint = Some(avfi_trace::fingerprint(cut));
    assert!(matches!(
        replay_trace(&trace, Some(cut)),
        Err(ReplayError::BadWeights(_))
    ));
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir5);
}

#[test]
fn triage_attributes_stuck_brake_failures() {
    let plan = traced_plan();
    let dir = temp_trace_dir("triage");
    Engine::new()
        .workers(2)
        .with_trace(blackbox_config(&dir))
        .execute(&plan);
    let report = avfi_core::triage::TriageReport::from_dir(&dir).unwrap();
    assert!(!report.campaigns.is_empty());
    let stuck = report
        .campaigns
        .iter()
        .find(|c| c.fault.contains("stuck"))
        .expect("stuck-brake campaign triaged");
    assert_eq!(stuck.failures, 4, "all stuck-brake runs fail");
    for entry in &stuck.entries {
        assert_eq!(entry.outcome, "timeout", "an immobile ego times out");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace header is read from disk, so replay and shrink refuse a
/// scenario or fault that the plan pass would refuse, instead of running
/// it: a 1×1 town, which the world cannot build, and 65 water drops, one
/// over the cap.
#[test]
fn replay_and_shrink_refuse_a_header_the_plan_pass_would_refuse() {
    let stuck_brake = FaultSpec::Hardware(HardwareFault::always(
        HardwareTarget::ControlBrake,
        BitFaultModel::StuckAt { value: 1.0 },
    ));
    let campaign = CampaignConfig::builder(vec![quick_scenario(71)])
        .runs_per_scenario(1)
        .fault(stuck_brake)
        .agent(AgentSpec::Expert)
        .build();
    let dir = temp_trace_dir("refused");
    Engine::new()
        .workers(1)
        .with_trace(blackbox_config(&dir))
        .execute(&WorkPlan::single("stuck", campaign));
    let files = list_trace_files(&dir).unwrap();
    let recorded = read_trace_file(&files[0]).unwrap();
    assert!(replay_trace(&recorded, None).unwrap().is_match());

    let mut one_by_one = recorded.clone();
    one_by_one.header.scenario.town = TownSpec::grid(1, 1);
    let mut drowned = recorded;
    drowned.header.fault_spec_json = serde_json::to_string(&FaultSpec::Input(InputFault::always(
        ImageFault::water_drop(65, 0.05),
    )))
    .unwrap();
    let engine = Engine::new().workers(1);
    for (trace, problem) in [
        (
            &one_by_one,
            "town grid 1×1 has fewer than two intersections",
        ),
        (&drowned, "fault water-drop count 65 is over the cap of 64"),
    ] {
        let refused = ReplayError::Refused(problem.to_string());
        assert_eq!(replay_trace(trace, None), Err(refused.clone()));
        match shrink_trace(&engine, "refused", trace, None, &ShrinkConfig::default()) {
            Err(ShrinkError::Replay(e)) => assert_eq!(e, refused),
            Err(e) => panic!("shrink failed otherwise: {e}"),
            Ok(_) => panic!("shrink ran a refused header"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
