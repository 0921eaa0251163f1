//! End-to-end shrink tests: worker-count invariance of the whole shrink
//! trajectory, minimized repros that still fail in the same triage class
//! and replay bit-identically, and a lattice-floor property — a failure
//! that needs N actors is never shrunk below them.

use avfi_agent::{Agent, ExpertDriver};
use avfi_core::campaign::{run_mission, TraceSpec, WorkerScratch};
use avfi_core::engine::Engine;
use avfi_core::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
use avfi_core::fault::FaultSpec;
use avfi_core::replay::{replay_trace, ReplayVerdict};
use avfi_core::shrink::{
    shrink_trace, shrink_with_oracle, Anchor, Candidate, CandidateEval, ShrinkConfig, ShrinkOracle,
    ShrinkVerdict,
};
use avfi_core::triage::{failure_class, FailureClass};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_sim::weather::Weather;
use avfi_trace::{RunTrace, TraceLevel};
use proptest::prelude::*;

/// A deliberately over-provisioned scenario: every axis has headroom, so
/// the shrinker has real work to do.
fn fat_scenario(seed: u64) -> Scenario {
    let mut town = TownSpec::grid(2, 2);
    town.signalized = false;
    Scenario::builder(town)
        .seed(seed)
        .npc_vehicles(0)
        .pedestrians(0)
        .weather(Weather::Overcast)
        .time_budget(20.0)
        .min_route_length(60.0)
        .build()
}

/// Stuck brake ⇒ the ego never moves and the run times out, in any
/// reduction that keeps the fault active from the start.
fn stuck_brake() -> FaultSpec {
    FaultSpec::Hardware(HardwareFault::always(
        HardwareTarget::ControlBrake,
        BitFaultModel::StuckAt { value: 1.0 },
    ))
}

/// Records one guaranteed-failing run exactly the way a blackbox
/// campaign would (no disk round-trip needed).
fn failing_trace() -> RunTrace {
    let spec = TraceSpec {
        level: TraceLevel::Blackbox,
        study: "shrink-it".to_string(),
        blackbox_frames: 60,
        weights_fingerprint: None,
    };
    let (_, trace) = run_mission(
        &fat_scenario(71),
        1,
        2,
        &stuck_brake(),
        &Agent::Expert(ExpertDriver::new()),
        Some(&spec),
        &mut WorkerScratch::default(),
    );
    trace.expect("a stuck brake must fail the mission")
}

fn quick_config() -> ShrinkConfig {
    ShrinkConfig { max_iterations: 12 }
}

#[test]
fn shrink_outcome_is_byte_identical_for_any_worker_count() {
    let trace = failing_trace();
    let config = quick_config();
    let o1 = shrink_trace(
        &Engine::new().workers(1),
        "run-000007.avtr",
        &trace,
        None,
        &config,
    )
    .expect("shrinkable");
    let o8 = shrink_trace(
        &Engine::new().workers(8),
        "run-000007.avtr",
        &trace,
        None,
        &config,
    )
    .expect("shrinkable");
    assert_eq!(
        serde_json::to_string_pretty(&o1).unwrap(),
        serde_json::to_string_pretty(&o8).unwrap(),
        "the whole shrink trajectory must be worker-count invariant"
    );
}

#[test]
fn minimized_repro_reproduces_the_class_and_replays_bit_identically() {
    let trace = failing_trace();
    let original = trace.header.scenario.clone();
    let outcome = shrink_trace(
        &Engine::new().workers(4),
        "run-000007.avtr",
        &trace,
        None,
        &quick_config(),
    )
    .expect("shrinkable");
    let repro = &outcome.repro;

    assert!(
        !repro.reductions.is_empty(),
        "an over-provisioned scenario must shrink on at least one axis"
    );
    assert!(
        repro.scenario.time_budget < original.time_budget
            || repro.scenario.min_route_length < original.min_route_length
            || repro.scenario.npc_vehicles < original.npc_vehicles
            || repro.fault != stuck_brake(),
        "the minimum must be strictly smaller on some lattice axis"
    );
    assert_eq!(repro.seed, trace.header.seed, "the seed never shrinks");
    // Every accepted step must be visible in the log too.
    assert_eq!(
        outcome
            .log
            .iter()
            .filter(|s| s.verdict == ShrinkVerdict::Accepted)
            .count(),
        repro.reductions.len()
    );

    // Re-execute the repro standalone: same class, bit-identical replay.
    let spec = TraceSpec {
        level: TraceLevel::Blackbox,
        study: repro.study.clone(),
        blackbox_frames: trace.header.blackbox_frames,
        weights_fingerprint: None,
    };
    let (_, rerun) = run_mission(
        &repro.scenario,
        repro.scenario_index,
        repro.run_index,
        &repro.fault,
        &Agent::Expert(ExpertDriver::new()),
        Some(&spec),
        &mut WorkerScratch::default(),
    );
    let rerun = rerun.expect("the minimized repro must still fail");
    assert_eq!(
        failure_class(&rerun).as_ref(),
        Some(&repro.expected),
        "the minimized run must land in the recorded failure class"
    );
    assert!(
        matches!(
            replay_trace(&rerun, None).expect("replayable"),
            ReplayVerdict::Match { .. }
        ),
        "the minimized repro must replay bit-identically"
    );
}

/// Synthetic oracle: the failure needs at least `required` NPC vehicles
/// (think: a collision that takes two cars to stage).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over the whole lattice: a failure requiring `required` NPCs is
    /// never shrunk below them, and always shrunk exactly to them.
    #[test]
    fn shrink_never_drops_a_required_npc(extra in 0usize..12, required in 2usize..8) {
        let start = required + extra;
        let class = FailureClass {
            outcome: "timeout".to_string(),
            first_violation: Some("collision-vehicle".to_string()),
            causal_channel: Some("image".to_string()),
        };
        let mut oracle = NpcThresholdOracle { required, class: class.clone() };
        let scenario = fat_scenario(5).to_builder().npc_vehicles(start).build();
        let result = shrink_with_oracle(
            &scenario,
            &FaultSpec::None,
            &class,
            Anchor { violation_frame: Some(120), final_frame: 300 },
            &mut oracle,
            &ShrinkConfig::default(),
        );
        for step in result
            .log
            .iter()
            .filter(|s| s.verdict == ShrinkVerdict::Accepted && s.axis == "npc-vehicles")
        {
            // "npc_vehicles {old} → {new}": every accepted step must
            // stay at or above the threshold.
            let target: usize = step
                .candidate
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("npc step description ends with the new count");
            prop_assert!(target >= required, "accepted npc step below threshold");
        }
        // The lattice must bottom out exactly at the required count.
        prop_assert_eq!(result.scenario.npc_vehicles, required);
    }
}
