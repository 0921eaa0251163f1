//! The adaptive planner's determinism contract, end to end: arbitrary
//! outcome sequences folded in flat-plan order are a pure function of
//! (seed, outcomes); a full engine-backed search is byte-identical for
//! `--workers 1` vs `--workers 8`; and a fixed-seed trajectory is pinned
//! as a regression.

use avfi_core::adaptive::{
    drive, run_adaptive, AdaptiveConfig, AdaptiveOracle, AdaptivePlanner, AdaptiveSpace,
    ArmChannel, Observation, Proposal,
};
use avfi_core::campaign::AgentSpec;
use avfi_core::engine::Engine;
use avfi_core::fault::hardware::HardwareTarget;
use avfi_core::fault::input::ImageFault;
use avfi_sim::scenario::{Scenario, TownSpec};
use proptest::prelude::*;

/// Cheap deterministic scenario: tiny unsignalized grid, no actors, so
/// the expert-agent engine runs finish in milliseconds.
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

/// A small search space with one channel (stuck brake at magnitude 1)
/// guaranteed to fail, so both benign and failing outcomes occur.
fn tiny_space() -> AdaptiveSpace {
    AdaptiveSpace {
        scenarios: vec![tiny_scenario(31), tiny_scenario(37)],
        channels: vec![
            ArmChannel::Camera(ImageFault::gaussian(0.05)),
            ArmChannel::HardwareStuck {
                target: HardwareTarget::ControlBrake,
                value: 1.0,
            },
        ],
        magnitudes: vec![0.5, 1.0],
        onsets: vec![0],
    }
}

/// Scripted oracle: outcome of the i-th pull (in flat-plan order) is
/// bit i of a fixed pattern — the planner never sees anything but this
/// sequence, so two drives over the same pattern must agree everywhere.
struct PatternOracle {
    pattern: Vec<bool>,
    cursor: usize,
}

impl AdaptiveOracle for PatternOracle {
    fn evaluate(&mut self, proposals: &[Proposal]) -> Vec<Observation> {
        proposals
            .iter()
            .map(|_| {
                let failed = self.pattern[self.cursor % self.pattern.len()];
                self.cursor += 1;
                Observation {
                    failed,
                    class: failed.then(|| "timeout / none / none".to_string()),
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any outcome sequence and any seed, folding observations in
    /// flat-plan order yields identical batches, posteriors, and report
    /// on every drive — the planner state is a pure function of
    /// (seed, outcome history), never of scheduling.
    #[test]
    fn trajectory_is_a_pure_function_of_seed_and_outcomes(
        pattern in proptest::collection::vec(any::<bool>(), 1..48),
        seed in 0u64..1_000_000,
        batch in 1usize..9,
    ) {
        let space = tiny_space();
        let config = AdaptiveConfig { budget: 36, batch, seed };
        let run = || {
            let mut planner = AdaptivePlanner::new(&space, config.clone());
            let mut oracle = PatternOracle { pattern: pattern.clone(), cursor: 0 };
            drive(&mut planner, &mut oracle);
            serde_json::to_string_pretty(&planner.trajectory()).unwrap()
        };
        prop_assert_eq!(run(), run());
    }

    /// Splitting the same outcome sequence into different batch sizes
    /// changes *which* arms get proposed (the posterior evolves at batch
    /// boundaries) but never breaks bookkeeping: budget accounting and
    /// per-arm pull/failure counts always reconcile.
    #[test]
    fn bookkeeping_reconciles_for_any_batch_size(
        pattern in proptest::collection::vec(any::<bool>(), 1..32),
        batch in 1usize..13,
    ) {
        let space = tiny_space();
        let config = AdaptiveConfig { budget: 24, batch, seed: 99 };
        let mut planner = AdaptivePlanner::new(&space, config);
        let mut oracle = PatternOracle { pattern, cursor: 0 };
        drive(&mut planner, &mut oracle);
        let trajectory = planner.trajectory();
        let pulls: usize = trajectory.batches.iter().map(|b| b.pulls.len()).sum();
        prop_assert_eq!(pulls, 24);
        prop_assert_eq!(trajectory.report.spent, 24);
        let failures: usize = trajectory
            .batches
            .iter()
            .flat_map(|b| &b.pulls)
            .filter(|p| p.failed)
            .count();
        prop_assert_eq!(trajectory.report.failures, failures);
        let last = trajectory.batches.last().unwrap();
        let posterior_pulls: usize = last.posteriors.iter().map(|p| p.pulls).sum();
        let posterior_failures: usize = last.posteriors.iter().map(|p| p.failures).sum();
        prop_assert_eq!(posterior_pulls, 24);
        prop_assert_eq!(posterior_failures, failures);
    }
}

/// The headline contract: a full engine-backed adaptive search — every
/// batch, posterior state, and the report — is byte-identical whether
/// the engine runs 1 worker or 8.
#[test]
fn engine_trajectory_is_byte_identical_workers_1_vs_8() {
    let space = tiny_space();
    let config = AdaptiveConfig {
        budget: 14,
        batch: 4,
        seed: 2018,
    };
    let run = |workers: usize| {
        run_adaptive(
            &Engine::new().workers(workers),
            &space,
            config.clone(),
            &AgentSpec::Expert,
            "adaptive-it",
        )
    };
    let o1 = run(1);
    let o8 = run(8);
    assert_eq!(
        serde_json::to_string_pretty(&o1.trajectory).unwrap(),
        serde_json::to_string_pretty(&o8.trajectory).unwrap(),
        "adaptive trajectory must be worker-count invariant"
    );
    // Captured failure traces must agree too (same pulls, same runs).
    let keys = |traces: &[(usize, avfi_trace::RunTrace)]| {
        traces
            .iter()
            .map(|(i, t)| (*i, t.header.seed))
            .collect::<Vec<_>>()
    };
    assert_eq!(keys(&o1.traces), keys(&o8.traces));
    // The stuck-brake channel guarantees the search actually finds
    // failures in this space.
    assert!(o1.trajectory.report.failures > 0);
}

/// Fixed-seed regression: the pinned trajectory shape for seed 2018 over
/// the scripted oracle. If the RNG stream, arm order, or fold order ever
/// changes, this breaks loudly.
#[test]
fn fixed_seed_trajectory_regression() {
    let space = tiny_space();
    let config = AdaptiveConfig {
        budget: 12,
        batch: 4,
        seed: 2018,
    };
    let mut planner = AdaptivePlanner::new(&space, config);
    // Fail exactly the stuck-brake magnitude-1.0 arms (indices 3 and 7:
    // scenario-major, camera arms first, stuck-brake 0.5 then 1.0).
    struct BrakeOracle;
    impl AdaptiveOracle for BrakeOracle {
        fn evaluate(&mut self, proposals: &[Proposal]) -> Vec<Observation> {
            proposals
                .iter()
                .map(|p| Observation {
                    failed: p.arm == 3 || p.arm == 7,
                    class: None,
                })
                .collect()
        }
    }
    drive(&mut planner, &mut BrakeOracle);
    let trajectory = planner.trajectory();

    assert_eq!(trajectory.arms.len(), 8);
    assert_eq!(trajectory.batches.len(), 3);
    assert_eq!(trajectory.report.spent, 12);

    // The pinned pull sequence for this seed. Recomputing it: the first
    // batch is prior-uniform (pure RNG), later batches steer toward the
    // failing arms.
    let pulled: Vec<usize> = trajectory
        .batches
        .iter()
        .flat_map(|b| b.pulls.iter().map(|p| p.arm))
        .collect();
    let expected = vec![7, 2, 3, 2, 6, 6, 7, 3, 5, 0, 5, 5];
    assert_eq!(
        pulled, expected,
        "pinned seed-2018 trajectory changed — RNG stream or fold order broke"
    );
    // And the search must have locked onto a failing arm.
    let top = &trajectory.report.top_arms[0];
    assert!(top.arm == 3 || top.arm == 7);
    assert!(top.failures > 0);
}
