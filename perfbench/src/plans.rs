//! Input generators: every scenario and plan a workload runs is built
//! here from the workload seed, so the program under test sees only
//! generated inputs.
//!
//! The two study workloads draw their plans from a fixed pool of
//! `POOL` plans, each built from its pool index, whose result digests are
//! stored in `digests.txt`; the seed chooses the order in which a run
//! visits the pool. That keeps every output checkable against a stored
//! value for any seed, and keeps the work of one run (which covers the
//! whole pool on the reference host) nearly the same across seeds. The
//! service section generates its plans from the seed directly and checks
//! them against solo goldens computed before its loop starts.

use avfi_bench::experiments::{input_fault_specs, output_delay_specs};
use avfi_core::campaign::{AgentSpec, CampaignConfig, RunResult};
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::{StudyResult, WorkPlan};
use avfi_sim::rng::split_seed;
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_sim::weather::Weather;
use avfi_sim::FRAME_DT;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Plans in each study workload's pool.
pub const POOL: usize = 12;

/// Master seeds of the two study pools (pool member `g` derives its
/// scenario seeds from `split_seed(master, g)`).
const IL_POOL_MASTER: u64 = 0x41_5646_4932;
const EXPERT_POOL_MASTER: u64 = 0x41_5646_4934;

/// Scenarios per study plan and missions per scenario (the `--quick`
/// scale of the figure binaries).
const SCENARIOS_PER_PLAN: usize = 2;
const RUNS_PER_SCENARIO: usize = 2;

/// The order in which a run visits a pool of `len` plans: a seeded
/// permutation, cycled if the run outlasts it.
pub fn visit_order(seed: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// Pool member `index` of `il_camera_faults`: the Figure 2/3 study (the
/// IL-CNN under NoInject and the five paper camera injectors) over two
/// evaluation-suite-shaped towns — 3×3 unsignalized grids with 2 NPC
/// vehicles and 2 pedestrians, a 90 s budget and routes of at least
/// 150 m — whose seeds and weather come from the pool index.
pub fn il_plan(index: usize, weights: &Arc<Vec<u8>>) -> WorkPlan {
    let scenarios = (0..SCENARIOS_PER_PLAN)
        .map(|i| {
            let seed = split_seed(IL_POOL_MASTER, (index * SCENARIOS_PER_PLAN + i) as u64);
            let mut town = TownSpec::grid(3, 3);
            town.signalized = false;
            Scenario::builder(town)
                .seed(seed)
                .npc_vehicles(2)
                .pedestrians(2)
                .pedestrian_cross_rate(0.008)
                .weather(if seed.is_multiple_of(3) {
                    Weather::Overcast
                } else {
                    Weather::ClearNoon
                })
                .time_budget(90.0)
                .min_route_length(150.0)
                .build()
        })
        .collect::<Vec<_>>();
    let agent = AgentSpec::Neural {
        weights: Arc::clone(weights),
    };
    study_plan("input-faults", &scenarios, input_fault_specs(), &agent)
}

/// Pool member `index` of `expert_dense_delay`: the Figure 4 output-delay
/// sweep {0, 5, 10, 20, 30} frames with the expert agent in two dense
/// 4×4 unsignalized towns (30 NPC vehicles, 30 pedestrians, event-driven
/// scheduling with `decision_horizon` 8, a 60 s budget).
pub fn expert_plan(index: usize) -> WorkPlan {
    let scenarios = (0..SCENARIOS_PER_PLAN)
        .map(|i| {
            let seed = split_seed(EXPERT_POOL_MASTER, (index * SCENARIOS_PER_PLAN + i) as u64);
            let mut town = TownSpec::grid(4, 4);
            town.signalized = false;
            Scenario::builder(town)
                .seed(seed)
                .npc_vehicles(30)
                .pedestrians(30)
                .pedestrian_cross_rate(0.008)
                .decision_horizon(8)
                .time_budget(60.0)
                .min_route_length(150.0)
                .build()
        })
        .collect::<Vec<_>>();
    study_plan(
        "output-delay",
        &scenarios,
        output_delay_specs(),
        &AgentSpec::Expert,
    )
}

fn study_plan(
    name: &str,
    scenarios: &[Scenario],
    faults: Vec<FaultSpec>,
    agent: &AgentSpec,
) -> WorkPlan {
    let campaigns = faults
        .into_iter()
        .map(|fault| {
            CampaignConfig::builder(scenarios.to_vec())
                .runs_per_scenario(RUNS_PER_SCENARIO)
                .fault(fault)
                .agent(agent.clone())
                .build()
        })
        .collect();
    WorkPlan::new().with_study(name, campaigns)
}

/// `count` one-run expert plans for the service section (see
/// `served.rs`), generated from `seed`: small unsignalized towns with
/// light traffic, and either no fault or an output delay of 2–9 frames.
pub fn served_plans(seed: u64, count: usize) -> Vec<WorkPlan> {
    let mut rng = StdRng::seed_from_u64(split_seed(seed, 0x5E4D));
    (0..count)
        .map(|_| {
            let mut town = TownSpec::grid(2, 2);
            town.signalized = false;
            let scenario = Scenario::builder(town)
                .seed(rng.random_range(0..u64::MAX))
                .npc_vehicles(rng.random_range(0..3usize))
                .pedestrians(rng.random_range(0..2usize))
                .time_budget(15.0)
                .min_route_length(50.0)
                .build();
            let fault = if rng.random_range(0..2u32) == 0 {
                FaultSpec::None
            } else {
                FaultSpec::Timing(TimingFault::OutputDelay {
                    frames: rng.random_range(2..10usize),
                })
            };
            let campaign = CampaignConfig::builder(vec![scenario])
                .runs_per_scenario(1)
                .fault(fault)
                .agent(AgentSpec::Expert)
                .build();
            WorkPlan::new().with_study("served", vec![campaign])
        })
        .collect()
}

/// The results of a plan serialized exactly as the campaign server
/// serializes them.
pub fn results_json(results: &[StudyResult]) -> String {
    serde_json::to_string(results).expect("study results serialize")
}

/// FNV-1a-64 digest of a results payload.
pub fn digest(json: &str) -> u64 {
    avfi_trace::fingerprint(json.as_bytes())
}

/// Every run of `results`, in flat-plan order.
pub fn runs(results: &[StudyResult]) -> impl Iterator<Item = &RunResult> {
    results
        .iter()
        .flat_map(|s| &s.campaigns)
        .flat_map(|c| c.runs())
}

/// Simulated frames of one run (its duration is a whole number of
/// frames).
pub fn frames(run: &RunResult) -> u64 {
    (run.duration / FRAME_DT).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_order_is_a_seeded_permutation() {
        let a = visit_order(7, POOL);
        assert_eq!(a, visit_order(7, POOL));
        assert_ne!(a, visit_order(8, POOL));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..POOL).collect::<Vec<_>>());
    }

    #[test]
    fn study_plans_have_the_figure_shapes() {
        let weights = Arc::new(Vec::new());
        let il = il_plan(3, &weights);
        assert_eq!(il.total_campaigns(), 6);
        assert_eq!(il.total_runs(), 6 * SCENARIOS_PER_PLAN * RUNS_PER_SCENARIO);
        let expert = expert_plan(3);
        assert_eq!(expert.total_campaigns(), 5);
        // Pool members differ from each other.
        let json = |p: &WorkPlan| serde_json::to_string(p).expect("plan serializes");
        assert_ne!(json(&expert_plan(3)), json(&expert_plan(4)));
        assert_eq!(json(&expert_plan(3)), json(&expert));
    }

    #[test]
    fn served_plans_depend_only_on_the_seed() {
        let json = |ps: Vec<WorkPlan>| serde_json::to_string(&ps).expect("plans serialize");
        assert_eq!(json(served_plans(5, 4)), json(served_plans(5, 4)));
        assert_ne!(json(served_plans(5, 4)), json(served_plans(6, 4)));
        assert!(served_plans(5, 4).iter().all(|p| p.total_runs() == 1));
    }
}
