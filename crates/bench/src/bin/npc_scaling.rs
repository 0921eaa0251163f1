//! High-density campaign: 60 NPCs + 60 pedestrians on a 4×4 town at
//! `decision_horizon` 8 (cruising and walking agents sleep between
//! decisions), run through the engine (worker-count invariant) and
//! exported as `npc_scaling.json` via the standard results path. The
//! smoke `density` tier golden-diffs that file and so pins the horizon-8
//! trajectory bit for bit. Frame costs at this density are perfbench's
//! to measure (`expert_dense_delay`).
//!
//! Usage: `cargo run --release -p avfi-bench --bin npc_scaling --
//! [--workers N] [--progress] [--trace DIR] [--trace-level LEVEL]
//! [--spool DIR]`

use avfi_bench::experiments::{export_json, ExecOptions};
use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::fault::FaultSpec;
use avfi_core::WorkPlan;
use avfi_server::cli::Args;
use avfi_sim::scenario::{Scenario, TownSpec};

fn dense_scenario(seed: u64) -> Scenario {
    let mut town = TownSpec::grid(4, 4);
    town.signalized = false;
    Scenario::builder(town)
        .seed(seed)
        .npc_vehicles(60)
        .pedestrians(60)
        .pedestrian_cross_rate(0.008)
        .decision_horizon(8)
        // Dense missions are long; a tight budget keeps the smoke tier
        // fast while still crossing plenty of traffic.
        .time_budget(40.0)
        .min_route_length(150.0)
        .build()
}

fn main() {
    let mut args = Args::from_env();
    let opts = ExecOptions::parse(&mut args);
    args.finish();

    let config = CampaignConfig::builder(vec![dense_scenario(911), dense_scenario(923)])
        .runs_per_scenario(1)
        .fault(FaultSpec::None)
        .agent(AgentSpec::Expert)
        .build();
    let plan = WorkPlan::new().with_study("density", vec![config]);
    let results = opts
        .execute(&plan)
        .pop()
        .expect("plan has one study")
        .campaigns;
    for run in results.iter().flat_map(|r| r.runs()) {
        eprintln!(
            "[npc-scaling] scenario {} run {}: {:.2} km, {} violations, {:?}",
            run.scenario_index,
            run.run_index,
            run.distance_km,
            run.violations.len(),
            run.outcome
        );
    }
    export_json("npc_scaling", &results);
}
