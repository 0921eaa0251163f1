//! End-to-end multi-campaign study wall-clock: sequential per-campaign
//! execution (the pre-engine path, with parallelism only *inside* each
//! campaign) vs one flattened work-stealing engine queue over the same
//! plan. Emits one JSON object on stdout (the record format stored in
//! `BENCH_pr2.json` at the repo root).
//!
//! The two paths produce bit-identical results (asserted here); only the
//! scheduling differs. On a single-core host the speedup is ≈1.0 by
//! construction — the engine's win is removing the idle tail at every
//! campaign boundary, which needs cores to idle in the first place.
//!
//! Usage: `cargo run --release -p avfi-bench --bin study_speedup
//! [--quick] [--workers N] [--neural]`

use avfi_bench::experiments::{neural_agent, output_delay_specs, plan_studies, Scale, StudySpec};
use avfi_core::campaign::AgentSpec;
use avfi_core::engine::Engine;
use avfi_server::cli::Args;
use std::time::Instant;

fn main() {
    let mut args = Args::from_env();
    let scale = Scale::parse(&mut args);
    let workers = args.value("--workers").unwrap_or(0);
    let neural = args.flag("--neural");
    args.finish();
    let agent = if neural {
        neural_agent()
    } else {
        AgentSpec::Expert
    };
    let studies = [
        StudySpec {
            name: "input-faults",
            agent: agent.clone(),
            faults: avfi_bench::experiments::input_fault_specs(),
        },
        StudySpec {
            name: "output-delay",
            agent,
            faults: output_delay_specs(),
        },
    ];
    let plan = plan_studies(&studies, scale);
    let engine = Engine::new().workers(workers);
    let workers = engine.effective_workers(plan.total_runs());
    eprintln!(
        "[study_speedup] {} runs / {} campaigns, {workers} workers, agent = {}",
        plan.total_runs(),
        plan.total_campaigns(),
        if neural { "il-cnn" } else { "expert" }
    );

    // Warm caches (weight training, lazy tables) outside the timed region.
    let _ = engine.run_campaign(plan.studies()[0].campaigns[0].clone());

    // (a) Pre-engine path: campaigns strictly sequential, worker threads
    // only within each campaign.
    let t = Instant::now();
    let mut sequential_results = Vec::new();
    for study in plan.studies() {
        for cfg in &study.campaigns {
            sequential_results.push(engine.run_campaign(cfg.clone()));
        }
    }
    let sequential_s = t.elapsed().as_secs_f64();

    // (b) The flattened engine queue.
    let t = Instant::now();
    let engine_results = engine.execute(&plan);
    let engine_s = t.elapsed().as_secs_f64();

    let flat: Vec<_> = engine_results.iter().flat_map(|s| &s.campaigns).collect();
    assert_eq!(flat.len(), sequential_results.len());
    for (a, b) in flat.iter().zip(&sequential_results) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "engine must be bit-identical to the sequential path"
        );
    }

    println!(
        "{{\"bench\": \"study_speedup\", \"agent\": \"{}\", \"campaigns\": {}, \
         \"runs\": {}, \"workers\": {workers}, \"sequential_s\": {sequential_s:.3}, \
         \"engine_s\": {engine_s:.3}, \"speedup\": {:.3}}}",
        if neural { "il-cnn" } else { "expert" },
        plan.total_campaigns(),
        plan.total_runs(),
        sequential_s / engine_s
    );
}
