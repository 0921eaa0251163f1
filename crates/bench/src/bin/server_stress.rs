//! Campaign-service stress bench: hundreds of concurrent submitters
//! against one in-process `avfi-server` daemon sharing one worker pool.
//!
//! Every client thread opens its own TCP connection, submits plans drawn
//! from a small set of deterministic shapes, waits for completion, and
//! fetches results; every served payload is verified byte-identical to a
//! precomputed solo-engine golden for its shape (the goldens are computed
//! before the clock starts, so the timing is pure service throughput).
//! Emits one JSON object on stdout (the record format stored in
//! `BENCH_*.json` at the repo root).
//!
//! Usage: `server_stress [--clients N] [--plans-per-client M] [--workers W]`

use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::WorkPlan;
use avfi_net::proto::PlanPhase;
use avfi_server::cli::Args;
use avfi_server::{solo_results_json, CampaignServer, ServiceClient};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_trace::TraceLevel;
use std::time::Instant;

const SHAPES: u64 = 8;

fn shape_plan(shape: u64) -> WorkPlan {
    let mut town = TownSpec::grid(2, 2);
    town.signalized = false;
    let scenario = Scenario::builder(town)
        .seed(64_000 + shape * 3)
        .npc_vehicles(0)
        .pedestrians(0)
        .time_budget(15.0)
        .min_route_length(50.0)
        .build();
    let fault = if shape.is_multiple_of(2) {
        FaultSpec::None
    } else {
        FaultSpec::Timing(TimingFault::OutputDelay {
            frames: 2 + shape as usize,
        })
    };
    let campaign = CampaignConfig::builder(vec![scenario])
        .runs_per_scenario(1)
        .fault(fault)
        .agent(AgentSpec::Expert)
        .build();
    WorkPlan::new().with_study("stress", vec![campaign])
}

fn main() {
    let mut args = Args::from_env();
    let clients: u64 = args.value("--clients").unwrap_or(200);
    let plans_per_client: u64 = args.value("--plans-per-client").unwrap_or(1);
    let workers: usize = args.value("--workers").unwrap_or(2);
    args.finish();

    eprintln!("[server_stress] precomputing {SHAPES} solo goldens");
    let goldens: Vec<String> = (0..SHAPES)
        .map(|s| solo_results_json(&shape_plan(s)).expect("solo golden"))
        .collect();

    let server = CampaignServer::bind("127.0.0.1:0", workers).expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    eprintln!(
        "[server_stress] {clients} clients x {plans_per_client} plans on {workers} pool workers"
    );
    let started = Instant::now();
    let mismatches: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let addr = addr.clone();
                let goldens = &goldens;
                scope.spawn(move || {
                    let mut bad = 0u64;
                    let mut c = ServiceClient::connect(&addr).expect("connect");
                    for round in 0..plans_per_client {
                        let shape = (client * plans_per_client + round) % SHAPES;
                        let (id, _) = c
                            .submit(&shape_plan(shape), TraceLevel::Off)
                            .expect("submit");
                        assert_eq!(
                            c.wait_terminal(id).expect("wait"),
                            PlanPhase::Completed,
                            "client {client} round {round}"
                        );
                        if c.results_json(id).expect("results") != goldens[shape as usize] {
                            bad += 1;
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let wall_ms = started.elapsed().as_millis();

    ServiceClient::connect(&addr)
        .expect("shutdown connect")
        .shutdown_server()
        .expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon run");

    let plans = clients * plans_per_client;
    let wall_s = (wall_ms as f64 / 1000.0).max(1e-9);
    println!(
        "{{\n  \"bench\": \"server_stress\",\n  \"clients\": {clients},\n  \
         \"plans_per_client\": {plans_per_client},\n  \"pool_workers\": {workers},\n  \
         \"plans\": {plans},\n  \"wall_ms\": {wall_ms},\n  \
         \"plans_per_s\": {:.2},\n  \"mismatched_payloads\": {mismatches}\n}}",
        plans as f64 / wall_s
    );
    if mismatches > 0 {
        eprintln!("[server_stress] FAIL: {mismatches} served payloads drifted from solo goldens");
        std::process::exit(1);
    }
}
