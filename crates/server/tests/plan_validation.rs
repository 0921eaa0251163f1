//! A plan whose runs cannot start is refused at submit. Queued, a neural
//! plan with undecodable weights or a town with no mission route would
//! panic every run of it, and a plan over the run cap, with a town too
//! large to build, or with a fault sized past its cap, would exhaust the
//! daemon's memory. Refused, each costs the daemon nothing: the next
//! client's plan runs as usual and shutdown is clean. No plan the pool
//! accepts is known to panic a run; the pool's own tests swap a poison
//! run into an accepted plan to check that it fails alone.

use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::fault::input::{ImageFault, InputFault};
use avfi_core::fault::FaultSpec;
use avfi_core::WorkPlan;
use avfi_net::proto::{PlanId, PlanPhase};
use avfi_net::NetError;
use avfi_server::{demo_plan, solo_results_json, CampaignServer, ServiceClient};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_trace::TraceLevel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Polls the plan's status until it is terminal or `secs` have passed,
/// so a plan that never finishes fails the test instead of hanging it.
fn phase_within(client: &mut ServiceClient, plan: PlanId, secs: u64) -> PlanPhase {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let (phase, _, _) = client.status(plan).expect("status");
        if phase.is_terminal() || Instant::now() >= deadline {
            return phase;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn undecodable_weights_are_refused_and_the_daemon_keeps_serving() {
    let server = CampaignServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = ServiceClient::connect(&addr).expect("connect");

    // The demo plan's scenarios, driven by a network whose weight blob
    // is three bytes long.
    let scenarios = demo_plan().studies()[0].campaigns[0].scenarios.clone();
    let poison = CampaignConfig::builder(scenarios)
        .runs_per_scenario(1)
        .fault(FaultSpec::None)
        .agent(AgentSpec::Neural {
            weights: Arc::new(vec![1, 2, 3]),
        })
        .build();
    let plan = WorkPlan::new()
        .with_study("baseline", vec![poison.clone()])
        .with_study("poisoned", vec![poison]);
    match client.submit(&plan, TraceLevel::Off) {
        Err(NetError::Protocol(message)) => assert!(
            message.contains("neural weights") && message.contains("\"baseline\" campaign 0"),
            "{message}"
        ),
        other => panic!("bad weights must be refused, got {other:?}"),
    }

    let demo = demo_plan();
    let (id, total) = client.submit(&demo, TraceLevel::Off).expect("submit");
    assert_eq!(total, demo.total_runs());
    assert_eq!(
        client.wait_terminal(id).expect("wait"),
        PlanPhase::Completed
    );
    assert_eq!(
        client.results_json(id).expect("results"),
        solo_results_json(&demo).expect("solo run")
    );

    client.shutdown_server().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

#[test]
fn a_plan_over_the_run_cap_is_refused_and_the_daemon_keeps_serving() {
    let server = CampaignServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = ServiceClient::connect(&addr).expect("connect");

    let scenario = demo_plan().studies()[0].campaigns[0].scenarios[0].clone();
    let huge = CampaignConfig::builder(vec![scenario])
        .runs_per_scenario(1 << 40)
        .build();
    let plan = WorkPlan::new().with_study("huge", vec![huge]);
    match client.submit(&plan, TraceLevel::Off) {
        Err(NetError::Protocol(message)) => assert!(
            message.contains("1099511627776 runs") && message.contains("cap"),
            "{message}"
        ),
        other => panic!("a plan over the run cap must be refused, got {other:?}"),
    }

    let demo = demo_plan();
    let (id, _) = client.submit(&demo, TraceLevel::Off).expect("submit");
    assert_eq!(phase_within(&mut client, id, 120), PlanPhase::Completed);
    assert_eq!(
        client.results_json(id).expect("results"),
        solo_results_json(&demo).expect("solo run")
    );

    client.shutdown_server().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

#[test]
fn an_oversized_town_is_refused_and_the_daemon_keeps_serving() {
    let server = CampaignServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = ServiceClient::connect(&addr).expect("connect");

    // A 2×2 town of 10,000 km blocks: its map's spatial grid would hold
    // one 16 m cell per square of it, about 9 TB per cell list. Only
    // validation sees it; nothing here builds it.
    let mut scenarios = demo_plan().studies()[0].campaigns[0].scenarios.clone();
    scenarios[1].town = TownSpec::grid(2, 2);
    scenarios[1].town.block = 1e7;
    let huge = CampaignConfig::builder(scenarios)
        .runs_per_scenario(1)
        .build();
    let plan = WorkPlan::new().with_study("vast", vec![huge]);
    match client.submit(&plan, TraceLevel::Off) {
        Err(NetError::Protocol(message)) => assert!(
            message.contains("study \"vast\" campaign 0 scenario 1")
                && message.contains("town extent"),
            "{message}"
        ),
        other => panic!("an oversized town must be refused, got {other:?}"),
    }

    let demo = demo_plan();
    let (id, _) = client.submit(&demo, TraceLevel::Off).expect("submit");
    assert_eq!(phase_within(&mut client, id, 120), PlanPhase::Completed);
    assert_eq!(
        client.results_json(id).expect("results"),
        solo_results_json(&demo).expect("solo run")
    );

    client.shutdown_server().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

#[test]
fn a_fault_that_sizes_a_run_is_refused_and_the_daemon_keeps_serving() {
    let server = CampaignServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = ServiceClient::connect(&addr).expect("connect");

    // The demo plan under 2^40 water drops: their layout alone would ask
    // for 24 TiB on the first injected frame, and the failed allocation
    // would abort the daemon, which no panic guard can contain.
    let drops = FaultSpec::Input(InputFault::always(ImageFault::water_drop(1 << 40, 0.08)));
    let mut plan = WorkPlan::new();
    for study in demo_plan().studies() {
        let campaigns = (study.campaigns.iter())
            .map(|c| CampaignConfig {
                fault: drops.clone(),
                ..c.clone()
            })
            .collect();
        plan.add_study(study.name.clone(), campaigns);
    }
    match client.submit(&plan, TraceLevel::Off) {
        Err(NetError::Protocol(message)) => assert_eq!(
            message,
            "invalid plan: study \"baseline\" campaign 0: \
             fault water-drop count 1099511627776 is over the cap of 64"
        ),
        other => panic!("2^40 water drops must be refused, got {other:?}"),
    }

    let demo = demo_plan();
    let (id, _) = client.submit(&demo, TraceLevel::Off).expect("submit");
    assert_eq!(phase_within(&mut client, id, 120), PlanPhase::Completed);
    assert_eq!(
        client.results_json(id).expect("results"),
        include_str!("../../../results/golden/avfi_server_demo.json")
    );

    client.shutdown_server().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}

#[test]
fn a_routeless_town_is_refused_and_the_daemon_keeps_serving() {
    let server = CampaignServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());
    let mut client = ServiceClient::connect(&addr).expect("connect");

    // Two expert runs on a 2×2 town of 25 m blocks: every scenario number
    // is in bounds, but its 13 m roads are too short to start a mission
    // on, so queued, every run would panic building its world.
    let mut town = TownSpec::grid(2, 2);
    town.block = 25.0;
    let poison = CampaignConfig::builder(vec![Scenario::builder(town).build()])
        .runs_per_scenario(2)
        .agent(AgentSpec::Expert)
        .build();
    let plan = WorkPlan::new().with_study("poison", vec![poison]);
    match client.submit(&plan, TraceLevel::Off) {
        Err(NetError::Protocol(message)) => assert_eq!(
            message,
            "invalid plan: study \"poison\" campaign 0 scenario 0: town grid 2×2 of 25 m \
             blocks has 0 drive lanes longer than 20 m; a mission route needs two"
        ),
        other => panic!("a routeless town must be refused, got {other:?}"),
    }

    let demo = demo_plan();
    let (id, _) = client.submit(&demo, TraceLevel::Off).expect("submit");
    assert_eq!(phase_within(&mut client, id, 120), PlanPhase::Completed);
    assert_eq!(
        client.results_json(id).expect("results"),
        include_str!("../../../results/golden/avfi_server_demo.json")
    );

    client.shutdown_server().expect("shutdown");
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
}
