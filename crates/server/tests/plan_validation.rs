//! A plan whose runs cannot start is refused at submit. Queued, a neural
//! plan with undecodable weights would panic every pool worker that
//! claimed one of its runs and leave the daemon serving no one. Refused,
//! it costs the daemon nothing: the next client's plan runs as usual and
//! shutdown is clean.

use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::fault::FaultSpec;
use avfi_core::WorkPlan;
use avfi_net::proto::PlanPhase;
use avfi_net::NetError;
use avfi_server::{demo_plan, solo_results_json, CampaignServer, ServiceClient};
use avfi_trace::TraceLevel;
use std::sync::Arc;

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
