//! Shared-secret authentication: a daemon running with an auth token
//! must serve only connections that open with a matching hello frame.
//! Wrong tokens and missing hellos get a clean protocol error — never a
//! hang, never a served request — and the connection is closed. A
//! daemon without a token stays fully open and still acknowledges
//! voluntary hellos, so token-configured clients work against it. A
//! first frame that claims more than `HELLO_FRAME_CAP` bytes closes the
//! connection before the daemon buffers it.

use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::fault::FaultSpec;
use avfi_core::WorkPlan;
use avfi_net::proto::PlanPhase;
use avfi_net::NetError;
use avfi_server::{demo_plan, CampaignServer, ServiceClient};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_trace::TraceLevel;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SECRET: &str = "campaign-secret";

fn tiny_plan(seed: u64) -> WorkPlan {
    let mut town = TownSpec::grid(2, 2);
    town.signalized = false;
    let scenario = Scenario::builder(town)
        .seed(seed)
        .npc_vehicles(0)
        .pedestrians(0)
        .time_budget(10.0)
        .min_route_length(50.0)
        .build();
    let campaign = CampaignConfig::builder(vec![scenario])
        .runs_per_scenario(1)
        .fault(FaultSpec::None)
        .agent(AgentSpec::Expert)
        .build();
    WorkPlan::new().with_study("auth", vec![campaign])
}

fn spawn_daemon(token: Option<&str>) -> (String, std::thread::JoinHandle<()>) {
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_auth_token(token.map(str::to_string));
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || {
        server.run().expect("daemon run");
    });
    (addr, daemon)
}

/// Shuts the daemon down through the front door (hello included).
fn shutdown(addr: &str, token: Option<&str>, daemon: std::thread::JoinHandle<()>) {
    ServiceClient::connect_with_token(addr, token)
        .expect("connect for shutdown")
        .shutdown_server()
        .expect("shutdown");
    daemon.join().expect("daemon thread");
}

/// The right token authenticates and the connection then serves the
/// full campaign flow: submit, watch to terminal, fetch results.
#[test]
fn correct_token_is_accepted_and_requests_are_served() {
    let (addr, daemon) = spawn_daemon(Some(SECRET));
    let mut c = ServiceClient::connect_with_token(&addr, Some(SECRET)).expect("hello accepted");
    let (id, total) = c.submit(&tiny_plan(8100), TraceLevel::Off).expect("submit");
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
    let results = c.results(id).expect("results");
    let run_count: usize = results
        .iter()
        .flat_map(|s| &s.campaigns)
        .map(|c| c.runs().len())
        .sum();
    assert_eq!(run_count, total);
    shutdown(&addr, Some(SECRET), daemon);
}

/// A wrong token is answered with a protocol error and the connection
/// is closed: the next request cannot reach the daemon.
#[test]
fn wrong_token_is_rejected_and_the_connection_closes() {
    let (addr, daemon) = spawn_daemon(Some(SECRET));
    let err = ServiceClient::connect_with_token(&addr, Some("not-the-secret"))
        .expect_err("wrong token must be rejected");
    match err {
        NetError::Protocol(message) => {
            assert!(message.contains("authentication failed"), "got: {message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    shutdown(&addr, Some(SECRET), daemon);
}

/// Skipping the hello entirely is the same rejection: the first frame
/// gate answers the smuggled request with the auth error, serves
/// nothing, and closes. A follow-up request on the same connection
/// surfaces the hangup.
#[test]
fn missing_hello_is_rejected_before_any_request_is_served() {
    let (addr, daemon) = spawn_daemon(Some(SECRET));
    let mut c = ServiceClient::connect(&addr).expect("tcp connect");
    let err = c.status(1).expect_err("unauthenticated request must fail");
    match err {
        NetError::Protocol(message) => {
            assert!(message.contains("authentication failed"), "got: {message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert!(
        c.status(1).is_err(),
        "connection must be closed after the rejection"
    );
    shutdown(&addr, Some(SECRET), daemon);
}

/// An open daemon acknowledges a voluntary hello instead of choking on
/// it, so one client configuration works against both daemon modes.
#[test]
fn open_daemon_acknowledges_voluntary_hello() {
    let (addr, daemon) = spawn_daemon(None);
    let mut c = ServiceClient::connect_with_token(&addr, Some("ignored")).expect("hello tolerated");
    let err = c.status(99).expect_err("unknown plan");
    assert!(matches!(err, NetError::Protocol(m) if m.contains("unknown plan")));
    shutdown(&addr, None, daemon);
}

/// Four bytes claiming a 64 MiB frame, sent before the hello, get the
/// connection closed at once: the daemon neither waits for nor reserves
/// the payload. It then serves the demo plan byte-identical to its
/// golden.
#[test]
fn a_giant_prefix_before_the_hello_closes_the_connection() {
    let (addr, daemon) = spawn_daemon(Some(SECRET));
    let mut raw = TcpStream::connect(&addr).expect("tcp connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    raw.write_all(&(64u32 << 20).to_le_bytes())
        .expect("send prefix");
    let mut byte = [0u8; 1];
    match raw.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("expected the daemon to close the connection, got {other:?}"),
    }

    let mut c = ServiceClient::connect_with_token(&addr, Some(SECRET)).expect("hello accepted");
    let (id, _) = c.submit(&demo_plan(), TraceLevel::Off).expect("submit");
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
    assert_eq!(
        c.results_json(id).expect("results"),
        include_str!("../../../results/golden/avfi_server_demo.json")
    );
    shutdown(&addr, Some(SECRET), daemon);
}
