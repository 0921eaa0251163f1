//! The daemon serves at most `MAX_CONNECTIONS` connections at once. The
//! next one gets one error frame naming the cap, before the daemon reads
//! anything from it, and is closed. Once a live connection closes, its
//! place frees: a new client is served, and the daemon serves the demo
//! plan byte-identical to its golden.

use avfi_net::proto::{PlanPhase, ServiceReply};
use avfi_net::{NetError, TcpTransport};
use avfi_server::{demo_plan, CampaignServer, ServiceClient, MAX_CONNECTIONS};
use avfi_trace::TraceLevel;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Polls `ready` until it yields a value, failing after 30 s.
fn wait_for<T>(what: &str, mut ready: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(value) = ready() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn the_connection_over_the_cap_is_refused_until_one_closes() {
    assert_eq!(MAX_CONNECTIONS, 64);
    let server = CampaignServer::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));

    // The daemon accepts in connection order, so these hold every place
    // before the next connection is accepted.
    let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();

    let over = TcpStream::connect(&addr).expect("connect");
    over.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut over = TcpTransport::new(over).expect("transport");
    match over.recv_value::<ServiceReply>() {
        Ok(ServiceReply::Error { message }) => {
            assert!(message.contains("at most 64 connections"), "got: {message}");
        }
        other => panic!("expected the cap's error reply, got {other:?}"),
    }
    match over.recv_value::<ServiceReply>() {
        Err(NetError::Disconnected) => {}
        other => panic!("expected the daemon to close the connection, got {other:?}"),
    }

    // Closing one idle connection frees its place once its handler sees
    // the hangup; until then a new client is refused.
    drop(idle.pop());
    let mut client = wait_for("a served client", || {
        let mut client = ServiceClient::connect(&addr).expect("connect");
        match client.status(999) {
            Err(NetError::Protocol(m)) if m.contains("unknown plan") => Some(client),
            _ => None,
        }
    });
    let (id, _) = client
        .submit(&demo_plan(), TraceLevel::Off)
        .expect("submit");
    assert_eq!(
        client.wait_terminal(id).expect("wait"),
        PlanPhase::Completed
    );
    assert_eq!(
        client.results_json(id).expect("results"),
        include_str!("../../../results/golden/avfi_server_demo.json")
    );

    // Shutdown still works with every place taken.
    client.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    drop(idle);
}
