//! Reconnect-with-backoff: `with_retries` must re-dial a daemon that
//! hangs up mid-exchange (`NetError::Disconnected`), stop after the
//! policy's attempt budget, and never retry deterministic failures such
//! as protocol errors. The flaky daemon here is a scripted listener that
//! drops or serves each accepted connection per a schedule — a real
//! injected disconnect, not a mocked error value.

use avfi_net::proto::{PlanPhase, ServiceReply, ServiceRequest};
use avfi_net::{NetError, TcpTransport};
use avfi_server::{with_retries, RetryPolicy};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the scripted listener does with one accepted connection.
#[derive(Debug, Clone, Copy)]
enum Script {
    /// Accept, then drop immediately: the client sees a hangup.
    Drop,
    /// Answer one status request with a canned `Completed` reply.
    ServeStatus,
    /// Answer one cancel request with a canned `Cancelled` reply.
    ServeCancel,
    /// Answer one request with a protocol-level error reply.
    ServeError,
}

/// Spawns a listener that handles its `i`-th connection per `script[i]`
/// (connections beyond the script are dropped). Returns the address and
/// a counter of connections actually accepted.
fn scripted_daemon(script: Vec<Script>) -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let accepted = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let i = counter.fetch_add(1, Ordering::SeqCst);
            match script.get(i).copied().unwrap_or(Script::Drop) {
                Script::Drop => drop(stream),
                Script::ServeStatus => {
                    let Ok(mut t) = TcpTransport::new(stream) else {
                        continue;
                    };
                    let Ok(ServiceRequest::Status { plan }) = t.recv_value() else {
                        continue;
                    };
                    let _ = t.send_value(&ServiceReply::Status {
                        plan,
                        phase: PlanPhase::Completed,
                        completed: 3,
                        total: 3,
                    });
                }
                Script::ServeCancel => {
                    let Ok(mut t) = TcpTransport::new(stream) else {
                        continue;
                    };
                    let Ok(ServiceRequest::Cancel { plan }) = t.recv_value() else {
                        continue;
                    };
                    let _ = t.send_value(&ServiceReply::Cancelled {
                        plan,
                        phase: PlanPhase::Cancelled,
                    });
                }
                Script::ServeError => {
                    let Ok(mut t) = TcpTransport::new(stream) else {
                        continue;
                    };
                    let _: Result<ServiceRequest, _> = t.recv_value();
                    let _ = t.send_value(&ServiceReply::Error {
                        message: "deterministic rejection".to_string(),
                    });
                }
            }
        }
    });
    (addr, accepted)
}

/// First connection is torn down by the daemon, the retry dials again
/// and completes the exchange.
#[test]
fn reconnects_after_injected_disconnect() {
    let (addr, accepted) = scripted_daemon(vec![Script::Drop, Script::ServeStatus]);
    let policy = RetryPolicy::new(3, Duration::from_millis(5));
    let (phase, completed, total) =
        with_retries(&addr, None, policy, |client| client.status(7)).expect("retried status");
    assert_eq!(phase, PlanPhase::Completed);
    assert_eq!((completed, total), (3, 3));
    assert_eq!(accepted.load(Ordering::SeqCst), 2, "exactly one retry");
}

/// `attempts: 0` fails fast with the disconnect itself.
#[test]
fn zero_attempts_surface_the_disconnect() {
    let (addr, accepted) = scripted_daemon(vec![Script::Drop, Script::ServeStatus]);
    let err = with_retries(&addr, None, RetryPolicy::none(), |client| client.status(7))
        .expect_err("no retries allowed");
    assert!(matches!(err, NetError::Disconnected), "got {err:?}");
    assert_eq!(accepted.load(Ordering::SeqCst), 1);
}

/// A daemon that keeps hanging up exhausts the attempt budget: initial
/// try plus `attempts` retries, then the disconnect is surfaced.
#[test]
fn attempt_budget_is_bounded() {
    let (addr, accepted) = scripted_daemon(vec![Script::Drop; 8]);
    let policy = RetryPolicy::new(2, Duration::from_millis(1));
    let err = with_retries(&addr, None, policy, |client| client.status(7))
        .expect_err("daemon never recovers");
    assert!(matches!(err, NetError::Disconnected), "got {err:?}");
    assert_eq!(accepted.load(Ordering::SeqCst), 3, "1 try + 2 retries");
}

/// A cancel whose first connection is torn down replays on a fresh dial
/// — safe because cancelling is idempotent on the server — and lands
/// the canned `Cancelled` phase (the `avfi-client cancel --retry` path).
#[test]
fn cancel_retries_after_injected_disconnect() {
    let (addr, accepted) = scripted_daemon(vec![Script::Drop, Script::Drop, Script::ServeCancel]);
    let policy = RetryPolicy::new(3, Duration::from_millis(5));
    let phase =
        with_retries(&addr, None, policy, |client| client.cancel(11)).expect("retried cancel");
    assert_eq!(phase, PlanPhase::Cancelled);
    assert_eq!(accepted.load(Ordering::SeqCst), 3, "two drops, then served");
}

/// A status poll dropped mid-exchange replays transparently (the
/// `avfi-client status --retry` path).
#[test]
fn status_retries_after_injected_disconnect() {
    let (addr, accepted) = scripted_daemon(vec![Script::Drop, Script::ServeStatus]);
    let policy = RetryPolicy::new(2, Duration::from_millis(5));
    let (phase, completed, total) =
        with_retries(&addr, None, policy, |client| client.status(11)).expect("retried status");
    assert_eq!(phase, PlanPhase::Completed);
    assert_eq!((completed, total), (3, 3));
    assert_eq!(accepted.load(Ordering::SeqCst), 2);
}

/// Protocol errors are deterministic; retrying them would loop on the
/// same rejection, so the first one is final even with budget left.
#[test]
fn protocol_errors_are_not_retried() {
    let (addr, accepted) = scripted_daemon(vec![Script::ServeError, Script::ServeError]);
    let policy = RetryPolicy::new(5, Duration::from_millis(1));
    let err = with_retries(&addr, None, policy, |client| client.status(7))
        .expect_err("server rejects the request");
    match err {
        NetError::Protocol(message) => assert!(message.contains("deterministic rejection")),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_eq!(accepted.load(Ordering::SeqCst), 1, "no retry on rejection");
}
