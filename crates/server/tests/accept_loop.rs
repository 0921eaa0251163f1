//! Running out of file descriptors does not stop the daemon. A failed
//! accept is logged and retried after a pause, so a daemon whose
//! descriptors are all held by idle connections stays up, and once they
//! close it serves the demo plan byte-identical to its golden.

use avfi_net::proto::PlanPhase;
use avfi_server::{demo_plan, ServiceClient};
use avfi_trace::TraceLevel;
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Idle connections to hold open: more than the daemon has descriptors
/// for under a limit of 32, after its standard streams and listener.
const IDLE: usize = 40;

/// Kills the daemon if the test ends before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

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
fn running_out_of_descriptors_does_not_stop_the_daemon() {
    let dir = std::env::temp_dir().join(format!("avfi-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (addr_file, log) = (dir.join("addr"), dir.join("server.log"));
    let mut daemon = Daemon(
        Command::new("sh")
            .arg("-c")
            .arg(r#"ulimit -n 32; exec "$0" --addr 127.0.0.1:0 --workers 1 --addr-file "$1""#)
            .arg(env!("CARGO_BIN_EXE_avfi-server"))
            .arg(&addr_file)
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&log).unwrap())
            .spawn()
            .expect("sh starts"),
    );
    let addr = wait_for("the address file", || {
        Some(read(&addr_file)).filter(|a| !a.is_empty())
    });

    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    wait_for("a failed accept", || {
        let status = daemon.0.try_wait().expect("try_wait");
        assert!(status.is_none(), "daemon exited: {}", read(&log));
        read(&log).contains("accept failed").then_some(())
    });
    // Several retry pauses later the daemon is still up.
    std::thread::sleep(Duration::from_millis(500));
    let status = daemon.0.try_wait().expect("try_wait");
    assert!(status.is_none(), "daemon exited: {}", read(&log));
    drop(idle);

    let mut client = ServiceClient::connect(&addr).expect("connect");
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
    client.shutdown_server().expect("shutdown");
    let status = daemon.0.wait().expect("wait");
    assert!(status.success(), "{status}: {}", read(&log));
    std::fs::remove_dir_all(&dir).unwrap();
}
