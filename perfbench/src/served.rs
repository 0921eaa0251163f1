//! The service section of `expert_dense_delay`'s traced run: an
//! in-process `avfi-server` daemon with a durable spool and `nproc` pool
//! workers, driven by a closed loop of `nproc` client connections that
//! each submit a plan, wait for it to finish and fetch its results before
//! sending the next — the way `avfi-client run` waits for each plan.
//!
//! *Why:* with short one-run expert plans, per-plan service cost —
//! framing, JSON, the pool hand-off, the journal append and the world
//! build — is a large share of the work, so the `net`, `server` and
//! `store` layers show. `store` both writes (the journal) and reads
//! (recovery when a fresh daemon starts over the spool).
//!
//! Every payload, and every payload a restarted daemon serves, is
//! compared byte for byte with a solo-engine golden computed before the
//! loop starts.

use crate::plans;
use crate::report::{Metric, Outcome};
use avfi_core::WorkPlan;
use avfi_net::proto::PlanPhase;
use avfi_net::NetError;
use avfi_server::{solo_results_json, CampaignServer, ServiceClient};
use avfi_store::{Journal, JournalRecord};
use avfi_trace::TraceLevel;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct plans generated per seed (the loop cycles through them).
const PLANS: usize = 64;
/// Plans a restarted daemon must serve back.
const RESTART_PLANS: usize = 32;
/// Timed restarts per run (the median is reported).
const RESTART_REPS: usize = 11;

/// The metrics this section measures, as the workloads without it report
/// them: 0 with no samples.
pub const METRICS: [(&str, &str); 10] = [
    ("store.append_us", "us"),
    ("store.recover_ms", "ms"),
    ("store.journal_bytes", "bytes"),
    ("store.restart_ms", "ms"),
    ("server.recover_ms", "ms"),
    ("net.submit_ms_p50", "ms"),
    ("server.wait_ms_p50", "ms"),
    ("server.wait_ms_p95", "ms"),
    ("net.fetch_ms_p50", "ms"),
    ("net.result_bytes", "bytes"),
];

/// A running daemon.
#[derive(Debug)]
struct Daemon {
    addr: String,
    handle: JoinHandle<Result<(), NetError>>,
}

impl Daemon {
    /// Binds a daemon over `spool` and starts serving; also returns how
    /// long `with_spool` (recovery of the spool's journals) took.
    fn start(workers: usize, spool: &Path) -> Result<(Daemon, Duration), NetError> {
        let server = CampaignServer::bind("127.0.0.1:0", workers)?;
        let start = Instant::now();
        let server = server.with_spool(Some(spool.to_path_buf()), false)?;
        let recover = start.elapsed();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok((Daemon { addr, handle }, recover))
    }

    /// Shuts the daemon down and waits for its accept loop to end.
    fn stop(self) -> Result<(), NetError> {
        ServiceClient::connect(&self.addr)?.shutdown_server()?;
        self.handle
            .join()
            .map_err(|_| NetError::Protocol("daemon thread panicked".into()))?
    }
}

/// One plan's trip through the service.
#[derive(Debug, Clone, Copy)]
struct Trip {
    plan: usize,
    id: u64,
    submit: Duration,
    wait: Duration,
    fetch: Duration,
    result_bytes: usize,
    ok: bool,
}

/// Runs the section for about `seconds` on plans generated from `seed`,
/// in `tmp` (removed afterwards), and returns its metrics.
pub fn measure(
    seed: u64,
    workers: usize,
    tmp: &Path,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<Vec<Metric>, NetError> {
    let result = measure_in(seed, workers, tmp, seconds, outcome);
    let _ = std::fs::remove_dir_all(tmp);
    result
}

fn measure_in(
    seed: u64,
    workers: usize,
    tmp: &Path,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<Vec<Metric>, NetError> {
    let plans = plans::served_plans(seed, PLANS);
    let order = plans::visit_order(seed, PLANS);
    let goldens: Vec<String> = plans
        .iter()
        .map(|p| solo_results_json(p).expect("solo golden"))
        .collect();
    let spool = tmp.join("spool");
    std::fs::create_dir_all(&spool)?;
    let (daemon, _) = Daemon::start(workers, &spool)?;
    let trips = closed_loop(&daemon.addr, workers, seconds, &plans, &order, &goldens);
    daemon.stop()?;
    for t in &trips {
        outcome.check(1, t.ok);
    }

    // The served runs' `RunCompleted` records, appended to a scratch
    // journal one by one.
    let mut append_us = Vec::new();
    let mut journal = Journal::create(&tmp.join("scratch.avj"))?;
    for golden in &goldens {
        let results: Vec<avfi_core::StudyResult> =
            serde_json::from_str(golden).expect("golden parses");
        for (i, run) in plans::runs(&results).enumerate() {
            let record = JournalRecord::RunCompleted {
                flat_index: i as u64,
                result_json: serde_json::to_string(run).expect("run serializes"),
            };
            let start = Instant::now();
            journal.append(&record)?;
            append_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }

    let restart = restart(workers, tmp, &spool, &trips, &goldens, outcome)?;
    // One figure for the whole restart spool, like the daemon's recovery.
    let start = Instant::now();
    let mut journal_bytes = 0;
    for path in &restart.journals {
        journal_bytes += avfi_store::recover_file(path)?.1;
    }
    let recover_ms = ms(start.elapsed());

    let pick = |f: fn(&Trip) -> f64| trips.iter().filter(|t| t.ok).map(f).collect::<Vec<_>>();
    let submit = pick(|t| ms(t.submit));
    let wait = pick(|t| ms(t.wait));
    let fetch = pick(|t| ms(t.fetch));
    let bytes = pick(|t| t.result_bytes as f64);
    Ok(vec![
        Metric::median("store.append_us", "us", &append_us),
        Metric::value("store.recover_ms", "ms", recover_ms, 1),
        Metric::value("store.journal_bytes", "bytes", journal_bytes as f64, 1),
        Metric::median("store.restart_ms", "ms", &restart.restart_ms),
        Metric::median("server.recover_ms", "ms", &restart.recover_ms),
        Metric::median("net.submit_ms_p50", "ms", &submit),
        Metric::median("server.wait_ms_p50", "ms", &wait),
        Metric::percentile("server.wait_ms_p95", "ms", &wait, 95.0),
        Metric::median("net.fetch_ms_p50", "ms", &fetch),
        Metric::median("net.result_bytes", "bytes", &bytes),
    ])
}

/// The closed loop: `workers` client connections, each submitting,
/// waiting for and fetching one plan at a time until `seconds` pass.
fn closed_loop(
    addr: &str,
    workers: usize,
    seconds: f64,
    plans: &[WorkPlan],
    order: &[usize],
    goldens: &[String],
) -> Vec<Trip> {
    let next = AtomicUsize::new(0);
    let trips = Mutex::new(Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = Vec::new();
                let client = ServiceClient::connect(addr);
                let Ok(mut client) = client else {
                    local.push(failed_trip(0));
                    trips.lock().expect("trips lock").extend(local);
                    return;
                };
                while Instant::now() < deadline {
                    let plan = order[next.fetch_add(1, Ordering::Relaxed) % plans.len()];
                    match trip(&mut client, &plans[plan], plan, &goldens[plan]) {
                        Ok(t) => local.push(t),
                        Err(e) => {
                            eprintln!("[perfbench] service section: plan {plan}: {e}");
                            local.push(failed_trip(plan));
                            break;
                        }
                    }
                }
                trips.lock().expect("trips lock").extend(local);
            });
        }
    });
    trips.into_inner().expect("trips lock")
}

/// What the restarts measured.
#[derive(Debug)]
struct Restart {
    /// Construction to every payload served, per restart.
    restart_ms: Vec<f64>,
    /// `CampaignServer::with_spool` wall time per restart.
    recover_ms: Vec<f64>,
    /// The journals the restart spool holds.
    journals: Vec<PathBuf>,
}

/// Copies the journals of the first `RESTART_PLANS` plans the loop served
/// into a fresh spool, and times (in ms) a fresh daemon from construction
/// until it has served every one of them back byte-identically,
/// `RESTART_REPS` times.
fn restart(
    workers: usize,
    tmp: &Path,
    spool: &Path,
    trips: &[Trip],
    goldens: &[String],
    outcome: &mut Outcome,
) -> Result<Restart, NetError> {
    let by_id: BTreeMap<u64, usize> = trips
        .iter()
        .filter(|t| t.ok)
        .map(|t| (t.id, t.plan))
        .collect();
    let restart_spool = tmp.join("restart");
    std::fs::create_dir_all(&restart_spool)?;
    let mut fixture = Vec::new();
    for (id, path) in avfi_store::list_journals(spool)? {
        let Some(&plan) = by_id.get(&id) else {
            continue;
        };
        let copy = restart_spool.join(avfi_store::journal_file_name(id));
        std::fs::copy(&path, &copy)?;
        fixture.push((id, plan, copy));
        if fixture.len() == RESTART_PLANS {
            break;
        }
    }
    let mut restart = Restart {
        restart_ms: Vec::with_capacity(RESTART_REPS),
        recover_ms: Vec::with_capacity(RESTART_REPS),
        journals: fixture.iter().map(|(_, _, p)| p.clone()).collect(),
    };
    for _ in 0..RESTART_REPS {
        let start = Instant::now();
        let (daemon, with_spool) = Daemon::start(workers, &restart_spool)?;
        let mut client = ServiceClient::connect(&daemon.addr)?;
        let served: Vec<String> = fixture
            .iter()
            .map(|(id, _, _)| client.results_json(*id))
            .collect::<Result<_, _>>()?;
        restart.restart_ms.push(ms(start.elapsed()));
        restart.recover_ms.push(ms(with_spool));
        drop(client);
        daemon.stop()?;
        for ((_, plan, _), json) in fixture.iter().zip(&served) {
            outcome.check(1, *json == goldens[*plan]);
        }
    }
    outcome.check(1, fixture.len() == RESTART_PLANS);
    Ok(restart)
}

fn trip(
    client: &mut ServiceClient,
    plan: &WorkPlan,
    index: usize,
    golden: &str,
) -> Result<Trip, NetError> {
    let t0 = Instant::now();
    let (id, _) = client.submit(plan, TraceLevel::Off)?;
    let t1 = Instant::now();
    let phase = client.wait_terminal(id)?;
    let t2 = Instant::now();
    let json = client.results_json(id)?;
    let t3 = Instant::now();
    Ok(Trip {
        plan: index,
        id,
        submit: t1 - t0,
        wait: t2 - t1,
        fetch: t3 - t2,
        result_bytes: json.len(),
        ok: phase == PlanPhase::Completed && json == golden,
    })
}

fn failed_trip(plan: usize) -> Trip {
    Trip {
        plan,
        id: 0,
        submit: Duration::ZERO,
        wait: Duration::ZERO,
        fetch: Duration::ZERO,
        result_bytes: 0,
        ok: false,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}
