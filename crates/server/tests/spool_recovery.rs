//! Spool recovery across daemon restarts: finished plans reload
//! fetchable with byte-identical results, interrupted journals surface
//! as resumable (or restart automatically with auto-resume) and resume
//! to the same bytes an uninterrupted run produces, a parked plan
//! answers the same before and after a restart, and retention eviction
//! deletes the spooled files while plan status survives.

use avfi_core::campaign::RunResult;
use avfi_core::engine::{NullSink, TraceConfig};
use avfi_core::{Engine, RunSink, WorkPlan};
use avfi_net::proto::PlanPhase;
use avfi_net::NetError;
use avfi_server::{demo_plan, solo_results_json, CampaignServer, ServiceClient};
use avfi_store::{JournalRecord, PlanJournal};
use avfi_trace::TraceLevel;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn fresh_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avfi-spool-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spool dir");
    dir
}

fn spawn_daemon(
    spool: &Path,
    auto_resume: bool,
    retention: Option<Duration>,
) -> (String, std::thread::JoinHandle<()>) {
    let server = CampaignServer::bind("127.0.0.1:0", 2)
        .expect("bind")
        .with_retention(retention)
        .with_spool(Some(spool.to_path_buf()), auto_resume)
        .expect("spool recovery");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || {
        server.run().expect("daemon run");
    });
    (addr, daemon)
}

/// Writes an interrupted journal for `plan` under plan id `id` the way a
/// daemon killed mid-plan leaves it: the submission record at `level`
/// and the first `completed` runs by flat index, no terminal, with the
/// traces of those runs in `plan-<id>/`. Returns how many traces are
/// there.
fn write_interrupted_journal(
    spool: &Path,
    id: u64,
    plan: &WorkPlan,
    completed: usize,
    level: TraceLevel,
) -> usize {
    #[derive(Debug, Default)]
    struct Collect(parking_lot::Mutex<Vec<(usize, RunResult)>>);
    impl RunSink for Collect {
        fn run_completed(&self, flat_index: usize, result: &RunResult) {
            self.0.lock().push((flat_index, result.clone()));
        }
    }
    let trace_dir = spool.join(avfi_store::trace_dir_name(id));
    let collector = Collect::default();
    Engine::new()
        .workers(2)
        .with_trace(TraceConfig::new(&trace_dir, level))
        .execute_resumed(plan, Vec::new(), &NullSink, Some(&collector))
        .expect("a checked plan");
    let mut runs = collector.0.into_inner();
    runs.sort_by_key(|(idx, _)| *idx);
    for (idx, _) in &runs[completed..] {
        let _ = std::fs::remove_file(trace_dir.join(avfi_trace::trace_file_name(*idx)));
    }

    let journal = PlanJournal::create(
        &spool.join(avfi_store::journal_file_name(id)),
        serde_json::to_string(plan).expect("plan serializes"),
        level,
    )
    .expect("create journal");
    for (idx, result) in &runs[..completed] {
        journal.run_completed(*idx, result);
    }
    avfi_trace::list_trace_files(&trace_dir)
        .expect("list traces")
        .len()
}

/// A journal whose plan is over the run cap is skipped at startup
/// instead of rebuilding, at every start, an executor that would exhaust
/// the daemon's memory.
#[test]
fn journal_over_the_run_cap_is_skipped_at_startup() {
    let scenario = demo_plan().studies()[0].campaigns[0].scenarios[0].clone();
    let huge = avfi_core::CampaignConfig::builder(vec![scenario])
        .runs_per_scenario(1 << 40)
        .build();
    refused_journal_is_moved_aside_once("huge", WorkPlan::new().with_study("huge", vec![huge]));
}

/// A journal whose town can host no mission route is skipped at startup
/// instead of resuming a plan whose every run would panic.
#[test]
fn journal_with_a_routeless_town_is_skipped_at_startup() {
    let mut plan = demo_plan();
    let json = serde_json::to_string(&plan).expect("plan serializes");
    plan = serde_json::from_str(&json.replace("\"block\":80", "\"block\":25")).expect("parses");
    assert_eq!(plan.studies()[1].campaigns[0].scenarios[1].town.block, 25.0);
    refused_journal_is_moved_aside_once("routeless", plan);
}

/// Starts a daemon twice over a spool holding `plan`'s journal under id
/// 2. The first start refuses the plan and moves the journal aside to
/// `plan-<id>.avj.refused`, so the second neither reads it nor reuses
/// its id; the daemon serves the next plan as usual.
fn refused_journal_is_moved_aside_once(tag: &str, plan: WorkPlan) {
    let spool = fresh_spool(tag);
    let journal = spool.join(avfi_store::journal_file_name(2));
    PlanJournal::create(
        &journal,
        serde_json::to_string(&plan).expect("plan serializes"),
        TraceLevel::Off,
    )
    .expect("create journal");
    let refused = spool.join(avfi_store::refused_journal_file_name(2));

    for start in 0..2 {
        let (addr, daemon) = spawn_daemon(&spool, true, None);
        let mut c = ServiceClient::connect(&addr).expect("connect");
        match c.status(2) {
            Err(NetError::Protocol(message)) => {
                assert!(message.contains("unknown plan"), "{message}")
            }
            other => panic!("the refused journal must not be recovered, got {other:?}"),
        }
        assert!(
            !journal.exists() && refused.exists(),
            "start {start}: the refused journal must have been moved aside"
        );
        if start == 1 {
            // Only the moved-aside journal holds id 2 now.
            let demo = demo_plan();
            let (id, _) = c.submit(&demo, TraceLevel::Off).expect("submit");
            assert!(
                id > 2,
                "the refused journal's id must stay reserved, got {id}"
            );
            assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
            assert_eq!(
                c.results_json(id).expect("results"),
                solo_results_json(&demo).expect("solo reference")
            );
        }
        c.shutdown_server().expect("shutdown");
        daemon.join().expect("daemon thread");
    }
    let _ = std::fs::remove_dir_all(&spool);
}

/// A journal with one flipped magic byte is not a journal: a daemon
/// start serves the good plan beside it and leaves the bad file's bytes
/// as they were, where recovery once rewrote it to a bare header.
#[test]
fn journal_with_a_bad_magic_is_left_untouched_at_startup() {
    let spool = fresh_spool("bad-magic");
    let plan = demo_plan();
    write_interrupted_journal(&spool, 1, &plan, plan.total_runs(), TraceLevel::Off);
    let bad = spool.join(avfi_store::journal_file_name(2));
    PlanJournal::create(
        &bad,
        serde_json::to_string(&plan).expect("plan serializes"),
        TraceLevel::Off,
    )
    .expect("create journal");
    let mut bytes = std::fs::read(&bad).expect("read journal");
    bytes[0] ^= 0x01;
    std::fs::write(&bad, &bytes).expect("flip a magic byte");

    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("connect");
    assert_eq!(
        c.status(1).expect("status"),
        (PlanPhase::Completed, plan.total_runs(), plan.total_runs())
    );
    assert_eq!(
        c.results_json(1).expect("results"),
        solo_results_json(&plan).expect("solo reference")
    );
    match c.status(2) {
        Err(NetError::Protocol(message)) => assert!(message.contains("unknown plan"), "{message}"),
        other => panic!("the bad journal must not be recovered, got {other:?}"),
    }
    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let after = std::fs::read(&bad).expect("reread journal");
    assert!(
        after == bytes,
        "the bad journal was rewritten: {} bytes became {}",
        bytes.len(),
        after.len()
    );
    let _ = std::fs::remove_dir_all(&spool);
}

/// A completed plan's results survive a daemon restart byte for byte,
/// served from the journal alone.
#[test]
fn completed_plan_survives_restart_byte_identical() {
    let spool = fresh_spool("restart");
    let plan = demo_plan();

    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("connect");
    let (id, total) = c.submit(&plan, TraceLevel::Off).expect("submit");
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
    let before = c.results_json(id).expect("results before restart");
    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");

    // "Restart": a new daemon over the same spool directory.
    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("reconnect");
    let (phase, completed, reported_total) = c.status(id).expect("status after restart");
    assert_eq!(phase, PlanPhase::Completed);
    assert_eq!(completed, total);
    assert_eq!(reported_total, total);
    let after = c.results_json(id).expect("results after restart");
    assert_eq!(after, before, "recovered results must be byte-identical");

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&spool);
}

/// An interrupted journal parks the plan as resumable: status reports
/// `interrupted` with true counters, payload fetches direct the client
/// to resume, and an explicit resume re-executes only the missing runs —
/// final bytes identical to an uninterrupted solo run.
#[test]
fn interrupted_plan_resumes_to_identical_bytes() {
    let spool = fresh_spool("resume");
    let plan = demo_plan();
    let id = 7u64;
    write_interrupted_journal(&spool, id, &plan, 2, TraceLevel::Off);
    let reference = solo_results_json(&plan).expect("solo reference");

    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("connect");

    let (phase, completed, total) = c.status(id).expect("status");
    assert_eq!(phase, PlanPhase::Interrupted);
    assert_eq!(completed, 2);
    assert_eq!(total, plan.total_runs());

    match c.results_json(id) {
        Err(NetError::Protocol(message)) => {
            assert!(message.contains("resume"), "unhelpful error: {message}");
        }
        other => panic!("expected interrupted protocol error, got {other:?}"),
    }

    let (phase, _, resumed_total) = c.resume(id).expect("resume");
    assert_ne!(phase, PlanPhase::Interrupted);
    assert_eq!(resumed_total, total);
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
    let results = c.results_json(id).expect("results after resume");
    assert_eq!(results, reference, "resumed results must be byte-identical");

    // Resume is idempotent on a finished plan.
    let (phase, completed, _) = c.resume(id).expect("idempotent resume");
    assert_eq!(phase, PlanPhase::Completed);
    assert_eq!(completed, total);

    // New submissions never collide with recovered plan ids.
    let (new_id, _) = c.submit(&plan, TraceLevel::Off).expect("fresh submit");
    assert!(new_id > id, "recovered ids must be reserved, got {new_id}");

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&spool);
}

/// With `--auto-resume` the interrupted plan re-enters the pool at
/// startup — no explicit resume needed — and completes identically.
#[test]
fn auto_resume_restarts_interrupted_plans() {
    let spool = fresh_spool("auto");
    let plan = demo_plan();
    let id = 3u64;
    write_interrupted_journal(&spool, id, &plan, 1, TraceLevel::Off);
    let reference = solo_results_json(&plan).expect("solo reference");

    let (addr, daemon) = spawn_daemon(&spool, true, None);
    let mut c = ServiceClient::connect(&addr).expect("connect");
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);
    let results = c.results_json(id).expect("results");
    assert_eq!(results, reference);

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&spool);
}

/// Zero retention with a spool: the sweep deletes the plan's journal
/// (and trace directory) from the spool while status stays queryable —
/// so a later restart no longer resurrects the evicted plan.
#[test]
fn retention_sweep_deletes_spooled_files() {
    let spool = fresh_spool("evict");
    let plan = demo_plan();

    let (addr, daemon) = spawn_daemon(&spool, false, Some(Duration::ZERO));
    let mut c = ServiceClient::connect(&addr).expect("connect");
    let (id, total) = c.submit(&plan, TraceLevel::Blackbox).expect("submit");
    // Checked before the next request: the sweep runs as each request
    // arrives, and the plan may finish before the watch below is served.
    let journal_path = spool.join(avfi_store::journal_file_name(id));
    assert!(journal_path.exists(), "journal must exist while retained");
    assert_eq!(c.wait_terminal(id).expect("terminal"), PlanPhase::Completed);

    // Any served request triggers the sweep; retention 0 = expired now.
    let _ = c.results_json(id);
    let (phase, completed, reported_total) = c.status(id).expect("status after sweep");
    assert_eq!(phase, PlanPhase::Completed);
    assert_eq!(completed, total);
    assert_eq!(reported_total, total);
    assert!(
        !journal_path.exists(),
        "sweep must delete the spooled journal"
    );
    assert!(
        !spool.join(avfi_store::trace_dir_name(id)).exists(),
        "sweep must delete the spooled trace directory"
    );

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&spool);
}

/// Cancelling a parked traced plan keeps the traces it recovered: the
/// live daemon and a restarted one serve the same non-empty payload, and
/// the restarted one reports the cancel with the journaled run count.
#[test]
fn cancelled_interrupted_plan_serves_the_same_traces_after_restart() {
    let spool = fresh_spool("cancel-traces");
    let plan = demo_plan();
    let id = 5u64;
    let journaled = plan.total_runs() - 1;
    let traced = write_interrupted_journal(&spool, id, &plan, journaled, TraceLevel::Blackbox);
    assert_eq!(
        traced, journaled,
        "every demo run fails, so each has a trace"
    );

    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("connect");
    assert_eq!(c.cancel(id).expect("cancel"), PlanPhase::Cancelled);
    let live = c.traces_json(id).expect("traces after cancel");
    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");

    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("reconnect");
    assert_eq!(
        c.status(id).expect("status after restart"),
        (PlanPhase::Cancelled, journaled, plan.total_runs())
    );
    let restarted = c.traces_json(id).expect("traces after restart");
    assert_ne!(live, "[]", "the cancelled plan lost its recovered traces");
    assert_eq!(live, restarted);

    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&spool);
}

/// Shutting a daemon down leaves a parked plan unfinished: two restarts
/// with no resume in between both recover it interrupted with the same
/// counters.
#[test]
fn parked_plan_stays_interrupted_across_restarts() {
    let spool = fresh_spool("parked");
    let plan = demo_plan();
    let id = 9u64;
    write_interrupted_journal(&spool, id, &plan, 2, TraceLevel::Off);

    for _ in 0..2 {
        let (addr, daemon) = spawn_daemon(&spool, false, None);
        let mut c = ServiceClient::connect(&addr).expect("connect");
        assert_eq!(
            c.status(id).expect("status"),
            (PlanPhase::Interrupted, 2, plan.total_runs())
        );
        c.shutdown_server().expect("shutdown");
        daemon.join().expect("daemon thread");
    }
    let _ = std::fs::remove_dir_all(&spool);
}

/// A journal holding every run but no terminal record has nothing left
/// to resume: it reloads completed with identical bytes, and gains the
/// missing terminal record.
#[test]
fn fully_journaled_plan_reloads_completed() {
    let spool = fresh_spool("full");
    let plan = demo_plan();
    let id = 4u64;
    write_interrupted_journal(&spool, id, &plan, plan.total_runs(), TraceLevel::Off);

    let (addr, daemon) = spawn_daemon(&spool, false, None);
    let mut c = ServiceClient::connect(&addr).expect("connect");
    assert_eq!(
        c.status(id).expect("status"),
        (PlanPhase::Completed, plan.total_runs(), plan.total_runs())
    );
    let results = c.results_json(id).expect("results");
    assert_eq!(results, solo_results_json(&plan).expect("solo reference"));
    c.shutdown_server().expect("shutdown");
    daemon.join().expect("daemon thread");

    let (records, _) =
        avfi_store::recover_file(&spool.join(avfi_store::journal_file_name(id))).expect("read");
    assert_eq!(
        records.last(),
        Some(&JournalRecord::PlanTerminal {
            phase: "completed".into()
        })
    );
    let _ = std::fs::remove_dir_all(&spool);
}
