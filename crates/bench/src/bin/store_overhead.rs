//! Write-ahead journaling overhead and recovery-speed bench.
//!
//! Part one runs the same deterministic plan twice — plain
//! `Engine::execute` vs `avfi_store::run_spooled` into a fresh spool
//! directory — and reports the wall-clock overhead the journal adds.
//! The two results are asserted byte-identical before any timing is
//! trusted. Part two writes a journal of ~10k run records, then times a
//! cold `recover_file` pass (read + length/checksum validation of every
//! record), the operation a daemon restart pays per spooled plan.
//!
//! Emits one JSON object on stdout (the record format stored in
//! `BENCH_*.json` at the repo root).
//!
//! Usage: `store_overhead [--runs N] [--reps R] [--records K]`

use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::engine::NullSink;
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::{Engine, WorkPlan};
use avfi_server::cli::Args;
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_store::{recover_file, Journal, JournalRecord};
use avfi_trace::TraceLevel;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

fn bench_plan(runs_per_scenario: usize) -> WorkPlan {
    let scenario = |seed: u64| {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(seed)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(15.0)
            .min_route_length(50.0)
            .build()
    };
    let campaign = |seed: u64, fault: FaultSpec| {
        CampaignConfig::builder(vec![scenario(seed), scenario(seed + 1)])
            .runs_per_scenario(runs_per_scenario)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build()
    };
    WorkPlan::new()
        .with_study("baseline", vec![campaign(6400, FaultSpec::None)])
        .with_study(
            "output-delay",
            vec![campaign(
                6450,
                FaultSpec::Timing(TimingFault::OutputDelay { frames: 8 }),
            )],
        )
}

fn fresh_dir(tag: &str, rep: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "avfi-store-bench-{tag}-{rep}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

#[derive(Serialize)]
struct Record {
    bench: &'static str,
    description: String,
    total_runs: usize,
    reps: usize,
    plain_ms: f64,
    journaled_ms: f64,
    overhead_pct: f64,
    recovery: Recovery,
    notes: &'static str,
}

#[derive(Serialize)]
struct Recovery {
    records: usize,
    journal_bytes: u64,
    recover_ms: f64,
    records_per_sec: f64,
}

fn main() {
    let mut args = Args::from_env();
    let runs_per_scenario = args.value("--runs").unwrap_or(12);
    let reps = args.value("--reps").unwrap_or(3);
    let records = args.value("--records").unwrap_or(10_000);
    args.finish();

    let plan = bench_plan(runs_per_scenario);
    let total_runs = plan.total_runs();
    let engine = Engine::new().workers(2);

    eprintln!("[store_overhead] {total_runs} runs x {reps} reps, plain vs journaled");
    let golden = serde_json::to_string(&engine.execute(&plan)).expect("golden serializes");

    let mut plain = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let results = engine.execute(&plan);
        plain.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            serde_json::to_string(&results).expect("results serialize"),
            golden
        );
    }

    let mut journaled = Vec::with_capacity(reps);
    for rep in 0..reps {
        let dir = fresh_dir("spool", rep);
        let started = Instant::now();
        let results = avfi_store::run_spooled(&engine, &plan, &dir, TraceLevel::Off, &NullSink)
            .expect("spooled run");
        journaled.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            serde_json::to_string(&results).expect("results serialize"),
            golden,
            "journaled run must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    let plain_ms = median(&mut plain);
    let journaled_ms = median(&mut journaled);
    let overhead_pct = (journaled_ms - plain_ms) / plain_ms * 100.0;

    eprintln!("[store_overhead] recovery of a {records}-record journal");
    let dir = fresh_dir("recover", 0);
    let path = dir.join("plan-1.avj");
    let result_json = {
        // One real run result, reused for every record: recovery cost is
        // per-byte, not per-distinct-payload.
        let solo = engine.execute(&bench_plan(1));
        serde_json::to_string(&solo[0].campaigns[0].runs()[0]).expect("run serializes")
    };
    {
        let mut journal = Journal::create(&path).expect("create journal");
        journal
            .append(&JournalRecord::PlanSubmitted {
                plan_json: serde_json::to_string(&plan).expect("plan serializes"),
                trace_level: "off".into(),
            })
            .expect("append submission");
        for i in 0..records {
            journal
                .append(&JournalRecord::RunCompleted {
                    flat_index: i as u64,
                    result_json: result_json.clone(),
                })
                .expect("append record");
        }
    }
    let journal_bytes = std::fs::metadata(&path).expect("journal metadata").len();
    let started = Instant::now();
    let (recovered, _valid) = recover_file(&path).expect("recover");
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovered.len(), records + 1, "all records must recover");
    let _ = std::fs::remove_dir_all(&dir);

    let record = Record {
        bench: "store_overhead",
        description: format!(
            "wall-clock of the identical {total_runs}-run deterministic plan, plain \
             Engine::execute vs avfi_store::run_spooled journaling every run into a fresh \
             spool (byte-identity of the results asserted each rep, median of {reps}); plus \
             a cold recover_file pass over a {records}-record journal (read + length and \
             FNV-checksum validation of every record), the per-plan cost of a daemon \
             restart with --spool"
        ),
        total_runs,
        reps,
        plain_ms,
        journaled_ms,
        overhead_pct,
        recovery: Recovery {
            records: records + 1,
            journal_bytes,
            recover_ms,
            records_per_sec: (records as f64 + 1.0) / (recover_ms / 1e3),
        },
        notes: "the journal adds one small buffered write_all + flush per ~10 ms run, so the \
                overhead is file-system noise rather than a tax that scales with plan size; \
                recovery is a single sequential read with 12 bytes of framing per record, so \
                restart cost stays far below one run's wall-clock even for journals orders of \
                magnitude larger than any real campaign",
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&record).expect("record serializes")
    );
}
