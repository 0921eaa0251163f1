//! Adaptive campaign: deterministic Bayesian fault-space search.
//!
//! Replaces the uniform fault grid with a Thompson-sampling planner: a
//! Beta-Bernoulli posterior per (scenario × channel × magnitude × onset)
//! arm, batches proposed where failure probability concentrates, a fixed
//! total-run budget instead of exhaustive sweeps. The emitted trajectory
//! JSON (per-batch arms, outcomes, posterior summaries, final report) is
//! byte-identical for any `--workers` count; captured failure traces go
//! to `--trace DIR` in the standard `run-{i:06}.avtr` layout, so the
//! `triage` and `shrink` tools consume them directly.
//!
//! Usage: `cargo run --release -p avfi-bench --bin adaptive -- [--quick]
//! [--budget N] [--batch N] [--seed S] [--workers N] [--trace DIR]
//! [--out FILE]`
//!
//! Without `--out`, the trajectory lands in `results/adaptive.json`
//! (honoring `AVFI_RESULTS_DIR`).

use avfi_bench::experiments::{
    adaptive_defaults, adaptive_space, export_json, render_adaptive, run_adaptive_study, Scale,
};
use avfi_server::cli::Args;
use avfi_trace::write_trace_file;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let scale = Scale::parse(&mut args);
    let mut config = adaptive_defaults(scale);
    config.budget = args.value("--budget").unwrap_or(config.budget);
    config.batch = args.value("--batch").unwrap_or(config.batch);
    config.seed = args.value("--seed").unwrap_or(config.seed);
    let workers = args.value("--workers").unwrap_or(0);
    let trace: Option<PathBuf> = args.value("--trace");
    let out: Option<PathBuf> = args.value("--out");
    if config.budget == 0 || config.batch == 0 {
        args.refuse("--budget and --batch must be positive");
    }
    args.finish();

    let space = adaptive_space(scale);
    eprintln!(
        "[adaptive] scale = {scale:?}, config = {config:?}, lattice = {} arms",
        space.arms().len()
    );
    let outcome = run_adaptive_study(&space, config, workers);

    println!("{}", render_adaptive(&outcome.trajectory));

    if let Some(dir) = &trace {
        match std::fs::create_dir_all(dir) {
            Ok(()) => {
                let mut written = 0usize;
                for (pull_index, trace) in &outcome.traces {
                    match write_trace_file(dir, *pull_index, trace) {
                        Ok(_) => written += 1,
                        Err(e) => eprintln!("[adaptive] trace write failed: {e}"),
                    }
                }
                eprintln!(
                    "[adaptive] {written} failure trace(s) → {} (triage/shrink-ready)",
                    dir.display()
                );
            }
            Err(e) => eprintln!("[adaptive] cannot create {}: {e}", dir.display()),
        }
    }

    match out {
        Some(path) => {
            let json =
                serde_json::to_string_pretty(&outcome.trajectory).expect("trajectory serializes");
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("[adaptive] cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("[adaptive] wrote {}", path.display());
        }
        None => export_json("adaptive", &outcome.trajectory),
    }
    ExitCode::SUCCESS
}
