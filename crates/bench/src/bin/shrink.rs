//! Trace-driven failure minimization: delta-debug failed flight-recorder
//! traces into minimal, replay-verified repros.
//!
//! Usage: `cargo run --release -p avfi-bench --bin shrink --
//! [--workers N] [--weights PATH] [--out DIR] [--max-iterations N]
//! <TRACE>...` where each `TRACE` is a `.avtr` file or a directory of
//! them. For every failed trace the shrinker walks the reduction lattice
//! (fewer NPCs/pedestrians, shorter budget/route, simpler weather, later
//! and narrower triggers, smaller fault magnitudes), keeping a reduction
//! only when the run still fails in the same triage class and the
//! reduced run replays bit-identically. Output per trace, under `--out`
//! (default `minimized/`): `minimal-{i:06}.json` (the repro) and
//! `shrink-{i:06}.json` (the full candidate log). The result is
//! byte-identical for any `--workers` count.
//!
//! Exit status is nonzero when no trace could be minimized.

use avfi_bench::experiments::{read_weights, shrink_traces, trace_files};
use avfi_core::shrink::ShrinkConfig;
use avfi_server::cli::Args;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let workers = args.value("--workers").unwrap_or(0);
    let explicit_weights = read_weights(&mut args);
    let out_dir = args
        .value("--out")
        .unwrap_or_else(|| PathBuf::from("minimized"));
    let config = ShrinkConfig {
        max_iterations: args
            .value("--max-iterations")
            .unwrap_or(ShrinkConfig::default().max_iterations),
    };
    let inputs: Vec<PathBuf> = args.positionals("TRACE");
    let files = trace_files(&inputs)
        .map_err(|e| args.refuse(e))
        .unwrap_or_default();
    args.finish();

    let (minimized, skipped) = shrink_traces(
        &files,
        &out_dir,
        workers,
        &config,
        explicit_weights.as_ref(),
    );
    println!(
        "[shrink] {minimized}/{} trace(s) minimized ({skipped} skipped) → {}",
        files.len(),
        out_dir.display()
    );
    if minimized > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
