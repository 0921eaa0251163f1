//! Deterministic run replay: re-execute recorded runs from their flight
//! recorder traces and verify bit-identity frame by frame.
//!
//! Usage: `cargo run --release -p avfi-bench --bin replay -- <TRACE>...`
//! where each `TRACE` is a `.avtr` file or a directory of them. Options:
//!
//! * `--weights PATH` — serialized IL-CNN weights for neural traces
//!   (defaults to the cached deterministic training run when needed).
//! * `--json` — print one machine-readable JSON array to stdout (per
//!   trace: match/diverged/error status, frames and events checked,
//!   first divergent frame) instead of the human lines.
//!
//! Exit status is nonzero when any trace fails to decode, cannot be
//! replayed, or replays with a divergence.

use avfi_bench::experiments::{read_weights, trace_files, trace_weights};
use avfi_core::replay::{replay_trace, ReplayRecord, ReplayVerdict};
use avfi_server::cli::Args;
use avfi_trace::read_trace_file;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let explicit_weights = read_weights(&mut args);
    let json = args.flag("--json");
    let inputs: Vec<PathBuf> = args.positionals("TRACE");
    let files = trace_files(&inputs)
        .map_err(|e| args.refuse(e))
        .unwrap_or_default();
    args.finish();

    let (mut matched, mut failed) = (0usize, 0usize);
    let mut records: Vec<ReplayRecord> = Vec::new();
    for path in &files {
        let file = path.display().to_string();
        let trace = match read_trace_file(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("[replay] {e}");
                records.push(ReplayRecord::from_error(&file, &e));
                failed += 1;
                continue;
            }
        };
        let weights = trace_weights(&trace, explicit_weights.as_ref());
        match replay_trace(&trace, weights.as_deref().map(Vec::as_slice)) {
            Ok(verdict) => {
                records.push(ReplayRecord::from_verdict(&file, &verdict));
                match verdict {
                    ReplayVerdict::Match {
                        frames_checked,
                        events_checked,
                    } => {
                        matched += 1;
                        if !json {
                            println!(
                                "{file}: MATCH ({frames_checked} frames, \
                                 {events_checked} events bit-identical)"
                            );
                        }
                    }
                    ReplayVerdict::Diverged(d) => {
                        failed += 1;
                        if !json {
                            println!("{file}: DIVERGED at {d}");
                        }
                    }
                }
            }
            Err(e) => {
                records.push(ReplayRecord::from_error(&file, &e));
                failed += 1;
                if !json {
                    println!("{file}: ERROR {e}");
                }
            }
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&records).expect("records serialize")
        );
    }
    eprintln!(
        "[replay] {matched}/{} traces replayed bit-identically",
        files.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
