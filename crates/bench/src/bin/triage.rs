//! Failure triage over a directory of flight-recorder traces: which
//! injection causally preceded each first violation, fault-activation
//! latency, and violation-kind histograms, grouped per campaign.
//!
//! Usage: `cargo run --release -p avfi-bench --bin triage -- <TRACE-DIR>
//! [--out FILE.json] [--cross FILE.json]` — prints the per-campaign
//! triage tables (plus the cross-campaign failure-class view) and
//! optionally writes the machine-readable report (`--out`,
//! golden-diff friendly) and the cross-campaign grouping (`--cross`):
//! identical (outcome, first violation, causal channel) classes
//! aggregated across every campaign in the directory.

use avfi_core::triage::TriageReport;
use avfi_server::cli::Args;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let out: Option<PathBuf> = args.value("--out");
    let cross: Option<PathBuf> = args.value("--cross");
    let dir: Option<PathBuf> = args.positional("TRACE-DIR");
    if dir.is_none() {
        args.refuse("missing TRACE-DIR");
    }
    args.finish();
    let dir = dir.expect("finish refuses a missing TRACE-DIR");

    let report = match TriageReport::from_dir(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[triage] cannot triage {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[triage] {} traces read, {} campaign(s) with failures",
        report.traces_read,
        report.campaigns.len()
    );
    print!("{}", report.render());
    if let Some(path) = out {
        let json = report.to_json().expect("report serializes");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("[triage] cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("[triage] wrote {}", path.display());
    }
    if let Some(path) = cross {
        let groups = report.cross_campaign();
        let json = serde_json::to_string_pretty(&groups).expect("groups serialize");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("[triage] cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "[triage] wrote {} ({} cross-campaign class(es))",
            path.display(),
            groups.len()
        );
    }
    ExitCode::SUCCESS
}
