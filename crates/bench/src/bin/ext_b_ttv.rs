//! Extension B: Time to Traffic Violation (TTV).
//!
//! The paper defines TTV in §II: "the time between a fault injection and
//! its manifestation as a traffic violation. Higher values of TTV imply
//! that the system has more time to detect and correct its state." This
//! harness injects each input fault mid-mission (t₀ = 10 s) and measures
//! the TTV distribution.
//!
//! Usage: `cargo run --release -p avfi-bench --bin ext_b_ttv [--quick]
//! [--workers N] [--progress]
//! [--trace DIR] [--trace-level off|summary|blackbox] [--spool DIR]`

use avfi_bench::experiments::{export_json, run_study, study_args};
use avfi_core::fault::input::{ImageFault, InputFault};
use avfi_core::fault::FaultSpec;
use avfi_core::{metrics, report, stats};

fn main() {
    let (scale, opts) = study_args();
    eprintln!("[ext-b] scale = {scale:?}, exec = {opts:?}");
    // Inject 10 s into the mission (frame 150 at 15 FPS).
    let injection_frame = 150;
    let specs: Vec<FaultSpec> = ImageFault::paper_suite()
        .into_iter()
        .map(|m| FaultSpec::Input(InputFault::from_frame(m, injection_frame)))
        .collect();
    let results = run_study("ttv", specs, scale, &opts);
    let mut table = report::Table::new(vec![
        "Injector (t0=10s)",
        "runs w/ violation",
        "median TTV (s)",
        "mean TTV (s)",
        "min",
        "max",
    ]);
    for result in &results {
        let ttvs = metrics::ttv_distribution(result.runs());
        let s = stats::Summary::of(&ttvs);
        table.row(vec![
            result.fault.clone(),
            format!("{}/{}", ttvs.len(), result.runs().len()),
            format!("{:.2}", s.median),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.min),
            format!("{:.2}", s.max),
        ]);
    }
    println!(
        "Extension B — Time to traffic violation (injection at t0 = 10 s)\n\n{}",
        table.render()
    );
    export_json("ext_b_ttv", &results);
}
