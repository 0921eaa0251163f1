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
//! [--trace DIR] [--trace-level off|summary|blackbox] [--shrink DIR]
//! [--spool DIR]` or `ext_b_ttv [--quick] [--workers N] --adaptive BUDGET`
//!
//! With `--adaptive BUDGET`, the uniform injector grid is replaced by
//! the Thompson-sampling planner over the same mid-mission onset: the
//! fixed run budget is spent where failures concentrate instead of
//! uniformly, and the trajectory is exported as `ext_b_adaptive.json`.

use avfi_bench::experiments::{
    adaptive_space, export_json, neural_agent, render_adaptive, run_adaptive_study, run_study,
    ExecOptions, Scale,
};
use avfi_core::adaptive::AdaptiveConfig;
use avfi_core::fault::input::{ImageFault, InputFault};
use avfi_core::fault::FaultSpec;
use avfi_core::{metrics, report, stats};
use avfi_server::cli::Args;

/// Adaptive-mode ext-b: the same fault-space search as the `adaptive`
/// bin but pinned to the mid-mission onset (t₀ = 10 s, frame 150) this
/// extension studies.
fn run_adaptive_mode(scale: Scale, workers: usize, budget: usize) {
    let mut space = adaptive_space(scale);
    space.onsets = vec![150];
    let config = AdaptiveConfig {
        budget,
        batch: 8,
        seed: 2018,
    };
    eprintln!(
        "[ext-b] adaptive mode: {} arms, budget {budget}",
        space.arms().len()
    );
    let outcome = run_adaptive_study(&space, config, workers);
    println!("Extension B (adaptive) — Bayesian fault-space search at t0 = 10 s\n");
    println!("{}", render_adaptive(&outcome.trajectory));
    export_json("ext_b_adaptive", &outcome.trajectory);
}

fn main() {
    let mut args = Args::from_env();
    let scale = Scale::parse(&mut args);
    if let Some(budget) = args.value("--adaptive") {
        let workers = args.value("--workers").unwrap_or(0);
        args.finish();
        run_adaptive_mode(scale, workers, budget);
        return;
    }
    let opts = ExecOptions::parse(&mut args);
    args.finish();
    eprintln!("[ext-b] scale = {scale:?}, exec = {opts:?}");
    // Inject 10 s into the mission (frame 150 at 15 FPS).
    let injection_frame = 150;
    let specs: Vec<FaultSpec> = ImageFault::paper_suite()
        .into_iter()
        .map(|m| FaultSpec::Input(InputFault::from_frame(m, injection_frame)))
        .collect();
    let results = run_study("ttv", neural_agent(), specs, scale, &opts);
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
