//! Figure 4 reproduction: distribution of violations per km with
//! increasing output delay between the ADA and actuation.
//!
//! The simulation runs at 15 FPS, so a delay of 30 frames corresponds to
//! 2 s between decision and actuation — the paper's headline observation.
//!
//! Usage: `cargo run --release -p avfi-bench --bin fig4_output_delay
//! [--quick] [--workers N] [--progress]
//! [--trace DIR] [--trace-level off|summary|blackbox] [--spool DIR]`

use avfi_bench::experiments::{
    export_json, output_delay_specs, render_fig4, run_study, study_args,
};

fn main() {
    let (scale, opts) = study_args();
    eprintln!("[fig4] scale = {scale:?}, exec = {opts:?}");
    let results = run_study("output-delay", output_delay_specs(), scale, &opts);
    println!("{}", render_fig4(&results));
    export_json("fig4_output_delay", &results);
}
