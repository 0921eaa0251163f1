//! Figure 2 reproduction: mission success rate for an autonomous vehicle
//! with different input fault injectors.
//!
//! Usage: `cargo run --release -p avfi-bench --bin fig2_mission_success
//! [--quick] [--workers N] [--progress]
//! [--trace DIR] [--trace-level off|summary|blackbox] [--shrink DIR]
//! [--spool DIR]`

use avfi_bench::experiments::{export_json, input_fault_study, render_fig2, study_args};

fn main() {
    let (scale, opts) = study_args();
    eprintln!("[fig2] scale = {scale:?}, exec = {opts:?}");
    let results = input_fault_study(scale, &opts);
    println!("{}", render_fig2(&results));
    export_json("fig2_mission_success", &results);
}
