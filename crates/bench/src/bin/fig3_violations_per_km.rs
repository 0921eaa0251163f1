//! Figure 3 reproduction: distribution of traffic violations per km driven
//! with different input fault injectors.
//!
//! Usage: `cargo run --release -p avfi-bench --bin fig3_violations_per_km
//! [--quick] [--workers N] [--progress]
//! [--trace DIR] [--trace-level off|summary|blackbox] [--shrink DIR]
//! [--spool DIR]`

use avfi_bench::experiments::{export_json, input_fault_study, render_fig3, study_args};

fn main() {
    let (scale, opts) = study_args();
    eprintln!("[fig3] scale = {scale:?}, exec = {opts:?}");
    let results = input_fault_study(scale, &opts);
    println!("{}", render_fig3(&results));
    export_json("fig3_violations_per_km", &results);
}
