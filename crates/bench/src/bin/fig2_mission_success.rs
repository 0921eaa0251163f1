//! Figures 2 and 3 and Extension A from one campaign run: the IL agent
//! under the six input fault injectors, tabulated as mission success rate
//! (Figure 2), the violations-per-km distribution (Figure 3), and the §II
//! accidents-per-km metric the paper defines but does not plot
//! (Extension A).
//!
//! Usage: `cargo run --release -p avfi-bench --bin fig2_mission_success
//! [--quick] [--workers N] [--progress]
//! [--trace DIR] [--trace-level off|summary|blackbox] [--spool DIR]`

use avfi_bench::experiments::{
    export_json, input_fault_specs, render_apk, render_fig2, render_fig3, run_study, study_args,
};

fn main() {
    let (scale, opts) = study_args();
    eprintln!("[fig2] scale = {scale:?}, exec = {opts:?}");
    let results = run_study("input-faults", input_fault_specs(), scale, &opts);
    println!("{}", render_fig2(&results));
    println!("{}", render_fig3(&results));
    println!("{}", render_apk(&results));
    export_json("fig2_mission_success", &results);
}
