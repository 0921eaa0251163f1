//! Extension A: Accidents per KM (APK) under the input fault injectors.
//!
//! The paper defines APK in §II ("collisions with pedestrians/cars/etc.
//! per kilometer driven") but does not plot it; this harness tabulates it
//! for the same campaigns as Figures 2/3.
//!
//! Usage: `cargo run --release -p avfi-bench --bin ext_a_apk [--quick]
//! [--workers N] [--progress]
//! [--trace DIR] [--trace-level off|summary|blackbox] [--shrink DIR]
//! [--spool DIR]`

use avfi_bench::experiments::{export_json, input_fault_study, study_args};
use avfi_core::{metrics, report, stats};

fn main() {
    let (scale, opts) = study_args();
    eprintln!("[ext-a] scale = {scale:?}, exec = {opts:?}");
    let results = input_fault_study(scale, &opts);
    let mut table = report::Table::new(vec![
        "Input Fault Injector",
        "aggregate APK",
        "median APK",
        "max APK",
        "collisions",
    ]);
    for r in results.iter() {
        let d = metrics::apk_distribution(r.runs());
        let s = stats::Summary::of(&d);
        let collisions: usize = r
            .runs()
            .iter()
            .flat_map(|run| &run.violations)
            .filter(|v| v.kind.is_accident())
            .count();
        table.row(vec![
            r.fault.clone(),
            format!("{:.2}", metrics::aggregate_apk(r.runs())),
            format!("{:.2}", s.median),
            format!("{:.2}", s.max),
            collisions.to_string(),
        ]);
    }
    println!(
        "Extension A — Accidents per km under input fault injectors\n\n{}",
        table.render()
    );
    export_json("ext_a_apk", &results);
}
