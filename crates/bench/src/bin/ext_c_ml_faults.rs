//! Extension C: machine-learning fault sweep.
//!
//! §II: "AVFI injects faults into the neural network by adding noise into
//! the parameters of the machine learning model (e.g., weights of the
//! neural network), which is modeled on real-world hardware failures."
//! This harness sweeps weight-noise σ and weight bit-flip counts on the
//! IL-CNN and reports MSR and VPK per configuration.
//!
//! Usage: `cargo run --release -p avfi-bench --bin ext_c_ml_faults
//! [--quick] [--workers N] [--progress]
//! [--trace DIR] [--trace-level off|summary|blackbox] [--spool DIR]`

use avfi_bench::experiments::{export_json, run_study, study_args};
use avfi_core::fault::ml::MlFault;
use avfi_core::fault::FaultSpec;
use avfi_core::localizer::ParamSelector;
use avfi_core::{metrics, report, stats};

fn main() {
    let (scale, opts) = study_args();
    eprintln!("[ext-c] scale = {scale:?}, exec = {opts:?}");
    let mut specs = vec![FaultSpec::None];
    for sigma in [0.02, 0.05, 0.1, 0.2] {
        specs.push(FaultSpec::Ml(MlFault::WeightNoise {
            sigma,
            fraction: 1.0,
            selector: ParamSelector::All,
        }));
    }
    for flips in [1usize, 5, 20] {
        specs.push(FaultSpec::Ml(MlFault::WeightBitFlip {
            flips,
            selector: ParamSelector::WeightsOnly,
        }));
    }
    let results = run_study("ml-faults", specs, scale, &opts);
    let mut table = report::Table::new(vec!["ML Fault", "MSR (%)", "median VPK", "mean VPK"]);
    for result in &results {
        let vpk = metrics::vpk_distribution(result.runs());
        let s = stats::Summary::of(&vpk);
        table.row(vec![
            result.fault.clone(),
            format!("{:.1}", metrics::mission_success_rate(result.runs())),
            format!("{:.2}", s.median),
            format!("{:.2}", s.mean),
        ]);
    }
    println!(
        "Extension C — IL-CNN parameter faults (weight noise and bit flips)\n\n{}",
        table.render()
    );
    export_json("ext_c_ml_faults", &results);
}
