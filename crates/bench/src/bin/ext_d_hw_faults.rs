//! Extension D: hardware fault sweep on commands and sensor scalars.
//!
//! §II: "AVFI injects hardware faults by injecting single-bit,
//! multiple-bit, and stuck-at faults \[…\]. For example, AVFI can
//! intercept and corrupt a control command from the IL-CNN and then
//! forward it to the server."
//!
//! Usage: `cargo run --release -p avfi-bench --bin ext_d_hw_faults
//! [--quick] [--workers N] [--progress]
//! [--trace DIR] [--trace-level off|summary|blackbox] [--spool DIR]`

use avfi_bench::experiments::{export_json, run_study, study_args};
use avfi_core::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
use avfi_core::fault::FaultSpec;
use avfi_core::trigger::Trigger;
use avfi_core::{metrics, report, stats};

fn main() {
    let (scale, opts) = study_args();
    eprintln!("[ext-d] scale = {scale:?}, exec = {opts:?}");
    let mut specs = vec![FaultSpec::None];
    // Transient sign-bit flips on each command, 10% of frames.
    for target in [
        HardwareTarget::ControlSteer,
        HardwareTarget::ControlThrottle,
        HardwareTarget::ControlBrake,
    ] {
        specs.push(FaultSpec::Hardware(HardwareFault {
            target,
            model: BitFaultModel::SingleBitFlip { bit: 63 },
            trigger: Trigger::Bernoulli { p: 0.1 },
        }));
    }
    // Permanent stuck-at faults.
    specs.push(FaultSpec::Hardware(HardwareFault::always(
        HardwareTarget::ControlSteer,
        BitFaultModel::StuckAt { value: 0.4 },
    )));
    specs.push(FaultSpec::Hardware(HardwareFault::always(
        HardwareTarget::SensorSpeed,
        BitFaultModel::StuckAt { value: 0.0 },
    )));
    // Multi-bit exponent corruption on throttle, intermittent.
    specs.push(FaultSpec::Hardware(HardwareFault {
        target: HardwareTarget::ControlThrottle,
        model: BitFaultModel::MultiBitFlip { bits: vec![62, 61] },
        trigger: Trigger::Bernoulli { p: 0.05 },
    }));
    let results = run_study("hw-faults", specs, scale, &opts);
    let mut table = report::Table::new(vec![
        "Hardware Fault",
        "MSR (%)",
        "median VPK",
        "mean VPK",
        "aggregate APK",
    ]);
    for result in &results {
        let vpk = metrics::vpk_distribution(result.runs());
        let s = stats::Summary::of(&vpk);
        table.row(vec![
            result.fault.clone(),
            format!("{:.1}", metrics::mission_success_rate(result.runs())),
            format!("{:.2}", s.median),
            format!("{:.2}", s.mean),
            format!("{:.2}", metrics::aggregate_apk(result.runs())),
        ]);
    }
    println!(
        "Extension D — Hardware faults on commands and sensor scalars\n\n{}",
        table.render()
    );
    export_json("ext_d_hw_faults", &results);
}
