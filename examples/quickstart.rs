//! Quickstart: run one fault-free mission and one fault-injected mission,
//! then compare the resilience metrics — the 60-second tour of AVFI.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use avfi::fi::campaign::{run_single, AgentSpec};
use avfi::fi::fault::input::{ImageFault, InputFault};
use avfi::fi::fault::FaultSpec;
use avfi::fi::metrics;
use avfi::sim::scenario::{Scenario, TownSpec};

fn main() {
    // 1. Describe a scenario: a 3×3-block town, light traffic, a sampled
    //    mission route, 120 s time budget. Everything is derived from the
    //    seed.
    let mut town = TownSpec::grid(3, 3);
    town.signalized = false;
    let scenario = Scenario::builder(town)
        .seed(2024)
        .npc_vehicles(3)
        .pedestrians(3)
        .time_budget(120.0)
        .build();

    // 2. Drive it with the rule-based expert, fault-free.
    let clean = run_single(&scenario, 0, 0, &FaultSpec::None, &AgentSpec::Expert);
    println!(
        "fault-free expert:  success={} distance={:.2} km violations={} (VPK {:.2})",
        clean.outcome.is_success(),
        clean.distance_km,
        clean.violations.len(),
        metrics::violations_per_km(&clean),
    );

    // 3. Same mission, but AVFI injects salt-and-pepper noise into the
    //    camera for the whole run. The expert drives from ground truth, so
    //    camera faults cannot hurt it — the right victim is the camera-in
    //    /control-out neural agent (see the `il_agent_campaign` example).
    let fault = FaultSpec::Input(InputFault::always(ImageFault::salt_pepper(0.04)));
    let noisy = run_single(&scenario, 0, 0, &fault, &AgentSpec::Expert);
    println!(
        "S&P on expert:      success={} distance={:.2} km violations={} (oracle is immune)",
        noisy.outcome.is_success(),
        noisy.distance_km,
        noisy.violations.len(),
    );

    // 4. The full campaign machinery, metrics (MSR/VPK/APK/TTV), and the
    //    neural agent under all four fault classes live in the other
    //    examples and in avfi-bench: `cargo run -p avfi-bench --bin
    //    fig2_mission_success` prints MSR, VPK and APK from one campaign run.
    println!("next: cargo run --release --example il_agent_campaign");
}
