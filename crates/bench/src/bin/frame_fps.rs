//! Closed-loop frame-rate benchmark: the `observe → drive_frame → step`
//! loop every campaign run executes, measured end to end with the expert
//! agent on a 2×2 town. As in a campaign run, the world computes only the
//! sensors the driver reads (the expert's none plus what the fault
//! corrupts). Emits one JSON object on stdout (the record format stored in
//! `BENCH_*.json` at the repo root).
//!
//! `--fault` injects a fault plan into the loop to measure the injection
//! hot path itself: `gaussian` pays the camera render plus the per-frame
//! image copy and noise pass, `gps` is a scalar-only plan (camera model
//! `None`) that corrupts GPS without ever touching the image — the
//! measured gap is the cost the optional camera model removes for
//! scalar-only campaigns.
//!
//! Usage: `cargo run --release -p avfi-bench --bin frame_fps [frames]
//! [--fault none|gaussian|gps]`

use avfi_agent::Driver;
use avfi_core::fault::input::{GpsFault, ImageFault, InputFault};
use avfi_core::fault::FaultSpec;
use avfi_core::harness::AvDriver;
use avfi_server::cli::Args;
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_sim::world::World;
use std::time::Instant;

const WARMUP_FRAMES: u64 = 200;

fn main() {
    let mut args = Args::from_env();
    let fault = match args.value::<String>("--fault").as_deref() {
        None | Some("none") => FaultSpec::None,
        Some("gaussian") => FaultSpec::Input(InputFault::always(ImageFault::gaussian(0.08))),
        Some("gps") => FaultSpec::Input(InputFault::scalar_only().with_gps(GpsFault {
            bias_x: 3.0,
            bias_y: -2.0,
            sigma: 1.0,
        })),
        Some(other) => {
            args.refuse(format!("--fault {other:?}: expected none, gaussian or gps"));
            FaultSpec::None
        }
    };
    let frames: u64 = args.positional("FRAMES").unwrap_or(5000);
    args.finish();
    let label = fault.label();
    let scenario = Scenario::builder(TownSpec::grid(2, 2))
        .seed(5)
        .npc_vehicles(2)
        .pedestrians(2)
        .time_budget(1e9)
        .build();
    let mut world = World::from_scenario(&scenario);
    let mut driver = AvDriver::expert(fault, 11);
    world.set_sensor_mask(driver.reads());

    let mut obs = world.observe();
    let mut frame_loop = |n: u64| {
        for _ in 0..n {
            let control = driver.drive_frame(&obs, &world);
            world.step(control);
            world.observe_into(&mut obs);
        }
    };
    frame_loop(WARMUP_FRAMES);
    let start = Instant::now();
    frame_loop(frames);
    let secs = start.elapsed().as_secs_f64();

    println!(
        "{{\"bench\": \"frame_loop_fps\", \"agent\": \"expert\", \"town\": \"2x2\", \
         \"fault\": \"{label}\", \"frames\": {frames}, \"seconds\": {secs:.6}, \"fps\": {:.1}}}",
        frames as f64 / secs
    );
}
