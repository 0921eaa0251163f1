//! Render the ego camera as ASCII art while the expert drives — a
//! "dashcam" view of the simulator, with and without an injected camera
//! fault. Useful for eyeballing what the IL network actually sees.
//!
//! ```text
//! cargo run --release --example dashcam
//! ```

use avfi::agent::ExpertDriver;
use avfi::fi::fault::input::{ImageFault, ImageFaultLayout};
use avfi::sim::rng::stream_rng;
use avfi::sim::scenario::{Scenario, TownSpec};
use avfi::sim::sensors::PixelFootprint;
use avfi::sim::world::World;

fn main() {
    let mut town = TownSpec::grid(3, 3);
    town.signalized = false;
    let scenario = Scenario::builder(town)
        .seed(5)
        .npc_vehicles(3)
        .pedestrians(3)
        .time_budget(60.0)
        .build();
    let mut world = World::from_scenario(&scenario);
    let mut expert = ExpertDriver::new();
    let mut rng = stream_rng(5, 99);
    let fault = ImageFault::water_drop(5, 0.10);
    let mut layout: Option<ImageFaultLayout> = None;

    for frame in 0..90u32 {
        let obs = world.observe();
        if frame % 30 == 0 {
            let clean = obs.sensors.image.resized(56, 20);
            let mut dirty = obs.sensors.image.clone();
            let l = layout.get_or_insert_with(|| {
                ImageFaultLayout::sample(&fault, dirty.width(), dirty.height(), &mut rng)
            });
            let whole = PixelFootprint::whole(dirty.width(), dirty.height());
            fault.apply(&mut dirty, l, &whole, &mut rng);
            let dirty = dirty.resized(56, 20);
            println!(
                "t = {:>5.1} s | speed {:>4.1} m/s | command {:?} | goal {:>4.0} m",
                world.time(),
                obs.sensors.speed,
                obs.command,
                obs.truth.goal_distance
            );
            let left: Vec<&str> = Vec::new();
            let _ = left;
            let a = clean.to_ascii();
            let b = dirty.to_ascii();
            println!("{:^58} {:^58}", "clean camera", "WaterDrop injected");
            for (la, lb) in a.lines().zip(b.lines()) {
                println!("{la}  {lb}");
            }
            println!();
        }
        let control = expert.control_for(&world);
        world.step(control);
    }
    println!(
        "drove {:.0} m with {} violations",
        world.odometer(),
        world.monitor().count()
    );
}
