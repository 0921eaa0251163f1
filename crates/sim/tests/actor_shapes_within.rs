//! `World::actor_shapes_within` against the full scan, `World::actor_shapes`.
//!
//! Over random centres and ranges in a dense 4×4 town, at decision
//! horizons 1 and 8 (where the actor index holds positions up to eight
//! ticks stale), the culled list must hold every actor whose centre lies
//! within the range plus its own half-extent, and it must be a
//! subsequence of the full scan, in its order. Both the LIDAR's obstacle
//! cull and the expert's probe cull rest on these two properties.

use avfi_sim::math::Vec2;
use avfi_sim::physics::{CollisionShape, VehicleControl};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_sim::world::World;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn dense_world(seed: u64, horizon: u32) -> World {
    let mut town = TownSpec::grid(4, 4);
    town.signalized = false;
    let scenario = Scenario::builder(town)
        .seed(seed)
        .npc_vehicles(30)
        .pedestrians(30)
        .pedestrian_cross_rate(0.008)
        .decision_horizon(horizon)
        .time_budget(60.0)
        .build();
    World::from_scenario(&scenario)
}

/// The shape's centre and the largest distance from it to a point of it.
fn centre_and_half_extent(shape: &CollisionShape) -> (Vec2, f64) {
    match shape {
        CollisionShape::Box(o) => (o.pose.position, o.half_length.hypot(o.half_width)),
        CollisionShape::Circle { center, radius } => (*center, *radius),
        CollisionShape::Fixed(_) => unreachable!("actors have no fixed shapes"),
    }
}

/// Whether `part` is a subsequence of `whole`, in order.
fn is_subsequence(part: &[CollisionShape], whole: &[CollisionShape]) -> bool {
    let mut rest = whole.iter();
    part.iter().all(|shape| rest.any(|s| s == shape))
}

#[test]
fn culled_shapes_cover_the_range_and_keep_the_full_scan_order() {
    let mut rng = StdRng::seed_from_u64(0xC0FF);
    let (mut keys, mut culled) = (Vec::new(), Vec::new());
    let (mut culled_total, mut full_total) = (0usize, 0usize);
    for horizon in [1u32, 8] {
        for seed in [3u64, 17] {
            let mut world = dense_world(seed, horizon);
            let bounds = *world.map().bounds();
            for frame in 0..240 {
                let full = world.actor_shapes();
                for _ in 0..4 {
                    let center = Vec2::new(
                        rng.random_range(bounds.min.x..bounds.max.x),
                        rng.random_range(bounds.min.y..bounds.max.y),
                    );
                    let range = rng.random_range(0.0..60.0);
                    world.actor_shapes_within(center, range, &mut keys, &mut culled);
                    let at = format!("horizon {horizon} seed {seed} frame {frame}");
                    assert!(is_subsequence(&culled, &full), "{at}: not a subsequence");
                    for shape in &full {
                        let (c, half_extent) = centre_and_half_extent(shape);
                        if c.distance(center) <= range + half_extent {
                            assert!(culled.contains(shape), "{at}: {shape:?} culled");
                        }
                    }
                    culled_total += culled.len();
                    full_total += full.len();
                }
                let steer = (frame as f64 * 0.05).sin() * 0.3;
                world.step(VehicleControl::new(steer, 0.5, 0.0));
            }
        }
    }
    assert!(culled_total > 0, "no query found an actor");
    assert!(culled_total < full_total / 2, "the index culled little");
}
