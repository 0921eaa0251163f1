//! Pins the whole traffic history bit for bit. Dense 4×4 towns, signalized
//! and not, at decision horizons 1 and 8: an ego follows its route by
//! pure pursuit at about 9 m/s and never brakes, so it hits vehicles and
//! pedestrians, and every knock, despawn and horizon-8 billboard list
//! runs. Each case folds into one FNV-1a digest: every frame's
//! `World::actor_shapes()`, and every 15th frame's camera image and LIDAR
//! ranges. The expected digests were recorded before the traffic
//! scheduler was rewritten; a change to traffic stepping, despawning,
//! wake order or the camera's billboard list moves them.

use avfi_sim::physics::CollisionShape;
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_sim::violation::ViolationKind;
use avfi_sim::world::World;
use avfi_sim::VehicleControl;

const FRAMES: u64 = 1_800;
/// Sensor frames are folded once a simulated second.
const SENSOR_EVERY: u64 = 15;
/// Pure-pursuit lookahead, meters.
const LOOKAHEAD: f64 = 7.0;
/// Cruise speed the throttle holds, m/s.
const CRUISE: f64 = 9.0;

/// `(seed, signalized, horizon, digest)`.
const CASES: [(u64, bool, u32, u64); 8] = [
    (3, true, 1, 0x05598edfafac980b),
    (3, true, 8, 0x44d29d03141bd752),
    (3, false, 1, 0xb13537937d886dc4),
    (3, false, 8, 0x0137bac0a30d77ab),
    (17, true, 1, 0xcb127a89114cfbb7),
    (17, true, 8, 0x88d4390b62ce2c9b),
    (17, false, 1, 0x107a2e3f9057f9be),
    (17, false, 8, 0x8484dd440754c737),
];

/// FNV-1a 64-bit over the little-endian bits of everything folded in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn scenario(seed: u64, signalized: bool, horizon: u32) -> Scenario {
    let mut town = TownSpec::grid(4, 4);
    town.signalized = signalized;
    Scenario::builder(town)
        .seed(seed)
        .npc_vehicles(60)
        .pedestrians(80)
        .pedestrian_cross_rate(0.2)
        .decision_horizon(horizon)
        .build()
}

/// Pure pursuit to the route point `LOOKAHEAD` ahead, throttle toward
/// `CRUISE`, no brake.
fn drive(world: &World) -> VehicleControl {
    let ego = world.ego();
    let params = world.ego_model().params();
    let target = world.tracker().lookahead(LOOKAHEAD).position;
    let alpha = ego.pose.bearing_to(target);
    let steer = (2.0 * params.wheelbase * alpha.sin()).atan2(LOOKAHEAD) / params.max_steer;
    let throttle = (0.55 * (CRUISE - ego.speed) + 0.05).clamp(0.0, 1.0);
    VehicleControl::new(steer, throttle, 0.0)
}

fn fold_shapes(h: &mut Fnv, shapes: &[CollisionShape]) -> (usize, usize) {
    h.u64(shapes.len() as u64);
    let (mut boxes, mut circles) = (0, 0);
    for shape in shapes {
        match shape {
            CollisionShape::Box(o) => {
                boxes += 1;
                h.bytes(&[0]);
                for v in [
                    o.pose.position.x,
                    o.pose.position.y,
                    o.pose.heading,
                    o.half_length,
                    o.half_width,
                ] {
                    h.f64(v);
                }
            }
            CollisionShape::Circle { center, radius } => {
                circles += 1;
                h.bytes(&[1]);
                for v in [center.x, center.y, *radius] {
                    h.f64(v);
                }
            }
            CollisionShape::Fixed(a) => panic!("a building among the actors: {a:?}"),
        }
    }
    (boxes, circles)
}

/// Runs one case; returns its digest and its vehicle and pedestrian
/// collision counts.
fn history(seed: u64, signalized: bool, horizon: u32) -> (u64, usize, usize) {
    let mut world = World::from_scenario(&scenario(seed, signalized, horizon));
    let mut h = Fnv::new();
    let spawned = fold_shapes(&mut h, &world.actor_shapes());
    let mut obs = world.observe();
    let mut last = spawned;
    for frame in 1..=FRAMES {
        let control = drive(&world);
        world.step(control);
        last = fold_shapes(&mut h, &world.actor_shapes());
        if frame % SENSOR_EVERY == 0 {
            world.observe_into(&mut obs);
            for &v in obs.sensors.image.data() {
                h.bytes(&v.to_bits().to_le_bytes());
            }
            for &r in &obs.sensors.lidar.ranges {
                h.f64(r);
            }
        }
    }
    let count = |kind| {
        world
            .monitor()
            .events()
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    };
    let hits = (
        count(ViolationKind::CollisionVehicle),
        count(ViolationKind::CollisionPedestrian),
    );
    assert!(
        last.0 < spawned.0 && last.1 < spawned.1,
        "seed {seed} signalized {signalized} horizon {horizon}: no vehicle or no pedestrian \
         despawned ({spawned:?} -> {last:?})"
    );
    (h.0, hits.0, hits.1)
}

#[test]
fn traffic_history_is_pinned() {
    let mut got = Vec::new();
    for (seed, signalized, horizon, _) in CASES {
        let (digest, vehicles, pedestrians) = history(seed, signalized, horizon);
        assert!(
            vehicles > 0 && pedestrians > 0,
            "seed {seed} signalized {signalized} horizon {horizon}: \
             {vehicles} vehicle and {pedestrians} pedestrian collisions"
        );
        got.push((seed, signalized, horizon, digest));
    }
    let want: Vec<_> = CASES.to_vec();
    assert_eq!(got, want, "digests as printed: {got:#x?}");
}
