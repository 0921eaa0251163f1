//! Rule-based expert autopilot.
//!
//! The expert drives from ground truth (route waypoints, traffic-light
//! state, actor positions) with pure-pursuit steering, proportional speed
//! control, and braking rules for leaders, crossing pedestrians and red
//! lights. It plays two roles in the reproduction:
//!
//! 1. **demonstration source** — the imitation network is trained to mimic
//!    it (standing in for the human demonstration videos of Codevilla et
//!    al.), and
//! 2. **fault-free oracle baseline** — campaigns can run it instead of the
//!    neural agent to separate agent error from injected faults.

use avfi_sim::map::{LaneKind, LightState, SignalGroup};
use avfi_sim::math::{clamp, Ray, Vec2};
use avfi_sim::physics::{CollisionShape, VehicleControl};
use avfi_sim::world::World;

/// Lookahead distance per m/s of speed.
const LOOKAHEAD_PER_SPEED: f64 = 1.1;
/// Minimum lookahead distance, meters.
const LOOKAHEAD_MIN: f64 = 4.5;
/// Maximum lookahead distance, meters.
const LOOKAHEAD_MAX: f64 = 13.0;
/// Proportional throttle gain per m/s of speed error.
const THROTTLE_GAIN: f64 = 0.55;
/// Proportional brake gain per m/s of speed error.
const BRAKE_GAIN: f64 = 0.6;
/// Obstacle probe range, meters: a nearer hit brakes the expert.
const PROBE_RANGE: f64 = 28.0;
/// Extra radius the probes give pedestrians, meters.
const PEDESTRIAN_BERTH: f64 = 0.5;

/// The rule-based autopilot; see the module docs.
///
/// Its obstacle probes test only the actors that the world's actor index
/// puts within reach ([`World::actor_shapes_within`] around the probes'
/// origin, `PROBE_RANGE` plus the pedestrian berth), and the expert keeps
/// the query's two buffers for its next frame. The cull is exact: every
/// ray hit distance is at least 0, so a hit nearer than `PROBE_RANGE`
/// lies on a shape with a point within that range of the origin, and the
/// culled list is a subsequence of [`World::actor_shapes`] in its order,
/// so the probe fold keeps the same first nearest hit. A nearest hit at
/// `PROBE_RANGE` or beyond moves no rule. The control is therefore the
/// one a scan of every actor gives, bit for bit.
#[derive(Debug, Clone, Default)]
pub struct ExpertDriver {
    keys: Vec<u32>,
    shapes: Vec<CollisionShape>,
}

impl ExpertDriver {
    /// Creates an expert.
    pub fn new() -> Self {
        ExpertDriver::default()
    }

    /// Computes the control for the current world state (also used by the
    /// demonstration collector to label noisy states).
    pub fn control_for(&mut self, world: &World) -> VehicleControl {
        world.actor_shapes_within(
            probe_origin(world),
            PROBE_RANGE + PEDESTRIAN_BERTH,
            &mut self.keys,
            &mut self.shapes,
        );
        Self::control_among(world, &self.shapes)
    }

    /// The control when `shapes` are the obstacles the probes see.
    fn control_among(world: &World, shapes: &[CollisionShape]) -> VehicleControl {
        let ego = world.ego();
        let tracker = world.tracker();
        let map = world.map();
        let v = ego.speed;
        let params = world.ego_model().params();

        // --- Pure-pursuit steering toward a lookahead waypoint.
        let ld = clamp(LOOKAHEAD_PER_SPEED * v, LOOKAHEAD_MIN, LOOKAHEAD_MAX);
        let target = tracker.lookahead(ld).position;
        let alpha = ego.pose.bearing_to(target);
        let raw_steer = (2.0 * params.wheelbase * alpha.sin()).atan2(ld) / params.max_steer;
        let steer = clamp(raw_steer, -1.0, 1.0);

        // --- Target speed: waypoint speed limits, slowed in tight turns.
        let here_limit = tracker.current().speed_limit;
        let ahead_limit = tracker.lookahead(ld * 0.6).speed_limit;
        let mut v_target = here_limit.min(ahead_limit);
        v_target *= clamp(1.0 - alpha.abs() * 1.1, 0.35, 1.0);

        // --- Red/yellow light ahead: stop at the lane end.
        let lane = map.lane(tracker.current().lane);
        if lane.kind() == LaneKind::Drive {
            if let Some(iid) = map.intersection_after(lane.id()) {
                let isect = map.intersection(iid);
                if isect.is_signalized() {
                    let group = SignalGroup::from_heading(lane.end_heading());
                    let state = isect.light_state(group, world.time());
                    if state != LightState::Green {
                        let proj = lane.project(ego.pose.position);
                        let dist = (lane.length() - proj.s - 2.5).max(0.0);
                        let envelope = world.ego_model().stopping_distance(v, 1.0) * 2.0 + 6.0;
                        if dist < envelope {
                            // Ramp down to a stop at the line.
                            v_target = v_target.min((0.45 * dist).max(0.0));
                            if dist < 1.5 {
                                v_target = 0.0;
                            }
                        }
                    }
                }
            }
        }

        // --- Obstacles ahead: ray probes along the heading fan.
        let d_min = nearest_hit(world, shapes);
        if d_min < PROBE_RANGE {
            // Follow-distance rule: leave a 5 m standoff.
            v_target = v_target.min(((d_min - 5.0) * 0.5).max(0.0));
        }

        // --- Longitudinal control.
        let err = v_target - v;
        let (throttle, brake) = if err >= 0.0 {
            (clamp(THROTTLE_GAIN * err + 0.05, 0.0, 1.0), 0.0)
        } else {
            (0.0, clamp(-BRAKE_GAIN * err, 0.0, 1.0))
        };
        // Emergency stop for very close obstacles.
        let (throttle, brake) = if d_min < 4.0 {
            (0.0, 1.0)
        } else {
            (throttle, brake)
        };

        VehicleControl::new(steer, throttle, brake)
    }
}

/// The front of the ego, where the obstacle probes start.
fn probe_origin(world: &World) -> Vec2 {
    let pose = world.ego().pose;
    pose.position + pose.forward() * (world.ego_model().params().length * 0.5)
}

/// Distance to the nearest probe hit among `shapes`, infinite when no
/// probe hits: the first minimum over the probe fan, then `shapes` in
/// order.
fn nearest_hit(world: &World, shapes: &[CollisionShape]) -> f64 {
    let front = probe_origin(world);
    let heading = world.ego().pose.heading;
    let mut d_min = f64::INFINITY;
    for rel_deg in [-8.0f64, 0.0, 8.0] {
        let ray = Ray::from_angle(front, heading + rel_deg.to_radians());
        for shape in shapes {
            let hit = match shape {
                CollisionShape::Box(o) => ray.hit_obb(o),
                CollisionShape::Circle { center, radius } => {
                    // Inflate pedestrians: keep a wider berth.
                    ray.hit_circle(*center, radius + PEDESTRIAN_BERTH)
                }
                CollisionShape::Fixed(a) => ray.hit_aabb(a),
            };
            if let Some(t) = hit {
                if t < d_min {
                    d_min = t;
                }
            }
        }
    }
    d_min
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::scenario::{Scenario, TownSpec};
    use avfi_sim::world::MissionStatus;
    use std::collections::VecDeque;

    fn drive_mission(seed: u64, npcs: usize, peds: usize) -> (MissionStatus, usize, f64) {
        let scenario = Scenario::builder(TownSpec::grid(3, 3))
            .seed(seed)
            .npc_vehicles(npcs)
            .pedestrians(peds)
            .time_budget(150.0)
            .build();
        let mut world = World::from_scenario(&scenario);
        let mut expert = ExpertDriver::new();
        let mut status = MissionStatus::Running;
        while !status.is_terminal() {
            let control = expert.control_for(&world);
            status = world.step(control);
        }
        (status, world.monitor().count(), world.odometer())
    }

    #[test]
    fn completes_empty_town_mission() {
        let (status, violations, dist) = drive_mission(11, 0, 0);
        assert!(status.is_success(), "status={status:?}, dist={dist}");
        assert_eq!(violations, 0, "expert should drive clean");
    }

    #[test]
    fn completes_missions_across_seeds() {
        let mut successes = 0;
        for seed in 0..5 {
            let (status, _, _) = drive_mission(seed, 0, 0);
            if status.is_success() {
                successes += 1;
            }
        }
        assert!(successes >= 4, "only {successes}/5 clean missions");
    }

    #[test]
    fn mostly_succeeds_with_traffic() {
        let mut successes = 0;
        for seed in 0..4 {
            let (status, _, _) = drive_mission(100 + seed, 4, 4);
            if status.is_success() {
                successes += 1;
            }
        }
        assert!(successes >= 2, "only {successes}/4 with traffic");
    }

    #[test]
    fn brakes_for_obstacle_wall_of_traffic() {
        // Spawn a scenario and verify the expert never exceeds the limit
        // grossly and produces sane controls.
        let scenario = Scenario::builder(TownSpec::grid(3, 3))
            .seed(33)
            .npc_vehicles(8)
            .pedestrians(0)
            .time_budget(30.0)
            .build();
        let mut world = World::from_scenario(&scenario);
        let mut expert = ExpertDriver::new();
        for _ in 0..(30.0 * 15.0) as usize {
            let c = expert.control_for(&world);
            assert!(c.steer.is_finite() && c.throttle.is_finite());
            assert!(
                !(c.throttle > 0.0 && c.brake > 0.0),
                "throttle+brake together"
            );
            if world.step(c).is_terminal() {
                break;
            }
            assert!(world.ego().speed <= 9.5, "overspeed {}", world.ego().speed);
        }
    }

    /// A world shaped like the dense expert benchmark: a 4×4
    /// unsignalized town, 30 NPC vehicles and 30 pedestrians.
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
            .min_route_length(150.0)
            .build();
        World::from_scenario(&scenario)
    }

    fn bits(c: VehicleControl) -> [u64; 3] {
        [c.steer.to_bits(), c.throttle.to_bits(), c.brake.to_bits()]
    }

    /// The culled probes give, every frame, the control that the same
    /// fold over every actor's shape gives, bit for bit. The expert's own
    /// control reaches the car a few frames late, so it closes on leaders
    /// and both braking rules run: the follow rule (a hit nearer than
    /// `PROBE_RANGE`) and the emergency stop (nearer than 4 m).
    #[test]
    fn culled_probes_match_the_full_scan() {
        const DELAY: usize = 4;
        let (mut frames, mut follow, mut emergency) = (0usize, 0usize, 0usize);
        for horizon in [1u32, 8] {
            for seed in [2u64, 5, 11] {
                let mut world = dense_world(seed, horizon);
                let mut expert = ExpertDriver::new();
                let mut late = VecDeque::from(vec![VehicleControl::coast(); DELAY]);
                for frame in 0..600 {
                    let culled = expert.control_for(&world);
                    let full = world.actor_shapes();
                    let at = format!("horizon {horizon} seed {seed} frame {frame}");
                    assert_eq!(
                        bits(culled),
                        bits(ExpertDriver::control_among(&world, &full)),
                        "{at}"
                    );
                    let d_full = nearest_hit(&world, &full);
                    let d_culled = nearest_hit(&world, &expert.shapes);
                    if d_full < PROBE_RANGE || d_culled < PROBE_RANGE {
                        assert_eq!(d_culled.to_bits(), d_full.to_bits(), "{at}");
                    }
                    frames += 1;
                    follow += usize::from(d_full < PROBE_RANGE);
                    emergency += usize::from(d_full < 4.0);
                    late.push_back(culled);
                    if world.step(late.pop_front().unwrap()).is_terminal() {
                        break;
                    }
                }
            }
        }
        assert!(
            follow > 0,
            "no probe hit nearer than PROBE_RANGE in {frames} frames"
        );
        assert!(
            emergency > 0,
            "no probe hit nearer than 4 m in {frames} frames"
        );
    }
}
