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
use avfi_sim::math::{clamp, Ray};
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
/// Obstacle probe range, meters.
const PROBE_RANGE: f64 = 28.0;

/// The rule-based autopilot; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct ExpertDriver;

impl ExpertDriver {
    /// Creates an expert.
    pub fn new() -> Self {
        ExpertDriver
    }

    /// Computes the control for the current world state (also used by the
    /// demonstration collector to label noisy states).
    pub fn control_for(&self, world: &World) -> VehicleControl {
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
        let shapes = world.actor_shapes();
        let front = ego.pose.position + ego.pose.forward() * (params.length * 0.5);
        let mut d_min = f64::INFINITY;
        for rel_deg in [-8.0f64, 0.0, 8.0] {
            let ray = Ray::from_angle(front, ego.pose.heading + rel_deg.to_radians());
            for shape in &shapes {
                let hit = match shape {
                    CollisionShape::Box(o) => ray.hit_obb(o),
                    CollisionShape::Circle { center, radius } => {
                        // Inflate pedestrians: keep a wider berth.
                        ray.hit_circle(*center, radius + 0.5)
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

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::scenario::{Scenario, TownSpec};
    use avfi_sim::world::MissionStatus;

    fn drive_mission(seed: u64, npcs: usize, peds: usize) -> (MissionStatus, usize, f64) {
        let scenario = Scenario::builder(TownSpec::grid(3, 3))
            .seed(seed)
            .npc_vehicles(npcs)
            .pedestrians(peds)
            .time_budget(150.0)
            .build();
        let mut world = World::from_scenario(&scenario);
        let expert = ExpertDriver::new();
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
        let expert = ExpertDriver::new();
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
}
