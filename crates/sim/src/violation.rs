//! Traffic-rule monitor: detects and debounces the violation events from
//! which AVFI's resilience metrics (VPK, APK, TTV) are computed.
//!
//! The paper counts "traffic violations (including lane violations, driving
//! on the curb, and collisions with pedestrians, cars, and other objects on
//! the streets)". Continuous conditions (lane departure, curb driving,
//! off-road, speeding) are debounced to one event per episode; collisions
//! are debounced per hit with a cooldown.

use crate::map::{Ground, IntersectionId, LightState, Map, SignalGroup};
use crate::math::Vec2;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Kind of traffic violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Left the lane (crossed the center line or the edge line).
    LaneDeparture,
    /// Drove on the sidewalk.
    CurbDriving,
    /// Left the paved corridor entirely.
    OffRoad,
    /// Entered a signalized intersection on red.
    RedLight,
    /// Sustained speed above the limit.
    Speeding,
    /// Collided with another vehicle.
    CollisionVehicle,
    /// Collided with a pedestrian.
    CollisionPedestrian,
    /// Collided with a static obstacle (building, pole).
    CollisionStatic,
}

impl ViolationKind {
    /// All kinds, for tabulation.
    pub const ALL: [ViolationKind; 8] = [
        ViolationKind::LaneDeparture,
        ViolationKind::CurbDriving,
        ViolationKind::OffRoad,
        ViolationKind::RedLight,
        ViolationKind::Speeding,
        ViolationKind::CollisionVehicle,
        ViolationKind::CollisionPedestrian,
        ViolationKind::CollisionStatic,
    ];

    /// `true` for collision violations — the paper's *accident* class used
    /// by the Accidents-per-KM metric.
    pub fn is_accident(self) -> bool {
        matches!(
            self,
            ViolationKind::CollisionVehicle
                | ViolationKind::CollisionPedestrian
                | ViolationKind::CollisionStatic
        )
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::LaneDeparture => "lane-departure",
            ViolationKind::CurbDriving => "curb-driving",
            ViolationKind::OffRoad => "off-road",
            ViolationKind::RedLight => "red-light",
            ViolationKind::Speeding => "speeding",
            ViolationKind::CollisionVehicle => "collision-vehicle",
            ViolationKind::CollisionPedestrian => "collision-pedestrian",
            ViolationKind::CollisionStatic => "collision-static",
        };
        f.write_str(s)
    }
}

/// One recorded violation event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// What happened.
    pub kind: ViolationKind,
    /// Simulation time, seconds.
    pub time: f64,
    /// Frame number.
    pub frame: u64,
    /// Where it happened.
    pub position: Vec2,
    /// Distance driven by the ego at the time, meters.
    pub odometer: f64,
}

/// Per-tick ego observations fed to the monitor.
#[derive(Debug, Clone, Copy)]
pub struct EgoSnapshot {
    /// Ego position.
    pub position: Vec2,
    /// Ego heading, radians.
    pub heading: f64,
    /// Ego speed, m/s.
    pub speed: f64,
    /// Distance driven so far, meters.
    pub odometer: f64,
    /// Simulation time, seconds.
    pub time: f64,
    /// Frame number.
    pub frame: u64,
}

/// Stateful traffic-rule monitor.
#[derive(Debug, Clone)]
pub struct ViolationMonitor {
    events: Vec<Violation>,
    // Episode latches for continuous conditions.
    in_lane_departure: bool,
    in_curb: bool,
    in_offroad: bool,
    speeding_since: Option<f64>,
    speeding_latched: bool,
    in_intersection: Option<IntersectionId>,
    last_collision_time: f64,
    last_collision_odometer: f64,
}

/// Hysteresis margin beyond the lane half-width before a departure starts,
/// meters.
const DEPARTURE_MARGIN: f64 = 0.3;
/// Sustained-overspeed duration that triggers a speeding event, seconds.
const SPEEDING_HOLD: f64 = 1.0;
/// Speed-limit tolerance factor.
const SPEEDING_FACTOR: f64 = 1.15;
/// Minimum time between collision events, seconds.
const COLLISION_COOLDOWN: f64 = 2.0;
/// Minimum distance the ego must progress between collision events,
/// meters: a continuous scrape along one wall is one accident, not one per
/// cooldown period.
const COLLISION_PROGRESS: f64 = 2.0;

impl Default for ViolationMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl ViolationMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        ViolationMonitor {
            events: Vec::new(),
            in_lane_departure: false,
            in_curb: false,
            in_offroad: false,
            speeding_since: None,
            speeding_latched: false,
            in_intersection: None,
            last_collision_time: -f64::INFINITY,
            last_collision_odometer: -f64::INFINITY,
        }
    }

    /// All events recorded so far.
    pub fn events(&self) -> &[Violation] {
        &self.events
    }

    /// Number of recorded events.
    pub fn count(&self) -> usize {
        self.events.len()
    }

    fn emit(&mut self, kind: ViolationKind, ego: &EgoSnapshot) {
        self.events.push(Violation {
            kind,
            time: ego.time,
            frame: ego.frame,
            position: ego.position,
            odometer: ego.odometer,
        });
    }

    /// Records a collision detected by the world's collision pass (subject
    /// to the cooldown so one crash produces one event).
    ///
    /// The collision pass that feeds this is index-backed: the world asks
    /// the uniform-grid [spatial index](crate::spatial::SpatialIndex) for
    /// actors near the ego (radius inflated by actor extent plus dormant
    /// drift) and applies the exact OBB/circle contact test only to those
    /// candidates, so the monitor sees the same hits as a full scan at a
    /// fraction of the per-frame cost.
    pub fn record_collision(&mut self, kind: ViolationKind, ego: &EgoSnapshot) {
        debug_assert!(kind.is_accident());
        if ego.time - self.last_collision_time >= COLLISION_COOLDOWN
            && ego.odometer - self.last_collision_odometer >= COLLISION_PROGRESS
        {
            self.last_collision_time = ego.time;
            self.last_collision_odometer = ego.odometer;
            self.emit(kind, ego);
        }
    }

    /// Runs the per-tick rule checks against the map.
    pub fn check(&mut self, map: &Map, ego: &EgoSnapshot) {
        let Ground {
            drivable,
            sidewalk,
            intersection,
        } = map.ground_at(ego.position);
        let nearest = map.lane_at(ego.position, Some(ego.heading), 8.0);

        // Lane departure: only meaningful on pavement, outside
        // intersections (connector lanes overlap there).
        let departed = if drivable && intersection.is_none() {
            match nearest {
                Some((lane, proj)) => {
                    proj.lateral.abs() > map.lane(lane).width() * 0.5 + DEPARTURE_MARGIN
                }
                None => false,
            }
        } else {
            false
        };
        if departed && !self.in_lane_departure {
            self.emit(ViolationKind::LaneDeparture, ego);
        }
        self.in_lane_departure = departed;

        // Curb driving.
        if sidewalk && !self.in_curb {
            self.emit(ViolationKind::CurbDriving, ego);
        }
        self.in_curb = sidewalk;

        // Off-road (not pavement, not sidewalk).
        let offroad = !drivable && !sidewalk;
        if offroad && !self.in_offroad {
            self.emit(ViolationKind::OffRoad, ego);
        }
        self.in_offroad = offroad;

        // Speeding (sustained).
        let limit = nearest
            .map(|(lane, _)| map.lane(lane).speed_limit())
            .unwrap_or(f64::INFINITY);
        if ego.speed > limit * SPEEDING_FACTOR {
            match self.speeding_since {
                None => self.speeding_since = Some(ego.time),
                Some(t0) => {
                    if !self.speeding_latched && ego.time - t0 >= SPEEDING_HOLD {
                        self.speeding_latched = true;
                        self.emit(ViolationKind::Speeding, ego);
                    }
                }
            }
        } else {
            self.speeding_since = None;
            self.speeding_latched = false;
        }

        // Red-light running: transition into a signalized intersection whose
        // light for our travel direction is red.
        if let Some(iid) = intersection {
            if self.in_intersection != Some(iid) {
                let isect = map.intersection(iid);
                if isect.is_signalized() {
                    let group = SignalGroup::from_heading(ego.heading);
                    if isect.light_state(group, ego.time) == LightState::Red && ego.speed > 0.5 {
                        self.emit(ViolationKind::RedLight, ego);
                    }
                }
            }
        }
        self.in_intersection = intersection;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::town::{TownConfig, TownGenerator};
    use crate::map::LaneKind;
    use crate::FRAME_DT;

    fn town() -> Map {
        TownGenerator::new(TownConfig::grid(3, 3)).generate()
    }

    fn snapshot(p: Vec2, heading: f64, speed: f64, t: f64) -> EgoSnapshot {
        EgoSnapshot {
            position: p,
            heading,
            speed,
            odometer: speed * t,
            time: t,
            frame: (t / FRAME_DT) as u64,
        }
    }

    #[test]
    fn centered_driving_is_clean() {
        let map = town();
        let mut mon = ViolationMonitor::new();
        let lane = map
            .lanes()
            .iter()
            .find(|l| l.kind() == LaneKind::Drive)
            .unwrap();
        let mut t = 0.0;
        let mut s = 2.0;
        while s < lane.length() - 2.0 {
            let p = lane.point_at(s);
            let h = lane.heading_at(s);
            mon.check(&map, &snapshot(p, h, 6.0, t));
            s += 6.0 * FRAME_DT;
            t += FRAME_DT;
        }
        assert_eq!(mon.count(), 0, "events: {:?}", mon.events());
    }

    #[test]
    fn lane_departure_once_per_episode() {
        let map = town();
        let mut mon = ViolationMonitor::new();
        let lane = map
            .lanes()
            .iter()
            .find(|l| l.kind() == LaneKind::Drive)
            .unwrap();
        let mid = lane.length() / 2.0;
        let h = lane.heading_at(mid);
        let left = Vec2::from_angle(h).perp();
        let mut t = 0.0;
        // In lane, then drift across the center line for many frames, then
        // come back, then depart again.
        for phase in [0.0, 2.6, 0.0, 2.6] {
            for _ in 0..20 {
                let p = lane.point_at(mid) + left * phase;
                mon.check(&map, &snapshot(p, h, 5.0, t));
                t += FRAME_DT;
            }
        }
        let departures = mon
            .events()
            .iter()
            .filter(|e| e.kind == ViolationKind::LaneDeparture)
            .count();
        assert_eq!(departures, 2);
    }

    #[test]
    fn curb_and_offroad() {
        let map = town();
        let mut mon = ViolationMonitor::new();
        // A sidewalk point: offset from a road axis.
        let axis = &map.road_axes()[0];
        let mid = axis.axis.point_at(0.5);
        let n = axis.axis.direction().perp();
        let sidewalk_p = mid + n * (axis.half_road + axis.sidewalk * 0.5);
        let grass_p = mid + n * (axis.half_road + axis.sidewalk + 15.0);
        mon.check(&map, &snapshot(sidewalk_p, 0.0, 3.0, 0.0));
        mon.check(&map, &snapshot(grass_p, 0.0, 3.0, 1.0));
        let kinds: Vec<_> = mon.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&ViolationKind::CurbDriving), "{kinds:?}");
        assert!(kinds.contains(&ViolationKind::OffRoad), "{kinds:?}");
    }

    #[test]
    fn speeding_requires_sustained_overspeed() {
        let map = town();
        let mut mon = ViolationMonitor::new();
        let lane = map
            .lanes()
            .iter()
            .find(|l| l.kind() == LaneKind::Drive)
            .unwrap();
        let p = lane.point_at(lane.length() / 2.0);
        let h = lane.heading_at(lane.length() / 2.0);
        let fast = lane.speed_limit() * 1.5;
        // Brief burst: no event.
        let mut t = 0.0;
        for _ in 0..5 {
            mon.check(&map, &snapshot(p, h, fast, t));
            t += FRAME_DT;
        }
        mon.check(&map, &snapshot(p, h, 1.0, t));
        assert_eq!(mon.count(), 0);
        // Sustained: exactly one event.
        for _ in 0..40 {
            t += FRAME_DT;
            mon.check(&map, &snapshot(p, h, fast, t));
        }
        let speeding = mon
            .events()
            .iter()
            .filter(|e| e.kind == ViolationKind::Speeding)
            .count();
        assert_eq!(speeding, 1);
    }

    #[test]
    fn collision_cooldown() {
        let map = town();
        let _ = &map;
        let mut mon = ViolationMonitor::new();
        let ego = snapshot(Vec2::ZERO, 0.0, 5.0, 10.0);
        mon.record_collision(ViolationKind::CollisionPedestrian, &ego);
        mon.record_collision(ViolationKind::CollisionPedestrian, &ego);
        let later = snapshot(Vec2::ZERO, 0.0, 5.0, 13.0);
        mon.record_collision(ViolationKind::CollisionVehicle, &later);
        assert_eq!(mon.count(), 2);
    }

    #[test]
    fn collision_requires_progress_not_just_time() {
        let mut mon = ViolationMonitor::new();
        // Scraping a wall: time passes but the odometer barely moves.
        let mut ego = snapshot(Vec2::ZERO, 0.0, 0.0, 10.0);
        ego.odometer = 100.0;
        mon.record_collision(ViolationKind::CollisionStatic, &ego);
        let mut later = snapshot(Vec2::ZERO, 0.0, 0.0, 20.0);
        later.odometer = 100.5; // < COLLISION_PROGRESS since the last one
        mon.record_collision(ViolationKind::CollisionStatic, &later);
        assert_eq!(mon.count(), 1, "scrape must not re-emit");
        let mut moved = snapshot(Vec2::ZERO, 0.0, 0.0, 30.0);
        moved.odometer = 103.0;
        mon.record_collision(ViolationKind::CollisionStatic, &moved);
        assert_eq!(mon.count(), 2);
    }

    #[test]
    fn red_light_on_entry() {
        let map = town();
        // Find a signalized intersection and an incoming lane.
        let (isect, lane) = map
            .intersections()
            .iter()
            .filter(|i| i.is_signalized() && !i.incoming().is_empty())
            .map(|i| (i, map.lane(i.incoming()[0])))
            .next()
            .expect("signalized intersection");
        let h = lane.end_heading();
        let group = SignalGroup::from_heading(h);
        let mut t = 0.0;
        while isect.light_state(group, t) != LightState::Red {
            t += 0.25;
            assert!(t < 60.0);
        }
        let mut mon = ViolationMonitor::new();
        // Approach (outside), then enter on red.
        let outside = lane.point_at(lane.length() - 3.0);
        mon.check(&map, &snapshot(outside, h, 6.0, t));
        let inside = isect.center();
        mon.check(&map, &snapshot(inside, h, 6.0, t + FRAME_DT));
        let red = mon
            .events()
            .iter()
            .filter(|e| e.kind == ViolationKind::RedLight)
            .count();
        assert_eq!(red, 1, "events: {:?}", mon.events());
        // Staying inside doesn't re-trigger.
        mon.check(&map, &snapshot(inside, h, 6.0, t + 2.0 * FRAME_DT));
        assert_eq!(mon.count(), 1);
    }

    #[test]
    fn accident_classification() {
        assert!(ViolationKind::CollisionPedestrian.is_accident());
        assert!(ViolationKind::CollisionVehicle.is_accident());
        assert!(ViolationKind::CollisionStatic.is_accident());
        assert!(!ViolationKind::LaneDeparture.is_accident());
        assert!(!ViolationKind::RedLight.is_accident());
    }
}
