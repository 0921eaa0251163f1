//! NPC traffic vehicles: lane-following cars with IDM car-following and
//! traffic-light compliance.

use crate::map::{LaneId, LightState, Map, SignalGroup};
use crate::math::{Obb, Pose, Vec2};
use crate::physics::{CollisionShape, VehicleParams};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use serde::{Deserialize, Serialize};

/// An NPC vehicle that follows the lane graph.
///
/// NPCs ride the lane centerline exactly (no lateral dynamics) and regulate
/// speed with the Intelligent Driver Model against the nearest leader
/// (another NPC or the ego vehicle) and against red lights. At lane ends
/// they pick a random successor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NpcVehicle {
    lane: LaneId,
    /// Arc length along the current lane.
    s: f64,
    speed: f64,
    params: VehicleParams,
    /// Set when the ego crashed into this vehicle; it stops and despawns.
    knocked: bool,
    /// Seconds since knocked.
    knocked_for: f64,
}

/// IDM parameters (urban defaults).
const IDM_TIME_HEADWAY: f64 = 1.2;
const IDM_MIN_GAP: f64 = 2.5;
const IDM_ACCEL: f64 = 2.0;
const IDM_DECEL: f64 = 3.0;
/// How far ahead an NPC scans for leaders and lights, meters.
///
/// Also the interaction radius the world's spatial index must cover when
/// collecting lead-vehicle candidates for [`NpcVehicle::perceive`].
pub const SCAN_AHEAD: f64 = 45.0;

impl NpcVehicle {
    /// Creates an NPC at arc length `s` on `lane`, at rest.
    pub fn new(lane: LaneId, s: f64) -> Self {
        NpcVehicle {
            lane,
            s,
            speed: 0.0,
            params: VehicleParams::default(),
            knocked: false,
            knocked_for: 0.0,
        }
    }

    /// Current lane.
    #[inline]
    pub fn lane(&self) -> LaneId {
        self.lane
    }

    /// Arc length along the current lane.
    #[inline]
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Current speed, m/s.
    #[inline]
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// `true` after the ego collided with this NPC.
    #[inline]
    pub fn is_knocked(&self) -> bool {
        self.knocked
    }

    /// Marks the NPC as crashed-into; it stops and is despawned a few
    /// seconds later by the world.
    pub fn knock(&mut self) {
        self.knocked = true;
        self.speed = 0.0;
    }

    /// `true` once a knocked NPC should be removed from the world.
    pub fn should_despawn(&self) -> bool {
        self.knocked && self.knocked_for > 3.0
    }

    /// Vehicle parameters.
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Arc length after coasting dormant for `seconds` at the current
    /// speed, without mutating the vehicle. With `seconds == 0.0` this is
    /// exactly [`NpcVehicle::s`] (bit-identical, no arithmetic applied),
    /// which keeps decision horizon 1 exact.
    ///
    /// Dormant integration is valid only while the vehicle stays on its
    /// current lane; traffic caps its sleep so a dormant vehicle never
    /// reaches the lane end (see `cruise_headroom_ticks`).
    #[inline]
    pub fn s_after(&self, seconds: f64) -> f64 {
        if seconds == 0.0 || self.knocked {
            self.s
        } else {
            self.s + self.speed * seconds
        }
    }

    /// World pose after coasting dormant for `seconds` (see
    /// [`NpcVehicle::s_after`]).
    pub fn pose_at(&self, map: &Map, seconds: f64) -> Pose {
        let lane = map.lane(self.lane);
        let s = self.s_after(seconds);
        Pose::new(lane.point_at(s), lane.heading_at(s))
    }

    /// Position on the lane centerline after coasting dormant for
    /// `seconds`: `pose_at(map, seconds).position` without computing the
    /// heading.
    pub(crate) fn position_at(&self, map: &Map, seconds: f64) -> Vec2 {
        map.lane(self.lane).point_at(self.s_after(seconds))
    }

    /// Collision footprint after coasting dormant for `seconds`.
    pub fn shape_at(&self, map: &Map, seconds: f64) -> CollisionShape {
        CollisionShape::Box(Obb::new(
            self.pose_at(map, seconds),
            self.params.length,
            self.params.width,
        ))
    }

    /// Folds a dormant coast of `seconds` into the stored state: the
    /// analytic integration an event-driven wake applies before the
    /// vehicle's decision step runs. No-op for knocked vehicles and for
    /// `seconds == 0.0` (always, at decision horizon 1).
    pub fn coast(&mut self, seconds: f64) {
        self.s = self.s_after(seconds);
    }

    /// How many ticks of `dt` this vehicle can safely sleep between
    /// decisions, assuming [`NpcVehicle::perceive`] just returned no
    /// leader. Returns 1 (decide again next tick) unless the vehicle is
    /// cruising at its lane's speed limit with ample headroom.
    ///
    /// The bound keeps two invariants: the vehicle wakes before the lane
    /// end enters its scan horizon (so lights, dead ends and lane hops are
    /// always handled by an awake decision, and the lane-choice RNG draw
    /// happens at a decision step), and it never closes more of the scan
    /// horizon than it could brake away — a stopped leader just beyond
    /// [`SCAN_AHEAD`] at sleep time must still be avoidable at wake time.
    pub fn cruise_headroom_ticks(&self, map: &Map, dt: f64) -> u64 {
        if self.knocked {
            return 1;
        }
        let lane = map.lane(self.lane);
        let v = self.speed;
        if v < 0.95 * lane.speed_limit() || v <= 0.0 {
            // Still accelerating (or stopped): IDM changes speed every
            // tick, so decide every tick.
            return 1;
        }
        let per_tick = v * dt;
        let to_scan_edge = lane.length() - self.s - SCAN_AHEAD;
        let brake_dist = v * v / (2.0 * IDM_DECEL);
        let closing_budget = SCAN_AHEAD - brake_dist - IDM_MIN_GAP - self.params.length;
        let ticks = (to_scan_edge.min(closing_budget) / per_tick).floor();
        if ticks < 2.0 {
            1
        } else {
            ticks as u64
        }
    }

    /// Advances the NPC by `dt` seconds.
    ///
    /// `leader_gap` is the distance to the nearest obstacle ahead (leader
    /// vehicle bumper or red-light stop line) with its speed, as computed by
    /// the world via [`NpcVehicle::perceive`].
    pub fn step(&mut self, map: &Map, leader: Option<(f64, f64)>, rng: &mut StdRng, dt: f64) {
        if self.knocked {
            self.knocked_for += dt;
            return;
        }
        let lane = map.lane(self.lane);
        let v0 = lane.speed_limit();
        let v = self.speed;

        // IDM acceleration.
        let mut accel = IDM_ACCEL * (1.0 - (v / v0).powi(4));
        if let Some((gap, v_lead)) = leader {
            let gap = gap.max(0.1);
            let dv = v - v_lead;
            let s_star = IDM_MIN_GAP
                + v * IDM_TIME_HEADWAY
                + v * dv / (2.0 * (IDM_ACCEL * IDM_DECEL).sqrt());
            accel -= IDM_ACCEL * (s_star.max(0.0) / gap).powi(2);
        }
        self.speed = (v + accel * dt).clamp(0.0, v0.max(v));
        self.s += self.speed * dt;

        // Lane end: hop to a random successor.
        while self.s >= lane_len(map, self.lane) {
            let over = self.s - lane_len(map, self.lane);
            let succs = map.successors(self.lane);
            match succs.choose(rng) {
                Some(next) => {
                    self.lane = *next;
                    self.s = over;
                }
                None => {
                    // Dead end: stop at the end of the lane.
                    self.s = lane_len(map, self.lane);
                    self.speed = 0.0;
                    break;
                }
            }
        }
    }

    /// Computes the (gap, leader speed) pair this NPC should regulate
    /// against: the nearest other vehicle bumper or red-light stop line
    /// within the scan-ahead horizon (45 m) along its current + successor lane.
    ///
    /// `others` yields `(position, speed, half_length)` of every other
    /// vehicle (NPCs and ego).
    pub fn perceive<'a>(
        &self,
        map: &Map,
        others: impl Iterator<Item = (Vec2, f64, f64)> + 'a,
        time: f64,
    ) -> Option<(f64, f64)> {
        let lane = map.lane(self.lane);
        let my_pos = lane.point_at(self.s);
        let remaining = lane.length() - self.s;
        let reach = lane.width() * 0.7;
        let lane_box = lane.reach_box(reach);
        let mut best: Option<(f64, f64)> = None;
        let mut consider = |gap: f64, v: f64| {
            if gap < SCAN_AHEAD {
                match best {
                    Some((g, _)) if g <= gap => {}
                    _ => best = Some((gap, v)),
                }
            }
        };

        // Other vehicles projected onto my lane (plus its successor run).
        // A lane is projected onto only when the vehicle lies in its reach
        // box: outside it the projection distance cannot fall below
        // `0.7 × width` (see `Lane::reach_box`), so skipping it changes no
        // outcome.
        for (pos, v, half_len) in others {
            // Cheap prefilter.
            if pos.distance_sq(my_pos) > SCAN_AHEAD * SCAN_AHEAD {
                continue;
            }
            if lane_box.contains(pos) {
                let proj = lane.project(pos);
                if proj.distance < reach && proj.s > self.s + 0.5 {
                    let gap = proj.s - self.s - half_len - self.params.length * 0.5;
                    consider(gap.max(0.0), v);
                    continue;
                }
            }
            // Check successor lanes too (one hop).
            for succ in map.successors(self.lane) {
                let sl = map.lane(*succ);
                let reach = sl.width() * 0.7;
                if !sl.reach_box(reach).contains(pos) {
                    continue;
                }
                let p2 = sl.project(pos);
                if p2.distance < reach && p2.s < SCAN_AHEAD {
                    let gap = remaining + p2.s - half_len - self.params.length * 0.5;
                    consider(gap.max(0.0), v);
                }
            }
        }

        // Red or yellow light ahead: stop line at the end of this lane.
        if let Some(iid) = map.intersection_after(self.lane) {
            let isect = map.intersection(iid);
            let group = SignalGroup::from_heading(lane.end_heading());
            match isect.light_state(group, time) {
                LightState::Red | LightState::Yellow => {
                    // Model the stop line as a stationary leader just
                    // before the intersection.
                    consider((remaining - 1.0).max(0.0), 0.0);
                }
                LightState::Green => {}
            }
        }
        best
    }
}

fn lane_len(map: &Map, id: LaneId) -> f64 {
    map.lane(id).length()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::town::{TownConfig, TownGenerator};
    use crate::map::LaneKind;
    use crate::rng::stream_rng;
    use crate::FRAME_DT;

    fn town() -> Map {
        TownGenerator::new(TownConfig::grid(2, 2)).generate()
    }

    fn drive_lane(map: &Map) -> LaneId {
        map.lanes()
            .iter()
            .find(|l| l.kind() == LaneKind::Drive)
            .unwrap()
            .id()
    }

    #[test]
    fn accelerates_to_speed_limit_when_clear() {
        let map = town();
        let lane = drive_lane(&map);
        let mut npc = NpcVehicle::new(lane, 0.0);
        let mut rng = stream_rng(1, 0);
        for _ in 0..600 {
            npc.step(&map, None, &mut rng, FRAME_DT);
        }
        let limit = map.lane(npc.lane()).speed_limit();
        assert!(npc.speed() > limit * 0.8, "speed={}", npc.speed());
    }

    #[test]
    fn stops_behind_stationary_leader() {
        let map = town();
        let lane = drive_lane(&map);
        let mut npc = NpcVehicle::new(lane, 0.0);
        let mut rng = stream_rng(2, 0);
        for _ in 0..900 {
            let gap = 30.0 - npc.s();
            npc.step(&map, Some((gap.max(0.0), 0.0)), &mut rng, FRAME_DT);
        }
        assert!(npc.speed() < 0.5, "speed={}", npc.speed());
        assert!(npc.s() < 30.0, "ran into leader: s={}", npc.s());
    }

    #[test]
    fn crosses_into_successor_lane() {
        let map = town();
        let lane = drive_lane(&map);
        let start_len = map.lane(lane).length();
        let mut npc = NpcVehicle::new(lane, start_len - 2.0);
        npc.speed = 5.0;
        let mut rng = stream_rng(3, 0);
        let mut changed = false;
        for _ in 0..60 {
            npc.step(&map, None, &mut rng, FRAME_DT);
            if npc.lane() != lane {
                changed = true;
                break;
            }
        }
        assert!(changed, "NPC never left its lane");
    }

    #[test]
    fn knocked_npc_freezes_and_despawns() {
        let map = town();
        let mut npc = NpcVehicle::new(drive_lane(&map), 5.0);
        npc.speed = 6.0;
        npc.knock();
        assert_eq!(npc.speed(), 0.0);
        let mut rng = stream_rng(4, 0);
        let s0 = npc.s();
        for _ in 0..(4.0 / FRAME_DT) as usize {
            npc.step(&map, None, &mut rng, FRAME_DT);
        }
        assert_eq!(npc.s(), s0);
        assert!(npc.should_despawn());
    }

    #[test]
    fn perceives_vehicle_ahead_in_lane() {
        let map = town();
        let lane = drive_lane(&map);
        let npc = NpcVehicle::new(lane, 0.0);
        let ahead_pos = map.lane(lane).point_at(15.0);
        let others = [(ahead_pos, 3.0, 2.25)];
        let leader = npc.perceive(&map, others.into_iter(), 0.0);
        let (gap, v) = leader.expect("should see leader");
        assert!(gap < 15.0 && gap > 5.0, "gap={gap}");
        assert_eq!(v, 3.0);
    }

    #[test]
    fn perceives_red_light_as_stop_line() {
        // 2x2 towns have only unsignalized corners; use 3x3.
        let map = TownGenerator::new(TownConfig::grid(3, 3)).generate();
        // Find an incoming lane to a signalized intersection and a time when
        // its group is red.
        for lane in map.lanes().iter().filter(|l| l.kind() == LaneKind::Drive) {
            if let Some(iid) = map.intersection_after(lane.id()) {
                let isect = map.intersection(iid);
                if !isect.is_signalized() {
                    continue;
                }
                let group = SignalGroup::from_heading(lane.end_heading());
                let mut t = 0.0;
                while isect.light_state(group, t) != LightState::Red {
                    t += 0.5;
                    assert!(t < 60.0);
                }
                let npc = NpcVehicle::new(lane.id(), lane.length() - 20.0);
                let leader = npc.perceive(&map, std::iter::empty(), t);
                let (gap, v) = leader.expect("should see stop line");
                assert!(gap <= 20.0);
                assert_eq!(v, 0.0);
                return;
            }
        }
        panic!("no signalized intersection found");
    }
}
