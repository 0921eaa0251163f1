//! Traffic: NPC vehicles and pedestrians, woken from a per-actor wake
//! table and found through a uniform-grid spatial index.
//!
//! [`Traffic`] owns every non-ego actor in two slot-indexed vectors, NPC
//! vehicles and pedestrians, each in spawn order. Beside each actor it
//! keeps two ticks:
//!
//! * an *anchor*, the frame boundary at which the actor's stored state is
//!   valid, and
//! * a *wake* tick, when its next decision (lead-vehicle reaction, lane
//!   choice, crossing intent) is due. Between decisions an actor is
//!   dormant and integrates analytically — NPC vehicles coast at constant
//!   speed along their lane, pedestrians walk their current leg. Each
//!   frame wakes the due actors in slot order, NPCs before pedestrians.
//!
//! A [`SpatialIndex`] holds every live actor's last-updated position, so
//! neighbor queries cost O(nearby) instead of O(population). Its keys are
//! spawn slots, pedestrians numbered after the NPCs. There are three
//! queries:
//!
//! * perceive candidates, [`Traffic::step`]'s lead-vehicle search;
//! * ego collision checks, [`Traffic::ego_contacts`];
//! * obstacle lists, [`Traffic::push_shapes_within`], which serves the
//!   LIDAR's obstacle cull and the expert driver's probe cull (both
//!   through [`World::actor_shapes_within`]).
//!
//! [`World::actor_shapes_within`]: crate::world::World::actor_shapes_within
//!
//! An actor keeps its slot for the whole run. When it despawns, its wake
//! tick becomes `NEVER` and it leaves the index: an actor is live while
//! its wake tick is not `NEVER`.
//!
//! ## Decision horizon
//!
//! The scenario's [`crate::scenario::Scenario::decision_horizon`] caps how
//! many ticks an actor may sleep. At horizon 1 every live actor wakes
//! every frame, every dormant coast is zero seconds long (which returns
//! the stored state untouched), and every RNG draw happens at the same
//! point in the same stream as in a loop that steps every actor every
//! frame. Index queries are only ever a *superset* pre-filter: each
//! consumer re-applies its exact predicate (perceive's own scan-distance
//! prefilter, the LIDAR min-fold, the expert's probe range, the
//! OBB/circle contact test), so no result depends on the index.
//!
//! ## Query slack
//!
//! The index stores positions as of each actor's last update, up to
//! `horizon` ticks stale. Every query therefore inflates its radius by
//! [`Traffic::slack`] — the maximum distance any actor can drift from its
//! stored position before its next update — and exact filtering happens
//! downstream on materialized (extrapolated) positions.

use super::pedestrian::PEDESTRIAN_RADIUS;
use super::vehicle::SCAN_AHEAD;
use super::{NpcVehicle, Pedestrian};
use crate::map::Map;
use crate::math::Vec2;
use crate::physics::CollisionShape;
use crate::sensors::Billboard;
use crate::spatial::SpatialIndex;
use crate::FRAME_DT;
use rand::rngs::StdRng;

/// Grid cell edge, meters: a third of the NPC scan horizon, 15 m. A
/// perceive query (the 45 m scan horizon plus drift slack: a 46 m radius
/// at horizon 1, 50 m at horizon 8) spans 7×7 or 8×8 cells; ego collision
/// queries span one to three cells a side.
const CELL_SIZE: f64 = SCAN_AHEAD / 3.0;

/// Wake tick of a despawned actor.
const NEVER: u64 = u64::MAX;

/// All non-ego dynamic actors, stepped event-driven.
#[derive(Debug)]
pub struct Traffic {
    npcs: Vec<NpcVehicle>,
    peds: Vec<Pedestrian>,
    /// Frame boundary at which each actor's stored state is valid.
    npc_anchor: Vec<u64>,
    ped_anchor: Vec<u64>,
    /// Tick of each actor's next decision (`NEVER` once despawned).
    npc_wake: Vec<u64>,
    ped_wake: Vec<u64>,
    /// Keyed by NPC slot, and by `npcs.len()` plus pedestrian slot.
    index: SpatialIndex,
    horizon: u32,
    /// Current frame boundary; all queries materialize positions here.
    boundary: u64,
    npc_rng: StdRng,
    ped_rng: StdRng,
    /// Fastest possible actor speed (bounds dormant drift).
    vmax: f64,
    /// Largest actor footprint half-diagonal.
    max_extent: f64,
    // Scratch buffers: steady-state stepping is allocation-free.
    due_npcs: Vec<usize>,
    due_peds: Vec<usize>,
    q: Vec<u32>,
    info: Vec<(Vec2, f64, f64)>,
    leaders: Vec<Option<(f64, f64)>>,
    /// Each NPC's position at the current frame boundary, by slot, filled
    /// once per frame before phase A (see [`Traffic::fill_npc_positions`]).
    npc_pos: Vec<Vec2>,
}

/// An index key resolved to its actor.
enum Slot {
    Npc(usize),
    Ped(usize),
}

impl Traffic {
    /// Wraps freshly spawned actors. Every actor's first decision is due
    /// at tick 0; `horizon` is the maximum ticks an actor may sleep
    /// between decisions (clamped to at least 1).
    pub fn new(
        map: &Map,
        npcs: Vec<NpcVehicle>,
        peds: Vec<Pedestrian>,
        npc_rng: StdRng,
        ped_rng: StdRng,
        horizon: u32,
    ) -> Self {
        let vmax = map
            .lanes()
            .iter()
            .map(|l| l.speed_limit())
            .fold(2.0f64, f64::max);
        let max_extent = npcs
            .iter()
            .map(|n| {
                let p = n.params();
                (p.length * p.length + p.width * p.width).sqrt() * 0.5
            })
            .fold(PEDESTRIAN_RADIUS.max(2.5), f64::max);

        let mut index = SpatialIndex::new(CELL_SIZE, map.bounds());
        for (slot, npc) in npcs.iter().enumerate() {
            index.update(slot as u32, npc.position_at(map, 0.0));
        }
        for (slot, ped) in peds.iter().enumerate() {
            index.update((npcs.len() + slot) as u32, ped.position());
        }

        Traffic {
            npc_anchor: vec![0; npcs.len()],
            ped_anchor: vec![0; peds.len()],
            npc_wake: vec![0; npcs.len()],
            ped_wake: vec![0; peds.len()],
            npcs,
            peds,
            index,
            horizon: horizon.max(1),
            boundary: 0,
            npc_rng,
            ped_rng,
            vmax,
            max_extent,
            due_npcs: Vec::new(),
            due_peds: Vec::new(),
            q: Vec::new(),
            info: Vec::new(),
            leaders: Vec::new(),
            npc_pos: Vec::new(),
        }
    }

    /// Live NPC vehicles, in spawn order. Dormant vehicles' stored arc
    /// lengths may be up to `horizon - 1` ticks stale; exact positions at
    /// the current boundary come from the query methods.
    pub fn npcs(&self) -> impl Iterator<Item = &NpcVehicle> {
        self.live_npcs().map(|(_, npc)| npc)
    }

    /// Live pedestrians, in spawn order (same staleness note as
    /// [`Traffic::npcs`]).
    pub fn pedestrians(&self) -> impl Iterator<Item = &Pedestrian> {
        self.live_peds().map(|(_, ped)| ped)
    }

    fn live_npcs(&self) -> impl Iterator<Item = (usize, &NpcVehicle)> {
        self.npcs
            .iter()
            .enumerate()
            .filter(|&(slot, _)| self.npc_wake[slot] != NEVER)
    }

    fn live_peds(&self) -> impl Iterator<Item = (usize, &Pedestrian)> {
        self.peds
            .iter()
            .enumerate()
            .filter(|&(slot, _)| self.ped_wake[slot] != NEVER)
    }

    fn ped_key(&self, slot: usize) -> u32 {
        (self.npcs.len() + slot) as u32
    }

    fn slot(&self, key: u32) -> Slot {
        match (key as usize).checked_sub(self.npcs.len()) {
            None => Slot::Npc(key as usize),
            Some(slot) => Slot::Ped(slot),
        }
    }

    /// Maximum distance any actor can be from its indexed position.
    fn slack(&self) -> f64 {
        self.vmax * FRAME_DT * (self.horizon as f64 + 1.0)
    }

    fn npc_dormant_secs(&self, slot: usize, boundary: u64) -> f64 {
        (boundary - self.npc_anchor[slot]) as f64 * FRAME_DT
    }

    fn ped_dormant_secs(&self, slot: usize, boundary: u64) -> f64 {
        (boundary - self.ped_anchor[slot]) as f64 * FRAME_DT
    }

    fn npc_shape(&self, map: &Map, slot: usize) -> CollisionShape {
        self.npcs[slot].shape_at(map, self.npc_dormant_secs(slot, self.boundary))
    }

    fn ped_shape(&self, slot: usize) -> CollisionShape {
        let secs = self.ped_dormant_secs(slot, self.boundary);
        CollisionShape::Circle {
            center: self.peds[slot].position_at(secs),
            radius: PEDESTRIAN_RADIUS,
        }
    }

    /// Fills the position table with every NPC's position at `boundary`.
    /// `position_at` is pure in (NPC, seconds) and no NPC moves before
    /// phase B, so each perceive of the frame reads the value it would
    /// have computed itself.
    fn fill_npc_positions(&mut self, map: &Map, boundary: u64) {
        self.npc_pos.clear();
        for slot in 0..self.npcs.len() {
            let secs = self.npc_dormant_secs(slot, boundary);
            let pos = self.npcs[slot].position_at(map, secs);
            self.npc_pos.push(pos);
        }
    }

    /// Lead-vehicle candidates for the NPC in slot `skip`: every *other*
    /// live NPC within the scan horizon (plus drift slack) of `center`, at
    /// the boundary the position table was filled for, in spawn order — a
    /// subsequence of the full scan on which `perceive`, re-applying its
    /// own exact scan-distance prefilter, decides the same.
    fn vehicle_candidates(
        &self,
        skip: usize,
        center: Vec2,
        q: &mut Vec<u32>,
        info: &mut Vec<(Vec2, f64, f64)>,
    ) {
        info.clear();
        self.index
            .query_circle(center, SCAN_AHEAD + self.slack(), q);
        for &key in q.iter() {
            match self.slot(key) {
                Slot::Npc(slot) if slot != skip => {
                    let npc = &self.npcs[slot];
                    info.push((self.npc_pos[slot], npc.speed(), npc.params().length * 0.5));
                }
                _ => {}
            }
        }
    }

    /// Advances traffic by one frame: wakes every actor whose decision is
    /// due at `frame`, runs perceive-then-step for due NPC vehicles (all
    /// perceives against the pre-step positional snapshot), then due
    /// pedestrians, and sets each actor's next wake tick.
    ///
    /// `ego` is `(position, speed, half_length)` of the ego vehicle after
    /// its dynamics step; `time` is the simulation clock at the frame
    /// start.
    pub fn step(&mut self, map: &Map, ego: (Vec2, f64, f64), time: f64, frame: u64) {
        debug_assert_eq!(frame, self.boundary, "traffic stepped out of order");

        // Wake phase: due actors in slot order, NPCs before pedestrians.
        self.due_npcs.clear();
        self.due_npcs
            .extend((0..self.npcs.len()).filter(|&slot| self.npc_wake[slot] <= frame));
        self.due_peds.clear();
        self.due_peds
            .extend((0..self.peds.len()).filter(|&slot| self.ped_wake[slot] <= frame));

        // Fold dormant coasts so every due NPC's own state is exact at this
        // boundary before any perceive runs (a no-op at horizon 1).
        for &slot in &self.due_npcs {
            let secs = self.npc_dormant_secs(slot, frame);
            self.npcs[slot].coast(secs);
            self.npc_anchor[slot] = frame;
        }
        if !self.due_npcs.is_empty() {
            self.fill_npc_positions(map, frame);
        }

        // Phase A: perceive for every due NPC against the pre-step
        // snapshot. No NPC steps until phase B, so candidate positions are
        // history-independent within the frame.
        let mut q = std::mem::take(&mut self.q);
        let mut info = std::mem::take(&mut self.info);
        let mut leaders = std::mem::take(&mut self.leaders);
        leaders.clear();
        for &slot in &self.due_npcs {
            let npc = &self.npcs[slot];
            if npc.is_knocked() {
                // A knocked vehicle's step ignores the leader; skipping the
                // (pure) perceive changes nothing.
                leaders.push(None);
                continue;
            }
            self.vehicle_candidates(slot, self.npc_pos[slot], &mut q, &mut info);
            info.push(ego);
            leaders.push(npc.perceive(map, info.iter().copied(), time));
        }

        // Phase B: step due NPCs in spawn order; lane-choice RNG draws
        // happen here, in spawn order.
        for (di, &leader) in leaders.iter().enumerate() {
            let slot = self.due_npcs[di];
            self.npcs[slot].step(map, leader, &mut self.npc_rng, FRAME_DT);
            self.npc_anchor[slot] = frame + 1;
            if self.npcs[slot].should_despawn() {
                self.npc_wake[slot] = NEVER;
                self.index.remove(slot as u32);
                continue;
            }
            let pos = self.npcs[slot].position_at(map, 0.0);
            self.index.update(slot as u32, pos);
            self.npc_wake[slot] = frame + self.npc_next_wake(map, slot, leader);
        }

        // Pedestrian phase: due walkers move one tick and make one
        // (aggregated) crossing decision; a walker hit since its last step
        // despawns instead.
        for di in 0..self.due_peds.len() {
            let slot = self.due_peds[di];
            let key = self.ped_key(slot);
            if self.peds[slot].should_despawn() {
                self.ped_wake[slot] = NEVER;
                self.index.remove(key);
                continue;
            }
            let dormant = frame - self.ped_anchor[slot];
            if dormant > 0 {
                self.peds[slot].coast(dormant as f64 * FRAME_DT);
            }
            self.peds[slot].step_multi(&mut self.ped_rng, FRAME_DT, dormant + 1);
            self.ped_anchor[slot] = frame + 1;
            self.index.update(key, self.peds[slot].position());
            self.ped_wake[slot] = frame + self.ped_next_wake(slot);
        }

        self.q = q;
        self.info = info;
        self.leaders = leaders;
        self.boundary = frame + 1;
    }

    fn npc_next_wake(&self, map: &Map, slot: usize, leader: Option<(f64, f64)>) -> u64 {
        let npc = &self.npcs[slot];
        if npc.is_knocked() || leader.is_some() {
            return 1;
        }
        npc.cruise_headroom_ticks(map, FRAME_DT)
            .clamp(1, self.horizon as u64)
    }

    fn ped_next_wake(&self, slot: usize) -> u64 {
        self.peds[slot]
            .ticks_until_turn(FRAME_DT)
            .clamp(1, self.horizon as u64)
    }

    /// Checks every nearby actor for contact with the ego footprint,
    /// knocking those that touch it. Returns `(hit_vehicle, hit_ped)`; the
    /// candidates come from an index query around the ego (`ego_radius`
    /// is the ego footprint half-diagonal).
    pub fn ego_contacts(
        &mut self,
        map: &Map,
        ego_shape: &CollisionShape,
        ego_pos: Vec2,
        ego_radius: f64,
    ) -> (bool, bool) {
        let boundary = self.boundary;
        let mut q = std::mem::take(&mut self.q);
        self.index
            .query_circle(ego_pos, ego_radius + self.max_extent + self.slack(), &mut q);
        let mut hit_vehicle = false;
        let mut hit_ped = false;
        for &key in &q {
            match self.slot(key) {
                Slot::Npc(slot) => {
                    if !self.npcs[slot].is_knocked()
                        && ego_shape.contact(&self.npc_shape(map, slot)).is_some()
                    {
                        // Freeze the vehicle where it was struck and wake it
                        // every tick so its despawn timer runs.
                        let secs = self.npc_dormant_secs(slot, boundary);
                        self.npcs[slot].coast(secs);
                        self.npc_anchor[slot] = boundary;
                        self.npcs[slot].knock();
                        self.index
                            .update(key, self.npcs[slot].position_at(map, 0.0));
                        self.npc_wake[slot] = boundary;
                        hit_vehicle = true;
                    }
                }
                Slot::Ped(slot) => {
                    if ego_shape.contact(&self.ped_shape(slot)).is_some() {
                        let secs = self.ped_dormant_secs(slot, boundary);
                        self.peds[slot].coast(secs);
                        self.ped_anchor[slot] = boundary;
                        self.peds[slot].knock();
                        self.index.update(key, self.peds[slot].position());
                        self.ped_wake[slot] = boundary;
                        hit_ped = true;
                    }
                }
            }
        }
        self.q = q;
        (hit_vehicle, hit_ped)
    }

    /// Pushes the collision shapes (materialized at the current boundary)
    /// of a superset of the live actors that have a point within `range`
    /// of `center`: every actor whose indexed position lies within
    /// `range` plus the largest half-extent plus the drift slack. `keys`
    /// is the caller's query buffer. The keys come back sorted, NPC slots
    /// before pedestrian slots, so the shapes are a subsequence of
    /// [`Traffic::all_shapes`], in its order and bit-identical to its
    /// entries; a consumer that re-applies its own range test decides as
    /// over every actor.
    pub fn push_shapes_within(
        &self,
        map: &Map,
        center: Vec2,
        range: f64,
        keys: &mut Vec<u32>,
        out: &mut Vec<CollisionShape>,
    ) {
        self.index
            .query_circle(center, range + self.max_extent + self.slack(), keys);
        for &key in keys.iter() {
            out.push(match self.slot(key) {
                Slot::Npc(slot) => self.npc_shape(map, slot),
                Slot::Ped(slot) => self.ped_shape(slot),
            });
        }
    }

    /// Pushes a billboard for every live actor, in spawn order, NPCs
    /// before pedestrians, at the current boundary. The camera's field of
    /// view and depth clip decide which of them it draws.
    pub fn fill_billboards(&self, map: &Map, out: &mut Vec<Billboard>) {
        let boundary = self.boundary;
        for (slot, npc) in self.live_npcs() {
            let secs = self.npc_dormant_secs(slot, boundary);
            out.push(npc_billboard(
                npc.position_at(map, secs),
                npc.params().width,
            ));
        }
        for (slot, ped) in self.live_peds() {
            let secs = self.ped_dormant_secs(slot, boundary);
            out.push(ped_billboard(ped.position_at(secs)));
        }
    }

    /// Collision shapes of all live actors, materialized at the current
    /// boundary, in spawn order, NPCs before pedestrians.
    pub fn all_shapes(&self, map: &Map) -> Vec<CollisionShape> {
        let npcs = self.live_npcs().map(|(slot, _)| self.npc_shape(map, slot));
        let peds = self.live_peds().map(|(slot, _)| self.ped_shape(slot));
        npcs.chain(peds).collect()
    }

    /// Full-scan reference for [`Traffic::vehicle_candidates`]: every
    /// other live NPC, in spawn order, materialized at the boundary. Kept
    /// as the differential oracle for the index-backed path.
    #[cfg(test)]
    fn vehicle_candidates_full_scan(
        &self,
        map: &Map,
        skip: usize,
        boundary: u64,
        info: &mut Vec<(Vec2, f64, f64)>,
    ) {
        info.clear();
        for (slot, npc) in self.live_npcs() {
            if slot == skip {
                continue;
            }
            let secs = self.npc_dormant_secs(slot, boundary);
            info.push((
                npc.pose_at(map, secs).position,
                npc.speed(),
                npc.params().length * 0.5,
            ));
        }
    }
}

fn npc_billboard(position: Vec2, width: f64) -> Billboard {
    Billboard {
        position,
        radius: width * 0.6,
        base: 0.0,
        top: 1.5,
        color: [0.72, 0.12, 0.12],
    }
}

fn ped_billboard(position: Vec2) -> Billboard {
    Billboard {
        position,
        radius: 0.3,
        base: 0.0,
        top: 1.75,
        color: [0.15, 0.2, 0.85],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::{spawn_npc_vehicles, spawn_pedestrians};
    use crate::map::town::{TownConfig, TownGenerator};
    use crate::rng::stream_rng;

    fn setup(seed: u64, npcs: usize, peds: usize, horizon: u32) -> (Map, Traffic) {
        let map = TownGenerator::new(TownConfig::grid(4, 4)).generate();
        let mut npc_rng = stream_rng(seed, 2);
        let mut ped_rng = stream_rng(seed, 3);
        let vs = spawn_npc_vehicles(&map, npcs, Vec2::ZERO, &mut npc_rng);
        let ps = spawn_pedestrians(&map, peds, 0.05, &mut ped_rng);
        let traffic = Traffic::new(&map, vs, ps, npc_rng, ped_rng, horizon);
        (map, traffic)
    }

    fn ego() -> (Vec2, f64, f64) {
        (Vec2::new(1.0, 1.0), 0.0, 2.25)
    }

    fn run(traffic: &mut Traffic, map: &Map, frames: u64) {
        for f in 0..frames {
            traffic.step(map, ego(), f as f64 * FRAME_DT, f);
        }
    }

    fn live(wake: &[u64]) -> Vec<usize> {
        (0..wake.len()).filter(|&s| wake[s] != NEVER).collect()
    }

    /// The index-backed perceive path must agree with the retained
    /// full-scan reference at every frame, at horizons 1 and 8 —
    /// including dormant (extrapolated) candidates.
    #[test]
    fn perceive_candidates_match_full_scan_oracle() {
        for horizon in [1u32, 8] {
            let (map, mut traffic) = setup(42, 12, 6, horizon);
            let mut q = Vec::new();
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            for f in 0..240u64 {
                let time = f as f64 * FRAME_DT;
                traffic.fill_npc_positions(&map, f);
                for slot in live(&traffic.npc_wake) {
                    let secs = traffic.npc_dormant_secs(slot, f);
                    let my_pos = traffic.npcs[slot].pose_at(&map, secs).position;
                    assert_eq!(traffic.npc_pos[slot], my_pos, "frame={f} slot={slot}");
                    traffic.vehicle_candidates(slot, my_pos, &mut q, &mut fast);
                    traffic.vehicle_candidates_full_scan(&map, slot, f, &mut slow);
                    let npc = &traffic.npcs[slot];
                    // The fast list is a pre-filtered subsequence; the
                    // perceive *result* must be identical.
                    let a = npc.perceive(&map, fast.iter().copied().chain([ego()]), time);
                    let b = npc.perceive(&map, slow.iter().copied().chain([ego()]), time);
                    assert_eq!(a, b, "horizon={horizon} frame={f} slot={slot}");
                }
                traffic.step(&map, ego(), time, f);
            }
        }
    }

    /// LIDAR obstacle culling through the index must leave the scan output
    /// bit-identical to scanning every actor shape.
    #[test]
    fn lidar_scan_identical_with_index_culling() {
        use crate::math::Pose;
        use crate::sensors::{Lidar, LidarConfig, LidarScan};
        for horizon in [1u32, 8] {
            let (map, mut traffic) = setup(7, 14, 8, horizon);
            run(&mut traffic, &map, 120);
            let lidar = Lidar::new(LidarConfig::default());
            let ego_pose = Pose::new(Vec2::new(30.0, 6.0), 0.3);
            let mut culled = Vec::new();
            traffic.push_shapes_within(
                &map,
                ego_pose.position,
                lidar.config().max_range,
                &mut Vec::new(),
                &mut culled,
            );
            let full = traffic.all_shapes(&map);
            assert!(culled.len() <= full.len());
            let mut scan_culled = LidarScan {
                ranges: Vec::new(),
                fov_deg: 0.0,
                max_range: 0.0,
            };
            let mut scan_full = scan_culled.clone();
            lidar.scan_into(ego_pose, culled.iter(), &mut scan_culled);
            lidar.scan_into(ego_pose, full.iter(), &mut scan_full);
            assert_eq!(scan_culled.ranges, scan_full.ranges, "horizon={horizon}");
        }
    }

    /// At horizon 1 every live actor wakes every frame, in slot order,
    /// NPCs before pedestrians.
    #[test]
    fn horizon_one_wakes_every_live_actor_in_slot_order() {
        let (map, mut traffic) = setup(3, 6, 5, 1);
        for f in 0..30u64 {
            let (npcs, peds) = (live(&traffic.npc_wake), live(&traffic.ped_wake));
            traffic.step(&map, ego(), f as f64 * FRAME_DT, f);
            assert_eq!(traffic.due_npcs, npcs, "frame {f}");
            assert_eq!(traffic.due_peds, peds, "frame {f}");
            assert_eq!(npcs.len(), 6);
            assert_eq!(peds.len(), 5);
        }
    }

    /// At a horizon above 1, cruising actors must actually sleep: across
    /// a window of frames, the number of decisions should be well below
    /// one per actor per frame.
    #[test]
    fn event_mode_sleeps_agents() {
        let (map, mut traffic) = setup(11, 16, 10, 12);
        // Warm up so NPCs reach cruise speed.
        run(&mut traffic, &map, 300);
        let mut decisions = 0usize;
        let population = traffic.npcs().count() + traffic.pedestrians().count();
        for f in 300..400u64 {
            traffic.step(&map, ego(), f as f64 * FRAME_DT, f);
            decisions += traffic.due_npcs.len() + traffic.due_peds.len();
        }
        let per_frame = decisions as f64 / 100.0;
        assert!(
            per_frame < population as f64 * 0.8,
            "no sleeping: {per_frame:.1} decisions/frame for {population} agents"
        );
    }

    /// A knocked NPC must despawn after ~3 s at both horizons: its wake
    /// tick becomes `NEVER`, its index entry goes and `npcs()` shrinks by
    /// one.
    #[test]
    fn knocked_npc_despawns_cleanly() {
        for horizon in [1u32, 8] {
            let (map, mut traffic) = setup(5, 8, 0, horizon);
            run(&mut traffic, &map, 30);
            // Drop the ego right on top of NPC 0.
            let slot = 0;
            let secs = traffic.npc_dormant_secs(slot, traffic.boundary);
            let pose = traffic.npcs[slot].pose_at(&map, secs);
            let ego_shape = CollisionShape::Box(crate::math::Obb::new(pose, 4.5, 1.9));
            let ego_r = (4.5f64 * 4.5 + 1.9 * 1.9).sqrt() * 0.5;
            let (hit_v, _) = traffic.ego_contacts(&map, &ego_shape, pose.position, ego_r);
            assert!(hit_v, "horizon={horizon}: contact not detected");
            let before = traffic.npcs().count();
            let b0 = traffic.boundary;
            for f in b0..b0 + 60 {
                traffic.step(&map, ego(), f as f64 * FRAME_DT, f);
            }
            assert_eq!(traffic.npcs().count(), before - 1, "horizon={horizon}");
            assert_eq!(traffic.npc_wake[slot], NEVER, "horizon={horizon}");
            assert!(traffic.index.stored(slot as u32).is_none());
            assert_eq!(traffic.npcs.len(), 8, "the slot is kept");
        }
    }

    /// A hit pedestrian stays among the actor shapes until its next step
    /// (the frame after the hit) and despawns on that step, at both
    /// horizons: its wake tick becomes `NEVER`, its index entry goes and
    /// `pedestrians()` shrinks by one.
    #[test]
    fn hit_pedestrian_despawns_on_its_next_step() {
        for horizon in [1u32, 8] {
            let (map, mut traffic) = setup(5, 0, 6, horizon);
            run(&mut traffic, &map, 30);
            let slot = 2;
            let key = traffic.ped_key(slot);
            let secs = traffic.ped_dormant_secs(slot, traffic.boundary);
            let at = traffic.peds[slot].position_at(secs);
            let ego_shape = CollisionShape::Circle {
                center: at,
                radius: 1.0,
            };
            let (_, hit_p) = traffic.ego_contacts(&map, &ego_shape, at, 1.0);
            assert!(hit_p, "horizon={horizon}: contact not detected");
            let circle = CollisionShape::Circle {
                center: at,
                radius: PEDESTRIAN_RADIUS,
            };
            assert_eq!(traffic.pedestrians().count(), 6);
            assert!(traffic.all_shapes(&map).contains(&circle));
            assert_eq!(traffic.ped_wake[slot], traffic.boundary);

            let b0 = traffic.boundary;
            traffic.step(&map, ego(), b0 as f64 * FRAME_DT, b0);
            assert_eq!(traffic.pedestrians().count(), 5, "horizon={horizon}");
            assert!(!traffic.all_shapes(&map).contains(&circle));
            assert_eq!(traffic.all_shapes(&map).len(), 5);
            assert_eq!(traffic.ped_wake[slot], NEVER);
            assert!(traffic.index.stored(key).is_none());
            assert_eq!(traffic.peds.len(), 6, "the slot is kept");
        }
    }

    /// Stepping is deterministic at a horizon above 1: same seed, same
    /// history.
    #[test]
    fn event_mode_deterministic() {
        let run_once = || {
            let (map, mut traffic) = setup(9, 15, 9, 10);
            run(&mut traffic, &map, 400);
            let npc_state: Vec<(usize, f64, f64)> = traffic
                .live_npcs()
                .map(|(slot, n)| (slot, n.s(), n.speed()))
                .collect();
            let ped_pos: Vec<Vec2> = traffic.pedestrians().map(|p| p.position()).collect();
            (npc_state, ped_pos)
        };
        assert_eq!(run_once(), run_once());
    }
}
