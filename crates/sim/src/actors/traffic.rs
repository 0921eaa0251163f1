//! Event-driven traffic: NPC vehicles and pedestrians behind a discrete
//! event scheduler and a uniform-grid spatial index.
//!
//! [`Traffic`] owns every non-ego actor and replaces the legacy
//! "step everyone every frame" loop with two structures:
//!
//! * a [`Scheduler`] that wakes an agent only when its next *decision* is
//!   due (lead-vehicle reaction, lane choice, crossing intent). Between
//!   decisions an agent is dormant and integrates analytically — NPC
//!   vehicles coast at constant speed along their lane, pedestrians walk
//!   their current leg — so a frame costs O(due agents), and
//! * a [`SpatialIndex`] holding every actor's last-updated position, so
//!   neighbor queries (perceive candidates, ego collision checks, LIDAR
//!   obstacle culling) cost O(nearby) instead of O(population).
//!
//! ## Compat mode is bit-identical to the legacy loop
//!
//! The decision horizon comes from the scenario
//! ([`crate::scenario::Scenario::decision_horizon`], default 1). With
//! horizon 1 every agent's next decision is exactly one tick away, so each
//! frame pops all agents in `(tick, spawn id)` order — the same order the
//! legacy loop iterated the actor vectors — dormant coasts are zero-length
//! no-ops, and every RNG draw happens at the same point in the same
//! stream. Index queries are used even in compat mode, but only ever as a
//! *superset* pre-filter: each downstream consumer re-applies the exact
//! legacy predicate (perceive's own scan-distance prefilter, the LIDAR
//! min-fold, the OBB/circle contact test), so results are bit-identical
//! and all existing goldens hold.
//!
//! ## Query slack
//!
//! The index stores positions as of each agent's last update, up to
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
use crate::schedule::Scheduler;
use crate::sensors::Billboard;
use crate::spatial::SpatialIndex;
use crate::FRAME_DT;
use rand::rngs::StdRng;

/// Grid cell edge, meters: a third of the NPC scan horizon, 15 m. A
/// perceive query (the 45 m scan horizon plus drift slack: a 46 m radius
/// at horizon 1, 50 m at horizon 8) spans 7×7 or 8×8 cells; ego collision
/// queries span one to three cells a side.
const CELL_SIZE: f64 = SCAN_AHEAD / 3.0;

/// Event-mode billboard visibility radius around the ego, meters. Beyond
/// this an actor subtends well under a pixel of the 64-px camera. Compat
/// mode ignores it and renders every actor (the goldens' billboard list).
const BILLBOARD_RADIUS: f64 = 250.0;

/// Marker for a despawned actor in the key → slot table.
const GONE: usize = usize::MAX;

/// All non-ego dynamic actors, stepped event-driven.
#[derive(Debug)]
pub struct Traffic {
    npcs: Vec<NpcVehicle>,
    peds: Vec<Pedestrian>,
    /// Stable spawn keys parallel to `npcs` / `peds`, ascending. NPC keys
    /// are `0..ped_base`, pedestrian keys `ped_base..`; popping the
    /// scheduler in key order therefore reproduces the legacy section
    /// order (all NPCs, then all pedestrians, each in spawn order).
    npc_keys: Vec<u32>,
    ped_keys: Vec<u32>,
    /// Frame boundary at which each actor's stored state is valid.
    npc_anchor: Vec<u64>,
    ped_anchor: Vec<u64>,
    /// Key → current slot in the parallel vectors ([`GONE`] = despawned).
    slot_of: Vec<usize>,
    ped_base: u32,
    scheduler: Scheduler,
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
    due_npcs: Vec<u32>,
    due_peds: Vec<u32>,
    q: Vec<u32>,
    info: Vec<(Vec2, f64, f64)>,
    leaders: Vec<Option<(f64, f64)>>,
    /// Each NPC's position at the current frame boundary, by slot, filled
    /// once per frame before phase A (see [`Traffic::fill_npc_positions`]).
    npc_pos: Vec<Vec2>,
}

impl Traffic {
    /// Wraps freshly spawned actors. All agents are scheduled for a
    /// decision at tick 0; `horizon` is the maximum ticks an agent may
    /// sleep between decisions (clamped to at least 1; 1 = legacy
    /// per-tick stepping).
    pub fn new(
        map: &Map,
        npcs: Vec<NpcVehicle>,
        peds: Vec<Pedestrian>,
        npc_rng: StdRng,
        ped_rng: StdRng,
        horizon: u32,
    ) -> Self {
        let horizon = horizon.max(1);
        let ped_base = npcs.len() as u32;
        let total = npcs.len() + peds.len();
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
        let mut scheduler = Scheduler::new();
        for (slot, npc) in npcs.iter().enumerate() {
            index.update(slot as u32, npc.position_at(map, 0.0));
            scheduler.schedule(slot as u32, 0);
        }
        for (slot, ped) in peds.iter().enumerate() {
            let key = ped_base + slot as u32;
            index.update(key, ped.position());
            scheduler.schedule(key, 0);
        }

        Traffic {
            npc_keys: (0..ped_base).collect(),
            ped_keys: (ped_base..total as u32).collect(),
            npc_anchor: vec![0; npcs.len()],
            ped_anchor: vec![0; peds.len()],
            slot_of: (0..npcs.len()).chain(0..peds.len()).collect(),
            npcs,
            peds,
            ped_base,
            scheduler,
            index,
            horizon,
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
    pub fn npcs(&self) -> &[NpcVehicle] {
        &self.npcs
    }

    /// Live pedestrians, in spawn order (same staleness note as
    /// [`Traffic::npcs`]).
    pub fn pedestrians(&self) -> &[Pedestrian] {
        &self.peds
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

    /// Lead-vehicle candidates for the NPC with key `skip`: every *other*
    /// NPC within the scan horizon (plus drift slack) of `center`, at the
    /// boundary the position table was filled for, in spawn order — the
    /// exact (sub)sequence the legacy full scan fed to `perceive`, which
    /// then re-applies its own exact scan-distance prefilter.
    fn vehicle_candidates(
        &self,
        skip: u32,
        center: Vec2,
        q: &mut Vec<u32>,
        info: &mut Vec<(Vec2, f64, f64)>,
    ) {
        info.clear();
        self.index
            .query_circle(center, SCAN_AHEAD + self.slack(), q);
        for &key in q.iter() {
            if key >= self.ped_base || key == skip {
                continue;
            }
            let slot = self.slot_of[key as usize];
            let npc = &self.npcs[slot];
            info.push((self.npc_pos[slot], npc.speed(), npc.params().length * 0.5));
        }
    }

    /// Advances traffic by one frame: wakes every agent whose decision is
    /// due at `frame`, runs perceive-then-step for due NPC vehicles (all
    /// perceives against the pre-step positional snapshot, like the legacy
    /// two-phase loop), then due pedestrians, and reschedules each agent
    /// at its next decision tick.
    ///
    /// `ego` is `(position, speed, half_length)` of the ego vehicle after
    /// its dynamics step; `time` is the simulation clock at the frame
    /// start.
    pub fn step(&mut self, map: &Map, ego: (Vec2, f64, f64), time: f64, frame: u64) {
        debug_assert_eq!(frame, self.boundary, "traffic stepped out of order");

        // Wake phase: due agents pop in (tick, spawn key) order; NPC keys
        // precede pedestrian keys, giving the legacy section order.
        self.due_npcs.clear();
        self.due_peds.clear();
        while let Some(key) = self.scheduler.pop_due(frame) {
            if key < self.ped_base {
                self.due_npcs.push(key);
            } else {
                self.due_peds.push(key);
            }
        }

        // Fold dormant coasts so every due NPC's own state is exact at this
        // boundary before any perceive runs (no-op in compat mode).
        for di in 0..self.due_npcs.len() {
            let slot = self.slot_of[self.due_npcs[di] as usize];
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
        for di in 0..self.due_npcs.len() {
            let key = self.due_npcs[di];
            let slot = self.slot_of[key as usize];
            let npc = &self.npcs[slot];
            if npc.is_knocked() {
                // A knocked vehicle's step ignores the leader; skipping the
                // (pure) perceive changes nothing.
                leaders.push(None);
                continue;
            }
            self.vehicle_candidates(key, self.npc_pos[slot], &mut q, &mut info);
            info.push(ego);
            leaders.push(npc.perceive(map, info.iter().copied(), time));
        }

        // Phase B: step due NPCs in spawn order; lane-choice RNG draws
        // happen here, in the same stream order as the legacy loop.
        let mut npc_despawn = false;
        for (di, &leader) in leaders.iter().enumerate() {
            let key = self.due_npcs[di];
            let slot = self.slot_of[key as usize];
            self.npcs[slot].step(map, leader, &mut self.npc_rng, FRAME_DT);
            self.npc_anchor[slot] = frame + 1;
            if self.npcs[slot].should_despawn() {
                npc_despawn = true;
                continue;
            }
            let pos = self.npcs[slot].position_at(map, 0.0);
            self.index.update(key, pos);
            let next = self.npc_next_wake(map, slot, leader);
            self.scheduler.schedule(key, frame + next);
        }
        if npc_despawn {
            self.compact_npcs();
        }

        // Pedestrian phase: due walkers move one tick and make one
        // (aggregated) crossing decision; hit walkers are removed, exactly
        // when the legacy retain dropped them.
        let mut ped_despawn = false;
        for di in 0..self.due_peds.len() {
            let key = self.due_peds[di];
            let slot = self.slot_of[key as usize];
            if self.peds[slot].should_despawn() {
                ped_despawn = true;
                continue;
            }
            let dormant = frame - self.ped_anchor[slot];
            if dormant > 0 {
                self.peds[slot].coast(dormant as f64 * FRAME_DT);
            }
            self.peds[slot].step_multi(&mut self.ped_rng, FRAME_DT, dormant + 1);
            self.ped_anchor[slot] = frame + 1;
            let pos = self.peds[slot].position();
            self.index.update(key, pos);
            let next = self.ped_next_wake(slot);
            self.scheduler.schedule(key, frame + next);
        }
        if ped_despawn {
            self.compact_peds();
        }

        self.q = q;
        self.info = info;
        self.leaders = leaders;
        self.boundary = frame + 1;
    }

    fn npc_next_wake(&self, map: &Map, slot: usize, leader: Option<(f64, f64)>) -> u64 {
        if self.horizon <= 1 {
            return 1;
        }
        let npc = &self.npcs[slot];
        if npc.is_knocked() || leader.is_some() {
            return 1;
        }
        npc.cruise_headroom_ticks(map, FRAME_DT)
            .clamp(1, self.horizon as u64)
    }

    fn ped_next_wake(&self, slot: usize) -> u64 {
        if self.horizon <= 1 {
            return 1;
        }
        self.peds[slot]
            .ticks_until_turn(FRAME_DT)
            .clamp(1, self.horizon as u64)
    }

    /// Checks every nearby actor for contact with the ego footprint,
    /// knocking those that touch it. Returns `(hit_vehicle, hit_ped)` —
    /// the legacy section-5 collision pass, restricted to an index query
    /// around the ego (`ego_radius` is the ego footprint half-diagonal).
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
            let slot = self.slot_of[key as usize];
            if key < self.ped_base {
                let secs = self.npc_dormant_secs(slot, boundary);
                if !self.npcs[slot].is_knocked()
                    && ego_shape
                        .contact(&self.npcs[slot].shape_at(map, secs))
                        .is_some()
                {
                    // Freeze the vehicle where it was struck and wake it
                    // every tick so its despawn timer runs.
                    self.npcs[slot].coast(secs);
                    self.npc_anchor[slot] = boundary;
                    self.npcs[slot].knock();
                    self.index
                        .update(key, self.npcs[slot].position_at(map, 0.0));
                    self.scheduler.schedule(key, boundary);
                    hit_vehicle = true;
                }
            } else {
                let secs = self.ped_dormant_secs(slot, boundary);
                let shape = CollisionShape::Circle {
                    center: self.peds[slot].position_at(secs),
                    radius: PEDESTRIAN_RADIUS,
                };
                if ego_shape.contact(&shape).is_some() {
                    self.peds[slot].coast(secs);
                    self.ped_anchor[slot] = boundary;
                    self.peds[slot].knock();
                    self.index.update(key, self.peds[slot].position());
                    self.scheduler.schedule(key, boundary);
                    hit_ped = true;
                }
            }
        }
        self.q = q;
        (hit_vehicle, hit_ped)
    }

    /// Pushes the collision shapes of all actors within `range` of
    /// `center` (materialized at the current boundary), for the LIDAR
    /// obstacle list. Excluding farther actors is exact, not approximate:
    /// a shape whose nearest point lies beyond the scan's `max_range` can
    /// only produce hits that lose the beam min-fold, so the scan output
    /// is bit-identical to the legacy full list.
    pub fn push_shapes_within(
        &mut self,
        map: &Map,
        center: Vec2,
        range: f64,
        out: &mut Vec<CollisionShape>,
    ) {
        let boundary = self.boundary;
        let mut q = std::mem::take(&mut self.q);
        self.index
            .query_circle(center, range + self.max_extent + self.slack(), &mut q);
        for &key in &q {
            let slot = self.slot_of[key as usize];
            if key < self.ped_base {
                let secs = self.npc_dormant_secs(slot, boundary);
                out.push(self.npcs[slot].shape_at(map, secs));
            } else {
                let secs = self.ped_dormant_secs(slot, boundary);
                out.push(CollisionShape::Circle {
                    center: self.peds[slot].position_at(secs),
                    radius: PEDESTRIAN_RADIUS,
                });
            }
        }
        self.q = q;
    }

    /// Pushes actor billboards for the camera. Compat mode renders every
    /// actor in spawn order (the exact legacy billboard list the camera
    /// goldens encode); event mode culls to `BILLBOARD_RADIUS` around
    /// the ego via the index.
    pub fn fill_billboards(&mut self, map: &Map, ego_pos: Vec2, out: &mut Vec<Billboard>) {
        if self.horizon <= 1 {
            for npc in &self.npcs {
                out.push(npc_billboard(npc.position_at(map, 0.0), npc.params().width));
            }
            for ped in &self.peds {
                out.push(ped_billboard(ped.position()));
            }
            return;
        }
        let boundary = self.boundary;
        let mut q = std::mem::take(&mut self.q);
        self.index
            .query_circle(ego_pos, BILLBOARD_RADIUS + self.slack(), &mut q);
        for &key in &q {
            let slot = self.slot_of[key as usize];
            if key < self.ped_base {
                let secs = self.npc_dormant_secs(slot, boundary);
                out.push(npc_billboard(
                    self.npcs[slot].position_at(map, secs),
                    self.npcs[slot].params().width,
                ));
            } else {
                let secs = self.ped_dormant_secs(slot, boundary);
                out.push(ped_billboard(self.peds[slot].position_at(secs)));
            }
        }
        self.q = q;
    }

    /// Collision shapes of all live actors, materialized at the current
    /// boundary.
    pub fn all_shapes(&self, map: &Map) -> Vec<CollisionShape> {
        let boundary = self.boundary;
        let mut out: Vec<CollisionShape> = self
            .npcs
            .iter()
            .enumerate()
            .map(|(slot, n)| n.shape_at(map, self.npc_dormant_secs(slot, boundary)))
            .collect();
        out.extend(
            self.peds
                .iter()
                .enumerate()
                .map(|(slot, p)| CollisionShape::Circle {
                    center: p.position_at(self.ped_dormant_secs(slot, boundary)),
                    radius: PEDESTRIAN_RADIUS,
                }),
        );
        out
    }

    /// Stable, order-preserving removal of despawned NPCs from the
    /// parallel vectors, the index and the scheduler.
    fn compact_npcs(&mut self) {
        let mut w = 0;
        for r in 0..self.npcs.len() {
            if self.npcs[r].should_despawn() {
                let key = self.npc_keys[r];
                self.index.remove(key);
                self.scheduler.deschedule(key);
                self.slot_of[key as usize] = GONE;
            } else {
                if w != r {
                    self.npcs.swap(w, r);
                    self.npc_keys.swap(w, r);
                    self.npc_anchor.swap(w, r);
                }
                w += 1;
            }
        }
        self.npcs.truncate(w);
        self.npc_keys.truncate(w);
        self.npc_anchor.truncate(w);
        for (slot, &key) in self.npc_keys.iter().enumerate() {
            self.slot_of[key as usize] = slot;
        }
    }

    fn compact_peds(&mut self) {
        let mut w = 0;
        for r in 0..self.peds.len() {
            if self.peds[r].should_despawn() {
                let key = self.ped_keys[r];
                self.index.remove(key);
                self.scheduler.deschedule(key);
                self.slot_of[key as usize] = GONE;
            } else {
                if w != r {
                    self.peds.swap(w, r);
                    self.ped_keys.swap(w, r);
                    self.ped_anchor.swap(w, r);
                }
                w += 1;
            }
        }
        self.peds.truncate(w);
        self.ped_keys.truncate(w);
        self.ped_anchor.truncate(w);
        for (slot, &key) in self.ped_keys.iter().enumerate() {
            self.slot_of[key as usize] = slot;
        }
    }

    /// Full-scan reference for [`Traffic::vehicle_candidates`]: the legacy
    /// O(population) candidate list (every other NPC, spawn order,
    /// materialized at the boundary). Kept as the differential oracle for
    /// the index-backed path.
    #[cfg(test)]
    fn vehicle_candidates_full_scan(
        &self,
        map: &Map,
        skip: u32,
        boundary: u64,
        info: &mut Vec<(Vec2, f64, f64)>,
    ) {
        info.clear();
        for (slot, npc) in self.npcs.iter().enumerate() {
            if self.npc_keys[slot] == skip {
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

    /// The index-backed perceive path must agree with the retained
    /// full-scan reference at every frame, for both compat and event
    /// horizons — including dormant (extrapolated) candidates.
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
                for slot in 0..traffic.npcs.len() {
                    let key = traffic.npc_keys[slot];
                    let secs = traffic.npc_dormant_secs(slot, f);
                    let my_pos = traffic.npcs[slot].pose_at(&map, secs).position;
                    assert_eq!(traffic.npc_pos[slot], my_pos, "frame={f} slot={slot}");
                    traffic.vehicle_candidates(key, my_pos, &mut q, &mut fast);
                    traffic.vehicle_candidates_full_scan(&map, key, f, &mut slow);
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

    /// Compat mode (horizon 1) must wake every agent every frame.
    #[test]
    fn compat_mode_wakes_everyone_every_frame() {
        let (map, mut traffic) = setup(3, 6, 5, 1);
        for f in 0..30u64 {
            traffic.step(&map, ego(), f as f64 * FRAME_DT, f);
            assert_eq!(traffic.due_npcs.len(), traffic.npcs.len());
            assert_eq!(traffic.due_peds.len(), traffic.peds.len());
        }
    }

    /// Event mode must actually put cruising agents to sleep: across a
    /// window of frames, the number of decisions should be well below
    /// one-per-agent-per-frame.
    #[test]
    fn event_mode_sleeps_agents() {
        let (map, mut traffic) = setup(11, 16, 10, 12);
        // Warm up so NPCs reach cruise speed.
        run(&mut traffic, &map, 300);
        let mut decisions = 0usize;
        let population = traffic.npcs.len() + traffic.peds.len();
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

    /// A knocked NPC must despawn after ~3 s in both modes, and its index
    /// and scheduler entries must go with it.
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
            let key = traffic.npc_keys[slot];
            let before = traffic.npcs.len();
            let b0 = traffic.boundary;
            for f in b0..b0 + 60 {
                traffic.step(&map, ego(), f as f64 * FRAME_DT, f);
            }
            assert_eq!(traffic.npcs.len(), before - 1, "horizon={horizon}");
            assert_eq!(traffic.slot_of[key as usize], GONE);
            assert!(traffic.index.stored(key).is_none());
        }
    }

    /// Event-mode stepping is deterministic: same seed, same history.
    #[test]
    fn event_mode_deterministic() {
        let run_once = || {
            let (map, mut traffic) = setup(9, 15, 9, 10);
            run(&mut traffic, &map, 400);
            let npc_state: Vec<(u32, f64, f64)> = traffic
                .npcs
                .iter()
                .zip(&traffic.npc_keys)
                .map(|(n, &k)| (k, n.s(), n.speed()))
                .collect();
            let ped_pos: Vec<Vec2> = traffic.peds.iter().map(|p| p.position()).collect();
            (npc_state, ped_pos)
        };
        assert_eq!(run_once(), run_once());
    }
}
