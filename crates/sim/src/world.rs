//! The lockstep simulation world: ties the map, physics, traffic, sensors
//! and the violation monitor together behind a CARLA-server-like API.
//!
//! Each call to [`World::step`] applies one actuation command and advances
//! the world by one frame (1/15 s); [`World::observe`] renders the sensor
//! payload the server would ship to the driving-agent client.

use crate::actors::{spawn_npc_vehicles, spawn_pedestrians, NpcVehicle, Pedestrian, Traffic};
use crate::map::route::{Command, RouteTracker};
use crate::map::town::TownGenerator;
use crate::map::{LightState, Map, SignalGroup};
use crate::math::{Obb, Pose, Vec2};
use crate::physics::{BicycleModel, CollisionShape, VehicleControl, VehicleParams, VehicleState};
use crate::recorder::{Recorder, TrajectorySample};
use crate::rng::stream_rng;
use crate::scenario::Scenario;
use crate::sensors::{
    Billboard, Camera, Gps, GpsFix, Image, Imu, ImuReading, Lidar, LidarScan, PixelFootprint,
    RenderScene, SensorFrame,
};
use crate::violation::{EgoSnapshot, ViolationKind, ViolationMonitor};
use crate::weather::Weather;
use crate::FRAME_DT;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Distance to the goal that counts as mission completion, meters.
pub const GOAL_RADIUS: f64 = 6.0;

/// Seconds of near-zero speed after which a mission is declared
/// [`MissionStatus::Stuck`]. Must exceed the longest legitimate standstill
/// — a full red-light wait is up to ~14 s with the default signal timing —
/// or correct waiting would be misdeclared as a stall.
pub const STUCK_SECONDS: f64 = 20.0;

/// Mission outcome state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MissionStatus {
    /// Mission still in progress.
    Running,
    /// Goal reached within the time budget.
    Success {
        /// Completion time, seconds.
        time: f64,
    },
    /// Time budget exhausted before reaching the goal.
    Timeout,
    /// Ego immobile for [`STUCK_SECONDS`] (e.g. pinned against a building);
    /// the mission cannot recover and is failed early.
    Stuck,
}

impl MissionStatus {
    /// `true` once the mission is over (success or timeout).
    pub fn is_terminal(self) -> bool {
        !matches!(self, MissionStatus::Running)
    }

    /// `true` on success.
    pub fn is_success(self) -> bool {
        matches!(self, MissionStatus::Success { .. })
    }
}

/// Ground-truth car measurements the server sends alongside the sensors
/// (CARLA's "measurements of the car (e.g., speed, location)").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EgoTruth {
    /// True pose.
    pub pose: Pose,
    /// True speed, m/s.
    pub speed: f64,
    /// Distance driven, meters.
    pub odometer: f64,
    /// Straight-line distance to the mission goal, meters.
    pub goal_distance: f64,
    /// Remaining route length, meters.
    pub route_remaining: f64,
}

/// One complete observation frame shipped from server to client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldObservation {
    /// Sensor payloads (camera, LIDAR, GPS, odometry).
    pub sensors: SensorFrame,
    /// High-level planner command for the conditional agent.
    pub command: Command,
    /// Mission state.
    pub mission: MissionStatus,
    /// Ground-truth measurements.
    pub truth: EgoTruth,
}

/// The simulation world.
#[derive(Debug)]
pub struct World {
    scenario: Scenario,
    map: Map,
    camera: Camera,
    lidar: Lidar,
    gps: Gps,
    imu: Imu,
    ego_model: BicycleModel,
    ego: VehicleState,
    /// Event-driven NPC/pedestrian subsystem (wake table + spatial index).
    traffic: Traffic,
    tracker: RouteTracker,
    monitor: ViolationMonitor,
    recorder: Recorder,
    mission: MissionStatus,
    time: f64,
    frame: u64,
    odometer: f64,
    /// Consecutive seconds with near-zero speed (stuck detector).
    low_speed_time: f64,
    gps_rng: StdRng,
    imu_rng: StdRng,
    /// The camera rows [`World::observe_into`] renders.
    camera_rows: PixelFootprint,
    /// Whether [`World::observe_into`] scans the LIDAR: until
    /// [`World::narrow_to`].
    scan_lidar: bool,
    /// Reused per-frame billboard list (steady-state `observe` is
    /// allocation-free; see [`World::observe_into`]).
    scratch_billboards: Vec<Billboard>,
    /// Reused per-frame LIDAR obstacle list and its index-query keys.
    scratch_shapes: Vec<CollisionShape>,
    scratch_keys: Vec<u32>,
}

// RNG stream ids derived from the scenario seed.
const STREAM_MISSION: u64 = 1;
const STREAM_NPC: u64 = 2;
const STREAM_PED: u64 = 3;
const STREAM_GPS: u64 = 4;
const STREAM_IMU: u64 = 5;

impl World {
    /// Builds the world for a scenario: generates the town, samples the
    /// mission route, spawns traffic, and places the ego at the route
    /// start.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's town cannot host a mission route. Not
    /// every grid town can: the route needs two drive lanes longer than
    /// 20 m ([`mission_lanes`](crate::scenario::mission_lanes)), and a 2×2
    /// town with `block = 25.0` has none. The campaign executor refuses
    /// such a town before any run ([`check_town_routes`]). A town that has
    /// the lanes still panics here if all 64 of the seed's route draws
    /// miss; no town in the repository does (ROADMAP item 3).
    ///
    /// [`check_town_routes`]: crate::scenario::check_town_routes
    pub fn from_scenario(scenario: &Scenario) -> Self {
        let map = TownGenerator::new(scenario.town.clone()).generate();
        let mut mission_rng = stream_rng(scenario.seed, STREAM_MISSION);
        let route = scenario
            .sample_mission(&map, &mut mission_rng)
            .expect("scenario town has no drivable mission route");
        let wps = route.waypoints();
        let heading = if wps.len() >= 2 {
            (wps[1].position - wps[0].position).angle()
        } else {
            0.0
        };
        let start = Pose::new(wps[0].position, heading);
        let mut npc_rng = stream_rng(scenario.seed, STREAM_NPC);
        let mut ped_rng = stream_rng(scenario.seed, STREAM_PED);
        let npcs = spawn_npc_vehicles(&map, scenario.npc_vehicles, start.position, &mut npc_rng);
        let pedestrians = spawn_pedestrians(
            &map,
            scenario.pedestrians,
            scenario.pedestrian_cross_rate,
            &mut ped_rng,
        );
        let traffic = Traffic::new(
            &map,
            npcs,
            pedestrians,
            npc_rng,
            ped_rng,
            scenario.decision_horizon,
        );
        World {
            camera: Camera::new(scenario.camera),
            lidar: Lidar::new(scenario.lidar),
            gps: Gps::new(scenario.gps),
            imu: Imu::new(scenario.imu),
            ego_model: BicycleModel::new(VehicleParams::default()),
            ego: VehicleState::at_rest(start),
            traffic,
            tracker: RouteTracker::new(route),
            monitor: ViolationMonitor::new(),
            recorder: Recorder::new(false),
            mission: MissionStatus::Running,
            time: 0.0,
            frame: 0,
            odometer: 0.0,
            low_speed_time: 0.0,
            gps_rng: stream_rng(scenario.seed, STREAM_GPS),
            imu_rng: stream_rng(scenario.seed, STREAM_IMU),
            camera_rows: PixelFootprint::whole(scenario.camera.width, scenario.camera.height),
            scan_lidar: true,
            scenario: scenario.clone(),
            map,
            scratch_billboards: Vec::new(),
            scratch_shapes: Vec::new(),
            scratch_keys: Vec::new(),
        }
    }

    /// The road map.
    pub fn map(&self) -> &Map {
        &self.map
    }

    /// Current weather.
    pub fn weather(&self) -> Weather {
        self.scenario.weather
    }

    /// Ego vehicle state.
    pub fn ego(&self) -> &VehicleState {
        &self.ego
    }

    /// Ego vehicle dynamics model.
    pub fn ego_model(&self) -> &BicycleModel {
        &self.ego_model
    }

    /// Mission route tracker.
    pub fn tracker(&self) -> &RouteTracker {
        &self.tracker
    }

    /// Violation monitor (events recorded so far).
    pub fn monitor(&self) -> &ViolationMonitor {
        &self.monitor
    }

    /// Replaces the world's recorder (e.g. with a bounded black-box ring
    /// reused across runs). The previous recorder is returned.
    pub fn install_recorder(&mut self, recorder: Recorder) -> Recorder {
        std::mem::replace(&mut self.recorder, recorder)
    }

    /// Takes the recorder out of the world, leaving a disabled one.
    pub fn take_recorder(&mut self) -> Recorder {
        std::mem::take(&mut self.recorder)
    }

    /// Narrows observation to what a driver can read: the camera renders
    /// only the rows of `camera` (its column mask is ignored), none when
    /// it holds no pixel, and the LIDAR is not scanned, since no driver
    /// reads it. A new world renders every row and scans the LIDAR.
    /// Camera and LIDAR draw no randomness and their gathering touches
    /// only scratch buffers, and no camera row depends on another, so
    /// narrowing changes no other reading, no rendered row, no RNG stream
    /// and no trajectory: only the skipped rows and the sweep go stale.
    /// GPS, IMU and odometry are read every frame even so: they cost
    /// almost nothing, and GPS and IMU draw from their own RNG streams,
    /// so skipping them would shift later readings.
    pub fn narrow_to(&mut self, camera: PixelFootprint) {
        self.camera_rows = camera;
        self.scan_lidar = false;
    }

    /// Simulation time, seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Frame counter.
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// Distance driven by the ego, meters.
    pub fn odometer(&self) -> f64 {
        self.odometer
    }

    /// Mission status.
    pub fn mission(&self) -> MissionStatus {
        self.mission
    }

    /// Live NPC vehicles, in spawn order. At a decision horizon above 1,
    /// dormant vehicles' stored arc lengths lag the current frame by up to
    /// their sleep; [`World::actor_shapes`] materializes exact positions.
    pub fn npcs(&self) -> impl Iterator<Item = &NpcVehicle> {
        self.traffic.npcs()
    }

    /// Live pedestrians, in spawn order (same staleness note as
    /// [`World::npcs`]).
    pub fn pedestrians(&self) -> impl Iterator<Item = &Pedestrian> {
        self.traffic.pedestrians()
    }

    /// Ego collision footprint.
    pub fn ego_shape(&self) -> CollisionShape {
        let p = self.ego_model.params();
        CollisionShape::Box(Obb::new(self.ego.pose, p.length, p.width))
    }

    /// Collision shapes of all dynamic actors except the ego,
    /// materialized at the current frame boundary, in spawn order, NPC
    /// vehicles before pedestrians. This is the full scan: the
    /// whole-traffic digests read it, and it is the reference that
    /// [`World::actor_shapes_within`] is checked against.
    pub fn actor_shapes(&self) -> Vec<CollisionShape> {
        self.traffic.all_shapes(&self.map)
    }

    /// Fills `out` with the shapes of a superset of the actors that have
    /// a point within `range` of `center`, through the actor index
    /// (`keys` is the caller's reused query buffer). Every actor whose
    /// centre lies within `range` plus its half-extent is in it, and the
    /// list is a subsequence of [`World::actor_shapes`], in its order,
    /// each shape bit-identical. A consumer whose answer cannot depend on
    /// a shape with no point within `range` (the LIDAR's min-fold up to
    /// its maximum range, the expert's obstacle probes) therefore decides
    /// as over the full scan, for O(nearby) instead of O(population).
    pub fn actor_shapes_within(
        &self,
        center: Vec2,
        range: f64,
        keys: &mut Vec<u32>,
        out: &mut Vec<CollisionShape>,
    ) {
        out.clear();
        self.traffic
            .push_shapes_within(&self.map, center, range, keys, out);
    }

    /// Advances the world by one frame under the given actuation command.
    ///
    /// Returns the mission status after the step. Calling `step` after the
    /// mission ended is allowed and keeps simulating (the campaign runner
    /// decides when to stop).
    pub fn step(&mut self, control: VehicleControl) -> MissionStatus {
        let control = control.clamped();
        let friction = self.weather().friction();
        let prev = self.ego;

        // 1. Ego dynamics.
        self.ego = self.ego_model.step(self.ego, control, friction, FRAME_DT);

        // 2. Static collision: buildings stop the car dead.
        let snapshot = self.snapshot();
        if self.hits_building() {
            self.ego = VehicleState {
                pose: prev.pose,
                speed: 0.0,
                steer_angle: prev.steer_angle,
            };
            self.monitor
                .record_collision(ViolationKind::CollisionStatic, &snapshot);
        }

        // 3 + 4. Traffic: event-driven NPC/pedestrian updates. Agents
        // whose decision is due this frame wake (all perceive against the
        // pre-step positional snapshot, then all step); dormant agents
        // coast analytically.
        let ego_half_len = self.ego_model.params().length * 0.5;
        self.traffic.step(
            &self.map,
            (self.ego.pose.position, self.ego.speed, ego_half_len),
            self.time,
            self.frame,
        );

        // 5. Dynamic collisions against the ego, via the spatial index
        // (superset query + exact contact test).
        let ego_shape = self.ego_shape();
        let snapshot = self.snapshot();
        let p = self.ego_model.params();
        let ego_radius = (p.length * p.length + p.width * p.width).sqrt() * 0.5;
        let (hit_vehicle, hit_ped) =
            self.traffic
                .ego_contacts(&self.map, &ego_shape, self.ego.pose.position, ego_radius);
        if hit_vehicle {
            self.monitor
                .record_collision(ViolationKind::CollisionVehicle, &snapshot);
            // Crash impulse: the ego loses most of its speed.
            self.ego.speed *= 0.3;
        }
        if hit_ped {
            self.monitor
                .record_collision(ViolationKind::CollisionPedestrian, &snapshot);
        }

        // 6. Bookkeeping: odometer, route tracking, rule checks, recording.
        self.odometer += prev.pose.position.distance(self.ego.pose.position);
        self.tracker.update(self.ego.pose.position);
        let snapshot = self.snapshot();
        self.monitor.check(&self.map, &snapshot);
        self.recorder.push(TrajectorySample {
            time: self.time,
            frame: self.frame,
            position: self.ego.pose.position,
            heading: self.ego.pose.heading,
            speed: self.ego.speed,
            control,
        });

        self.time += FRAME_DT;
        self.frame += 1;

        // 7. Mission progress. The stuck detector only arms once the ego
        // has moved at all (spawn idling while an agent warms up is fine).
        if self.ego.speed < 0.2 && self.odometer > 1.0 {
            self.low_speed_time += FRAME_DT;
        } else {
            self.low_speed_time = 0.0;
        }
        if self.mission == MissionStatus::Running {
            let goal = self.tracker.route().goal();
            if self.ego.pose.position.distance(goal) <= GOAL_RADIUS {
                self.mission = MissionStatus::Success { time: self.time };
            } else if self.time >= self.scenario.time_budget - 1e-9 {
                self.mission = MissionStatus::Timeout;
            } else if self.low_speed_time >= STUCK_SECONDS {
                self.mission = MissionStatus::Stuck;
            }
        }
        self.mission
    }

    /// Produces the observation frame the server ships to the agent client.
    ///
    /// Allocating convenience wrapper around [`World::observe_into`]; hot
    /// loops (the campaign runner, the sim server) should allocate one
    /// observation up front and refresh it in place instead. The camera
    /// rows a narrowed world does not render come back black, and its
    /// LIDAR sweep blank: `beams` returns at max range
    /// ([`World::narrow_to`]). Image and sweep keep the sensors' sizes
    /// either way, so a fault that draws randomness per pixel or per beam
    /// draws the same from them as from a full observation.
    pub fn observe(&mut self) -> WorldObservation {
        let cam = *self.camera.config();
        let lidar_cfg = *self.lidar.config();
        let mut obs = WorldObservation {
            sensors: SensorFrame {
                frame: self.frame,
                time: self.time,
                image: Image::new(cam.width, cam.height),
                lidar: LidarScan {
                    ranges: vec![lidar_cfg.max_range; lidar_cfg.beams],
                    fov_deg: lidar_cfg.fov_deg,
                    max_range: lidar_cfg.max_range,
                },
                gps: GpsFix {
                    position: self.ego.pose.position,
                    accuracy: 0.0,
                },
                imu: ImuReading {
                    accel: 0.0,
                    yaw_rate: 0.0,
                },
                speed: self.ego.speed,
                heading: self.ego.pose.heading,
            },
            command: self.tracker.command(),
            mission: self.mission,
            truth: EgoTruth {
                pose: self.ego.pose,
                speed: self.ego.speed,
                odometer: self.odometer,
                goal_distance: 0.0,
                route_remaining: 0.0,
            },
        };
        self.observe_into(&mut obs);
        obs
    }

    /// Refreshes `obs` in place with the current frame's observation,
    /// reusing the image and LIDAR buffers. Every field of `obs` is
    /// overwritten, except, in a narrowed world ([`World::narrow_to`]),
    /// the image rows outside its camera footprint and the LIDAR sweep,
    /// which keep what they held; after the buffers have warmed up to the
    /// sensor dimensions this performs no heap allocation.
    pub fn observe_into(&mut self, obs: &mut WorldObservation) {
        // The scratch vectors (and the row footprint) are moved out while
        // borrowed helpers run so the scene can borrow `self.map`
        // immutably; their capacity is preserved across frames
        // (`mem::take` leaves empty Vecs behind without allocating).
        if !self.camera_rows.is_empty() {
            let image = &mut obs.sensors.image;
            let rows = std::mem::take(&mut self.camera_rows);
            self.with_camera_scene(|camera, scene, ego| {
                camera.render_into(scene, ego, &rows, image)
            });
            self.camera_rows = rows;
        }

        if self.scan_lidar {
            let mut shapes = std::mem::take(&mut self.scratch_shapes);
            let mut keys = std::mem::take(&mut self.scratch_keys);
            self.fill_lidar_shapes(&mut keys, &mut shapes);
            self.lidar
                .scan_into(self.ego.pose, shapes.iter(), &mut obs.sensors.lidar);
            self.scratch_shapes = shapes;
            self.scratch_keys = keys;
        }

        obs.sensors.gps = self.gps.measure(self.ego.pose.position, &mut self.gps_rng);
        obs.sensors.imu = self.imu.measure(
            self.ego.speed,
            self.ego.pose.heading,
            FRAME_DT,
            &mut self.imu_rng,
        );
        obs.sensors.frame = self.frame;
        obs.sensors.time = self.time;
        obs.sensors.speed = self.ego.speed;
        obs.sensors.heading = self.ego.pose.heading;

        let goal = self.tracker.route().goal();
        obs.command = self.tracker.command();
        obs.mission = self.mission;
        obs.truth = EgoTruth {
            pose: self.ego.pose,
            speed: self.ego.speed,
            odometer: self.odometer,
            goal_distance: self.ego.pose.position.distance(goal),
            route_remaining: self.tracker.remaining(),
        };
    }

    /// Renders the current frame's camera image through the per-pixel
    /// *reference* path, with the same billboard set [`World::observe`]
    /// draws.
    ///
    /// The normal observation path renders with the analytic span
    /// rasterizer; this is its differential oracle, used by the golden
    /// corpus tool and equivalence tests. Does not advance any sensor RNG.
    pub fn render_camera_reference(&mut self) -> Image {
        self.with_camera_scene(|camera, scene, ego| camera.render_reference(scene, ego))
    }

    /// Renders the current frame's camera image through the default span
    /// path, with the same billboard set [`World::observe`] draws. Does
    /// not advance any sensor RNG.
    pub fn render_camera(&mut self) -> Image {
        self.with_camera_scene(|camera, scene, ego| camera.render(scene, ego))
    }

    /// Gathers this frame's billboards into the scratch buffer and hands
    /// the camera, the scene and the ego pose to `render`. The buffer is
    /// moved out while `render` runs so the scene can borrow `self.map`,
    /// and put back afterwards, keeping its capacity across frames.
    fn with_camera_scene<R>(
        &mut self,
        render: impl FnOnce(&Camera, &RenderScene<'_>, Pose) -> R,
    ) -> R {
        let mut billboards = std::mem::take(&mut self.scratch_billboards);
        billboards.clear();
        self.fill_billboards(&mut billboards);
        let scene = RenderScene {
            map: &self.map,
            weather: self.weather(),
            billboards: &billboards,
        };
        let out = render(&self.camera, &scene, self.ego.pose);
        self.scratch_billboards = billboards;
        out
    }

    fn snapshot(&self) -> EgoSnapshot {
        EgoSnapshot {
            position: self.ego.pose.position,
            heading: self.ego.pose.heading,
            speed: self.ego.speed,
            odometer: self.odometer,
            time: self.time,
            frame: self.frame,
        }
    }

    fn hits_building(&self) -> bool {
        let shape = self.ego_shape();
        let CollisionShape::Box(obb) = &shape else {
            return false;
        };
        self.map
            .buildings()
            .iter()
            .any(|b| b.distance_to(obb.pose.position) < 10.0 && obb.intersects_aabb(b))
    }

    fn fill_billboards(&self, billboards: &mut Vec<Billboard>) {
        let ego_p = self.ego.pose.position;
        self.traffic.fill_billboards(&self.map, billboards);
        // Traffic-light heads near the ego, shown with the state facing
        // each approach.
        for isect in self.map.intersections() {
            if !isect.is_signalized() || isect.center().distance(ego_p) > 80.0 {
                continue;
            }
            for lane_id in isect.incoming() {
                let lane = self.map.lane(*lane_id);
                let dir = Vec2::from_angle(lane.end_heading());
                let right = -dir.perp();
                let pos = lane.end() + right * 2.4 + dir * 0.5;
                let group = SignalGroup::from_heading(lane.end_heading());
                let color = match isect.light_state(group, self.time) {
                    LightState::Green => [0.1, 0.85, 0.2],
                    LightState::Yellow => [0.95, 0.8, 0.1],
                    LightState::Red => [0.95, 0.08, 0.08],
                };
                billboards.push(Billboard {
                    position: pos,
                    radius: 0.12,
                    base: 0.0,
                    top: 2.4,
                    color: [0.25, 0.25, 0.25],
                });
                billboards.push(Billboard {
                    position: pos,
                    radius: 0.3,
                    base: 2.4,
                    top: 3.1,
                    color,
                });
            }
        }
    }

    fn fill_lidar_shapes(&self, keys: &mut Vec<u32>, shapes: &mut Vec<CollisionShape>) {
        // Actor shapes come from the spatial index. Culling to the scan
        // range is exact: a shape entirely beyond `max_range` can only
        // produce beam hits that lose the min-fold, so the scan output is
        // bit-identical to scanning every actor.
        let ego_p = self.ego.pose.position;
        let max_range = self.lidar.config().max_range;
        self.actor_shapes_within(ego_p, max_range, keys, shapes);
        let max = max_range + 10.0;
        shapes.extend(
            self.map
                .buildings()
                .iter()
                .filter(|b| b.distance_to(ego_p) < max)
                .map(|b| CollisionShape::Fixed(*b)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TownSpec;

    fn small_world(seed: u64) -> World {
        let scenario = Scenario::builder(TownSpec::grid(3, 3))
            .seed(seed)
            .npc_vehicles(4)
            .pedestrians(4)
            .build();
        World::from_scenario(&scenario)
    }

    #[test]
    fn ego_spawns_on_route_start() {
        let w = small_world(1);
        let start = w.tracker().route().start();
        assert!(w.ego().pose.position.distance(start) < 1.0);
        assert_eq!(w.mission(), MissionStatus::Running);
    }

    #[test]
    fn stepping_advances_time_and_frames() {
        let mut w = small_world(2);
        for _ in 0..30 {
            w.step(VehicleControl::coast());
        }
        assert_eq!(w.frame(), 30);
        assert!((w.time() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn throttle_moves_ego_and_odometer() {
        let mut w = small_world(3);
        for _ in 0..45 {
            w.step(VehicleControl::new(0.0, 0.8, 0.0));
        }
        assert!(w.odometer() > 3.0, "odometer={}", w.odometer());
        assert!(w.ego().speed > 1.0);
    }

    #[test]
    fn deterministic_evolution() {
        let run = |seed| {
            let mut w = small_world(seed);
            for i in 0..120 {
                let c = VehicleControl::new((i as f64 * 0.01).sin() * 0.2, 0.5, 0.0);
                w.step(c);
            }
            (
                w.ego().pose.position,
                w.odometer(),
                w.monitor().count(),
                w.npcs().count(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn observation_is_complete() {
        let mut w = small_world(4);
        w.step(VehicleControl::coast());
        let obs = w.observe();
        assert_eq!(obs.sensors.frame, 1);
        assert_eq!(obs.sensors.image.width(), 64);
        assert!(!obs.sensors.lidar.ranges.is_empty());
        assert!(obs.truth.goal_distance > 0.0);
        assert!(obs.truth.route_remaining > 0.0);
    }

    /// Asserts that two worlds report the same GPS, IMU, odometry,
    /// command, mission and truth, and hold their traffic in the same
    /// places.
    fn assert_same_readings(
        full: (&World, &WorldObservation),
        masked: (&World, &WorldObservation),
        frame: usize,
    ) {
        let (f, m) = (&full.1.sensors, &masked.1.sensors);
        assert_eq!(
            (f.frame, f.time, f.gps, f.imu, f.speed, f.heading),
            (m.frame, m.time, m.gps, m.imu, m.speed, m.heading),
            "frame {frame}"
        );
        assert_eq!(full.1.command, masked.1.command);
        assert_eq!(full.1.mission, masked.1.mission);
        assert_eq!(full.1.truth, masked.1.truth);
        assert_eq!(full.0.actor_shapes(), masked.0.actor_shapes());
    }

    #[test]
    fn empty_mask_changes_no_other_reading() {
        // Camera and LIDAR draw no randomness, so a world that skips them
        // reports the same GPS, IMU, odometry, command, mission and truth
        // frame for frame, moves its traffic the same way, and leaves the
        // skipped buffers as they were.
        let mut full = small_world(9);
        let mut masked = small_world(9);
        masked.narrow_to(PixelFootprint::default());
        let mut full_obs = full.observe();
        let (image, lidar) = (
            full_obs.sensors.image.clone(),
            full_obs.sensors.lidar.clone(),
        );
        assert!(!lidar.ranges.is_empty());
        let mut masked_obs = full_obs.clone();
        masked.observe_into(&mut masked_obs);
        for i in 0..100 {
            assert_same_readings((&full, &full_obs), (&masked, &masked_obs), i);
            assert_eq!(masked_obs.sensors.image, image);
            assert_eq!(masked_obs.sensors.lidar, lidar);
            let c = VehicleControl::new((i as f64 * 0.05).sin() * 0.3, 0.6, 0.0);
            full.step(c);
            masked.step(c);
            full.observe_into(&mut full_obs);
            masked.observe_into(&mut masked_obs);
        }
        assert_ne!(
            full_obs.sensors.image, image,
            "the full world kept rendering"
        );
    }

    #[test]
    fn row_footprint_renders_its_rows_and_changes_no_other_reading() {
        // Under the IL-CNN's footprint of a 64×48 image (the even rows and
        // columns), a world renders the even rows as the full world does,
        // leaves the odd rows and the LIDAR sweep as they were, and every
        // other reading and the traffic are the full world's, frame for
        // frame.
        let rows = PixelFootprint::grid(64, 48, (0..64).step_by(2), (0..48).step_by(2));
        let mut full = small_world(9);
        let mut masked = small_world(9);
        masked.narrow_to(rows.clone());
        let mut full_obs = full.observe();
        let mut masked_obs = full_obs.clone();
        let sweep = full_obs.sensors.lidar.clone();
        let stale = Image::filled(64, 48, [0.25, 0.5, 0.75]);
        let row = |img: &Image, y: usize| img.data()[y * 64 * 3..(y + 1) * 64 * 3].to_vec();
        for i in 0..100 {
            masked_obs.sensors.image.copy_from(&stale);
            masked.observe_into(&mut masked_obs);
            assert_same_readings((&full, &full_obs), (&masked, &masked_obs), i);
            let (f, m) = (&full_obs.sensors, &masked_obs.sensors);
            assert_eq!(m.lidar, sweep, "frame {i}");
            for y in 0..48 {
                let want = if y % 2 == 0 { &f.image } else { &stale };
                assert_eq!(row(&m.image, y), row(want, y), "frame {i} row {y}");
            }
            let c = VehicleControl::new((i as f64 * 0.05).sin() * 0.3, 0.6, 0.0);
            full.step(c);
            masked.step(c);
            full.observe_into(&mut full_obs);
        }
    }

    #[test]
    fn a_narrowed_world_keeps_a_blank_sweep_of_beams_returns() {
        // A narrowed world scans no LIDAR: `observe` gives it `beams`
        // returns at max range, which `observe_into` leaves as they are,
        // while the full world's sweep sees buildings and traffic.
        let mut full = small_world(9);
        let mut narrowed = small_world(9);
        narrowed.narrow_to(PixelFootprint::default());
        let config = *full.lidar.config();
        let blank = LidarScan {
            ranges: vec![config.max_range; config.beams],
            fov_deg: config.fov_deg,
            max_range: config.max_range,
        };
        let mut full_obs = full.observe();
        let mut narrowed_obs = narrowed.observe();
        let mut hits = 0;
        for i in 0..100 {
            assert_eq!(narrowed_obs.sensors.lidar, blank, "frame {i}");
            assert_eq!(full_obs.sensors.lidar.ranges.len(), config.beams);
            hits += (full_obs.sensors.lidar.ranges.iter())
                .filter(|&&r| r < config.max_range)
                .count();
            let c = VehicleControl::new((i as f64 * 0.05).sin() * 0.3, 0.6, 0.0);
            full.step(c);
            narrowed.step(c);
            full.observe_into(&mut full_obs);
            narrowed.observe_into(&mut narrowed_obs);
        }
        assert!(hits > 0, "the full world's sweep saw nothing");
    }

    #[test]
    fn timeout_ends_mission() {
        let scenario = Scenario::builder(TownSpec::grid(2, 2))
            .seed(5)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(1.0)
            .build();
        let mut w = World::from_scenario(&scenario);
        let mut status = MissionStatus::Running;
        for _ in 0..30 {
            status = w.step(VehicleControl::coast());
        }
        assert_eq!(status, MissionStatus::Timeout);
    }

    #[test]
    fn driving_into_building_is_a_static_collision() {
        let mut w = small_world(6);
        // Teleporting is not exposed; instead drive hard with full left
        // steer — the ego will leave the road and eventually hit something
        // or at least go off-road.
        for _ in 0..450 {
            w.step(VehicleControl::new(0.4, 1.0, 0.0));
        }
        assert!(
            w.monitor().count() > 0,
            "wild driving produced no violations"
        );
    }

    #[test]
    fn recording_can_be_enabled() {
        let mut w = small_world(8);
        w.install_recorder(Recorder::ring(16));
        for _ in 0..10 {
            w.step(VehicleControl::new(0.0, 0.5, 0.0));
        }
        assert_eq!(w.take_recorder().len(), 10);
    }
}
