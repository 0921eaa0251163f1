//! The lockstep simulation world: ties the map, physics, traffic, sensors
//! and the violation monitor together behind a CARLA-server-like API.
//!
//! Each call to [`World::step`] applies one actuation command and advances
//! the world by one frame (1/15 s); [`World::observe`] renders the sensor
//! payload the server would ship to the driving-agent client.

use crate::actors::{spawn_npc_vehicles, spawn_pedestrians, NpcVehicle, Pedestrian, Traffic};
use crate::map::route::{Command, Route, RouteTracker};
use crate::map::town::TownGenerator;
use crate::map::{LightState, Map, SignalGroup};
use crate::math::{Obb, Pose, Vec2};
use crate::physics::{BicycleModel, CollisionShape, VehicleControl, VehicleParams, VehicleState};
use crate::recorder::{Recorder, TrajectorySample};
use crate::rng::stream_rng;
use crate::scenario::Scenario;
use crate::sensors::{
    Billboard, Camera, Gps, GpsFix, Image, Imu, ImuReading, Lidar, LidarScan, RenderScene,
    SensorFrame,
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
    /// Event-driven NPC/pedestrian subsystem (scheduler + spatial index).
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
    /// Reused per-frame billboard list (steady-state `observe` is
    /// allocation-free; see [`World::observe_into`]).
    scratch_billboards: Vec<Billboard>,
    /// Reused per-frame LIDAR obstacle list.
    scratch_shapes: Vec<CollisionShape>,
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
    /// Panics if the scenario's town cannot host any mission route (grid
    /// towns of 2×2 and larger always can).
    pub fn from_scenario(scenario: &Scenario) -> Self {
        let map = TownGenerator::new(scenario.town.clone()).generate();
        let mut mission_rng = stream_rng(scenario.seed, STREAM_MISSION);
        let route = scenario
            .sample_mission(&map, &mut mission_rng)
            .expect("scenario town has no drivable mission route");
        Self::with_route(scenario, map, route)
    }

    /// Builds the world with an explicit mission route (used by campaign
    /// runners that pin missions).
    pub fn with_route(scenario: &Scenario, map: Map, route: Route) -> Self {
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
            scenario: scenario.clone(),
            map,
            scratch_billboards: Vec::new(),
            scratch_shapes: Vec::new(),
        }
    }

    /// The scenario this world was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
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

    /// NPC vehicles, in spawn order. In event mode (decision horizon > 1)
    /// dormant vehicles' stored arc lengths lag the current frame by up to
    /// their sleep; [`World::actor_shapes`] materializes exact positions.
    pub fn npcs(&self) -> &[NpcVehicle] {
        self.traffic.npcs()
    }

    /// Pedestrians, in spawn order (same staleness note as
    /// [`World::npcs`]).
    pub fn pedestrians(&self) -> &[Pedestrian] {
        self.traffic.pedestrians()
    }

    /// Ego collision footprint.
    pub fn ego_shape(&self) -> CollisionShape {
        let p = self.ego_model.params();
        CollisionShape::Box(Obb::new(self.ego.pose, p.length, p.width))
    }

    /// Collision shapes of all dynamic actors except the ego,
    /// materialized at the current frame boundary.
    pub fn actor_shapes(&self) -> Vec<CollisionShape> {
        self.traffic.all_shapes(&self.map)
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
        // whose decision is due this frame wake (perceive against the
        // pre-step positional snapshot, then step, like the legacy
        // two-phase loop); dormant agents coast analytically.
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
    /// observation up front and refresh it in place instead.
    pub fn observe(&mut self) -> WorldObservation {
        let cam = *self.camera.config();
        let lidar_cfg = *self.lidar.config();
        let mut obs = WorldObservation {
            sensors: SensorFrame {
                frame: self.frame,
                time: self.time,
                image: Image::new(cam.width, cam.height),
                lidar: LidarScan {
                    ranges: Vec::with_capacity(lidar_cfg.beams),
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
    /// overwritten; after the buffers have warmed up to the sensor
    /// dimensions this performs no heap allocation.
    pub fn observe_into(&mut self, obs: &mut WorldObservation) {
        // The scratch vectors are moved out while borrowed helpers run so
        // the scene can borrow `self.map` immutably; their capacity is
        // preserved across frames (`mem::take` leaves an empty Vec behind
        // without allocating).
        let mut billboards = std::mem::take(&mut self.scratch_billboards);
        billboards.clear();
        self.fill_billboards(&mut billboards);
        let scene = RenderScene {
            map: &self.map,
            weather: self.weather(),
            billboards: &billboards,
        };
        self.camera
            .render_into(&scene, self.ego.pose, &mut obs.sensors.image);
        self.scratch_billboards = billboards;

        let mut shapes = std::mem::take(&mut self.scratch_shapes);
        shapes.clear();
        self.fill_lidar_shapes(&mut shapes);
        self.lidar
            .scan_into(self.ego.pose, shapes.iter(), &mut obs.sensors.lidar);
        self.scratch_shapes = shapes;

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
        let mut billboards = std::mem::take(&mut self.scratch_billboards);
        billboards.clear();
        self.fill_billboards(&mut billboards);
        let scene = RenderScene {
            map: &self.map,
            weather: self.weather(),
            billboards: &billboards,
        };
        let img = self.camera.render_reference(&scene, self.ego.pose);
        self.scratch_billboards = billboards;
        img
    }

    /// Renders the current frame's camera image through the default span
    /// path, with the same billboard set [`World::observe`] draws. Does
    /// not advance any sensor RNG.
    pub fn render_camera(&mut self) -> Image {
        let mut billboards = std::mem::take(&mut self.scratch_billboards);
        billboards.clear();
        self.fill_billboards(&mut billboards);
        let scene = RenderScene {
            map: &self.map,
            weather: self.weather(),
            billboards: &billboards,
        };
        let img = self.camera.render(&scene, self.ego.pose);
        self.scratch_billboards = billboards;
        img
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

    fn fill_billboards(&mut self, billboards: &mut Vec<Billboard>) {
        let ego_p = self.ego.pose.position;
        self.traffic.fill_billboards(&self.map, ego_p, billboards);
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

    fn fill_lidar_shapes(&mut self, shapes: &mut Vec<CollisionShape>) {
        // Actor shapes come from the spatial index. Culling to the scan
        // range is exact: a shape entirely beyond `max_range` can only
        // produce beam hits that lose the min-fold, so the scan output is
        // bit-identical to the legacy all-actors list.
        let ego_p = self.ego.pose.position;
        let max_range = self.lidar.config().max_range;
        self.traffic
            .push_shapes_within(&self.map, ego_p, max_range, shapes);
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
                w.npcs().len(),
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
