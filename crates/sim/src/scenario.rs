//! Scenario definitions: town, traffic density, weather, mission sampling.
//!
//! A [`Scenario`] fully determines a simulation run: the same scenario seed
//! reproduces the same town, traffic, mission route and sensor noise.

use crate::map::route::{plan_route, Route};
use crate::map::town::{TownConfig, TownGenerator};
use crate::map::{LaneId, LaneKind, Map};
use crate::sensors::{CameraConfig, GpsConfig, ImuConfig, LidarConfig};
use crate::weather::Weather;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Town specification (alias of the grid-town generator config).
pub type TownSpec = TownConfig;

/// Most NPC vehicles, and separately most pedestrians, a scenario may ask
/// for: over ten times the 120 of `npc_scaling`'s densest case. Spawning
/// reserves room for every one up front.
pub const MAX_ACTORS: usize = 2_000;

/// Most intersections along either side of the town grid: ten times the
/// 4 of the largest town the repository runs.
pub const MAX_TOWN_SIDE: usize = 40;

/// Longest town extent on either axis, meters: the span between the
/// outermost intersections, `(side − 1) × block`, plus
/// `2 × (intersection_half + lane_width + sidewalk)` for what lies beyond
/// them. The largest town the repository runs (4 × 4, default geometry)
/// spans 263 m. The map's spatial grids hold one cell per 16 m square of
/// the extent.
pub const MAX_TOWN_EXTENT: f64 = 4_000.0;

/// Most camera pixels, `width × height`: over ten times the 96 × 64 of
/// the camera golden corpus. Every frame's image holds three `f32` per
/// pixel.
pub const MAX_CAMERA_PIXELS: usize = 1 << 16;

/// Most LIDAR beams: over ten times the default 36.
pub const MAX_LIDAR_BEAMS: usize = 1_024;

/// Longest mission time budget, seconds: over ten times the 150 s of the
/// full-scale studies. A run ends at its budget at the latest, so this
/// bounds how long one run holds a worker.
pub const MAX_TIME_BUDGET: f64 = 3_600.0;

/// A complete, reproducible scenario.
///
/// `Serialize`/`Deserialize` are hand-written (instead of derived) so the
/// [`Scenario::decision_horizon`] knob serializes only when non-default:
/// existing scenario JSON goldens predate the field and must stay
/// byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Town layout.
    pub town: TownSpec,
    /// Master seed: every stochastic stream (traffic, sensor noise,
    /// missions) is derived from it.
    pub seed: u64,
    /// Number of NPC traffic vehicles.
    pub npc_vehicles: usize,
    /// Number of pedestrians.
    pub pedestrians: usize,
    /// Pedestrian road-crossing rate (events per second per pedestrian).
    pub pedestrian_cross_rate: f64,
    /// Maximum ticks a traffic agent may sleep between decision steps.
    ///
    /// At 1 (the default) every agent decides every tick. Larger values
    /// let cruising vehicles and walking pedestrians go dormant and
    /// integrate analytically between decisions. Serialized only when
    /// non-default so existing scenario JSON goldens are byte-identical.
    pub decision_horizon: u32,
    /// Weather preset.
    pub weather: Weather,
    /// Mission time budget, seconds; exceeding it fails the mission.
    pub time_budget: f64,
    /// Minimum mission route length when sampling, meters.
    pub min_route_length: f64,
    /// Camera intrinsics.
    pub camera: CameraConfig,
    /// LIDAR configuration.
    pub lidar: LidarConfig,
    /// GPS noise configuration.
    pub gps: GpsConfig,
    /// IMU noise configuration.
    pub imu: ImuConfig,
}

impl Serialize for Scenario {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("town".to_string(), self.town.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("npc_vehicles".to_string(), self.npc_vehicles.to_value()),
            ("pedestrians".to_string(), self.pedestrians.to_value()),
            (
                "pedestrian_cross_rate".to_string(),
                self.pedestrian_cross_rate.to_value(),
            ),
        ];
        // Optional field: omitted at the default so pre-existing scenario
        // goldens keep their exact bytes.
        if self.decision_horizon != 1 {
            entries.push((
                "decision_horizon".to_string(),
                self.decision_horizon.to_value(),
            ));
        }
        entries.extend([
            ("weather".to_string(), self.weather.to_value()),
            ("time_budget".to_string(), self.time_budget.to_value()),
            (
                "min_route_length".to_string(),
                self.min_route_length.to_value(),
            ),
            ("camera".to_string(), self.camera.to_value()),
            ("lidar".to_string(), self.lidar.to_value()),
            ("gps".to_string(), self.gps.to_value()),
            ("imu".to_string(), self.imu.to_value()),
        ]);
        serde::Value::Object(entries)
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", v))?;
        let field = |name: &str| serde::get_field(entries, name);
        let decision_horizon = match field("decision_horizon") {
            serde::Value::Null => 1,
            other => Deserialize::from_value(other)?,
        };
        Ok(Scenario {
            town: Deserialize::from_value(field("town"))?,
            seed: Deserialize::from_value(field("seed"))?,
            npc_vehicles: Deserialize::from_value(field("npc_vehicles"))?,
            pedestrians: Deserialize::from_value(field("pedestrians"))?,
            pedestrian_cross_rate: Deserialize::from_value(field("pedestrian_cross_rate"))?,
            decision_horizon,
            weather: Deserialize::from_value(field("weather"))?,
            time_budget: Deserialize::from_value(field("time_budget"))?,
            min_route_length: Deserialize::from_value(field("min_route_length"))?,
            camera: Deserialize::from_value(field("camera"))?,
            lidar: Deserialize::from_value(field("lidar"))?,
            gps: Deserialize::from_value(field("gps"))?,
            imu: Deserialize::from_value(field("imu"))?,
        })
    }
}

impl Scenario {
    /// Starts building a scenario for a town.
    pub fn builder(town: TownSpec) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                town,
                seed: 0,
                npc_vehicles: 6,
                pedestrians: 6,
                pedestrian_cross_rate: 0.01,
                decision_horizon: 1,
                weather: Weather::ClearNoon,
                time_budget: 120.0,
                min_route_length: 150.0,
                camera: CameraConfig::default(),
                lidar: LidarConfig::default(),
                gps: GpsConfig::default(),
                imu: ImuConfig::default(),
            },
        }
    }

    /// Reopens the scenario as a builder seeded with this scenario's
    /// values — the reduction hook used by the shrinker to derive
    /// candidate scenarios that differ on exactly one axis.
    pub fn to_builder(&self) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: self.clone(),
        }
    }

    /// Checks the numbers a world is sized by and the preconditions its
    /// constructors assert, so that building the world allocates nothing
    /// past the bounds above and trips none of those asserts, and a run
    /// lasts at most [`MAX_TIME_BUDGET`]. Refused: a count or size over
    /// its `MAX_*` bound; a non-finite float field; a town with fewer than
    /// two intersections or blocks no wider than `2 × intersection_half +
    /// 10` m (`TownGenerator::new`), a negative sidewalk or intersection
    /// size, or a lane width or speed limit that is not positive
    /// (`Lane::new`); an empty camera image or a field of view outside
    /// `(0°, 180°)` (`Camera::new`); fewer than two LIDAR beams or a range
    /// that is not positive (`Lidar::new`).
    ///
    /// A scenario can pass and still fail to build: a town whose roads
    /// are too short for a mission route panics in
    /// [`World::from_scenario`](crate::world::World::from_scenario). The
    /// campaign executor therefore also runs [`check_town_routes`] on
    /// each distinct town and refuses a plan holding such a town.
    ///
    /// # Errors
    ///
    /// The first problem found, naming the field.
    pub fn check(&self) -> Result<(), String> {
        let (t, cam, lidar) = (&self.town, &self.camera, &self.lidar);
        let numbers = [
            ("pedestrian_cross_rate", self.pedestrian_cross_rate),
            ("time_budget", self.time_budget),
            ("min_route_length", self.min_route_length),
            ("town.block", t.block),
            ("town.lane_width", t.lane_width),
            ("town.sidewalk", t.sidewalk),
            ("town.intersection_half", t.intersection_half),
            ("town.speed_limit", t.speed_limit),
            ("town.turn_speed_limit", t.turn_speed_limit),
            ("town.timing.green", t.timing.green),
            ("town.timing.yellow", t.timing.yellow),
            ("town.timing.all_red", t.timing.all_red),
            ("camera.fov_deg", cam.fov_deg),
            ("camera.mount_height", cam.mount_height),
            ("camera.hood_offset", cam.hood_offset),
            ("camera.pitch_deg", cam.pitch_deg),
            ("camera.max_range", cam.max_range),
            ("lidar.fov_deg", lidar.fov_deg),
            ("lidar.max_range", lidar.max_range),
            ("gps.sigma", self.gps.sigma),
            ("imu.accel_sigma", self.imu.accel_sigma),
            ("imu.gyro_sigma", self.imu.gyro_sigma),
        ];
        if let Some((name, v)) = numbers.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("{name} is {v}, not a finite number"));
        }
        let side = t.cols.max(t.rows);
        let extent = side.saturating_sub(1) as f64 * t.block
            + 2.0 * (t.intersection_half + t.lane_width + t.sidewalk);
        let pixels = cam.width.saturating_mul(cam.height);
        let problem = if self.npc_vehicles > MAX_ACTORS {
            format!(
                "npc_vehicles {} is over the cap of {MAX_ACTORS}",
                self.npc_vehicles
            )
        } else if self.pedestrians > MAX_ACTORS {
            format!(
                "pedestrians {} is over the cap of {MAX_ACTORS}",
                self.pedestrians
            )
        } else if side > MAX_TOWN_SIDE {
            format!(
                "town grid {}×{} is over the cap of {MAX_TOWN_SIDE} a side",
                t.cols, t.rows
            )
        } else if t.cols * t.rows < 2 {
            format!(
                "town grid {}×{} has fewer than two intersections",
                t.cols, t.rows
            )
        } else if t.lane_width <= 0.0 || t.sidewalk < 0.0 || t.intersection_half < 0.0 {
            format!(
                "town lane_width {} must be positive, and sidewalk {} and \
                 intersection_half {} not negative",
                t.lane_width, t.sidewalk, t.intersection_half
            )
        } else if t.block <= 2.0 * t.intersection_half + 10.0 {
            format!(
                "town.block {} is not wider than 2 × intersection_half + 10 m",
                t.block
            )
        } else if extent > MAX_TOWN_EXTENT {
            format!("town extent {extent} m is over the cap of {MAX_TOWN_EXTENT} m")
        } else if t.speed_limit <= 0.0 || t.turn_speed_limit <= 0.0 {
            format!(
                "town speed limits {} and {} must be positive",
                t.speed_limit, t.turn_speed_limit
            )
        } else if pixels == 0 || pixels > MAX_CAMERA_PIXELS {
            format!(
                "camera {}×{} is empty or over the cap of {MAX_CAMERA_PIXELS} pixels",
                cam.width, cam.height
            )
        } else if cam.fov_deg <= 0.0 || cam.fov_deg >= 180.0 {
            format!("camera.fov_deg {} is outside (0, 180)", cam.fov_deg)
        } else if lidar.beams < 2 || lidar.beams > MAX_LIDAR_BEAMS {
            format!(
                "lidar.beams {} is outside 2..={MAX_LIDAR_BEAMS}",
                lidar.beams
            )
        } else if lidar.max_range <= 0.0 {
            format!("lidar.max_range {} must be positive", lidar.max_range)
        } else if self.time_budget > MAX_TIME_BUDGET {
            format!(
                "time_budget {} s is over the cap of {MAX_TIME_BUDGET} s",
                self.time_budget
            )
        } else {
            return Ok(());
        };
        Err(problem)
    }

    /// Samples a mission route on `map` using the scenario seed: a start
    /// drive lane and a goal drive lane at least `min_route_length` apart
    /// (by planned route length).
    ///
    /// Returns `None` only for degenerate maps with no sufficiently long
    /// route (the grid towns always have one).
    pub fn sample_mission(&self, map: &Map, rng: &mut StdRng) -> Option<Route> {
        let drive = mission_lanes(map);
        if drive.is_empty() {
            return None;
        }
        let mut best: Option<Route> = None;
        for _ in 0..64 {
            let start = drive[rng.random_range(0..drive.len())];
            let goal = drive[rng.random_range(0..drive.len())];
            if start == goal {
                continue;
            }
            if let Some(route) = plan_route(map, start, 5.0, goal) {
                if route.length() >= self.min_route_length {
                    return Some(route);
                }
                match &best {
                    Some(b) if b.length() >= route.length() => {}
                    _ => best = Some(route),
                }
            }
        }
        best
    }
}

/// The drive lanes a mission may start and end on, in map order: those
/// longer than 20 m. [`Scenario::sample_mission`] draws from them, and a
/// town with fewer than two can host no mission ([`check_town_routes`]).
pub fn mission_lanes(map: &Map) -> Vec<LaneId> {
    map.lanes()
        .iter()
        .filter(|l| l.kind() == LaneKind::Drive && l.length() > 20.0)
        .map(|l| l.id())
        .collect()
}

/// Refuses a town that can host no mission route: one with fewer than two
/// [`mission_lanes`]. It generates the town's map to count them and drops
/// it, so check each distinct town once, and only a town that
/// [`Scenario::check`] accepts.
///
/// # Errors
///
/// The town's grid, block and lane count.
pub fn check_town_routes(town: &TownSpec) -> Result<(), String> {
    let lanes = mission_lanes(&TownGenerator::new(town.clone()).generate()).len();
    if lanes >= 2 {
        return Ok(());
    }
    Err(format!(
        "town grid {}×{} of {} m blocks has {lanes} drive lanes longer than 20 m; \
         a mission route needs two",
        town.cols, town.rows, town.block
    ))
}

/// Builder for [`Scenario`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the number of NPC vehicles.
    pub fn npc_vehicles(mut self, n: usize) -> Self {
        self.scenario.npc_vehicles = n;
        self
    }

    /// Sets the number of pedestrians.
    pub fn pedestrians(mut self, n: usize) -> Self {
        self.scenario.pedestrians = n;
        self
    }

    /// Sets the pedestrian crossing rate (per second per pedestrian).
    pub fn pedestrian_cross_rate(mut self, rate: f64) -> Self {
        self.scenario.pedestrian_cross_rate = rate;
        self
    }

    /// Sets the maximum ticks a traffic agent may sleep between decisions
    /// (clamped to at least 1; at 1 every agent decides every tick).
    pub fn decision_horizon(mut self, ticks: u32) -> Self {
        self.scenario.decision_horizon = ticks.max(1);
        self
    }

    /// Sets the weather.
    pub fn weather(mut self, weather: Weather) -> Self {
        self.scenario.weather = weather;
        self
    }

    /// Sets the mission time budget in seconds.
    pub fn time_budget(mut self, seconds: f64) -> Self {
        self.scenario.time_budget = seconds;
        self
    }

    /// Sets the minimum sampled route length in meters.
    pub fn min_route_length(mut self, meters: f64) -> Self {
        self.scenario.min_route_length = meters;
        self
    }

    /// Sets camera intrinsics.
    pub fn camera(mut self, camera: CameraConfig) -> Self {
        self.scenario.camera = camera;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::town::TownGenerator;
    use crate::rng::stream_rng;

    #[test]
    fn builder_defaults_and_overrides() {
        let s = Scenario::builder(TownSpec::grid(3, 3))
            .seed(9)
            .npc_vehicles(2)
            .pedestrians(1)
            .weather(Weather::Rain)
            .time_budget(60.0)
            .build();
        assert_eq!(s.seed, 9);
        assert_eq!(s.npc_vehicles, 2);
        assert_eq!(s.weather, Weather::Rain);
        assert_eq!(s.time_budget, 60.0);
    }

    #[test]
    fn default_horizon_is_invisible_in_json() {
        // Goldens embed serialized scenarios; the density knob must not
        // change their bytes unless explicitly set.
        let s = Scenario::builder(TownSpec::grid(3, 3)).seed(1).build();
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("decision_horizon"), "{json}");
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.decision_horizon, 1);
        let dense = s.to_builder().decision_horizon(8).build();
        let json = serde_json::to_string(&dense).unwrap();
        assert!(json.contains("\"decision_horizon\":8"), "{json}");
    }

    #[test]
    fn mission_sampling_is_deterministic_and_long_enough() {
        let s = Scenario::builder(TownSpec::grid(3, 3)).seed(5).build();
        let map = TownGenerator::new(s.town.clone()).generate();
        let r1 = s.sample_mission(&map, &mut stream_rng(5, 1)).unwrap();
        let r2 = s.sample_mission(&map, &mut stream_rng(5, 1)).unwrap();
        assert_eq!(r1.lanes(), r2.lanes());
        assert!(r1.length() >= s.min_route_length);
    }
}
