//! Scenario definitions: town, traffic density, weather, mission sampling.
//!
//! A [`Scenario`] fully determines a simulation run: the same scenario seed
//! reproduces the same town, traffic, mission route and sensor noise.

use crate::map::route::{plan_route, Route};
use crate::map::town::TownConfig;
use crate::map::{LaneKind, Map};
use crate::sensors::{CameraConfig, GpsConfig, ImuConfig, LidarConfig};
use crate::weather::Weather;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Town specification (alias of the grid-town generator config).
pub type TownSpec = TownConfig;

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
    /// 1 (the default) is compat mode: every agent decides every tick,
    /// reproducing the legacy per-frame loop bit-for-bit. Larger values
    /// enable event-driven scheduling — cruising vehicles and walking
    /// pedestrians go dormant and integrate analytically — which is what
    /// makes high-density towns affordable. Serialized only when
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

    /// Samples a mission route on `map` using the scenario seed: a start
    /// drive lane and a goal drive lane at least `min_route_length` apart
    /// (by planned route length).
    ///
    /// Returns `None` only for degenerate maps with no sufficiently long
    /// route (the grid towns always have one).
    pub fn sample_mission(&self, map: &Map, rng: &mut StdRng) -> Option<Route> {
        let drive: Vec<_> = map
            .lanes()
            .iter()
            .filter(|l| l.kind() == LaneKind::Drive && l.length() > 20.0)
            .map(|l| l.id())
            .collect();
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
    /// (clamped to at least 1; 1 = legacy per-tick stepping, larger values
    /// enable event-driven scheduling for dense towns).
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
