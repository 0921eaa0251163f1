//! The agent type shared by the expert, the neural network, and the
//! fault-injecting wrapper in `avfi-core`.

use crate::expert::ExpertDriver;
use crate::features::{image_to_tensor, net_footprint, normalize_speed};
use crate::ilnet::IlNetwork;
use avfi_sim::physics::VehicleControl;
use avfi_sim::sensors::{GpsFix, Image, LidarScan, PixelFootprint};
use avfi_sim::world::{World, WorldObservation};

/// Everything a driver may look at for one frame.
///
/// The sensor channels a fault injector may corrupt are broken out as
/// standalone fields (`image`, `lidar`, `gps`, `speed`) so the injector can
/// override a single channel without cloning the whole observation; drivers
/// must read those fields, never the corresponding members of `obs`. The
/// *neural* driver must only read the sensor fields plus `obs.command`. The
/// *expert* additionally reads ground truth through `world` (it stands in
/// for a perfect-perception oracle). Keeping both in one struct lets the
/// campaign runner treat all drivers uniformly.
///
/// Of the camera a driver may read only the pixels its
/// [`Agent::footprint`] declares, and it reads no LIDAR: the campaign
/// runner's world renders just those rows and scans no sweep, so the
/// rest can be stale.
#[derive(Debug)]
pub struct DriverInput<'a> {
    /// The observation from the server. Sensor channels duplicated in the
    /// fields below may be stale here — read the fields instead.
    pub obs: &'a WorldObservation,
    /// Ground-truth world access (oracle drivers only).
    pub world: &'a World,
    /// Effective (possibly fault-injected) camera image. Only the pixels
    /// in the agent's [`Agent::footprint`] are specified: a fault may
    /// leave the others unwritten or stale, and a campaign world may
    /// never have rendered their rows.
    pub image: &'a Image,
    /// Effective LIDAR sweep, read by no driver. A campaign world scans
    /// no LIDAR and observes a blank sweep of `beams` max-range returns,
    /// which a LIDAR fault corrupts with the same draws as a real sweep
    /// (see [`World::narrow_to`]).
    pub lidar: &'a LidarScan,
    /// Effective GPS fix.
    pub gps: GpsFix,
    /// Effective speedometer reading, m/s.
    pub speed: f64,
}

impl<'a> DriverInput<'a> {
    /// An uncorrupted frame: every effective sensor field mirrors `obs`.
    pub fn clean(obs: &'a WorldObservation, world: &'a World) -> Self {
        DriverInput {
            obs,
            world,
            image: &obs.sensors.image,
            lidar: &obs.sensors.lidar,
            gps: obs.sensors.gps,
            speed: obs.sensors.speed,
        }
    }
}

/// A closed-loop driving policy: the rule-based expert or the IL-CNN. The
/// campaign runner builds one per campaign and gives every run its own
/// clone, so a run's ML fault corrupts only its copy of the network.
#[derive(Debug, Clone)]
pub enum Agent {
    /// The oracle autopilot, driving from ground truth.
    Expert(ExpertDriver),
    /// The conditional imitation network: camera, speed, command in.
    Neural(IlNetwork),
}

impl Agent {
    /// Computes the actuation command for one frame.
    pub fn drive(&mut self, input: &DriverInput<'_>) -> VehicleControl {
        match self {
            Agent::Expert(expert) => expert.control_for(input.world),
            Agent::Neural(net) => {
                let image = image_to_tensor(input.image);
                net.predict(&image, normalize_speed(input.speed), input.obs.command)
            }
        }
    }

    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Agent::Expert(_) => "expert",
            Agent::Neural(_) => "il-cnn",
        }
    }

    /// The pixels of a `width × height` camera image this agent reads
    /// from [`DriverInput::image`] (none for the expert); a camera fault
    /// need compute no others, and a world driven by it need render no
    /// other rows (see [`World::narrow_to`]).
    pub fn footprint(&self, width: usize, height: usize) -> PixelFootprint {
        match self {
            Agent::Expert(_) => PixelFootprint::default(),
            Agent::Neural(_) => net_footprint(width, height),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::scenario::{Scenario, TownSpec};

    #[test]
    fn neural_driver_produces_sane_controls_untrained() {
        let scenario = Scenario::builder(TownSpec::grid(2, 2))
            .seed(3)
            .npc_vehicles(0)
            .pedestrians(0)
            .build();
        let mut world = World::from_scenario(&scenario);
        let obs = world.observe();
        let mut driver = Agent::Neural(IlNetwork::new(7));
        let c = driver.drive(&DriverInput::clean(&obs, &world));
        assert!(c.steer.abs() <= 1.0);
        assert!((0.0..=1.0).contains(&c.throttle));
        assert!((0.0..=1.0).contains(&c.brake));
        assert_eq!(driver.name(), "il-cnn");
    }
}
