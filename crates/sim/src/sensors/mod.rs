//! Sensor models: forward RGB camera, 2-D LIDAR, GPS, odometry.
//!
//! In the paper's test environment "the client is fed from a forward-facing
//! RGB camera sensor on the hood of the AV", plus car measurements (speed,
//! location). These are the sensor payloads AVFI's *data fault* injectors
//! corrupt in flight.

pub mod avimg;
mod camera;
mod gps;
mod image;
mod imu;
mod lidar;

pub use avimg::{avimg_checksum, decode_avimg, encode_avimg, read_avimg, write_avimg};
pub use camera::{Billboard, Camera, CameraConfig, RenderScene};
pub use gps::{Gps, GpsConfig, GpsFix};
pub use image::{Image, PixelFootprint, Rgb};
pub use imu::{Imu, ImuConfig, ImuReading};
pub use lidar::{Lidar, LidarConfig, LidarScan};

use serde::{Deserialize, Serialize};

/// The costly sensors a world computes on each observation: the camera
/// render and the LIDAR scan. GPS, IMU and odometry are not in the mask:
/// they cost almost nothing, and GPS and IMU draw from their own RNG
/// streams every frame, so skipping them would shift later readings.
/// Within the camera, a world renders only the rows of the
/// [`PixelFootprint`] it is given beside the mask
/// ([`World::set_sensor_mask`](crate::world::World::set_sensor_mask)), and
/// none when that footprint holds no pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorMask {
    /// Render the forward camera.
    pub camera: bool,
    /// Scan the LIDAR.
    pub lidar: bool,
}

impl SensorMask {
    /// Every sensor: what a world observes unless told otherwise.
    pub const ALL: SensorMask = SensorMask {
        camera: true,
        lidar: true,
    };
    /// Neither the camera nor the LIDAR.
    pub const NONE: SensorMask = SensorMask {
        camera: false,
        lidar: false,
    };
    /// The camera only.
    pub const CAMERA: SensorMask = SensorMask {
        camera: true,
        lidar: false,
    };
    /// The LIDAR only.
    pub const LIDAR: SensorMask = SensorMask {
        camera: false,
        lidar: true,
    };

    /// The sensors in either mask.
    pub fn union(self, other: SensorMask) -> SensorMask {
        SensorMask {
            camera: self.camera || other.camera,
            lidar: self.lidar || other.lidar,
        }
    }
}

/// One complete sensor frame produced by the world each tick and shipped to
/// the driving agent over the client/server link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorFrame {
    /// Frame counter.
    pub frame: u64,
    /// Simulation time, seconds.
    pub time: f64,
    /// Forward RGB camera image.
    pub image: Image,
    /// LIDAR range scan.
    pub lidar: LidarScan,
    /// GPS fix (noisy position).
    pub gps: GpsFix,
    /// IMU reading (noisy acceleration and yaw rate).
    pub imu: ImuReading,
    /// Odometer speed, m/s.
    pub speed: f64,
    /// Compass heading, radians.
    pub heading: f64,
}
