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
