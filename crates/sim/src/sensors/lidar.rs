//! 2-D LIDAR: a planar range scanner.
//!
//! The scanner itself is geometry-only: it min-folds ray/shape
//! intersections over whatever obstacle shapes the caller supplies. The
//! world culls that shape list through the uniform-grid
//! [spatial index](crate::spatial::SpatialIndex) before every scan —
//! actors whose nearest point lies beyond `max_range` can only produce
//! hit distances greater than the fold's `max_range` initializer, so
//! dropping them leaves the scan bit-identical while the cast cost stays
//! O(nearby) in dense towns.

use crate::math::{Pose, Ray};
use crate::physics::CollisionShape;
use serde::{Deserialize, Serialize};

/// LIDAR configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LidarConfig {
    /// Number of beams spread evenly over the field of view.
    pub beams: usize,
    /// Field of view, degrees (centered on the vehicle heading).
    pub fov_deg: f64,
    /// Maximum range, meters. Beams that hit nothing report this value.
    pub max_range: f64,
}

impl Default for LidarConfig {
    fn default() -> Self {
        LidarConfig {
            beams: 36,
            fov_deg: 180.0,
            max_range: 50.0,
        }
    }
}

/// One LIDAR sweep: per-beam ranges in meters, ordered from the leftmost to
/// the rightmost beam.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LidarScan {
    /// Per-beam range, meters.
    pub ranges: Vec<f64>,
    /// Field of view, degrees (copied from the config for consumers).
    pub fov_deg: f64,
    /// Max range (returned for clear beams).
    pub max_range: f64,
}

impl LidarScan {
    /// Smallest range in the scan.
    pub fn min_range(&self) -> f64 {
        self.ranges.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Angle of beam `i` relative to the heading, radians (positive left).
    pub fn beam_angle(&self, i: usize) -> f64 {
        let n = self.ranges.len().max(2) as f64;
        let fov = self.fov_deg.to_radians();
        fov * 0.5 - fov * i as f64 / (n - 1.0)
    }
}

/// The LIDAR sensor: casts rays against world collision shapes.
#[derive(Debug, Clone)]
pub struct Lidar {
    config: LidarConfig,
}

impl Lidar {
    /// Creates a LIDAR.
    ///
    /// # Panics
    ///
    /// Panics if `beams < 2` or `max_range <= 0`.
    pub fn new(config: LidarConfig) -> Self {
        assert!(config.beams >= 2, "need at least two beams");
        assert!(config.max_range > 0.0, "max range must be positive");
        Lidar { config }
    }

    /// Sensor configuration.
    pub fn config(&self) -> &LidarConfig {
        &self.config
    }

    /// Scans from the ego pose, reusing `out`'s range buffer.
    pub fn scan_into<'a>(
        &self,
        ego: Pose,
        obstacles: impl Iterator<Item = &'a CollisionShape> + Clone,
        out: &mut LidarScan,
    ) {
        let n = self.config.beams;
        let fov = self.config.fov_deg.to_radians();
        out.fov_deg = self.config.fov_deg;
        out.max_range = self.config.max_range;
        out.ranges.clear();
        out.ranges.reserve(n);
        for i in 0..n {
            let rel = fov * 0.5 - fov * i as f64 / (n - 1) as f64;
            let ray = Ray::from_angle(ego.position, ego.heading + rel);
            let mut best = self.config.max_range;
            for shape in obstacles.clone() {
                let hit = match shape {
                    CollisionShape::Box(o) => ray.hit_obb(o),
                    CollisionShape::Circle { center, radius } => ray.hit_circle(*center, *radius),
                    CollisionShape::Fixed(a) => ray.hit_aabb(a),
                };
                if let Some(t) = hit {
                    if t < best {
                        best = t;
                    }
                }
            }
            out.ranges.push(best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{Aabb, Vec2};

    fn scan_at_origin<'a>(
        lidar: &Lidar,
        obstacles: impl Iterator<Item = &'a CollisionShape> + Clone,
    ) -> LidarScan {
        let mut out = LidarScan {
            ranges: Vec::new(),
            fov_deg: 0.0,
            max_range: 0.0,
        };
        lidar.scan_into(Pose::origin(), obstacles, &mut out);
        out
    }

    #[test]
    fn clear_scan_reports_max_range() {
        let lidar = Lidar::new(LidarConfig::default());
        let scan = scan_at_origin(&lidar, std::iter::empty());
        assert_eq!(scan.ranges.len(), 36);
        for r in &scan.ranges {
            assert_eq!(*r, 50.0);
        }
    }

    #[test]
    fn detects_wall_ahead() {
        let lidar = Lidar::new(LidarConfig {
            beams: 9,
            fov_deg: 90.0,
            max_range: 50.0,
        });
        let wall = CollisionShape::Fixed(Aabb::new(Vec2::new(10.0, -20.0), Vec2::new(12.0, 20.0)));
        let shapes = [wall];
        let scan = scan_at_origin(&lidar, shapes.iter());
        // Center beam hits at 10 m.
        let mid = scan.ranges[4];
        assert!((mid - 10.0).abs() < 1e-9, "mid={mid}");
        // Every beam in the 90° fan hits the long wall.
        for r in &scan.ranges {
            assert!(*r < 50.0);
        }
        assert!((scan.min_range() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn beam_angles_span_fov() {
        let lidar = Lidar::new(LidarConfig {
            beams: 5,
            fov_deg: 120.0,
            max_range: 30.0,
        });
        let scan = scan_at_origin(&lidar, std::iter::empty());
        assert!((scan.beam_angle(0).to_degrees() - 60.0).abs() < 1e-9);
        assert!((scan.beam_angle(4).to_degrees() + 60.0).abs() < 1e-9);
        assert!((scan.beam_angle(2)).abs() < 1e-9);
    }

    #[test]
    fn pedestrian_detected_on_correct_side() {
        let lidar = Lidar::new(LidarConfig {
            beams: 19,
            fov_deg: 180.0,
            max_range: 50.0,
        });
        let ped = CollisionShape::Circle {
            center: Vec2::new(5.0, 5.0), // ahead-left
            radius: 1.0,
        };
        let shapes = [ped];
        let scan = scan_at_origin(&lidar, shapes.iter());
        let hit_idx: Vec<usize> = (0..scan.ranges.len())
            .filter(|&i| scan.ranges[i] < 50.0)
            .collect();
        assert!(!hit_idx.is_empty());
        for i in hit_idx {
            assert!(
                scan.beam_angle(i) > 0.0,
                "hit on wrong side at beam {i} (angle {})",
                scan.beam_angle(i)
            );
        }
    }
}
