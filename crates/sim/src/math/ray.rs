//! Ray casting against simulator collision shapes.

use super::{Aabb, Obb, Segment, Vec2};
use serde::{Deserialize, Serialize};

/// A half-line with an origin and unit direction, used by the LIDAR sensor
/// and the expert autopilot's obstacle probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ray {
    /// Origin point.
    pub origin: Vec2,
    /// Unit direction.
    pub direction: Vec2,
}

impl Ray {
    /// Creates a ray from an origin and an angle in radians.
    pub fn from_angle(origin: Vec2, theta: f64) -> Self {
        Ray {
            origin,
            direction: Vec2::from_angle(theta),
        }
    }

    /// Distance to the first intersection with a segment, if any.
    pub fn hit_segment(&self, seg: &Segment) -> Option<f64> {
        let v1 = self.origin - seg.a;
        let v2 = seg.b - seg.a;
        let v3 = self.direction.perp();
        let denom = v2.dot(v3);
        if denom.abs() < 1e-12 {
            return None;
        }
        let t = v2.cross(v1) / denom;
        let u = v1.dot(v3) / denom;
        if t >= 0.0 && (0.0..=1.0).contains(&u) {
            Some(t)
        } else {
            None
        }
    }

    /// Distance to the first intersection with a circle, if any.
    pub fn hit_circle(&self, center: Vec2, radius: f64) -> Option<f64> {
        let oc = self.origin - center;
        let b = oc.dot(self.direction);
        let c = oc.norm_sq() - radius * radius;
        let disc = b * b - c;
        if disc < 0.0 {
            return None;
        }
        let sqrt_d = disc.sqrt();
        let t0 = -b - sqrt_d;
        let t1 = -b + sqrt_d;
        if t0 >= 0.0 {
            Some(t0)
        } else if t1 >= 0.0 {
            // Origin inside the circle.
            Some(0.0)
        } else {
            None
        }
    }

    /// Distance to the first intersection with an axis-aligned box, if any
    /// (slab method). Returns `0` when the origin is inside.
    pub fn hit_aabb(&self, aabb: &Aabb) -> Option<f64> {
        let inv = |d: f64| {
            if d.abs() < 1e-12 {
                f64::INFINITY * d.signum()
            } else {
                1.0 / d
            }
        };
        let (ix, iy) = (inv(self.direction.x), inv(self.direction.y));
        let (mut tmin, mut tmax) = (
            ((aabb.min.x - self.origin.x) * ix).min((aabb.max.x - self.origin.x) * ix),
            ((aabb.min.x - self.origin.x) * ix).max((aabb.max.x - self.origin.x) * ix),
        );
        let (tymin, tymax) = (
            ((aabb.min.y - self.origin.y) * iy).min((aabb.max.y - self.origin.y) * iy),
            ((aabb.min.y - self.origin.y) * iy).max((aabb.max.y - self.origin.y) * iy),
        );
        tmin = tmin.max(tymin);
        tmax = tmax.min(tymax);
        if tmax < tmin || tmax < 0.0 {
            None
        } else {
            Some(tmin.max(0.0))
        }
    }

    /// Distance to the first intersection with an oriented box, if any.
    /// A ray starting inside the box reports `0` (already in contact).
    pub fn hit_obb(&self, obb: &Obb) -> Option<f64> {
        if obb.contains(self.origin) {
            return Some(0.0);
        }
        obb.edges()
            .iter()
            .filter_map(|e| self.hit_segment(e))
            .fold(None, |best, t| match best {
                Some(b) if b <= t => Some(b),
                _ => Some(t),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Pose;

    #[test]
    fn hit_segment_head_on() {
        let r = Ray::from_angle(Vec2::ZERO, 0.0);
        let s = Segment::new(Vec2::new(5.0, -1.0), Vec2::new(5.0, 1.0));
        let t = r.hit_segment(&s).unwrap();
        assert!((t - 5.0).abs() < 1e-12);
    }

    #[test]
    fn miss_segment_behind() {
        let r = Ray::from_angle(Vec2::ZERO, 0.0);
        let s = Segment::new(Vec2::new(-5.0, -1.0), Vec2::new(-5.0, 1.0));
        assert!(r.hit_segment(&s).is_none());
    }

    #[test]
    fn hit_circle_front_and_inside() {
        let r = Ray::from_angle(Vec2::ZERO, 0.0);
        let t = r.hit_circle(Vec2::new(10.0, 0.0), 2.0).unwrap();
        assert!((t - 8.0).abs() < 1e-12);
        // Origin inside → 0.
        assert_eq!(r.hit_circle(Vec2::new(0.5, 0.0), 2.0), Some(0.0));
        // Behind → miss.
        assert!(r.hit_circle(Vec2::new(-10.0, 0.0), 2.0).is_none());
    }

    #[test]
    fn hit_aabb_axis() {
        let r = Ray::from_angle(Vec2::ZERO, 0.0);
        let b = Aabb::new(Vec2::new(4.0, -1.0), Vec2::new(6.0, 1.0));
        assert!((r.hit_aabb(&b).unwrap() - 4.0).abs() < 1e-12);
        let miss = Aabb::new(Vec2::new(4.0, 2.0), Vec2::new(6.0, 3.0));
        assert!(r.hit_aabb(&miss).is_none());
    }

    #[test]
    fn hit_aabb_vertical_ray() {
        let r = Ray::from_angle(Vec2::new(5.0, -10.0), std::f64::consts::FRAC_PI_2);
        let b = Aabb::new(Vec2::new(4.0, -1.0), Vec2::new(6.0, 1.0));
        assert!((r.hit_aabb(&b).unwrap() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn hit_obb_rotated() {
        let r = Ray::from_angle(Vec2::ZERO, 0.0);
        let o = Obb::new(Pose::new(Vec2::new(10.0, 0.0), 0.4), 4.0, 2.0);
        let t = r.hit_obb(&o).unwrap();
        assert!(t > 7.0 && t < 10.0, "t={t}");
        // Ray starting inside reports 0.
        let r2 = Ray::from_angle(Vec2::new(10.0, 0.0), 0.0);
        assert_eq!(r2.hit_obb(&o), Some(0.0));
    }
}
