//! Axis-aligned and oriented rectangles.

use super::{Pose, Segment, Vec2};
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec2,
    /// Maximum corner.
    pub max: Vec2,
}

impl Aabb {
    /// Creates an AABB from two corners (in any order).
    pub fn new(a: Vec2, b: Vec2) -> Self {
        Aabb {
            min: Vec2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Vec2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates an AABB from a center and half-extents.
    pub fn from_center(center: Vec2, half_w: f64, half_h: f64) -> Self {
        Aabb {
            min: center - Vec2::new(half_w, half_h),
            max: center + Vec2::new(half_w, half_h),
        }
    }

    /// Center of the box.
    #[inline]
    pub fn center(&self) -> Vec2 {
        (self.min + self.max) * 0.5
    }

    /// Width (x-extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y-extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// `true` if the point lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// `true` if the boxes overlap (touching counts).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// The box grown by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Aabb {
        Aabb {
            min: self.min - Vec2::new(margin, margin),
            max: self.max + Vec2::new(margin, margin),
        }
    }

    /// The point in the box closest to `p` (i.e. `p` clamped to the box).
    pub fn clamp_point(&self, p: Vec2) -> Vec2 {
        Vec2::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Distance from `p` to the box (0 when inside).
    pub fn distance_to(&self, p: Vec2) -> f64 {
        self.clamp_point(p).distance(p)
    }

    /// Smallest AABB containing both boxes.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: Vec2::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Vec2::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }
}

/// An oriented bounding box: a rectangle with an arbitrary heading.
///
/// Used as the collision footprint of vehicles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Obb {
    /// Pose of the rectangle center.
    pub pose: Pose,
    /// Half-length along the heading (x) axis.
    pub half_length: f64,
    /// Half-width along the lateral (y) axis.
    pub half_width: f64,
}

impl Obb {
    /// Creates an OBB from a center pose and full dimensions.
    pub fn new(pose: Pose, length: f64, width: f64) -> Self {
        Obb {
            pose,
            half_length: length * 0.5,
            half_width: width * 0.5,
        }
    }

    /// The four corners in world frame, counter-clockwise starting at the
    /// front-left.
    pub fn corners(&self) -> [Vec2; 4] {
        let l = self.half_length;
        let w = self.half_width;
        [
            self.pose.to_world(Vec2::new(l, w)),
            self.pose.to_world(Vec2::new(-l, w)),
            self.pose.to_world(Vec2::new(-l, -w)),
            self.pose.to_world(Vec2::new(l, -w)),
        ]
    }

    /// The four edges as segments, counter-clockwise.
    pub fn edges(&self) -> [Segment; 4] {
        let c = self.corners();
        [
            Segment::new(c[0], c[1]),
            Segment::new(c[1], c[2]),
            Segment::new(c[2], c[3]),
            Segment::new(c[3], c[0]),
        ]
    }

    /// Radius of the bounding circle.
    #[inline]
    pub fn bounding_radius(&self) -> f64 {
        self.half_length.hypot(self.half_width)
    }

    /// `true` if the world point lies inside the rectangle.
    pub fn contains(&self, p: Vec2) -> bool {
        let local = self.pose.to_local(p);
        local.x.abs() <= self.half_length && local.y.abs() <= self.half_width
    }

    /// Separating-axis overlap test against another OBB.
    pub fn intersects(&self, other: &Obb) -> bool {
        // Quick reject on bounding circles.
        let dist = self.pose.position.distance(other.pose.position);
        if dist > self.bounding_radius() + other.bounding_radius() {
            return false;
        }
        let axes = [
            self.pose.forward(),
            self.pose.left(),
            other.pose.forward(),
            other.pose.left(),
        ];
        let ca = self.corners();
        let cb = other.corners();
        for axis in axes {
            let (mut amin, mut amax) = (f64::INFINITY, f64::NEG_INFINITY);
            for c in ca {
                let p = c.dot(axis);
                amin = amin.min(p);
                amax = amax.max(p);
            }
            let (mut bmin, mut bmax) = (f64::INFINITY, f64::NEG_INFINITY);
            for c in cb {
                let p = c.dot(axis);
                bmin = bmin.min(p);
                bmax = bmax.max(p);
            }
            if amax < bmin || bmax < amin {
                return false;
            }
        }
        true
    }

    /// Overlap test against a circle.
    pub fn intersects_circle(&self, center: Vec2, radius: f64) -> bool {
        let local = self.pose.to_local(center);
        let clamped = Vec2::new(
            local.x.clamp(-self.half_length, self.half_length),
            local.y.clamp(-self.half_width, self.half_width),
        );
        local.distance_sq(clamped) <= radius * radius
    }

    /// Overlap test against an axis-aligned box (conservative SAT on the
    /// OBB axes plus the world axes).
    pub fn intersects_aabb(&self, aabb: &Aabb) -> bool {
        let other = Obb::new(Pose::new(aabb.center(), 0.0), aabb.width(), aabb.height());
        self.intersects(&other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_4;

    #[test]
    fn aabb_contains_and_intersects() {
        let a = Aabb::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 2.0));
        assert!(a.contains(Vec2::new(1.0, 1.0)));
        assert!(!a.contains(Vec2::new(3.0, 1.0)));
        let b = Aabb::new(Vec2::new(1.0, 1.0), Vec2::new(3.0, 3.0));
        assert!(a.intersects(&b));
        let c = Aabb::new(Vec2::new(5.0, 5.0), Vec2::new(6.0, 6.0));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn aabb_distance() {
        let a = Aabb::new(Vec2::new(0.0, 0.0), Vec2::new(2.0, 2.0));
        assert_eq!(a.distance_to(Vec2::new(1.0, 1.0)), 0.0);
        assert_eq!(a.distance_to(Vec2::new(5.0, 1.0)), 3.0);
    }

    #[test]
    fn obb_contains() {
        let o = Obb::new(Pose::new(Vec2::ZERO, FRAC_PI_4), 4.0, 2.0);
        assert!(o.contains(Vec2::ZERO));
        // Along the heading, just inside the half length.
        let tip = Vec2::from_angle(FRAC_PI_4) * 1.9;
        assert!(o.contains(tip));
        // Perpendicular beyond half width.
        let side = Vec2::from_angle(FRAC_PI_4).perp() * 1.5;
        assert!(!o.contains(side));
    }

    #[test]
    fn obb_sat_overlap() {
        let a = Obb::new(Pose::new(Vec2::ZERO, 0.0), 4.0, 2.0);
        let b = Obb::new(Pose::new(Vec2::new(3.0, 0.0), FRAC_PI_4), 4.0, 2.0);
        assert!(a.intersects(&b));
        let c = Obb::new(Pose::new(Vec2::new(10.0, 0.0), 0.0), 4.0, 2.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn obb_circle() {
        let a = Obb::new(Pose::new(Vec2::ZERO, 0.0), 4.0, 2.0);
        assert!(a.intersects_circle(Vec2::new(2.4, 0.0), 0.5));
        assert!(!a.intersects_circle(Vec2::new(3.0, 0.0), 0.5));
        assert!(a.intersects_circle(Vec2::ZERO, 0.1));
    }

    #[test]
    fn obb_aabb() {
        let a = Obb::new(Pose::new(Vec2::ZERO, 0.3), 4.0, 2.0);
        assert!(a.intersects_aabb(&Aabb::new(Vec2::new(1.0, 0.0), Vec2::new(3.0, 1.0))));
        assert!(!a.intersects_aabb(&Aabb::new(Vec2::new(10.0, 10.0), Vec2::new(11.0, 11.0))));
    }
}
