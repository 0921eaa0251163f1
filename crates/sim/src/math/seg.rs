//! Line segments and point/segment queries.

use super::Vec2;
use serde::{Deserialize, Serialize};

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Start point.
    pub a: Vec2,
    /// End point.
    pub b: Vec2,
}

impl Segment {
    /// Creates a segment from endpoints.
    #[inline]
    pub const fn new(a: Vec2, b: Vec2) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Direction from `a` to `b` (unit vector, or zero for degenerate
    /// segments).
    #[inline]
    pub fn direction(&self) -> Vec2 {
        (self.b - self.a).normalized()
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn point_at(&self, t: f64) -> Vec2 {
        self.a.lerp(self.b, t)
    }

    /// Parameter `t ∈ [0, 1]` of the point on the segment closest to `p`.
    pub fn closest_t(&self, p: Vec2) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq < 1e-24 {
            return 0.0;
        }
        ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// The point on the segment closest to `p`.
    #[inline]
    pub fn closest_point(&self, p: Vec2) -> Vec2 {
        self.point_at(self.closest_t(p))
    }

    /// Distance from `p` to the segment.
    #[inline]
    pub fn distance_to(&self, p: Vec2) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Signed lateral offset of `p` from the (infinite) line through the
    /// segment: positive when `p` is to the left of `a → b`.
    #[inline]
    pub fn signed_offset(&self, p: Vec2) -> f64 {
        self.direction().cross(p - self.a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_point_clamps_to_ends() {
        let s = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0));
        assert_eq!(s.closest_point(Vec2::new(-5.0, 3.0)), Vec2::new(0.0, 0.0));
        assert_eq!(s.closest_point(Vec2::new(15.0, 3.0)), Vec2::new(10.0, 0.0));
        assert_eq!(s.closest_point(Vec2::new(4.0, 3.0)), Vec2::new(4.0, 0.0));
    }

    #[test]
    fn signed_offset_side() {
        let s = Segment::new(Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0));
        assert!(s.signed_offset(Vec2::new(0.5, 1.0)) > 0.0);
        assert!(s.signed_offset(Vec2::new(0.5, -1.0)) < 0.0);
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0));
        assert_eq!(s.closest_t(Vec2::new(5.0, 5.0)), 0.0);
        assert_eq!(s.distance_to(Vec2::new(1.0, 2.0)), 1.0);
    }
}
