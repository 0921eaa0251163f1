//! Planar geometry primitives used across the simulator.
//!
//! All units are SI: meters, seconds, radians. The world is 2-D; headings
//! are measured counter-clockwise from the +X axis.

mod angle;
mod pose;
mod ray;
mod rect;
mod seg;
mod vec2;

pub use angle::normalize_angle;
pub use pose::Pose;
pub use ray::Ray;
pub use rect::{Aabb, Obb};
pub use seg::Segment;
pub use vec2::Vec2;

/// Clamp `x` into `[lo, hi]`.
///
/// Unlike [`f64::clamp`] this never panics: if `lo > hi` the bounds are
/// swapped first, which is convenient for interval math on computed bounds.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    x.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_orders_bounds() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(5.0, 1.0, 0.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }
}
