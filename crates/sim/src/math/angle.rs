//! Angle normalization helpers.

use std::f64::consts::PI;

/// Normalizes an angle in radians into `(-π, π]`.
///
/// ```
/// use avfi_sim::math::normalize_angle;
/// use std::f64::consts::PI;
/// assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((normalize_angle(-0.5) - (-0.5)).abs() < 1e-12);
/// ```
#[inline]
pub fn normalize_angle(theta: f64) -> f64 {
    let mut a = theta % (2.0 * PI);
    if a <= -PI {
        a += 2.0 * PI;
    } else if a > PI {
        a -= 2.0 * PI;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_wraps() {
        assert!((normalize_angle(2.0 * PI) - 0.0).abs() < 1e-12);
        assert!((normalize_angle(-PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(7.0) - (7.0 - 2.0 * PI)).abs() < 1e-12);
    }
}
