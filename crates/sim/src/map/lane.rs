//! Lanes: directed polyline centerlines with width and speed limit.

use crate::math::{Aabb, Segment, Vec2};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a lane within a [`crate::map::Map`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LaneId(pub u32);

impl fmt::Display for LaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lane#{}", self.0)
    }
}

/// What kind of lane this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LaneKind {
    /// A regular driving lane along a road segment.
    Drive,
    /// A connector through an intersection (may turn).
    Connector,
}

/// Turn direction of a connector lane, used to derive the high-level
/// navigation commands of the conditional imitation-learning agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TurnKind {
    /// Continue straight through the intersection.
    Straight,
    /// Turn left.
    Left,
    /// Turn right.
    Right,
}

/// Result of projecting a point onto a lane centerline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneProjection {
    /// Arc-length along the centerline of the closest point, in meters.
    pub s: f64,
    /// Signed lateral offset: positive to the left of travel direction.
    pub lateral: f64,
    /// Distance from the query point to the centerline (|lateral| up to
    /// endpoint clamping).
    pub distance: f64,
}

/// Rounding margin of [`Lane::reach_box`], meters.
///
/// [`Lane::project`] reports `d = hypot(p.x − c.x, p.y − c.y)` for the
/// computed closest point `c = a + (b − a)·t`, `t ∈ [0, 1]`, of a
/// centerline segment `ab`. With unit roundoff `u = 2⁻⁵³`:
///
/// * `c` lies within `3u·(|a| + |b|)` of the segment's box on each axis
///   (one subtraction, one multiplication and one addition per axis);
/// * each difference `p − c` is rounded by at most `u` relative;
/// * `hypot` is accurate to one ulp (`2u` relative), and the exact
///   `hypot(x, y)` is at least `max(|x|, |y|)`.
///
/// So a computed `d < max_dist` puts `p` within
/// `max_dist·(1 + 4u) + 3u·(|a| + |b|)` of the centerline box on each
/// axis. Growing the box costs two more roundings, at most
/// `u·(|edge| + 2·(max_dist + margin))`. For points within 10⁶ m of the origin
/// and `max_dist` below 100 m all of this stays under 10⁻⁹ m, a thousandth
/// of the margin, so every point `project` could report nearer than
/// `max_dist` lies inside the grown box.
const REACH_MARGIN: f64 = 1e-6;

/// A directed lane: polyline centerline, width, speed limit, and graph
/// connectivity (successors are stored on the [`crate::map::Map`]).
#[derive(Debug, Clone)]
pub struct Lane {
    id: LaneId,
    kind: LaneKind,
    points: Vec<Vec2>,
    /// Cumulative arc length at each point; `cum[0] == 0`.
    cum: Vec<f64>,
    /// Bounding box of `points`.
    bounds: Aabb,
    width: f64,
    speed_limit: f64,
    turn: Option<TurnKind>,
}

impl Lane {
    /// Creates a lane from an ordered centerline polyline.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are supplied or if `width` or
    /// `speed_limit` is not positive — lanes are constructed by trusted map
    /// builders and must be well-formed.
    pub fn new(
        id: LaneId,
        kind: LaneKind,
        points: Vec<Vec2>,
        width: f64,
        speed_limit: f64,
        turn: Option<TurnKind>,
    ) -> Self {
        assert!(points.len() >= 2, "lane needs at least two points");
        assert!(width > 0.0, "lane width must be positive");
        assert!(speed_limit > 0.0, "speed limit must be positive");
        let mut cum = Vec::with_capacity(points.len());
        cum.push(0.0);
        for w in points.windows(2) {
            let last = *cum.last().expect("cum is non-empty");
            cum.push(last + w[0].distance(w[1]));
        }
        let bounds = points.iter().fold(Aabb::new(points[0], points[0]), |b, p| {
            b.union(&Aabb::new(*p, *p))
        });
        Lane {
            id,
            kind,
            points,
            cum,
            bounds,
            width,
            speed_limit,
            turn,
        }
    }

    /// Lane identifier.
    #[inline]
    pub fn id(&self) -> LaneId {
        self.id
    }

    /// Lane kind.
    #[inline]
    pub fn kind(&self) -> LaneKind {
        self.kind
    }

    /// Turn direction, for connectors.
    #[inline]
    pub fn turn(&self) -> Option<TurnKind> {
        self.turn
    }

    /// Full lane width in meters.
    #[inline]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Speed limit in m/s.
    #[inline]
    pub fn speed_limit(&self) -> f64 {
        self.speed_limit
    }

    /// Total centerline arc length.
    #[inline]
    pub fn length(&self) -> f64 {
        *self.cum.last().expect("cum is non-empty")
    }

    /// Centerline points.
    #[inline]
    pub fn points(&self) -> &[Vec2] {
        &self.points
    }

    /// Bounding box of the centerline points.
    #[inline]
    pub(crate) fn bounds(&self) -> &Aabb {
        &self.bounds
    }

    /// The centerline's bounding box grown by `max_dist` plus a 1 µm
    /// rounding margin (`REACH_MARGIN`). [`Lane::project`] reports a distance below
    /// `max_dist` only for points inside it, so a caller that tests
    /// `project(p).distance < max_dist` may skip every point outside it.
    /// A NaN point is outside; its projection distance is infinite.
    #[inline]
    pub fn reach_box(&self, max_dist: f64) -> Aabb {
        self.bounds.inflated(max_dist + REACH_MARGIN)
    }

    /// First centerline point.
    #[inline]
    pub fn start(&self) -> Vec2 {
        self.points[0]
    }

    /// Last centerline point.
    #[inline]
    pub fn end(&self) -> Vec2 {
        *self.points.last().expect("points is non-empty")
    }

    /// Heading of the last segment, radians.
    pub fn end_heading(&self) -> f64 {
        let n = self.points.len();
        (self.points[n - 1] - self.points[n - 2]).angle()
    }

    /// Point on the centerline at arc length `s` (clamped to `[0, length]`).
    pub fn point_at(&self, s: f64) -> Vec2 {
        let s = s.clamp(0.0, self.length());
        let idx = match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        if idx + 1 >= self.points.len() {
            return self.end();
        }
        let seg_len = self.cum[idx + 1] - self.cum[idx];
        let t = if seg_len < 1e-12 {
            0.0
        } else {
            (s - self.cum[idx]) / seg_len
        };
        self.points[idx].lerp(self.points[idx + 1], t)
    }

    /// Heading of the centerline at arc length `s`, radians.
    pub fn heading_at(&self, s: f64) -> f64 {
        let s = s.clamp(0.0, self.length());
        let idx = match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite"))
        {
            Ok(i) => i.min(self.points.len() - 2),
            Err(i) => i.saturating_sub(1).min(self.points.len() - 2),
        };
        (self.points[idx + 1] - self.points[idx]).angle()
    }

    /// Projects a world point onto the centerline.
    pub fn project(&self, p: Vec2) -> LaneProjection {
        let mut best = LaneProjection {
            s: 0.0,
            lateral: 0.0,
            distance: f64::INFINITY,
        };
        for (i, w) in self.points.windows(2).enumerate() {
            let seg = Segment::new(w[0], w[1]);
            let t = seg.closest_t(p);
            let cp = seg.point_at(t);
            let d = cp.distance(p);
            if d < best.distance {
                best = LaneProjection {
                    s: self.cum[i] + t * (self.cum[i + 1] - self.cum[i]),
                    lateral: seg.signed_offset(p),
                    distance: d,
                };
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight_lane() -> Lane {
        Lane::new(
            LaneId(0),
            LaneKind::Drive,
            vec![
                Vec2::new(0.0, 0.0),
                Vec2::new(10.0, 0.0),
                Vec2::new(20.0, 0.0),
            ],
            3.5,
            10.0,
            None,
        )
    }

    #[test]
    fn length_and_point_at() {
        let l = straight_lane();
        assert_eq!(l.length(), 20.0);
        assert_eq!(l.point_at(0.0), Vec2::new(0.0, 0.0));
        assert_eq!(l.point_at(15.0), Vec2::new(15.0, 0.0));
        assert_eq!(l.point_at(99.0), Vec2::new(20.0, 0.0));
        assert_eq!(l.point_at(-5.0), Vec2::new(0.0, 0.0));
    }

    #[test]
    fn heading_constant_on_straight() {
        let l = straight_lane();
        for s in [0.0, 5.0, 10.0, 19.9] {
            assert!((l.heading_at(s)).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_signed_lateral() {
        let l = straight_lane();
        let p = l.project(Vec2::new(5.0, 1.5));
        assert!((p.s - 5.0).abs() < 1e-12);
        assert!((p.lateral - 1.5).abs() < 1e-12);
        let q = l.project(Vec2::new(5.0, -2.0));
        assert!((q.lateral + 2.0).abs() < 1e-12);
    }

    #[test]
    fn projection_clamps_past_ends() {
        let l = straight_lane();
        let p = l.project(Vec2::new(25.0, 0.0));
        assert!((p.s - 20.0).abs() < 1e-12);
        assert!((p.distance - 5.0).abs() < 1e-12);
    }

    #[test]
    fn headings_on_corner() {
        let l = Lane::new(
            LaneId(1),
            LaneKind::Connector,
            vec![
                Vec2::new(0.0, 0.0),
                Vec2::new(10.0, 0.0),
                Vec2::new(10.0, 10.0),
            ],
            3.5,
            5.0,
            Some(TurnKind::Left),
        );
        assert!(l.heading_at(0.0).abs() < 1e-12);
        assert!((l.end_heading() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(l.turn(), Some(TurnKind::Left));
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn rejects_single_point() {
        let _ = Lane::new(
            LaneId(0),
            LaneKind::Drive,
            vec![Vec2::ZERO],
            3.5,
            10.0,
            None,
        );
    }
}
