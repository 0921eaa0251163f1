//! Pedestrians: sidewalk walkers that occasionally cross the road.

use crate::math::{Segment, Vec2};
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Walking state of a pedestrian.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PedestrianPhase {
    /// Walking back and forth along a sidewalk segment; `t ∈ [0, 1]`,
    /// `forward` is the current direction.
    Sidewalk {
        /// Normalized position along the home segment.
        t: f64,
        /// Walking from `a` to `b` when `true`.
        forward: bool,
    },
    /// Crossing the road perpendicular to the sidewalk; `t ∈ [0, 1]` along
    /// the crossing segment.
    Crossing {
        /// Normalized crossing progress.
        t: f64,
        /// Crossing start point.
        from: Vec2,
        /// Crossing end point.
        to: Vec2,
        /// Returning to the home sidewalk when `true`.
        returning: bool,
    },
}

/// A pedestrian walking a sidewalk, with a small chance per second of
/// stepping onto the road to cross it — the hazard that exercises the
/// "collisions with pedestrians" accident class of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pedestrian {
    /// Home sidewalk segment.
    home: Segment,
    /// Crossing target offset: the opposite sidewalk is `cross_dir *
    /// cross_dist` away from any point of the home segment.
    cross_dir: Vec2,
    cross_dist: f64,
    phase: PedestrianPhase,
    walk_speed: f64,
    /// Probability of starting a crossing, per second.
    cross_rate: f64,
    position: Vec2,
    hit: bool,
}

/// Pedestrian body radius, meters.
pub const PEDESTRIAN_RADIUS: f64 = 0.35;

impl Pedestrian {
    /// Creates a pedestrian walking `home` (a sidewalk segment), able to
    /// cross to the parallel sidewalk at `cross_dir * cross_dist`.
    pub fn new(
        home: Segment,
        cross_dir: Vec2,
        cross_dist: f64,
        start_t: f64,
        walk_speed: f64,
        cross_rate: f64,
    ) -> Self {
        let start_t = start_t.clamp(0.0, 1.0);
        Pedestrian {
            home,
            cross_dir: cross_dir.normalized(),
            cross_dist,
            phase: PedestrianPhase::Sidewalk {
                t: start_t,
                forward: true,
            },
            walk_speed,
            cross_rate,
            position: home.point_at(start_t),
            hit: false,
        }
    }

    /// Current world position.
    #[inline]
    pub fn position(&self) -> Vec2 {
        self.position
    }

    /// `true` while the pedestrian is on the roadway.
    pub fn is_crossing(&self) -> bool {
        matches!(self.phase, PedestrianPhase::Crossing { .. })
    }

    /// Marks the pedestrian as struck by the ego vehicle; it despawns.
    pub fn knock(&mut self) {
        self.hit = true;
    }

    /// `true` once the pedestrian should be removed from the world.
    #[inline]
    pub fn should_despawn(&self) -> bool {
        self.hit
    }

    /// Advances the pedestrian by `dt` seconds.
    pub fn step(&mut self, rng: &mut StdRng, dt: f64) {
        self.step_multi(rng, dt, 1);
    }

    /// Event-driven decision step covering `ticks` frames of `dt` seconds:
    /// the pedestrian moves one `dt` (the dormant `ticks - 1` frames must
    /// already have been folded in with [`Pedestrian::coast`]) and draws
    /// the road-crossing decision **once**, with the crossing probability
    /// scaled by `ticks` to aggregate the per-frame draws the dormancy
    /// skipped.
    ///
    /// With `ticks == 1` this is exactly the per-frame
    /// [`Pedestrian::step`]: one movement integration, one RNG draw against
    /// the unscaled `cross_rate * dt` — bit-identical draws, which is what
    /// keeps decision horizon 1 exact.
    pub fn step_multi(&mut self, rng: &mut StdRng, dt: f64, ticks: u64) {
        if self.hit {
            return;
        }
        let cross_p = if ticks <= 1 {
            self.cross_rate * dt
        } else {
            (self.cross_rate * dt * ticks as f64).min(1.0)
        };
        match self.phase {
            PedestrianPhase::Sidewalk { t, forward } => {
                let len = self.home.length().max(1e-6);
                let dt_norm = self.walk_speed * dt / len;
                let (mut t, mut forward) = (t, forward);
                if forward {
                    t += dt_norm;
                    if t >= 1.0 {
                        t = 1.0;
                        forward = false;
                    }
                } else {
                    t -= dt_norm;
                    if t <= 0.0 {
                        t = 0.0;
                        forward = true;
                    }
                }
                self.position = self.home.point_at(t);
                // Maybe start crossing.
                if rng.random_range(0.0..1.0) < cross_p {
                    let from = self.position;
                    let to = from + self.cross_dir * self.cross_dist;
                    self.phase = PedestrianPhase::Crossing {
                        t: 0.0,
                        from,
                        to,
                        returning: false,
                    };
                } else {
                    self.phase = PedestrianPhase::Sidewalk { t, forward };
                }
            }
            PedestrianPhase::Crossing {
                t,
                from,
                to,
                returning,
            } => {
                let len = from.distance(to).max(1e-6);
                let t = t + self.walk_speed * dt / len;
                if t >= 1.0 {
                    self.position = to;
                    if returning {
                        // Back home: resume walking.
                        let proj = self.home.closest_t(self.position);
                        self.phase = PedestrianPhase::Sidewalk {
                            t: proj,
                            forward: true,
                        };
                    } else {
                        // Pause is skipped; immediately walk back.
                        self.phase = PedestrianPhase::Crossing {
                            t: 0.0,
                            from: to,
                            to: from,
                            returning: true,
                        };
                    }
                } else {
                    self.position = from.lerp(to, t);
                    self.phase = PedestrianPhase::Crossing {
                        t,
                        from,
                        to,
                        returning,
                    };
                }
            }
        }
    }

    /// Folds a dormant walk of `seconds` into the stored state without any
    /// RNG draw or phase change: pure kinematic progress along the current
    /// sidewalk run or crossing leg, clamped at the phase boundary.
    /// Traffic caps sleep with [`Pedestrian::ticks_until_turn`] so the
    /// clamp is defensive only. No-op for hit pedestrians and for
    /// `seconds == 0.0` (always, at decision horizon 1).
    pub fn coast(&mut self, seconds: f64) {
        if self.hit || seconds == 0.0 {
            return;
        }
        match self.phase {
            PedestrianPhase::Sidewalk { t, forward } => {
                let len = self.home.length().max(1e-6);
                let delta = self.walk_speed * seconds / len;
                let t = if forward { t + delta } else { t - delta }.clamp(0.0, 1.0);
                self.position = self.home.point_at(t);
                self.phase = PedestrianPhase::Sidewalk { t, forward };
            }
            PedestrianPhase::Crossing {
                t,
                from,
                to,
                returning,
            } => {
                let len = from.distance(to).max(1e-6);
                let t = (t + self.walk_speed * seconds / len).clamp(0.0, 1.0);
                self.position = from.lerp(to, t);
                self.phase = PedestrianPhase::Crossing {
                    t,
                    from,
                    to,
                    returning,
                };
            }
        }
    }

    /// World position after a dormant walk of `seconds`, without mutating
    /// the pedestrian (the query-time counterpart of
    /// [`Pedestrian::coast`]). With `seconds == 0.0` this is exactly
    /// [`Pedestrian::position`].
    pub fn position_at(&self, seconds: f64) -> Vec2 {
        if self.hit || seconds == 0.0 {
            return self.position;
        }
        match self.phase {
            PedestrianPhase::Sidewalk { t, forward } => {
                let len = self.home.length().max(1e-6);
                let delta = self.walk_speed * seconds / len;
                let t = if forward { t + delta } else { t - delta }.clamp(0.0, 1.0);
                self.home.point_at(t)
            }
            PedestrianPhase::Crossing { t, from, to, .. } => {
                let len = from.distance(to).max(1e-6);
                from.lerp(to, (t + self.walk_speed * seconds / len).clamp(0.0, 1.0))
            }
        }
    }

    /// How many ticks of `dt` this pedestrian can walk before reaching the
    /// current phase boundary (sidewalk end or crossing end), rounded
    /// down. Traffic caps sleep with this so direction flips and crossing
    /// arrivals are always handled by an awake decision step.
    pub fn ticks_until_turn(&self, dt: f64) -> u64 {
        let per_tick = self.walk_speed * dt;
        if per_tick <= 0.0 {
            return 1;
        }
        let room = match self.phase {
            PedestrianPhase::Sidewalk { t, forward } => {
                let len = self.home.length().max(1e-6);
                (if forward { 1.0 - t } else { t }) * len
            }
            PedestrianPhase::Crossing { t, from, to, .. } => {
                (1.0 - t) * from.distance(to).max(1e-6)
            }
        };
        ((room / per_tick).floor().max(0.0)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;
    use crate::FRAME_DT;

    fn ped(cross_rate: f64) -> Pedestrian {
        Pedestrian::new(
            Segment::new(Vec2::new(0.0, 5.0), Vec2::new(50.0, 5.0)),
            Vec2::new(0.0, -1.0),
            10.0,
            0.2,
            1.4,
            cross_rate,
        )
    }

    #[test]
    fn walks_back_and_forth() {
        let mut p = ped(0.0);
        let mut rng = stream_rng(5, 0);
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        for _ in 0..(120.0 / FRAME_DT) as usize {
            p.step(&mut rng, FRAME_DT);
            min_x = min_x.min(p.position().x);
            max_x = max_x.max(p.position().x);
            assert!((p.position().y - 5.0).abs() < 1e-9);
        }
        assert!(max_x > 40.0, "never reached far end: {max_x}");
        assert!(min_x < 10.0, "never walked back: {min_x}");
    }

    #[test]
    fn eventually_crosses_and_returns() {
        let mut p = ped(0.5);
        let mut rng = stream_rng(6, 0);
        let mut crossed = false;
        for _ in 0..(120.0 / FRAME_DT) as usize {
            p.step(&mut rng, FRAME_DT);
            if p.is_crossing() {
                crossed = true;
            }
        }
        assert!(crossed, "never crossed");
        // Even after crossing, y stays within the corridor.
        assert!(p.position().y <= 5.0 + 1e-9 && p.position().y >= -5.0 - 1e-9);
    }

    #[test]
    fn knocked_pedestrian_stops() {
        let mut p = ped(0.0);
        let mut rng = stream_rng(7, 0);
        p.knock();
        let pos = p.position();
        for _ in 0..30 {
            p.step(&mut rng, FRAME_DT);
        }
        assert_eq!(p.position(), pos);
        assert!(p.should_despawn());
    }

    #[test]
    fn zero_rate_never_crosses() {
        let mut p = ped(0.0);
        let mut rng = stream_rng(8, 0);
        for _ in 0..(60.0 / FRAME_DT) as usize {
            p.step(&mut rng, FRAME_DT);
            assert!(!p.is_crossing());
        }
    }
}
