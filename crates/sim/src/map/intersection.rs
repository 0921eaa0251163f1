//! Intersections and traffic-light control.

use crate::map::lane::LaneId;
use crate::math::{Aabb, Vec2};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an intersection within a [`crate::map::Map`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IntersectionId(pub u32);

impl fmt::Display for IntersectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "isect#{}", self.0)
    }
}

/// Which signal group an approach belongs to. Grid towns alternate
/// north-south and east-west greens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignalGroup {
    /// Approaches travelling along the ±Y axis.
    NorthSouth,
    /// Approaches travelling along the ±X axis.
    EastWest,
}

impl SignalGroup {
    /// Classifies a travel heading (radians) into a signal group.
    pub fn from_heading(heading: f64) -> SignalGroup {
        // Close to ±X → EastWest, close to ±Y → NorthSouth.
        let c = heading.cos().abs();
        let s = heading.sin().abs();
        if c >= s {
            SignalGroup::EastWest
        } else {
            SignalGroup::NorthSouth
        }
    }
}

/// Current color of a traffic light for one signal group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LightState {
    /// Go.
    Green,
    /// Prepare to stop.
    Yellow,
    /// Stop.
    Red,
}

impl fmt::Display for LightState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LightState::Green => "green",
            LightState::Yellow => "yellow",
            LightState::Red => "red",
        };
        f.write_str(s)
    }
}

/// Signal timing plan shared by all lights of a town (CARLA towns use a
/// single plan too). Times in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalTiming {
    /// Green duration per group.
    pub green: f64,
    /// Yellow duration per group.
    pub yellow: f64,
    /// All-red clearance between groups.
    pub all_red: f64,
}

impl Default for SignalTiming {
    fn default() -> Self {
        SignalTiming {
            green: 8.0,
            yellow: 2.0,
            all_red: 1.0,
        }
    }
}

impl SignalTiming {
    /// Full cycle duration: both groups get green+yellow, plus two all-red
    /// clearances.
    pub fn cycle(&self) -> f64 {
        2.0 * (self.green + self.yellow + self.all_red)
    }
}

/// An intersection: a square region where connector lanes meet, plus a
/// traffic light (uncontrolled intersections have none).
#[derive(Debug, Clone)]
pub struct Intersection {
    id: IntersectionId,
    area: Aabb,
    /// Incoming drive lanes (ending at this intersection).
    incoming: Vec<LaneId>,
    signalized: bool,
    timing: SignalTiming,
    /// Phase offset in seconds, so not all lights in a town are in sync.
    phase_offset: f64,
}

impl Intersection {
    /// Creates an intersection covering `area`.
    pub fn new(
        id: IntersectionId,
        area: Aabb,
        signalized: bool,
        timing: SignalTiming,
        phase_offset: f64,
    ) -> Self {
        Intersection {
            id,
            area,
            incoming: Vec::new(),
            signalized,
            timing,
            phase_offset,
        }
    }

    /// Intersection identifier.
    #[inline]
    pub fn id(&self) -> IntersectionId {
        self.id
    }

    /// Square region covered by the intersection.
    #[inline]
    pub fn area(&self) -> &Aabb {
        &self.area
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Vec2 {
        self.area.center()
    }

    /// Whether a traffic light controls this intersection.
    #[inline]
    pub fn is_signalized(&self) -> bool {
        self.signalized
    }

    /// Incoming drive lanes.
    #[inline]
    pub fn incoming(&self) -> &[LaneId] {
        &self.incoming
    }

    /// Registers an incoming lane (called by map builders).
    pub fn add_incoming(&mut self, lane: LaneId) {
        if !self.incoming.contains(&lane) {
            self.incoming.push(lane);
        }
    }

    /// Light state for a signal group at simulation time `t` seconds.
    ///
    /// Unsignalized intersections report green for every group.
    pub fn light_state(&self, group: SignalGroup, t: f64) -> LightState {
        if !self.signalized {
            return LightState::Green;
        }
        let cycle = self.timing.cycle();
        let phase = (t + self.phase_offset).rem_euclid(cycle);
        // [0, g) NS green; [g, g+y) NS yellow; [g+y, g+y+r) all red;
        // then the same for EW.
        let half = self.timing.green + self.timing.yellow + self.timing.all_red;
        let (active, local) = if phase < half {
            (SignalGroup::NorthSouth, phase)
        } else {
            (SignalGroup::EastWest, phase - half)
        };
        if group == active {
            if local < self.timing.green {
                LightState::Green
            } else if local < self.timing.green + self.timing.yellow {
                LightState::Yellow
            } else {
                LightState::Red
            }
        } else {
            LightState::Red
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isect(signalized: bool) -> Intersection {
        Intersection::new(
            IntersectionId(0),
            Aabb::from_center(Vec2::ZERO, 6.0, 6.0),
            signalized,
            SignalTiming::default(),
            0.0,
        )
    }

    #[test]
    fn signal_group_classification() {
        assert_eq!(SignalGroup::from_heading(0.0), SignalGroup::EastWest);
        assert_eq!(
            SignalGroup::from_heading(std::f64::consts::PI),
            SignalGroup::EastWest
        );
        assert_eq!(
            SignalGroup::from_heading(std::f64::consts::FRAC_PI_2),
            SignalGroup::NorthSouth
        );
        assert_eq!(
            SignalGroup::from_heading(-std::f64::consts::FRAC_PI_2),
            SignalGroup::NorthSouth
        );
    }

    #[test]
    fn light_cycles_through_states() {
        let i = isect(true);
        // t=0: NS green, EW red.
        assert_eq!(
            i.light_state(SignalGroup::NorthSouth, 0.0),
            LightState::Green
        );
        assert_eq!(i.light_state(SignalGroup::EastWest, 0.0), LightState::Red);
        // After green: NS yellow.
        assert_eq!(
            i.light_state(SignalGroup::NorthSouth, 8.5),
            LightState::Yellow
        );
        // All red clearance.
        assert_eq!(
            i.light_state(SignalGroup::NorthSouth, 10.5),
            LightState::Red
        );
        assert_eq!(i.light_state(SignalGroup::EastWest, 10.5), LightState::Red);
        // Second half: EW green.
        assert_eq!(
            i.light_state(SignalGroup::EastWest, 11.5),
            LightState::Green
        );
        assert_eq!(
            i.light_state(SignalGroup::NorthSouth, 11.5),
            LightState::Red
        );
        // Wraps around after a full cycle (22 s).
        assert_eq!(
            i.light_state(SignalGroup::NorthSouth, 22.5),
            LightState::Green
        );
    }

    #[test]
    fn unsignalized_always_green() {
        let i = isect(false);
        for t in [0.0, 9.0, 10.5, 15.0] {
            assert_eq!(i.light_state(SignalGroup::NorthSouth, t), LightState::Green);
            assert_eq!(i.light_state(SignalGroup::EastWest, t), LightState::Green);
        }
    }

    #[test]
    fn no_simultaneous_green() {
        let i = isect(true);
        let mut t = 0.0;
        while t < 44.0 {
            let ns = i.light_state(SignalGroup::NorthSouth, t);
            let ew = i.light_state(SignalGroup::EastWest, t);
            assert!(
                !(ns != LightState::Red && ew != LightState::Red),
                "both non-red at t={t}: {ns} / {ew}"
            );
            t += 0.1;
        }
    }

    #[test]
    fn registration_dedupes() {
        let mut i = isect(true);
        i.add_incoming(LaneId(3));
        i.add_incoming(LaneId(3));
        assert_eq!(i.incoming().len(), 1);
    }
}
