//! Collision shapes and contact tests between world entities.

use crate::math::{Aabb, Obb, Vec2};
use serde::{Deserialize, Serialize};

/// Collision footprint of a world entity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CollisionShape {
    /// Oriented rectangle (vehicles).
    Box(Obb),
    /// Circle (pedestrians, props).
    Circle {
        /// Center in world frame.
        center: Vec2,
        /// Radius, meters.
        radius: f64,
    },
    /// Axis-aligned rectangle (buildings).
    Fixed(Aabb),
}

/// A detected contact between two shapes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Contact {
    /// Approximate contact point (midpoint of the shape centers).
    pub point: Vec2,
}

impl CollisionShape {
    /// Center of the shape.
    pub fn center(&self) -> Vec2 {
        match self {
            CollisionShape::Box(o) => o.pose.position,
            CollisionShape::Circle { center, .. } => *center,
            CollisionShape::Fixed(a) => a.center(),
        }
    }

    /// Tests two shapes for overlap and returns a contact if they touch.
    pub fn contact(&self, other: &CollisionShape) -> Option<Contact> {
        use CollisionShape::*;
        let hit = match (self, other) {
            (Box(a), Box(b)) => a.intersects(b),
            (Box(o), Circle { center, radius }) | (Circle { center, radius }, Box(o)) => {
                o.intersects_circle(*center, *radius)
            }
            (Box(o), Fixed(a)) | (Fixed(a), Box(o)) => o.intersects_aabb(a),
            (
                Circle {
                    center: c1,
                    radius: r1,
                },
                Circle {
                    center: c2,
                    radius: r2,
                },
            ) => c1.distance_sq(*c2) <= (r1 + r2) * (r1 + r2),
            (Circle { center, radius }, Fixed(a)) | (Fixed(a), Circle { center, radius }) => {
                a.distance_to(*center) <= *radius
            }
            (Fixed(a), Fixed(b)) => a.intersects(b),
        };
        if hit {
            Some(Contact {
                point: (self.center() + other.center()) * 0.5,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Pose;

    #[test]
    fn box_box() {
        let a = CollisionShape::Box(Obb::new(Pose::origin(), 4.0, 2.0));
        let b = CollisionShape::Box(Obb::new(Pose::new(Vec2::new(3.0, 0.5), 0.4), 4.0, 2.0));
        assert!(a.contact(&b).is_some());
        let far = CollisionShape::Box(Obb::new(Pose::new(Vec2::new(20.0, 0.0), 0.0), 4.0, 2.0));
        assert!(a.contact(&far).is_none());
    }

    #[test]
    fn box_circle_symmetry() {
        let car = CollisionShape::Box(Obb::new(Pose::origin(), 4.0, 2.0));
        let ped = CollisionShape::Circle {
            center: Vec2::new(2.2, 0.0),
            radius: 0.4,
        };
        assert!(car.contact(&ped).is_some());
        assert!(ped.contact(&car).is_some());
    }

    #[test]
    fn circle_circle() {
        let a = CollisionShape::Circle {
            center: Vec2::ZERO,
            radius: 1.0,
        };
        let b = CollisionShape::Circle {
            center: Vec2::new(1.5, 0.0),
            radius: 1.0,
        };
        assert!(a.contact(&b).is_some());
        let c = CollisionShape::Circle {
            center: Vec2::new(3.0, 0.0),
            radius: 0.5,
        };
        assert!(a.contact(&c).is_none());
    }

    #[test]
    fn box_building() {
        let car = CollisionShape::Box(Obb::new(Pose::new(Vec2::new(0.0, 0.0), 0.0), 4.0, 2.0));
        let wall = CollisionShape::Fixed(Aabb::new(Vec2::new(1.5, -5.0), Vec2::new(10.0, 5.0)));
        assert!(car.contact(&wall).is_some());
        let far = CollisionShape::Fixed(Aabb::new(Vec2::new(5.0, -5.0), Vec2::new(10.0, 5.0)));
        assert!(car.contact(&far).is_none());
    }

    #[test]
    fn contact_point_between_centers() {
        let a = CollisionShape::Circle {
            center: Vec2::ZERO,
            radius: 1.0,
        };
        let b = CollisionShape::Circle {
            center: Vec2::new(1.0, 0.0),
            radius: 1.0,
        };
        let c = a.contact(&b).unwrap();
        assert_eq!(c.point, Vec2::new(0.5, 0.0));
    }
}
