//! # avfi-sim — deterministic urban driving world simulator
//!
//! This crate is the world-simulator substrate of the AVFI reproduction
//! (Jha et al., *AVFI: Fault Injection for Autonomous Vehicles*, DSN 2018).
//! The paper drives CARLA (an Unreal-Engine-based 3-D simulator); this crate
//! provides the closest pure-Rust equivalent that exercises the same code
//! paths AVFI instruments:
//!
//! * a procedural **urban map** — road network with lanes, intersections,
//!   traffic lights, sidewalks and buildings ([`map`]),
//! * **vehicle physics** — a kinematic bicycle model with collision
//!   detection ([`physics`]),
//! * **traffic actors** — NPC vehicles with IDM car-following and pedestrians
//!   ([`actors`]),
//! * **sensors** — a software-rasterized forward RGB camera, 2-D LIDAR, GPS
//!   and odometry ([`sensors`]),
//! * a **traffic-rule monitor** that emits the violation events AVFI's
//!   resilience metrics are computed from ([`violation`]),
//! * and a lockstep [`world::World`] that ties it all together at a fixed
//!   frame rate (15 FPS in the paper).
//!
//! Everything is deterministic given a [`scenario::Scenario`] seed: two runs
//! of the same scenario with the same control inputs produce bit-identical
//! trajectories, sensor frames and violation streams.
//!
//! ## Quick example
//!
//! ```
//! use avfi_sim::scenario::{Scenario, TownSpec};
//! use avfi_sim::world::World;
//! use avfi_sim::physics::VehicleControl;
//!
//! let scenario = Scenario::builder(TownSpec::grid(3, 3))
//!     .seed(7)
//!     .npc_vehicles(4)
//!     .pedestrians(4)
//!     .build();
//! let mut world = World::from_scenario(&scenario);
//! for _ in 0..15 {
//!     world.step(VehicleControl::coast());
//! }
//! assert_eq!(world.frame(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actors;
pub mod map;
pub mod math;
pub mod physics;
pub mod recorder;
pub mod rng;
pub mod scenario;
pub mod sensors;
pub mod spatial;
pub mod violation;
pub mod weather;
pub mod world;

pub use math::{Pose, Vec2};
pub use physics::VehicleControl;
pub use scenario::Scenario;
pub use violation::{Violation, ViolationKind};
pub use world::World;

/// Simulation frame rate used throughout the AVFI reproduction.
///
/// The paper states: "Our simulation environment is configured to run at 15
/// frames per second; hence, a delay of 30 frames corresponds to an overall
/// delay of a mere 2 s between decision and actuation."
pub const FRAMES_PER_SECOND: u32 = 15;

/// Duration of one simulation step in seconds (`1 / 15`).
pub const FRAME_DT: f64 = 1.0 / FRAMES_PER_SECOND as f64;
