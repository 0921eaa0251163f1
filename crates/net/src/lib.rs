//! # avfi-net — the sensor–compute–actuate loop
//!
//! CARLA "operates by running two components, the server and the client.
//! The server is responsible for generating the virtual urban environments,
//! and the client functions as an ADA \[autonomous driving agent\]. The
//! server sends sensor data, along with other measurements of the car, to
//! the client; \[the client's\] decisions are then sent from the client to
//! the server, which applies those commands to the AV's actuators."
//!
//! This crate reproduces that loop in lockstep (CARLA synchronous mode) at
//! the world's fixed 15 FPS step (`avfi_sim::FRAME_DT`):
//!
//! * [`message::Message`] — the protocol: observation frames down,
//!   control commands up,
//! * [`codec`] — length-prefixed framing (built on [`bytes`]),
//! * [`transport`] — an in-process channel transport (crossbeam) and a
//!   real localhost TCP transport,
//! * [`server::SimServer`] / [`client::SimClient`] — the two endpoints,
//! * [`proto`] — the campaign-service protocol (`avfi-server` /
//!   `avfi-client`): plan submission, progress streaming, cancellation,
//!   and result retrieval as framed request/reply messages.
//!
//! AVFI's *timing faults* target exactly this seam ("delays in flow of
//! data from one component of the AV system to another"); the fault
//! injectors in `avfi-core` wrap the command and observation streams these
//! types carry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod error;
pub mod message;
pub mod proto;
pub mod server;
pub mod transport;

pub use client::SimClient;
pub use error::NetError;
pub use message::Message;
pub use proto::{PlanId, PlanLifecycle, PlanPhase, ServiceReply, ServiceRequest};
pub use server::SimServer;
pub use transport::{InProcTransport, TcpTransport, Transport};
