//! The world server: owns the simulation and serves the lockstep protocol.

use crate::error::NetError;
use crate::message::Message;
use crate::transport::Transport;
use avfi_sim::world::{MissionStatus, World};

/// Serves a [`World`] over a [`Transport`] in lockstep: each cycle sends an
/// observation, waits for the matching control, and advances one frame.
#[derive(Debug)]
pub struct SimServer<T> {
    world: World,
    transport: T,
}

impl<T: Transport> SimServer<T> {
    /// Creates a server for a world and a transport endpoint.
    pub fn new(world: World, transport: T) -> Self {
        SimServer { world, transport }
    }

    /// Consumes the server, returning the world (for metric extraction).
    pub fn into_world(self) -> World {
        self.world
    }

    /// Runs one protocol cycle: observation out, control in, world step.
    ///
    /// Returns the mission status after the step, or `None` when the client
    /// sent `Shutdown`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; replies other than `Control` or
    /// `Shutdown` are a [`NetError::Protocol`] error.
    pub fn serve_step(&mut self) -> Result<Option<MissionStatus>, NetError> {
        let obs = self.world.observe();
        let frame = obs.sensors.frame;
        self.transport.send(Message::Observation(Box::new(obs)))?;
        match self.transport.recv()? {
            Message::Control {
                frame: ack,
                control,
            } => {
                if ack != frame {
                    return Err(NetError::Protocol(format!(
                        "control for frame {ack}, expected {frame}"
                    )));
                }
                Ok(Some(self.world.step(control)))
            }
            Message::Shutdown => Ok(None),
            other => Err(NetError::Protocol(format!(
                "unexpected {} from client",
                other.kind()
            ))),
        }
    }

    /// Serves until the mission ends or the client shuts down, then sends
    /// `Shutdown`. Returns the final mission status.
    ///
    /// # Errors
    ///
    /// Propagates transport/protocol failures.
    pub fn serve_mission(&mut self) -> Result<MissionStatus, NetError> {
        loop {
            match self.serve_step()? {
                None => return Ok(self.world.mission()),
                Some(status) if status.is_terminal() => {
                    self.transport.send(Message::Shutdown)?;
                    return Ok(status);
                }
                Some(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;
    use avfi_sim::physics::VehicleControl;
    use avfi_sim::scenario::{Scenario, TownSpec};
    use std::thread;

    fn world(budget: f64) -> World {
        let s = Scenario::builder(TownSpec::grid(2, 2))
            .seed(1)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(budget)
            .build();
        World::from_scenario(&s)
    }

    #[test]
    fn lockstep_until_timeout() {
        let (server_end, mut client_end) = InProcTransport::pair();
        let mut server = SimServer::new(world(1.0), server_end);
        let client = thread::spawn(move || {
            let mut frames = 0u64;
            loop {
                match client_end.recv().unwrap() {
                    Message::Observation(obs) => {
                        client_end
                            .send(Message::Control {
                                frame: obs.sensors.frame,
                                control: VehicleControl::new(0.0, 0.3, 0.0),
                            })
                            .unwrap();
                        frames += 1;
                    }
                    Message::Shutdown => return frames,
                    other => panic!("unexpected {}", other.kind()),
                }
            }
        });
        let status = server.serve_mission().unwrap();
        assert_eq!(status, MissionStatus::Timeout);
        let frames = client.join().unwrap();
        assert_eq!(frames, 15); // 1 s at 15 fps
    }

    #[test]
    fn client_shutdown_stops_server() {
        let (server_end, mut client_end) = InProcTransport::pair();
        let mut server = SimServer::new(world(100.0), server_end);
        let client = thread::spawn(move || {
            // Answer two frames, then hang up.
            for _ in 0..2 {
                match client_end.recv().unwrap() {
                    Message::Observation(obs) => client_end
                        .send(Message::Control {
                            frame: obs.sensors.frame,
                            control: VehicleControl::coast(),
                        })
                        .unwrap(),
                    other => panic!("unexpected {}", other.kind()),
                }
            }
            let _ = client_end.recv().unwrap();
            client_end.send(Message::Shutdown).unwrap();
        });
        let status = server.serve_mission().unwrap();
        assert_eq!(status, MissionStatus::Running);
        client.join().unwrap();
        assert_eq!(server.into_world().frame(), 2);
    }

    #[test]
    fn stale_frame_is_protocol_error() {
        let (server_end, mut client_end) = InProcTransport::pair();
        let mut server = SimServer::new(world(100.0), server_end);
        let client = thread::spawn(move || {
            let _ = client_end.recv().unwrap();
            client_end
                .send(Message::Control {
                    frame: 999,
                    control: VehicleControl::coast(),
                })
                .unwrap();
        });
        let err = server.serve_step().unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        client.join().unwrap();
    }
}
