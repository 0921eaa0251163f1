//! Run the full CARLA-style client/server split over a real localhost TCP
//! socket: the server owns the world, the client owns the driving agent,
//! and they exchange observation/control messages in lockstep at 15 FPS
//! (virtual time).
//!
//! ```text
//! cargo run --release --example client_server
//! ```

use avfi::agent::{Agent, DriverInput, ExpertDriver};
use avfi::net::{Message, SimClient, SimServer, TcpTransport};
use avfi::sim::physics::VehicleControl;
use avfi::sim::scenario::{Scenario, TownSpec};
use avfi::sim::world::World;
use std::net::TcpListener;
use std::thread;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::builder(TownSpec::grid(3, 3))
        .seed(7)
        .npc_vehicles(4)
        .pedestrians(4)
        .time_budget(90.0)
        .build();

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    println!("world server listening on {addr}");

    // --- Server thread: owns the world, applies whatever the client sends.
    let server_thread = thread::spawn(move || -> Result<_, avfi::net::NetError> {
        let (stream, peer) = listener.accept().map_err(avfi::net::NetError::Io)?;
        println!("client connected from {peer}");
        let world = World::from_scenario(&scenario);
        let mut server = SimServer::new(world, TcpTransport::new(stream)?);
        let status = server.serve_mission()?;
        let world = server.into_world();
        println!(
            "server: mission {status:?} after {:.1} s, {:.2} km, {} violations",
            world.time(),
            world.odometer() / 1000.0,
            world.monitor().count()
        );
        Ok(status)
    });

    // --- Client: a remote ADA. It has no world access, so the expert
    // cannot be used over the wire; for this demo we close the loop with a
    // trivial camera-blind policy (drive slowly, steer straight), showing
    // the protocol rather than driving skill. Swap in an `Agent::Neural` to
    // drive for real.
    let mut client = SimClient::new(TcpTransport::connect(&addr.to_string())?);
    let mut frames = 0u64;
    while let Some(obs) = client.recv_observation()? {
        let control = VehicleControl::new(0.0, 0.35, 0.0);
        client.send_control(obs.sensors.frame, control)?;
        frames += 1;
        if frames.is_multiple_of(150) {
            println!(
                "client: frame {frames}, speed {:.1} m/s, goal {:.0} m away",
                obs.sensors.speed, obs.truth.goal_distance
            );
        }
    }
    println!("client: server closed the session after {frames} frames");
    let status = server_thread.join().expect("server thread")?;
    // The blind policy eventually drives off-road or times out; the point
    // is that the protocol ran a full lockstep mission over TCP.
    println!("final status: {status:?}");

    // Demonstrate in-process use of the expert for comparison.
    let scenario = Scenario::builder({
        let mut t = TownSpec::grid(3, 3);
        t.signalized = false;
        t
    })
    .seed(7)
    .npc_vehicles(4)
    .pedestrians(4)
    .time_budget(90.0)
    .build();
    let mut world = World::from_scenario(&scenario);
    let mut expert = Agent::Expert(ExpertDriver::new());
    let mut obs = world.observe();
    loop {
        let c = expert.drive(&DriverInput::clean(&obs, &world));
        if world.step(c).is_terminal() {
            break;
        }
        world.observe_into(&mut obs);
    }
    println!(
        "in-process expert on the same seed: {:?}, {} violations",
        world.mission(),
        world.monitor().count()
    );
    let _ = Message::Shutdown; // silence unused-import pedantry in docs
    Ok(())
}
