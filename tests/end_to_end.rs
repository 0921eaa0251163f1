//! Cross-crate integration tests: the full AVFI pipeline from world
//! simulation through the client/server loop to campaign metrics.

use avfi::agent::{Agent, DriverInput, ExpertDriver, IlNetwork};
use avfi::fi::campaign::{run_single, AgentSpec, CampaignConfig, RunResult};
use avfi::fi::engine::Engine;
use avfi::fi::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
use avfi::fi::fault::input::{GpsFault, ImageFault, InputFault, LidarFault};
use avfi::fi::fault::ml::MlFault;
use avfi::fi::fault::timing::TimingFault;
use avfi::fi::fault::FaultSpec;
use avfi::fi::harness::AvDriver;
use avfi::fi::localizer::ParamSelector;
use avfi::fi::metrics;
use avfi::fi::Trigger;
use avfi::net::{InProcTransport, SimClient, SimServer, TcpTransport};
use avfi::sim::rng::run_seed;
use avfi::sim::scenario::{Scenario, TownSpec};
use avfi::sim::world::{MissionStatus, World};
use std::net::TcpListener;
use std::thread;

fn unsignalized_scenario(seed: u64, budget: f64) -> Scenario {
    let mut town = TownSpec::grid(3, 3);
    town.signalized = false;
    Scenario::builder(town)
        .seed(seed)
        .npc_vehicles(2)
        .pedestrians(2)
        .time_budget(budget)
        .build()
}

#[test]
fn expert_completes_mission_through_tcp_loop() {
    let scenario = unsignalized_scenario(42, 120.0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // Server owns the world. The client needs world access for the expert
    // (oracle), so we run the expert server-side via a mirrored world on
    // the client thread, stepping it with the same controls — which also
    // verifies cross-thread world determinism.
    let scenario_client = scenario.clone();
    let server = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let world = World::from_scenario(&scenario);
        let mut server = SimServer::new(world, TcpTransport::new(stream).unwrap());
        server.serve_mission().unwrap()
    });

    let mut shadow = World::from_scenario(&scenario_client);
    let mut expert = Agent::Expert(ExpertDriver::new());
    let mut client = SimClient::new(TcpTransport::connect(&addr.to_string()).unwrap());
    while let Some(obs) = client.recv_observation().unwrap() {
        // Shadow world must agree with the server's observation.
        assert_eq!(obs.sensors.frame, shadow.frame());
        let control = expert.drive(&DriverInput::clean(&obs, &shadow));
        client.send_control(obs.sensors.frame, control).unwrap();
        shadow.step(control);
    }
    let status = server.join().unwrap();
    assert!(
        matches!(status, MissionStatus::Success { .. }),
        "expected success, got {status:?}"
    );
    assert_eq!(status, shadow.mission(), "shadow world diverged");
}

/// Runs one mission over the SimServer/SimClient lockstep protocol, whose
/// world observes every sensor, and returns the result `run_single` would
/// report for it at coordinates (0, 0).
fn lockstep_result(template: &Scenario, fault: &FaultSpec, agent: &AgentSpec) -> RunResult {
    let mut derived = template.clone();
    derived.seed = run_seed(template.seed, 0, 0);

    let (server_end, client_end) = InProcTransport::pair();
    let scenario_server = derived.clone();
    let server = thread::spawn(move || {
        let world = World::from_scenario(&scenario_server);
        let mut server = SimServer::new(world, server_end);
        let status = server.serve_mission().unwrap();
        (status, server.into_world())
    });

    // Drivers take a world (the expert is an oracle), so the client mirrors
    // the world and steps it with the same controls (cross-thread
    // determinism keeps them aligned).
    let mut shadow = World::from_scenario(&derived);
    let mut driver = AvDriver::new(agent.build().unwrap(), fault.clone(), derived.seed);
    let mut client = SimClient::new(client_end);
    while let Some(obs) = client.recv_observation().unwrap() {
        let control = driver.drive_frame(&obs, &shadow);
        client.send_control(obs.sensors.frame, control).unwrap();
        shadow.step(control);
    }
    let (status, world) = server.join().unwrap();
    RunResult {
        fault: fault.label(),
        agent: driver.agent_name().to_string(),
        scenario_index: 0,
        run_index: 0,
        seed: derived.seed,
        outcome: status.into(),
        duration: world.time(),
        distance_km: world.odometer() / 1000.0,
        violations: world.monitor().events().to_vec(),
        injection_time: driver.injection_time(),
    }
}

#[test]
fn inproc_lockstep_is_bit_identical_to_run_single() {
    // The same mission executed two ways — in-process by the campaign
    // runner and over the SimServer/SimClient lockstep protocol — must
    // produce bit-identical results, or campaign numbers would depend on
    // the deployment topology. The runner's world renders only the camera
    // rows that can reach the agent and scans no LIDAR, so its LIDAR
    // faults corrupt a blank sweep of the same length; the server's world
    // observes everything, so every case also checks that the skipped
    // rows and sweeps could not have mattered. Water drops read droplet
    // centres anywhere in the image, so their case renders every row.
    // All three LIDAR models run, each drawing per beam or per ghost.
    //
    // Untrained weights: an IL agent that drives at all is enough to tell
    // a blank or shifted frame from the real one. Many untrained seeds
    // never leave the spawn point; seed 18 drives ~400 m in the budget.
    let weights = AgentSpec::neural(&mut IlNetwork::new(18));
    let camera = |model| FaultSpec::Input(InputFault::always(model));
    let expert_faults = [
        FaultSpec::None,
        FaultSpec::Timing(TimingFault::OutputDelay { frames: 10 }),
        camera(ImageFault::salt_pepper(0.02)),
        FaultSpec::Input(InputFault {
            trigger: Trigger::Bernoulli { p: 0.3 },
            ..InputFault::scalar_only().with_lidar(LidarFault::Ghost {
                count: 3,
                range: 2.0,
            })
        }),
        FaultSpec::Input(
            InputFault::scalar_only().with_lidar(LidarFault::RangeNoise { sigma: 0.5 }),
        ),
        FaultSpec::Hardware(HardwareFault::transient(
            HardwareTarget::SensorGpsX,
            60,
            0.2,
        )),
        FaultSpec::Hardware(HardwareFault {
            trigger: Trigger::Window { start: 30, end: 45 },
            ..HardwareFault::always(
                HardwareTarget::ControlBrake,
                BitFaultModel::StuckAt { value: 1.0 },
            )
        }),
    ];
    let neural_faults = [
        FaultSpec::None,
        camera(ImageFault::gaussian(0.08)),
        FaultSpec::Input(InputFault::scalar_only().with_gps(GpsFault {
            bias_x: 5.0,
            bias_y: -3.0,
            sigma: 1.0,
        })),
        FaultSpec::Input(
            InputFault::always(ImageFault::salt_pepper(0.02))
                .with_lidar(LidarFault::BeamDropout { p: 0.2 }),
        ),
        FaultSpec::Input(InputFault {
            trigger: Trigger::Window {
                start: 20,
                end: 200,
            },
            ..InputFault::scalar_only().with_lidar(LidarFault::Ghost {
                count: 5,
                range: 1.5,
            })
        }),
        FaultSpec::Ml(MlFault::WeightNoise {
            sigma: 0.05,
            fraction: 0.5,
            selector: ParamSelector::All,
        }),
        camera(ImageFault::water_drop(4, 0.08)),
        camera(ImageFault::solid_occlusion(0.30)),
        camera(ImageFault::transparent_occlusion(0.6, 0.5)),
    ];
    let cases = expert_faults
        .into_iter()
        .map(|fault| (AgentSpec::Expert, fault))
        .chain(neural_faults.into_iter().map(|f| (weights.clone(), f)));
    for (agent, fault) in cases {
        for horizon in [1, 8] {
            let mut town = TownSpec::grid(3, 3);
            town.signalized = false;
            let template = Scenario::builder(town)
                .seed(11)
                .npc_vehicles(6)
                .pedestrians(6)
                .decision_horizon(horizon)
                .time_budget(24.0)
                .build();
            let direct = run_single(&template, 0, 0, &fault, &agent);
            assert_eq!(
                lockstep_result(&template, &fault, &agent),
                direct,
                "{} under {fault:?} at horizon {horizon}",
                direct.agent
            );
        }
    }
}

#[test]
fn campaign_metrics_pipeline() {
    let config = CampaignConfig::builder(vec![unsignalized_scenario(7, 60.0)])
        .runs_per_scenario(3)
        .agent(AgentSpec::Expert)
        .build();
    let result = Engine::new().run_campaign(config);
    assert_eq!(result.runs().len(), 3);
    let msr = metrics::mission_success_rate(result.runs());
    assert!((0.0..=100.0).contains(&msr));
    // The expert on light traffic should mostly succeed and drive clean.
    assert!(msr >= 66.0, "expert MSR={msr}");
    for run in result.runs() {
        assert!(run.distance_km > 0.0);
        assert!(run.duration > 0.0);
        assert!(metrics::violations_per_km(run) >= 0.0);
    }
}

#[test]
fn output_delay_degrades_expert() {
    // Figure 4's mechanism end-to-end: the same campaign with a 30-frame
    // (2 s) output delay must produce more violations per km than the
    // fault-free baseline, and a worse or equal MSR.
    let scenarios = vec![
        unsignalized_scenario(21, 90.0),
        unsignalized_scenario(22, 90.0),
    ];
    let run = |fault: FaultSpec| {
        let config = CampaignConfig::builder(scenarios.clone())
            .runs_per_scenario(2)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build();
        Engine::new().run_campaign(config)
    };
    let clean = run(FaultSpec::None);
    let delayed = run(FaultSpec::Timing(TimingFault::OutputDelay { frames: 30 }));
    let clean_vpk = metrics::aggregate_vpk(clean.runs());
    let delayed_vpk = metrics::aggregate_vpk(delayed.runs());
    assert!(
        delayed_vpk > clean_vpk,
        "delay should hurt: clean={clean_vpk}, delayed={delayed_vpk}"
    );
    assert!(
        metrics::mission_success_rate(delayed.runs())
            <= metrics::mission_success_rate(clean.runs())
    );
}

#[test]
fn violations_recorded_with_positions_inside_world_bounds() {
    // Drive badly on purpose and validate the violation records.
    let scenario = unsignalized_scenario(33, 30.0);
    let mut world = World::from_scenario(&scenario);
    loop {
        let control = avfi::sim::physics::VehicleControl::new(0.35, 1.0, 0.0);
        if world.step(control).is_terminal() {
            break;
        }
    }
    let events = world.monitor().events();
    assert!(!events.is_empty(), "wild driving must violate something");
    let bounds = world.map().bounds();
    for e in events {
        assert!(
            bounds.contains(e.position),
            "violation outside world: {e:?}"
        );
        assert!(e.time >= 0.0 && e.time <= world.time());
        assert!(e.odometer <= world.odometer() + 1e-6);
    }
}
