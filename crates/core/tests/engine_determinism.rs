//! The engine's scheduling must never leak into results: the same seeded
//! multi-study plan must serialize to byte-identical JSON whether it runs
//! on one worker or eight. Seeds are derived from (campaign seed,
//! scenario index, run index), and results are reassembled into flat-plan
//! order, so worker count and steal order are unobservable.

use avfi_agent::IlNetwork;
use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::engine::TraceConfig;
use avfi_core::fault::input::{GpsFault, ImageFault, InputFault};
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::{Engine, WorkPlan};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_trace::TraceLevel;
use std::path::PathBuf;

fn scenarios() -> Vec<Scenario> {
    (0..2u64)
        .map(|i| {
            let mut town = TownSpec::grid(2, 2);
            town.signalized = false;
            Scenario::builder(town)
                .seed(900 + i)
                .npc_vehicles(1)
                .pedestrians(1)
                .time_budget(10.0)
                .min_route_length(40.0)
                .build()
        })
        .collect()
}

fn campaign(fault: FaultSpec) -> CampaignConfig {
    CampaignConfig::builder(scenarios())
        .runs_per_scenario(2)
        .fault(fault)
        .agent(AgentSpec::Expert)
        .build()
}

fn plan() -> WorkPlan {
    WorkPlan::new()
        .with_study(
            "input-faults",
            vec![
                campaign(FaultSpec::None),
                campaign(FaultSpec::Input(InputFault::always(ImageFault::gaussian(
                    0.1,
                )))),
                campaign(FaultSpec::Input(InputFault::scalar_only().with_gps(
                    GpsFault {
                        bias_x: 4.0,
                        bias_y: -3.0,
                        sigma: 1.0,
                    },
                ))),
            ],
        )
        .with_study(
            "output-delay",
            vec![campaign(FaultSpec::Timing(TimingFault::OutputDelay {
                frames: 5,
            }))],
        )
}

#[test]
fn one_worker_and_eight_workers_serialize_identically() {
    let plan = plan();
    assert_eq!(plan.total_campaigns(), 4);
    assert_eq!(plan.total_runs(), 16);

    let serial = Engine::new().workers(1).execute(&plan);
    let stolen = Engine::new().workers(8).execute(&plan);

    let serial_json = serde_json::to_string(&serial).expect("serializable");
    let stolen_json = serde_json::to_string(&stolen).expect("serializable");
    assert_eq!(
        serial_json, stolen_json,
        "worker count must not affect results"
    );

    // Sanity: results are real, not identically empty.
    assert_eq!(serial.len(), 2);
    assert_eq!(serial[0].campaigns.len(), 3);
    assert!(serial.iter().flat_map(|s| &s.campaigns).all(|c| c
        .runs()
        .iter()
        .all(|r| r.duration > 0.0 && r.distance_km.is_finite())));
}

/// With the IL-CNN agent the camera image is load-bearing: every frame is
/// span-rendered, corrupted by the image fault, and consumed by the
/// network, whose outputs steer the ego. Any scheduling sensitivity in the
/// span renderer (per-thread scratch reuse, material-cursor state, fog
/// tables) — or any perturbation from the flight recorder — would change
/// trajectories and therefore the serialized results. This pins the image
/// path end to end: results are byte-identical across worker counts,
/// across trace levels (off / summary / blackbox), and to each campaign
/// run on its own through `Engine::run_campaign`.
#[test]
fn image_fault_campaign_is_invariant_under_workers_and_trace_level() {
    let agent = AgentSpec::neural(&mut IlNetwork::new(41));
    let image_scenarios: Vec<Scenario> = (0..2u64)
        .map(|i| {
            let mut town = TownSpec::grid(2, 2);
            town.signalized = false;
            Scenario::builder(town)
                .seed(310 + i)
                .npc_vehicles(1)
                .pedestrians(1)
                .time_budget(6.0)
                .min_route_length(40.0)
                .build()
        })
        .collect();
    let campaign = |fault: ImageFault| {
        CampaignConfig::builder(image_scenarios.clone())
            .runs_per_scenario(1)
            .fault(FaultSpec::Input(InputFault::always(fault)))
            .agent(agent.clone())
            .build()
    };
    let plan = WorkPlan::new().with_study(
        "image-faults",
        vec![
            campaign(ImageFault::gaussian(0.25)),
            campaign(ImageFault::salt_pepper(0.05)),
            campaign(ImageFault::solid_occlusion(0.4)),
        ],
    );

    let baseline = Engine::new().workers(1).execute(&plan);
    let baseline_json = serde_json::to_string(&baseline).expect("serializable");

    // Worker sweep, untraced.
    let stolen = Engine::new().workers(5).execute(&plan);
    assert_eq!(
        baseline_json,
        serde_json::to_string(&stolen).unwrap(),
        "worker count must not affect an image-fault campaign"
    );

    // Per-campaign path: each campaign run on its own matches its slot.
    let configs = &plan.studies()[0].campaigns;
    for (got, cfg) in baseline[0].campaigns.iter().zip(configs) {
        let alone = Engine::new().workers(2).run_campaign(cfg.clone());
        assert_eq!(
            serde_json::to_string(got).unwrap(),
            serde_json::to_string(&alone).unwrap(),
            "a campaign run on its own must match the flattened plan"
        );
    }

    // Trace-level sweep on a work-stealing engine.
    for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Blackbox] {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("avfi-imgdet-{}-{level:?}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let traced = Engine::new()
            .workers(3)
            .with_trace(TraceConfig {
                dir: dir.clone(),
                level,
                blackbox_seconds: 3.0,
            })
            .execute(&plan);
        assert_eq!(
            baseline_json,
            serde_json::to_string(&traced).unwrap(),
            "trace level {level:?} must not affect an image-fault campaign"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Sanity: the CNN actually drove (nonzero durations, finite odometry).
    assert!(baseline.iter().flat_map(|s| &s.campaigns).all(|c| {
        c.runs()
            .iter()
            .all(|r| r.agent == "il-cnn" && r.duration > 0.0 && r.distance_km.is_finite())
    }));
}
