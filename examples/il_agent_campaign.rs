//! Train the conditional imitation-learning agent by imitating the expert
//! autopilot, then run a small fault-injection campaign against it — the
//! end-to-end AVFI workflow of Figure 1.
//!
//! ```text
//! cargo run --release --example il_agent_campaign
//! ```

use avfi::agent::train::train_default_agent;
use avfi::fi::campaign::{AgentSpec, CampaignConfig};
use avfi::fi::engine::Engine;
use avfi::fi::fault::input::{ImageFault, InputFault};
use avfi::fi::fault::FaultSpec;
use avfi::fi::{metrics, report, stats};
use avfi::sim::scenario::{Scenario, TownSpec};

fn main() {
    // 1. Train the ADA in-process: collect expert demonstrations with
    //    exploration noise, fit the command-conditional CNN (~15 s).
    println!("training the IL-CNN by imitating the expert autopilot...");
    let (mut net, losses) = train_default_agent(42);
    println!("  per-epoch imitation loss: {losses:?}");
    let agent = AgentSpec::neural(&mut net);

    // 2. Evaluation scenarios (unseen seeds).
    let scenarios: Vec<Scenario> = [901u64, 902]
        .iter()
        .map(|&seed| {
            let mut town = TownSpec::grid(3, 3);
            town.signalized = false;
            Scenario::builder(town)
                .seed(seed)
                .npc_vehicles(2)
                .pedestrians(2)
                .time_budget(120.0)
                .build()
        })
        .collect();

    // 3. One campaign per injector: fault-free baseline vs camera Gaussian
    //    noise vs a solid occlusion patch.
    let specs = [
        FaultSpec::None,
        FaultSpec::Input(InputFault::always(ImageFault::gaussian(0.08))),
        FaultSpec::Input(InputFault::always(ImageFault::solid_occlusion(0.3))),
    ];
    let mut table = report::Table::new(vec!["fault", "MSR (%)", "mean VPK", "mean APK"]);
    for spec in specs {
        let config = CampaignConfig::builder(scenarios.clone())
            .runs_per_scenario(3)
            .fault(spec)
            .agent(agent.clone())
            .build();
        let result = Engine::new().run_campaign(config);
        let vpk = stats::Summary::of(&metrics::vpk_distribution(result.runs()));
        let apk = stats::Summary::of(&metrics::apk_distribution(result.runs()));
        table.row(vec![
            result.fault.clone(),
            format!("{:.1}", metrics::mission_success_rate(result.runs())),
            format!("{:.2}", vpk.mean),
            format!("{:.2}", apk.mean),
        ]);
    }
    println!("\n{}", table.render());
}
