//! `avfi-client` refuses a flag its subcommand does not take, naming both,
//! with exit status 2 before it does any work; `solo` refuses a plan that
//! does not validate with exit status 1 before it runs any of it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avfi-client-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `avfi-client` in `dir` with the space-separated `args`.
fn client(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_avfi-client"))
        .args(args.split(' '))
        .current_dir(dir)
        .output()
        .expect("avfi-client starts")
}

/// `args` must exit 2, reporting that `cmd` does not take each of `flags`.
#[track_caller]
fn assert_refused(dir: &Path, cmd: &str, args: &str, flags: &[&str]) {
    let out = client(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
    for flag in flags {
        let problem = format!("{cmd} does not take {flag}");
        assert!(stderr.contains(&problem), "{args}: {stderr}");
    }
}

#[test]
fn a_flag_the_subcommand_does_not_take_is_refused() {
    let dir = work_dir("refused");
    // Were the flags ignored, demo-plan would write p.json, solo would
    // fail to read it and shutdown would dial the default address: both
    // exit 1, not 2.
    assert_refused(
        &dir,
        "demo-plan",
        "demo-plan --retry 5 --token abc --from 9 --out p.json",
        &["--retry", "--token", "--from"],
    );
    assert!(!dir.join("p.json").exists(), "a refused demo-plan wrote");
    assert_refused(
        &dir,
        "solo",
        "solo --plan p.json --addr nowhere:1",
        &["--addr"],
    );
    assert_refused(&dir, "shutdown", "shutdown --from 3", &["--from"]);
    // The subcommand may stand anywhere among the flags.
    assert_refused(&dir, "traces", "--retry 3 traces --plan 1", &["--retry"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_flag_the_subcommand_takes_is_accepted() {
    let dir = work_dir("accepted");
    let out = client(&dir, "demo-plan --out p.json");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let plan = std::fs::read_to_string(dir.join("p.json")).expect("demo-plan wrote p.json");
    assert!(plan.contains("\"studies\""), "{plan}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn solo_refuses_an_invalid_plan_without_panicking() {
    use avfi_core::campaign::{AgentSpec, CampaignConfig};
    use avfi_core::WorkPlan;
    use std::sync::Arc;

    let dir = work_dir("solo-invalid");
    let scenarios = avfi_server::demo_plan().studies()[0].campaigns[0]
        .scenarios
        .clone();
    let neural = CampaignConfig::builder(scenarios.clone())
        .runs_per_scenario(1)
        .agent(AgentSpec::Neural {
            weights: Arc::new(vec![1, 2, 3]),
        })
        .build();
    let mut routeless = CampaignConfig::builder(scenarios).build();
    routeless.scenarios[1].town.block = 25.0;
    let cases = [
        (
            WorkPlan::single("il", neural),
            "invalid plan: study \"il\" campaign 0: neural weights do not decode",
        ),
        (
            WorkPlan::single("routeless", routeless),
            "invalid plan: study \"routeless\" campaign 0 scenario 1: town grid 2×2 of 25 m \
             blocks has 0 drive lanes longer than 20 m",
        ),
    ];
    for (plan, problem) in cases {
        std::fs::write(dir.join("p.json"), serde_json::to_string(&plan).unwrap()).unwrap();
        let out = client(&dir, "solo --plan p.json --out r.json");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(problem), "{stderr}");
        assert!(!dir.join("r.json").exists(), "a refused solo wrote results");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
