//! `avfi-client` refuses a flag its subcommand does not take, naming both,
//! with exit status 2 before it does any work.

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
