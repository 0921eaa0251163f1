//! The repository benchmark. Usage (normally through `run.py`, which
//! builds this package first):
//!
//! ```text
//! avfi-perfbench --workload <il_camera_faults|expert_dense_delay>
//!                --seed <n> --seconds <s> --trace <0|1> [--prepare | --setup-only]
//! avfi-perfbench --bless-digests
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics, measured with
//! no benchmark timers inside the mission loop; with `--trace 1` it
//! prints the per-layer metrics of a separate traced run. Either way it
//! checks every output, prints one provenance record per metric, and
//! ends with the result line `{"correct", "attempted", "failed",
//! "metrics"}`; it exits 1 when any output was wrong and 2 (without a
//! result line) when it could not run at all.
//!
//! `setup_s` is timed over fresh processes: a `--trace 0` run starts
//! itself `SETUP_REPS` times with `--setup-only`, spread over the run, and
//! each child sets the workload up, prints `ready` and tears down again.
//! `--prepare` (which `run.py` runs before the measured process) trains
//! and caches the IL-CNN weights if no earlier run did, so neither
//! `setup_s` nor `peak_rss_mb` ever includes training.
//!
//! `--bless-digests` recomputes `digests.txt`, the stored result digests
//! of the two study pools, from the current program.

mod mission;
mod plans;
mod report;
mod served;
mod stats;
mod study;

use report::{Metric, Outcome, Provenance};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use study::Kind;

/// Set-up processes started per run (the median is reported as
/// `setup_s`).
const SETUP_REPS: usize = 41;

const WORKLOADS: [&str; 2] = ["il_camera_faults", "expert_dense_delay"];

/// What one invocation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Run the workload and report its metrics.
    Measure,
    /// Train and cache the IL-CNN weights if the workload needs them and
    /// no earlier run cached them.
    Prepare,
    /// Set the workload up, print `ready`, tear down: one `setup_s`
    /// sample, timed by the parent.
    SetupOnly,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    mode: Mode,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut mode = Mode::Measure;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--bless-digests" => return Ok(None),
            "--prepare" => {
                mode = Mode::Prepare;
                continue;
            }
            "--setup-only" => {
                mode = Mode::SetupOnly;
                continue;
            }
            _ => {}
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        mode,
    }))
}

/// Engine workers and client connections: one per core, at most 8.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where `avfi_bench::experiments::trained_weights` caches the IL-CNN.
fn weights_path() -> PathBuf {
    manifest_dir().join("../target/avfi-il-weights.bin")
}

fn digests_path() -> PathBuf {
    manifest_dir().join("digests.txt")
}

/// Scratch space inside the build directory of the checkout.
fn tmp_dir(workload: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| manifest_dir().join("../.bench_build"), PathBuf::from);
    base.join("perfbench-tmp")
        .join(format!("{workload}-{}", std::process::id()))
}

/// The study a (valid) workload name runs.
fn study_kind(workload: &str) -> Kind {
    if workload == "il_camera_faults" {
        Kind::IlCameraFaults
    } else {
        Kind::ExpertDenseDelay
    }
}

/// Reads the stored digests of `kind`'s pool, in pool order.
fn stored_digests(kind: Kind) -> Result<Vec<u64>, String> {
    let path = digests_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut digests = vec![None; plans::POOL];
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, index, hex] = fields[..] else {
            return Err(format!("{}: bad line {line:?}", path.display()));
        };
        if name != kind.name() {
            continue;
        }
        let index: usize = index.parse().map_err(|e| format!("{line:?}: {e}"))?;
        let digest = u64::from_str_radix(hex, 16).map_err(|e| format!("{line:?}: {e}"))?;
        if let Some(slot) = digests.get_mut(index) {
            *slot = Some(digest);
        }
    }
    digests
        .into_iter()
        .enumerate()
        .map(|(i, d)| d.ok_or(format!("no stored digest for {} plan {i}", kind.name())))
        .collect()
}

fn bless_digests() -> Result<(), String> {
    let weights = avfi_bench::experiments::trained_weights();
    let engine = avfi_core::engine::Engine::new().workers(workers());
    let mut out = String::from(
        "# FNV-1a-64 digests of the StudyResult JSON of every pool plan of the\n\
         # study workloads (see src/plans.rs); regenerate with --bless-digests.\n",
    );
    for kind in [Kind::IlCameraFaults, Kind::ExpertDenseDelay] {
        for g in 0..plans::POOL {
            let plan = kind.plan(g, Some(&weights));
            let digest = plans::digest(&plans::results_json(&engine.execute(&plan)));
            out.push_str(&format!("{} {g} {digest:016x}\n", kind.name()));
            eprintln!("[perfbench] {} plan {g}: {digest:016x}", kind.name());
        }
    }
    std::fs::write(digests_path(), out).map_err(|e| e.to_string())
}

/// The program's set-up for one run (see `study::setup`).
fn setup(args: &Args) -> Result<study::Study, String> {
    let kind = study_kind(&args.workload);
    study::setup(
        kind,
        args.seed,
        workers(),
        &weights_path(),
        stored_digests(kind)?,
        &tmp_dir(&args.workload),
    )
    .map_err(|e| format!("set-up: {e}"))
}

/// Times set-up over fresh processes: each sample starts a
/// `--setup-only` child and times it from just before its spawn until it
/// reports `ready` — the whole set-up a user's process pays before its
/// first run, process start included. The workload loops take the
/// samples a few at a time between their units of work, so that, like the
/// throughput figures, `setup_s` spans the whole run rather than one
/// moment of it.
struct SetupTimer {
    exe: PathBuf,
    args: Vec<String>,
    samples: Vec<f64>,
    error: Option<String>,
}

impl SetupTimer {
    fn new() -> SetupTimer {
        let (exe, error) = match std::env::current_exe() {
            Ok(exe) => (exe, None),
            Err(e) => (PathBuf::new(), Some(format!("current_exe: {e}"))),
        };
        SetupTimer {
            exe,
            args: std::env::args().skip(1).collect(),
            samples: Vec::with_capacity(SETUP_REPS),
            error,
        }
    }

    /// Takes samples until there are `SETUP_REPS × progress` of them (at
    /// least one), `progress` being the share of the run done so far.
    fn sample_to(&mut self, progress: f64) {
        let target = ((SETUP_REPS as f64 * progress.clamp(0.0, 1.0)).round() as usize).max(1);
        while self.error.is_none() && self.samples.len() < target {
            match self.sample() {
                Ok(s) => self.samples.push(s),
                Err(e) => self.error = Some(e),
            }
        }
    }

    fn sample(&self) -> Result<f64, String> {
        let start = Instant::now();
        let mut child = Command::new(&self.exe)
            .args(&self.args)
            .arg("--setup-only")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("set-up child: {e}"))?;
        let mut line = String::new();
        let read = match child.stdout.take() {
            Some(out) => BufReader::new(out).read_line(&mut line),
            None => Ok(0),
        };
        let elapsed = start.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("set-up child: {e}"))?;
        if read.is_err() || line.trim_end() != "ready" || !status.success() {
            return Err(format!("set-up child failed ({status})"));
        }
        Ok(elapsed)
    }

    fn finish(mut self) -> Result<Vec<f64>, String> {
        self.sample_to(1.0);
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.samples),
        }
    }
}

/// The `--setup-only` child.
fn setup_only(args: &Args) -> Result<(), String> {
    let study = setup(args)?;
    let mut out = std::io::stdout();
    let ready = writeln!(out, "ready").and_then(|()| out.flush());
    drop(study);
    let _ = std::fs::remove_dir_all(tmp_dir(&args.workload));
    ready.map_err(|e| e.to_string())
}

fn run(args: &Args) -> Result<bool, String> {
    let study = setup(args)?;
    let mut timer = SetupTimer::new();
    // The traced run reports no `setup_s`.
    let mut between = |progress: f64| {
        if !args.trace {
            timer.sample_to(progress);
        }
    };
    let seconds = args.seconds as f64;
    let mut outcome = Outcome::default();
    let result = if args.trace {
        study.traced(seconds, &mut outcome)
    } else {
        Ok(study.run(seconds, &mut outcome, &mut between))
    };
    drop(study);
    let _ = std::fs::remove_dir_all(tmp_dir(&args.workload));
    let (mut metrics, reps) = result?;
    if !args.trace {
        metrics.insert(0, Metric::median("setup_s", "s", &timer.finish()?));
        metrics.push(Metric::value(
            "peak_rss_mb",
            "MiB",
            report::peak_rss_mib(),
            1,
        ));
    }
    let prov = Provenance {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        reps,
    };
    Ok(report::emit(&prov, &metrics, outcome))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match bless_digests() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("[perfbench] {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode {
        Mode::Prepare => {
            if study_kind(&args.workload) == Kind::IlCameraFaults {
                avfi_bench::experiments::trained_weights();
            }
            Ok(true)
        }
        Mode::SetupOnly => setup_only(&args).map(|()| true),
        Mode::Measure => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("[perfbench] {}: {e}", args.workload);
            let _ = std::fs::remove_dir_all(tmp_dir(&args.workload));
            ExitCode::from(2)
        }
    }
}
