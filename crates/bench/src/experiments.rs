//! Shared experiment machinery: evaluation scenarios, cached agent
//! training, and the campaign studies behind each figure.
//!
//! A study is a sweep of fault specs against the IL agent: [`run_study`]
//! expands it into one campaign per fault over the evaluation suite and
//! executes them through the deterministic work-stealing [`Engine`] —
//! every (fault × scenario × repetition) tuple flows through one
//! flattened work queue, so no cores idle between campaigns and results
//! are bit-identical for any `--workers` count.

use avfi_agent::train::train_default_agent;
use avfi_core::adaptive::{
    run_adaptive, AdaptiveConfig, AdaptiveOutcome, AdaptiveSpace, AdaptiveTrajectory,
};
use avfi_core::campaign::{AgentSpec, CampaignConfig, CampaignResult};
use avfi_core::engine::{Engine, StderrProgress, StudyResult, TraceConfig, WorkPlan};
use avfi_core::fault::input::{ImageFault, InputFault};
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::shrink::{shrink_trace, ShrinkConfig};
use avfi_core::{metrics, report, stats};
use avfi_server::cli::Args;
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_sim::weather::Weather;
use avfi_trace::{list_trace_files, read_trace_file, RunTrace, TraceLevel};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Experiment scale: `quick` for smoke tests (`--quick`), `full` for the
/// figure reproductions in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Number of evaluation scenarios.
    pub scenarios: usize,
    /// Missions per scenario per injector.
    pub runs: usize,
    /// Mission time budget, seconds.
    pub budget: f64,
}

impl Scale {
    /// Small scale for CI and the smoke goldens.
    pub fn quick() -> Scale {
        Scale {
            scenarios: 2,
            runs: 2,
            budget: 90.0,
        }
    }

    /// Paper-scale campaigns.
    pub fn full() -> Scale {
        Scale {
            scenarios: 4,
            runs: 5,
            budget: 150.0,
        }
    }

    /// Reads `--quick` ([`Scale::quick`]; [`Scale::full`] without it).
    pub fn parse(args: &mut Args) -> Scale {
        if args.flag("--quick") {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

/// Engine execution options shared by every experiment binary:
/// `--workers N` (0 = one per core), `--progress` (stream engine events
/// to stderr), the flight recorder (`--trace DIR` plus
/// `--trace-level off|summary|blackbox`), and durable
/// checkpointing (`--spool DIR`: journal every completed run so an
/// interrupted invocation resumes where it stopped, byte-identically).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecOptions {
    /// Engine worker threads (0 = one per available core).
    pub workers: usize,
    /// Stream progress events to stderr.
    pub progress: bool,
    /// Flight-recorder trace directory (`None` disables tracing).
    pub trace: Option<PathBuf>,
    /// Flight-recorder detail level (meaningful only with `trace`).
    pub trace_level: TraceLevel,
    /// Checkpoint directory: write-ahead journal every completed run
    /// (`avfi-store`), resuming any earlier interrupted invocation of
    /// the same plan found there (`None` disables).
    pub spool: Option<PathBuf>,
}

impl ExecOptions {
    /// Reads `--workers N`, `--progress`, `--trace DIR`,
    /// `--trace-level LEVEL`, and `--spool DIR`. `--trace`
    /// without a level records at [`TraceLevel::Blackbox`].
    pub fn parse(args: &mut Args) -> ExecOptions {
        let workers = args.value("--workers").unwrap_or(0);
        let progress = args.flag("--progress");
        let trace: Option<PathBuf> = args.value("--trace");
        let trace_level = args.value("--trace-level").unwrap_or(match trace {
            Some(_) => TraceLevel::Blackbox,
            None => TraceLevel::Off,
        });
        ExecOptions {
            workers,
            progress,
            trace,
            trace_level,
            spool: args.value("--spool"),
        }
    }

    /// Executes a work plan through the engine with these options. With
    /// `--spool DIR` the run is checkpointed through
    /// [`avfi_store::run_spooled`]: every completed run is journaled, a
    /// journal left by an interrupted earlier invocation is resumed
    /// (only the gap re-executes), and the results are byte-identical
    /// either way.
    pub fn execute(&self, plan: &WorkPlan) -> Vec<StudyResult> {
        let mut engine = Engine::new().workers(self.workers);
        if let Some(dir) = &self.trace {
            engine = engine.with_trace(TraceConfig::new(dir, self.trace_level));
        }
        let progress = StderrProgress::default();
        let sink: &dyn avfi_core::ProgressSink = if self.progress {
            &progress
        } else {
            &avfi_core::engine::NullSink
        };
        match &self.spool {
            Some(spool) => avfi_store::run_spooled(&engine, plan, spool, self.trace_level, sink)
                .unwrap_or_else(|e| {
                    panic!("--spool {}: {e}", spool.display());
                }),
            None => engine.execute_with(plan, sink),
        }
    }
}

/// Reads the flags of a plain study binary, `--quick` and the
/// [`ExecOptions`], refusing any other argument.
pub fn study_args() -> (Scale, ExecOptions) {
    let mut args = Args::from_env();
    let scale = Scale::parse(&mut args);
    let opts = ExecOptions::parse(&mut args);
    args.finish();
    (scale, opts)
}

/// Runs one study through the engine: one campaign per fault spec over
/// the evaluation suite at `scale`, all with the IL agent
/// ([`neural_agent`]), returned in fault-spec order.
pub fn run_study(
    name: &'static str,
    faults: Vec<FaultSpec>,
    scale: Scale,
    opts: &ExecOptions,
) -> Vec<CampaignResult> {
    let agent = neural_agent();
    let campaigns = faults
        .into_iter()
        .map(|fault| {
            CampaignConfig::builder(evaluation_suite(scale))
                .runs_per_scenario(scale.runs)
                .fault(fault)
                .agent(agent.clone())
                .build()
        })
        .collect();
    opts.execute(&WorkPlan::new().with_study(name, campaigns))
        .pop()
        .expect("plan has one study")
        .campaigns
}

/// Flat-plan index encoded in a trace file name (`run-000042.avtr` →
/// `42`), used to pair each minimal repro with its source trace.
pub use avfi_trace::trace_file_index as trace_flat_index;

/// Expands trace arguments into trace files: a directory contributes
/// its `.avtr` files in flat-index order, a file itself. Errors when a
/// directory cannot be listed or no file is found.
pub fn trace_files(inputs: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for input in inputs {
        if input.is_dir() {
            let found = list_trace_files(input)
                .map_err(|e| format!("cannot list {}: {e}", input.display()))?;
            files.extend(found);
        } else {
            files.push(input.clone());
        }
    }
    if files.is_empty() {
        return Err("no .avtr files found".to_string());
    }
    Ok(files)
}

/// Reads the serialized IL-CNN weights file `--weights` names, refusing
/// the argument when the file cannot be read.
pub fn read_weights(args: &mut Args) -> Option<Arc<Vec<u8>>> {
    let path: PathBuf = args.value("--weights")?;
    std::fs::read(&path)
        .map_err(|e| args.refuse(format!("--weights {}: {e}", path.display())))
        .map(Arc::new)
        .ok()
}

/// The weights a trace replays with: `explicit` (from `--weights`),
/// else the cached deterministic training run for a neural trace, and
/// `None` for an expert trace. The header's fingerprint check catches a
/// mismatch either way.
pub fn trace_weights(trace: &RunTrace, explicit: Option<&Arc<Vec<u8>>>) -> Option<Arc<Vec<u8>>> {
    (trace.header.agent == "il-cnn").then(|| explicit.cloned().unwrap_or_else(trained_weights))
}

/// Shrinks every failed trace in `files` into a minimal, replay-verified
/// repro under `out_dir`: `minimal-{i:06}.json` (the repro) and
/// `shrink-{i:06}.json` (the full candidate log), where `i` is the
/// source trace's flat-plan index. Neural traces replay with
/// [`trace_weights`]. Returns `(minimized, skipped)`; skipped covers
/// unreadable traces, successful runs, and baseline mismatches (each
/// reported to stderr).
pub fn shrink_traces(
    files: &[PathBuf],
    out_dir: &Path,
    workers: usize,
    config: &ShrinkConfig,
    explicit_weights: Option<&Arc<Vec<u8>>>,
) -> (usize, usize) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("[shrink] cannot create {}: {e}", out_dir.display());
        return (0, files.len());
    }
    let engine = Engine::new().workers(workers);
    let (mut minimized, mut skipped) = (0usize, 0usize);
    for (position, path) in files.iter().enumerate() {
        let trace = match read_trace_file(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("[shrink] {e}");
                skipped += 1;
                continue;
            }
        };
        let weights = trace_weights(&trace, explicit_weights);
        // The repro embeds the bare file name, not the path: golden
        // diffs must not depend on where the smoke dir landed.
        let source = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let outcome = match shrink_trace(
            &engine,
            &source,
            &trace,
            weights.as_deref().map(Vec::as_slice),
            config,
        ) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("[shrink] {source}: {e}");
                skipped += 1;
                continue;
            }
        };
        let index = trace_flat_index(path).unwrap_or(position);
        let repro_path = out_dir.join(format!("minimal-{index:06}.json"));
        let log_path = out_dir.join(format!("shrink-{index:06}.json"));
        let repro_json = serde_json::to_string_pretty(&outcome.repro).expect("repro serializes");
        let log_json = serde_json::to_string_pretty(&outcome.log).expect("log serializes");
        if let Err(e) = std::fs::write(&repro_path, repro_json) {
            eprintln!("[shrink] cannot write {}: {e}", repro_path.display());
            skipped += 1;
            continue;
        }
        if let Err(e) = std::fs::write(&log_path, log_json) {
            eprintln!("[shrink] cannot write {}: {e}", log_path.display());
        }
        eprintln!(
            "[shrink] {source}: {} reduction(s) in {} iteration(s), {} runs → {}",
            outcome.repro.reductions.len(),
            outcome.repro.iterations,
            outcome.repro.runs_spent,
            repro_path.display()
        );
        minimized += 1;
    }
    (minimized, skipped)
}

/// The adaptive search space at `scale`: the evaluation suite crossed
/// with the paper channel set (the five Figure 2/3 camera models, GPS /
/// speed / LIDAR data faults, stuck-at hardware faults, output delay),
/// three log-spaced magnitude bands up to paper severity, and two
/// injection onsets (mission start and frame 150 — the `ext_b` 10 s
/// onset). Most of the lattice is benign by construction — the paper's
/// observation that uniform sweeps waste budget on non-activating
/// injections is the premise the planner exploits.
pub fn adaptive_space(scale: Scale) -> AdaptiveSpace {
    AdaptiveSpace {
        scenarios: evaluation_suite(scale),
        channels: AdaptiveSpace::paper_channels(),
        magnitudes: vec![0.1, 0.3, 1.0],
        onsets: vec![0, 150],
    }
}

/// Default adaptive budget/batch at `scale` (seed matches the campaign
/// convention; override per flag).
pub fn adaptive_defaults(scale: Scale) -> AdaptiveConfig {
    if scale == Scale::quick() {
        AdaptiveConfig {
            budget: 32,
            batch: 8,
            seed: 2018,
        }
    } else {
        AdaptiveConfig {
            budget: 240,
            batch: 12,
            seed: 2018,
        }
    }
}

/// Runs one adaptive search over `space` with the cached neural agent
/// on `workers` engine threads (0 = one per core). The planner captures
/// its own failure traces, so the engine recorder stays off.
pub fn run_adaptive_study(
    space: &AdaptiveSpace,
    config: AdaptiveConfig,
    workers: usize,
) -> AdaptiveOutcome {
    let engine = Engine::new().workers(workers);
    run_adaptive(&engine, space, config, &neural_agent(), "adaptive")
}

/// Renders the failures-found table of an adaptive search: every pulled
/// arm ranked by posterior mean failure probability.
pub fn render_adaptive(trajectory: &AdaptiveTrajectory) -> String {
    let mut table = report::Table::new(vec![
        "Arm", "Scenario", "Channel", "Mag", "Onset", "Pulls", "Fail", "P(fail)", "",
    ]);
    for summary in &trajectory.report.top_arms {
        let arm = &trajectory.arms[summary.arm];
        table.row(vec![
            format!("#{}", arm.index),
            format!("s{}", arm.scenario_index),
            arm.channel.clone(),
            format!("{:.2}", arm.magnitude),
            format!("{}f", arm.onset),
            summary.pulls.to_string(),
            summary.failures.to_string(),
            format!("{:.2}", summary.mean),
            report::bar(summary.mean * 100.0, 100.0, 20),
        ]);
    }
    let r = &trajectory.report;
    format!(
        "Adaptive search — {} failures in {} runs ({:.2} failures/run, budget {})\n\n{}",
        r.failures,
        r.spent,
        r.failures_per_run,
        r.budget,
        table.render()
    )
}

/// The evaluation scenario suite: unsignalized grid towns with light
/// traffic.
///
/// Unsignalized because the conditional imitation agent of Codevilla et
/// al. does not obey traffic lights (CARLA's CoRL benchmark excluded
/// red-light infractions for the same reason); with signals on, the
/// NoInject baseline would be dominated by red-light violations instead of
/// fault effects. See DESIGN.md.
pub fn evaluation_suite(scale: Scale) -> Vec<Scenario> {
    let seeds = [211u64, 223, 237, 251, 263, 277];
    let weathers = [
        Weather::ClearNoon,
        Weather::ClearNoon,
        Weather::Overcast,
        Weather::ClearNoon,
        Weather::Overcast,
        Weather::ClearNoon,
    ];
    (0..scale.scenarios.min(seeds.len()))
        .map(|i| {
            let mut town = TownSpec::grid(3, 3);
            town.signalized = false;
            Scenario::builder(town)
                .seed(seeds[i])
                .npc_vehicles(2)
                .pedestrians(2)
                .pedestrian_cross_rate(0.008)
                .weather(weathers[i])
                .time_budget(scale.budget)
                .min_route_length(150.0)
                .build()
        })
        .collect()
}

/// Trains (or loads from the on-disk cache) the default IL agent weights.
///
/// Training is deterministic (seed 42) and takes ~10 s in release mode;
/// the result is cached in `target/avfi-il-weights.bin` and in-process.
pub fn trained_weights() -> Arc<Vec<u8>> {
    static WEIGHTS: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    WEIGHTS
        .get_or_init(|| {
            let path = weights_cache_path();
            if let Ok(bytes) = std::fs::read(&path) {
                if avfi_agent::IlNetwork::from_weights(&bytes).is_ok() {
                    return Arc::new(bytes);
                }
            }
            eprintln!(
                "[avfi-bench] training IL agent (cached at {})",
                path.display()
            );
            let (mut net, losses) = train_default_agent(42);
            eprintln!("[avfi-bench] imitation losses per epoch: {losses:?}");
            let bytes = net.to_weights();
            let _ = std::fs::create_dir_all(path.parent().expect("cache dir"));
            let _ = std::fs::write(&path, &bytes);
            Arc::new(bytes)
        })
        .clone()
}

fn weights_cache_path() -> PathBuf {
    // crates/bench/../../target/avfi-il-weights.bin
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("avfi-il-weights.bin")
}

/// The neural agent spec backed by the cached weights.
pub fn neural_agent() -> AgentSpec {
    AgentSpec::Neural {
        weights: trained_weights(),
    }
}

/// The six input-injector configurations of Figures 2 and 3, in paper
/// order.
pub fn input_fault_specs() -> Vec<FaultSpec> {
    let mut specs = vec![FaultSpec::None];
    specs.extend(
        ImageFault::paper_suite()
            .into_iter()
            .map(|m| FaultSpec::Input(InputFault::always(m))),
    );
    specs
}

/// The output-delay sweep of Figure 4, in frames (15 FPS ⇒ 30 frames =
/// 2 s).
pub const FIG4_DELAYS: [usize; 5] = [0, 5, 10, 20, 30];

/// The Figure 4 fault specs, one per delay (0 frames ⇒ fault-free).
pub fn output_delay_specs() -> Vec<FaultSpec> {
    FIG4_DELAYS
        .iter()
        .map(|&frames| {
            if frames == 0 {
                FaultSpec::None
            } else {
                FaultSpec::Timing(TimingFault::OutputDelay { frames })
            }
        })
        .collect()
}

/// Renders the Figure 2 table (mission success rate per injector).
pub fn render_fig2(results: &[CampaignResult]) -> String {
    let mut table = report::Table::new(vec!["Input Fault Injector", "Runs", "MSR (%)", ""]);
    for r in results {
        let msr = metrics::mission_success_rate(r.runs());
        table.row(vec![
            r.fault.clone(),
            r.runs().len().to_string(),
            format!("{msr:.1}"),
            report::bar(msr, 100.0, 25),
        ]);
    }
    format!(
        "Figure 2 — Mission success rate under input fault injectors\n\n{}",
        table.render()
    )
}

/// Renders the Figure 3 table (violations-per-km distribution per
/// injector, with a text box plot).
pub fn render_fig3(results: &[CampaignResult]) -> String {
    let dists: Vec<Vec<f64>> = results
        .iter()
        .map(|r| metrics::vpk_distribution(r.runs()))
        .collect();
    let axis_hi = dists
        .iter()
        .flatten()
        .cloned()
        .fold(1.0f64, f64::max)
        .ceil();
    let mut table = report::Table::new(vec![
        "Input Fault Injector",
        "median",
        "IQR",
        "mean",
        "max",
        &format!("VPK distribution [0, {axis_hi:.0}]"),
    ]);
    for (r, d) in results.iter().zip(&dists) {
        let s = stats::Summary::of(d);
        table.row(vec![
            r.fault.clone(),
            format!("{:.2}", s.median),
            format!("{:.2}", s.iqr()),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.max),
            report::box_plot_row(&s, 0.0, axis_hi, 36),
        ]);
    }
    format!(
        "Figure 3 — Total violations per km under input fault injectors\n\n{}",
        table.render()
    )
}

/// Renders the Extension A table (accidents per km per injector: the
/// §II APK metric over the Figure 2/3 campaigns).
pub fn render_apk(results: &[CampaignResult]) -> String {
    let mut table = report::Table::new(vec![
        "Input Fault Injector",
        "aggregate APK",
        "median APK",
        "max APK",
        "collisions",
    ]);
    for r in results {
        let s = stats::Summary::of(&metrics::apk_distribution(r.runs()));
        let collisions = r
            .runs()
            .iter()
            .flat_map(|run| &run.violations)
            .filter(|v| v.kind.is_accident())
            .count();
        table.row(vec![
            r.fault.clone(),
            format!("{:.2}", metrics::aggregate_apk(r.runs())),
            format!("{:.2}", s.median),
            format!("{:.2}", s.max),
            collisions.to_string(),
        ]);
    }
    format!(
        "Extension A — Accidents per km under input fault injectors\n\n{}",
        table.render()
    )
}

/// Renders the Figure 4 table (violations per km vs output delay).
pub fn render_fig4(results: &[CampaignResult]) -> String {
    let dists: Vec<Vec<f64>> = results
        .iter()
        .map(|r| metrics::vpk_distribution(r.runs()))
        .collect();
    let axis_hi = dists
        .iter()
        .flatten()
        .cloned()
        .fold(1.0f64, f64::max)
        .ceil();
    let mut table = report::Table::new(vec![
        "Output Delay (frames)",
        "(seconds)",
        "median VPK",
        "mean VPK",
        "MSR (%)",
        &format!("VPK distribution [0, {axis_hi:.0}]"),
    ]);
    for ((r, d), &frames) in results.iter().zip(&dists).zip(FIG4_DELAYS.iter()) {
        let s = stats::Summary::of(d);
        table.row(vec![
            frames.to_string(),
            format!("{:.2}", frames as f64 / 15.0),
            format!("{:.2}", s.median),
            format!("{:.2}", s.mean),
            format!("{:.1}", metrics::mission_success_rate(r.runs())),
            report::box_plot_row(&s, 0.0, axis_hi, 36),
        ]);
    }
    format!(
        "Figure 4 — Violations per km vs injected output delay (15 FPS)\n\n{}",
        table.render()
    )
}

/// Writes `results` (campaign results, an adaptive trajectory) as JSON
/// into `results/<name>.json` under the repository root (best effort;
/// failures are printed, not fatal). The `AVFI_RESULTS_DIR` environment
/// variable overrides the output directory (the smoke-golden gate uses
/// it to keep checked-in results pristine).
pub fn export_json<T: Serialize + ?Sized>(name: &str, results: &T) {
    let dir = std::env::var_os("AVFI_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[avfi-bench] could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(results) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("[avfi-bench] could not write {}: {e}", path.display());
            } else {
                eprintln!("[avfi-bench] wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("[avfi-bench] serialization failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_deterministic_and_unsignalized() {
        let a = evaluation_suite(Scale::quick());
        let b = evaluation_suite(Scale::quick());
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert!(!x.town.signalized);
        }
    }

    #[test]
    fn input_specs_cover_paper_axis() {
        let specs = input_fault_specs();
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "NoInject",
                "Gaussian",
                "S&P",
                "SolidOcc",
                "TranspOcc",
                "WaterDrop"
            ]
        );
    }

    #[test]
    fn fig4_sweep_matches_paper() {
        assert_eq!(FIG4_DELAYS, [0, 5, 10, 20, 30]);
        let labels: Vec<String> = output_delay_specs().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "NoInject",
                "delay 5f",
                "delay 10f",
                "delay 20f",
                "delay 30f"
            ]
        );
    }

    #[test]
    fn exec_options_parse_flags() {
        let args = |v: &[&str]| Args::new(v.iter().copied());
        assert_eq!(
            ExecOptions::parse(&mut args(&["bin", "--workers", "6", "--progress"])),
            ExecOptions {
                workers: 6,
                progress: true,
                ..ExecOptions::default()
            }
        );
        assert_eq!(
            ExecOptions::parse(&mut args(&["bin", "--quick"])),
            ExecOptions::default()
        );
        // A malformed count is rejected.
        let mut malformed = args(&["bin", "--workers", "lots"]);
        ExecOptions::parse(&mut malformed);
        assert!(malformed
            .check()
            .unwrap_err()
            .contains("--workers \"lots\""));
    }

    #[test]
    fn exec_options_parse_trace_flags() {
        let args = |v: &[&str]| Args::new(v.iter().copied());
        // `--trace` alone defaults to blackbox.
        let o = ExecOptions::parse(&mut args(&["bin", "--trace", "traces/"]));
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("traces/")));
        assert_eq!(o.trace_level, TraceLevel::Blackbox);
        // An explicit level wins regardless of flag order.
        let o = ExecOptions::parse(&mut args(&[
            "bin",
            "--trace",
            "t",
            "--trace-level",
            "summary",
        ]));
        assert_eq!(o.trace_level, TraceLevel::Summary);
        let o = ExecOptions::parse(&mut args(&[
            "bin",
            "--trace-level",
            "summary",
            "--trace",
            "t",
        ]));
        assert_eq!(o.trace_level, TraceLevel::Summary);
        // `off` disables even with a directory given.
        let o = ExecOptions::parse(&mut args(&["bin", "--trace", "t", "--trace-level", "off"]));
        assert_eq!(o.trace_level, TraceLevel::Off);
        // No trace flags: recorder stays off.
        assert_eq!(ExecOptions::default().trace, None);
    }

    #[test]
    fn exec_options_parse_spool_flag() {
        let args = |v: &[&str]| Args::new(v.iter().copied());
        let o = ExecOptions::parse(&mut args(&["bin", "--spool", "checkpoints/"]));
        assert_eq!(
            o.spool.as_deref(),
            Some(std::path::Path::new("checkpoints/"))
        );
        assert_eq!(ExecOptions::default().spool, None);
    }

    #[test]
    fn render_helpers_handle_empty_runs() {
        // Rendering must not panic on degenerate inputs.
        let results: Vec<CampaignResult> = Vec::new();
        assert!(render_fig2(&results).contains("Figure 2"));
        assert!(render_fig3(&results).contains("Figure 3"));
        assert!(render_apk(&results).contains("Extension A"));
    }
}
