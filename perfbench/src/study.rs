//! The two study workloads: paper campaign batches executed in-process
//! through `Engine::execute_with`, one plan at a time, with `nproc`
//! engine workers.
//!
//! * `il_camera_faults` — the Figure 2/3 study. *Why:* the paper's
//!   headline workload. Every frame renders the camera, corrupts the
//!   image and runs the CNN, so `sim` sensors, `core` injection, `agent`
//!   and `nn` do most of the work; traffic, `trace`, `store` and `net` do
//!   almost none.
//! * `expert_dense_delay` — the Figure 4 output-delay sweep with the
//!   expert in dense towns and the black-box flight recorder on. *Why:*
//!   `nn` does no work; the expert drives from ground truth, so the
//!   sensors it pays for go unread, and `World::step` (scheduler, spatial
//!   index, violation monitor) is a large share of each frame. The faults
//!   are scalar timing faults that bypass the image-copy path, and failed
//!   runs exercise the `trace` recorder and codec. A CNN speed-up should
//!   leave this workload flat; demand-driven sensing should move it most.
//!
//! Both check every plan's `StudyResult` JSON against the FNV-1a digest
//! stored for its pool member in `digests.txt`.

use crate::mission::{self, LayerTimes};
use crate::plans::{self, POOL};
use crate::report::{self, Metric, Outcome};
use crate::served;
use avfi_core::engine::{Engine, ProgressEvent, ProgressSink, TraceConfig};
use avfi_core::{StudyResult, WorkPlan};
use avfi_trace::TraceLevel;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which study a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    IlCameraFaults,
    ExpertDenseDelay,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::IlCameraFaults => "il_camera_faults",
            Kind::ExpertDenseDelay => "expert_dense_delay",
        }
    }

    fn trace_level(self) -> TraceLevel {
        match self {
            Kind::IlCameraFaults => TraceLevel::Off,
            Kind::ExpertDenseDelay => TraceLevel::Blackbox,
        }
    }

    /// Builds pool member `index`.
    pub fn plan(self, index: usize, weights: Option<&Arc<Vec<u8>>>) -> WorkPlan {
        match self {
            Kind::IlCameraFaults => plans::il_plan(index, weights.expect("IL plans need weights")),
            Kind::ExpertDenseDelay => plans::expert_plan(index),
        }
    }
}

/// A set-up study workload.
#[derive(Debug)]
pub struct Study {
    kind: Kind,
    seed: u64,
    pool: Vec<WorkPlan>,
    digests: Vec<u64>,
    order: Vec<usize>,
    workers: usize,
    tmp: PathBuf,
}

/// The program's set-up for one run: decode the cached weights once
/// (IL), build every plan of the pool, create the temp directory.
pub fn setup(
    kind: Kind,
    seed: u64,
    workers: usize,
    weights_path: &Path,
    digests: Vec<u64>,
    tmp: &Path,
) -> std::io::Result<Study> {
    let weights = match kind {
        Kind::IlCameraFaults => {
            let bytes = std::fs::read(weights_path).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!(
                        "{}: {e} (run `avfi-perfbench --prepare` first)",
                        weights_path.display()
                    ),
                )
            })?;
            avfi_agent::IlNetwork::from_weights(&bytes).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}"))
            })?;
            Some(Arc::new(bytes))
        }
        Kind::ExpertDenseDelay => None,
    };
    let pool = (0..POOL).map(|g| kind.plan(g, weights.as_ref())).collect();
    std::fs::create_dir_all(tmp)?;
    Ok(Study {
        kind,
        seed,
        pool,
        digests,
        order: plans::visit_order(seed, POOL),
        workers,
        tmp: tmp.to_path_buf(),
    })
}

/// Timestamps engine progress events from outside the program: per-run
/// latency (gap between a worker's consecutive completions), worker
/// utilization, and the idle tail after each worker's last run.
#[derive(Debug, Default)]
struct TimingSink {
    state: Mutex<SinkState>,
}

#[derive(Debug, Default)]
struct SinkState {
    last: Vec<Instant>,
    run_ms: Vec<f64>,
    busy: Vec<f64>,
    tail_idle_s: Vec<f64>,
}

impl ProgressSink for TimingSink {
    fn event(&self, event: &ProgressEvent) {
        let now = Instant::now();
        let mut s = self.state.lock().expect("sink lock");
        match event {
            ProgressEvent::Started { workers, .. } => s.last = vec![now; *workers],
            ProgressEvent::RunCompleted { worker, .. } => {
                let prev = std::mem::replace(&mut s.last[*worker], now);
                s.run_ms.push(ms(now - prev));
            }
            ProgressEvent::Finished { utilization, .. } => {
                s.busy.extend_from_slice(utilization);
                let idle = s.last.iter().map(|t| (now - *t).as_secs_f64()).sum();
                s.tail_idle_s.push(idle);
            }
            ProgressEvent::CampaignCompleted { .. } => {}
        }
    }
}

/// One plan executed through the engine.
#[derive(Debug)]
struct Executed {
    group: usize,
    results: Vec<StudyResult>,
    wall: Duration,
    /// Trace files the flight recorder wrote, by flat-plan index (kept
    /// only when asked for).
    traces: BTreeMap<usize, Vec<u8>>,
    trace_files: usize,
    trace_bytes: u64,
}

impl Study {
    fn execute(&self, k: usize, group: usize, sink: &dyn ProgressSink, keep: bool) -> Executed {
        let dir = self.tmp.join(format!("traces-{k}"));
        let mut engine = Engine::new().workers(self.workers);
        if self.kind.trace_level() != TraceLevel::Off {
            engine = engine.with_trace(TraceConfig::new(&dir, self.kind.trace_level()));
        }
        let start = Instant::now();
        let results = engine.execute_with(&self.pool[group], sink);
        let wall = start.elapsed();
        let mut traces = BTreeMap::new();
        let (mut trace_files, mut trace_bytes) = (0, 0);
        for path in avfi_trace::list_trace_files(&dir).unwrap_or_default() {
            let bytes = std::fs::read(&path).unwrap_or_default();
            trace_files += 1;
            trace_bytes += bytes.len() as u64;
            if let Some(i) = avfi_bench::experiments::trace_flat_index(&path) {
                if keep {
                    traces.insert(i, bytes);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        Executed {
            group,
            results,
            wall,
            traces,
            trace_files,
            trace_bytes,
        }
    }

    fn check(&self, e: &Executed, outcome: &mut Outcome) {
        let ok = plans::digest(&plans::results_json(&e.results)) == self.digests[e.group];
        if !ok {
            eprintln!(
                "[perfbench] {}: pool plan {} drifted from its stored digest",
                self.kind.name(),
                e.group
            );
        }
        outcome.check(self.pool[e.group].total_runs() as u64, ok);
    }

    /// The closed loop: executes plans in seed order until `seconds`
    /// have passed (at least one plan), checking each. `between` is called
    /// before each plan and after the last with the share of the run done.
    fn run_loop(
        &self,
        seconds: f64,
        sink: &dyn ProgressSink,
        keep: bool,
        outcome: &mut Outcome,
        between: &mut dyn FnMut(f64),
    ) -> Vec<Executed> {
        let start = Instant::now();
        let mut executed = Vec::new();
        loop {
            let progress = start.elapsed().as_secs_f64() / seconds;
            between(progress);
            if progress >= 1.0 && !executed.is_empty() {
                return executed;
            }
            let k = executed.len();
            let e = self.execute(k, self.order[k % POOL], sink, keep);
            self.check(&e, outcome);
            executed.push(e);
        }
    }

    /// Untraced run: the end-to-end metrics (all but `setup_s` and
    /// `peak_rss_mb`, which the caller adds; `between` as in `run_loop`).
    pub fn run(
        &self,
        seconds: f64,
        outcome: &mut Outcome,
        between: &mut dyn FnMut(f64),
    ) -> (Vec<Metric>, usize) {
        let sink = TimingSink::default();
        let executed = self.run_loop(seconds, &sink, false, outcome, between);
        let wall: f64 = executed.iter().map(|e| e.wall.as_secs_f64()).sum();
        let (runs, frames) = totals(&executed);
        let run_ms = sink.state.into_inner().expect("sink lock").run_ms;
        let metrics = vec![
            Metric::value("runs_per_s", "runs/s", runs as f64 / wall, runs),
            Metric::value("sim_frames_per_s", "frames/s", frames as f64 / wall, runs),
            Metric::median("run_latency_ms_p50", "ms", &run_ms),
            Metric::percentile("run_latency_ms_p95", "ms", &run_ms, 95.0),
        ];
        (metrics, executed.len())
    }

    /// Traced run: the untraced loop for half the time, then the same
    /// plans again through the benchmark-owned traced loop; every traced
    /// `RunResult` (and flight-recorder trace) must match the engine's
    /// byte for byte. The expert workload then runs the service section
    /// (`served.rs`) for a quarter of the time.
    pub fn traced(
        &self,
        seconds: f64,
        outcome: &mut Outcome,
    ) -> Result<(Vec<Metric>, usize), String> {
        let sink = TimingSink::default();
        let executed = self.run_loop(seconds / 2.0, &sink, true, outcome, &mut |_| {});
        let untraced: f64 = executed.iter().map(|e| e.wall.as_secs_f64()).sum();
        let trace_cfg = (self.kind.trace_level() != TraceLevel::Off).then(|| {
            let cfg = TraceConfig::new(&self.tmp, self.kind.trace_level());
            (cfg.level, cfg.blackbox_frames())
        });
        let mut times = LayerTimes::default();
        let mut traced = 0.0;
        for e in &executed {
            let start = Instant::now();
            let runs = mission::run_plan(&self.pool[e.group], self.workers, trace_cfg, &mut times);
            traced += start.elapsed().as_secs_f64();
            let engine_runs: Vec<String> = plans::runs(&e.results)
                .map(|r| serde_json::to_string(r).expect("run serializes"))
                .collect();
            let mut ok = engine_runs.len() == runs.len();
            let mut traced_traces = BTreeMap::new();
            for (i, (run, engine_json)) in runs.iter().zip(&engine_runs).enumerate() {
                ok &= serde_json::to_string(&run.result).expect("run serializes") == *engine_json;
                if let Some(bytes) = &run.trace {
                    traced_traces.insert(i, bytes.clone());
                }
            }
            ok &= traced_traces == e.traces;
            if !ok {
                eprintln!(
                    "[perfbench] {}: traced loop diverged from the engine on pool plan {}",
                    self.kind.name(),
                    e.group
                );
            }
            outcome.check(runs.len() as u64, ok);
        }
        let st = sink.state.into_inner().expect("sink lock");
        let plans_run = executed.len();
        let trace_files: usize = executed.iter().map(|e| e.trace_files).sum();
        let trace_bytes: u64 = executed.iter().map(|e| e.trace_bytes).sum();
        let mut metrics = layer_metrics(&times);
        metrics.extend([
            Metric::value(
                "core.worker_busy_frac",
                "ratio",
                mean(&st.busy),
                st.busy.len(),
            ),
            Metric::value(
                "core.tail_idle_s",
                "s",
                mean(&st.tail_idle_s),
                st.tail_idle_s.len(),
            ),
            Metric::value(
                "trace.files",
                "count",
                trace_files as f64 / plans_run as f64,
                plans_run,
            ),
            Metric::value(
                "trace.bytes",
                "bytes",
                if trace_files == 0 {
                    0.0
                } else {
                    trace_bytes as f64 / trace_files as f64
                },
                trace_files,
            ),
        ]);
        metrics.push(Metric::value(
            "trace_overhead_frac",
            "ratio",
            traced / untraced - 1.0,
            plans_run,
        ));
        // The store, server and net layers are measured by the service
        // section, on the expert workload only.
        match self.kind {
            Kind::ExpertDenseDelay => metrics.extend(
                served::measure(
                    self.seed,
                    self.workers,
                    &self.tmp.join("served"),
                    seconds / 4.0,
                    outcome,
                )
                .map_err(|e| format!("service section: {e}"))?,
            ),
            Kind::IlCameraFaults => metrics.extend(report::absent(&served::METRICS)),
        }
        Ok((metrics, plans_run))
    }
}

/// The per-layer metrics the traced mission loop measures.
pub fn layer_metrics(t: &LayerTimes) -> Vec<Metric> {
    let runs = t.run_ms.len();
    let per_frame = |timer: &mission::Timer| {
        if t.frames == 0 {
            0.0
        } else {
            timer.mean_us() * timer.calls() as f64 / t.frames as f64
        }
    };
    let frames = t.frames as usize;
    vec![
        Metric::value("sim.world_build_us", "us", t.world_build.mean_us(), runs),
        Metric::value("sim.observe_us", "us", t.observe.mean_us(), frames),
        Metric::value("sim.camera_us", "us", t.camera.mean_us(), frames),
        Metric::value(
            "sim.observe_rest_us",
            "us",
            t.observe.mean_us() - t.camera.mean_us(),
            frames,
        ),
        Metric::value("sim.step_us", "us", t.step.mean_us(), frames),
        Metric::value(
            "sim.frames_per_run",
            "count",
            if runs == 0 {
                0.0
            } else {
                t.frames as f64 / runs as f64
            },
            runs,
        ),
        Metric::value("core.drive_frame_us", "us", t.drive_frame.mean_us(), frames),
        // Clamped: for the expert the side call's timing can exceed the
        // whole call's by the measurement noise.
        Metric::value(
            "core.drive_frame_self_us",
            "us",
            (t.drive_frame.mean_us() - per_frame(&t.agent)).max(0.0),
            frames,
        ),
        Metric::median("core.run_ms_p50", "ms", &t.run_ms),
        Metric::percentile("core.run_ms_p95", "ms", &t.run_ms, 95.0),
        Metric::value(
            "agent.weights_decode_us",
            "us",
            t.weights_decode.mean_us(),
            t.weights_decode.calls() as usize,
        ),
        Metric::value(
            "agent.image_to_tensor_us",
            "us",
            t.image_to_tensor.mean_us(),
            t.image_to_tensor.calls() as usize,
        ),
        Metric::value(
            "nn.forward_us",
            "us",
            t.forward.mean_us(),
            t.forward.calls() as usize,
        ),
        Metric::value(
            "nn.conv1_us",
            "us",
            t.conv1.mean_us(),
            t.conv1.calls() as usize,
        ),
        Metric::value(
            "nn.conv2_us",
            "us",
            t.conv2.mean_us(),
            t.conv2.calls() as usize,
        ),
        Metric::value(
            "nn.dense_us",
            "us",
            t.dense.mean_us(),
            t.dense.calls() as usize,
        ),
        Metric::value(
            "nn.head_us",
            "us",
            t.head.mean_us(),
            t.head.calls() as usize,
        ),
        Metric::value(
            "trace.encode_us",
            "us",
            t.encode.mean_us(),
            t.encode.calls() as usize,
        ),
    ]
}

fn totals(executed: &[Executed]) -> (usize, u64) {
    let mut runs = 0;
    let mut frames = 0;
    for e in executed {
        for r in plans::runs(&e.results) {
            runs += 1;
            frames += plans::frames(r);
        }
    }
    (runs, frames)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}
