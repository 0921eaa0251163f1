//! The benchmark-owned traced mission loop.
//!
//! [`run_mission`] makes the same public calls as
//! `avfi_core::campaign::run_single` (and, with a trace spec,
//! `run_single_traced`) in the same order — the per-run seed split,
//! `World::from_scenario`, `IlNetwork::from_weights`,
//! `AvDriver::{expert,neural}`, `observe`/`observe_into`, `drive_frame`
//! and `step` — with a timer around each. Per frame it adds side calls
//! that time the work hidden inside those calls: `World::render_camera`,
//! `features::image_to_tensor` and a second decoded network's `forward`
//! (neural agent), `ExpertDriver::control_for` (expert), and each
//! production-shaped `avfi_nn` layer on the frame's tensor. No side call
//! draws randomness from the run, so the `RunResult` stays
//! byte-identical to the engine's — which the workloads check.

use avfi_agent::features::{image_to_tensor, normalize_speed};
use avfi_agent::{ExpertDriver, IlNetwork};
use avfi_core::campaign::{AgentSpec, MissionOutcome, RunResult, TraceSpec};
use avfi_core::fault::FaultSpec;
use avfi_core::{AvDriver, WorkPlan};
use avfi_nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use avfi_nn::Tensor;
use avfi_sim::recorder::Recorder;
use avfi_sim::rng::split_seed;
use avfi_sim::scenario::Scenario;
use avfi_sim::world::World;
use avfi_trace::{RunTrace, TraceEvent, TraceHeader, TraceLevel, TraceSummary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Accumulated wall time and call count of one timed call site.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timer {
    total: Duration,
    calls: u64,
}

impl Timer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.total += start.elapsed();
        self.calls += 1;
        out
    }

    fn add(&mut self, elapsed: Duration) {
        self.total += elapsed;
        self.calls += 1;
    }

    fn merge(&mut self, other: &Timer) {
        self.total += other.total;
        self.calls += other.calls;
    }

    /// Mean microseconds per call (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / self.calls as f64
        }
    }

    /// Number of timed calls.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

/// Per-layer timers of the traced loop, summed over its threads.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    pub world_build: Timer,
    pub observe: Timer,
    pub camera: Timer,
    pub step: Timer,
    pub drive_frame: Timer,
    /// The agent's own decision inside `drive_frame`, timed by side call
    /// (tensor conversion plus forward pass, or the expert's control law).
    pub agent: Timer,
    pub weights_decode: Timer,
    pub image_to_tensor: Timer,
    pub forward: Timer,
    pub conv1: Timer,
    pub conv2: Timer,
    pub dense: Timer,
    pub head: Timer,
    pub encode: Timer,
    /// Wall milliseconds of each traced mission.
    pub run_ms: Vec<f64>,
    pub frames: u64,
}

impl LayerTimes {
    fn merge(&mut self, other: &LayerTimes) {
        for (mine, theirs) in self.timers_mut().into_iter().zip(other.timers()) {
            mine.merge(&theirs);
        }
        self.run_ms.extend_from_slice(&other.run_ms);
        self.frames += other.frames;
    }

    fn timers(&self) -> [Timer; 14] {
        [
            self.world_build,
            self.observe,
            self.camera,
            self.step,
            self.drive_frame,
            self.agent,
            self.weights_decode,
            self.image_to_tensor,
            self.forward,
            self.conv1,
            self.conv2,
            self.dense,
            self.head,
            self.encode,
        ]
    }

    fn timers_mut(&mut self) -> [&mut Timer; 14] {
        [
            &mut self.world_build,
            &mut self.observe,
            &mut self.camera,
            &mut self.step,
            &mut self.drive_frame,
            &mut self.agent,
            &mut self.weights_decode,
            &mut self.image_to_tensor,
            &mut self.forward,
            &mut self.conv1,
            &mut self.conv2,
            &mut self.dense,
            &mut self.head,
            &mut self.encode,
        ]
    }
}

/// The IL-CNN's layers at production shape (seeded weights: the
/// arithmetic cost does not depend on the values), timed one by one.
#[derive(Debug)]
struct NetLayers {
    conv1: Conv2d,
    conv2: Conv2d,
    flatten: Flatten,
    dense: Dense,
    head_a: Dense,
    head_b: Dense,
    relu: Relu,
}

impl NetLayers {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(42);
        NetLayers {
            conv1: Conv2d::new(1, 8, 5, 2, 2, &mut rng),
            conv2: Conv2d::new(8, 16, 3, 2, 1, &mut rng),
            flatten: Flatten::new(),
            dense: Dense::new(16 * 6 * 8, 64, &mut rng),
            head_a: Dense::new(65, 32, &mut rng),
            head_b: Dense::new(32, 3, &mut rng),
            relu: Relu::new(),
        }
    }

    fn forward(&mut self, image: &Tensor, speed: f32, t: &mut LayerTimes) {
        let NetLayers {
            conv1,
            conv2,
            flatten,
            dense,
            head_a,
            head_b,
            relu,
        } = self;
        let x = t
            .conv1
            .time(|| relu.forward(&conv1.forward(image, false), false));
        let x = t
            .conv2
            .time(|| relu.forward(&conv2.forward(&x, false), false));
        let x = t.dense.time(|| {
            let flat = flatten.forward(&x, false);
            relu.forward(&dense.forward(&flat, false), false)
        });
        let out = t.head.time(|| {
            let mut head_in = Vec::with_capacity(x.len() + 1);
            head_in.extend_from_slice(x.data());
            head_in.push(speed);
            let n = head_in.len();
            let h = relu.forward(
                &head_a.forward(&Tensor::from_vec(head_in, vec![n]), false),
                false,
            );
            head_b.forward(&h, false)
        });
        black_box(out);
    }
}

/// Per-thread state of the side calls.
#[derive(Debug)]
struct SideCalls {
    /// A second decoded copy of the agent's network plus its layers at
    /// production shape (neural agent only).
    net: Option<(IlNetwork, NetLayers)>,
    expert: ExpertDriver,
}

impl SideCalls {
    fn new(agent: &AgentSpec) -> Self {
        let net = match agent {
            AgentSpec::Neural { weights } => Some((
                IlNetwork::from_weights(weights).expect("campaign weights decode"),
                NetLayers::new(),
            )),
            AgentSpec::Expert => None,
        };
        SideCalls {
            net,
            expert: ExpertDriver::new(),
        }
    }
}

/// One mission through the traced loop. Returns the run's result and,
/// when `trace` asks for one and the run emits it, the encoded trace.
#[allow(clippy::too_many_arguments)]
fn run_mission(
    template: &Scenario,
    scenario_index: usize,
    run_index: usize,
    fault: &FaultSpec,
    agent: &AgentSpec,
    trace: Option<&TraceSpec>,
    recorder: &mut Recorder,
    side: &mut SideCalls,
    t: &mut LayerTimes,
) -> (RunResult, Option<Vec<u8>>) {
    let mission_start = Instant::now();
    let mut scenario = template.clone();
    scenario.seed = split_seed(
        template.seed,
        ((scenario_index as u64) << 32) | (run_index as u64 + 1),
    );
    let mut world = t.world_build.time(|| World::from_scenario(&scenario));
    let blackbox = trace.is_some_and(|s| s.level == TraceLevel::Blackbox);
    if blackbox {
        recorder.reset();
        world.install_recorder(std::mem::take(recorder));
    }
    let mut driver = match agent {
        AgentSpec::Expert => AvDriver::expert(fault.clone(), scenario.seed),
        AgentSpec::Neural { weights } => {
            let net = t
                .weights_decode
                .time(|| IlNetwork::from_weights(weights).expect("valid campaign weights"));
            AvDriver::neural(net, fault.clone(), scenario.seed)
        }
    };
    if trace.is_some() {
        driver.enable_event_log();
    }
    let mut obs = t.observe.time(|| world.observe());
    loop {
        black_box(t.camera.time(|| world.render_camera()));
        match &mut side.net {
            Some((net, layers)) => {
                let start = Instant::now();
                let tensor = t
                    .image_to_tensor
                    .time(|| image_to_tensor(&obs.sensors.image));
                let speed = normalize_speed(obs.sensors.speed);
                black_box(
                    t.forward
                        .time(|| net.forward(&tensor, speed, obs.command, false)),
                );
                t.agent.add(start.elapsed());
                layers.forward(&tensor, speed, t);
            }
            None => {
                black_box(t.agent.time(|| side.expert.control_for(&world)));
            }
        }
        let control = t.drive_frame.time(|| driver.drive_frame(&obs, &world));
        t.frames += 1;
        if t.step.time(|| world.step(control)).is_terminal() {
            break;
        }
        t.observe.time(|| world.observe_into(&mut obs));
    }
    if blackbox {
        *recorder = world.take_recorder();
    }

    let result = RunResult {
        fault: fault.label(),
        agent: driver.agent_name().to_string(),
        scenario_index,
        run_index,
        seed: scenario.seed,
        outcome: MissionOutcome::from(world.mission()),
        duration: world.time(),
        distance_km: world.odometer() / 1000.0,
        violations: world.monitor().events().to_vec(),
        injection_time: driver.injection_time(),
    };
    let encoded = trace.and_then(|spec| {
        let run_trace = build_trace(template, fault, spec, &result, &mut driver, recorder);
        let emit = match spec.level {
            TraceLevel::Off => false,
            TraceLevel::Summary => true,
            TraceLevel::Blackbox => run_trace.is_failure(),
        };
        emit.then(|| t.encode.time(|| avfi_trace::encode(&run_trace)))
    });
    t.run_ms
        .push(mission_start.elapsed().as_secs_f64() * 1000.0);
    (result, encoded)
}

/// Assembles the flight-recorder trace exactly as `run_single_traced`
/// does.
fn build_trace(
    template: &Scenario,
    fault: &FaultSpec,
    spec: &TraceSpec,
    result: &RunResult,
    driver: &mut AvDriver,
    recorder: &Recorder,
) -> RunTrace {
    let blackbox = spec.level == TraceLevel::Blackbox;
    let (mut events, dropped_events) = driver.take_events();
    events.extend(result.violations.iter().map(|v| TraceEvent::Violation {
        frame: v.frame,
        time: v.time,
        kind: v.kind,
        x: v.position.x,
        y: v.position.y,
        odometer: v.odometer,
    }));
    events.sort_by_key(TraceEvent::frame);
    RunTrace {
        header: TraceHeader {
            study: spec.study.clone(),
            fault: result.fault.clone(),
            agent: result.agent.clone(),
            scenario_index: result.scenario_index,
            run_index: result.run_index,
            seed: result.seed,
            scenario: template.clone(),
            fault_spec_json: serde_json::to_string(fault).expect("fault spec serializes"),
            weights_fingerprint: spec.weights_fingerprint,
            level: spec.level,
            blackbox_frames: if blackbox { spec.blackbox_frames } else { 0 },
        },
        summary: TraceSummary {
            success: result.outcome.is_success(),
            outcome: result.outcome.name().to_string(),
            duration: result.duration,
            distance_km: result.distance_km,
            violations: result.violations.len(),
            injection_time: result.injection_time,
        },
        events,
        frames: if blackbox {
            recorder.chronological().copied().collect()
        } else {
            Vec::new()
        },
        dropped_frames: if blackbox { recorder.dropped() } else { 0 },
        dropped_events,
    }
}

/// One run of a plan through the traced loop.
#[derive(Debug)]
pub struct TracedRun {
    pub result: RunResult,
    /// The encoded trace the run emitted, if any.
    pub trace: Option<Vec<u8>>,
}

/// Runs every item of `plan` through the traced loop on `workers`
/// threads (an atomic cursor over the flat-plan queue, as the engine
/// uses) and returns the runs in flat-plan order. `trace` is the flight
/// recorder level and black-box window, or `None` for tracing off.
pub fn run_plan(
    plan: &WorkPlan,
    workers: usize,
    trace: Option<(TraceLevel, usize)>,
    times: &mut LayerTimes,
) -> Vec<TracedRun> {
    let mut items = Vec::new();
    for study in plan.studies() {
        for cfg in &study.campaigns {
            let spec = trace.map(|(level, blackbox_frames)| TraceSpec {
                level,
                study: study.name.clone(),
                blackbox_frames,
                weights_fingerprint: match &cfg.agent {
                    AgentSpec::Neural { weights } => Some(avfi_trace::fingerprint(weights)),
                    AgentSpec::Expert => None,
                },
            });
            for scenario in 0..cfg.scenarios.len() {
                for run in 0..cfg.runs_per_scenario {
                    items.push((cfg, spec.clone(), scenario, run));
                }
            }
        }
    }
    let slots: Vec<Mutex<Option<TracedRun>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(LayerTimes::default());
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, items.len().max(1)) {
            scope.spawn(|| {
                let mut local = LayerTimes::default();
                let mut recorder = match trace {
                    Some((TraceLevel::Blackbox, frames)) => Recorder::ring(frames),
                    _ => Recorder::new(false),
                };
                let mut side: Option<SideCalls> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((cfg, spec, scenario, run)) = items.get(i) else {
                        break;
                    };
                    let side = side.get_or_insert_with(|| SideCalls::new(&cfg.agent));
                    let (result, trace) = run_mission(
                        &cfg.scenarios[*scenario],
                        *scenario,
                        *run,
                        &cfg.fault,
                        &cfg.agent,
                        spec.as_ref(),
                        &mut recorder,
                        side,
                        &mut local,
                    );
                    *slots[i].lock().expect("slot lock") = Some(TracedRun { result, trace });
                }
                merged.lock().expect("times lock").merge(&local);
            });
        }
    });
    times.merge(&merged.into_inner().expect("times lock"));
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("every item ran"))
        .collect()
}
