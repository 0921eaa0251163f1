//! The fault-injection harness: wraps a driving agent and applies the
//! configured faults to its inputs (sensor payloads), its model (IL-CNN
//! parameters/neurons), and its outputs (commands, timing).
//!
//! This is the "Fault Injector" box of Figure 1: Input FI sits between the
//! server's sensor stream and the ADA, NN FI inside the ADA, Output FI and
//! Timing FI between the ADA and actuation.

use crate::fault::input::{ImageFaultLayout, InputFault};
use crate::fault::timing::TimingChannel;
use crate::fault::FaultSpec;
use avfi_agent::{Agent, DriverInput, ExpertDriver, IlNetwork};
use avfi_sim::physics::VehicleControl;
use avfi_sim::rng::stream_rng;
use avfi_sim::sensors::{Image, LidarScan, PixelFootprint};
use avfi_sim::world::{World, WorldObservation};
use avfi_sim::FRAME_DT;
use avfi_trace::{FaultChannel, TraceEvent};
use rand::rngs::StdRng;

/// Per-run cap on logged fault events; intermittent triggers flapping
/// every frame would otherwise grow the log with the run length.
const MAX_TRACE_EVENTS: usize = 4096;

/// Onset-debounced log of the harness's fault activity for the flight
/// recorder: one [`TraceEvent::TriggerFired`] when the plan first becomes
/// active, one [`TraceEvent::Injection`] per channel per contiguous
/// active episode.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<TraceEvent>,
    dropped: u64,
    trigger_fired: bool,
    /// Whether each channel (in [`FaultChannel::ALL`] order) was active
    /// on the previous frame — the debounce state.
    prev: [bool; FaultChannel::ALL.len()],
}

impl EventLog {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < MAX_TRACE_EVENTS {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Folds one frame's channel-activity flags into the log, emitting
    /// events only on rising edges.
    fn frame_end(&mut self, frame: u64, active: [bool; FaultChannel::ALL.len()]) {
        if !self.trigger_fired && active.iter().any(|&a| a) {
            self.trigger_fired = true;
            self.push(TraceEvent::TriggerFired { frame });
        }
        for (i, &now) in active.iter().enumerate() {
            if now && !self.prev[i] {
                self.push(TraceEvent::Injection {
                    frame,
                    channel: FaultChannel::ALL[i],
                });
            }
            self.prev[i] = now;
        }
    }
}

/// A driving agent wrapped by the AVFI fault injector.
#[derive(Debug)]
pub struct AvDriver {
    agent: Agent,
    spec: FaultSpec,
    rng: StdRng,
    timing: Option<TimingChannel>,
    image_layout: Option<ImageFaultLayout>,
    /// The camera pixels the wrapped agent reads, built from it on the
    /// first frame a camera fault is active.
    footprint: Option<PixelFootprint>,
    injected_at_frame: Option<u64>,
    /// Reused buffer for the fault-injected camera image, so the hot path
    /// never clones the observation (allocation-free after the first
    /// injected frame).
    scratch_image: Option<Image>,
    /// Reused buffer for the fault-injected LIDAR sweep.
    scratch_lidar: Option<LidarScan>,
    /// Flight-recorder event log; `None` (the default) keeps the hot
    /// path free of any tracing work.
    event_log: Option<EventLog>,
}

impl AvDriver {
    /// Wraps the rule-based expert (oracle baseline).
    pub fn expert(spec: FaultSpec, seed: u64) -> Self {
        Self::new(Agent::Expert(ExpertDriver::new()), spec, seed)
    }

    /// Wraps the neural agent.
    pub fn neural(net: IlNetwork, spec: FaultSpec, seed: u64) -> Self {
        Self::new(Agent::Neural(net), spec, seed)
    }

    /// Wraps `agent`, applying a configured ML fault to a neural agent's
    /// network at construction time (a corrupted model is corrupted from
    /// the start). The agent is the wrapper's own: a campaign passes each
    /// run a clone of the agent it built.
    pub fn new(mut agent: Agent, spec: FaultSpec, seed: u64) -> Self {
        let mut injected_at_frame = None;
        if let (Agent::Neural(net), FaultSpec::Ml(f)) = (&mut agent, &spec) {
            f.apply(net, &mut stream_rng(seed, 0xFA));
            injected_at_frame = Some(0);
        }
        let timing = match &spec {
            FaultSpec::Timing(f) => Some(TimingChannel::new(f.clone())),
            _ => None,
        };
        AvDriver {
            agent,
            spec,
            rng: stream_rng(seed, 0xFB),
            timing,
            image_layout: None,
            footprint: None,
            // Other faults are marked lazily; a timing fault when it first
            // perturbs the commands — a no-op channel (e.g. a zero-frame
            // delay) must not report an injection time.
            injected_at_frame,
            scratch_image: None,
            scratch_lidar: None,
            event_log: None,
        }
    }

    /// Turns on flight-recorder event logging. An ML fault is applied at
    /// construction, so its trigger/injection pair is backfilled at frame
    /// 0 here (the per-frame path never sees it activate).
    pub fn enable_event_log(&mut self) {
        let mut log = EventLog::default();
        if matches!(self.spec, FaultSpec::Ml(_)) {
            log.trigger_fired = true;
            log.prev[FaultChannel::Ml as usize] = true;
            log.push(TraceEvent::TriggerFired { frame: 0 });
            log.push(TraceEvent::Injection {
                frame: 0,
                channel: FaultChannel::Ml,
            });
        }
        self.event_log = Some(log);
    }

    /// Takes the logged fault events (in frame order) and the count of
    /// events dropped past the cap. Logging stops until re-enabled.
    pub fn take_events(&mut self) -> (Vec<TraceEvent>, u64) {
        match self.event_log.take() {
            Some(log) => (log.events, log.dropped),
            None => (Vec::new(), 0),
        }
    }

    /// Agent name for reports.
    pub fn agent_name(&self) -> &'static str {
        self.agent.name()
    }

    /// Simulation time of the first actual injection, if any happened —
    /// the t₀ of the Time-to-Traffic-Violation metric.
    pub fn injection_time(&self) -> Option<f64> {
        self.injected_at_frame.map(|f| f as f64 * FRAME_DT)
    }

    /// Computes the control for one frame, with fault injection.
    pub fn drive_frame(&mut self, obs: &WorldObservation, world: &World) -> VehicleControl {
        let frame = obs.sensors.frame;
        // Destructure so the match arms below can hold `spec` borrowed
        // while mutating the RNG and scratch buffers (disjoint fields) —
        // this is what lets the hot path drop the per-frame spec clone.
        let AvDriver {
            agent,
            spec,
            rng,
            timing,
            image_layout,
            footprint,
            injected_at_frame,
            scratch_image,
            scratch_lidar,
            event_log,
        } = self;
        fn mark(slot: &mut Option<u64>, frame: u64) {
            if slot.is_none() {
                *slot = Some(frame);
            }
        }
        // Per-channel activity this frame, observed inside the match arms
        // below (each trigger gate is evaluated exactly once — re-checking
        // here would consume extra RNG draws and change the run).
        let mut active = [false; FaultChannel::ALL.len()];

        // --- Input FI and sensor-path Hardware FI: corrupt the sensor
        // channels the agent sees. Only the channels a fault touches are
        // copied (into reused scratch buffers); scalar-only faults copy
        // nothing.
        let mut input = DriverInput::clean(obs, world);
        match &*spec {
            FaultSpec::Input(f) if f.trigger.is_active(frame, rng) => {
                mark(injected_at_frame, frame);
                active[FaultChannel::Image as usize] = f.model.is_some();
                active[FaultChannel::Gps as usize] = f.gps.is_some();
                active[FaultChannel::Speed as usize] = f.speed.is_some();
                active[FaultChannel::Lidar as usize] = f.lidar.is_some();
                // Scalar-only plans (no camera model) skip the image copy
                // entirely — the agent sees the world's own buffer.
                if let Some(model) = &f.model {
                    let img = match scratch_image {
                        Some(img) => {
                            img.copy_from(&obs.sensors.image);
                            img
                        }
                        None => scratch_image.insert(obs.sensors.image.clone()),
                    };
                    let (w, h) = (img.width(), img.height());
                    let layout = image_layout
                        .get_or_insert_with(|| ImageFaultLayout::sample(model, w, h, rng));
                    let footprint = footprint.get_or_insert_with(|| agent.footprint(w, h));
                    model.apply(img, layout, footprint, rng);
                    input.image = img;
                }
                if let Some(g) = &f.gps {
                    let p = &mut input.gps.position;
                    p.x += g.bias_x + avfi_sim::rng::normal(rng, 0.0, g.sigma);
                    p.y += g.bias_y + avfi_sim::rng::normal(rng, 0.0, g.sigma);
                }
                if let Some(s) = &f.speed {
                    input.speed = match s {
                        crate::fault::input::SpeedFault::Scale(k) => input.speed * k,
                        crate::fault::input::SpeedFault::StuckAt(v) => *v,
                    };
                }
                if let Some(l) = &f.lidar {
                    let scan = match scratch_lidar {
                        Some(scan) => {
                            scan.ranges.clone_from(&obs.sensors.lidar.ranges);
                            scan.fov_deg = obs.sensors.lidar.fov_deg;
                            scan.max_range = obs.sensors.lidar.max_range;
                            scan
                        }
                        None => scratch_lidar.insert(obs.sensors.lidar.clone()),
                    };
                    l.apply(&mut scan.ranges, scan.max_range, rng);
                    input.lidar = scan;
                }
            }
            FaultSpec::Hardware(f) if !f.target.is_control() && f.trigger.is_active(frame, rng) => {
                mark(injected_at_frame, frame);
                active[FaultChannel::SensorHardware as usize] = true;
                let mut speed = input.speed;
                let mut gx = input.gps.position.x;
                let mut gy = input.gps.position.y;
                f.corrupt_sensors(&mut speed, &mut gx, &mut gy);
                input.speed = if speed.is_finite() { speed } else { 0.0 };
                input.gps.position.x = gx;
                input.gps.position.y = gy;
            }
            _ => {}
        }

        // --- The ADA computes its decision.
        let mut control = agent.drive(&input);

        // --- Output FI: command-path hardware faults.
        if let FaultSpec::Hardware(f) = &*spec {
            if f.target.is_control() && f.trigger.is_active(frame, rng) {
                mark(injected_at_frame, frame);
                active[FaultChannel::ControlHardware as usize] = true;
                control = f.corrupt_control(control);
            }
        }

        // --- Timing FI: the actuation sees a delayed/dropped/reordered
        // command stream. Injection is only recorded when the channel
        // actually changes the command — a transparent channel (zero-frame
        // delay) never perturbs the run.
        if let Some(ch) = timing {
            let requested = control;
            control = ch.transfer(control, rng);
            if control != requested {
                mark(injected_at_frame, frame);
                active[FaultChannel::Timing as usize] = true;
            }
        }

        if let Some(log) = event_log {
            log.frame_end(frame, active);
        }

        control
    }

    /// The pixels of a `width × height` camera image that can reach the
    /// wrapped agent: the agent's own footprint, and the pixels the
    /// camera fault reads to produce it
    /// ([`ImageFault::source_footprint`]; a water drop widens any
    /// footprint to the whole image). The wrapper corrupts its own copy
    /// of the image and reads nothing else of it, and no agent reads the
    /// LIDAR, so this is all a world driven by the wrapper must compute
    /// ([`World::narrow_to`]).
    ///
    /// [`ImageFault::source_footprint`]: crate::fault::input::ImageFault::source_footprint
    pub fn footprint(&self, width: usize, height: usize) -> PixelFootprint {
        let agent = self.agent.footprint(width, height);
        match &self.spec {
            FaultSpec::Input(InputFault {
                model: Some(model), ..
            }) => model.source_footprint(agent, width, height),
            _ => agent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::hardware::{BitFaultModel, HardwareFault, HardwareTarget};
    use crate::fault::input::{ImageFault, InputFault};
    use crate::fault::timing::TimingFault;
    use crate::trigger::Trigger;
    use avfi_sim::scenario::{Scenario, TownSpec};

    fn world() -> World {
        let s = Scenario::builder(TownSpec::grid(2, 2))
            .seed(9)
            .npc_vehicles(0)
            .pedestrians(0)
            .build();
        World::from_scenario(&s)
    }

    #[test]
    fn clean_expert_matches_unwrapped() {
        let mut w = world();
        let obs = w.observe();
        let mut wrapped = AvDriver::expert(FaultSpec::None, 1);
        let direct = ExpertDriver::new().control_for(&w);
        assert_eq!(wrapped.drive_frame(&obs, &w), direct);
        assert!(wrapped.injection_time().is_none());
    }

    #[test]
    fn stuck_brake_immobilizes() {
        let mut w = world();
        let spec = FaultSpec::Hardware(HardwareFault::always(
            HardwareTarget::ControlBrake,
            BitFaultModel::StuckAt { value: 1.0 },
        ));
        let mut drv = AvDriver::expert(spec, 2);
        for _ in 0..45 {
            let obs = w.observe();
            let c = drv.drive_frame(&obs, &w);
            assert_eq!(c.brake, 1.0);
            w.step(c);
        }
        assert_eq!(w.ego().speed, 0.0);
        assert_eq!(drv.injection_time(), Some(0.0));
    }

    #[test]
    fn output_delay_shifts_behavior() {
        // With a 15-frame delay, the first second of actuation is coasting
        // even though the expert asks for throttle.
        let mut w = world();
        let spec = FaultSpec::Timing(TimingFault::OutputDelay { frames: 15 });
        let mut drv = AvDriver::expert(spec, 3);
        for i in 0..15 {
            let obs = w.observe();
            let c = drv.drive_frame(&obs, &w);
            assert_eq!(c, VehicleControl::coast(), "frame {i} leaked early");
            w.step(c);
        }
        let obs = w.observe();
        let c = drv.drive_frame(&obs, &w);
        assert!(c.throttle > 0.0, "delayed throttle should arrive now");
    }

    #[test]
    fn input_fault_marks_injection_at_trigger() {
        let mut w = world();
        let spec = FaultSpec::Input(InputFault {
            trigger: Trigger::From { frame: 10 },
            ..InputFault::always(ImageFault::gaussian(0.2))
        });
        let mut drv = AvDriver::expert(spec, 4);
        for _ in 0..10 {
            let obs = w.observe();
            let c = drv.drive_frame(&obs, &w);
            w.step(c);
            assert!(drv.injection_time().is_none());
        }
        let obs = w.observe();
        let _ = drv.drive_frame(&obs, &w);
        let t = drv.injection_time().expect("injection recorded");
        assert!((t - 10.0 * FRAME_DT).abs() < 1e-9);
    }

    #[test]
    fn neural_with_input_fault_sees_corrupted_image() {
        // The same world frame must produce different controls with and
        // without heavy image noise (untrained net is still input
        // sensitive).
        let mut w = world();
        let obs = w.observe();
        let net1 = IlNetwork::new(11);
        let net2 = IlNetwork::from_weights(&{
            let mut n = IlNetwork::new(11);
            n.to_weights()
        })
        .unwrap();
        let mut clean = AvDriver::neural(net1, FaultSpec::None, 5);
        let mut noisy = AvDriver::neural(
            net2,
            FaultSpec::Input(InputFault::always(ImageFault::gaussian(0.5))),
            5,
        );
        let a = clean.drive_frame(&obs, &w);
        let b = noisy.drive_frame(&obs, &w);
        assert_ne!(a, b);
    }

    #[test]
    fn scalar_only_input_fault_skips_image_copy() {
        // A GPS-only plan (camera model `None`) must never allocate or
        // fill the scratch image/LIDAR buffers — the scalar path is
        // copy-free, the same skip hardware faults get.
        use crate::fault::input::GpsFault;
        let mut w = world();
        let spec = FaultSpec::Input(InputFault::scalar_only().with_gps(GpsFault {
            bias_x: 25.0,
            bias_y: -10.0,
            sigma: 0.0,
        }));
        let mut drv = AvDriver::expert(spec, 7);
        for _ in 0..8 {
            let obs = w.observe();
            let c = drv.drive_frame(&obs, &w);
            w.step(c);
        }
        assert!(
            drv.scratch_image.is_none(),
            "gps-only fault must not copy the camera image"
        );
        assert!(drv.scratch_lidar.is_none());
        assert_eq!(drv.injection_time(), Some(0.0));
    }

    #[test]
    fn scalar_only_fault_leaves_image_untouched() {
        // With a no-op scalar plan the neural agent must see the world's
        // own (unmodified) camera buffer: its control matches the clean
        // driver bit for bit. Under the old mandatory-model API every
        // input fault corrupted the image.
        use crate::fault::input::GpsFault;
        let mut w = world();
        let obs = w.observe();
        let mk = || {
            let mut n = IlNetwork::new(11);
            IlNetwork::from_weights(&n.to_weights()).unwrap()
        };
        let mut clean = AvDriver::neural(mk(), FaultSpec::None, 5);
        let noop = FaultSpec::Input(InputFault::scalar_only().with_gps(GpsFault {
            bias_x: 0.0,
            bias_y: 0.0,
            sigma: 0.0,
        }));
        let mut scalar = AvDriver::neural(mk(), noop, 5);
        assert_eq!(clean.drive_frame(&obs, &w), scalar.drive_frame(&obs, &w));
        assert!(scalar.scratch_image.is_none());
    }

    /// Every paper camera model, under both agents and three triggers
    /// (on from frame 0, on from frame 5, Bernoulli). One driver injects
    /// over the agent's own footprint on a world narrowed to its
    /// `footprint()`; the other injects over the whole image on a world
    /// that renders every row. Each frame gives the same
    /// control, the IL agent sees the same tensor, and the fault stream's
    /// next draw is the same. The later triggers sample the layout
    /// mid-run, and Bernoulli interleaves its own draws.
    #[test]
    fn agent_footprint_injects_as_the_whole_image_does() {
        use avfi_agent::features::image_to_tensor;
        use rand::RngExt;
        let tensor_bits = |img: &Option<Image>| {
            img.as_ref().map(|img| {
                let t = image_to_tensor(img);
                t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            })
        };
        let triggers = [
            Trigger::Always,
            Trigger::From { frame: 5 },
            Trigger::Bernoulli { p: 0.5 },
        ];
        for model in ImageFault::paper_suite() {
            for trigger in triggers {
                for neural in [false, true] {
                    let spec = FaultSpec::Input(InputFault {
                        trigger,
                        ..InputFault::always(model)
                    });
                    let make = || match neural {
                        true => AvDriver::neural(IlNetwork::new(11), spec.clone(), 5),
                        false => AvDriver::expert(spec.clone(), 5),
                    };
                    let (mut own, mut whole) = (make(), make());
                    whole.footprint = Some(PixelFootprint::whole(64, 48));
                    let (mut w_own, mut w_whole) = (world(), world());
                    w_own.narrow_to(own.footprint(64, 48));
                    for frame in 0..12 {
                        let (obs_own, obs_whole) = (w_own.observe(), w_whole.observe());
                        let at = format!(
                            "{} {trigger:?} neural={neural} frame {frame}",
                            model.label()
                        );
                        let control = own.drive_frame(&obs_own, &w_own);
                        assert_eq!(control, whole.drive_frame(&obs_whole, &w_whole), "{at}");
                        if neural {
                            assert_eq!(
                                tensor_bits(&own.scratch_image),
                                tensor_bits(&whole.scratch_image),
                                "{at}"
                            );
                        }
                        assert_eq!(
                            own.rng.clone().random::<u64>(),
                            whole.rng.clone().random::<u64>(),
                            "{at}"
                        );
                        w_own.step(control);
                        w_whole.step(control);
                    }
                    assert!(own.scratch_image.is_some(), "the fault never fired");
                }
            }
        }
    }

    /// The world renders the IL-CNN's grid rows under every fault but
    /// water drops, whose droplet centres can be anywhere, and nothing
    /// under the expert.
    #[test]
    fn footprint_is_the_agents_widened_for_water_drops() {
        use crate::fault::input::LidarFault;
        use crate::fault::ml::MlFault;
        use crate::localizer::ParamSelector;
        use avfi_agent::features::net_footprint;
        let camera = |model| FaultSpec::Input(InputFault::always(model));
        let mut faults: Vec<FaultSpec> = ImageFault::paper_suite().map(camera).to_vec();
        faults.extend([
            FaultSpec::None,
            FaultSpec::Input(
                InputFault::scalar_only().with_lidar(LidarFault::BeamDropout { p: 0.1 }),
            ),
            FaultSpec::Timing(TimingFault::OutputDelay { frames: 3 }),
            FaultSpec::Hardware(HardwareFault::always(
                HardwareTarget::SensorSpeed,
                BitFaultModel::StuckAt { value: 0.0 },
            )),
            FaultSpec::Ml(MlFault::WeightNoise {
                sigma: 0.1,
                fraction: 0.5,
                selector: ParamSelector::All,
            }),
        ]);
        for spec in faults {
            let water = matches!(
                &spec,
                FaultSpec::Input(InputFault {
                    model: Some(ImageFault::WaterDrop { .. }),
                    ..
                })
            );
            let neural = AvDriver::neural(IlNetwork::new(1), spec.clone(), 1);
            let want = match water {
                true => PixelFootprint::whole(64, 48),
                false => net_footprint(64, 48),
            };
            assert_eq!(neural.footprint(64, 48), want, "il-cnn under {spec:?}");
            let expert = AvDriver::expert(spec.clone(), 1).footprint(64, 48);
            assert_eq!(expert, PixelFootprint::default(), "expert under {spec:?}");
        }
    }

    /// Each ML fault corrupts only its run's clone of a prepared agent: a
    /// driver built from a clone after another clone took the same fault
    /// (and drives beside it) drives 100 frames exactly as one built from
    /// a fresh decode, with the same next fault-stream draw each frame.
    #[test]
    fn a_clone_of_the_prepared_agent_drives_as_a_fresh_decode() {
        use crate::fault::ml::MlFault;
        use crate::localizer::ParamSelector;
        use rand::RngExt;
        let weights = IlNetwork::new(12).to_weights();
        let prepared = Agent::Neural(IlNetwork::from_weights(&weights).unwrap());
        let faults = [
            MlFault::WeightNoise {
                sigma: 0.8,
                fraction: 1.0,
                selector: ParamSelector::All,
            },
            MlFault::WeightBitFlip {
                flips: 64,
                selector: ParamSelector::WeightsOnly,
            },
            MlFault::NeuronStuckAt {
                layer: 3,
                unit: 7,
                value: 10.0,
            },
        ];
        for fault in faults {
            let spec = FaultSpec::Ml(fault);
            let mut drivers = [
                AvDriver::new(prepared.clone(), spec.clone(), 6),
                AvDriver::new(prepared.clone(), spec.clone(), 6),
                AvDriver::neural(IlNetwork::from_weights(&weights).unwrap(), spec.clone(), 6),
            ];
            let mut worlds = [world(), world(), world()];
            for frame in 0..100 {
                let mut controls = Vec::new();
                for (driver, w) in drivers.iter_mut().zip(&mut worlds) {
                    let obs = w.observe();
                    let control = driver.drive_frame(&obs, w);
                    w.step(control);
                    controls.push((control, driver.rng.clone().random::<u64>()));
                }
                assert_eq!(controls[1], controls[2], "{spec:?} frame {frame}");
            }
        }
    }

    #[test]
    fn ml_fault_applied_at_construction() {
        let mut base = IlNetwork::new(12);
        let weights = base.to_weights();
        let spec = FaultSpec::Ml(crate::fault::ml::MlFault::WeightNoise {
            sigma: 0.8,
            fraction: 1.0,
            selector: crate::localizer::ParamSelector::All,
        });
        let mut w = world();
        let obs = w.observe();
        let mut clean = AvDriver::neural(
            IlNetwork::from_weights(&weights).unwrap(),
            FaultSpec::None,
            6,
        );
        let mut faulty = AvDriver::neural(IlNetwork::from_weights(&weights).unwrap(), spec, 6);
        assert_eq!(faulty.injection_time(), Some(0.0));
        let a = clean.drive_frame(&obs, &w);
        let b = faulty.drive_frame(&obs, &w);
        assert_ne!(a, b);
    }
}
