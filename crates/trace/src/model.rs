//! The trace data model: detail levels, run identity, events, and the
//! assembled [`RunTrace`].

use avfi_sim::recorder::TrajectorySample;
use avfi_sim::scenario::Scenario;
use avfi_sim::violation::ViolationKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How much detail the flight recorder captures per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TraceLevel {
    /// No tracing (zero overhead; nothing is written).
    #[default]
    Off,
    /// Events only (trigger firings, injections, violations); a small
    /// trace is written for *every* run.
    Summary,
    /// Events plus a bounded ring of the last N seconds of full-detail
    /// frames; the ring is flushed to disk **only when the run fails**,
    /// so campaign-scale memory and disk stay constant.
    Blackbox,
}

impl TraceLevel {
    /// Parses a command-line level name.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "summary" => Some(TraceLevel::Summary),
            "blackbox" => Some(TraceLevel::Blackbox),
            _ => None,
        }
    }

    /// The command-line name of the level.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Summary => "summary",
            TraceLevel::Blackbox => "blackbox",
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for TraceLevel {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<TraceLevel, Self::Err> {
        TraceLevel::parse(s).ok_or("expected off, summary or blackbox")
    }
}

/// Which fault-injection channel an injection event perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultChannel {
    /// Camera image corruption (input FI).
    Image,
    /// GPS fix corruption (input FI).
    Gps,
    /// Speedometer corruption (input FI).
    Speed,
    /// LIDAR sweep corruption (input FI).
    Lidar,
    /// Bit-level fault on a sensor scalar (hardware FI).
    SensorHardware,
    /// Bit-level fault on the control command (hardware FI).
    ControlHardware,
    /// Delay/drop/reorder between ADA and actuation (timing FI).
    Timing,
    /// IL-CNN parameter/neuron corruption (ML FI, applied at t = 0).
    Ml,
}

impl FaultChannel {
    /// All channels, in codec tag order (the tag is the index here).
    pub const ALL: [FaultChannel; 8] = [
        FaultChannel::Image,
        FaultChannel::Gps,
        FaultChannel::Speed,
        FaultChannel::Lidar,
        FaultChannel::SensorHardware,
        FaultChannel::ControlHardware,
        FaultChannel::Timing,
        FaultChannel::Ml,
    ];

    /// Short label for triage tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultChannel::Image => "image",
            FaultChannel::Gps => "gps",
            FaultChannel::Speed => "speed",
            FaultChannel::Lidar => "lidar",
            FaultChannel::SensorHardware => "hw-sensor",
            FaultChannel::ControlHardware => "hw-control",
            FaultChannel::Timing => "timing",
            FaultChannel::Ml => "ml",
        }
    }
}

impl fmt::Display for FaultChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded event. Events are stored in frame order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The fault plan's trigger gate passed for the first time — the
    /// scheduled fault became active (t₀ of the activation chain).
    TriggerFired {
        /// Frame of the first activation.
        frame: u64,
    },
    /// A fault channel started actually perturbing the run (onset edge;
    /// a contiguous active episode emits one event).
    Injection {
        /// First frame of the perturbation episode.
        frame: u64,
        /// Which channel was perturbed.
        channel: FaultChannel,
    },
    /// The traffic monitor recorded a violation.
    Violation {
        /// Frame of the violation.
        frame: u64,
        /// Simulation time, seconds.
        time: f64,
        /// What happened.
        kind: ViolationKind,
        /// Ego x position, meters.
        x: f64,
        /// Ego y position, meters.
        y: f64,
        /// Ego odometer at the time, meters.
        odometer: f64,
    },
}

impl TraceEvent {
    /// The frame the event occurred on.
    pub fn frame(&self) -> u64 {
        match *self {
            TraceEvent::TriggerFired { frame }
            | TraceEvent::Injection { frame, .. }
            | TraceEvent::Violation { frame, .. } => frame,
        }
    }
}

/// Full identity of a recorded run: everything needed to re-execute it
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Study name from the work plan.
    pub study: String,
    /// Campaign fault label (e.g. `"Gaussian"`, `"delay 30f"`).
    pub fault: String,
    /// Agent name (`"expert"` or `"il-cnn"`).
    pub agent: String,
    /// Scenario index within the campaign.
    pub scenario_index: usize,
    /// Run index within the scenario.
    pub run_index: usize,
    /// Derived per-run seed the run actually used (replay re-derives it
    /// from the template and asserts equality).
    pub seed: u64,
    /// The campaign's scenario *template* (template seed, not the derived
    /// one) — replay goes through the same derivation as the original run.
    pub scenario: Scenario,
    /// The fault plan as JSON (`avfi_core::FaultSpec` serialization; kept
    /// opaque here so the trace crate stays below the injector crate).
    pub fault_spec_json: String,
    /// FNV-1a fingerprint of the neural agent's serialized weights, when
    /// the agent is neural — replay refuses to compare against different
    /// weights.
    pub weights_fingerprint: Option<u64>,
    /// Detail level the trace was captured at.
    pub level: TraceLevel,
    /// Ring capacity in frames at `blackbox` level (0 at `summary`).
    pub blackbox_frames: usize,
}

impl TraceHeader {
    /// Re-derives the per-run seed from the scenario template and the
    /// `(scenario, run)` indices — the same `avfi_sim::rng::run_seed`
    /// every campaign run takes. Consumers (replay, the shrinker) compare
    /// this against [`TraceHeader::seed`] to detect internally
    /// inconsistent traces.
    pub fn derived_seed(&self) -> u64 {
        avfi_sim::rng::run_seed(self.scenario.seed, self.scenario_index, self.run_index)
    }
}

/// Outcome digest of the traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Whether the mission succeeded.
    pub success: bool,
    /// Outcome name: `"success"`, `"timeout"`, or `"stuck"`.
    pub outcome: String,
    /// Simulated duration, seconds.
    pub duration: f64,
    /// Distance driven, kilometers.
    pub distance_km: f64,
    /// Total violations recorded.
    pub violations: usize,
    /// Simulation time of the first injection, if any.
    pub injection_time: Option<f64>,
}

/// One run's complete flight-recorder trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Run identity (sufficient for exact re-execution).
    pub header: TraceHeader,
    /// Outcome digest.
    pub summary: TraceSummary,
    /// Events in frame order.
    pub events: Vec<TraceEvent>,
    /// Frame stream in chronological order. At `blackbox` level this is
    /// the tail window the ring retained; empty at `summary` level.
    pub frames: Vec<TrajectorySample>,
    /// Frames the bounded ring overwrote (evidence the window was full).
    pub dropped_frames: u64,
    /// Harness events dropped past the per-run event cap (0 in practice;
    /// nonzero only for pathological intermittent triggers).
    pub dropped_events: u64,
}

impl RunTrace {
    /// Whether the traced run counts as a *failure* for black-box flush
    /// and triage purposes: the mission did not succeed, or any traffic
    /// violation occurred.
    pub fn is_failure(&self) -> bool {
        !self.summary.success || self.summary.violations > 0
    }

    /// The first violation event, if any.
    pub fn first_violation(&self) -> Option<&TraceEvent> {
        self.events
            .iter()
            .find(|e| matches!(e, TraceEvent::Violation { .. }))
    }

    /// The last injection event at or before `frame`, if any — the
    /// injection that causally preceded whatever happened at `frame`.
    pub fn last_injection_before(&self, frame: u64) -> Option<(u64, FaultChannel)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Injection { frame: f, channel } if f <= frame => Some((f, channel)),
                _ => None,
            })
            .next_back()
    }
}

/// FNV-1a fingerprint of a byte slice (used for the weights fingerprint
/// and the codec checksum).
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_roundtrip() {
        for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Blackbox] {
            assert_eq!(TraceLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
    }

    #[test]
    fn channel_tags_are_stable() {
        for (i, ch) in FaultChannel::ALL.iter().enumerate() {
            assert_eq!(FaultChannel::ALL[i], *ch);
        }
        assert_eq!(FaultChannel::ALL.len(), 8);
    }

    #[test]
    fn event_frame_accessor() {
        assert_eq!(TraceEvent::TriggerFired { frame: 7 }.frame(), 7);
        assert_eq!(
            TraceEvent::Injection {
                frame: 9,
                channel: FaultChannel::Gps
            }
            .frame(),
            9
        );
    }

    #[test]
    fn fingerprint_differs_on_flip() {
        let a = fingerprint(b"hello");
        let mut flipped = b"hello".to_vec();
        flipped[2] ^= 1;
        assert_ne!(a, fingerprint(&flipped));
        assert_eq!(a, fingerprint(b"hello"));
    }
}
