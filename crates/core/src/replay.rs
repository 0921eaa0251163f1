//! Deterministic run replay: re-execute any recorded run from its trace
//! header and verify bit-identity frame by frame.
//!
//! A trace header carries the full run identity — scenario template,
//! `(scenario, run)` indices, fault plan, agent, and (for neural agents)
//! a weights fingerprint. Replay re-derives the per-run seed through the
//! same [`run_seed`](avfi_sim::rng::run_seed) the campaign used, asserts it matches the
//! recorded seed, re-executes the mission with the flight recorder on,
//! and compares everything the trace captured — summary, events, and the
//! black-box frame window — down to the bit pattern of every `f64`. The
//! first divergence (if any) is reported with its frame and field.

use crate::campaign::{run_mission, AgentSpec, TraceSpec, WorkerScratch};
use crate::fault::FaultSpec;
use avfi_nn::serialize::LoadWeightsError;
use avfi_sim::scenario::check_town_routes;
use avfi_trace::{fingerprint, RunTrace, TraceHeader};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Why a replay could not be attempted at all (distinct from a replay
/// that ran and diverged).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The embedded fault-spec JSON does not parse as a [`FaultSpec`].
    BadFaultSpec(String),
    /// The seed re-derived from the template and indices does not match
    /// the recorded seed — the trace is internally inconsistent.
    SeedMismatch {
        /// Seed stored in the header.
        recorded: u64,
        /// Seed derived from (template seed, scenario index, run index).
        derived: u64,
    },
    /// The header names an agent this build does not know.
    UnknownAgent(String),
    /// The trace was recorded with a neural agent but no weights were
    /// provided to replay against.
    MissingWeights,
    /// The provided weights fingerprint differs from the recorded one —
    /// replaying against different weights would "diverge" trivially.
    WeightsMismatch {
        /// Fingerprint stored in the header.
        recorded: u64,
        /// Fingerprint of the provided weights.
        provided: u64,
    },
    /// The provided weights do not decode into the IL-CNN.
    BadWeights(LoadWeightsError),
    /// The header's scenario or fault fails a check that a plan's
    /// scenarios and faults pass before any run (`Scenario::check`,
    /// `check_town_routes`, [`FaultSpec::check`]); holds the check's
    /// message.
    Refused(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadFaultSpec(e) => write!(f, "fault spec in trace is invalid: {e}"),
            ReplayError::SeedMismatch { recorded, derived } => write!(
                f,
                "trace seed {recorded:#x} does not match derived seed {derived:#x}"
            ),
            ReplayError::UnknownAgent(a) => write!(f, "unknown agent {a:?} in trace"),
            ReplayError::MissingWeights => {
                write!(
                    f,
                    "trace was recorded with il-cnn; weights required for replay"
                )
            }
            ReplayError::WeightsMismatch { recorded, provided } => write!(
                f,
                "weights fingerprint {provided:#x} does not match recorded {recorded:#x}"
            ),
            ReplayError::BadWeights(e) => write!(f, "weights do not decode: {e}"),
            ReplayError::Refused(problem) => write!(f, "trace header refused: {problem}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Where a replay first stopped matching the recording.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// What differed (summary field, event index, frame field, …).
    pub what: String,
    /// The frame of the first divergence, when frame-resolved.
    pub frame: Option<u64>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.frame {
            Some(frame) => write!(f, "frame {frame}: {}", self.what),
            None => f.write_str(&self.what),
        }
    }
}

/// Outcome of a replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayVerdict {
    /// The re-executed run reproduced the recording bit for bit.
    Match {
        /// Frames compared (the black-box window; 0 for summary traces).
        frames_checked: usize,
        /// Events compared.
        events_checked: usize,
    },
    /// The re-executed run differs; holds the first divergence.
    Diverged(Divergence),
}

impl ReplayVerdict {
    /// `true` when the replay matched.
    pub fn is_match(&self) -> bool {
        matches!(self, ReplayVerdict::Match { .. })
    }
}

/// Machine-readable digest of one replay attempt (the `replay --json`
/// output row; also consumable by external tooling).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayRecord {
    /// Trace file the attempt was made on.
    pub file: String,
    /// `"match"`, `"diverged"`, or `"error"`.
    pub status: String,
    /// Frames bit-compared (0 unless the replay ran to comparison).
    pub frames_checked: usize,
    /// Events compared.
    pub events_checked: usize,
    /// Frame of the first divergence, when frame-resolved.
    pub first_divergent_frame: Option<u64>,
    /// Divergence description or error message; `None` on a match.
    pub detail: Option<String>,
}

impl ReplayRecord {
    /// A record from a replay that ran to a verdict.
    pub fn from_verdict(file: &str, verdict: &ReplayVerdict) -> Self {
        match verdict {
            ReplayVerdict::Match {
                frames_checked,
                events_checked,
            } => ReplayRecord {
                file: file.to_string(),
                status: "match".to_string(),
                frames_checked: *frames_checked,
                events_checked: *events_checked,
                first_divergent_frame: None,
                detail: None,
            },
            ReplayVerdict::Diverged(d) => ReplayRecord {
                file: file.to_string(),
                status: "diverged".to_string(),
                frames_checked: 0,
                events_checked: 0,
                first_divergent_frame: d.frame,
                detail: Some(d.what.clone()),
            },
        }
    }

    /// A record from a replay that could not be attempted.
    pub fn from_error(file: &str, error: &dyn fmt::Display) -> Self {
        ReplayRecord {
            file: file.to_string(),
            status: "error".to_string(),
            frames_checked: 0,
            events_checked: 0,
            first_divergent_frame: None,
            detail: Some(error.to_string()),
        }
    }
}

/// Decodes what a trace header needs to re-execute its run: the fault
/// plan and the [`AgentSpec`], after checking that the header's seed is
/// the one its coordinates derive and fingerprint-checking `weights` for
/// neural traces (shared by replay and the shrinker). A header is read
/// from disk, so its scenario and fault must pass the checks that a
/// plan's pass before any run: a town the world cannot build, or a fault
/// over a cap, is refused instead of run.
///
/// # Errors
///
/// In this order: [`ReplayError::BadFaultSpec`] when the fault JSON does
/// not parse, [`ReplayError::SeedMismatch`] for an inconsistent seed,
/// [`ReplayError::Refused`] for a scenario that fails `Scenario::check`
/// or `check_town_routes` or a fault that fails [`FaultSpec::check`],
/// [`ReplayError::UnknownAgent`] for agent names this build does not
/// know, and [`ReplayError::MissingWeights`] /
/// [`ReplayError::WeightsMismatch`] for neural traces without (matching)
/// weights.
pub fn decode_header(
    header: &TraceHeader,
    weights: Option<&[u8]>,
) -> Result<(FaultSpec, AgentSpec), ReplayError> {
    let fault: FaultSpec = serde_json::from_str(&header.fault_spec_json)
        .map_err(|e| ReplayError::BadFaultSpec(e.to_string()))?;
    let derived = header.derived_seed();
    if derived != header.seed {
        return Err(ReplayError::SeedMismatch {
            recorded: header.seed,
            derived,
        });
    }
    header.scenario.check().map_err(ReplayError::Refused)?;
    check_town_routes(&header.scenario.town).map_err(ReplayError::Refused)?;
    fault
        .check()
        .map_err(|problem| ReplayError::Refused(format!("fault {problem}")))?;
    let agent = match header.agent.as_str() {
        "expert" => AgentSpec::Expert,
        "il-cnn" => {
            let bytes = weights.ok_or(ReplayError::MissingWeights)?;
            let provided = fingerprint(bytes);
            if let Some(recorded) = header.weights_fingerprint {
                if recorded != provided {
                    return Err(ReplayError::WeightsMismatch { recorded, provided });
                }
            }
            AgentSpec::Neural {
                weights: Arc::new(bytes.to_vec()),
            }
        }
        other => return Err(ReplayError::UnknownAgent(other.to_string())),
    };
    Ok((fault, agent))
}

/// Re-executes the run a trace records and verifies bit-identity.
///
/// `weights` must be the serialized IL-CNN weights when the trace was
/// recorded with the neural agent (checked against the recorded
/// fingerprint, then decoded once) and is ignored for expert traces.
///
/// # Errors
///
/// Returns a [`ReplayError`] when the replay cannot even be attempted
/// ([`decode_header`]'s errors, or [`ReplayError::BadWeights`]); a run
/// that executes but differs is a [`ReplayVerdict::Diverged`], not an
/// error.
pub fn replay_trace(
    trace: &RunTrace,
    weights: Option<&[u8]>,
) -> Result<ReplayVerdict, ReplayError> {
    let header = &trace.header;
    let (fault, agent) = decode_header(header, weights)?;
    let agent = agent.build().map_err(ReplayError::BadWeights)?;
    let spec = TraceSpec {
        level: header.level,
        study: header.study.clone(),
        blackbox_frames: header.blackbox_frames,
        weights_fingerprint: header.weights_fingerprint,
    };
    let (_, replayed) = run_mission(
        &header.scenario,
        header.scenario_index,
        header.run_index,
        &fault,
        &agent,
        Some(&spec),
        &mut WorkerScratch::default(),
    );
    let Some(replayed) = replayed else {
        // A black-box trace exists because the run failed; the replay not
        // emitting one means the re-executed run no longer fails.
        return Ok(ReplayVerdict::Diverged(Divergence {
            what: "replayed run did not fail (no trace emitted)".to_string(),
            frame: None,
        }));
    };
    Ok(match first_divergence(trace, &replayed) {
        Some(d) => ReplayVerdict::Diverged(d),
        None => ReplayVerdict::Match {
            frames_checked: trace.frames.len(),
            events_checked: trace.events.len(),
        },
    })
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

/// Compares a recording against its replay, returning the first
/// difference. All `f64` comparisons are on bit patterns.
fn first_divergence(recorded: &RunTrace, replayed: &RunTrace) -> Option<Divergence> {
    let flat = |what: &str| {
        Some(Divergence {
            what: what.to_string(),
            frame: None,
        })
    };

    let (a, b) = (&recorded.summary, &replayed.summary);
    if a.success != b.success || a.outcome != b.outcome {
        return flat(&format!(
            "outcome differs: recorded {:?}, replayed {:?}",
            a.outcome, b.outcome
        ));
    }
    if bits(a.duration) != bits(b.duration) {
        return flat(&format!(
            "duration differs: recorded {}, replayed {}",
            a.duration, b.duration
        ));
    }
    if bits(a.distance_km) != bits(b.distance_km) {
        return flat(&format!(
            "distance differs: recorded {}, replayed {}",
            a.distance_km, b.distance_km
        ));
    }
    if a.violations != b.violations {
        return flat(&format!(
            "violation count differs: recorded {}, replayed {}",
            a.violations, b.violations
        ));
    }
    if a.injection_time.map(bits) != b.injection_time.map(bits) {
        return flat(&format!(
            "injection time differs: recorded {:?}, replayed {:?}",
            a.injection_time, b.injection_time
        ));
    }

    for (i, (x, y)) in recorded.events.iter().zip(&replayed.events).enumerate() {
        if x != y {
            return Some(Divergence {
                what: format!("event {i} differs: recorded {x:?}, replayed {y:?}"),
                frame: Some(x.frame()),
            });
        }
    }
    if recorded.events.len() != replayed.events.len() {
        return flat(&format!(
            "event count differs: recorded {}, replayed {}",
            recorded.events.len(),
            replayed.events.len()
        ));
    }

    for (x, y) in recorded.frames.iter().zip(&replayed.frames) {
        let fields = [
            ("time", x.time, y.time),
            ("x", x.position.x, y.position.x),
            ("y", x.position.y, y.position.y),
            ("heading", x.heading, y.heading),
            ("speed", x.speed, y.speed),
            ("steer", x.control.steer, y.control.steer),
            ("throttle", x.control.throttle, y.control.throttle),
            ("brake", x.control.brake, y.control.brake),
        ];
        if x.frame != y.frame {
            return Some(Divergence {
                what: format!(
                    "frame numbering differs: recorded {}, replayed {}",
                    x.frame, y.frame
                ),
                frame: Some(x.frame),
            });
        }
        for (name, rec, rep) in fields {
            if bits(rec) != bits(rep) {
                return Some(Divergence {
                    what: format!("{name} differs: recorded {rec}, replayed {rep}"),
                    frame: Some(x.frame),
                });
            }
        }
    }
    if recorded.frames.len() != replayed.frames.len() {
        return flat(&format!(
            "frame count differs: recorded {}, replayed {}",
            recorded.frames.len(),
            replayed.frames.len()
        ));
    }
    if recorded.dropped_frames != replayed.dropped_frames {
        return flat(&format!(
            "dropped-frame count differs: recorded {}, replayed {}",
            recorded.dropped_frames, replayed.dropped_frames
        ));
    }
    None
}
