//! Campaign-service wire protocol: fault injection as a service.
//!
//! The lockstep [`Message`](crate::message::Message) protocol drives one
//! mission; this module defines the *campaign* protocol a persistent
//! `avfi-server` daemon speaks with many concurrent clients. Clients
//! submit serialized work plans, watch per-plan progress streams, cancel
//! plans, and retrieve results and traces by plan id — all as
//! length-prefixed frames over the same [`codec`](crate::codec) framing
//! (via [`TcpTransport::send_value`](crate::transport::TcpTransport::send_value) /
//! [`recv_value`](crate::transport::TcpTransport::recv_value)).
//!
//! ## Layering
//!
//! `avfi-net` sits *below* `avfi-core`, so plan, progress-event, result
//! and trace payloads cross this protocol as **opaque JSON strings**
//! (`plan_json`, `event_json`, …). The server and client crates own the
//! concrete types (`WorkPlan`, `ProgressEvent`, `StudyResult`,
//! `RunTrace`) and serialize them with the same `serde_json` the codec
//! uses, so a retrieved results payload is byte-identical to a local
//! serialization of the same value — the property the service's
//! determinism gate diffs on.
//!
//! ## Conversation shape
//!
//! One connection carries a sequence of request/reply exchanges. Every
//! request gets exactly one reply, except [`ServiceRequest::Watch`],
//! which streams [`ServiceReply::Event`] frames until the plan reaches a
//! terminal phase and then closes the exchange with
//! [`ServiceReply::WatchEnd`].

use crate::error::NetError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Server-assigned identifier of one submitted plan.
pub type PlanId = u64;

/// One client → server request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceRequest {
    /// Shared-secret authentication hello. When the daemon runs with an
    /// auth token, this must be the first frame on every connection;
    /// any other first frame — or a wrong token — is answered with
    /// [`ServiceReply::Error`] and the connection is closed. A daemon
    /// without a token accepts (and ignores) hellos.
    Hello {
        /// The shared secret.
        token: String,
    },
    /// Submit a serialized `WorkPlan` for execution.
    SubmitPlan {
        /// JSON-serialized `avfi_core::engine::WorkPlan`.
        plan_json: String,
        /// Flight-recorder level for the plan's runs
        /// (`"off"`, `"summary"`, or `"blackbox"`).
        trace_level: String,
    },
    /// Stream progress events for a plan, starting at event `from_event`
    /// (0 replays the full history), until the plan is terminal.
    Watch {
        /// The plan to watch.
        plan: PlanId,
        /// First event sequence number to deliver.
        from_event: usize,
    },
    /// Retrieve a plan's results, blocking until the plan is terminal.
    Results {
        /// The plan to read.
        plan: PlanId,
    },
    /// Retrieve the traces a plan's runs emitted, blocking until the
    /// plan is terminal.
    Traces {
        /// The plan to read.
        plan: PlanId,
    },
    /// Cancel a plan: unstarted runs are dropped, in-flight runs finish.
    Cancel {
        /// The plan to cancel.
        plan: PlanId,
    },
    /// Resume an interrupted plan recovered from the daemon's spool:
    /// journaled runs are reloaded, only the unjournaled gap re-executes,
    /// and the final results are byte-identical to an uninterrupted run.
    /// Idempotent — resuming a plan that is already running or terminal
    /// just reports its current state.
    Resume {
        /// The plan to resume.
        plan: PlanId,
    },
    /// Query a plan's lifecycle phase and completion counters.
    Status {
        /// The plan to query.
        plan: PlanId,
    },
    /// Ask the daemon to shut down cleanly.
    Shutdown,
}

/// One server → client reply frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceReply {
    /// Acknowledges a [`ServiceRequest::Hello`]: the connection is
    /// authenticated and regular requests are accepted.
    HelloOk,
    /// A plan was accepted and queued.
    Submitted {
        /// Server-assigned plan id.
        plan: PlanId,
        /// Total runs the plan flattens to.
        total_runs: usize,
    },
    /// One progress event of a watched plan.
    Event {
        /// The watched plan.
        plan: PlanId,
        /// Sequence number of this event within the plan's stream.
        seq: usize,
        /// JSON-serialized `avfi_core::engine::ProgressEvent`.
        event_json: String,
    },
    /// A watch stream ended because the plan reached a terminal phase.
    WatchEnd {
        /// The watched plan.
        plan: PlanId,
        /// The terminal phase.
        phase: PlanPhase,
    },
    /// A plan's results.
    Results {
        /// The plan.
        plan: PlanId,
        /// JSON-serialized `Vec<avfi_core::engine::StudyResult>`.
        results_json: String,
    },
    /// A plan's collected traces.
    Traces {
        /// The plan.
        plan: PlanId,
        /// JSON-serialized `Vec<(usize, avfi_trace::RunTrace)>`, keyed
        /// by flat plan index and sorted by it.
        traces_json: String,
    },
    /// Acknowledges a resume request: the plan is executing again (or
    /// was already past the point of needing a resume).
    Resumed {
        /// The plan.
        plan: PlanId,
        /// Phase after the resume took effect.
        phase: PlanPhase,
        /// Runs already recovered from the journal (or finished).
        completed: usize,
        /// Total runs in the plan.
        total: usize,
    },
    /// Acknowledges a cancel request.
    Cancelled {
        /// The plan.
        plan: PlanId,
        /// The phase after the cancel took effect (a plan that already
        /// completed stays `Completed`).
        phase: PlanPhase,
    },
    /// A plan's current status.
    Status {
        /// The plan.
        plan: PlanId,
        /// Current lifecycle phase.
        phase: PlanPhase,
        /// Runs finished so far.
        completed: usize,
        /// Total runs in the plan.
        total: usize,
    },
    /// Acknowledges a shutdown request; the daemon stops accepting work.
    ShuttingDown,
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable description.
        message: String,
    },
}

impl ServiceReply {
    /// Short tag for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceReply::HelloOk => "hello-ok",
            ServiceReply::Submitted { .. } => "submitted",
            ServiceReply::Event { .. } => "event",
            ServiceReply::WatchEnd { .. } => "watch-end",
            ServiceReply::Results { .. } => "results",
            ServiceReply::Traces { .. } => "traces",
            ServiceReply::Resumed { .. } => "resumed",
            ServiceReply::Cancelled { .. } => "cancelled",
            ServiceReply::Status { .. } => "status",
            ServiceReply::ShuttingDown => "shutting-down",
            ServiceReply::Error { .. } => "error",
        }
    }
}

/// Lifecycle phase of a submitted plan.
///
/// ```text
///            ┌──────────────► Cancelled ◄──────┬────────────┐
///            │                                 │            │
///  Queued ───┴──► Running ──┬──► Completed     │            │
///                           └──► Failed        │            │
///                                              │            │
///              Interrupted ────► Running ──────┘   (resume) │
///                    └──────────────────────────────────────┘
/// ```
///
/// Terminal phases (`Completed`, `Cancelled`, `Failed`) are absorbing.
/// `Interrupted` is never reached by a live transition — a daemon
/// restart *recovers* a non-terminal spooled plan into it (via
/// [`PlanLifecycle::starting_at`]); resuming moves it back to `Running`,
/// and it can still be cancelled outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanPhase {
    /// Accepted, no run claimed yet.
    Queued,
    /// At least one run claimed by a worker.
    Running,
    /// Recovered from a journal with runs still missing; awaiting resume.
    Interrupted,
    /// Every run finished; results are available.
    Completed,
    /// Cancelled before completion; no results.
    Cancelled,
    /// Execution failed; no results.
    Failed,
}

impl PlanPhase {
    /// `true` for absorbing phases (no further transitions).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            PlanPhase::Completed | PlanPhase::Cancelled | PlanPhase::Failed
        )
    }

    /// Whether the lifecycle state machine permits `self → to`.
    pub fn can_transition(self, to: PlanPhase) -> bool {
        matches!(
            (self, to),
            (PlanPhase::Queued, PlanPhase::Running)
                | (PlanPhase::Queued, PlanPhase::Cancelled)
                | (PlanPhase::Running, PlanPhase::Completed)
                | (PlanPhase::Running, PlanPhase::Cancelled)
                | (PlanPhase::Running, PlanPhase::Failed)
                | (PlanPhase::Interrupted, PlanPhase::Running)
                | (PlanPhase::Interrupted, PlanPhase::Cancelled)
        )
    }

    /// Phase name as it appears in CLI output.
    pub fn name(self) -> &'static str {
        match self {
            PlanPhase::Queued => "queued",
            PlanPhase::Running => "running",
            PlanPhase::Interrupted => "interrupted",
            PlanPhase::Completed => "completed",
            PlanPhase::Cancelled => "cancelled",
            PlanPhase::Failed => "failed",
        }
    }
}

impl fmt::Display for PlanPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Enforced plan lifecycle: a [`PlanPhase`] that only moves along legal
/// transitions. The campaign pool holds one per plan and moves it with
/// [`PlanLifecycle::advance_if_legal`], so a transition a race makes
/// illegal (a cancel landing after completion) leaves the phase as it
/// is; [`PlanLifecycle::advance`] reports the illegal transition as
/// [`NetError::Protocol`] instead.
#[derive(Debug, Clone)]
pub struct PlanLifecycle {
    phase: PlanPhase,
}

impl PlanLifecycle {
    /// A lifecycle starting in `phase`: [`PlanPhase::Queued`] for a fresh
    /// plan, or where spool recovery reloads a plan mid-lifecycle (e.g. at
    /// [`PlanPhase::Interrupted`]) instead of replaying its history.
    pub fn starting_at(phase: PlanPhase) -> Self {
        PlanLifecycle { phase }
    }

    /// The current phase.
    pub fn phase(&self) -> PlanPhase {
        self.phase
    }

    /// Advances to `to`.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] if the state machine forbids the
    /// transition; the phase is left unchanged.
    pub fn advance(&mut self, to: PlanPhase) -> Result<PlanPhase, NetError> {
        let from = self.phase();
        if !from.can_transition(to) {
            return Err(NetError::Protocol(format!(
                "illegal plan transition {from} → {to}"
            )));
        }
        self.phase = to;
        Ok(to)
    }

    /// Advances to `to` if legal; keeps the current phase otherwise
    /// (used where a race makes both outcomes valid, e.g. cancelling a
    /// plan that just completed).
    pub fn advance_if_legal(&mut self, to: PlanPhase) -> PlanPhase {
        let _ = self.advance(to);
        self.phase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_happy_path() {
        let mut l = PlanLifecycle::starting_at(PlanPhase::Queued);
        assert_eq!(l.phase(), PlanPhase::Queued);
        l.advance(PlanPhase::Running).unwrap();
        l.advance(PlanPhase::Completed).unwrap();
        assert!(l.phase().is_terminal());
    }

    #[test]
    fn cancel_is_legal_from_queued_and_running() {
        let mut l = PlanLifecycle::starting_at(PlanPhase::Queued);
        l.advance(PlanPhase::Cancelled).unwrap();
        let mut l = PlanLifecycle::starting_at(PlanPhase::Queued);
        l.advance(PlanPhase::Running).unwrap();
        l.advance(PlanPhase::Cancelled).unwrap();
    }

    #[test]
    fn terminal_phases_are_absorbing() {
        for terminal in [
            PlanPhase::Completed,
            PlanPhase::Cancelled,
            PlanPhase::Failed,
        ] {
            for next in [
                PlanPhase::Queued,
                PlanPhase::Running,
                PlanPhase::Interrupted,
                PlanPhase::Completed,
                PlanPhase::Cancelled,
                PlanPhase::Failed,
            ] {
                assert!(
                    !terminal.can_transition(next),
                    "{terminal} → {next} must be illegal"
                );
            }
        }
    }

    #[test]
    fn interrupted_resumes_or_cancels_only() {
        let mut l = PlanLifecycle::starting_at(PlanPhase::Interrupted);
        assert_eq!(l.phase(), PlanPhase::Interrupted);
        assert!(!l.phase().is_terminal());
        l.advance(PlanPhase::Running).unwrap();
        l.advance(PlanPhase::Completed).unwrap();

        let mut l = PlanLifecycle::starting_at(PlanPhase::Interrupted);
        l.advance(PlanPhase::Cancelled).unwrap();

        let mut l = PlanLifecycle::starting_at(PlanPhase::Interrupted);
        assert!(l.advance(PlanPhase::Completed).is_err());
        // A live plan never becomes Interrupted — only recovery starts
        // a lifecycle there.
        assert!(!PlanPhase::Running.can_transition(PlanPhase::Interrupted));
        assert!(!PlanPhase::Queued.can_transition(PlanPhase::Interrupted));
    }

    #[test]
    fn skipping_running_to_complete_is_illegal() {
        let mut l = PlanLifecycle::starting_at(PlanPhase::Queued);
        let err = l.advance(PlanPhase::Completed).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        assert_eq!(l.phase(), PlanPhase::Queued, "phase unchanged on error");
    }

    #[test]
    fn advance_if_legal_resolves_races_quietly() {
        let mut l = PlanLifecycle::starting_at(PlanPhase::Queued);
        l.advance(PlanPhase::Running).unwrap();
        l.advance(PlanPhase::Completed).unwrap();
        // A cancel racing completion loses without erroring.
        assert_eq!(
            l.advance_if_legal(PlanPhase::Cancelled),
            PlanPhase::Completed
        );
    }

    #[test]
    fn requests_roundtrip_through_json() {
        let reqs = [
            ServiceRequest::Hello {
                token: "secret".into(),
            },
            ServiceRequest::SubmitPlan {
                plan_json: "{\"studies\":[]}".into(),
                trace_level: "blackbox".into(),
            },
            ServiceRequest::Watch {
                plan: 7,
                from_event: 3,
            },
            ServiceRequest::Results { plan: 7 },
            ServiceRequest::Traces { plan: 7 },
            ServiceRequest::Cancel { plan: 7 },
            ServiceRequest::Resume { plan: 7 },
            ServiceRequest::Status { plan: 7 },
            ServiceRequest::Shutdown,
        ];
        for req in reqs {
            let s = serde_json::to_string(&req).unwrap();
            let back: ServiceRequest = serde_json::from_str(&s).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn replies_roundtrip_through_json() {
        let replies = [
            ServiceReply::HelloOk,
            ServiceReply::Submitted {
                plan: 1,
                total_runs: 12,
            },
            ServiceReply::Event {
                plan: 1,
                seq: 0,
                event_json: "{}".into(),
            },
            ServiceReply::WatchEnd {
                plan: 1,
                phase: PlanPhase::Completed,
            },
            ServiceReply::Results {
                plan: 1,
                results_json: "[]".into(),
            },
            ServiceReply::Traces {
                plan: 1,
                traces_json: "[]".into(),
            },
            ServiceReply::Resumed {
                plan: 1,
                phase: PlanPhase::Running,
                completed: 9,
                total: 12,
            },
            ServiceReply::Cancelled {
                plan: 1,
                phase: PlanPhase::Cancelled,
            },
            ServiceReply::Status {
                plan: 1,
                phase: PlanPhase::Running,
                completed: 3,
                total: 12,
            },
            ServiceReply::ShuttingDown,
            ServiceReply::Error {
                message: "no such plan".into(),
            },
        ];
        for reply in replies {
            let s = serde_json::to_string(&reply).unwrap();
            let back: ServiceReply = serde_json::from_str(&s).unwrap();
            assert_eq!(back, reply);
            assert!(!reply.kind().is_empty());
        }
    }
}
