//! # avfi-server — fault injection as a service
//!
//! AVFI frames campaign execution as a client/server system: the
//! simulation cluster runs campaigns while experimenters submit work and
//! pull results from the outside. This crate is that seam for the
//! reproduction — a persistent daemon ([`CampaignServer`]) that accepts
//! serialized [`WorkPlan`]s from many concurrent TCP clients, multiplexes
//! every plan onto one shared [`MultiplexPool`], streams per-plan
//! progress events back as frames, and serves results and traces by plan
//! id; plus the matching client library ([`ServiceClient`]) the
//! `avfi-client` CLI wraps.
//!
//! ## Protocol
//!
//! The wire format is the [`avfi_net::proto`] campaign protocol:
//! [`ServiceRequest`] / [`ServiceReply`] frames over the same
//! length-prefixed framing the lockstep simulation loop uses. Plan,
//! event, result, and trace payloads are opaque JSON strings on the wire
//! (`avfi-net` sits below `avfi-core`); this crate owns the concrete
//! types on both ends and serializes them with the same `serde_json`,
//! so a retrieved results payload is **byte-identical** to a local
//! `serde_json::to_string` of the same solo [`Engine`] run — the
//! property the determinism gate diffs on.
//!
//! ## Concurrency model
//!
//! One thread per connection, up to [`MAX_CONNECTIONS`] at once, all
//! submissions landing in one shared [`MultiplexPool`] (fair round-robin
//! across plans, per-plan cancellation). The daemon's state (the pool, the
//! plan registry, the shutdown flag and its settings) has one owner, which
//! [`CampaignServer::run`] shares with every connection thread through one
//! `Arc`. Client disconnects never abort a
//! running plan: the server's plan registry keeps the [`PlanTicket`] until
//! shutdown, so a client can drop mid-watch and later fetch results over
//! a fresh connection. Plans recovered from the spool live in the same
//! registry: an interrupted one is a parked ticket that
//! [`ServiceRequest::Resume`] moves into the rotation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

use avfi_core::campaign::{AgentSpec, CampaignConfig};
use avfi_core::engine::{
    Engine, MultiplexPool, NullSink, PlanError, PlanTicket, RecoveredSubmission, RunSink,
};
use avfi_core::fault::timing::TimingFault;
use avfi_core::fault::FaultSpec;
use avfi_core::{ProgressEvent, StudyResult, WorkPlan};
use avfi_net::proto::{PlanId, PlanPhase, ServiceReply, ServiceRequest};
use avfi_net::{NetError, TcpTransport};
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_store::{Journal, PlanJournal};
use avfi_trace::{RunTrace, TraceLevel};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The campaign daemon: accepts connections, executes submitted plans on
/// one shared pool, serves progress/results/traces by plan id.
#[derive(Debug)]
pub struct CampaignServer {
    listener: TcpListener,
    daemon: Daemon,
}

/// The daemon's state, with one owner: [`CampaignServer::run`] wraps it in
/// one `Arc`, and every connection's [`ConnectionPlace`] holds a clone.
#[derive(Debug)]
struct Daemon {
    /// The address the daemon bound; a shutdown request dials it once to
    /// wake the accept loop.
    addr: SocketAddr,
    pool: MultiplexPool,
    /// Plans the daemon has accepted or recovered, kept until shutdown so
    /// results outlive the submitting connection.
    registry: parking_lot::Mutex<BTreeMap<PlanId, PlanTicket>>,
    shutdown: AtomicBool,
    retention: Option<Duration>,
    auth_token: Option<String>,
    /// Durable-spool directory of a daemon running `--spool`.
    spool: Option<PathBuf>,
    /// Live connections, at most [`MAX_CONNECTIONS`].
    live: AtomicUsize,
}

impl CampaignServer {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port) with
    /// `workers` pool threads (0 = one per core).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, workers: usize) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(CampaignServer {
            listener,
            daemon: Daemon {
                addr,
                pool: MultiplexPool::new(workers),
                registry: parking_lot::Mutex::new(BTreeMap::new()),
                shutdown: AtomicBool::new(false),
                retention: None,
                auth_token: None,
                spool: None,
                live: AtomicUsize::new(0),
            },
        })
    }

    /// Attaches a durable spool: every accepted plan is write-ahead
    /// journaled into `dir` (`plan-<id>.avj`, traces under `plan-<id>/`),
    /// and journals already in `dir` are recovered immediately — terminal
    /// plans reload as fetchable results, a journal holding every run
    /// reloads completed, and interrupted plans re-enter the pool right
    /// away when `auto_resume` is set or park until a
    /// [`ServiceRequest::Resume`] otherwise. `None` (the default) keeps
    /// all plan state in memory only.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating or scanning the spool directory.
    pub fn with_spool(mut self, dir: Option<PathBuf>, auto_resume: bool) -> Result<Self, NetError> {
        let daemon = &mut self.daemon;
        let Some(dir) = dir else {
            daemon.spool = None;
            return Ok(self);
        };
        std::fs::create_dir_all(&dir)?;
        // A refused journal's id, and so its trace directory, is never
        // handed out again.
        let refused = avfi_store::list_refused_journals(&dir)?;
        let mut max_id = refused.last().map_or(0, |(id, _)| *id);
        for (id, path) in avfi_store::list_journals(&dir)? {
            max_id = max_id.max(id);
            if let Some(ticket) = recover_journal(&daemon.pool, &dir, id, &path) {
                if auto_resume {
                    ticket.resume();
                }
                daemon.registry.get_mut().insert(id, ticket);
            }
        }
        daemon.pool.reserve_plan_ids(max_id);
        daemon.spool = Some(dir);
        Ok(self)
    }

    /// Limits how long finished plans keep their result and trace
    /// payloads: any plan terminal for longer than `retention` has its
    /// payloads evicted on the next request the daemon serves. Lifecycle
    /// status (phase, run counters) stays queryable after eviction;
    /// result/trace fetches return a protocol error naming the eviction.
    /// `None` (the default) retains payloads until shutdown.
    pub fn with_retention(mut self, retention: Option<Duration>) -> Self {
        self.daemon.retention = retention;
        self
    }

    /// Requires every connection to open with a
    /// [`ServiceRequest::Hello`] carrying this shared secret before any
    /// other request is served. A wrong token — or any non-hello first
    /// frame — gets a [`ServiceReply::Error`] and the connection is
    /// closed; nothing about the daemon's state is revealed first. A
    /// first frame longer than [`HELLO_FRAME_CAP`] is not read at all:
    /// the connection is closed as soon as its length prefix arrives.
    /// `None` (the default) serves every connection unauthenticated.
    pub fn with_auth_token(mut self, token: Option<String>) -> Self {
        self.daemon.auth_token = token;
        self
    }

    /// The address the daemon actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.addr
    }

    /// Serves connections until a client sends [`ServiceRequest::Shutdown`].
    /// Each connection gets its own thread; plans keep running when their
    /// submitter disconnects. On shutdown every plan that is not parked is
    /// cancelled (a terminal one stays as it is) and the call returns;
    /// parked (interrupted) plans are left as they are, so the next daemon
    /// over the spool recovers them interrupted again.
    ///
    /// While [`MAX_CONNECTIONS`] connections are live, the next one gets
    /// one [`ServiceReply::Error`] frame naming the cap, before anything
    /// is read from it, and is closed; a live connection's place frees
    /// when its handler returns.
    ///
    /// Nothing else ends the loop. A failed accept (say, out of file
    /// descriptors) is logged and retried after [`ACCEPT_RETRY_PAUSE`],
    /// and a connection whose handler thread cannot start is logged and
    /// closed.
    ///
    /// # Errors
    ///
    /// None: the loop returns only on shutdown.
    pub fn run(self) -> Result<(), NetError> {
        let daemon = Arc::new(self.daemon);
        for conn in self.listener.incoming() {
            if daemon.shutdown.load(Ordering::Acquire) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("[avfi-server] accept failed, retrying: {e}");
                    std::thread::sleep(ACCEPT_RETRY_PAUSE);
                    continue;
                }
            };
            let Some(place) = ConnectionPlace::claim(&daemon) else {
                refuse_over_cap(stream);
                continue;
            };
            // Detached: a handler blocked on an idle client's next request
            // must not delay shutdown; the process owns thread lifetime.
            // A handler that cannot start drops the stream and the place
            // with its closure, which closes the connection and frees the
            // place.
            let spawned = std::thread::Builder::new()
                .name("avfi-conn".into())
                .spawn(move || place.serve(stream));
            if let Err(e) = spawned {
                eprintln!("[avfi-server] cannot start a connection handler, closing it: {e}");
            }
        }
        for ticket in daemon.registry.lock().values() {
            if ticket.phase() != PlanPhase::Interrupted {
                ticket.cancel();
            }
        }
        Ok(())
    }
}

/// Most connections [`CampaignServer::run`] serves at once: 64. Each live
/// connection holds a handler thread and a descriptor, so the cap bounds
/// what idle peers can hold. It is far above what the repository's
/// clients open at once (the benchmark's served workload holds at most 8
/// connections, the soak test 6), and 64 idle handlers cost little, so it
/// is a constant and not a setting.
pub const MAX_CONNECTIONS: usize = 64;

/// One live connection's place under [`MAX_CONNECTIONS`], and its
/// handler's share of the daemon. The place frees when dropped: by its
/// handler thread when [`ConnectionPlace::serve`] returns, or with the
/// spawn closure when the thread cannot start.
struct ConnectionPlace(Arc<Daemon>);

impl ConnectionPlace {
    /// Takes a place, or `None` while `MAX_CONNECTIONS` are taken.
    fn claim(daemon: &Arc<Daemon>) -> Option<Self> {
        daemon
            .live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < MAX_CONNECTIONS).then_some(n + 1)
            })
            .ok()
            .map(|_| ConnectionPlace(Arc::clone(daemon)))
    }

    /// Serves the connection, then frees the place.
    fn serve(self, stream: TcpStream) {
        self.0.handle_connection(stream);
    }
}

impl Drop for ConnectionPlace {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Answers a connection over [`MAX_CONNECTIONS`] with one error frame and
/// closes it, reading nothing. The frame is far smaller than a fresh
/// socket's send buffer, so the accept loop never waits on the peer.
fn refuse_over_cap(stream: TcpStream) {
    let Ok(mut transport) = TcpTransport::new(stream) else {
        return;
    };
    let _ = transport.send_value(&ServiceReply::Error {
        message: format!(
            "connection refused: the daemon serves at most {MAX_CONNECTIONS} \
             connections at once; retry when one closes"
        ),
    });
}

/// How long [`CampaignServer::run`] waits after a failed accept before it
/// accepts again: 100 ms. Out of file descriptors (`EMFILE`), every
/// accept fails until some connection closes; the pause keeps the loop
/// from spinning and its log to ten lines a second.
pub const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(100);

/// Largest first frame, in payload bytes, that a daemon with an auth token
/// reads before the hello: 4 KiB. A [`ServiceRequest::Hello`] frame is its
/// token plus about 20 bytes of JSON, so any token up to about 4 KB fits.
/// A longer length prefix closes the connection before its payload is
/// read, so an unauthenticated peer cannot make the daemon buffer more
/// than one read window.
pub const HELLO_FRAME_CAP: usize = 4 * 1024;

/// Gates a fresh connection on the shared secret. With no token
/// configured this is a no-op (the serve loop still answers voluntary
/// hellos); with one, the first frame must be a matching
/// [`ServiceRequest::Hello`] — anything else is answered with a protocol
/// error and `Err` tells the caller to drop the connection. The error
/// message does not distinguish a wrong token from a missing hello, so a
/// probe learns nothing beyond "authentication failed". A first frame that
/// cannot be read (a hangup, junk, or a length prefix over
/// [`HELLO_FRAME_CAP`]) gets no reply.
fn authenticate(transport: &mut TcpTransport, auth_token: Option<&str>) -> Result<(), ()> {
    let Some(expected) = auth_token else {
        return Ok(());
    };
    let request: ServiceRequest = transport
        .recv_value_within(HELLO_FRAME_CAP)
        .map_err(|_| ())?;
    match request {
        ServiceRequest::Hello { token } if token == expected => {
            transport.send_value(&ServiceReply::HelloOk).map_err(|_| ())
        }
        _ => {
            // Best-effort courtesy reply; the close is the real answer.
            let _ = transport.send_value(&ServiceReply::Error {
                message: "authentication failed: this daemon requires a valid \
                          hello token as the first request"
                    .into(),
            });
            Err(())
        }
    }
}

impl Daemon {
    /// Serves one connection: a loop of request/reply exchanges. Returns
    /// (and drops the connection) when the client disconnects or breaks
    /// framing; submitted plans are unaffected either way.
    fn handle_connection(&self, stream: TcpStream) {
        let Ok(mut transport) = TcpTransport::new(stream) else {
            return;
        };
        if authenticate(&mut transport, self.auth_token.as_deref()).is_err() {
            return;
        }
        loop {
            let request: ServiceRequest = match transport.recv_value() {
                Ok(r) => r,
                // Disconnect, torn frame, or junk: this client is done.
                Err(_) => return,
            };
            self.sweep_expired();
            if self.serve_request(&mut transport, request).is_err() {
                // The client vanished mid-reply (e.g. dropped during a
                // watch stream); its plans keep running for later
                // retrieval.
                return;
            }
        }
    }

    /// Handles one request, sending every reply frame it produces. `Err`
    /// means the *connection* failed; request-level failures are reported
    /// to the client as [`ServiceReply::Error`] and return `Ok`.
    fn serve_request(
        &self,
        transport: &mut TcpTransport,
        request: ServiceRequest,
    ) -> Result<(), NetError> {
        match request {
            // Authenticated connections (and open daemons) answer
            // voluntary hellos idempotently, so a client configured with a
            // token works against a daemon running without one.
            ServiceRequest::Hello { .. } => transport.send_value(&ServiceReply::HelloOk),
            ServiceRequest::SubmitPlan {
                plan_json,
                trace_level,
            } => {
                let Some(level) = TraceLevel::parse(&trace_level) else {
                    return transport.send_value(&ServiceReply::Error {
                        message: format!("unknown trace level {trace_level:?}"),
                    });
                };
                let submitted = match serde_json::from_str::<WorkPlan>(&plan_json) {
                    Err(e) => Err(format!("malformed plan: {e}")),
                    Ok(plan) => self
                        .pool
                        .submit_spooled(plan, level, |id| {
                            let dir = self.spool.as_deref()?;
                            open_plan_journal(dir, id, plan_json, level)
                        })
                        .map_err(|e| format!("invalid plan: {e}")),
                };
                match submitted {
                    Ok(ticket) => {
                        self.registry.lock().insert(ticket.id(), ticket.clone());
                        transport.send_value(&ServiceReply::Submitted {
                            plan: ticket.id(),
                            total_runs: ticket.total_runs(),
                        })
                    }
                    Err(message) => transport.send_value(&ServiceReply::Error { message }),
                }
            }
            ServiceRequest::Watch { plan, from_event } => {
                let ticket = match self.servable(plan) {
                    Ok(ticket) => ticket,
                    Err(reply) => return transport.send_value(&reply),
                };
                let mut next = from_event;
                loop {
                    let (events, phase) = ticket.wait_events_after(next);
                    for e in &events {
                        let event_json = serde_json::to_string(&e.event)
                            .map_err(|err| NetError::Codec(err.to_string()))?;
                        transport.send_value(&ServiceReply::Event {
                            plan,
                            seq: e.seq,
                            event_json,
                        })?;
                    }
                    next += events.len();
                    if phase.is_terminal() {
                        // The snapshot and the phase come from one lock
                        // hold, so a terminal phase means the log above is
                        // complete.
                        return transport.send_value(&ServiceReply::WatchEnd { plan, phase });
                    }
                }
            }
            ServiceRequest::Results { plan } => {
                let ticket = match self.servable(plan) {
                    Ok(ticket) => ticket,
                    Err(reply) => return transport.send_value(&reply),
                };
                if ticket.is_evicted() {
                    return send_evicted(transport, plan);
                }
                match ticket.wait_results() {
                    Some(results) => {
                        let results_json = serde_json::to_string(&results)
                            .map_err(|e| NetError::Codec(e.to_string()))?;
                        transport.send_value(&ServiceReply::Results { plan, results_json })
                    }
                    None => transport.send_value(&ServiceReply::Error {
                        message: format!("plan {plan} has no results (phase {})", ticket.phase()),
                    }),
                }
            }
            ServiceRequest::Traces { plan } => {
                let ticket = match self.servable(plan) {
                    Ok(ticket) => ticket,
                    Err(reply) => return transport.send_value(&reply),
                };
                ticket.wait_terminal();
                let traces = ticket.traces();
                // Checked after reading, since a sweep may delete a
                // spooled plan's trace files mid-read: every trace or the
                // error.
                if ticket.is_evicted() {
                    return send_evicted(transport, plan);
                }
                let traces_json =
                    serde_json::to_string(&traces).map_err(|e| NetError::Codec(e.to_string()))?;
                transport.send_value(&ServiceReply::Traces { plan, traces_json })
            }
            ServiceRequest::Cancel { plan } => {
                let Some(ticket) = self.lookup(plan) else {
                    return transport.send_value(&unknown_plan(plan));
                };
                let phase = ticket.cancel();
                transport.send_value(&ServiceReply::Cancelled { plan, phase })
            }
            ServiceRequest::Resume { plan } => {
                // Idempotent on live and recovered-terminal plans: report
                // the current state instead of erroring.
                let Some(ticket) = self.lookup(plan) else {
                    return transport.send_value(&unknown_plan(plan));
                };
                transport.send_value(&ServiceReply::Resumed {
                    plan,
                    phase: ticket.resume(),
                    completed: ticket.completed_runs(),
                    total: ticket.total_runs(),
                })
            }
            ServiceRequest::Status { plan } => {
                let Some(ticket) = self.lookup(plan) else {
                    return transport.send_value(&unknown_plan(plan));
                };
                transport.send_value(&ServiceReply::Status {
                    plan,
                    phase: ticket.phase(),
                    completed: ticket.completed_runs(),
                    total: ticket.total_runs(),
                })
            }
            ServiceRequest::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                let ack = transport.send_value(&ServiceReply::ShuttingDown);
                // Unblock the accept loop so it observes the flag; the
                // throwaway connection is dropped immediately.
                drop(TcpStream::connect(self.addr));
                ack
            }
        }
    }

    /// The retention sweep: evicts result/trace payloads of every plan
    /// that has been terminal for longer than the retention window. Runs
    /// opportunistically before each request is served — a daemon
    /// receiving no requests hoards nothing new, so there is no need for
    /// a timer thread. Tickets stay in the registry (status keeps
    /// working); only the payloads go — including the plan's spooled
    /// journal and trace files when a spool is attached, so eviction
    /// reclaims disk as well as memory.
    fn sweep_expired(&self) {
        let Some(retention) = self.retention else {
            return;
        };
        // Clone the tickets out so payload eviction (which takes per-plan
        // locks) never runs under the registry lock.
        let tickets: Vec<PlanTicket> = self.registry.lock().values().cloned().collect();
        for ticket in tickets {
            if !ticket.is_evicted()
                && ticket
                    .finished_elapsed()
                    .is_some_and(|age| age >= retention)
            {
                ticket.evict_payloads();
                if let Some(dir) = &self.spool {
                    let id = ticket.id();
                    let _ = std::fs::remove_file(dir.join(avfi_store::journal_file_name(id)));
                    let _ = std::fs::remove_dir_all(dir.join(avfi_store::trace_dir_name(id)));
                }
            }
        }
    }

    fn lookup(&self, plan: PlanId) -> Option<PlanTicket> {
        self.registry.lock().get(&plan).cloned()
    }

    /// The ticket whose events and payloads a request may be served from,
    /// or the error reply: unknown plans, and parked plans, which must be
    /// resumed first.
    fn servable(&self, plan: PlanId) -> Result<PlanTicket, ServiceReply> {
        match self.lookup(plan) {
            Some(ticket) if ticket.phase() == PlanPhase::Interrupted => Err(ServiceReply::Error {
                message: format!(
                    "plan {plan} is interrupted (recovered from the spool); resume it first"
                ),
            }),
            Some(ticket) => Ok(ticket),
            None => Err(unknown_plan(plan)),
        }
    }
}

/// Opens the write-ahead journal for a freshly accepted plan (the
/// [`MultiplexPool::submit_spooled`] factory): creates
/// `dir/plan-<id>.avj` holding the submission record, and names
/// `dir/plan-<id>/` as the plan's trace directory. Journal creation
/// failures degrade to an unspooled plan (reported on stderr) — the
/// daemon keeps serving rather than rejecting work over disk trouble.
fn open_plan_journal(
    dir: &Path,
    id: PlanId,
    plan_json: String,
    level: TraceLevel,
) -> Option<(Arc<dyn RunSink>, PathBuf)> {
    let path = dir.join(avfi_store::journal_file_name(id));
    let trace_dir = dir.join(avfi_store::trace_dir_name(id));
    match PlanJournal::create(&path, plan_json, level) {
        Ok(journal) => Some((Arc::new(journal), trace_dir)),
        Err(e) => {
            eprintln!(
                "[avfi-server] spool journal create failed ({}): {e}",
                path.display()
            );
            None
        }
    }
}

/// Recovers one spooled journal at daemon startup into a pool ticket
/// under the plan's original id. A terminal plan reloads as fetchable
/// state (results assembled from the journal, byte-identical to the
/// uninterrupted run). Any other plan keeps its reopened journal and is
/// recovered [`PlanPhase::Interrupted`]: parked until resumed or
/// cancelled — or, with every run already journaled, completed at once,
/// appending the missing terminal record. Either way the plan's traces
/// stay in its `plan-<id>/` directory, read only when a client asks for
/// them. Unrecoverable journals are skipped with a stderr note, and a
/// plan the pool refuses has its journal renamed `plan-<id>.avj.refused`
/// once, so that later starts neither read it nor repeat the note —
/// recovery never takes the daemon down.
fn recover_journal(
    pool: &MultiplexPool,
    dir: &Path,
    id: PlanId,
    path: &Path,
) -> Option<PlanTicket> {
    let (records, journal) = match Journal::resume(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "[avfi-server] spool recovery failed ({}): {e}",
                path.display()
            );
            return None;
        }
    };
    // Header-only or unparseable journal: nothing to reload.
    let rec = avfi_store::summarize(&records)?;
    // Terminal: nothing more to append. Either way the journal is closed
    // before a refused one is moved aside.
    let journal = rec.terminal.is_none().then(|| PlanJournal::new(journal));
    let e = match pool.submit_recovered(RecoveredSubmission {
        plan: rec.plan,
        level: rec.level,
        id,
        prefilled: rec.completed,
        trace_dir: Some(dir.join(avfi_store::trace_dir_name(id))),
        phase: rec.terminal.unwrap_or(PlanPhase::Interrupted),
        spool: journal.map(|j| Arc::new(j) as Arc<dyn RunSink>),
    }) {
        Ok(ticket) => return Some(ticket),
        Err(e) => e,
    };
    let refused = dir.join(avfi_store::refused_journal_file_name(id));
    let moved = match std::fs::rename(path, &refused) {
        Ok(()) => format!("moved to {}", refused.display()),
        Err(err) => format!("could not move it aside: {err}"),
    };
    eprintln!(
        "[avfi-server] spool recovery refused ({}): {e}; {moved}",
        path.display()
    );
    None
}

fn send_evicted(transport: &mut TcpTransport, plan: PlanId) -> Result<(), NetError> {
    transport.send_value(&ServiceReply::Error {
        message: format!(
            "plan {plan} results evicted: retention window elapsed (status remains available)"
        ),
    })
}

fn unknown_plan(plan: PlanId) -> ServiceReply {
    ServiceReply::Error {
        message: format!("unknown plan id {plan}"),
    }
}

/// Client side of the campaign protocol: one connection, a sequence of
/// request/reply exchanges (see [`avfi_net::proto`]).
#[derive(Debug)]
pub struct ServiceClient {
    transport: TcpTransport,
}

impl ServiceClient {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        Ok(ServiceClient {
            transport: TcpTransport::connect(addr)?,
        })
    }

    /// Connects and, when `token` is given, opens with a hello frame —
    /// required against a daemon running `--auth-token`, harmless (and
    /// acknowledged) against an open one.
    ///
    /// # Errors
    ///
    /// Connection failures, or [`NetError::Protocol`] when the daemon
    /// rejects the token.
    pub fn connect_with_token(addr: &str, token: Option<&str>) -> Result<Self, NetError> {
        let mut client = Self::connect(addr)?;
        if let Some(token) = token {
            client.hello(token)?;
        }
        Ok(client)
    }

    /// Authenticates this connection with the daemon's shared secret.
    fn hello(&mut self, token: &str) -> Result<(), NetError> {
        match self.request(&ServiceRequest::Hello {
            token: token.to_string(),
        })? {
            ServiceReply::HelloOk => Ok(()),
            other => Err(Self::fail(other)),
        }
    }

    fn request(&mut self, request: &ServiceRequest) -> Result<ServiceReply, NetError> {
        self.transport.send_value(request)?;
        self.transport.recv_value()
    }

    /// Turns a [`ServiceReply::Error`] into [`NetError::Protocol`].
    fn fail(reply: ServiceReply) -> NetError {
        match reply {
            ServiceReply::Error { message } => NetError::Protocol(message),
            other => NetError::Protocol(format!("unexpected {} reply", other.kind())),
        }
    }

    /// Submits a plan; returns its server-assigned id and total run count.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] when the server
    /// rejects the plan.
    pub fn submit(
        &mut self,
        plan: &WorkPlan,
        trace_level: TraceLevel,
    ) -> Result<(PlanId, usize), NetError> {
        let plan_json = serde_json::to_string(plan).map_err(|e| NetError::Codec(e.to_string()))?;
        match self.request(&ServiceRequest::SubmitPlan {
            plan_json,
            trace_level: trace_level.as_str().to_string(),
        })? {
            ServiceReply::Submitted { plan, total_runs } => Ok((plan, total_runs)),
            other => Err(Self::fail(other)),
        }
    }

    /// Streams a plan's progress events (starting at sequence number
    /// `from_event`) into `on_event` until the plan is terminal; returns
    /// the terminal phase.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans
    /// and undecodable events.
    pub fn watch(
        &mut self,
        plan: PlanId,
        from_event: usize,
        mut on_event: impl FnMut(usize, ProgressEvent),
    ) -> Result<PlanPhase, NetError> {
        self.transport
            .send_value(&ServiceRequest::Watch { plan, from_event })?;
        loop {
            match self.transport.recv_value()? {
                ServiceReply::Event {
                    seq, event_json, ..
                } => {
                    let event: ProgressEvent = serde_json::from_str(&event_json)
                        .map_err(|e| NetError::Protocol(format!("undecodable event: {e}")))?;
                    on_event(seq, event);
                }
                ServiceReply::WatchEnd { phase, .. } => return Ok(phase),
                other => return Err(Self::fail(other)),
            }
        }
    }

    /// Blocks until the plan reaches a terminal phase and returns it
    /// (a watch from past the end of the event stream).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServiceClient::watch`].
    pub fn wait_terminal(&mut self, plan: PlanId) -> Result<PlanPhase, NetError> {
        self.watch(plan, usize::MAX, |_, _| {})
    }

    /// Retrieves a completed plan's results as the server's raw JSON
    /// payload — the byte-exact artifact the determinism gate diffs
    /// against a solo engine run. Blocks until the plan is terminal.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] when the plan is
    /// unknown or finished without results (cancelled/failed).
    pub fn results_json(&mut self, plan: PlanId) -> Result<String, NetError> {
        match self.request(&ServiceRequest::Results { plan })? {
            ServiceReply::Results { results_json, .. } => Ok(results_json),
            other => Err(Self::fail(other)),
        }
    }

    /// Retrieves and deserializes a completed plan's results.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServiceClient::results_json`].
    pub fn results(&mut self, plan: PlanId) -> Result<Vec<StudyResult>, NetError> {
        let json = self.results_json(plan)?;
        serde_json::from_str(&json).map_err(|e| NetError::Protocol(format!("bad results: {e}")))
    }

    /// Retrieves a plan's traces as the server's raw JSON payload.
    /// Blocks until the plan is terminal.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans.
    pub fn traces_json(&mut self, plan: PlanId) -> Result<String, NetError> {
        match self.request(&ServiceRequest::Traces { plan })? {
            ServiceReply::Traces { traces_json, .. } => Ok(traces_json),
            other => Err(Self::fail(other)),
        }
    }

    /// Retrieves and deserializes a plan's traces, keyed by flat plan
    /// index.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServiceClient::traces_json`].
    pub fn traces(&mut self, plan: PlanId) -> Result<Vec<(usize, RunTrace)>, NetError> {
        let json = self.traces_json(plan)?;
        serde_json::from_str(&json).map_err(|e| NetError::Protocol(format!("bad traces: {e}")))
    }

    /// Cancels a plan; returns the phase after the cancel took effect.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans.
    pub fn cancel(&mut self, plan: PlanId) -> Result<PlanPhase, NetError> {
        match self.request(&ServiceRequest::Cancel { plan })? {
            ServiceReply::Cancelled { phase, .. } => Ok(phase),
            other => Err(Self::fail(other)),
        }
    }

    /// Resumes an interrupted plan recovered from the daemon's spool;
    /// returns `(phase, completed, total)` after the resume took effect.
    /// Idempotent on plans that are already running or terminal.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans.
    pub fn resume(&mut self, plan: PlanId) -> Result<(PlanPhase, usize, usize), NetError> {
        match self.request(&ServiceRequest::Resume { plan })? {
            ServiceReply::Resumed {
                phase,
                completed,
                total,
                ..
            } => Ok((phase, completed, total)),
            other => Err(Self::fail(other)),
        }
    }

    /// Queries a plan's phase and `(completed, total)` run counters.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] for unknown plans.
    pub fn status(&mut self, plan: PlanId) -> Result<(PlanPhase, usize, usize), NetError> {
        match self.request(&ServiceRequest::Status { plan })? {
            ServiceReply::Status {
                phase,
                completed,
                total,
                ..
            } => Ok((phase, completed, total)),
            other => Err(Self::fail(other)),
        }
    }

    /// Asks the daemon to shut down cleanly.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Protocol`] on an unexpected
    /// reply.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.request(&ServiceRequest::Shutdown)? {
            ServiceReply::ShuttingDown => Ok(()),
            other => Err(Self::fail(other)),
        }
    }
}

/// Reconnect policy for [`with_retries`]: how many times to re-dial a
/// daemon whose connection dropped, and how long to back off between
/// dials (linear: attempt `k` of `attempts` waits `k × backoff`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect attempts after the initial try. 0 = fail fast.
    pub attempts: u32,
    /// Base backoff; attempt `k` sleeps `k × backoff` before dialing.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retries: the initial attempt's error is final.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Up to `attempts` reconnects with linear `backoff` between dials.
    pub fn new(attempts: u32, backoff: Duration) -> Self {
        RetryPolicy { attempts, backoff }
    }
}

/// Runs `op` against a fresh [`ServiceClient`] connection, reconnecting
/// with linear backoff when the daemon hangs up mid-exchange
/// ([`NetError::Disconnected`]). Every dial opens with a hello carrying
/// `token` when one is given ([`ServiceClient::connect_with_token`]), so a
/// reconnect to a daemon running `--auth-token` passes its first-frame
/// gate. Every other error — protocol rejections (a wrong token among
/// them), codec failures, non-hangup I/O — is final immediately: retrying
/// those would loop on a deterministic failure.
///
/// `op` takes the connected client by `&mut` and may be called once per
/// attempt, so it must be written to be re-runnable: idempotent requests
/// (watch-from-sequence, results, status) retry transparently, while a
/// retried `submit` re-submits and can duplicate a plan whose first
/// submission landed just before the hangup — callers resuming a watch
/// should track the last seen sequence number in captured state (see the
/// `avfi-client` CLI) so the replay starts where the dead connection
/// stopped.
///
/// # Errors
///
/// The last attempt's error once the policy is exhausted, or the first
/// non-disconnect error.
pub fn with_retries<T>(
    addr: &str,
    token: Option<&str>,
    policy: RetryPolicy,
    mut op: impl FnMut(&mut ServiceClient) -> Result<T, NetError>,
) -> Result<T, NetError> {
    let mut attempt = 0u32;
    loop {
        let result =
            ServiceClient::connect_with_token(addr, token).and_then(|mut client| op(&mut client));
        match result {
            Err(NetError::Disconnected) if attempt < policy.attempts => {
                attempt += 1;
                std::thread::sleep(policy.backoff * attempt);
            }
            other => return other,
        }
    }
}

/// The demo plan the quickstart and the smoke tier submit: a baseline
/// study next to an output-delay study on small deterministic towns —
/// big enough to exercise multiplexed scheduling, small enough to finish
/// in seconds.
pub fn demo_plan() -> WorkPlan {
    fn scenario(seed: u64) -> Scenario {
        let mut town = TownSpec::grid(2, 2);
        town.signalized = false;
        Scenario::builder(town)
            .seed(seed)
            .npc_vehicles(0)
            .pedestrians(0)
            .time_budget(15.0)
            .min_route_length(50.0)
            .build()
    }
    fn campaign(seed: u64, fault: FaultSpec) -> CampaignConfig {
        CampaignConfig::builder(vec![scenario(seed), scenario(seed + 1)])
            .runs_per_scenario(1)
            .fault(fault)
            .agent(AgentSpec::Expert)
            .build()
    }
    WorkPlan::new()
        .with_study("baseline", vec![campaign(2018, FaultSpec::None)])
        .with_study(
            "output-delay",
            vec![campaign(
                2018,
                FaultSpec::Timing(TimingFault::OutputDelay { frames: 8 }),
            )],
        )
}

/// Executes `plan` in-process with a solo single-worker [`Engine`] and
/// returns the results serialized exactly as the server serializes them —
/// the reference artifact for the determinism gate.
///
/// # Errors
///
/// The [`PlanError`] that refuses the plan before any run, as a daemon
/// refuses it (`invalid plan: …`).
///
/// # Panics
///
/// When a run panics, as [`Engine::execute_resumed`] does.
pub fn solo_results_json(plan: &WorkPlan) -> Result<String, PlanError> {
    let engine = Engine::new().workers(1);
    let results = engine.execute_resumed(plan, Vec::new(), &NullSink, None)?;
    Ok(serde_json::to_string(&results).expect("results serialize"))
}
