//! CLI client for the `avfi-server` campaign daemon.
//!
//! [`COMMANDS`] lists every subcommand with the flags it takes: the usage
//! message prints it, and a flag a subcommand does not take is refused
//! with exit status 2 before any work. `--plan` names a served plan by
//! id, or a plan JSON file. Subcommands that dial the daemon take
//! `--addr HOST:PORT` (default `127.0.0.1:7700`) and `--token SECRET`.
//!
//! * `demo-plan` — emit the demo `WorkPlan` as JSON.
//! * `submit` — submit a plan JSON file; prints the server-assigned plan
//!   id on stdout.
//! * `watch` — stream the plan's progress events, from event `--from` on,
//!   as JSON lines until it is terminal; prints the final phase to stderr.
//! * `results` — fetch the results payload (blocks until terminal). The
//!   bytes are exactly what the server serialized — diffable against
//!   `solo` output.
//! * `traces` — fetch the plan's trace payload.
//! * `resume` — resume an interrupted plan a `--spool` daemon recovered
//!   after a crash; prints `phase completed/total`. Idempotent on running
//!   and finished plans.
//! * `cancel` / `status` / `shutdown`.
//! * `run` — submit, wait for completion, fetch results (the
//!   submit/watch/results round trip as one command).
//! * `solo` — execute the plan in-process with a solo single-worker
//!   engine and emit byte-comparable results JSON (no server involved;
//!   the determinism-gate reference).
//!
//! `--retry N --backoff MS`: when the daemon connection drops
//! mid-exchange the client re-dials up to N times with linear backoff
//! (attempt k waits k×MS). A resumed watch continues from the last event
//! it actually printed, so no lines repeat; cancel, status and resume are
//! idempotent on the server, so a replay is safe. Default is no retries.
//!
//! `--token SECRET`: the connection opens with a hello frame carrying the
//! shared secret, required against a daemon running `--auth-token` (and
//! acknowledged, harmless, against an open one). Reconnects repeat the
//! handshake.

use avfi_core::WorkPlan;
use avfi_net::NetError;
use avfi_server::cli::Args;
use avfi_server::{demo_plan, solo_results_json, with_retries_authed, RetryPolicy, ServiceClient};
use avfi_trace::TraceLevel;
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    addr: String,
    plan_id: Option<u64>,
    plan_file: Option<String>,
    out: Option<String>,
    trace: TraceLevel,
    from: usize,
    retry: RetryPolicy,
    token: Option<String>,
}

impl Options {
    /// One connection, hello'd when `--token` was given.
    fn connect(&self) -> Result<ServiceClient, NetError> {
        ServiceClient::connect_with_token(&self.addr, self.token.as_deref())
    }

    /// Runs `op` under the retry policy, re-helloing on every dial.
    fn with_retries<T>(
        &self,
        op: impl FnMut(&mut ServiceClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        with_retries_authed(&self.addr, self.token.as_deref(), self.retry, op)
    }
}

/// Every subcommand with exactly the flags it takes, as the usage message
/// prints them; [`main`] refuses any other flag.
const COMMANDS: &str = "\
demo-plan [--out FILE]
submit    --plan FILE [--trace LEVEL] [--retry N --backoff MS] [--addr HOST:PORT] [--token SECRET]
watch     --plan ID [--from N] [--retry N --backoff MS] [--addr HOST:PORT] [--token SECRET]
results   --plan ID [--out FILE] [--retry N --backoff MS] [--addr HOST:PORT] [--token SECRET]
traces    --plan ID [--out FILE] [--addr HOST:PORT] [--token SECRET]
resume    --plan ID [--retry N --backoff MS] [--addr HOST:PORT] [--token SECRET]
cancel    --plan ID [--retry N --backoff MS] [--addr HOST:PORT] [--token SECRET]
status    --plan ID [--retry N --backoff MS] [--addr HOST:PORT] [--token SECRET]
run       --plan FILE [--trace LEVEL] [--out FILE] [--addr HOST:PORT] [--token SECRET]
solo      --plan FILE [--out FILE]
shutdown  [--addr HOST:PORT] [--token SECRET]";

/// `cmd`'s line of [`COMMANDS`], if `cmd` is a subcommand.
fn usage_line(cmd: &str) -> Option<&'static str> {
    COMMANDS
        .lines()
        .find(|line| line.split(' ').next() == Some(cmd))
}

/// The flags named in `usage`, some lines of [`COMMANDS`].
fn flags(usage: &str) -> impl Iterator<Item = &str> {
    usage
        .split_whitespace()
        .map(|word| word.trim_start_matches('['))
        .filter(|word| word.starts_with("--"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let mut args = Args::new(&argv);
    // `--plan` names a served plan by id, or a plan JSON file.
    let plan: Option<String> = args.value("--plan");
    let plan_id = plan.as_deref().and_then(|p| p.parse().ok());
    let options = Options {
        addr: args
            .value("--addr")
            .unwrap_or_else(|| "127.0.0.1:7700".to_string()),
        plan_id,
        plan_file: plan.filter(|_| plan_id.is_none()),
        out: args.value("--out"),
        trace: args.value("--trace").unwrap_or(TraceLevel::Off),
        from: args.value("--from").unwrap_or(0),
        retry: RetryPolicy::new(
            args.value("--retry").unwrap_or(0),
            Duration::from_millis(args.value("--backoff").unwrap_or(0)),
        ),
        token: args.value("--token"),
    };
    let cmd: String = args.positional("COMMAND").unwrap_or_default();
    let Some(line) = usage_line(&cmd) else {
        args.finish();
        return usage();
    };
    for arg in &argv {
        if flags(COMMANDS).any(|f| f == arg) && !flags(line).any(|f| f == arg) {
            args.refuse(format!("{cmd} does not take {arg}"));
        }
    }
    args.finish();

    match run(&cmd, &options) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("[avfi-client] {cmd} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, args: &Options) -> Result<ExitCode, NetError> {
    match cmd {
        "demo-plan" => {
            let json = serde_json::to_string_pretty(&demo_plan())
                .map_err(|e| NetError::Codec(e.to_string()))?;
            emit(args.out.as_deref(), &json)?;
            Ok(ExitCode::SUCCESS)
        }
        "solo" => {
            let plan = load_plan(args)?;
            let json = solo_results_json(&plan).map_err(|e| NetError::Codec(e.to_string()))?;
            emit(args.out.as_deref(), &json)?;
            Ok(ExitCode::SUCCESS)
        }
        "submit" => {
            let plan = load_plan(args)?;
            let (id, total) = args.with_retries(|client| client.submit(&plan, args.trace))?;
            eprintln!("[avfi-client] plan {id} submitted ({total} runs)");
            println!("{id}");
            Ok(ExitCode::SUCCESS)
        }
        "watch" => {
            let id = plan_id(args)?;
            // Survives reconnects: each retry resumes the stream at the
            // first sequence number not yet printed.
            let mut next_from = args.from;
            let phase = args.with_retries(|client| {
                client.watch(id, next_from, |seq, event| {
                    next_from = seq + 1;
                    match serde_json::to_string(&event) {
                        Ok(line) => {
                            use std::io::Write;
                            // A closed stdout (e.g. `watch | head`) ends the
                            // stream quietly, like any line-oriented tool.
                            if writeln!(std::io::stdout(), "{{\"seq\":{seq},\"event\":{line}}}")
                                .is_err()
                            {
                                std::process::exit(0);
                            }
                        }
                        Err(e) => eprintln!("[avfi-client] unprintable event {seq}: {e}"),
                    }
                })
            })?;
            eprintln!("[avfi-client] plan {id} {phase}");
            Ok(ExitCode::SUCCESS)
        }
        "results" => {
            let id = plan_id(args)?;
            let json = args.with_retries(|client| client.results_json(id))?;
            emit(args.out.as_deref(), &json)?;
            Ok(ExitCode::SUCCESS)
        }
        "traces" => {
            let id = plan_id(args)?;
            let json = args.connect()?.traces_json(id)?;
            emit(args.out.as_deref(), &json)?;
            Ok(ExitCode::SUCCESS)
        }
        "cancel" => {
            let id = plan_id(args)?;
            // Cancelling an already-cancelled plan just reports its
            // phase, so a retried cancel after a hangup is safe.
            let phase = args.with_retries(|client| client.cancel(id))?;
            eprintln!("[avfi-client] plan {id} {phase}");
            Ok(ExitCode::SUCCESS)
        }
        "resume" => {
            let id = plan_id(args)?;
            // Idempotent on the server (a running or finished plan just
            // reports its state), so a retried resume is safe.
            let (phase, completed, total) = args.with_retries(|client| client.resume(id))?;
            println!("{phase} {completed}/{total}");
            Ok(ExitCode::SUCCESS)
        }
        "status" => {
            let id = plan_id(args)?;
            let (phase, completed, total) = args.with_retries(|client| client.status(id))?;
            println!("{phase} {completed}/{total}");
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            args.connect()?.shutdown_server()?;
            eprintln!("[avfi-client] server shutting down");
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let plan = load_plan(args)?;
            let mut client = args.connect()?;
            let (id, total) = client.submit(&plan, args.trace)?;
            eprintln!("[avfi-client] plan {id} submitted ({total} runs)");
            let phase = client.wait_terminal(id)?;
            eprintln!("[avfi-client] plan {id} {phase}");
            let json = client.results_json(id)?;
            emit(args.out.as_deref(), &json)?;
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}

fn load_plan(args: &Options) -> Result<WorkPlan, NetError> {
    let Some(path) = &args.plan_file else {
        return Err(NetError::Protocol("missing --plan FILE".to_string()));
    };
    let json = std::fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(|e| NetError::Protocol(format!("malformed plan: {e}")))
}

fn plan_id(args: &Options) -> Result<u64, NetError> {
    args.plan_id
        .ok_or_else(|| NetError::Protocol("missing --plan ID".to_string()))
}

fn emit(out: Option<&str>, payload: &str) -> Result<(), NetError> {
    match out {
        Some(path) => Ok(std::fs::write(path, payload)?),
        None => {
            println!("{payload}");
            Ok(())
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: avfi-client <command> [flags]\ncommands:");
    for line in COMMANDS.lines() {
        eprintln!("  {line}");
    }
    ExitCode::from(2)
}
