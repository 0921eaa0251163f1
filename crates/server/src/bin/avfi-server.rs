//! The campaign daemon: a persistent fault-injection service.
//!
//! Accepts serialized `WorkPlan` submissions from many concurrent
//! `avfi-client` connections, multiplexes them onto one shared worker
//! pool, and serves progress streams, results, and traces by plan id.
//! Runs until a client sends a shutdown request.
//!
//! Usage: `avfi-server [--addr HOST:PORT] [--workers N] [--addr-file PATH]
//! [--retain-secs S] [--auth-token SECRET] [--spool DIR] [--auto-resume]`
//!
//! * `--addr` — listen address (default `127.0.0.1:7700`; port 0 picks an
//!   ephemeral port).
//! * `--workers` — pool worker threads (default 0 = one per core).
//! * `--addr-file` — write the actually bound address to this file once
//!   listening (how scripts discover an ephemeral port).
//! * `--retain-secs` — evict finished plans' result/trace payloads after
//!   this many seconds (default: retain until shutdown). Plan status
//!   stays queryable after eviction; with `--spool` the plan's journal
//!   and trace files are deleted too.
//! * `--auth-token` — require every connection to open with a hello
//!   frame carrying this shared secret (clients pass `--token`); wrong
//!   or missing tokens get a protocol error and the connection is
//!   closed. Default: no authentication.
//! * `--spool` — write-ahead journal every accepted plan into this
//!   directory and recover the journals found there on startup: finished
//!   plans reload fetchable, interrupted plans await `avfi-client
//!   resume` (or restart immediately with `--auto-resume`). Resumed
//!   plans produce results byte-identical to an uninterrupted run.
//! * `--auto-resume` — with `--spool`, re-enter interrupted plans into
//!   the pool at startup instead of parking them for an explicit resume.

use avfi_server::cli::Args;
use avfi_server::CampaignServer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let addr = args
        .value("--addr")
        .unwrap_or_else(|| "127.0.0.1:7700".to_string());
    let workers = args.value("--workers").unwrap_or(0);
    let addr_file: Option<PathBuf> = args.value("--addr-file");
    let retention = args.value::<f64>("--retain-secs").and_then(|secs| {
        Duration::try_from_secs_f64(secs)
            .map_err(|e| args.refuse(format!("--retain-secs {secs}: {e}")))
            .ok()
    });
    let auth_token: Option<String> = args.value("--auth-token");
    if auth_token.as_deref() == Some("") {
        args.refuse("--auth-token must not be empty");
    }
    let spool: Option<PathBuf> = args.value("--spool");
    let auto_resume = args.flag("--auto-resume");
    args.finish();

    let server = match CampaignServer::bind(&addr, workers).and_then(|s| {
        s.with_retention(retention)
            .with_auth_token(auth_token)
            .with_spool(spool, auto_resume)
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[avfi-server] cannot start on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = server.local_addr();
    if let Some(path) = addr_file {
        if let Err(e) = std::fs::write(&path, bound.to_string()) {
            eprintln!("[avfi-server] cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!("[avfi-server] listening on {bound}");
    match server.run() {
        Ok(()) => {
            eprintln!("[avfi-server] shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[avfi-server] accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
