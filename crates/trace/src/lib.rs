//! # avfi-trace — the black-box flight recorder for AVFI runs
//!
//! A fault-injection campaign that only reports aggregate metrics (MSR,
//! VPK, APK, TTV) cannot explain *how* a fault propagated to an accident.
//! This crate defines the structured per-run [`RunTrace`] that makes a
//! failed run debuggable after the fact:
//!
//! * a [`TraceHeader`] carrying the full run identity — `(study, campaign,
//!   scenario, run, seed)` plus the scenario template and fault plan — so
//!   any recorded run can be re-executed bit-identically,
//! * [`TraceEvent`]s: trigger firings, per-channel injection onsets, and
//!   violation onsets,
//! * a frame stream of [`TrajectorySample`]s (ego state + applied
//!   control), captured at `blackbox` detail through a bounded ring so
//!   memory stays constant at campaign scale,
//! * a compact binary [`codec`] (varint + XOR-delta encoding for the
//!   frame stream, FNV-checksummed) with lossless JSON export.
//!
//! Capture hooks live in `avfi-core` (harness + campaign + engine); this
//! crate owns the data model and the on-disk format. Replay and failure
//! triage are built on top in `avfi_core::replay` / `avfi_core::triage`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod io;
pub mod model;

pub use codec::{decode, encode, DecodeError};
pub use io::{
    list_trace_files, read_trace_file, trace_file_index, trace_file_name, write_trace_file,
};
pub use model::{
    fingerprint, FaultChannel, RunTrace, TraceEvent, TraceHeader, TraceLevel, TraceSummary,
};
