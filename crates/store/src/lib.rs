//! # avfi-store — durable campaign store
//!
//! Write-ahead journaling of campaign lifecycle records, crash recovery,
//! and deterministic checkpoint/resume for AVFI campaign execution.
//!
//! The campaign service (and the solo experiment binaries) execute
//! [`WorkPlan`]s whose runs take milliseconds to hours; before this crate
//! every accepted plan lived only in memory, so a daemon crash lost all
//! queued, running, and completed work. The store closes that gap with a
//! per-plan **write-ahead journal**: an append-only file of checksummed
//! lifecycle records — plan submitted, run completed (with the serialized
//! [`RunResult`]), plan terminal — that survives `SIGKILL` and powers
//! deterministic resume.
//!
//! ## Record format
//!
//! A journal file is a 5-byte header followed by zero or more records:
//!
//! ```text
//! header:  "AVFJ"  version(u8)
//! record:  len(u32 LE)  payload(len bytes)  fnv64(u64 LE)
//! ```
//!
//! `payload` is the JSON serialization of one [`JournalRecord`]; the
//! trailer is the FNV-1a-64 hash of the length prefix followed by the
//! payload — the same hash the `.avtr` trace codec uses. Each append is
//! one `write(2)` of the fully assembled record, so a crash leaves at
//! most one torn record, always at the tail.
//!
//! ## Traces
//!
//! The journal holds no trace. The engine's executor writes a run's
//! `.avtr` file before it reports the run to the [`PlanJournal`], and
//! reports no run whose trace it could not write: a journaled run's trace
//! is on disk, and a run whose trace was lost is re-run on resume.
//!
//! ## Recovery rule
//!
//! [`recover`] reads the **longest valid prefix**: records are accepted
//! in order until the first one that is truncated, fails its checksum, or
//! does not parse; everything from that point on is discarded, never
//! surfaced. Recovery is a total function — arbitrary bytes (truncations,
//! bit flips, garbage) yield some valid prefix, never a panic. Appending
//! after recovery first truncates the file back to the valid prefix so a
//! torn tail record cannot corrupt subsequent appends.
//!
//! ## Why resume is byte-identical
//!
//! A run's output depends only on its (campaign template, scenario index,
//! run index) coordinates — the engine derives each seed from those and
//! nothing else — and final results assemble in flat-plan order from
//! preassigned slots. Journaled results therefore slot back into exactly
//! the position they were first produced in, and the vendored
//! `serde_json` guarantees `f64` values roundtrip bit-for-bit through
//! their JSON text (shortest-round-trip formatting both ways). A plan
//! interrupted at **any** point and resumed with **any** worker count
//! produces final `StudyResult` JSON byte-identical to an uninterrupted
//! run — the property `resume_determinism.rs` and the smoke `store` tier
//! enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use avfi_core::campaign::RunResult;
use avfi_core::engine::{assemble_results, Engine, PlanPhase, ProgressSink, RunSink};
use avfi_core::{StudyResult, WorkPlan};
use avfi_trace::TraceLevel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Journal file magic: "AVFJ".
pub const MAGIC: [u8; 4] = *b"AVFJ";
/// Journal format version.
pub const VERSION: u8 = 1;
/// Extension of journal files.
pub const JOURNAL_EXT: &str = "avj";

/// Header length in bytes (magic + version).
const HEADER_LEN: usize = 5;
/// Per-record framing overhead (length prefix + checksum trailer).
const RECORD_OVERHEAD: usize = 4 + 8;

/// One write-ahead journal record. The JSON serialization of this enum is
/// the record payload on disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A plan was accepted: the full serialized `WorkPlan` plus the
    /// flight-recorder level it runs at. Always the first record.
    PlanSubmitted {
        /// JSON-serialized `avfi_core::engine::WorkPlan`.
        plan_json: String,
        /// Trace level name (`"off"`, `"summary"`, `"blackbox"`).
        trace_level: String,
    },
    /// One run finished: the flat-plan index and its serialized result.
    RunCompleted {
        /// Position in the flattened work queue.
        flat_index: u64,
        /// JSON-serialized `avfi_core::campaign::RunResult`.
        result_json: String,
    },
    /// The plan reached a terminal phase (`"completed"`, `"cancelled"`,
    /// `"failed"`). Written after the last run record.
    PlanTerminal {
        /// Terminal phase name.
        phase: String,
    },
}

/// Encodes one record into its on-disk framing:
/// `len(u32 LE) ‖ payload ‖ fnv64(len ‖ payload)(u64 LE)`, the checksum
/// being [`avfi_trace::fingerprint`] (FNV-1a-64).
pub fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let payload = serde_json::to_string(record).expect("journal record serializes");
    let mut buf = Vec::with_capacity(payload.len() + RECORD_OVERHEAD);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload.as_bytes());
    let cksum = avfi_trace::fingerprint(&buf);
    buf.extend_from_slice(&cksum.to_le_bytes());
    buf
}

/// The journal header (magic + version).
fn header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4] = VERSION;
    h
}

/// Recovers the longest valid record prefix from raw journal bytes.
///
/// Returns the decoded records and the byte length of the valid prefix
/// (header included). A missing or corrupt header recovers as
/// `(vec![], 0)`; decoding stops — silently, by design — at the first
/// truncated record, checksum mismatch, or unparseable payload. Total:
/// never panics, never surfaces a partial record.
pub fn recover(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC || bytes[4] != VERSION {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    while let Some(len_bytes) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
        let Some(end) = pos
            .checked_add(4)
            .and_then(|p| p.checked_add(len))
            .and_then(|p| p.checked_add(8))
        else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let framed = &bytes[pos..pos + 4 + len];
        let trailer = &bytes[pos + 4 + len..end];
        let cksum = u64::from_le_bytes(trailer.try_into().expect("8-byte slice"));
        if avfi_trace::fingerprint(framed) != cksum {
            break;
        }
        let payload = &framed[4..];
        let Ok(record) = serde_json::from_slice::<JournalRecord>(payload) else {
            break;
        };
        records.push(record);
        pos = end;
    }
    (records, pos)
}

/// Reads and recovers a journal file. A missing file recovers as empty
/// (`(vec![], 0)`); other filesystem errors propagate.
///
/// # Errors
///
/// Filesystem errors other than a missing file.
pub fn recover_file(path: &Path) -> io::Result<(Vec<JournalRecord>, u64)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let (records, valid_len) = recover(&bytes);
    Ok((records, valid_len as u64))
}

/// An open journal positioned for appending. Every append writes one
/// fully assembled record with a single `write(2)` and flushes, so a
/// crash tears at most the final record — which recovery then discards.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Creates (or truncates) a journal file and writes the header.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> io::Result<Journal> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = File::create(path)?;
        file.write_all(&header())?;
        file.flush()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Recovers `path` and reopens it for appending: the file is
    /// truncated back to the recovered valid prefix (discarding any torn
    /// tail record) — or recreated with a fresh header when nothing
    /// valid was recovered — and the journal is positioned at its end.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn resume(path: &Path) -> io::Result<(Vec<JournalRecord>, Journal)> {
        let (records, valid_len) = recover_file(path)?;
        if valid_len < HEADER_LEN as u64 {
            return Ok((records, Journal::create(path)?));
        }
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
        };
        use std::io::Seek;
        journal.file.seek(io::SeekFrom::End(0))?;
        Ok((records, journal))
    }

    /// Appends one record and flushes.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        self.file.write_all(&encode_record(record))?;
        self.file.flush()
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A recovered plan journal, summarized: the plan, its trace level, the
/// deduplicated in-bounds completed runs, and the terminal phase if one
/// was journaled.
#[derive(Debug)]
pub struct RecoveredPlan {
    /// The journaled plan.
    pub plan: WorkPlan,
    /// The exact `plan_json` bytes the journal holds (for identity
    /// checks against a caller-provided plan).
    pub plan_json: String,
    /// Trace level recorded at submission ([`TraceLevel::Off`] when the
    /// name is unknown).
    pub level: TraceLevel,
    /// Completed runs: sorted by flat index, first record wins on
    /// duplicates, out-of-bounds indices dropped.
    pub completed: Vec<(usize, RunResult)>,
    /// The last journaled terminal phase, if the plan finished before the
    /// crash. `Completed` only with every run journaled; `None` also for
    /// unknown phase names.
    pub terminal: Option<PlanPhase>,
}

/// Summarizes recovered records into a [`RecoveredPlan`]. Returns `None`
/// unless the first record is a [`JournalRecord::PlanSubmitted`] whose
/// plan deserializes. Run records that do not deserialize, duplicate an
/// earlier flat index, or point outside the plan are skipped — resume
/// simply re-executes those runs, and determinism keeps the output
/// identical.
///
/// This is the one place a `completed` claim is checked: the journal
/// appends every run record before the terminal one, so `completed`
/// without every run journaled cannot come from the ordered path; such a
/// claim is dropped and the plan recovers as interrupted, re-running the
/// gap.
pub fn summarize(records: &[JournalRecord]) -> Option<RecoveredPlan> {
    let Some(JournalRecord::PlanSubmitted {
        plan_json,
        trace_level,
    }) = records.first()
    else {
        return None;
    };
    let plan: WorkPlan = serde_json::from_str(plan_json).ok()?;
    let total = plan.total_runs();
    let mut completed: BTreeMap<usize, RunResult> = BTreeMap::new();
    let mut terminal = None;
    for record in &records[1..] {
        match record {
            JournalRecord::RunCompleted {
                flat_index,
                result_json,
            } => {
                let idx = *flat_index as usize;
                if idx < total && !completed.contains_key(&idx) {
                    if let Ok(result) = serde_json::from_str::<RunResult>(result_json) {
                        completed.insert(idx, result);
                    }
                }
            }
            JournalRecord::PlanTerminal { phase } => terminal = Some(phase.as_str()),
            JournalRecord::PlanSubmitted { .. } => {}
        }
    }
    let terminal = match terminal {
        Some("completed") if completed.len() == total => Some(PlanPhase::Completed),
        Some("cancelled") => Some(PlanPhase::Cancelled),
        Some("failed") => Some(PlanPhase::Failed),
        _ => None,
    };
    Some(RecoveredPlan {
        plan,
        plan_json: plan_json.clone(),
        level: TraceLevel::parse(trace_level).unwrap_or(TraceLevel::Off),
        completed: completed.into_iter().collect(),
        terminal,
    })
}

/// A live write-ahead journal for one executing plan: the engine-facing
/// [`RunSink`] that appends a [`JournalRecord::RunCompleted`] as each run
/// finishes and the terminal record at the end. It only journals: the
/// executor writes a run's trace file before it reports the run here,
/// and reports no run whose trace it could not write.
///
/// Append failures are reported to stderr and swallowed: journaling is
/// best-effort durability, and a lost record only means the run is
/// re-executed on resume — determinism keeps the final output identical.
#[derive(Debug)]
pub struct PlanJournal {
    journal: parking_lot::Mutex<Journal>,
}

impl PlanJournal {
    /// Wraps an open journal.
    pub fn new(journal: Journal) -> PlanJournal {
        PlanJournal {
            journal: parking_lot::Mutex::new(journal),
        }
    }

    /// Creates (or truncates) the journal at `path` for a freshly accepted
    /// plan and writes its [`JournalRecord::PlanSubmitted`] record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, plan_json: String, level: TraceLevel) -> io::Result<PlanJournal> {
        let mut journal = Journal::create(path)?;
        journal.append(&JournalRecord::PlanSubmitted {
            plan_json,
            trace_level: level.as_str().to_string(),
        })?;
        Ok(PlanJournal::new(journal))
    }

    fn append(&self, record: &JournalRecord) {
        let mut journal = self.journal.lock();
        if let Err(e) = journal.append(record) {
            eprintln!(
                "[avfi-store] journal append failed ({}): {e}",
                journal.path().display()
            );
        }
    }
}

impl RunSink for PlanJournal {
    fn run_completed(&self, flat_index: usize, result: &RunResult) {
        let result_json = serde_json::to_string(result).expect("run result serializes");
        self.append(&JournalRecord::RunCompleted {
            flat_index: flat_index as u64,
            result_json,
        });
    }

    fn plan_terminal(&self, phase: PlanPhase) {
        self.append(&JournalRecord::PlanTerminal {
            phase: phase.name().to_string(),
        });
    }
}

/// Deterministic journal file name for a spooled plan: `plan-<id>.avj`.
pub fn journal_file_name(plan_id: u64) -> String {
    format!("plan-{plan_id}.{JOURNAL_EXT}")
}

/// Directory a spooled plan's traces land in: `plan-<id>/`.
pub fn trace_dir_name(plan_id: u64) -> String {
    format!("plan-{plan_id}")
}

/// Extracts the plan id from a `plan-<id>.avj` file name.
pub fn journal_plan_id(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    if path.extension()?.to_str()? != JOURNAL_EXT {
        return None;
    }
    stem.strip_prefix("plan-")?.parse().ok()
}

/// The name a spooled journal is moved to when the daemon refuses its
/// plan at recovery: `plan-<id>.avj.refused`. [`list_journals`] skips it,
/// so no later start reads it again.
pub fn refused_journal_file_name(plan_id: u64) -> String {
    format!("{}.refused", journal_file_name(plan_id))
}

/// Extracts the plan id from a `plan-<id>.avj.refused` file name.
fn refused_journal_plan_id(path: &Path) -> Option<u64> {
    if path.extension()? != "refused" {
        return None;
    }
    journal_plan_id(Path::new(path.file_stem()?))
}

/// Lists the `plan-<id>.avj` journals in `dir`, sorted by plan id. A
/// missing directory lists as empty.
///
/// # Errors
///
/// Propagates filesystem errors other than a missing directory.
pub fn list_journals(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_by_plan_id(dir, journal_plan_id)
}

/// Lists the refused `plan-<id>.avj.refused` journals in `dir`, sorted by
/// plan id, as [`list_journals`] lists the live ones.
///
/// # Errors
///
/// Propagates filesystem errors other than a missing directory.
pub fn list_refused_journals(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_by_plan_id(dir, refused_journal_plan_id)
}

fn list_by_plan_id(
    dir: &Path,
    plan_id: fn(&Path) -> Option<u64>,
) -> io::Result<Vec<(u64, PathBuf)>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut journals: Vec<(u64, PathBuf)> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter_map(|p| plan_id(&p).map(|id| (id, p)))
        .collect();
    journals.sort_by_key(|(id, _)| *id);
    Ok(journals)
}

/// Checkpointed solo execution: runs `plan` through `engine`, journaling
/// every completed run into `dir` so an interrupted invocation resumes
/// where it stopped — and an already-finished one returns instantly from
/// the journal.
///
/// The journal file is named by the FNV fingerprint of the serialized
/// plan (`plan-<fnv hex>.avj`), so re-invoking with the same plan finds
/// its own checkpoint and a different plan never collides with it. The
/// final results are **byte-identical** to an uninterrupted
/// `engine.execute(plan)` for any worker count and any interruption
/// point. Any other terminal record is kept: the `completed` record
/// this run appends comes last, and the last one decides.
///
/// # Errors
///
/// Filesystem errors, `InvalidData` when the journal at the derived path
/// was written for a different plan (fingerprint collision), and
/// `InvalidInput` carrying the [`PlanError`](avfi_core::PlanError) the
/// executor refuses the plan with, before any run.
pub fn run_spooled(
    engine: &Engine,
    plan: &WorkPlan,
    dir: &Path,
    level: TraceLevel,
    sink: &dyn ProgressSink,
) -> io::Result<Vec<StudyResult>> {
    let plan_json = serde_json::to_string(plan).expect("plan serializes");
    let path = dir.join(format!(
        "plan-{:016x}.{JOURNAL_EXT}",
        avfi_trace::fingerprint(plan_json.as_bytes())
    ));
    let (records, journal) = Journal::resume(&path)?;
    let (spool, prefilled) = match summarize(&records) {
        Some(rec) if rec.plan_json != plan_json => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: journal belongs to a different plan", path.display()),
            ));
        }
        Some(rec) if rec.terminal == Some(PlanPhase::Completed) => {
            // Checkpoint hit: every run is journaled; assemble without
            // executing anything. Byte-identical by the resume argument.
            let runs = rec.completed.into_iter().map(|(_, r)| r).collect();
            return Ok(assemble_results(plan, runs));
        }
        Some(rec) => (PlanJournal::new(journal), rec.completed),
        // Fresh (or unrecoverable) journal: restart from the header.
        None => (PlanJournal::create(&path, plan_json, level)?, Vec::new()),
    };
    engine
        .execute_resumed(plan, prefilled, sink, Some(&spool))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::PlanSubmitted {
                plan_json: "{\"studies\":[]}".into(),
                trace_level: "blackbox".into(),
            },
            JournalRecord::RunCompleted {
                flat_index: 0,
                result_json: "{\"x\":1}".into(),
            },
            JournalRecord::PlanTerminal {
                phase: "completed".into(),
            },
        ]
    }

    fn encode_all(records: &[JournalRecord]) -> Vec<u8> {
        let mut bytes = header().to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn roundtrip_full_journal() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let (back, valid_len) = recover(&bytes);
        assert_eq!(back, records);
        assert_eq!(valid_len, bytes.len());
    }

    #[test]
    fn empty_and_garbage_recover_empty() {
        assert_eq!(recover(&[]), (Vec::new(), 0));
        assert_eq!(recover(b"AVTR\x01junk"), (Vec::new(), 0));
        assert_eq!(recover(&header()), (Vec::new(), HEADER_LEN));
        // Bad version.
        let mut h = header().to_vec();
        h[4] = 99;
        assert_eq!(recover(&h), (Vec::new(), 0));
    }

    #[test]
    fn torn_tail_is_discarded() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let two = encode_all(&records[..2]);
        // Every truncation point strictly inside the third record must
        // recover exactly the first two.
        for cut in two.len()..bytes.len() {
            let (back, valid_len) = recover(&bytes[..cut]);
            assert_eq!(back, records[..2], "cut at {cut}");
            assert_eq!(valid_len, two.len(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_middle_record_drops_the_rest() {
        let records = sample_records();
        let mut bytes = encode_all(&records);
        let one = encode_all(&records[..1]);
        // Flip a payload byte of the second record.
        bytes[one.len() + 6] ^= 0x40;
        let (back, valid_len) = recover(&bytes);
        assert_eq!(back, records[..1]);
        assert_eq!(valid_len, one.len());
    }

    #[test]
    fn resume_truncates_torn_tail_and_appends() {
        let dir = std::env::temp_dir().join(format!("avfi-store-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("j.avj");
        let records = sample_records();
        {
            let mut j = Journal::create(&path).unwrap();
            for r in &records[..2] {
                j.append(r).unwrap();
            }
        }
        // Simulate a torn append: half of a third record.
        let torn = encode_record(&records[2]);
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&torn[..torn.len() / 2]).unwrap();
        }
        let (recovered, mut j) = Journal::resume(&path).unwrap();
        assert_eq!(recovered, records[..2]);
        j.append(&records[2]).unwrap();
        drop(j);
        let (finala, _) = recover_file(&path).unwrap();
        assert_eq!(finala, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summarize_dedupes_and_bounds_checks() {
        let plan = WorkPlan::new();
        let plan_json = serde_json::to_string(&plan).unwrap();
        let records = vec![
            JournalRecord::PlanSubmitted {
                plan_json,
                trace_level: "off".into(),
            },
            // Out of bounds for an empty plan; must be dropped.
            JournalRecord::RunCompleted {
                flat_index: 5,
                result_json: "{}".into(),
            },
        ];
        let rec = summarize(&records).expect("plan summarizes");
        assert!(rec.completed.is_empty());
        assert!(rec.terminal.is_none());
        // No PlanSubmitted head → no summary.
        assert!(summarize(&records[1..]).is_none());
        assert!(summarize(&[]).is_none());
    }

    /// `summarize` types what the journal spells as strings: a
    /// `completed` claim stands only with every run journaled, other
    /// terminal phases stand as journaled (the last one wins), unknown
    /// phase names read as no terminal, and an unknown level reads `Off`.
    #[test]
    fn summarize_types_level_and_checks_completed_coverage() {
        use avfi_core::campaign::CampaignConfig;
        use avfi_sim::scenario::{Scenario, TownSpec};

        let summary = |plan: &WorkPlan, level: &str, phases: &[&str]| {
            let mut records = vec![JournalRecord::PlanSubmitted {
                plan_json: serde_json::to_string(plan).unwrap(),
                trace_level: level.into(),
            }];
            records.extend(
                phases
                    .iter()
                    .map(|p| JournalRecord::PlanTerminal { phase: (*p).into() }),
            );
            let rec = summarize(&records).expect("plan summarizes");
            (rec.level, rec.terminal)
        };
        let one_run = WorkPlan::single(
            "one",
            CampaignConfig::builder(vec![Scenario::builder(TownSpec::grid(2, 2)).build()])
                .runs_per_scenario(1)
                .build(),
        );
        assert_eq!(one_run.total_runs(), 1);
        let empty = WorkPlan::new();

        assert_eq!(
            summary(&one_run, "blackbox", &["completed"]),
            (TraceLevel::Blackbox, None)
        );
        assert_eq!(
            summary(&empty, "summary", &["completed"]),
            (TraceLevel::Summary, Some(PlanPhase::Completed))
        );
        assert_eq!(
            summary(&one_run, "off", &["cancelled"]),
            (TraceLevel::Off, Some(PlanPhase::Cancelled))
        );
        assert_eq!(
            summary(&one_run, "off", &["failed"]).1,
            Some(PlanPhase::Failed)
        );
        assert_eq!(
            summary(&empty, "off", &["cancelled", "completed"]).1,
            Some(PlanPhase::Completed)
        );
        assert_eq!(summary(&one_run, "off", &["exploded"]).1, None);
        assert_eq!(summary(&one_run, "verbose", &[]), (TraceLevel::Off, None));
    }

    #[test]
    fn journal_names_roundtrip() {
        assert_eq!(journal_file_name(7), "plan-7.avj");
        assert_eq!(trace_dir_name(7), "plan-7");
        assert_eq!(journal_plan_id(Path::new("/spool/plan-42.avj")), Some(42));
        assert_eq!(journal_plan_id(Path::new("/spool/plan-42.avtr")), None);
        assert_eq!(journal_plan_id(Path::new("/spool/other.avj")), None);
        assert_eq!(refused_journal_file_name(7), "plan-7.avj.refused");
        let refused = Path::new("/spool/plan-42.avj.refused");
        assert_eq!(refused_journal_plan_id(refused), Some(42));
        assert_eq!(journal_plan_id(refused), None);
        assert_eq!(
            refused_journal_plan_id(Path::new("/spool/plan-42.avj")),
            None
        );
        assert_eq!(
            refused_journal_plan_id(Path::new("/spool/plan-42.avtr.refused")),
            None
        );
    }
}
