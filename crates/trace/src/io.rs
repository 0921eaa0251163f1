//! Trace files on disk: naming, writing, reading, directory listing.
//!
//! Traces are routed by **flat-plan index** — the run's position in the
//! engine's flattened work queue — so the set of file names a campaign
//! emits is a pure function of the plan, never of worker count or
//! scheduling. Files use the `.avtr` extension.

use crate::codec::{decode, encode, DecodeError};
use crate::model::RunTrace;
use std::io;
use std::path::{Path, PathBuf};

/// Extension of binary trace files.
pub const TRACE_EXT: &str = "avtr";

/// Deterministic file name for the run at `flat_index` in the flattened
/// plan: `run-000042.avtr`.
pub fn trace_file_name(flat_index: usize) -> String {
    format!("run-{flat_index:06}.{TRACE_EXT}")
}

/// The inverse of [`trace_file_name`]: the flat-plan index a trace file
/// is named by (`traces/run-000042.avtr` → `42`), `None` for any other
/// file.
pub fn trace_file_index(path: &Path) -> Option<usize> {
    if path.extension()?.to_str()? != TRACE_EXT {
        return None;
    }
    path.file_stem()?
        .to_str()?
        .strip_prefix("run-")?
        .parse()
        .ok()
}

/// Encodes and writes `trace` into `dir` under its flat-index name,
/// creating the directory if needed. Returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_trace_file(dir: &Path, flat_index: usize, trace: &RunTrace) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(trace_file_name(flat_index));
    std::fs::write(&path, encode(trace))?;
    Ok(path)
}

/// Reads and decodes one trace file.
///
/// # Errors
///
/// Filesystem errors and [`DecodeError`]s are both surfaced as
/// `io::Error` (decode failures with `InvalidData`).
pub fn read_trace_file(path: &Path) -> io::Result<RunTrace> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e: DecodeError| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Lists the `.avtr` files in `dir` in flat-plan order: `run-N` files by
/// their index `N` (see [`trace_file_index`]; the name's six-digit
/// padding stops sorting by name from `run-1000000` on), then any other
/// `.avtr` file by name. A missing directory lists as empty.
///
/// # Errors
///
/// Propagates filesystem errors other than a missing directory.
pub fn list_trace_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(TRACE_EXT))
        .collect();
    files.sort_by_cached_key(|p| {
        let index = trace_file_index(p);
        (index.is_none(), index, p.clone())
    });
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_sort_in_flat_order() {
        assert_eq!(trace_file_name(0), "run-000000.avtr");
        assert_eq!(trace_file_name(123456), "run-123456.avtr");
        let mut names: Vec<String> = [9usize, 100, 3, 42]
            .iter()
            .map(|&i| trace_file_name(i))
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "run-000003.avtr",
                "run-000009.avtr",
                "run-000042.avtr",
                "run-000100.avtr"
            ]
        );
    }

    #[test]
    fn trace_index_round_trips_file_names() {
        for i in [0usize, 42, 123456, 1_000_000] {
            let path = Path::new("traces").join(trace_file_name(i));
            assert_eq!(trace_file_index(&path), Some(i));
        }
        assert_eq!(trace_file_index(Path::new("notes.txt")), None);
        assert_eq!(trace_file_index(Path::new("run-000042.json")), None);
        assert_eq!(trace_file_index(Path::new("minimal-000042.avtr")), None);
    }

    #[test]
    fn listing_follows_the_index_past_six_digits() {
        let dir = std::env::temp_dir().join(format!("avfi-trace-list-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            trace_file_name(1_000_000),
            trace_file_name(999_999),
            "minimal-000001.avtr".to_string(),
            trace_file_name(2),
            "notes.txt".to_string(),
        ] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        let names: Vec<String> = list_trace_files(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            names,
            [
                "run-000002.avtr",
                "run-999999.avtr",
                "run-1000000.avtr",
                "minimal-000001.avtr"
            ]
        );
    }

    #[test]
    fn missing_dir_lists_empty() {
        let dir = std::env::temp_dir().join("avfi-trace-no-such-dir-test");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(list_trace_files(&dir).unwrap().is_empty());
    }
}
