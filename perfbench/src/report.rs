//! The benchmark's output: one provenance record per metric in the shared
//! `{bench, host, command, commit, reps, samples, median, mad, unit}`
//! schema, a readable table on stderr, and the final result line.

use crate::stats;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Number of samples or events behind `value` (0 marks a layer the
    /// workload does not exercise; its value is then 0).
    pub samples: usize,
    /// Median absolute deviation of the samples (0 for a single figure).
    pub mad: f64,
    /// In-run quartiles `[q1, q2, q3]` of the samples, when there are any.
    pub quartiles: Option<[f64; 3]>,
    /// Whether `value` is a percentile with fewer than ten samples beyond
    /// it.
    pub thin_tail: bool,
}

impl Metric {
    /// The median of `samples`.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            value: stats::median(samples).unwrap_or(0.0),
            samples: samples.len(),
            mad: stats::mad(samples).unwrap_or(0.0),
            quartiles: stats::quartiles(samples),
            thin_tail: false,
        }
    }

    /// The `p`-th percentile of `samples`.
    pub fn percentile(name: &'static str, unit: &'static str, samples: &[f64], p: f64) -> Metric {
        Metric {
            value: stats::percentile(samples, p).unwrap_or(0.0),
            thin_tail: stats::tail_percentile(samples.len(), 10).is_none_or(|t| f64::from(t) < p),
            ..Metric::median(name, unit, samples)
        }
    }

    /// One measured figure summarizing `samples` events.
    pub fn value(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
            mad: 0.0,
            quartiles: None,
            thin_tail: false,
        }
    }
}

/// Metrics of layers a workload does not exercise: 0 with no samples.
pub fn absent(metrics: &[(&'static str, &'static str)]) -> Vec<Metric> {
    metrics
        .iter()
        .map(|&(name, unit)| Metric::value(name, unit, 0.0, 0))
        .collect()
}

/// Where and how the numbers were made.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Repetitions of the workload's unit of work (plans executed).
    pub reps: usize,
}

/// What a run found: the outputs checked, and how many were wrong.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn check(&mut self, units: u64, ok: bool) {
        self.attempted += units;
        if !ok {
            self.failed += units;
        }
    }
}

/// Prints every record and the result line; returns whether the run was
/// correct.
pub fn emit(prov: &Provenance, metrics: &[Metric], outcome: Outcome) -> bool {
    let host = host_json();
    let command = std::env::var("PERFBENCH_COMMAND")
        .unwrap_or_else(|_| std::env::args().collect::<Vec<_>>().join(" "));
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    eprintln!(
        "[perfbench] {} seed={} seconds={} trace={} reps={}",
        prov.workload, prov.seed, prov.seconds, prov.trace as u8, prov.reps
    );
    for m in metrics {
        assert!(
            stats::valid_metric_name(m.name),
            "bad metric name {}",
            m.name
        );
        println!(
            "{{\"bench\": {}, \"host\": {host}, \"command\": {}, \"commit\": {}, \
             \"seed\": {}, \"reps\": {}, \"samples\": {}, \"median\": {}, \"mad\": {}, \
             \"q1\": {}, \"q3\": {}, \"unit\": {}}}",
            json_str(&format!("perfbench/{}/{}", prov.workload, m.name)),
            json_str(&command),
            json_str(&commit),
            prov.seed,
            prov.reps,
            m.samples,
            json_num(m.value),
            json_num(m.mad),
            json_num(m.quartiles.map_or(m.value, |q| q[0])),
            json_num(m.quartiles.map_or(m.value, |q| q[2])),
            json_str(m.unit),
        );
        let spread = m
            .quartiles
            .filter(|q| q[1] != 0.0)
            .map_or(String::new(), |[q1, q2, q3]| {
                format!(" in-run IQR/median {:.3}", (q3 - q1) / q2.abs())
            });
        let tail = if m.thin_tail {
            " (fewer than 10 samples beyond this percentile)"
        } else {
            ""
        };
        eprintln!(
            "  {:<26} {:>14.4} {:<9} n={}{spread}{tail}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    eprintln!(
        "  {:<26} {:>14.4} ratio     ({} failed of {} attempted)",
        "failed_frac",
        stats::failed_frac(outcome.failed, outcome.attempted),
        outcome.failed,
        outcome.attempted
    );
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    correct
}

fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}}}",
        json_str(&cpu),
        json_str(&rustc)
    )
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn outcome_counts_failed_units() {
        let mut o = Outcome::default();
        o.check(24, true);
        o.check(24, false);
        assert_eq!((o.attempted, o.failed), (48, 24));
        assert_eq!(stats::failed_frac(o.failed, o.attempted), 0.5);
    }
}
