//! The one command-line reader every binary in the workspace uses.
//!
//! A binary reads each argument it honours by name: [`Args::flag`] for a
//! switch, [`Args::value`] for `--name VALUE`, and last, after every
//! value, [`Args::positional`] or [`Args::positionals`] for its operands.
//! It then calls [`Args::finish`], which refuses whatever is left: it
//! names each unknown argument, missing value and unparseable value,
//! prints a usage line built from the names the binary read, and exits
//! with status 2 before the binary does any work.

use std::fmt::Display;
use std::str::FromStr;

/// A process's arguments, read by name (see the module docs).
#[derive(Debug)]
pub struct Args {
    program: String,
    /// The arguments in order; a slot empties once something reads it.
    slots: Vec<Option<String>>,
    /// One usage fragment per name read, in reading order.
    usage: Vec<String>,
    problems: Vec<String>,
}

impl Args {
    /// The arguments this process was started with.
    pub fn from_env() -> Args {
        Args::new(std::env::args())
    }

    /// Reads `argv`: the program name first, then its arguments.
    pub fn new<S: Into<String>>(argv: impl IntoIterator<Item = S>) -> Args {
        let mut argv = argv.into_iter().map(Into::into);
        Args {
            program: argv.next().unwrap_or_default(),
            slots: argv.map(Some).collect(),
            usage: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Whether the switch `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.usage.push(format!("[{name}]"));
        let taken = self
            .slots
            .iter_mut()
            .filter_map(|slot| slot.take_if(|arg| arg == name));
        taken.count() > 0
    }

    /// The value after `name`, parsed as `T`; the last one wins when
    /// `name` repeats. A value may not start with `--`, so a flag is
    /// never taken for the value of the flag before it.
    pub fn value<T: FromStr<Err: Display>>(&mut self, name: &str) -> Option<T> {
        let metavar = name.trim_start_matches('-').to_uppercase();
        self.usage.push(format!("[{name} {metavar}]"));
        let mut parsed = None;
        for i in 0..self.slots.len() {
            if self.slots[i].take_if(|arg| arg == name).is_none() {
                continue;
            }
            let next = self.slots.get_mut(i + 1);
            match next.and_then(|slot| slot.take_if(|arg| !arg.starts_with("--"))) {
                Some(raw) => parsed = self.parse(name, &raw),
                None => self.refuse(format!("{name} needs a value")),
            }
        }
        parsed
    }

    /// The first operand (an argument not starting with `-` that no flag
    /// or value read), parsed as `T`.
    pub fn positional<T: FromStr<Err: Display>>(&mut self, name: &str) -> Option<T> {
        self.usage.push(format!("[{name}]"));
        let raw = self.slots.iter_mut().find_map(take_operand)?;
        self.parse(name, &raw)
    }

    /// Every remaining operand, parsed as `T`.
    pub fn positionals<T: FromStr<Err: Display>>(&mut self, name: &str) -> Vec<T> {
        self.usage.push(format!("[{name}]..."));
        let raw: Vec<String> = self.slots.iter_mut().filter_map(take_operand).collect();
        raw.iter().filter_map(|arg| self.parse(name, arg)).collect()
    }

    /// Records a problem the binary found with an argument it read, such
    /// as a value out of range or a missing operand; [`Args::finish`]
    /// reports it with the rest.
    pub fn refuse(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// `Err` with the message [`Args::finish`] prints when any argument
    /// is unknown, lacks its value, or failed to parse or a check.
    pub fn check(&self) -> Result<(), String> {
        let unknown = self
            .slots
            .iter()
            .flatten()
            .map(|arg| format!("unknown argument {arg:?}"));
        let problems: Vec<String> = self.problems.iter().cloned().chain(unknown).collect();
        if problems.is_empty() {
            return Ok(());
        }
        let program = &self.program;
        let lines: String = problems
            .iter()
            .map(|p| format!("{program}: {p}\n"))
            .collect();
        Err(format!("{lines}usage: {program} {}", self.usage.join(" ")))
    }

    /// Returns when every argument was read and accepted; otherwise
    /// prints each problem and the usage line and exits with status 2.
    pub fn finish(self) {
        if let Err(message) = self.check() {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }

    fn parse<T: FromStr<Err: Display>>(&mut self, name: &str, raw: &str) -> Option<T> {
        let parsed = raw.parse().map_err(|e| format!("{name} {raw:?}: {e}"));
        parsed.map_err(|problem| self.refuse(problem)).ok()
    }
}

fn take_operand(slot: &mut Option<String>) -> Option<String> {
    slot.take_if(|arg| !arg.starts_with('-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(argv: &[&str]) -> Args {
        Args::new(std::iter::once("tool").chain(argv.iter().copied()))
    }

    #[test]
    fn reads_flags_values_and_positionals() {
        let mut a = args(&["in1", "--json", "--workers", "4", "in2", "--out", "o"]);
        assert!(a.flag("--json"));
        assert!(!a.flag("--quick"));
        assert_eq!(a.value::<usize>("--workers"), Some(4));
        assert_eq!(a.value::<PathBuf>("--out"), Some(PathBuf::from("o")));
        assert_eq!(a.value::<u64>("--seed"), None);
        let inputs: Vec<PathBuf> = a.positionals("INPUT");
        assert_eq!(inputs, [PathBuf::from("in1"), PathBuf::from("in2")]);
        assert_eq!(a.check(), Ok(()));

        let mut a = args(&["5000", "--fault", "gps"]);
        assert_eq!(a.value::<String>("--fault").as_deref(), Some("gps"));
        assert_eq!(a.positional::<u64>("FRAMES"), Some(5000));
        assert_eq!(a.positional::<u64>("FRAMES"), None);
        assert_eq!(a.check(), Ok(()));

        // The last repeat wins.
        let mut a = args(&["--seed", "1", "--seed", "2"]);
        assert_eq!(a.value::<u64>("--seed"), Some(2));
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn unknown_flag_is_reported_with_the_usage() {
        let mut a = args(&["--quick", "--no-such-flag", "extra"]);
        assert!(a.flag("--quick"));
        let _ = a.value::<usize>("--workers");
        let err = a.check().unwrap_err();
        assert!(
            err.contains("tool: unknown argument \"--no-such-flag\""),
            "{err}"
        );
        assert!(err.contains("tool: unknown argument \"extra\""), "{err}");
        assert!(
            err.ends_with("usage: tool [--quick] [--workers WORKERS]"),
            "{err}"
        );
    }

    #[test]
    fn missing_value_is_reported() {
        let mut a = args(&["--weights", "--json", "traces/"]);
        assert!(a.flag("--json"));
        assert_eq!(a.value::<PathBuf>("--weights"), None);
        let _: Vec<PathBuf> = a.positionals("TRACE");
        assert!(a.check().unwrap_err().contains("--weights needs a value"));

        let mut a = args(&["--out"]);
        assert_eq!(a.value::<PathBuf>("--out"), None);
        assert!(a.check().unwrap_err().contains("--out needs a value"));
    }

    #[test]
    fn unparseable_value_is_reported() {
        let mut a = args(&["--frames", "lots"]);
        assert_eq!(a.value::<usize>("--frames"), None);
        let err = a.check().unwrap_err();
        assert!(err.contains("--frames \"lots\": invalid digit"), "{err}");

        let mut a = args(&["many"]);
        assert_eq!(a.positional::<u64>("FRAMES"), None);
        assert!(a.check().unwrap_err().contains("FRAMES \"many\""));

        let mut a = args(&[]);
        a.refuse("--budget must be positive");
        assert!(a
            .check()
            .unwrap_err()
            .contains("tool: --budget must be positive"));
    }
}
