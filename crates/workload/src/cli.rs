//! The flag reader every workspace binary shares.
//!
//! A binary matches flag names itself and asks [`Flags`] for values:
//! [`Flags::value`] takes the next argument whole, [`Flags::parse`]
//! and [`Flags::value_with`] convert it, and [`Flags::specs`] splits a
//! comma-separated spec list. Every error reads the same way in every
//! binary: `--flag needs a value`, `--flag: <why>`, and
//! ``unknown flag `--x` (try <help>)``.
//!
//! ```
//! use exclusion_workload::cli::Flags;
//!
//! let argv: Vec<String> = ["--n", "8", "--algs", "peterson,filter:levels=7,bakery", "--quiet"]
//!     .map(String::from)
//!     .to_vec();
//! let (mut n, mut algs, mut quiet) = (0usize, Vec::new(), false);
//! let mut flags = Flags::new(&argv, "--help");
//! while let Some(flag) = flags.next() {
//!     match flag {
//!         "--n" => n = flags.parse()?,
//!         "--algs" => algs = flags.specs()?,
//!         "--quiet" => quiet = true,
//!         other => return Err(flags.unknown(other)),
//!     }
//! }
//! assert_eq!((n, algs.len(), quiet), (8, 3, true));
//!
//! let bad = vec!["--n".to_string(), "x".to_string()];
//! let mut flags = Flags::new(&bad, "--help");
//! flags.next();
//! assert_eq!(flags.parse::<usize>().unwrap_err(), "--n: invalid digit found in string");
//! # Ok::<(), String>(())
//! ```

use std::fmt::Display;
use std::str::FromStr;

/// A cursor over a binary's arguments. Iterating yields each flag; the
/// value methods consume the argument after the flag last yielded.
#[derive(Debug)]
pub struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
    help: &'a str,
}

impl<'a> Flags<'a> {
    /// A reader over `argv` (program name and subcommand already
    /// stripped); `help` is the invocation an unknown-flag error points
    /// to, such as `"--help"` or `"explore --help"`.
    #[must_use]
    pub fn new(argv: &'a [String], help: &'a str) -> Self {
        Flags {
            rest: argv.iter(),
            flag: "",
            help,
        }
    }

    /// The current flag's value: the next argument, whatever it holds.
    ///
    /// # Errors
    ///
    /// `--flag needs a value` when the arguments ran out.
    pub fn value(&mut self) -> Result<&'a str, String> {
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The current flag's value converted by `f`.
    ///
    /// # Errors
    ///
    /// As [`Flags::value`], or `--flag: <error>` when `f` rejects it.
    pub fn value_with<T, E: Display>(
        &mut self,
        f: impl FnOnce(&'a str) -> Result<T, E>,
    ) -> Result<T, String> {
        let v = self.value()?;
        convert(self.flag, v, f)
    }

    /// The current flag's value parsed as a `T`.
    ///
    /// # Errors
    ///
    /// As [`Flags::value_with`].
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value_with(str::parse)
    }

    /// The current flag's value as a spec list, split by [`split_specs`].
    ///
    /// # Errors
    ///
    /// As [`Flags::value`].
    pub fn specs(&mut self) -> Result<Vec<String>, String> {
        self.value().map(split_specs)
    }

    /// The error for a flag the binary does not know.
    #[must_use]
    pub fn unknown(&self, flag: &str) -> String {
        format!("unknown flag `{flag}` (try {})", self.help)
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }
}

/// Converts `value`, given for `flag`, with `f`; an error reads
/// `--flag: <error>`. For values that arrive attached to their flag,
/// as in `--progress=every:N`.
///
/// # Errors
///
/// `--flag: <error>` when `f` rejects the value.
pub fn convert<'v, T, E: Display>(
    flag: &str,
    value: &'v str,
    f: impl FnOnce(&'v str) -> Result<T, E>,
) -> Result<T, String> {
    f(value).map_err(|e| format!("{flag}: {e}"))
}

/// Splits a comma-separated spec list, keeping multi-parameter specs
/// whole: a fragment that cannot *start* a spec (its name part
/// contains `=`) is a continuation of the previous spec's parameter
/// list, so `greedy,burst:wave=2,gap=32` is two specs, not three.
///
/// ```
/// use exclusion_workload::cli::split_specs;
///
/// assert_eq!(
///     split_specs("greedy,burst:wave=2,gap=32,stagger"),
///     ["greedy", "burst:wave=2,gap=32", "stagger"]
/// );
/// ```
#[must_use]
pub fn split_specs(s: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for part in s.split(',') {
        let starts_spec = !part.split(':').next().unwrap_or("").contains('=');
        match out.last_mut() {
            Some(last) if !starts_spec => {
                last.push(',');
                last.push_str(part);
            }
            _ => out.push(part.to_string()),
        }
    }
    out
}

/// Makes a closed stdout a quiet end of output for this process: once
/// the reader has gone (`tables | head -1`), the `print!` that finds
/// the pipe closed ends the process without a message instead of
/// panicking with `failed printing to stdout: Broken pipe`. The exit
/// status is 141 (128 + SIGPIPE), what a shell reports for a tool that
/// SIGPIPE stopped, so a run whose output was cut off never reads as a
/// completed one. Every other panic reaches the previous hook
/// unchanged. Every workspace binary calls this first, so no print
/// site handles the error itself.
pub fn quiet_broken_pipe() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload_as_str().is_some_and(is_closed_stdout) {
            std::process::exit(CLOSED_STDOUT);
        }
        previous(info);
    }));
}

/// The exit status after [`quiet_broken_pipe`] ends a process: 128 +
/// SIGPIPE (13).
const CLOSED_STDOUT: i32 = 141;

/// Whether a panic message is the one `print!` raises on a closed
/// stdout.
fn is_closed_stdout(msg: &str) -> bool {
    msg.strip_prefix("failed printing to stdout: ")
        .is_some_and(|why| why.to_ascii_lowercase().starts_with("broken pipe"))
}

#[cfg(test)]
mod tests {
    use super::is_closed_stdout;

    #[test]
    fn only_a_closed_stdout_ends_output_quietly() {
        assert!(is_closed_stdout(
            "failed printing to stdout: Broken pipe (os error 32)"
        ));
        assert!(is_closed_stdout("failed printing to stdout: broken pipe"));
        assert!(!is_closed_stdout(
            "failed printing to stderr: Broken pipe (os error 32)"
        ));
        assert!(!is_closed_stdout(
            "failed printing to stdout: No space left on device (os error 28)"
        ));
        assert!(!is_closed_stdout("index out of bounds"));
    }
}
