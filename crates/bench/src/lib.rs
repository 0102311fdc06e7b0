//! The experiment harness: every experiment table is generated by a
//! function in [`experiments`], and `cargo run -p exclusion-bench
//! --bin tables` prints them all. Two bench binaries remain beside
//! it: `bench_trace` (module [`tracebench`]) times the streaming
//! pricer with the probe absent, disabled and collecting, gates the
//! overhead, and emits `BENCH_trace.json`; `bench_serve` (module
//! [`servebench`]) serves the same open request stream across worker
//! counts and arrival models, gates the aggregate throughput, and
//! emits `BENCH_serve.json`. The bound, crash, explore, sweep and
//! hardware engines have one front end each, a `workload`
//! subcommand, and their correctness gates are tests.
//!
//! Every `bench_*` binary's `main` is [`bench_main`]: it reads
//! `--quick`, `--out` and `--help`, writes the JSON and maps the
//! benchmark's verdict to the exit status.
//!
//! The paper (a theory paper) has no numbered tables or figures; the
//! experiments here are the executable counterparts of its theorems.
//! Each function returns a [`table::Table`] so the binary and the tests
//! see identical rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;

use exclusion_workload::cli::Flags;

pub mod experiments;
pub mod servebench;
pub mod table;
pub mod tracebench;

pub use table::Table;

/// What one benchmark run hands back to [`bench_main`].
#[derive(Debug)]
pub struct BenchRun {
    /// The aligned text table, printed to stderr.
    pub text: String,
    /// The JSON report, written to `--out`.
    pub json: String,
    /// Whether every gate held; a run that is not clean exits nonzero.
    pub clean: bool,
}

/// The `main` of every `bench_*` binary. Reads `--quick`, `--out
/// PATH|-` (default `BENCH_<name>.json` for a binary named
/// `bench_<name>`; `-` is stdout) and `--help`, runs `bench(quick)`,
/// prints its text table to stderr, writes its JSON, and exits nonzero
/// with `failure` when a gate did not hold. A flag error exits nonzero
/// before anything runs.
pub fn bench_main(name: &str, failure: &str, bench: impl FnOnce(bool) -> BenchRun) -> ExitCode {
    exclusion_workload::cli::quiet_broken_pipe();
    let outcome = run_bench(name, bench);
    let error = match &outcome {
        Ok(true) => return ExitCode::SUCCESS,
        Ok(false) => failure,
        Err(e) => e,
    };
    eprintln!("{name}: {error}");
    ExitCode::FAILURE
}

/// [`bench_main`] up to the exit status: whether the run was clean
/// (`--help` runs nothing and is clean), or the flag or write error.
fn run_bench(name: &str, bench: impl FnOnce(bool) -> BenchRun) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = format!("BENCH_{}.json", name.trim_start_matches("bench_"));
    let mut flags = Flags::new(&argv, "--help");
    while let Some(flag) = flags.next() {
        match flag {
            "--quick" => quick = true,
            "--out" => out = flags.value()?.to_string(),
            "--help" | "-h" => {
                eprintln!("usage: {name} [--quick] [--out PATH|-]");
                return Ok(true);
            }
            other => return Err(flags.unknown(other)),
        }
    }
    let run = bench(quick);
    eprint!("{}", run.text);
    if out == "-" {
        println!("{}", run.json);
    } else {
        std::fs::write(&out, &run.json).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(run.clean)
}
