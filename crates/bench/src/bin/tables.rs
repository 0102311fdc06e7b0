//! Prints the experiment tables of [`exclusion_bench::experiments`].
//!
//! ```text
//! tables                 # run everything (full grids)
//! tables --quick         # small grids, seconds
//! tables --exp e1        # one experiment
//! tables --markdown      # emit Markdown instead of aligned text
//! ```
//!
//! Each table is printed once, as it completes: as aligned text
//! followed by an `[eN took …]` line, or with `--markdown` as Markdown
//! alone. An unknown flag, or `--exp` without an id or with an unknown
//! one, exits 2 before any experiment runs.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use exclusion_bench::experiments::{self, EXPERIMENTS};
use exclusion_bench::Table;
use exclusion_workload::cli::Flags;

/// The command line: `(quick, markdown, experiment id)`.
fn parse(argv: &[String]) -> Result<(bool, bool, Option<&str>), String> {
    let (mut quick, mut markdown, mut exp) = (false, false, None);
    let mut flags = Flags::new(argv, "--quick, --exp ID or --markdown");
    while let Some(flag) = flags.next() {
        match flag {
            "--quick" => quick = true,
            "--markdown" => markdown = true,
            "--exp" => exp = Some(flags.value()?),
            other => return Err(flags.unknown(other)),
        }
    }
    Ok((quick, markdown, exp))
}

/// Prints one finished experiment.
fn print(id: &str, table: &Table, took: Duration, markdown: bool) {
    if markdown {
        println!("{}", table.to_markdown());
    } else {
        println!("{table}");
        println!("[{id} took {took:?}]\n");
    }
}

fn main() -> ExitCode {
    exclusion_workload::cli::quiet_broken_pipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (quick, markdown, exp) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tables: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(id) = exp else {
        for (id, table, took) in experiments::run_all(quick) {
            print(id, &table, took, markdown);
        }
        return ExitCode::SUCCESS;
    };
    let start = Instant::now();
    let Some(table) = experiments::run_one(id, quick) else {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        eprintln!("tables: unknown experiment `{id}`; use {}", ids.join(", "));
        return ExitCode::from(2);
    };
    print(id, &table, start.elapsed(), markdown);
    ExitCode::SUCCESS
}
