//! Prints the experiment tables of [`exclusion_bench::experiments`].
//!
//! ```text
//! tables                 # run everything (full grids)
//! tables --quick         # small grids, seconds
//! tables --exp e1        # one experiment
//! tables --markdown      # emit Markdown instead of aligned text
//! ```
//!
//! An unknown flag, or `--exp` without an id, exits 2 before any
//! experiment runs.

use std::process::ExitCode;

use exclusion_bench::experiments;
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
    match exp {
        Some(id) => match experiments::run_one(id, quick) {
            Some(t) => {
                if markdown {
                    println!("{}", t.to_markdown());
                } else {
                    println!("{t}");
                }
            }
            None => {
                eprintln!("unknown experiment `{id}`; use e1..e9, e10a, e10b, e11, e12, e13");
                return ExitCode::from(2);
            }
        },
        None => {
            let tables = experiments::run_all(quick);
            if markdown {
                for t in tables {
                    println!("{}", t.to_markdown());
                }
            }
        }
    }
    ExitCode::SUCCESS
}
