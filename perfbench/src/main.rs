//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a few human-readable lines, then the JSON result as the last
//! line of standard output. Exits 0 only when every checked output was
//! correct; exits 2 on a bad command line and 1 on a failed set-up or a
//! wrong output.

use std::process::ExitCode;

use exclusion_perfbench::run::{run, Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.log {
        println!("{}: {line}", args.workload);
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{}: {name} = {value} {unit}", args.workload);
    }
    for e in &outcome.ledger.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
