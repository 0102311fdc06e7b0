//! `bench_crash` — forced-RMR curves for the recoverable locks under
//! crash budgets k ∈ {0, 1, 2}, written to `BENCH_crash.json`.
//!
//! ```text
//! bench_crash                      # full grid (n up to 16), BENCH_crash.json
//! bench_crash --quick --out -      # n ≤ 8, JSON to stdout
//! ```
//!
//! Exits nonzero if any crash game fails to complete, the portfolio
//! fails to dominate its greedy member, a witness does not replay to
//! the forced RMR-CC cost, a k = 0 column drifts from the crash-free
//! CC/DSM pipeline, or an exhaustive certification verdict flips
//! (honest locks must certify, the planted `broken-recover` must be
//! refuted) — CI runs the `--quick` grid as the crash smoke test.

use std::process::ExitCode;

use exclusion_bench::crashbench::{all_clean, run, to_json, to_text};
use exclusion_bench::{bench_main, BenchRun};

fn main() -> ExitCode {
    bench_main(
        env!("CARGO_BIN_NAME"),
        "some games failed to dominate, replay, hold baseline, or certify",
        |quick| {
            let (cells, checks) = run(quick);
            BenchRun {
                text: to_text(&cells, &checks),
                json: to_json(&cells, &checks, quick),
                clean: all_clean(&cells, &checks),
            }
        },
    )
}
