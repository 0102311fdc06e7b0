//! `bench_bound` — adaptive forced-cost curves (adaptive vs greedy vs
//! exact-at-small-n), written to `BENCH_bound.json`.
//!
//! ```text
//! bench_bound                      # full grid (n up to 128), BENCH_bound.json
//! bench_bound --quick --out -      # n ≤ 16, JSON to stdout
//! ```
//!
//! Exits nonzero if any game fails to complete, the portfolio fails to
//! dominate its greedy member, a witness does not replay to the forced
//! SC cost, or a small-`n` forced cost is unsound against the
//! exhaustive supremum — CI runs the `--quick` grid as the bound smoke
//! test.

use std::process::ExitCode;

use exclusion_bench::boundbench::{all_clean, run, to_json, to_text};
use exclusion_bench::{bench_main, BenchRun};

fn main() -> ExitCode {
    bench_main(
        env!("CARGO_BIN_NAME"),
        "some games failed to dominate, replay, or stay sound",
        |quick| {
            let (cells, exact) = run(quick);
            BenchRun {
                text: to_text(&cells, &exact),
                json: to_json(&cells, &exact, quick),
                clean: all_clean(&cells, &exact),
            }
        },
    )
}
