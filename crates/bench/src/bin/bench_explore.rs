//! `bench_explore` — exact worst-case cost tables from exhaustive
//! exploration, written to `BENCH_explore.json`.
//!
//! ```text
//! bench_explore                      # full grid (n up to 4), BENCH_explore.json
//! bench_explore --quick --out -      # n ∈ {2, 3}, JSON to stdout
//! ```
//!
//! Exits nonzero if any cell fails certification, a witness
//! cross-check fails, exploration truncates, the planted `broken`
//! lock goes uncaught, or the orbit-reduction gate misses its 10x
//! shrink — CI runs the `--quick` grid as the exploration smoke test.

use std::process::ExitCode;

use exclusion_bench::explorebench::{all_clean, run, to_json, to_text};
use exclusion_bench::{bench_main, BenchRun};

fn main() -> ExitCode {
    bench_main(
        env!("CARGO_BIN_NAME"),
        "some cells failed certification or a cross-check",
        |quick| {
            let (cells, broken, reductions) = run(quick);
            BenchRun {
                text: to_text(&cells, &broken, &reductions),
                json: to_json(&cells, &broken, &reductions, quick),
                clean: all_clean(&cells, &broken, &reductions),
            }
        },
    )
}
