//! `bench_sweep` — the sweep benchmark: times a record-and-replay
//! baseline and the streaming sweep on the same adversarial grid and
//! writes `BENCH_sweep.json`.
//!
//! ```text
//! bench_sweep                        # full grid (n up to 64), BENCH_sweep.json
//! bench_sweep --quick --out -       # shrunk grid, JSON to stdout
//! ```
//!
//! Exits nonzero if any swept configuration errors or the two engines
//! disagree — CI runs this as the perf smoke test.

use std::process::ExitCode;

use exclusion_bench::sweepbench::{all_clean, run, to_json, to_text};
use exclusion_bench::{bench_main, BenchRun};

fn main() -> ExitCode {
    bench_main(
        env!("CARGO_BIN_NAME"),
        "some configurations failed or the engines disagreed",
        |quick| {
            let configs = run(quick);
            BenchRun {
                text: to_text(&configs),
                json: to_json(&configs, quick),
                clean: all_clean(&configs),
            }
        },
    )
}
