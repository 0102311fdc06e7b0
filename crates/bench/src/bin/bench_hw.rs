//! `bench_hw` — the formal-vs-hardware differential benchmark: runs
//! the composable queue locks (plus contrast entries) under shared
//! arrival schedules, both simulated and on real atomics, and writes
//! `BENCH_hw.json`.
//!
//! ```text
//! bench_hw                        # full grid (16 requests/process), BENCH_hw.json
//! bench_hw --quick --out -       # 4 requests/process, JSON to stdout
//! ```
//!
//! Exits nonzero if any scenario's simulated and hardware legs
//! disagree on per-thread passage counts, or if a queue lock's
//! simulated RMR per passage is not flat across sizes on the
//! low-contention scenario — CI runs this as the O(1)-RMR regression
//! gate. Wall-clock fields vary run to run; exclude them from
//! byte-identity comparisons.

use std::process::ExitCode;

use exclusion_bench::hwbench::{all_clean, run, to_json, to_text};
use exclusion_bench::{bench_main, BenchRun};

fn main() -> ExitCode {
    bench_main(
        env!("CARGO_BIN_NAME"),
        "legs disagreed or a queue lock's RMR per passage is not flat across sizes",
        |quick| {
            let rows = run(quick);
            BenchRun {
                text: to_text(&rows),
                json: to_json(&rows, quick),
                clean: all_clean(&rows),
            }
        },
    )
}
