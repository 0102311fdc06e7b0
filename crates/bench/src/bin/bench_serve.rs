//! `bench_serve` — the lock-service throughput benchmark: serves the
//! same open request stream across worker counts and arrival models
//! and writes `BENCH_serve.json`.
//!
//! ```text
//! bench_serve                        # full grid (1M requests/cell), BENCH_serve.json
//! bench_serve --quick --out -       # 100k requests/cell, JSON to stdout
//! ```
//!
//! Exits nonzero if any stripe errors, a worker count changes the
//! report (bit-identity), or no cell sustains 1M requests/s — CI runs
//! this as the serve-throughput regression gate.

use std::process::ExitCode;

use exclusion_bench::servebench::{all_clean, run, to_json, to_text};
use exclusion_bench::{bench_main, BenchRun};

fn main() -> ExitCode {
    bench_main(
        env!("CARGO_BIN_NAME"),
        "a stripe failed, a worker count changed the report, or no cell reached the throughput gate",
        |quick| {
            let cells = run(quick);
            BenchRun {
                text: to_text(&cells),
                json: to_json(&cells, quick),
                clean: all_clean(&cells),
            }
        },
    )
}
