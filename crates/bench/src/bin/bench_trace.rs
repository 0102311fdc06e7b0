//! `bench_trace` — the probe-overhead benchmark: times the streaming
//! pricer plain, with `NoProbe`, and with a live `Metrics` probe, and
//! writes `BENCH_trace.json`.
//!
//! ```text
//! bench_trace                        # full grid (n 16 and 64), BENCH_trace.json
//! bench_trace --quick --out -       # shrunk grid, JSON to stdout
//! ```
//!
//! Exits nonzero if any cell errors, the engines disagree, or an
//! overhead gate (probe-off ≤ 1.05×, probe-on ≤ 1.5×) is exceeded — CI
//! runs this as the zero-overhead regression gate.

use std::process::ExitCode;

use exclusion_bench::tracebench::{all_clean, run, to_json, to_text};
use exclusion_bench::{bench_main, BenchRun};

fn main() -> ExitCode {
    bench_main(
        env!("CARGO_BIN_NAME"),
        "a cell failed, engines disagreed, or an overhead gate was exceeded",
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
