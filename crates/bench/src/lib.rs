//! The experiment harness: every experiment table is generated by a
//! function in [`experiments`], and `cargo run -p exclusion-bench
//! --bin tables` prints them all. The `bench_sweep` binary (module
//! [`sweepbench`]) times the streaming pricing engine against the
//! record+replay one and emits `BENCH_sweep.json`; the `bench_explore`
//! binary (module [`explorebench`]) computes the exact worst-case cost
//! tables for small `n` and emits `BENCH_explore.json`; the
//! `bench_bound` binary (module [`boundbench`]) plays the adaptive
//! lower-bound adversary against the greedy baseline across the
//! forced-cost grid and emits `BENCH_bound.json`; the `bench_trace`
//! binary (module [`tracebench`])
//! times the streaming pricer with the probe absent, disabled and
//! collecting, gates the overhead, and emits `BENCH_trace.json`; the
//! `bench_crash` binary (module [`crashbench`]) plays the crash-budget
//! adversary game over the recoverable locks, cross-checks the
//! exhaustive crash certification, and emits `BENCH_crash.json`; the
//! `bench_serve` binary (module [`servebench`]) serves the same open
//! request stream across worker counts and arrival models, gates the
//! aggregate throughput, and emits `BENCH_serve.json`; the `bench_hw`
//! binary (module [`hwbench`]) runs the composable queue locks under
//! shared arrival schedules both simulated and on real atomics,
//! gates the O(1)-RMR flatness of the queue locks, and emits
//! `BENCH_hw.json`.
//!
//! The paper (a theory paper) has no numbered tables or figures; the
//! experiments here are the executable counterparts of its theorems.
//! Each function returns a [`table::Table`] so the binary and the tests
//! see identical rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundbench;
pub mod crashbench;
pub mod experiments;
pub mod explorebench;
pub mod hwbench;
pub mod servebench;
pub mod sweepbench;
pub mod table;
pub mod tracebench;

pub use table::Table;
