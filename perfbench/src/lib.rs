//! The repository's end-to-end benchmark.
//!
//! Three workloads drive the public APIs of `exclusion-lb`,
//! `exclusion-explore`, `exclusion-shmem`, `exclusion-cost` and
//! `exclusion-serve` from one process with at most two threads:
//!
//! * [`pipeline`] — the paper's construct → encode → decode proof
//!   pipeline over seeded permutations;
//! * [`explore`] — exact state-space exploration and worst-case search;
//! * [`serve`] — the open-stream lock service, plus the layer ladder.
//!
//! Each workload runs three *cases* per round. An untraced run reports
//! the end-to-end metrics ([`END_TO_END`]); a traced run records spans
//! around every public call and reports the per-layer metrics
//! ([`PER_LAYER`]). Every simulated output is checked on every run; see
//! `perfbench/README.md` for the workloads, the metrics and the layer →
//! metric map.

#![forbid(unsafe_code)]

pub mod explore;
pub mod json;
pub mod pipeline;
pub mod run;
pub mod serve;
pub mod tracer;

use std::collections::BTreeMap;
use std::fmt::{Debug, Display};

use tracer::Tracer;

/// The seed whose outputs are pinned value by value. Under any other
/// seed only the invariants that hold for every seed are checked.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
/// `caseK_per_s` is the throughput of the workload's K-th case in its
/// own unit of work (see each workload module).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "ratio"),
    ("case1_per_s", "1/s"),
    ("case2_per_s", "1/s"),
    ("case3_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// layer that a workload does not call reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("lb.construct_ms", "ms"),
    ("lb.encode_ms", "ms"),
    ("lb.decode_ms", "ms"),
    ("lb.check_ms", "ms"),
    ("lb.cost", "count"),
    ("lb.bits", "count"),
    ("lb.metasteps", "count"),
    ("lb.bits_per_cost", "ratio"),
    ("explore.certify_s", "s"),
    ("explore.worst_s", "s"),
    ("explore.speedup_2w", "ratio"),
    ("explore.bytes_per_state", "B"),
    ("explore.states", "count"),
    ("explore.edges", "count"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.peak_frontier", "count"),
    ("worst.nodes", "count"),
    ("worst.edges", "count"),
    ("shmem.canonicalize_ns", "ns"),
    ("shmem.expand_ns", "ns"),
    ("ladder.automaton_ns", "ns"),
    ("ladder.system_ns", "ns"),
    ("ladder.sched_ns", "ns"),
    ("ladder.priced_ns", "ns"),
    ("ladder.serve_ns", "ns"),
    ("serve.steps_per_req", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.requests", "count"),
    ("trace.untraced_round_ms", "ms"),
    ("trace.traced_round_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// How a run is sized and checked.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Workload seed: permutation sampling and serve base seed.
    pub seed: u64,
    /// Small instances with their own pins, for the benchmark's tests.
    pub quick: bool,
    /// Deliberately corrupt one pinned value, to prove pins are checked.
    pub perturb_pin: bool,
}

impl Config {
    /// Whether value-by-value pins apply (the default seed).
    #[must_use]
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED
    }

    /// `want`, shifted by one when pins are deliberately corrupted.
    #[must_use]
    pub fn pin(&self, want: u64) -> u64 {
        want + u64::from(self.perturb_pin)
    }
}

/// Operations attempted and failed, with the first few failures kept
/// for the log.
#[derive(Default, Debug)]
pub struct Ledger {
    /// Operations run (one pipeline pass, exploration or serve each).
    pub attempted: u64,
    /// Operations whose output failed at least one check.
    pub failed: u64,
    /// Descriptions of the failed checks (capped).
    pub errors: Vec<String>,
}

impl Ledger {
    /// Records one operation and the checks it failed.
    pub fn record(&mut self, op: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.errors.len() < 64 {
                    self.errors.push(format!("{op}: {p}"));
                }
            }
        }
    }
}

/// Collects failed checks of one operation.
#[derive(Default, Debug)]
pub struct Checks(pub Vec<String>);

impl Checks {
    /// Fails with `what` unless `ok`.
    pub fn ok(&mut self, ok: bool, what: impl Display) {
        if !ok {
            self.0.push(what.to_string());
        }
    }

    /// Fails unless `got == want`.
    pub fn eq<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.0.push(format!("{what} = {got:?}, pinned {want:?}"));
        }
    }
}

/// Host time and work of one case in one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseTime {
    /// Units of work done (permutations, states, nodes, requests).
    pub items: f64,
    /// Host seconds.
    pub secs: f64,
}

/// Per-layer counts a round reports (kept from the last traced round).
pub type Counts = BTreeMap<&'static str, f64>;

/// One of the benchmark's workloads, set up and ready to run rounds.
pub trait Workload {
    /// Runs round number `idx`: every case once, each output checked
    /// into `ledger`. Rounds are short, so a run times many of them.
    fn round(
        &self,
        idx: usize,
        tr: &mut Tracer,
        ledger: &mut Ledger,
        counts: &mut Counts,
    ) -> [CaseTime; 3];

    /// The traced run's per-layer metrics, written into `layer`: span
    /// totals of the traced `rounds` (`count` of them, averaged per
    /// round), plus measurements only a traced run makes (speed-ups,
    /// sampled layer timings, the ladder), whose calls `tr` records.
    fn layer_metrics(
        &self,
        rounds: &Tracer,
        count: usize,
        tr: &mut Tracer,
        ledger: &mut Ledger,
        layer: &mut Counts,
    );
}

/// The named workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["lb-pipeline", "explore-exact", "serve-stream"];

/// Resolves, samples and warms up the named workload.
///
/// # Errors
///
/// An unknown workload name, or an input that fails to resolve.
pub fn setup(name: &str, cfg: &Config) -> Result<Box<dyn Workload>, String> {
    match name {
        "lb-pipeline" => Ok(Box::new(pipeline::Pipeline::setup(cfg)?)),
        "explore-exact" => Ok(Box::new(explore::Explore::setup(cfg)?)),
        "serve-stream" => Ok(Box::new(serve::Serve::setup(cfg)?)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// The median of `v` (mean of the middle two for even lengths); 0 for
/// an empty slice.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`), or 0 where
/// the file is unavailable.
#[must_use]
pub fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ledger_counts_operations_not_checks() {
        let mut l = Ledger::default();
        let mut c = Checks::default();
        c.eq("x", 1, 2);
        c.ok(false, "y");
        l.record("op", c.0);
        l.record("op", Vec::new());
        assert_eq!((l.attempted, l.failed, l.errors.len()), (2, 1, 2));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
