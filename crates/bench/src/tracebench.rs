//! The trace-overhead benchmark behind `BENCH_trace.json`: the same
//! priced run timed three ways — the plain hot path, the probed entry
//! point with [`NoProbe`] (which must compile away), and a live
//! [`Metrics`] probe — with hard overhead gates. The three engines take
//! turns within each rep, in an order that rotates from rep to rep, and
//! an overhead is the median over reps of an engine's time over the
//! plain time of the same rep, so the gates compare engines timed side
//! by side rather than in separate blocks seconds of host drift apart.
//!
//! Run it with `cargo run --release -p exclusion-bench --bin
//! bench_trace -- --out BENCH_trace.json`. CI runs it on every push and
//! uploads the JSON as an artifact; the binary exits nonzero if any
//! cell errors, the three timings disagree on costs, or an overhead
//! gate is exceeded: probe-off must stay within [`OFF_GATE`] (1.05×) of
//! the plain path and probe-on within [`ON_GATE`] (1.5×).

use std::fmt::Write as _;
use std::time::Instant;

use exclusion_cost::{run_priced, run_priced_probed, PricedRun};
use exclusion_shmem::dynamic::DynRef;
use exclusion_shmem::NoProbe;
use exclusion_trace::Metrics;
use exclusion_workload::{Scenario, SchedSpec};

/// Schema tag stamped into `BENCH_trace.json`.
pub const BENCH_SCHEMA: &str = "exclusion-bench-trace/v1";

/// Timed runs per (cell, engine), interleaved across the three
/// engines: the minimum time is reported, and the gates read the median
/// of the per-rep ratios.
pub const REPS: usize = 21;

/// The algorithm every cell prices.
pub const ALGORITHM: &str = "peterson";

/// Probe-off ceiling: `run_priced_probed` with [`NoProbe`] may cost at
/// most this multiple of the plain `run_priced` path.
pub const OFF_GATE: f64 = 1.05;

/// Probe-on ceiling: a live [`Metrics`] probe may cost at most this
/// multiple of the plain path.
pub const ON_GATE: f64 = 1.5;

/// One benchmarked cell: a (n, scheduler) pair priced three ways.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Processes per run.
    pub n: usize,
    /// Scheduler label.
    pub scheduler: String,
    /// Steps the run took.
    pub steps: usize,
    /// Events the live probe collected.
    pub events: u64,
    /// Whether any engine errored (budget exhaustion).
    pub failures: usize,
    /// Whether all three engines agreed on steps and per-model totals.
    pub identical: bool,
    /// Wall-clock of the plain `run_priced` path (best of [`REPS`]).
    pub base_ns: u128,
    /// Wall-clock of `run_priced_probed` with [`NoProbe`] (best of
    /// [`REPS`]).
    pub off_ns: u128,
    /// Wall-clock of `run_priced_probed` with a live [`Metrics`] probe
    /// (best of [`REPS`]).
    pub on_ns: u128,
    /// Median over reps of probe-off time over plain time in the same
    /// rep.
    pub off_ratio: f64,
    /// Median over reps of probe-on time over plain time in the same
    /// rep.
    pub on_ratio: f64,
}

impl BenchConfig {
    /// Probe-off over plain: the zero-overhead claim, measured as the
    /// median of the per-rep ratios.
    #[must_use]
    pub fn off_overhead(&self) -> f64 {
        self.off_ratio
    }

    /// Probe-on over plain: what a live metrics probe costs, measured
    /// as the median of the per-rep ratios.
    #[must_use]
    pub fn on_overhead(&self) -> f64 {
        self.on_ratio
    }

    /// Whether both overhead gates hold for this cell.
    #[must_use]
    pub fn within_gates(&self) -> bool {
        self.off_overhead() <= OFF_GATE && self.on_overhead() <= ON_GATE
    }
}

fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[16]
    } else {
        &[16, 64]
    }
}

fn scenario_for(n: usize, sched: &str) -> Scenario {
    Scenario::builder(ALGORITHM, n)
        .passages(2)
        .sched(SchedSpec::parse(sched).expect("benchmark scheduler specs are valid"))
        .build()
        .expect("benchmark scenarios are valid")
}

/// `(steps, sc, cc, dsm)` — the comparable core of a priced run.
type Totals = (usize, usize, usize, usize);

fn totals(priced: &PricedRun) -> Totals {
    (
        priced.steps,
        priced.sc.total(),
        priced.cc.total(),
        priced.dsm.total(),
    )
}

/// Times one run of `f`, keeps its output in `best` if it is the
/// fastest so far, and returns its time.
fn keep_fastest<T>(best: &mut Option<(T, u128)>, f: &mut impl FnMut() -> T) -> u128 {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos();
    if best.as_ref().is_none_or(|(_, b)| ns < *b) {
        *best = Some((out, ns));
    }
    ns
}

/// The median of `engine`'s time over the plain engine's, rep by rep.
fn median_ratio(times: &[[u128; 3]], engine: usize) -> f64 {
    let mut ratios: Vec<f64> = times
        .iter()
        .map(|t| t[engine] as f64 / t[0].max(1) as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Runs the benchmark grid (shrunk when `quick`): [`ALGORITHM`] ×
/// {greedy, fanlynch} × n (16 in quick mode; 16 and 64 in full).
#[must_use]
pub fn run(quick: bool) -> Vec<BenchConfig> {
    let mut out = Vec::new();
    for &n in sizes(quick) {
        for sched in ["greedy", "fanlynch"] {
            let scenario = scenario_for(n, sched);
            let alg = DynRef(scenario.automaton().as_ref());
            let seed = 1;
            // Scheduler construction is inside the timed region for all
            // three engines, so the comparison is apples-to-apples.
            let mut run_base = || {
                let mut s = scenario.build_scheduler(seed);
                run_priced(&alg, s.as_mut(), scenario.passages, scenario.max_steps)
            };
            let mut run_off = || {
                let mut s = scenario.build_scheduler(seed);
                run_priced_probed(
                    &alg,
                    s.as_mut(),
                    scenario.passages,
                    scenario.max_steps,
                    NoProbe,
                )
            };
            let mut run_on = || {
                let mut s = scenario.build_scheduler(seed);
                let mut metrics = Metrics::new();
                let priced = run_priced_probed(
                    &alg,
                    s.as_mut(),
                    scenario.passages,
                    scenario.max_steps,
                    &mut metrics,
                );
                (priced, metrics)
            };
            // Every rep runs each engine once, the order rotating by
            // one per rep, so a drift in the host's speed falls on all
            // three alike instead of on whichever engine's block of
            // reps it hit. The gates read the median of the per-rep
            // ratios, so one rep that a burst of load slowed (or one
            // lucky plain rep) moves no verdict.
            let (mut base, mut off, mut on) = (None, None, None);
            let mut times = [[0u128; 3]; REPS];
            for (rep, t) in times.iter_mut().enumerate() {
                for turn in 0..3 {
                    let engine = (rep + turn) % 3;
                    t[engine] = match engine {
                        0 => keep_fastest(&mut base, &mut run_base),
                        1 => keep_fastest(&mut off, &mut run_off),
                        _ => keep_fastest(&mut on, &mut run_on),
                    };
                }
            }
            let (base, base_ns) = base.expect("REPS > 0");
            let (off, off_ns) = off.expect("REPS > 0");
            let ((on, metrics), on_ns) = on.expect("REPS > 0");
            let failures = [base.is_err(), off.is_err(), on.is_err()]
                .iter()
                .filter(|&&e| e)
                .count();
            let identical = match (&base, &off, &on) {
                (Ok(b), Ok(o), Ok(p)) => totals(b) == totals(o) && totals(b) == totals(p),
                _ => false,
            };
            out.push(BenchConfig {
                n,
                scheduler: scenario.scheduler.to_string(),
                steps: base.as_ref().map_or(0, |p| p.steps),
                events: metrics.events,
                failures,
                identical,
                base_ns,
                off_ns,
                on_ns,
                off_ratio: median_ratio(&times, 1),
                on_ratio: median_ratio(&times, 2),
            });
        }
    }
    out
}

/// Whether every cell ran clean **and** within both overhead gates.
#[must_use]
pub fn all_clean(configs: &[BenchConfig]) -> bool {
    configs
        .iter()
        .all(|c| c.failures == 0 && c.identical && c.within_gates())
}

/// The benchmark report as JSON (the contents of `BENCH_trace.json`).
#[must_use]
pub fn to_json(configs: &[BenchConfig], quick: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{BENCH_SCHEMA}\",\"quick\":{quick},\
         \"algorithm\":\"{ALGORITHM}\",\"reps\":{REPS},\
         \"off_gate\":{OFF_GATE},\"on_gate\":{ON_GATE},\"configs\":[",
    );
    for (i, c) in configs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"n\":{},\"scheduler\":\"{}\",\"steps\":{},\"events\":{},\
             \"failures\":{},\"identical\":{},\"base_ns\":{},\"off_ns\":{},\
             \"on_ns\":{},\"off_overhead\":{:.3},\"on_overhead\":{:.3},\
             \"within_gates\":{}}}",
            c.n,
            c.scheduler,
            c.steps,
            c.events,
            c.failures,
            c.identical,
            c.base_ns,
            c.off_ns,
            c.on_ns,
            c.off_overhead(),
            c.on_overhead(),
            c.within_gates(),
        );
    }
    let _ = write!(out, "],\"clean\":{}}}", all_clean(configs));
    out
}

/// An aligned text table of the benchmark, for terminals and CI logs.
#[must_use]
pub fn to_text(configs: &[BenchConfig]) -> String {
    let mut out = String::from(
        "   n  scheduler           steps    events     base ms      off ms       on ms   off x   on x\n",
    );
    for c in configs {
        let _ = writeln!(
            out,
            "{:>4}  {:<18}{:>7}{:>10}{:>12.3}{:>12.3}{:>12.3}{:>7.2}x{:>6.2}x",
            c.n,
            c.scheduler,
            c.steps,
            c.events,
            c.base_ns as f64 / 1e6,
            c.off_ns as f64 / 1e6,
            c.on_ns as f64 / 1e6,
            c.off_overhead(),
            c.on_overhead(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structure and agreement only — the overhead *gates* are enforced
    /// by the release-mode binary, not by debug-mode unit tests, where
    /// unoptimized probe plumbing would make the ratios meaningless.
    #[test]
    fn quick_benchmark_agrees_and_serializes() {
        let configs = run(true);
        assert_eq!(configs.len(), 2, "one size x two schedulers");
        for c in &configs {
            assert_eq!(c.failures, 0, "{c:?}");
            assert!(c.identical, "{c:?}");
            assert!(c.steps > 0);
            assert!(
                c.events as usize > c.steps,
                "every step emits at least one event"
            );
            assert!(c.base_ns > 0 && c.off_ns > 0 && c.on_ns > 0);
        }
        let json = to_json(&configs, true);
        assert!(json.starts_with(&format!("{{\"schema\":\"{BENCH_SCHEMA}\"")));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"off_overhead\":"));
        let text = to_text(&configs);
        assert_eq!(text.lines().count(), configs.len() + 1);
    }
}
