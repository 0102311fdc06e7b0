//! The sweep benchmark behind `BENCH_sweep.json`: the same adversarial
//! scenario grid priced by the streaming sweep and by a record-and-replay
//! baseline that rebuilds every view each step, with wall-clock
//! timings, so the perf trajectory of the hot loop has machine-readable
//! data.
//!
//! Run it with `cargo run --release -p exclusion-bench --bin
//! bench_sweep -- --out BENCH_sweep.json`. CI runs it on every push and
//! uploads the JSON as an artifact; the binary exits nonzero if any
//! swept configuration errors or the baseline and the streaming sweep
//! ever disagree.

use std::fmt::Write as _;
use std::time::Instant;

use exclusion_cost::all_costs;
use exclusion_mutex::AlgorithmRegistry;
use exclusion_shmem::{DynRef, Execution, ProcessId, ProcessView, SchedContext, System};
use exclusion_workload::{sweep, Scenario, SchedSpec, SweepOptions, SweepReport};

/// Schema tag stamped into `BENCH_sweep.json`.
pub const BENCH_SCHEMA: &str = "exclusion-bench-sweep/v2";

/// One benchmarked configuration: a (n, scheduler) cell of the grid,
/// swept over the benchmark's algorithms by the streaming sweep and
/// the baseline.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Processes per run.
    pub n: usize,
    /// Scheduler label.
    pub scheduler: String,
    /// Runs in the cell (algorithms × effective seeds).
    pub runs: usize,
    /// Total steps across the cell's runs.
    pub steps: usize,
    /// Failed runs (nonzero fails the benchmark).
    pub failures: usize,
    /// Whether the baseline's totals equal the streaming sweep's.
    pub identical: bool,
    /// Wall-clock nanoseconds of the pre-streaming pipeline — scheduler
    /// views rebuilt from scratch every step, the execution recorded in
    /// full and priced by three replays (best of [`REPS`], single
    /// worker thread). This is the "recorded+replay path" the streaming
    /// engine replaces, preserved here verbatim as the benchmark
    /// baseline.
    pub baseline_ns: u128,
    /// Wall-clock nanoseconds of the streaming sweep (best of
    /// [`REPS`], single worker thread).
    pub streaming_ns: u128,
    /// The highest SC cost any run of the cell extracted.
    pub sc_max: usize,
}

impl BenchConfig {
    /// Pre-streaming pipeline wall-clock over streaming wall-clock —
    /// the before/after of the streaming cost engine.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / (self.streaming_ns.max(1)) as f64
    }
}

/// `(steps, sc, cc, dsm)` totals of one baseline run.
type BaselineTotals = (usize, usize, usize, usize);

/// One run of the pre-streaming pipeline (the benchmark baseline): the
/// scheduler sees views rebuilt from scratch every step — one `peek`
/// plus (for preview-hungry schedulers) one `step_changes_state` per
/// process per step — the execution is recorded in full, and the three
/// cost models are computed by three more replays.
fn baseline_run_one(scenario: &Scenario, seed: u64) -> Result<BaselineTotals, String> {
    let resolved = AlgorithmRegistry::global()
        .resolve_str(&scenario.algorithm, scenario.n)
        .map_err(|e| e.to_string())?;
    let alg = DynRef(resolved.automaton.as_ref());
    let mut sched = scenario.build_scheduler(seed);
    let previews = sched.wants_step_previews();
    let passages = scenario.passages;
    let mut sys = System::new(&alg);
    let mut exec = Execution::new();
    let mut views: Vec<ProcessView> = Vec::with_capacity(scenario.n);
    let mut finished = false;
    for step in 0..=scenario.max_steps {
        views.clear();
        for p in ProcessId::all(scenario.n) {
            views.push(ProcessView {
                pid: p,
                section: sys.section(p),
                passages: sys.passages(p),
                done: sys.passages(p) >= passages,
                next: sys.peek(p),
                changes_state: previews && sys.step_changes_state(p),
            });
        }
        let ctx = SchedContext {
            step,
            target_passages: passages,
            views: &views,
        };
        match sched.pick(&ctx) {
            None => {
                finished = true;
                break;
            }
            Some(p) if step < scenario.max_steps => {
                exec.push(sys.step(p).step);
            }
            Some(_) => break,
        }
    }
    if !finished {
        return Err(format!("budget of {} steps exhausted", scenario.max_steps));
    }
    let (sc, cc, dsm) = all_costs(&alg, &exec).map_err(|e| e.to_string())?;
    Ok((exec.len(), sc.total(), cc.total(), dsm.total()))
}

/// Times the baseline pipeline over a cell's grid (best of [`REPS`])
/// and checks its totals against the streaming sweep's records.
/// Returns `(ns, failures, identical)`.
fn timed_baseline(scenarios: &[Scenario], streamed: &SweepReport) -> (u128, usize, bool) {
    let mut best: Option<(Vec<Result<BaselineTotals, String>>, u128)> = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let results: Vec<_> = scenarios
            .iter()
            .flat_map(|sc| {
                sc.effective_seeds()
                    .iter()
                    .map(|&s| baseline_run_one(sc, s))
            })
            .collect();
        let ns = start.elapsed().as_nanos();
        if best.as_ref().is_none_or(|(_, b)| ns < *b) {
            best = Some((results, ns));
        }
    }
    let (results, ns) = best.expect("REPS > 0");
    let failures = results.iter().filter(|r| r.is_err()).count();
    let identical = results.len() == streamed.records.len()
        && results.iter().zip(&streamed.records).all(|(res, rec)| {
            res.as_ref().is_ok_and(|&(steps, sc, cc, dsm)| {
                steps == rec.steps && sc == rec.sc && cc == rec.cc && dsm == rec.dsm
            })
        });
    (ns, failures, identical)
}

/// Timed sweeps per pipeline and configuration; the minimum is reported.
pub const REPS: usize = 3;

/// Algorithms every configuration sweeps.
pub const ALGORITHMS: [&str; 2] = ["dekker-tree", "peterson"];

fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[8, 16]
    } else {
        &[8, 16, 32, 64]
    }
}

fn scheds_for(n: usize) -> Vec<SchedSpec> {
    vec![
        SchedSpec::greedy(),
        SchedSpec::random(),
        SchedSpec::burst(n.div_ceil(2), 2 * n),
    ]
}

fn scenarios_for(n: usize, sched: &SchedSpec, quick: bool) -> Vec<Scenario> {
    let seeds: u64 = if quick { 2 } else { 4 };
    ALGORITHMS
        .iter()
        .map(|alg| {
            Scenario::builder(*alg, n)
                .passages(2)
                .sched(sched.clone())
                .seeds(1..=seeds)
                .build()
                .expect("benchmark scenarios are valid")
        })
        .collect()
}

fn timed_sweep(scenarios: &[Scenario]) -> (SweepReport, u128) {
    // One worker thread: the benchmark measures the sweep's compute,
    // not the thread pool.
    let opts = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    let mut best: Option<(SweepReport, u128)> = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let report = sweep(scenarios, &opts);
        let ns = start.elapsed().as_nanos();
        if best.as_ref().is_none_or(|(_, b)| ns < *b) {
            best = Some((report, ns));
        }
    }
    best.expect("REPS > 0")
}

/// Runs the full benchmark grid (shrunk when `quick`). Returns one
/// [`BenchConfig`] per (n, scheduler) cell.
#[must_use]
pub fn run(quick: bool) -> Vec<BenchConfig> {
    let mut out = Vec::new();
    for &n in sizes(quick) {
        for sched in scheds_for(n) {
            let scenarios = scenarios_for(n, &sched, quick);
            let (streamed, streaming_ns) = timed_sweep(&scenarios);
            let (baseline_ns, baseline_failures, baseline_identical) =
                timed_baseline(&scenarios, &streamed);
            out.push(BenchConfig {
                n,
                scheduler: sched.label(),
                runs: streamed.records.len(),
                steps: streamed.records.iter().map(|r| r.steps).sum(),
                failures: streamed.summaries.iter().map(|s| s.failures).sum::<usize>()
                    + baseline_failures,
                identical: baseline_identical,
                baseline_ns,
                streaming_ns,
                sc_max: streamed
                    .summaries
                    .iter()
                    .map(|s| s.sc.max)
                    .max()
                    .unwrap_or(0),
            });
        }
    }
    out
}

/// Whether every configuration ran clean: no failures, and the
/// baseline's totals equal the streaming sweep's.
#[must_use]
pub fn all_clean(configs: &[BenchConfig]) -> bool {
    configs.iter().all(|c| c.failures == 0 && c.identical)
}

/// The benchmark report as JSON (the contents of `BENCH_sweep.json`).
#[must_use]
pub fn to_json(configs: &[BenchConfig], quick: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{BENCH_SCHEMA}\",\"quick\":{quick},\
         \"algorithms\":[\"{}\"],\"reps\":{REPS},\"configs\":[",
        ALGORITHMS.join("\",\"")
    );
    for (i, c) in configs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"n\":{},\"scheduler\":\"{}\",\"runs\":{},\"steps\":{},\
             \"failures\":{},\"identical\":{},\"baseline_ns\":{},\
             \"streaming_ns\":{},\"speedup\":{:.3},\"sc_max\":{}}}",
            c.n,
            c.scheduler,
            c.runs,
            c.steps,
            c.failures,
            c.identical,
            c.baseline_ns,
            c.streaming_ns,
            c.speedup(),
            c.sc_max,
        );
    }
    let headline = configs
        .iter()
        .filter(|c| c.scheduler == "greedy-adversary")
        .max_by_key(|c| c.n);
    out.push_str("],\"greedy_headline\":");
    match headline {
        Some(c) => {
            let _ = write!(out, "{{\"n\":{},\"speedup\":{:.3}}}", c.n, c.speedup());
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"clean\":{}}}", all_clean(configs));
    out
}

/// An aligned text table of the benchmark, for terminals and CI logs.
#[must_use]
pub fn to_text(configs: &[BenchConfig]) -> String {
    let mut out = String::from(
        "   n  scheduler           runs     steps  baseline ms   stream ms   speedup\n",
    );
    for c in configs {
        let _ = writeln!(
            out,
            "{:>4}  {:<18}{:>6}{:>10}{:>13.2}{:>12.2}{:>9.2}x",
            c.n,
            c.scheduler,
            c.runs,
            c.steps,
            c.baseline_ns as f64 / 1e6,
            c.streaming_ns as f64 / 1e6,
            c.speedup(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_benchmark_is_clean_and_serializes() {
        let configs = run(true);
        assert_eq!(configs.len(), 2 * 3, "two sizes x three schedulers");
        assert!(all_clean(&configs), "{configs:?}");
        for c in &configs {
            assert!(c.runs > 0);
            assert!(c.steps > 0);
            assert!(c.sc_max > 0);
            assert!(c.baseline_ns > 0 && c.streaming_ns > 0);
        }
        let json = to_json(&configs, true);
        assert!(json.starts_with(&format!("{{\"schema\":\"{BENCH_SCHEMA}\"")));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"greedy_headline\":{\"n\":16,"));
        assert!(json.contains("\"clean\":true"));
        let text = to_text(&configs);
        assert_eq!(text.lines().count(), configs.len() + 1);
    }
}
