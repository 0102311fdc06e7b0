//! The parallel batch runner: shards a scenario × seed grid across
//! worker threads, prices every run under all three cost models, and
//! aggregates per-scenario summaries.
//!
//! Each run is driven and priced in a single streaming pass via
//! `exclusion_cost::run_priced` — no execution is recorded, nothing is
//! replayed. `tests/streaming_equivalence.rs` pins it against the
//! record-then-replay reference (`run_scheduler` plus the replay
//! pricers).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use exclusion_cost::run_priced_probed;
use exclusion_shmem::dynamic::DynRef;
use exclusion_shmem::probe::{NoProbe, Probe, SpanScope, TraceEvent};
use exclusion_trace::Metrics;

use crate::scenario::Scenario;

/// The outcome of one run: one scenario, one seed, all three cost
/// models.
///
/// Equality deliberately ignores [`wall_ns`](RunRecord::wall_ns): the
/// wall-clock timing is measurement metadata, not part of the result —
/// two records of the same run compare equal across machines and
/// thread counts.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Scenario name.
    pub scenario: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Number of processes.
    pub n: usize,
    /// Passages per process.
    pub passages: usize,
    /// The seed this run used.
    pub seed: u64,
    /// Steps in the recorded execution.
    pub steps: usize,
    /// Total state-change (SC) cost.
    pub sc: usize,
    /// Total cache-coherent (CC) cost.
    pub cc: usize,
    /// Total distributed-shared-memory (DSM) cost.
    pub dsm: usize,
    /// The highest SC cost any single process paid.
    pub sc_max_process: usize,
    /// Wall-clock nanoseconds this run took (driving + pricing), as
    /// measured by the worker that ran it. Excluded from equality.
    pub wall_ns: u64,
    /// Why the run failed (budget exhaustion, or a scheduler that stopped
    /// before every process finished), if it did. Failed runs carry zero
    /// costs and are excluded from summaries.
    pub error: Option<String>,
}

impl PartialEq for RunRecord {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `wall_ns` (see the type docs). The
        // exhaustive destructure (no `..`) makes adding a field a
        // compile error here, so new fields cannot silently drop out
        // of equality.
        let RunRecord {
            scenario,
            algorithm,
            scheduler,
            n,
            passages,
            seed,
            steps,
            sc,
            cc,
            dsm,
            sc_max_process,
            wall_ns: _,
            error,
        } = self;
        *scenario == other.scenario
            && *algorithm == other.algorithm
            && *scheduler == other.scheduler
            && *n == other.n
            && *passages == other.passages
            && *seed == other.seed
            && *steps == other.steps
            && *sc == other.sc
            && *cc == other.cc
            && *dsm == other.dsm
            && *sc_max_process == other.sc_max_process
            && *error == other.error
    }
}

impl Eq for RunRecord {}

/// Distribution summary of one cost model over a scenario's runs.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ModelSummary {
    /// Smallest total.
    pub min: usize,
    /// Median (nearest-rank).
    pub p50: usize,
    /// 90th percentile (nearest-rank).
    pub p90: usize,
    /// 99th percentile (nearest-rank) — the tail that distinguishes an
    /// adversary's rare jackpots from its typical extraction.
    pub p99: usize,
    /// Largest total.
    pub max: usize,
    /// Arithmetic mean.
    pub mean: f64,
}

impl ModelSummary {
    fn of(mut values: Vec<usize>) -> ModelSummary {
        if values.is_empty() {
            return ModelSummary::default();
        }
        values.sort_unstable();
        let rank = |p: usize| values[(p * (values.len() - 1) + 50) / 100];
        ModelSummary {
            min: values[0],
            p50: rank(50),
            p90: rank(90),
            p99: rank(99),
            max: *values.last().expect("nonempty"),
            mean: values.iter().sum::<usize>() as f64 / values.len() as f64,
        }
    }
}

/// Aggregate over all successful runs of one scenario.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub scenario: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Number of processes.
    pub n: usize,
    /// Passages per process.
    pub passages: usize,
    /// Successful runs.
    pub runs: usize,
    /// Failed runs (budget exhaustion).
    pub failures: usize,
    /// SC cost distribution.
    pub sc: ModelSummary,
    /// CC cost distribution.
    pub cc: ModelSummary,
    /// DSM cost distribution.
    pub dsm: ModelSummary,
}

/// Everything a sweep produced: one record per run plus per-scenario
/// summaries, both in deterministic order (scenario order, then seed
/// order — independent of thread count).
#[derive(Clone, PartialEq, Debug)]
pub struct SweepReport {
    /// One record per (scenario, effective seed), in grid order.
    pub records: Vec<RunRecord>,
    /// One summary per scenario, in scenario order.
    pub summaries: Vec<ScenarioSummary>,
    /// Aggregated trace metrics over every run, when
    /// [`SweepOptions::metrics`] asked for them: per-run [`Metrics`]
    /// merged in grid order (each run bracketed by a
    /// [`SpanScope::Run`] span), so the counters are bit-identical for
    /// any thread count. `None` when metrics were not requested.
    pub metrics: Option<Metrics>,
}

/// Options for [`sweep`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOptions {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Collect a merged [`Metrics`] aggregate over the whole grid into
    /// [`SweepReport::metrics`]. Default `false`: the hot path runs with
    /// [`NoProbe`] and pays nothing.
    pub metrics: bool,
}

impl SweepOptions {
    fn resolved_threads(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let t = if self.threads == 0 { hw } else { self.threads };
        t.clamp(1, jobs.max(1))
    }
}

/// Runs one (scenario, seed) cell with a [`Probe`] observing it: the
/// streaming pricer emits one `Executed` event per step and one
/// `Charged` event per nonzero cost delta, and adaptive (`fanlynch`)
/// schedulers built by the scenario do **not** emit their internal
/// events here — the scheduler is built through the registry's erased
/// builder, which has no probe to thread. (The `workload trace`
/// subcommand constructs the adversary directly to get those; sweeps
/// aggregate execution-side events only.) With [`NoProbe`] this is
/// exactly the cell [`sweep`] runs.
#[must_use]
pub fn run_probed(sc: &Scenario, seed: u64, probe: &mut dyn Probe) -> RunRecord {
    let mut record = RunRecord {
        scenario: sc.name.clone(),
        algorithm: sc.algorithm.clone(),
        scheduler: sc.scheduler.clone(),
        n: sc.n,
        passages: sc.passages,
        seed,
        steps: 0,
        sc: 0,
        cc: 0,
        dsm: 0,
        sc_max_process: 0,
        wall_ns: 0,
        error: None,
    };
    // The algorithm was resolved once, when the scenario was built; the
    // handle is shared across the whole seed grid (and every worker
    // thread), so a run starts with zero lookups and zero validation.
    let alg = DynRef(sc.automaton().as_ref());
    let mut sched = sc.build_scheduler(seed);
    let start = Instant::now();
    match run_priced_probed(&alg, sched.as_mut(), sc.passages, sc.max_steps, probe) {
        // Built-in schedulers run every process to its target; one
        // registered from outside may stop early, and such a run is no
        // sample of the scenario.
        Ok(priced) if priced.completed < sc.n => {
            record.error = Some(format!(
                "scheduler stopped after {} steps with {}/{} processes finished",
                priced.steps, priced.completed, sc.n
            ));
        }
        Ok(priced) => {
            record.steps = priced.steps;
            record.sc = priced.sc.total();
            record.cc = priced.cc.total();
            record.dsm = priced.dsm.total();
            record.sc_max_process = priced.sc.max_process();
        }
        Err(e) => record.error = Some(e.to_string()),
    }
    record.wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    record
}

/// Runs the full scenario × seed grid, sharded across worker threads.
///
/// Workers pull jobs from a shared cursor (no static partitioning, so an
/// expensive scenario cannot strand one thread with all the work), and
/// the report is assembled in grid order: results are bit-identical for
/// any thread count.
#[must_use]
pub fn sweep(scenarios: &[Scenario], opts: &SweepOptions) -> SweepReport {
    let jobs: Vec<(usize, u64)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(i, sc)| sc.effective_seeds().iter().map(move |&s| (i, s)))
        .collect();
    let threads = opts.resolved_threads(jobs.len());
    let cursor = AtomicUsize::new(0);

    let mut slots: Vec<Option<(RunRecord, Option<Metrics>)>> = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let jobs = &jobs;
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, RunRecord, Option<Metrics>)> = Vec::new();
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(i, seed)) = jobs.get(k) else {
                        return out;
                    };
                    if opts.metrics {
                        // One private aggregator per run, bracketed by a
                        // Run span; the per-run aggregates are merged in
                        // grid order below, so the result is independent
                        // of which worker ran which cell.
                        let mut m = Metrics::new();
                        let tag = u32::try_from(k).unwrap_or(u32::MAX);
                        let scope = SpanScope::Run;
                        m.record(&TraceEvent::SpanStart { scope, tag });
                        let start = Instant::now();
                        let record = run_probed(&scenarios[i], seed, &mut m);
                        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        m.record(&TraceEvent::SpanEnd {
                            scope,
                            tag,
                            wall_ns,
                        });
                        out.push((k, record, Some(m)));
                    } else {
                        out.push((k, run_probed(&scenarios[i], seed, &mut NoProbe), None));
                    }
                }
            }));
        }
        for h in handles {
            for (k, record, metrics) in h.join().expect("worker panicked") {
                slots[k] = Some((record, metrics));
            }
        }
    });
    let mut metrics = opts.metrics.then(Metrics::new);
    let mut records: Vec<RunRecord> = Vec::with_capacity(jobs.len());
    for slot in slots {
        let (record, m) = slot.expect("every job ran");
        records.push(record);
        if let (Some(total), Some(m)) = (metrics.as_mut(), m) {
            total.merge(&m);
        }
    }

    // Group by grid index, not name (two scenarios may share a name, and
    // each still gets its own summary), in one pass over the records —
    // jobs and records are aligned and already in grid order.
    let mut buckets: Vec<Vec<&RunRecord>> = vec![Vec::new(); scenarios.len()];
    for (&(i, _), record) in jobs.iter().zip(&records) {
        buckets[i].push(record);
    }
    let summaries = scenarios
        .iter()
        .zip(&buckets)
        .map(|(sc, mine)| {
            let ok: Vec<&&RunRecord> = mine.iter().filter(|r| r.error.is_none()).collect();
            ScenarioSummary {
                scenario: sc.name.clone(),
                algorithm: sc.algorithm.clone(),
                scheduler: sc.scheduler.clone(),
                n: sc.n,
                passages: sc.passages,
                runs: ok.len(),
                failures: mine.len() - ok.len(),
                sc: ModelSummary::of(ok.iter().map(|r| r.sc).collect()),
                cc: ModelSummary::of(ok.iter().map(|r| r.cc).collect()),
                dsm: ModelSummary::of(ok.iter().map(|r| r.dsm).collect()),
            }
        })
        .collect();
    drop(buckets);

    SweepReport {
        records,
        summaries,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SchedSpec;

    fn grid() -> Vec<Scenario> {
        let mut out = Vec::new();
        for alg in ["dekker-tree", "peterson"] {
            for sched in [
                SchedSpec::round_robin(),
                SchedSpec::random(),
                SchedSpec::greedy(),
                SchedSpec::stagger(8),
            ] {
                out.push(
                    Scenario::builder(alg, 4)
                        .sched(sched)
                        .seeds(0..6)
                        .build()
                        .unwrap(),
                );
            }
        }
        out
    }

    #[test]
    fn sweep_covers_the_grid_in_order() {
        let scenarios = grid();
        let report = sweep(
            &scenarios,
            &SweepOptions {
                threads: 3,
                ..SweepOptions::default()
            },
        );
        // 2 algs × (rr 1 + greedy 1 + random 6 + stagger 6) = 28 runs.
        assert_eq!(report.records.len(), 28);
        assert_eq!(report.summaries.len(), 8);
        // Grid order: records of scenario i precede those of i+1.
        let mut last = 0usize;
        for r in &report.records {
            let i = scenarios.iter().position(|s| s.name == r.scenario).unwrap();
            assert!(i >= last);
            last = i;
        }
        for s in &report.summaries {
            assert_eq!(s.failures, 0, "{}", s.scenario);
            assert!(s.sc.min <= s.sc.p50 && s.sc.p50 <= s.sc.p90 && s.sc.p90 <= s.sc.p99);
            assert!(s.sc.p99 <= s.sc.max);
            assert!(s.sc.min > 0, "{}", s.scenario);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let scenarios = grid();
        let opts = |threads| SweepOptions {
            threads,
            ..SweepOptions::default()
        };
        let one = sweep(&scenarios, &opts(1));
        let four = sweep(&scenarios, &opts(4));
        let auto = sweep(&scenarios, &opts(0));
        assert_eq!(one, four);
        assert_eq!(one, auto);
    }

    #[test]
    fn runs_carry_wall_clock_timings() {
        let sc = Scenario::builder("peterson", 3)
            .sched(SchedSpec::round_robin())
            .build()
            .unwrap();
        let report = sweep(&[sc], &SweepOptions::default());
        assert!(report.records.iter().all(|r| r.wall_ns > 0));
    }

    #[test]
    fn duplicate_scenario_names_get_separate_summaries() {
        let sc = Scenario::builder("peterson", 3)
            .name("same")
            .sched(SchedSpec::random())
            .seeds(0..3)
            .build()
            .unwrap();
        let report = sweep(&[sc.clone(), sc], &SweepOptions::default());
        assert_eq!(report.records.len(), 6);
        assert_eq!(report.summaries.len(), 2);
        for s in &report.summaries {
            assert_eq!(s.runs, 3, "each summary counts only its own grid slice");
        }
    }

    #[test]
    fn budget_exhaustion_is_reported_not_fatal() {
        let sc = Scenario::builder("bakery", 4)
            .sched(SchedSpec::round_robin())
            .max_steps(3)
            .build()
            .unwrap();
        let report = sweep(&[sc], &SweepOptions::default());
        assert_eq!(report.records.len(), 1);
        assert!(report.records[0].error.is_some());
        assert_eq!(report.summaries[0].runs, 0);
        assert_eq!(report.summaries[0].failures, 1);
    }

    #[test]
    fn sweep_metrics_are_thread_count_independent() {
        let scenarios = grid();
        let opts = |threads| SweepOptions {
            threads,
            metrics: true,
        };
        let one = sweep(&scenarios, &opts(1));
        let four = sweep(&scenarios, &opts(4));
        // Metrics equality ignores span wall times, so this pins every
        // counter and histogram across thread counts.
        assert_eq!(one, four);
        let m = one.metrics.expect("metrics were requested");
        let steps: usize = one.records.iter().map(|r| r.steps).sum();
        assert_eq!(m.steps, steps as u64, "one Executed event per step");
        assert_eq!(
            m.span_counts[SpanScope::Run.index()],
            28,
            "one Run span per cell"
        );
        assert!(m.sc > 0 && m.charges > 0);
        // Unprobed sweeps carry no aggregate and identical records.
        let off = sweep(&scenarios, &SweepOptions::default());
        assert!(off.metrics.is_none());
        assert_eq!(off.records, one.records);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = ModelSummary::of(vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 60); // nearest-rank on 10 values
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 100);
        assert!((s.mean - 55.0).abs() < 1e-9);
        assert_eq!(ModelSummary::of(vec![]).max, 0);
        assert_eq!(ModelSummary::of(vec![]).p99, 0);
    }
}
