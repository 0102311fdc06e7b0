//! `serve-stream`: the open-stream lock service at n = 4 (unit of work:
//! one completed request), plus the layer ladder.
//!
//! Cases:
//! 1. `saturated` — peterson × `poisson:rate=0.25`, one worker: the
//!    queue stays full, so the solo-admission cache is bypassed and
//!    every step goes through scheduler, `System` and pricer;
//! 2. `sparse` — tas-sim × `steady:gap=64`, one worker: every
//!    admission is solo, so the cache serves nearly all of them;
//! 3. `saturated-2w` — case 1's stream at two workers, whose report
//!    must be byte-identical to case 1's.
//!
//! The ladder times one fixed step sequence (peterson, round-robin, a
//! saturated stream) as layers are added, so the difference between
//! two rungs is the self time of the layer the upper rung adds.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use exclusion_cost::run_priced;
use exclusion_mutex::registry::AlgorithmRegistry;
use exclusion_serve::{serve, ServeJob, ServeOptions, ServeReport};
use exclusion_shmem::sched::{run_scheduler_with, RoundRobin, Script};
use exclusion_shmem::{
    Automaton, DynRef, DynState, NextStep, Observation, ProcessId, RegisterId, SchedContext,
    Scheduler, System,
};

use crate::tracer::Tracer;
use crate::{median, CaseTime, Checks, Config, Counts, Ledger, Workload};

/// Processes (lanes) of every lock instance.
const N: usize = 4;

/// Values a case's report must carry under the default seed.
#[derive(Clone, Copy)]
struct Pins {
    steps: u64,
    sc: u64,
    cc: u64,
    dsm: u64,
    latency: u64,
}

/// The cases: `(label, algorithm, arrivals, workers)`. Case 3 serves
/// case 1's stream again at two workers.
const CASES: [(&str, &str, &str, usize); 3] = [
    ("saturated", "peterson", "poisson:rate=0.25", 1),
    ("sparse", "tas-sim", "steady:gap=64", 1),
    ("saturated-2w", "peterson", "poisson:rate=0.25", 2),
];

/// Requests per case, and what each report must carry under the
/// default seed. A round takes about 0.2 s, so a run times over a
/// hundred; 65,536 requests are eight 8192-request stripes, four per
/// worker in case 3.
const REQUESTS: [u64; 3] = [65_536, 131_072, 65_536];
const PINS: [Pins; 3] = [SATURATED, SPARSE, SATURATED];

const SATURATED: Pins = Pins {
    steps: 1_114_124,
    sc: 851_980,
    cc: 606_197,
    dsm: 851_980,
    latency: 3_486_745_937,
};

const SPARSE: Pins = Pins {
    steps: 786_432,
    sc: 262_144,
    cc: 262_144,
    dsm: 262_144,
    latency: 786_432,
};

/// Quick mode: short streams with their own pins.
const QUICK_REQUESTS: [u64; 3] = [20_000; 3];
const QUICK_PINS: [Pins; 3] = [QUICK_SATURATED, QUICK_SPARSE, QUICK_SATURATED];

const QUICK_SATURATED: Pins = Pins {
    steps: 327_232,
    sc: 247_232,
    cc: 181_801,
    dsm: 247_232,
    latency: 897_714_370,
};

const QUICK_SPARSE: Pins = Pins {
    steps: 120_000,
    sc: 40_000,
    cc: 40_000,
    dsm: 40_000,
    latency: 120_000,
};

/// Requests of each set-up warm-up stream.
const WARM_REQUESTS: u64 = 16_384;

/// The ladder's stream — lock, arrivals, requests (served as one
/// stripe) and seed — fixed so the ladder times the same step sequence
/// under every seed.
const LADDER_ALG: &str = "peterson";
const LADDER_ARRIVALS: &str = "poisson:rate=0.25";
const LADDER_REQUESTS: u64 = 100_000;
const QUICK_LADDER_REQUESTS: u64 = 5_000;
const LADDER_SEED: u64 = 7;

/// Timed repetitions of each ladder rung; the median is reported.
const LADDER_REPS: usize = 5;

struct Case {
    label: &'static str,
    job: ServeJob,
    opts: ServeOptions,
    pins: Pins,
}

/// The set-up `serve-stream` workload.
pub struct Serve {
    cfg: Config,
    cases: Vec<Case>,
}

impl Serve {
    /// Resolves the jobs and warms each up on a short stream, at one
    /// worker: thread start-up under a loaded host is the noisiest
    /// thing a set-up could time.
    ///
    /// # Errors
    ///
    /// A job that fails to resolve.
    pub fn setup(cfg: &Config) -> Result<Self, String> {
        let (requests, pins) = if cfg.quick {
            (QUICK_REQUESTS, QUICK_PINS)
        } else {
            (REQUESTS, PINS)
        };
        let mut cases = Vec::with_capacity(CASES.len());
        for ((&(label, alg, arrivals, workers), requests), pins) in
            CASES.iter().zip(requests).zip(pins)
        {
            let job = |requests| {
                ServeJob::new(alg, N, requests)
                    .and_then(|j| j.arrivals(arrivals))
                    .map_err(|e| format!("{label}: {e}"))
            };
            let opts = ServeOptions {
                workers,
                seed: cfg.seed,
                ..ServeOptions::default()
            };
            let solo = ServeOptions {
                workers: 1,
                ..opts.clone()
            };
            black_box(serve(&job(WARM_REQUESTS)?, &solo));
            cases.push(Case {
                label,
                job: job(requests)?,
                opts,
                pins,
            });
        }
        Ok(Serve { cfg: *cfg, cases })
    }

    fn check(&self, case: &Case, report: &ServeReport) -> Checks {
        let mut ck = Checks::default();
        ck.ok(
            report.errors.is_empty(),
            format!("errors {:?}", report.errors),
        );
        ck.eq("completed", report.completed, case.job.requests);
        if self.cfg.pinned() {
            let p = case.pins;
            ck.eq("steps", report.steps, self.cfg.pin(p.steps));
            ck.eq("sc_total", report.sc_total, p.sc);
            ck.eq("cc_total", report.cc_total, p.cc);
            ck.eq("dsm_total", report.dsm_total, p.dsm);
            ck.eq("total_latency", report.total_latency, p.latency);
        }
        ck
    }
}

/// Solo-admission cache hits, read from the report's JSON rendering so
/// the benchmark does not depend on the counter's field (0 once the
/// cache is gone).
fn cache_hits(report: &ServeReport) -> u64 {
    let json = report.to_json();
    json.split_once("\"cache\":{\"hits\":")
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

impl Workload for Serve {
    fn round(
        &self,
        _round: usize,
        tr: &mut Tracer,
        ledger: &mut Ledger,
        counts: &mut Counts,
    ) -> [CaseTime; 3] {
        let mut out = [CaseTime::default(); 3];
        let mut reports: Vec<ServeReport> = Vec::with_capacity(3);
        for (case, time) in self.cases.iter().zip(&mut out) {
            let start = Instant::now();
            let report = tr.span("serve.serve", |_| serve(&case.job, &case.opts));
            time.secs = start.elapsed().as_secs_f64();
            time.items = report.completed as f64;
            let mut ck = self.check(case, &report);
            if case.opts.workers > 1 {
                ck.ok(
                    reports[0].to_json() == report.to_json(),
                    "report differs from the 1-worker report",
                );
            }
            ledger.record(case.label, ck.0);
            reports.push(report);
        }
        let (sat, sparse) = (&reports[0], &reports[1]);
        counts.insert(
            "serve.steps_per_req",
            (sat.steps + sparse.steps) as f64 / (sat.completed + sparse.completed).max(1) as f64,
        );
        counts.insert(
            "serve.cache_hit_ratio",
            cache_hits(sparse) as f64 / sparse.completed.max(1) as f64,
        );
        counts.insert(
            "serve.requests",
            reports.iter().map(|r| r.completed as f64).sum(),
        );
        out
    }

    fn layer_metrics(
        &self,
        _rounds: &Tracer,
        _count: usize,
        tr: &mut Tracer,
        ledger: &mut Ledger,
        layer: &mut Counts,
    ) {
        let requests = if self.cfg.quick {
            QUICK_LADDER_REQUESTS
        } else {
            LADDER_REQUESTS
        };
        match ladder(requests, tr) {
            Ok(rungs) => {
                for (name, ns) in rungs {
                    layer.insert(name, ns);
                }
                ledger.record("ladder", Vec::new());
            }
            Err(problems) => ledger.record("ladder", problems),
        }
    }
}

/// Round-robin that records every pick it makes.
struct Recorder {
    inner: RoundRobin,
    picks: Arc<Mutex<Vec<ProcessId>>>,
}

impl Scheduler for Recorder {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let p = self.inner.pick(ctx)?;
        self.picks.lock().expect("recorder lock").push(p);
        Some(p)
    }
}

/// Rung 1: bare `next_step`/`observe` over a local register file.
fn bare_automaton(alg: &DynRef<'_>, seq: &[ProcessId]) -> (Vec<DynState>, Vec<u64>) {
    let mut states: Vec<_> = ProcessId::all(alg.processes())
        .map(|p| alg.initial_state(p))
        .collect();
    let mut regs: Vec<_> = RegisterId::all(alg.registers())
        .map(|r| alg.initial_value(r))
        .collect();
    for &p in seq {
        let s = &mut states[p.index()];
        let obs = match alg.next_step(p, s) {
            NextStep::Read(r) => Observation::Read(regs[r.index()]),
            NextStep::Write(r, v) => {
                regs[r.index()] = v;
                Observation::Write
            }
            NextStep::Rmw(r, op) => {
                let old = regs[r.index()];
                regs[r.index()] = op.apply(old);
                Observation::Rmw(old)
            }
            NextStep::Crit(_) => Observation::Crit,
        };
        alg.observe_in_place(p, s, obs);
    }
    (states, regs)
}

/// The five-rung ladder over one recorded step sequence: ns/step per
/// rung, or the checks that failed.
fn ladder(requests: u64, tr: &mut Tracer) -> Result<Vec<(&'static str, f64)>, Vec<String>> {
    let mut ck = Checks::default();
    let job = ServeJob::new(LADDER_ALG, N, requests)
        .and_then(|j| j.arrivals(LADDER_ARRIVALS))
        .map_err(|e| vec![e.to_string()])?;
    let alg = AlgorithmRegistry::global()
        .resolve_str(LADDER_ALG, N)
        .map_err(|e| vec![e.to_string()])?
        .automaton;
    let opts = ServeOptions {
        workers: 1,
        stripe: requests,
        seed: LADDER_SEED,
        ..ServeOptions::default()
    };
    let picks = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&picks);
    let recording = job.clone().scheduler("round-robin", move |_| {
        Box::new(Recorder {
            inner: RoundRobin::new(),
            picks: Arc::clone(&sink),
        })
    });
    let reference = serve(&recording, &opts);
    let seq: Vec<ProcessId> = picks.lock().expect("recorder lock").clone();
    ck.eq("recorded picks", seq.len() as u64, reference.steps);
    ck.eq("completed", reference.completed, requests);
    if !ck.0.is_empty() {
        return Err(ck.0);
    }

    let dref = DynRef(alg.as_ref());
    let len = seq.len();
    let mut times: [Vec<f64>; 5] = Default::default();
    for _ in 0..LADDER_REPS {
        let start = Instant::now();
        let (states, regs) = tr.span("ladder.automaton", |_| bare_automaton(&dref, &seq));
        times[0].push(start.elapsed().as_nanos() as f64);

        let start = Instant::now();
        let snap = tr.span("ladder.system", |_| {
            let mut sys = System::new(&dref);
            for &p in &seq {
                black_box(sys.step(p));
            }
            sys.snapshot()
        });
        times[1].push(start.elapsed().as_nanos() as f64);
        ck.ok(
            snap.states() == states.as_slice() && snap.registers() == regs.as_slice(),
            "bare automaton and System end in different states",
        );

        let mut script = Script::new(seq.clone());
        let start = Instant::now();
        let ran = tr.span("ladder.sched", |_| {
            run_scheduler_with(&dref, &mut script, usize::MAX, len, |d| {
                black_box(d);
            })
        });
        times[2].push(start.elapsed().as_nanos() as f64);
        ck.ok(ran.is_ok_and(|s| s == len), "scheduled run length differs");

        let mut script = Script::new(seq.clone());
        let start = Instant::now();
        let priced = tr.span("ladder.priced", |_| {
            run_priced(&dref, &mut script, usize::MAX, len)
        });
        times[3].push(start.elapsed().as_nanos() as f64);
        match priced {
            Ok(p) => {
                ck.eq("priced steps", p.steps, len);
                ck.eq("priced sc", p.sc.total() as u64, reference.sc_total);
                ck.eq("priced cc", p.cc.total() as u64, reference.cc_total);
                ck.eq("priced dsm", p.dsm.total() as u64, reference.dsm_total);
            }
            Err(e) => ck.ok(false, format!("priced run failed: {e}")),
        }

        let start = Instant::now();
        let report = tr.span("ladder.serve", |_| serve(&job, &opts));
        times[4].push(start.elapsed().as_nanos() as f64);
        ck.ok(
            report.to_json() == reference.to_json(),
            "round-robin serve differs from the recorded one",
        );
    }
    if !ck.0.is_empty() {
        return Err(ck.0);
    }
    let names = [
        "ladder.automaton_ns",
        "ladder.system_ns",
        "ladder.sched_ns",
        "ladder.priced_ns",
        "ladder.serve_ns",
    ];
    Ok(names
        .into_iter()
        .zip(times)
        .map(|(name, t)| (name, median(&t) / len.max(1) as f64))
        .collect())
}
