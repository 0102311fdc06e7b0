//! The `serve()` engine: a deterministic discrete-event loop driving an
//! open request stream through a lock, sharded by request-id stripe.
//!
//! # The event loop
//!
//! Virtual time is measured in **ticks**; every executed automaton step
//! advances the clock by one tick, and an idle system jumps straight to
//! the next arrival. Each iteration:
//!
//! 1. **materialize** — arrivals due at the current tick enter the
//!    bounded pending ring (one at a time; a full ring exerts
//!    backpressure on the stream, it never drops);
//! 2. **expire** — queued requests that have waited past their
//!    deadline abandon the queue and are counted;
//! 3. **admit** — queued requests occupy free lanes (one process of
//!    the lock per in-flight request);
//! 4. **step** — the scheduler picks among the occupied lanes, the
//!    system executes one step, the cost tracker prices it, and a lane
//!    whose passage completed retires its request.
//!
//! # Lanes in the view table
//!
//! Lane occupancy lives in the driver's own [`ViewTable`]: every lane
//! starts with a target of 0 passages, so its view is `done` (idle) and
//! no scheduler may pick it. Admission raises the lane's target by one
//! passage; the lane retires when its view turns `done` again. The
//! scheduler reads the table's views directly and [`ViewTable::step`]
//! executes the pending step the picked lane's view already holds, so a
//! step evaluates the automaton's transition function once and copies
//! nothing.
//!
//! # Striping and determinism
//!
//! The stream of `requests` is split into fixed-size stripes by
//! request id; each stripe replays the arrival model from a seed
//! derived from the stripe index and runs as an independent instance
//! of the event loop. The stripes run on the same ordered worker pool
//! as `sweep` ([`exclusion_shmem::pool`]): workers claim stripes in
//! order, and each stripe's stats are absorbed into the report in
//! stripe order as soon as the stripes before it have been. So the
//! report is bit-identical across worker counts and repeated runs, and
//! at most a window of stripes per worker is held unabsorbed at once,
//! however long the stream.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use exclusion_cost::CostTracker;
use exclusion_mutex::registry::{AlgorithmRegistry, DynAlgorithm};
use exclusion_shmem::{
    pool, DynRef, Executed, ProcessId, SchedContext, Scheduler, SpecError, System, ViewTable,
};
use exclusion_trace::{Hist, Progress};

use crate::arrival::{ArrivalRegistry, ResolvedArrivals};
use crate::report::ServeReport;

/// A per-stream scheduler constructor: called with the stripe's seed
/// for every stripe. Deterministic policies ignore the seed.
pub type SchedBuilder = Arc<dyn Fn(u64) -> Box<dyn Scheduler> + Send + Sync>;

/// Why a serve job failed to build.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServeError {
    /// An algorithm or arrival spec failed to resolve.
    Spec(SpecError),
    /// The job asked for zero processes.
    ZeroProcesses,
    /// The job asked for zero requests.
    ZeroRequests,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Spec(e) => e.fmt(f),
            ServeError::ZeroProcesses => write!(f, "a lock service needs at least one process"),
            ServeError::ZeroRequests => write!(f, "a serve needs at least one request"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> Self {
        ServeError::Spec(e)
    }
}

/// A resolved serve job: the algorithm, the scheduler, the arrival
/// model, and the request count — everything `serve()` needs except
/// the execution knobs ([`ServeOptions`]).
#[derive(Clone)]
pub struct ServeJob {
    /// Canonical algorithm label, used in reports.
    pub algorithm: String,
    /// Scheduler label, used in reports.
    pub scheduler: String,
    /// Processes ("lanes") of the lock instance.
    pub n: usize,
    /// Total requests in the stream.
    pub requests: u64,
    pub(crate) automaton: DynAlgorithm,
    pub(crate) sched: SchedBuilder,
    pub(crate) arrival: ResolvedArrivals,
}

impl ServeJob {
    /// Resolves `algorithm` (a registry spec like `"peterson"` or
    /// `"filter:levels=5"`) at `n` processes for a stream of
    /// `requests`, with the default scheduler (round-robin) and
    /// arrival model (`poisson:rate=0.25`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] if the algorithm spec does not resolve,
    /// [`ServeError::ZeroProcesses`] / [`ServeError::ZeroRequests`] on
    /// empty jobs.
    pub fn new(algorithm: &str, n: usize, requests: u64) -> Result<ServeJob, ServeError> {
        if n == 0 {
            return Err(ServeError::ZeroProcesses);
        }
        if requests == 0 {
            return Err(ServeError::ZeroRequests);
        }
        let alg = AlgorithmRegistry::global().resolve_str(algorithm, n)?;
        let arrival = ArrivalRegistry::global().resolve_str("poisson", n)?;
        Ok(ServeJob {
            algorithm: alg.label,
            scheduler: "round-robin".into(),
            n,
            requests,
            automaton: alg.automaton,
            sched: Arc::new(|_seed| Box::new(exclusion_shmem::sched::RoundRobin::new())),
            arrival,
        })
    }

    /// Replaces the arrival model with one resolved from `spec`
    /// against the global [`ArrivalRegistry`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Spec`] if the spec does not resolve.
    pub fn arrivals(mut self, spec: &str) -> Result<ServeJob, ServeError> {
        self.arrival = ArrivalRegistry::global().resolve_str(spec, self.n)?;
        Ok(self)
    }

    /// Replaces the arrival model with an already-resolved one.
    #[must_use]
    pub fn arrivals_resolved(mut self, arrival: ResolvedArrivals) -> ServeJob {
        self.arrival = arrival;
        self
    }

    /// Replaces the scheduler: `label` goes into reports, `builder` is
    /// called with a derived seed once per stripe. This is how
    /// registry-resolved policies are injected (the scheduler registry
    /// lives upstream in `exclusion-workload`; any
    /// [`Scheduler`] works).
    #[must_use]
    pub fn scheduler(
        mut self,
        label: impl Into<String>,
        builder: impl Fn(u64) -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) -> ServeJob {
        self.scheduler = label.into();
        self.sched = Arc::new(builder);
        self
    }

    /// The arrival model's canonical label.
    #[must_use]
    pub fn arrival_label(&self) -> &str {
        &self.arrival.label
    }
}

impl fmt::Debug for ServeJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeJob")
            .field("algorithm", &self.algorithm)
            .field("scheduler", &self.scheduler)
            .field("arrivals", &self.arrival.label)
            .field("n", &self.n)
            .field("requests", &self.requests)
            .finish_non_exhaustive()
    }
}

/// Execution knobs for [`serve`]. Every field participates in the
/// report's determinism contract *except* `workers` and `progress`,
/// which cannot change any reported number.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads; `0` means one per core. Never changes results.
    pub workers: usize,
    /// Requests per stripe (the sharding grain; default 8192).
    pub stripe: u64,
    /// Pending-ring capacity; `0` means `2n`. A full ring exerts
    /// backpressure on the arrival stream.
    pub ring: usize,
    /// Queue patience in ticks: a request not admitted within
    /// `deadline` ticks of its arrival abandons the queue. `None`
    /// waits forever.
    pub deadline: Option<u64>,
    /// Base seed; each stripe derives its own arrival and scheduler
    /// seeds from it.
    pub seed: u64,
    /// Step budget per stripe; exceeding it fails the stripe (recorded
    /// in the report, never a panic).
    pub max_steps: u64,
    /// Live progress throttle: report every `progress` events to
    /// stderr via [`Progress`]; `0` is silent. Never changes results.
    pub progress: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            stripe: 8192,
            ring: 0,
            deadline: None,
            seed: 1,
            max_steps: 50_000_000,
            progress: 0,
        }
    }
}

/// SplitMix64 — the seed-derivation mixer (stripe index → stream
/// seeds).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One in-flight request: which tick it arrived, and the lane's
/// per-model cost baselines at admission (so retire can attribute
/// exact per-request deltas).
struct InFlight {
    arrived: u64,
    sc0: usize,
    cc0: usize,
    dsm0: usize,
}

/// Everything one stripe accumulates; merged into the report in
/// stripe order.
#[derive(Default)]
pub(crate) struct StripeStats {
    pub(crate) completed: u64,
    pub(crate) abandoned: u64,
    pub(crate) steps: u64,
    pub(crate) ticks: u64,
    pub(crate) total_latency: u64,
    pub(crate) sc_total: u64,
    pub(crate) cc_total: u64,
    pub(crate) dsm_total: u64,
    pub(crate) peak_in_flight: usize,
    pub(crate) peak_queue: usize,
    pub(crate) latency: Hist,
    pub(crate) cost_sc: Hist,
    pub(crate) cost_cc: Hist,
    pub(crate) cost_dsm: Hist,
    pub(crate) error: Option<String>,
}

/// One stripe's live event loop. `sys` borrows the erased automaton
/// through `DynRef`, so the whole struct lives inside `run_stripe`.
struct Stripe<'a> {
    sys: System<'a, DynRef<'a>>,
    table: ViewTable,
    sched: Box<dyn Scheduler>,
    tracker: CostTracker,
    arrivals: Box<dyn crate::arrival::ArrivalModel>,
    lanes: Vec<Option<InFlight>>,
    occupied: usize,
    pending: VecDeque<u64>,
    ring: usize,
    deadline: Option<u64>,
    /// Requests this stripe still owes the pending ring.
    count: u64,
    produced: u64,
    next_arrival: Option<u64>,
    now: u64,
    steps: u64,
    max_steps: u64,
    progress: Option<Progress>,
    stats: StripeStats,
}

impl Stripe<'_> {
    fn observe(&mut self, done: &Executed) {
        match self.progress.as_mut() {
            Some(p) => self.tracker.observe_probed(done, p),
            None => self.tracker.observe(done),
        }
    }

    /// Due arrivals enter the bounded ring, one at a time; the stream
    /// is clamped non-decreasing.
    fn materialize(&mut self) {
        while self.pending.len() < self.ring {
            let Some(t) = self.next_arrival else { break };
            if t > self.now {
                break;
            }
            self.pending.push_back(t);
            self.produced += 1;
            self.stats.peak_queue = self.stats.peak_queue.max(self.pending.len());
            self.next_arrival =
                (self.produced < self.count).then(|| self.arrivals.next_arrival().max(t));
        }
    }

    /// Impatient queued requests abandon. Arrivals are non-decreasing
    /// and patience is uniform, so checking the front suffices.
    fn expire(&mut self) {
        let Some(d) = self.deadline else { return };
        while self
            .pending
            .front()
            .is_some_and(|&t| self.now.saturating_sub(t) > d)
        {
            self.pending.pop_front();
            self.stats.abandoned += 1;
        }
    }

    /// Queued requests occupy free lanes: each admission raises its
    /// lane's target by one passage, which makes the lane live.
    fn admit(&mut self) {
        while self.occupied < self.lanes.len() && !self.pending.is_empty() {
            let arrived = self.pending.pop_front().expect("pending is non-empty");
            let lane = self
                .lanes
                .iter()
                .position(Option::is_none)
                .expect("occupied < lanes");
            let pid = ProcessId::new(lane);
            self.lanes[lane] = Some(InFlight {
                arrived,
                sc0: self.tracker.sc().process(pid),
                cc0: self.tracker.cc().process(pid),
                dsm0: self.tracker.dsm().process(pid),
            });
            self.table.set_target(pid, self.sys.passages(pid) + 1);
            self.occupied += 1;
            self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.occupied);
        }
    }

    /// Retires the completed passage on `lane`: latency and exact
    /// per-request cost deltas go to the histograms.
    fn retire(&mut self, lane: usize) {
        let f = self.lanes[lane].take().expect("retiring an occupied lane");
        self.occupied -= 1;
        let pid = ProcessId::new(lane);
        let latency = self.now - f.arrived;
        self.stats.completed += 1;
        self.stats.total_latency += latency;
        self.stats.latency.observe(latency);
        let sc = (self.tracker.sc().process(pid) - f.sc0) as u64;
        let cc = (self.tracker.cc().process(pid) - f.cc0) as u64;
        let dsm = (self.tracker.dsm().process(pid) - f.dsm0) as u64;
        self.stats.sc_total += sc;
        self.stats.cc_total += cc;
        self.stats.dsm_total += dsm;
        self.stats.cost_sc.observe(sc);
        self.stats.cost_cc.observe(cc);
        self.stats.cost_dsm.observe(dsm);
    }

    /// One scheduled step; returns `false` when the stripe must stop
    /// (budget exhausted or the scheduler misbehaved).
    fn step_once(&mut self) -> bool {
        if self.steps >= self.max_steps {
            self.stats.error = Some(format!("step budget {} exhausted", self.max_steps));
            return false;
        }
        // Idle lanes' views are `done`: the scheduler only ever picks
        // among in-flight requests.
        let ctx = SchedContext {
            step: usize::try_from(self.steps).unwrap_or(usize::MAX),
            target_passages: usize::MAX,
            views: self.table.views(),
        };
        let Some(p) = self.sched.pick(&ctx) else {
            self.stats.error = Some(format!(
                "scheduler {} stalled with {} requests in flight",
                self.sched.name(),
                self.occupied
            ));
            return false;
        };
        if self.lanes.get(p.index()).is_none_or(Option::is_none) {
            self.stats.error = Some(format!(
                "scheduler {} picked idle lane {p}",
                self.sched.name()
            ));
            return false;
        }
        let done = self.table.step(&mut self.sys, p);
        self.observe(&done);
        self.now += 1;
        self.steps += 1;
        if self.table.views()[p.index()].done {
            self.retire(p.index());
        }
        true
    }

    /// Runs the stripe to completion (or failure) and returns its
    /// stats.
    fn run(mut self) -> StripeStats {
        loop {
            // Admission fixpoint: materialize, expire and admit until
            // nothing moves (each phase can unblock the others).
            loop {
                let before = (self.produced, self.pending.len(), self.occupied);
                self.materialize();
                self.expire();
                self.admit();
                if before == (self.produced, self.pending.len(), self.occupied) {
                    break;
                }
            }
            if self.occupied > 0 {
                if !self.step_once() {
                    break;
                }
            } else if let Some(t) = self.next_arrival {
                // Idle: the discrete-event jump to the next arrival.
                self.now = self.now.max(t);
            } else {
                break; // stream drained, queue empty, lanes idle
            }
        }
        self.stats.steps = self.steps;
        self.stats.ticks = self.now;
        self.stats
    }
}

/// Runs one stripe of `count` requests with seeds derived from
/// `(options.seed, stripe)`.
fn run_stripe(
    job: &ServeJob,
    opts: &ServeOptions,
    stripe: u64,
    count: u64,
    ring: usize,
) -> StripeStats {
    let alg = DynRef(job.automaton.as_ref());
    let base = splitmix64(opts.seed ^ stripe.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let sys = System::new(&alg);
    let sched = (job.sched)(splitmix64(base));
    // Target 0: every lane starts idle.
    let table = ViewTable::new(&sys, 0, sched.wants_step_previews());
    let mut arrivals = job.arrival.build(base);
    let next_arrival = (count > 0).then(|| arrivals.next_arrival());
    let stripe = Stripe {
        tracker: CostTracker::new(&alg),
        sys,
        table,
        sched,
        arrivals,
        lanes: std::iter::repeat_with(|| None).take(job.n).collect(),
        occupied: 0,
        // A stripe never holds more than its own requests.
        pending: VecDeque::with_capacity(ring.min(usize::try_from(count).unwrap_or(usize::MAX))),
        ring,
        deadline: opts.deadline,
        count,
        produced: 0,
        next_arrival,
        now: 0,
        steps: 0,
        max_steps: opts.max_steps,
        progress: (opts.progress > 0).then(|| Progress::new(opts.progress)),
        stats: StripeStats::default(),
    };
    stripe.run()
}

/// Serves the job's full request stream and merges the per-stripe
/// stats into one deterministic [`ServeReport`].
///
/// The report is a pure function of `(job, options)` minus the
/// `workers` and `progress` fields: stripes are fixed by
/// `options.stripe`, run on [`pool::ordered`]'s workers, and absorbed
/// in stripe order as soon as the stripes before them have been —
/// bit-identical across worker counts and repeated runs, with at most
/// a window of stripes per worker waiting unabsorbed at once.
#[must_use]
pub fn serve(job: &ServeJob, options: &ServeOptions) -> ServeReport {
    let ring = if options.ring == 0 {
        2 * job.n
    } else {
        options.ring
    };
    let stripe_len = options.stripe.max(1);
    let stripe = |k: usize| {
        let idx = k as u64;
        (idx, stripe_len.min(job.requests - idx * stripe_len))
    };
    let stripes = usize::try_from(job.requests.div_ceil(stripe_len)).unwrap_or(usize::MAX);
    let mut report = ServeReport::new(job, options, ring);
    pool::ordered(
        stripes,
        options.workers,
        |k| {
            let (idx, count) = stripe(k);
            run_stripe(job, options, idx, count, ring)
        },
        |k, stats| {
            let (idx, count) = stripe(k);
            report.absorb(idx, count, &stats);
        },
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(requests: u64) -> ServeJob {
        ServeJob::new("peterson", 4, requests).expect("peterson resolves")
    }

    #[test]
    fn reports_are_bit_identical_across_worker_counts() {
        let job = job(20_000).arrivals("bursty:size=3,gap=5").unwrap();
        let opts = |workers| ServeOptions {
            workers,
            stripe: 1024,
            seed: 7,
            ..ServeOptions::default()
        };
        let one = serve(&job, &opts(1));
        let two = serve(&job, &opts(2));
        let four = serve(&job, &opts(4));
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.completed, 20_000);
        assert_eq!(one.abandoned, 0);
        assert!(one.errors.is_empty());
    }

    #[test]
    fn every_request_is_accounted_for() {
        for arrivals in ["steady:gap=1", "poisson:rate=2", "diurnal:period=64,peak=4"] {
            let job = job(5_000).arrivals(arrivals).unwrap();
            let report = serve(
                &job,
                &ServeOptions {
                    deadline: Some(3),
                    ..ServeOptions::default()
                },
            );
            assert_eq!(
                report.completed + report.abandoned + report.unserved,
                5_000,
                "{arrivals}: conservation"
            );
            assert!(report.errors.is_empty(), "{arrivals}: no stripe errors");
            assert!(report.peak_queue <= report.ring, "{arrivals}: ring bound");
            assert!(report.peak_in_flight <= job.n, "{arrivals}: lane bound");
        }
    }

    #[test]
    fn tight_deadlines_abandon_under_load_and_are_counted() {
        // One lane and a dense burst: almost everything queues, and a
        // zero-patience deadline abandons whatever waits a tick.
        let job = ServeJob::new("peterson", 2, 4_000)
            .unwrap()
            .arrivals("bursty:size=8,gap=1")
            .unwrap();
        let report = serve(
            &job,
            &ServeOptions {
                deadline: Some(0),
                ..ServeOptions::default()
            },
        );
        assert!(report.abandoned > 0, "tight deadline must abandon");
        assert_eq!(report.completed + report.abandoned, 4_000);
        assert!(report.abandonment_rate() > 0.0);
    }

    #[test]
    fn a_stalling_scheduler_fails_the_stripe_not_the_process() {
        struct Stall;
        impl Scheduler for Stall {
            fn name(&self) -> String {
                "stall".into()
            }
            fn pick(&mut self, _ctx: &SchedContext<'_>) -> Option<ProcessId> {
                None
            }
        }
        let job = job(100).scheduler("stall", |_| Box::new(Stall));
        let report = serve(&job, &ServeOptions::default());
        assert_eq!(report.completed, 0);
        assert_eq!(report.unserved, 100);
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].starts_with("stripe 0: scheduler stall stalled"));
    }

    #[test]
    fn step_budgets_are_reported_not_panicked() {
        let job = job(1_000);
        let report = serve(
            &job,
            &ServeOptions {
                max_steps: 50,
                stripe: 500,
                ..ServeOptions::default()
            },
        );
        assert_eq!(report.errors.len(), 2, "both stripes blow the budget");
        assert_eq!(report.completed + report.abandoned + report.unserved, 1_000);
    }

    #[test]
    fn zero_jobs_are_rejected() {
        assert_eq!(
            ServeJob::new("peterson", 0, 10).unwrap_err(),
            ServeError::ZeroProcesses
        );
        assert_eq!(
            ServeJob::new("peterson", 4, 0).unwrap_err(),
            ServeError::ZeroRequests
        );
        assert!(matches!(
            ServeJob::new("not-a-lock", 4, 10),
            Err(ServeError::Spec(_))
        ));
    }
}
