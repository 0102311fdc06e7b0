//! The merged serve report: deterministic totals, bounded-memory
//! percentiles, and a stable JSON rendering.
//!
//! Every field is a function of virtual time and exact step counts —
//! there are no wall-clock fields — so two reports from the same
//! `(job, options)` compare equal with `==` and render byte-identical
//! JSON regardless of worker count.

use exclusion_shmem::json::escape;
use exclusion_trace::Hist;

use crate::engine::{ServeJob, ServeOptions, StripeStats};

/// Schema tag stamped into [`ServeReport::to_json`] output.
pub const SERVE_SCHEMA: &str = "exclusion-serve/v2";

/// The merged outcome of serving a request stream.
///
/// `completed + abandoned + unserved == requests` always holds:
/// `unserved` counts requests lost to stripes that failed (step budget
/// exhausted or a misbehaving scheduler), which are reported in
/// [`errors`](Self::errors) rather than panicking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServeReport {
    /// Canonical algorithm label.
    pub algorithm: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Canonical arrival-model label.
    pub arrivals: String,
    /// Processes (lanes) per stripe instance.
    pub n: usize,
    /// Requests offered to the service.
    pub requests: u64,
    /// Requests per stripe (the sharding grain).
    pub stripe: u64,
    /// Pending-ring capacity actually used.
    pub ring: usize,
    /// Queue patience in ticks, if any.
    pub deadline: Option<u64>,
    /// Base seed.
    pub seed: u64,
    /// Requests that completed a passage.
    pub completed: u64,
    /// Requests that abandoned the queue past their deadline.
    pub abandoned: u64,
    /// Requests lost to errored stripes.
    pub unserved: u64,
    /// Automaton steps executed across all stripes.
    pub steps: u64,
    /// Virtual ticks elapsed, summed over stripes.
    pub ticks: u64,
    /// Sum of completed-request latencies, in ticks.
    pub total_latency: u64,
    /// Total SC cost over completed and in-flight work.
    pub sc_total: u64,
    /// Total CC cost.
    pub cc_total: u64,
    /// Total DSM cost.
    pub dsm_total: u64,
    /// Most requests simultaneously in flight in any stripe.
    pub peak_in_flight: usize,
    /// Deepest the pending ring got in any stripe.
    pub peak_queue: usize,
    /// Latency histogram (ticks from arrival to retirement).
    pub latency: Hist,
    /// Per-request SC cost histogram.
    pub cost_sc: Hist,
    /// Per-request CC cost histogram.
    pub cost_cc: Hist,
    /// Per-request DSM cost histogram.
    pub cost_dsm: Hist,
    /// Per-stripe failures, prefixed `stripe <idx>:`, in stripe order.
    pub errors: Vec<String>,
}

impl ServeReport {
    /// An empty report carrying the job's and options' identity.
    pub(crate) fn new(job: &ServeJob, opts: &ServeOptions, ring: usize) -> ServeReport {
        ServeReport {
            algorithm: job.algorithm.clone(),
            scheduler: job.scheduler.clone(),
            arrivals: job.arrival_label().to_string(),
            n: job.n,
            requests: job.requests,
            stripe: opts.stripe.max(1),
            ring,
            deadline: opts.deadline,
            seed: opts.seed,
            completed: 0,
            abandoned: 0,
            unserved: 0,
            steps: 0,
            ticks: 0,
            total_latency: 0,
            sc_total: 0,
            cc_total: 0,
            dsm_total: 0,
            peak_in_flight: 0,
            peak_queue: 0,
            latency: Hist::default(),
            cost_sc: Hist::default(),
            cost_cc: Hist::default(),
            cost_dsm: Hist::default(),
            errors: Vec::new(),
        }
    }

    /// Folds one stripe (of `count` requests) in; called in stripe
    /// order.
    pub(crate) fn absorb(&mut self, idx: u64, count: u64, s: &StripeStats) {
        self.completed += s.completed;
        self.abandoned += s.abandoned;
        self.steps += s.steps;
        self.ticks += s.ticks;
        self.total_latency += s.total_latency;
        self.sc_total += s.sc_total;
        self.cc_total += s.cc_total;
        self.dsm_total += s.dsm_total;
        self.peak_in_flight = self.peak_in_flight.max(s.peak_in_flight);
        self.peak_queue = self.peak_queue.max(s.peak_queue);
        self.latency.merge(&s.latency);
        self.cost_sc.merge(&s.cost_sc);
        self.cost_cc.merge(&s.cost_cc);
        self.cost_dsm.merge(&s.cost_dsm);
        if let Some(e) = &s.error {
            self.unserved += count - s.completed - s.abandoned;
            self.errors.push(format!("stripe {idx}: {e}"));
        }
    }

    /// Completed requests per virtual tick.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.ticks == 0 {
            0.0
        } else {
            self.completed as f64 / self.ticks as f64
        }
    }

    /// Fraction of offered requests that abandoned the queue.
    #[must_use]
    pub fn abandonment_rate(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.requests == 0 {
            0.0
        } else {
            self.abandoned as f64 / self.requests as f64
        }
    }

    /// Mean latency of completed requests, in ticks.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.completed as f64
        }
    }

    /// Renders the report as stable, schema-tagged JSON. Byte-identical
    /// for equal reports.
    #[must_use]
    pub fn to_json(&self) -> String {
        let quantiles = |h: &Hist| {
            format!(
                "{{\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999)
            )
        };
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{{\"schema\":\"{SERVE_SCHEMA}\","));
        out.push_str(&format!(
            "\"algorithm\":\"{}\",\"scheduler\":\"{}\",\"arrivals\":\"{}\",",
            escape(&self.algorithm),
            escape(&self.scheduler),
            escape(&self.arrivals)
        ));
        out.push_str(&format!(
            "\"n\":{},\"requests\":{},\"stripe\":{},\"ring\":{},\"deadline\":{},\"seed\":{},",
            self.n,
            self.requests,
            self.stripe,
            self.ring,
            self.deadline
                .map_or_else(|| "null".into(), |d| d.to_string()),
            self.seed
        ));
        out.push_str(&format!(
            "\"completed\":{},\"abandoned\":{},\"unserved\":{},\"abandonment_rate\":{:.6},",
            self.completed,
            self.abandoned,
            self.unserved,
            self.abandonment_rate()
        ));
        out.push_str(&format!(
            "\"steps\":{},\"ticks\":{},\"throughput\":{:.6},",
            self.steps,
            self.ticks,
            self.throughput()
        ));
        out.push_str(&format!(
            "\"latency\":{{\"mean\":{:.6},\"quantiles\":{},\"hist\":{}}},",
            self.mean_latency(),
            quantiles(&self.latency),
            self.latency.to_json()
        ));
        out.push_str(&format!(
            "\"cost\":{{\"sc\":{{\"total\":{},\"quantiles\":{}}},\"cc\":{{\"total\":{},\"quantiles\":{}}},\"dsm\":{{\"total\":{},\"quantiles\":{}}}}},",
            self.sc_total,
            quantiles(&self.cost_sc),
            self.cc_total,
            quantiles(&self.cost_cc),
            self.dsm_total,
            quantiles(&self.cost_dsm)
        ));
        out.push_str(&format!(
            "\"peak_in_flight\":{},\"peak_queue\":{},",
            self.peak_in_flight, self.peak_queue
        ));
        out.push_str("\"errors\":[");
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(e));
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}
