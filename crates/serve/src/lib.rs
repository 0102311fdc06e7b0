//! The open-stream lock-service engine: millions of lock requests
//! driven through a scenario as one deterministic discrete-event loop.
//!
//! Where `exclusion-workload`'s sweep prices *closed* scenarios (every
//! process runs a fixed number of passages and the run ends), this
//! crate models the ROADMAP's production-shaped question: a **service**
//! facing an open stream of requests. Requests arrive over virtual
//! time according to a composable [`ArrivalModel`] — Poisson, bursty,
//! diurnal — are queued in a bounded ring, admitted onto the lock's
//! processes ("lanes"), driven through one passage each by any registry
//! [`Scheduler`](exclusion_shmem::Scheduler), priced step by step with
//! the streaming [`CostTracker`](exclusion_cost::CostTracker), and
//! retired. Impatient requests abandon the queue after a deadline —
//! counted, never silently dropped.
//!
//! The three design commitments, in order:
//!
//! * **Determinism** — a report is a pure function of
//!   `(job, options)`. The stream is sharded by request-id stripe,
//!   the stripes run on the ordered worker pool that `sweep` also
//!   uses ([`exclusion_shmem::pool`]), and each stripe is absorbed
//!   into the report in stripe order, so reports are *bit-identical
//!   across worker counts and repeated runs*.
//! * **Bounded memory** — live statistics come from fixed 64-bucket
//!   log₂ histograms ([`Hist`](exclusion_trace::Hist)), the pending
//!   ring and in-flight set are capacity-bounded, arrivals are
//!   materialized one at a time, and a stripe's stats are absorbed as
//!   soon as the stripes before it have been, with at most
//!   [`WINDOW`](exclusion_shmem::pool::WINDOW) stripes per worker
//!   waiting; memory does not grow with the request count.
//! * **Hot-path economy** — one stepping path: lane occupancy lives in
//!   the driver's incrementally maintained view table as per-lane
//!   passage targets, so the scheduler reads the views in place, and
//!   each step executes the pending step its view already holds — one
//!   transition-function evaluation and no view copy per step.
//!
//! # Quickstart
//!
//! ```
//! use exclusion_serve::{serve, ServeJob, ServeOptions};
//!
//! let job = ServeJob::new("peterson", 4, 10_000)
//!     .unwrap()
//!     .arrivals("poisson:rate=0.25")
//!     .unwrap();
//! let report = serve(&job, &ServeOptions::default());
//! assert_eq!(report.completed + report.abandoned, 10_000);
//! // p99 latency in ticks, at power-of-two resolution:
//! let _p99 = report.latency.quantile(0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod engine;
pub mod report;

pub use arrival::{
    ArrivalBuilder, ArrivalEntry, ArrivalInfo, ArrivalModel, ArrivalRegistry, ResolvedArrivals,
};
pub use engine::{serve, SchedBuilder, ServeError, ServeJob, ServeOptions};
pub use report::ServeReport;
