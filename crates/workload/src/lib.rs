//! The adversarial scenario engine: contention workload generation and
//! parallel sharded cost sweeps.
//!
//! The paper's Ω(n log n) bound is a statement about what an *adversary*
//! — a scheduler — can force an algorithm to pay. This crate turns that
//! viewpoint into an engine:
//!
//! * [`Scenario`] describes one workload: an algorithm (a spec like
//!   `"dekker-tree"` or `"filter:levels=5"`, resolved against
//!   `exclusion_mutex`'s open `AlgorithmRegistry`), a process count, a
//!   passage target, a scheduling policy ([`SchedSpec`], resolved
//!   against this crate's [`SchedulerRegistry`] — including the greedy
//!   cost-maximizing adversary, the adaptive lower-bound adversary
//!   `fanlynch` from `exclusion-bound`, and burst/stagger arrival
//!   patterns), and a seed grid. Resolution happens once, at build
//!   time: the
//!   scenario carries live registry handles, and downstream crates can
//!   sweep their own registered algorithms and schedulers through
//!   [`ScenarioBuilder::build_with`];
//! * [`sweep`] runs a batch of scenarios sharded across worker threads,
//!   prices every run under the SC, CC and DSM cost models, and
//!   aggregates min/percentile/max/mean summaries — results are
//!   bit-identical for any thread count. Each run is driven and priced
//!   in a *single streaming pass* (nothing recorded, nothing replayed);
//! * [`SweepReport`] serializes to JSON, CSV or an aligned text table.
//!
//! The `workload` binary wraps all of this in a CLI; [`cli`] is the
//! flag reader it shares with the `exclusion-bench` binaries.
//!
//! # Example
//!
//! Price the tournament lock under the greedy adversary and a random
//! seed grid, in parallel:
//!
//! ```
//! use exclusion_workload::{sweep, Scenario, SchedSpec, SweepOptions};
//!
//! let scenarios = vec![
//!     Scenario::builder("dekker-tree", 8)
//!         .sched(SchedSpec::greedy())
//!         .build()?,
//!     Scenario::builder("dekker-tree", 8)
//!         .sched(SchedSpec::random())
//!         .seeds(0..8)
//!         .build()?,
//! ];
//! let report = sweep(&scenarios, &SweepOptions::default());
//! let greedy = &report.summaries[0];
//! let random = &report.summaries[1];
//! // The adversary extracts at least as much SC cost as fair chance.
//! assert!(greedy.sc.max >= random.sc.max);
//! println!("{}", report.to_text());
//! # Ok::<(), exclusion_workload::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod hwbench;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod schedreg;

pub use hwbench::{HwError, HwLeg, HwRow, HwScenario, SimLeg};
pub use report::JSON_SCHEMA;
pub use runner::{
    run_probed, sweep, ModelSummary, RunRecord, ScenarioSummary, SweepOptions, SweepReport,
};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioError, SchedSpec};
pub use schedreg::{ResolvedSched, SchedBuilder, SchedulerEntry, SchedulerInfo, SchedulerRegistry};
