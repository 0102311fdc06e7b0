//! Shared-memory model of Fan & Lynch, *An Ω(n log n) Lower Bound on the
//! Cost of Mutual Exclusion* (PODC 2006), Section 3.1.
//!
//! A *system* consists of `n` deterministic process automata communicating
//! through multi-reader multi-writer registers. A process repeatedly asks
//! its transition function for the next step to perform — a register read,
//! a register write, or one of the four *critical steps* `try`, `enter`,
//! `exit`, `rem` — and folds the observation produced by that step back
//! into its state.
//!
//! This crate provides:
//!
//! * [`Automaton`] — the deterministic process-automaton trait; mutual
//!   exclusion algorithms (see the `exclusion-mutex` crate) implement it;
//! * [`System`] — a live simulation of an algorithm: process states,
//!   register contents, and per-process section tracking;
//! * [`Execution`] — a recorded sequence of [`Step`]s, with the
//!   well-formedness and canonicity predicates of the paper;
//! * [`replay()`](replay()) — deterministic re-execution of a recorded
//!   execution with per-step validation (used by the cost models and the
//!   lower-bound machinery);
//! * [`sched`] — the pluggable [`Scheduler`] trait with fair drivers
//!   (round-robin, seeded random, canonical sequential) and adversarial
//!   ones (greedy cost-maximizing, burst/phased arrival, staggered
//!   enable times) producing executions;
//! * [`fault`] — deterministic crash injection for the recoverable-mutex
//!   model: [`FaultPlan`]s compose with every scheduler through the
//!   faulted driver, and crashed witnesses reconstruct to replayable
//!   script/plan pairs;
//! * [`dynamic`] — the erased-state core: the object-safe
//!   [`DynAutomaton`] mirror of [`Automaton`] (every automaton gets it
//!   for free), [`DynState`] with inline-word and boxed representations,
//!   and [`DynRef`] bridging erased algorithms back into the generic
//!   drivers — the foundation of the open algorithm/scheduler registries;
//! * [`spec`] — the `name:key=value,…` spec grammar those registries
//!   share;
//! * [`probe`] — the observability core: the structured [`TraceEvent`]
//!   vocabulary and the zero-overhead-when-off [`Probe`] trait every
//!   engine above this crate emits events through (collectors and
//!   exporters live in `exclusion-trace`).
//!
//! # Example
//!
//! Run two processes of a toy algorithm round-robin and inspect the trace:
//!
//! ```
//! use exclusion_shmem::sched::run_round_robin;
//! use exclusion_shmem::testing::Alternator;
//!
//! let alg = Alternator::new(2);
//! let exec = run_round_robin(&alg, 1, 10_000).expect("terminates");
//! assert!(exec.is_canonical(2));
//! assert!(exec.mutual_exclusion(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod dynamic;
pub mod error;
pub mod execution;
pub mod fault;
pub mod ids;
pub mod probe;
pub mod replay;
pub mod sched;
pub mod spec;
pub mod step;
pub mod symmetry;
pub mod system;
pub mod testing;

pub use automaton::{Automaton, NextStep, Observation, RmwOp};
pub use dynamic::{DynAutomaton, DynRef, DynState, Packed, WordState};
pub use error::{ReplayError, RunError};
pub use execution::Execution;
pub use fault::{faulted_script, run_faulted, run_faulted_with, FaultPlan, Run};
pub use ids::{ProcessId, RegisterId, Value};
pub use probe::{NoProbe, Probe, SharedProbe, SpanScope, TraceEvent};
pub use replay::{replay, replay_collect, StepOutcome};
pub use sched::{ProcessView, SchedContext, Scheduler, ViewTable};
pub use spec::{ParamInfo, Spec, SpecError};
pub use step::{CritKind, Step, StepType};
pub use symmetry::{canonical_perm, canonicalize_snapshot, permute_snapshot, Perm};
pub use system::{Executed, Section, Snapshot, System};
