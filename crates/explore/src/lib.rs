//! Bounded exhaustive state-space exploration over the erased-state
//! automaton core: certified safety verdicts and exact worst-case cost
//! tables.
//!
//! Every run the scenario engine prices comes from a *sampled*
//! scheduler — greedy, random, burst — so a sweep can only ever exhibit
//! a lower bound on what the worst adversary extracts, and can never
//! *prove* safety. This crate closes both gaps for bounded instances:
//!
//! * [`explore`] visits **every** reachable state of an algorithm in
//!   which each process performs at most a bounded number of passages,
//!   and returns an [`ExploreReport`]: mutual exclusion either
//!   *certified* (the whole space holds it) or *refuted* with a
//!   minimal-length [`Counterexample`] that replays through the
//!   ordinary replay machinery, plus a deadlock/livelock
//!   classification ([`Hazard`]) from backward reachability;
//! * [`worst_case`] computes the **exact** worst-case cost — the
//!   supremum over every completing schedule — under the SC, CC or DSM
//!   model ([`Model`]), as a longest-path computation over the product
//!   of system snapshots and cost-model state, with the greedy
//!   adversary's cost as the incumbent it must dominate. Algorithms
//!   whose busy-waits are chargeable forever (remote spins under SC,
//!   any remote access under DSM) are reported
//!   [`Unbounded`](WorstCost::Unbounded) with a replayable pump cycle —
//!   exactly the local-spin/remote-spin distinction the paper's
//!   related-work section draws.
//!
//! Exploration itself is a parallel breadth-first search over canonical
//! [`Snapshot`](exclusion_shmem::Snapshot)s of the erased
//! [`DynAutomaton`](exclusion_shmem::DynAutomaton) core, each stored as
//! one fixed-width record of `u64` words (packed process states, or
//! their indices in an intern list for boxed states; registers;
//! sections; passage counts; cost digest), deduplicated in a sharded
//! transposition table and fanned out across `thread::scope` workers
//! pulling from a shared work-stealing frontier. For registry entries
//! that declare themselves `symmetric`, states are stored as one
//! representative per orbit of the process-permutation group (on by default;
//! [`ExploreConfig::symmetry`]) — the quotient is a strong
//! bisimulation, so every verdict, depth, witness length and exact
//! cost is preserved, and witnesses are de-canonicalized back to real
//! process ids before they are returned. Opt-in knobs trade elsewhere:
//! [`ExploreConfig::por`] prunes commuting local interleavings but
//! preserves only existence verdicts (it is forced off for worst-case
//! searches), and [`ExploreConfig::compress`]/[`ExploreConfig::spill`]
//! shrink the visited set to 128-bit fingerprints (flagged in the
//! report as `fingerprinted`) and park frontier layers on disk. For
//! every exploration that is not truncated by `max_states`, the
//! verdicts, state counts, depths and exact costs are independent of
//! the worker count (the layer barrier makes BFS depths deterministic,
//! and a violation halt still completes its layer); truncated runs
//! stop mid-layer at a racy point, so only their `truncated` flag is
//! meaningful. The *spelling* of a witness schedule may differ between
//! parallel runs — first-discoverer races pick among equally short
//! parent chains — but every witness it returns replays.
//!
//! # Example
//!
//! Certify the registry's tournament lock and catch a broken one:
//!
//! ```
//! use exclusion_explore::{conformance_registry, explore, ExploreConfig};
//!
//! let reg = conformance_registry();
//! let cfg = ExploreConfig::default();
//!
//! let dekker = reg.resolve_str("dekker-tree", 2).unwrap().automaton;
//! assert!(explore(dekker.as_ref(), &cfg).certified_deadlock_free());
//!
//! let broken = reg.resolve_str("broken", 2).unwrap().automaton;
//! let report = explore(broken.as_ref(), &cfg);
//! let witness = report.violation.expect("the race must be found");
//! assert!(!witness.trace.mutual_exclusion(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
mod graph;
pub mod report;
pub mod verdict;
pub mod worst;

use std::fmt;
use std::sync::Arc;

use exclusion_mutex::broken::RacyBool;
use exclusion_mutex::registry::{AlgorithmEntry, AlgorithmInfo, AlgorithmRegistry};
use exclusion_shmem::probe::{NoProbe, Probe, SpanScope, TraceEvent};

pub use crash::{
    certify_recoverable, certify_recoverable_probed, CrashCounterexample, CrashReport,
};
pub use graph::GRAIN;
pub use verdict::{explore, explore_probed, Counterexample, ExploreReport, Hazard, HazardKind};
pub use worst::{worst_case, worst_case_probed, WorstCaseReport, WorstCost};

/// Runs `f` inside a probe span: `SpanStart { scope, tag }` before,
/// `SpanEnd { scope, tag, wall_ns }` after, with the wall clock read
/// only when the probe is enabled so unprobed passes never touch
/// `Instant::now()`.
pub(crate) fn spanned<T>(
    probe: &mut dyn Probe,
    scope: SpanScope,
    tag: u32,
    f: impl FnOnce(&mut dyn Probe) -> T,
) -> T {
    if !probe.enabled() {
        return f(probe);
    }
    let start = std::time::Instant::now();
    probe.record(&TraceEvent::SpanStart { scope, tag });
    let out = f(probe);
    probe.record(&TraceEvent::SpanEnd {
        scope,
        tag,
        wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    });
    out
}

/// Which cost model a worst-case search maximizes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Model {
    /// State-change cost (Definition 3.1) — the paper's model.
    Sc,
    /// Cache-coherent cost: remote memory references under
    /// write-invalidation.
    Cc,
    /// Distributed-shared-memory cost: accesses to registers homed
    /// elsewhere.
    Dsm,
}

impl Model {
    /// All models, in report order.
    pub const ALL: [Model; 3] = [Model::Sc, Model::Cc, Model::Dsm];

    /// The CLI spelling (`"sc"`, `"cc"`, `"dsm"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::Sc => "sc",
            Model::Cc => "cc",
            Model::Dsm => "dsm",
        }
    }

    /// Parses the CLI spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Model> {
        match s {
            "sc" => Some(Model::Sc),
            "cc" => Some(Model::Cc),
            "dsm" => Some(Model::Dsm),
            _ => None,
        }
    }

    /// This model's total from a priced run — the one place that maps a
    /// [`Model`] onto `exclusion-cost`'s per-model reports.
    #[must_use]
    pub fn total_of(self, priced: &exclusion_cost::PricedRun) -> usize {
        match self {
            Model::Sc => priced.sc.total(),
            Model::Cc => priced.cc.total(),
            Model::Dsm => priced.dsm.total(),
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Bounds and resources for one exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExploreConfig {
    /// Each process performs at most this many passages (≥ 1).
    pub passages: usize,
    /// Abort (reporting truncation) after interning this many states.
    pub max_states: usize,
    /// Optional BFS depth bound; `None` explores to exhaustion.
    pub max_depth: Option<usize>,
    /// Most worker threads one BFS layer is expanded by; `0` means one
    /// per available core. A layer gets one worker per [`GRAIN`] states
    /// up to this count, and the calling thread is always one of them,
    /// so layers under `2 * GRAIN` states never spawn a thread.
    pub workers: usize,
    /// Step budget for the greedy-incumbent run of [`worst_case`].
    pub max_steps: usize,
    /// Canonicalize snapshots modulo process permutation for
    /// algorithms that declare themselves symmetric
    /// ([`DynAutomaton::dyn_symmetric`](exclusion_shmem::DynAutomaton::dyn_symmetric)).
    /// Sound for every verdict the
    /// explorer produces (asymmetric algorithms silently keep
    /// identity-only canonicalization); on by default.
    pub symmetry: bool,
    /// Ample-set partial-order reduction over provably commuting
    /// `try`/`rem` section steps. Preserves safety and
    /// completion-reachability verdicts but not minimal-length
    /// counterexamples, and is ignored by [`worst_case`]/[`analyze`]
    /// (pruning interleavings would change longest-path costs); off by
    /// default.
    pub por: bool,
    /// Store 128-bit fingerprints instead of whole key records in the
    /// transposition table. The fingerprint hashes every word of the
    /// key's record — the process states (packed words, or intern-list
    /// indices for boxed states), registers, sections, passage counts
    /// and cost digest — so a stored key shrinks from the record's
    /// `n·w + registers + 2n + digest` words to two. A report produced
    /// this way is certified only modulo fingerprint collisions
    /// (probability ≈ `states²/2^129`) and says so via
    /// [`ExploreReport::fingerprinted`]; off by default. The fingerprint
    /// costs two SipHash passes per key on top of the table's own
    /// one-pass hash, so a compressed build trades time for its memory.
    pub compress: bool,
    /// Spill each completed BFS frontier layer to a temporary disk
    /// shard and stream it back during expansion, so peak RAM holds one
    /// layer of key records instead of two. The file holds the layer's
    /// records verbatim, for every automaton; off by default.
    pub spill: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            passages: 1,
            max_states: 2_000_000,
            max_depth: None,
            workers: 0,
            max_steps: 50_000_000,
            symmetry: true,
            por: false,
            compress: false,
            spill: false,
        }
    }
}

impl ExploreConfig {
    /// The largest admissible `max_states`: node ids are 32-bit and
    /// pack the shard id into their low bits, and the shard count
    /// backs off no further than its floor of 16 shards, leaving
    /// `u32::MAX >> 4` per-shard index headroom.
    pub const MAX_STATES_LIMIT: usize = (u32::MAX as usize) >> 4;

    /// Checks the bounds that would otherwise abort an exploration
    /// mid-flight. Call this before starting a long run; the explorer
    /// entry points also enforce it (by panicking with the same
    /// message, since their signatures predate structured errors).
    ///
    /// # Errors
    ///
    /// [`ExploreError::TooManyStates`] when `max_states` exceeds what
    /// 32-bit shard-packed node ids can address.
    pub fn validated(&self) -> Result<(), ExploreError> {
        if self.max_states >= Self::MAX_STATES_LIMIT {
            return Err(ExploreError::TooManyStates {
                requested: self.max_states,
                limit: Self::MAX_STATES_LIMIT - 1,
            });
        }
        Ok(())
    }
}

/// A structured refusal from the explorer, produced by
/// [`ExploreConfig::validated`] before any work is wasted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExploreError {
    /// `max_states` exceeds the addressable node-id space.
    TooManyStates {
        /// The `max_states` that was asked for.
        requested: usize,
        /// The largest value the 32-bit shard-packed ids can honor.
        limit: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ExploreError::TooManyStates { requested, limit } => write!(
                f,
                "max_states {requested} exceeds the 32-bit node-id limit of {limit} \
                 (ids pack a 16-shard floor into their low bits); lower --max-states"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Certifies safety/progress **and** computes the exact worst case in
/// one call, sharing work where the two overlap: the SC model is
/// memoryless, so its worst-case search runs on the very same bounded
/// graph the safety verdicts come from — one exploration instead of
/// two. For CC/DSM the product graph differs and is built separately.
///
/// The worst-case search is skipped (`None`) when a mutual exclusion
/// violation was found — a supremum over runs of a broken lock is not
/// meaningful — or when the safety exploration was truncated.
///
/// # Example
///
/// ```
/// use exclusion_explore::{analyze, ExploreConfig, Model};
/// use exclusion_shmem::testing::Alternator;
///
/// let (report, worst) = analyze(&Alternator::new(2), Model::Sc, &ExploreConfig::default());
/// assert!(report.certified_deadlock_free());
/// assert_eq!(worst.unwrap().cost.exact(), Some(4));
/// ```
#[must_use]
pub fn analyze(
    alg: &(dyn exclusion_shmem::DynAutomaton + Sync),
    model: Model,
    cfg: &ExploreConfig,
) -> (ExploreReport, Option<WorstCaseReport>) {
    analyze_probed(alg, model, cfg, &mut NoProbe)
}

/// [`analyze`] with a [`Probe`] observing both passes: layer events from
/// each graph build, pump events from the worst-case search, and
/// [`SpanScope::Explore`]/[`SpanScope::Worst`] spans around the
/// certification and worst-case phases ([`analyze`] is this function
/// with [`NoProbe`], leaving the unprobed pass unchanged).
#[must_use]
pub fn analyze_probed(
    alg: &(dyn exclusion_shmem::DynAutomaton + Sync),
    model: Model,
    cfg: &ExploreConfig,
    probe: &mut dyn Probe,
) -> (ExploreReport, Option<WorstCaseReport>) {
    if model == Model::Sc {
        // One graph serves both: build without the violation halt so
        // the worst-case search sees the complete bounded space. The
        // backward-reachability live set is shared the same way.
        // Partial-order reduction is forced off: the shared graph also
        // feeds the worst-case longest-path search, which quantifies
        // over *every* interleaving (see `worst_with`). Orbit reduction
        // stays on — the quotient preserves path costs both ways.
        let cfg = &ExploreConfig { por: false, ..*cfg };
        let g = spanned(probe, SpanScope::Explore, alg.processes() as u32, |probe| {
            graph::build(alg, &graph::ScLens, cfg, false, probe)
        });
        let live = (!g.truncated && g.violations.is_empty()).then(|| graph::live_set(&g));
        let report = verdict::report_from_graph(alg, &g, cfg, live.as_deref());
        let worst = (report.violation.is_none() && !report.truncated).then(|| {
            spanned(probe, SpanScope::Worst, 0, |probe| {
                worst::worst_from_graph(alg, &g, Model::Sc, cfg, live.as_deref(), probe)
            })
        });
        (report, worst)
    } else {
        let report = explore_probed(alg, cfg, probe);
        let worst = (report.violation.is_none() && !report.truncated)
            .then(|| worst_case_probed(alg, model, cfg, probe));
        (report, worst)
    }
}

/// The registry the conformance suite (and the CLI's `explore`
/// subcommand) runs against: the full standard suite **plus** the
/// deliberately unsafe `broken` entry (the classic non-atomic
/// test-and-set race), so the explorer's ability to *catch* a bad lock
/// is exercised through exactly the same registry-driven path that
/// certifies the good ones.
#[must_use]
pub fn conformance_registry() -> AlgorithmRegistry {
    let mut reg = AlgorithmRegistry::standard();
    reg.register(AlgorithmEntry::new(
        AlgorithmInfo {
            name: "broken".into(),
            aliases: vec!["racy-bool".into()],
            summary: "deliberately unsafe non-atomic test-and-set (failure injection)".into(),
            min_n: 2,
            uses_rmw: false,
            recoverable: false,
            symmetric: false,
            deadlock_free: true,
            cost_class: "unsafe".into(),
            params: vec![],
        },
        |spec, n| {
            spec.expect_params(&[], false)?;
            Ok(Arc::new(RacyBool::new(n)))
        },
    ));
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::dynamic::DynRef;
    use exclusion_shmem::replay;
    use exclusion_shmem::sched::Script;
    use exclusion_shmem::testing::{Alternator, NoLock};

    /// Records the most states any BFS layer expanded, so a test can
    /// check that its build reached the multi-worker path (a layer of
    /// at least `2 * GRAIN` states).
    pub(crate) struct WidestLayer(pub(crate) usize);

    impl Probe for WidestLayer {
        fn record(&mut self, ev: &TraceEvent) {
            if let TraceEvent::Layer { expanded, .. } = *ev {
                self.0 = self.0.max(expanded);
            }
        }
    }

    #[test]
    fn alternator_is_certified_safe_and_deadlock_free() {
        for workers in [1, 4] {
            let cfg = ExploreConfig {
                passages: 2,
                workers,
                ..ExploreConfig::default()
            };
            let report = explore(&Alternator::new(3), &cfg);
            assert!(report.certified_safe());
            assert!(report.certified_deadlock_free());
            assert!(report.states > 10);
            assert!(report.edges >= report.states - 1);
            assert_eq!(report.n, 3);
        }
    }

    #[test]
    fn verdicts_are_independent_of_worker_count() {
        let base = ExploreConfig::default();
        let one = explore(&Alternator::new(3), &ExploreConfig { workers: 1, ..base });
        let many = explore(&Alternator::new(3), &ExploreConfig { workers: 8, ..base });
        assert_eq!(one.states, many.states);
        assert_eq!(one.edges, many.edges);
        assert_eq!(one.depth, many.depth);
        assert_eq!(one.violation, many.violation);
        assert_eq!(one.hazard, many.hazard);

        // Those layers are too small to fan out (a layer gets one worker
        // per `GRAIN` states). Peterson's at n = 4 reach thousands, so
        // its 2- and 4-worker builds expand them on spawned threads.
        let alg = conformance_registry()
            .resolve_str("peterson", 4)
            .expect("resolves")
            .automaton;
        let runs = [1, 2, 4].map(|workers| {
            let mut widest = WidestLayer(0);
            let cfg = ExploreConfig { workers, ..base };
            let (report, worst) = analyze_probed(alg.as_ref(), Model::Sc, &cfg, &mut widest);
            (report, worst.expect("peterson is safe"), widest.0)
        });
        let (one, one_worst, widest) = &runs[0];
        assert!(*widest >= 2 * GRAIN, "widest layer {widest}");
        for (many, many_worst, _) in &runs[1..] {
            assert_eq!(one.states, many.states);
            assert_eq!(one.edges, many.edges);
            assert_eq!(one.depth, many.depth);
            assert_eq!(one.dedup_hits, many.dedup_hits);
            assert_eq!(one.violation, many.violation);
            assert_eq!(one.hazard, many.hazard);
            assert_eq!(one_worst.nodes, many_worst.nodes);
            assert_eq!(one_worst.edges, many_worst.edges);
            assert_eq!(one_worst.incumbent, many_worst.incumbent);
            assert_eq!(one_worst.cost.exact(), many_worst.cost.exact());
            assert_eq!(
                one_worst.cost.is_unbounded(),
                many_worst.cost.is_unbounded()
            );
        }
    }

    #[test]
    fn no_lock_violation_replays_and_is_minimal() {
        let alg = NoLock::new(2);
        let report = explore(&alg, &ExploreConfig::default());
        let cex = report.violation.expect("NoLock is unsafe");
        // Minimal: try,enter for each of two processes = 4 steps.
        assert_eq!(cex.schedule.len(), 4);
        assert_ne!(cex.culprits.0, cex.culprits.1);
        let sys = replay(&alg, cex.trace.steps(), |_| {}).expect("witness replays");
        assert_eq!(sys.in_critical().count(), 2);
    }

    #[test]
    fn truncated_exploration_certifies_nothing() {
        let report = explore(
            &Alternator::new(3),
            &ExploreConfig {
                max_states: 4,
                ..ExploreConfig::default()
            },
        );
        assert!(report.truncated);
        assert!(!report.certified_safe());
        assert!(report.violation.is_none());
    }

    #[test]
    fn depth_bound_truncates() {
        let report = explore(
            &Alternator::new(2),
            &ExploreConfig {
                max_depth: Some(3),
                ..ExploreConfig::default()
            },
        );
        assert!(report.truncated);
        assert!(report.depth <= 3);
    }

    /// The Alternator's exact SC worst case is computable by hand:
    /// every process pays one successful read of `turn` plus one
    /// hand-over write per passage, spins are free, and no positive
    /// cycle exists (a spinning process re-reads an unchanged register
    /// without changing state).
    #[test]
    fn alternator_sc_worst_case_is_exact_and_witnessed() {
        let alg = Alternator::new(3);
        let report = worst_case(&alg, Model::Sc, &ExploreConfig::default());
        let WorstCost::Exact { cost, ref schedule } = report.cost else {
            panic!(
                "alternator must have a finite SC worst case: {:?}",
                report.cost
            );
        };
        assert_eq!(cost, 6, "2 charged shared steps per process per passage");
        assert!(cost >= report.incumbent);
        // The witness replays to exactly the optimum through the
        // streaming pricer.
        let priced = exclusion_cost::run_priced(
            &DynRef(&alg),
            &mut Script::new(schedule.clone()),
            1,
            schedule.len() + 1,
        )
        .expect("witness schedule runs");
        assert_eq!(priced.completed, 3, "the witness completes every passage");
        assert_eq!(priced.sc.total(), cost);
        assert_eq!(priced.steps, schedule.len());
    }

    /// A two-register spin that bounces between states is chargeable
    /// forever under SC: the worst case is unbounded, witnessed by a
    /// pump cycle that adds the same positive charge on every lap.
    #[test]
    fn state_bouncing_spins_are_unbounded_under_sc() {
        use exclusion_mutex::Peterson;
        let alg = Peterson::new(2);
        let report = worst_case(&alg, Model::Sc, &ExploreConfig::default());
        let WorstCost::Unbounded {
            ref prefix,
            ref cycle,
        } = report.cost
        else {
            panic!("peterson's remote spin must be pumpable: {:?}", report.cost);
        };
        assert!(!cycle.is_empty());
        // Pump it: k extra laps cost strictly more than k-1. A pumped
        // prefix stops short of completion on purpose.
        let price = |laps: usize| {
            let mut picks = prefix.clone();
            for _ in 0..laps {
                picks.extend_from_slice(cycle);
            }
            let len = picks.len();
            exclusion_cost::run_priced(&DynRef(&alg), &mut Script::new(picks), 1, len)
                .expect("pump runs")
                .sc
                .total()
        };
        let (one, two, three) = (price(1), price(2), price(3));
        assert!(two > one && three > two, "{one} {two} {three}");
        assert_eq!(three + one, 2 * two, "each lap adds the same charge");
    }

    #[test]
    fn analyze_matches_the_two_separate_passes() {
        let alg = Alternator::new(3);
        let cfg = ExploreConfig::default();
        for model in Model::ALL {
            let (report, worst) = analyze(&alg, model, &cfg);
            assert_eq!(report, explore(&alg, &cfg), "{model}");
            let separate = worst_case(&alg, model, &cfg);
            let combined = worst.expect("safe algorithm gets a worst case");
            assert_eq!(combined.cost.exact(), separate.cost.exact(), "{model}");
            assert_eq!(combined.incumbent, separate.incumbent, "{model}");
            assert_eq!(combined.nodes, separate.nodes, "{model}");
        }
        // A violation suppresses the worst-case search.
        let (report, worst) = analyze(&NoLock::new(2), Model::Sc, &cfg);
        assert!(report.violation.is_some());
        assert!(worst.is_none());
    }

    #[test]
    fn conformance_registry_adds_broken_without_touching_the_suite() {
        let reg = conformance_registry();
        assert_eq!(reg.names().len(), 18);
        assert!(reg.get("broken").is_some());
        assert!(reg.get("broken-recover").is_some(), "crash-planted twin");
        assert!(reg.get("racy-bool").is_some(), "alias resolves");
        let broken = reg.resolve_str("broken", 2).unwrap();
        assert_eq!(broken.automaton.name(), "racy-bool");
        // min_n floor: the race needs two processes.
        assert!(reg.resolve_str("broken", 1).is_err());
    }

    #[test]
    fn model_spellings_roundtrip() {
        for m in Model::ALL {
            assert_eq!(Model::parse(m.name()), Some(m));
            assert_eq!(m.to_string(), m.name());
        }
        assert_eq!(Model::parse("mesi"), None);
    }
}
