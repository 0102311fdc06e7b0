//! Scenario descriptions: which algorithm, at what size, under which
//! contention pattern, over which seed grid.
//!
//! Both the algorithm and the contention pattern are *specs* —
//! `name[:key=value,…]` strings resolved against open registries
//! ([`AlgorithmRegistry`] from `exclusion-mutex`, [`SchedulerRegistry`]
//! from this crate) — so anything registered, built-in or downstream,
//! can be swept without touching an enum or a parser. Resolution
//! happens **once, at build time**: a [`Scenario`] carries the live
//! handles (the erased automaton, the per-run scheduler builder), so
//! the sweep's per-seed hot loop performs no lookups and validation
//! errors (unknown names, bad parameters, too few processes for the
//! algorithm) surface before anything runs.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use exclusion_mutex::registry::{AlgorithmRegistry, DynAlgorithm, ResolvedAlgorithm};
use exclusion_shmem::spec::{Spec, SpecError};
use exclusion_shmem::Scheduler;

use crate::schedreg::{ResolvedSched, SchedulerRegistry};

/// A scheduling policy, by spec. Where [`Scheduler`]s are live stateful
/// objects, a `SchedSpec` is a value: comparable, printable, and
/// resolvable any number of times against a [`SchedulerRegistry`].
///
/// The convenience constructors cover the built-in policies; arbitrary
/// (including downstream-registered) policies come from
/// [`parse`](SchedSpec::parse) or [`from_spec`](SchedSpec::from_spec).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SchedSpec(Spec);

impl SchedSpec {
    /// The canonical no-contention schedule in identity order.
    #[must_use]
    pub fn sequential() -> Self {
        SchedSpec(Spec::new("sequential"))
    }

    /// Deterministic fair interleaving.
    #[must_use]
    pub fn round_robin() -> Self {
        SchedSpec(Spec::new("round-robin"))
    }

    /// Uniform random fair interleaving; one run per seed.
    #[must_use]
    pub fn random() -> Self {
        SchedSpec(Spec::new("random"))
    }

    /// The greedy cost-maximizing adversary.
    #[must_use]
    pub fn greedy() -> Self {
        SchedSpec(Spec::new("greedy-adversary"))
    }

    /// Phased arrival in waves of `wave` processes every `gap` steps.
    #[must_use]
    pub fn burst(wave: usize, gap: usize) -> Self {
        SchedSpec(Spec::new("burst").with("wave", wave).with("gap", gap))
    }

    /// Staggered arrival: the i-th *arrival* is enabled at `i * stride`
    /// steps, with the arrival order drawn from the run's seed.
    #[must_use]
    pub fn stagger(stride: usize) -> Self {
        SchedSpec(Spec::new("stagger").with("stride", stride))
    }

    /// Parses a spec spelling — canonical (`"burst:wave=2,gap=32"`),
    /// aliased (`"rr"`, `"greedy"`), or legacy positional
    /// (`"burst:2x32"`, `"stagger:5"`).
    ///
    /// Syntax only; whether the name resolves is decided against a
    /// registry (at [`ScenarioBuilder::build`] time, or directly via
    /// [`SchedulerRegistry::resolve`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Malformed`] when the text does not match
    /// the spec grammar.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        Ok(SchedSpec(Spec::parse(s)?))
    }

    /// Wraps an already-parsed [`Spec`].
    #[must_use]
    pub fn from_spec(spec: Spec) -> Self {
        SchedSpec(spec)
    }

    /// The underlying spec.
    #[must_use]
    pub fn spec(&self) -> &Spec {
        &self.0
    }

    /// The spec's spelling (`parse(label()) == Ok(self)`); note that
    /// *resolved* report labels may differ by making defaults explicit
    /// (`"burst"` resolves to the label `"burst:wave=4,gap=16"` at
    /// `n = 8`).
    #[must_use]
    pub fn label(&self) -> String {
        self.0.label()
    }
}

impl fmt::Display for SchedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.label())
    }
}

/// A scenario: one algorithm at one size, driven to a passage count by
/// one scheduling policy, over a seed grid — with both registry handles
/// already resolved. Built with [`Scenario::builder`].
///
/// The three names are shared: every [`RunRecord`](crate::RunRecord)
/// of the scenario points at them instead of copying them.
#[derive(Clone)]
pub struct Scenario {
    /// Report name, unique within a sweep.
    pub name: Arc<str>,
    /// Resolved algorithm label (canonical spec, e.g.
    /// `"filter:levels=5"`).
    pub algorithm: Arc<str>,
    /// Resolved scheduler label (canonical spec with concrete
    /// parameters, e.g. `"burst:wave=4,gap=16"`).
    pub scheduler: Arc<str>,
    /// Number of processes.
    pub n: usize,
    /// Passages every process completes.
    pub passages: usize,
    /// Seed grid. Unseeded policies run once (on the first seed).
    pub seeds: Vec<u64>,
    /// Step budget per run.
    pub max_steps: usize,
    alg: ResolvedAlgorithm,
    sched: ResolvedSched,
}

impl Scenario {
    /// Starts building a scenario for `algorithm` (a spec string) at
    /// `n` processes.
    #[must_use]
    pub fn builder(algorithm: impl Into<String>, n: usize) -> ScenarioBuilder {
        ScenarioBuilder {
            name: None,
            algorithm: algorithm.into(),
            n,
            passages: 1,
            sched: SchedSpec::round_robin(),
            seeds: vec![0],
            max_steps: 50_000_000,
        }
    }

    /// The resolved erased automaton — shared (it is an `Arc`) by every
    /// run of the scenario across the sweep's worker threads.
    #[must_use]
    pub fn automaton(&self) -> &DynAlgorithm {
        &self.alg.automaton
    }

    /// Whether the resolved algorithm uses RMW primitives.
    #[must_use]
    pub fn uses_rmw(&self) -> bool {
        self.alg.uses_rmw
    }

    /// Whether runs depend on the seed.
    #[must_use]
    pub fn seeded(&self) -> bool {
        self.sched.seeded
    }

    /// A live scheduler for one run — no lookup, no re-validation; just
    /// the resolved entry's constructor.
    #[must_use]
    pub fn build_scheduler(&self, seed: u64) -> Box<dyn Scheduler> {
        self.sched.build(self.passages, seed)
    }

    /// The seeds this scenario actually runs: the full grid for seeded
    /// policies, the first seed only for deterministic ones.
    #[must_use]
    pub fn effective_seeds(&self) -> &[u64] {
        if self.seeded() {
            &self.seeds
        } else {
            &self.seeds[..1]
        }
    }
}

impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        // The resolved handles are functions of the labels and `n`
        // *within one registry*, so comparing the describable fields is
        // exact for scenarios built against the same registries (the
        // overwhelmingly common case: `build()`). Scenarios from
        // different `build_with` registries that shadow the same name
        // with different constructors compare equal despite running
        // different code — don't key caches on `Scenario` equality
        // across registries.
        (
            &self.name,
            &self.algorithm,
            &self.scheduler,
            self.n,
            self.passages,
            &self.seeds,
            self.max_steps,
        ) == (
            &other.name,
            &other.algorithm,
            &other.scheduler,
            other.n,
            other.passages,
            &other.seeds,
            other.max_steps,
        )
    }
}

impl Eq for Scenario {}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("algorithm", &self.algorithm)
            .field("scheduler", &self.scheduler)
            .field("n", &self.n)
            .field("passages", &self.passages)
            .field("seeds", &self.seeds)
            .field("max_steps", &self.max_steps)
            .finish_non_exhaustive()
    }
}

/// Builder for [`Scenario`]; validates and resolves on
/// [`build`](ScenarioBuilder::build).
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    name: Option<String>,
    algorithm: String,
    n: usize,
    passages: usize,
    sched: SchedSpec,
    seeds: Vec<u64>,
    max_steps: usize,
}

impl ScenarioBuilder {
    /// Overrides the auto-derived report name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Passages every process completes (default 1).
    #[must_use]
    pub fn passages(mut self, passages: usize) -> Self {
        self.passages = passages;
        self
    }

    /// The scheduling policy (default round-robin).
    #[must_use]
    pub fn sched(mut self, sched: SchedSpec) -> Self {
        self.sched = sched;
        self
    }

    /// The seed grid (default `[0]`).
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Step budget per run (default 50 million).
    #[must_use]
    pub fn max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Validates and builds the scenario against the default (global)
    /// registries.
    ///
    /// # Errors
    ///
    /// As [`build_with`](ScenarioBuilder::build_with).
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.build_with(AlgorithmRegistry::global(), SchedulerRegistry::global())
    }

    /// Validates and builds the scenario against explicit registries —
    /// the entry point for downstream crates sweeping their own
    /// algorithms or schedulers.
    ///
    /// Both specs are resolved here, at the scenario's *actual* `n`
    /// (validated against the algorithm's `min_n` floor), and the
    /// resolved handles ride inside the scenario: `sweep`'s per-seed
    /// loop never looks anything up again.
    ///
    /// # Errors
    ///
    /// Rejects `n = 0`, `passages = 0`, an empty seed grid, a zero step
    /// budget, and — via [`ScenarioError::Spec`] — malformed specs,
    /// unknown names (with the registry contents and a nearest-name
    /// suggestion), invalid parameters, and `n` below the algorithm's
    /// `min_n`.
    pub fn build_with(
        self,
        algorithms: &AlgorithmRegistry,
        schedulers: &SchedulerRegistry,
    ) -> Result<Scenario, ScenarioError> {
        if self.n == 0 {
            return Err(ScenarioError::ZeroProcesses);
        }
        if self.passages == 0 {
            return Err(ScenarioError::ZeroPassages);
        }
        if self.seeds.is_empty() {
            return Err(ScenarioError::NoSeeds);
        }
        if self.max_steps == 0 {
            return Err(ScenarioError::NoBudget);
        }
        let alg_spec = Spec::parse(&self.algorithm)?;
        let alg = algorithms.resolve(&alg_spec, self.n)?;
        let sched = schedulers.resolve(self.sched.spec(), self.n)?;
        let name = self.name.unwrap_or_else(|| {
            format!(
                "{}/{}/n{}x{}",
                alg.label, sched.label, self.n, self.passages
            )
        });
        Ok(Scenario {
            name: name.into(),
            algorithm: alg.label.as_str().into(),
            scheduler: sched.label.as_str().into(),
            n: self.n,
            passages: self.passages,
            seeds: self.seeds,
            max_steps: self.max_steps,
            alg,
            sched,
        })
    }
}

/// Why a [`ScenarioBuilder`] refused to build.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScenarioError {
    /// An algorithm or scheduler spec failed to parse or resolve
    /// (unknown name, invalid parameter, `n` below the algorithm's
    /// `min_n` floor).
    Spec(SpecError),
    /// `n = 0`.
    ZeroProcesses,
    /// `passages = 0`.
    ZeroPassages,
    /// The seed grid is empty.
    NoSeeds,
    /// `max_steps = 0`.
    NoBudget,
}

impl From<SpecError> for ScenarioError {
    fn from(e: SpecError) -> Self {
        ScenarioError::Spec(e)
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Spec(e) => e.fmt(f),
            ScenarioError::ZeroProcesses => write!(f, "a scenario needs at least one process"),
            ScenarioError::ZeroPassages => write!(f, "a scenario needs at least one passage"),
            ScenarioError::NoSeeds => write!(f, "a scenario needs at least one seed"),
            ScenarioError::NoBudget => write!(f, "a scenario needs a positive step budget"),
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_derives_names_and_validates() {
        let sc = Scenario::builder("dekker-tree", 8)
            .passages(2)
            .sched(SchedSpec::greedy())
            .seeds(0..4)
            .build()
            .unwrap();
        assert_eq!(&*sc.name, "dekker-tree/greedy-adversary/n8x2");
        // Greedy is deterministic: only one effective seed.
        assert_eq!(sc.effective_seeds(), &[0]);
        assert!(!sc.uses_rmw());

        let err = Scenario::builder("no-such-lock", 4).build().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Spec(SpecError::UnknownName { .. })
        ));
        assert!(
            err.to_string().contains("dekker-tree"),
            "lists registry: {err}"
        );
        assert!(Scenario::builder("bakery", 0).build().is_err());
        assert!(Scenario::builder("bakery", 4).seeds([]).build().is_err());
        assert!(Scenario::builder("bakery", 4).passages(0).build().is_err());
        assert!(Scenario::builder("bakery", 4).max_steps(0).build().is_err());
    }

    #[test]
    fn build_validates_at_the_actual_n_not_a_floor() {
        use exclusion_mutex::registry::{AlgorithmEntry, AlgorithmInfo};
        use std::sync::Arc;
        // An entry that genuinely needs n >= 2: building it at n = 1
        // must fail at *build* time, not at run time.
        let mut algs = AlgorithmRegistry::standard();
        algs.register(AlgorithmEntry::new(
            AlgorithmInfo {
                name: "needs-two".into(),
                aliases: vec![],
                summary: "min_n floor fixture".into(),
                min_n: 2,
                uses_rmw: false,
                recoverable: false,
                symmetric: false,
                deadlock_free: true,
                cost_class: "test".into(),
                params: vec![],
            },
            |_, n| Ok(Arc::new(exclusion_mutex::Peterson::new(n))),
        ));
        let scheds = SchedulerRegistry::standard();
        assert!(Scenario::builder("needs-two", 2)
            .build_with(&algs, &scheds)
            .is_ok());
        let err = Scenario::builder("needs-two", 1)
            .build_with(&algs, &scheds)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::Spec(SpecError::TooFewProcesses { n: 1, min_n: 2, .. })
            ),
            "{err}"
        );
        // The standard suite runs all the way down to n = 1.
        assert!(Scenario::builder("bakery", 1).build().is_ok());
    }

    #[test]
    fn parameterized_specs_flow_into_names_and_labels() {
        let sc = Scenario::builder("filter:levels=5", 4)
            .sched(SchedSpec::burst(2, 32))
            .build()
            .unwrap();
        assert_eq!(&*sc.algorithm, "filter:levels=5");
        assert_eq!(&*sc.scheduler, "burst:wave=2,gap=32");
        assert_eq!(&*sc.name, "filter:levels=5/burst:wave=2,gap=32/n4x1");
        assert_eq!(sc.automaton().registers(), 9);

        let err = Scenario::builder("filter:levels=1", 4).build().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Spec(SpecError::InvalidParam { .. })
        ));
    }

    #[test]
    fn sched_spec_constructors_roundtrip_through_parse() {
        for (spec, spelling) in [
            (SchedSpec::sequential(), "sequential"),
            (SchedSpec::round_robin(), "round-robin"),
            (SchedSpec::random(), "random"),
            (SchedSpec::greedy(), "greedy-adversary"),
            (SchedSpec::burst(2, 16), "burst:wave=2,gap=16"),
            (SchedSpec::stagger(5), "stagger:stride=5"),
        ] {
            assert_eq!(spec.label(), spelling);
            assert_eq!(SchedSpec::parse(spelling).unwrap(), spec);
            assert_eq!(spec.to_string(), spelling);
        }
    }

    #[test]
    fn sequential_build_honors_the_passage_target() {
        use exclusion_shmem::dynamic::DynRef;
        use exclusion_shmem::sched::run_scheduler;
        let sc = Scenario::builder("peterson", 3)
            .passages(2)
            .sched(SchedSpec::sequential())
            .build()
            .unwrap();
        let mut sched = sc.build_scheduler(0);
        let exec = run_scheduler(
            &DynRef(sc.automaton().as_ref()),
            sched.as_mut(),
            2,
            1_000_000,
        )
        .unwrap();
        assert_eq!(exec.critical_order().len(), 6, "3 processes x 2 passages");
    }

    #[test]
    fn stagger_arrival_order_depends_on_seed() {
        use exclusion_shmem::dynamic::DynRef;
        use exclusion_shmem::sched::run_scheduler;
        let sc = Scenario::builder("peterson", 6)
            .sched(SchedSpec::stagger(10))
            .seeds([1, 2])
            .build()
            .unwrap();
        assert!(sc.seeded());
        assert_eq!(sc.effective_seeds().len(), 2);
        let alg = DynRef(sc.automaton().as_ref());
        let ea = run_scheduler(&alg, sc.build_scheduler(1).as_mut(), 1, 10_000_000).unwrap();
        let eb = run_scheduler(&alg, sc.build_scheduler(2).as_mut(), 1, 10_000_000).unwrap();
        assert!(ea.mutual_exclusion(6));
        assert!(eb.mutual_exclusion(6));
    }
}
