//! The open algorithm registry: named constructor entries with
//! metadata, resolving specs like `"filter:levels=5"` into erased
//! [`DynAutomaton`] handles.
//!
//! A registry is a plain runtime value: downstream crates
//! [`register`](Registry::register) entries for their own
//! [`Automaton`](exclusion_shmem::Automaton)s and every consumer
//! (scenario builder, sweep runner, CLI listing, experiments, tests)
//! picks them up through the same
//! [`resolve`](AlgorithmRegistry::resolve) call, no enum or match arm
//! in sight. Consumers that iterate over a family select it by metadata
//! ([`AlgorithmRegistry::resolve_where`]), so the paper's locks are
//! [`AlgorithmInfo::paper_lock`] and a new entry joins every grid its
//! metadata places it in.
//!
//! The table itself — registration, lookup by name or alias, and the
//! unknown-name error with its suggestion — is the [`Registry`] that
//! the scheduler and arrival-model registries hold too. This module
//! adds the metadata, the `min_n` floor, the process cap and label
//! canonicalization.
//!
//! Resolution is also what the sweep hot loop uses, so it is cheap by
//! construction: one hash lookup plus one constructor call.
//!
//! # Example: registering a custom lock
//!
//! ```
//! use exclusion_mutex::registry::{AlgorithmEntry, AlgorithmInfo, AlgorithmRegistry};
//! use exclusion_shmem::spec::Spec;
//! use exclusion_shmem::testing::Alternator;
//! use std::sync::Arc;
//!
//! let mut reg = AlgorithmRegistry::standard();
//! reg.register(AlgorithmEntry::new(
//!     AlgorithmInfo {
//!         name: "token-ring".into(),
//!         aliases: vec![],
//!         summary: "single-register token ring".into(),
//!         min_n: 1,
//!         uses_rmw: false,
//!         recoverable: false,
//!         symmetric: false,
//!         deadlock_free: true,
//!         cost_class: "Θ(n) handoff".into(),
//!         params: vec![],
//!     },
//!     |spec, n| {
//!         spec.expect_params(&[], false)?;
//!         Ok(Arc::new(Alternator::new(n)))
//!     },
//! ));
//! let resolved = reg.resolve(&Spec::parse("token-ring").unwrap(), 3).unwrap();
//! assert_eq!(resolved.automaton.name(), "alternator");
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use exclusion_shmem::dynamic::{DynAutomaton, Packed};
use exclusion_shmem::spec::{Entry, Named, ParamInfo, Registry, Spec, SpecError};

use crate::queue::{Clh, Mcs, Ticket};
use crate::rmw::{TasSim, TtasSim};
use crate::{
    Bakery, BrokenRecover, BurnsLynch, DekkerTournament, Dijkstra, Filter, Peterson, RPeterson,
    RTas, Splitter,
};

/// A shared, thread-safe erased algorithm handle — what the registry
/// hands out and what scenarios hold for the lifetime of a sweep.
pub type DynAlgorithm = Arc<dyn DynAutomaton + Send + Sync>;

/// Metadata describing one registry entry, independent of any process
/// count. This is what `workload --list` prints and what the scenario
/// builder validates against (`min_n`) *before* anything is constructed.
#[derive(Clone, Debug)]
pub struct AlgorithmInfo {
    /// The canonical spec name (`"dekker-tree"`, `"filter"`, …).
    pub name: String,
    /// Accepted alternative spellings (`"ttas"` for `"ttas-sim"`).
    /// Labels always use the canonical name.
    pub aliases: Vec<String>,
    /// One-line description.
    pub summary: String,
    /// Smallest process count the constructor accepts.
    pub min_n: usize,
    /// Whether the algorithm uses read-modify-write primitives (and is
    /// therefore outside the paper's register-only model — the
    /// lower-bound construction rejects it).
    pub uses_rmw: bool,
    /// Whether the algorithm *claims* to tolerate crash-recovery faults
    /// (a recovery section repairs shared memory after a crash wipes
    /// volatile state). A claim, not a certificate: the `explore`
    /// crate's crash-aware certification is what validates it — and
    /// what catches the planted `broken-recover` lock lying here.
    pub recoverable: bool,
    /// Whether the automaton declares full process-permutation symmetry
    /// (see [`exclusion_shmem::Automaton::symmetric`]): relabelling
    /// processes is a transition-graph automorphism, so explorers may
    /// soundly quotient the state space by the orbit relation. Entries
    /// that leave this `false` — id-ordered scanners, fixed
    /// tournaments, pid-indexed queue locks — get identity-only
    /// canonicalization and their verdicts are unaffected. Mirrors the
    /// automaton's own flag; a registry test pins the two together.
    pub symmetric: bool,
    /// Whether the lock guarantees progress: from every reachable
    /// state some schedule completes the bounded passage target, so
    /// exhaustive exploration is expected to certify deadlock-freedom.
    /// The splitter locks deliberately leave this `false` — a splitter
    /// admits at most one process and can send *every* contender down
    /// the losing branch, a livelock the explorer must find and report
    /// (conformance pins that the hazard is present, not absent).
    pub deadlock_free: bool,
    /// Asymptotic canonical SC cost, as a display string (`"Θ(n log n)"`).
    pub cost_class: String,
    /// Parameters the entry accepts in `name:key=value,…` specs.
    pub params: Vec<ParamInfo>,
}

impl AlgorithmInfo {
    /// Whether the entry is one of the locks the paper's Ω(n log n)
    /// theorem is about: register-only, deadlock-free and not
    /// crash-recoverable. In the standard registry these are
    /// dekker-tree, peterson, bakery, filter, dijkstra and burns-lynch.
    #[must_use]
    pub fn paper_lock(&self) -> bool {
        !self.uses_rmw && self.deadlock_free && !self.recoverable
    }
}

impl Named for AlgorithmInfo {
    const KIND: &'static str = "algorithm";
    fn name(&self) -> &str {
        &self.name
    }
    fn aliases(&self) -> &[String] {
        &self.aliases
    }
}

/// One named constructor in an [`AlgorithmRegistry`]. Its resolver
/// receives the parsed spec and the process count `n`, already checked
/// against [`AlgorithmInfo::min_n`] and the process cap.
pub type AlgorithmEntry = Entry<AlgorithmInfo, DynAlgorithm>;

/// A successfully resolved algorithm spec: the erased automaton plus
/// the metadata reports need. Resolution happens once per scenario; the
/// handle is shared (it is an [`Arc`]) across every seed and worker
/// thread of the sweep.
#[derive(Clone)]
pub struct ResolvedAlgorithm {
    /// Canonical spec label (`"filter:levels=5"`), used in reports.
    pub label: String,
    /// Whether the algorithm uses RMW primitives.
    pub uses_rmw: bool,
    /// Whether the algorithm claims crash-recoverability
    /// (see [`AlgorithmInfo::recoverable`]).
    pub recoverable: bool,
    /// Whether the lock is expected to certify deadlock-freedom
    /// (see [`AlgorithmInfo::deadlock_free`]).
    pub deadlock_free: bool,
    /// The erased automaton, configured for the resolved `n`.
    pub automaton: DynAlgorithm,
}

impl std::fmt::Debug for ResolvedAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedAlgorithm")
            .field("label", &self.label)
            .field("uses_rmw", &self.uses_rmw)
            .finish_non_exhaustive()
    }
}

/// An open, runtime-extensible family of mutual exclusion algorithms.
///
/// [`standard`](AlgorithmRegistry::standard) carries the whole built-in
/// suite (register-only and RMW); [`register`](Registry::register)
/// adds — or overrides — entries. The long-lived default instance is
/// [`global`](AlgorithmRegistry::global). The table itself (and its
/// `register`, `get`, `entries` and `names`) is the shared [`Registry`],
/// reached through `Deref`.
#[derive(Clone, Debug, Default)]
pub struct AlgorithmRegistry {
    table: Registry<AlgorithmInfo, DynAlgorithm>,
}

impl Deref for AlgorithmRegistry {
    type Target = Registry<AlgorithmInfo, DynAlgorithm>;
    fn deref(&self) -> &Self::Target {
        &self.table
    }
}

impl DerefMut for AlgorithmRegistry {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.table
    }
}

impl AlgorithmRegistry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        AlgorithmRegistry::default()
    }

    /// The built-in suite, in report order: the six register-only
    /// algorithms of the paper's model plus the two symmetric splitter
    /// locks, the RMW-based locks (the simulated TAS and TTAS locks of
    /// [`crate::rmw`], then `mcs-sim`, `mcs`, `clh` and `ticket` of
    /// [`crate::queue`]), and the three crash-recoverable locks of
    /// [`crate::recover`] — including the deliberately planted
    /// `broken-recover`.
    ///
    /// Every entry but `rtas` and `broken-recover` registers through
    /// [`Packed`], so its process states are inline words (one word for
    /// dekker-tree, peterson, burns-lynch, rpeterson and the splitter
    /// locks, two for the rest) rather than boxes.
    #[must_use]
    pub fn standard() -> Self {
        fn plain<A>(
            name: &str,
            summary: &str,
            cost_class: &str,
            uses_rmw: bool,
            ctor: fn(usize) -> A,
        ) -> AlgorithmEntry
        where
            A: DynAutomaton + Send + Sync + 'static,
        {
            plain_with(name, summary, cost_class, uses_rmw, false, true, ctor)
        }

        fn plain_with<A>(
            name: &str,
            summary: &str,
            cost_class: &str,
            uses_rmw: bool,
            symmetric: bool,
            deadlock_free: bool,
            ctor: fn(usize) -> A,
        ) -> AlgorithmEntry
        where
            A: DynAutomaton + Send + Sync + 'static,
        {
            AlgorithmEntry::new(
                AlgorithmInfo {
                    name: name.into(),
                    aliases: vec![],
                    summary: summary.into(),
                    min_n: 1,
                    uses_rmw,
                    recoverable: false,
                    symmetric,
                    deadlock_free,
                    cost_class: cost_class.into(),
                    params: vec![],
                },
                move |spec, n| {
                    spec.expect_params(&[], false)?;
                    Ok(Arc::new(ctor(n)))
                },
            )
        }

        fn recoverable<A>(
            name: &str,
            summary: &str,
            cost_class: &str,
            uses_rmw: bool,
            ctor: fn(usize) -> A,
        ) -> AlgorithmEntry
        where
            A: DynAutomaton + Send + Sync + 'static,
        {
            AlgorithmEntry::new(
                AlgorithmInfo {
                    name: name.into(),
                    aliases: vec![],
                    summary: summary.into(),
                    min_n: 1,
                    uses_rmw,
                    recoverable: true,
                    symmetric: false,
                    deadlock_free: true,
                    cost_class: cost_class.into(),
                    params: vec![],
                },
                move |spec, n| {
                    spec.expect_params(&[], false)?;
                    Ok(Arc::new(ctor(n)))
                },
            )
        }

        let mut reg = AlgorithmRegistry::empty();
        reg.register(plain(
            "dekker-tree",
            "local-spin tournament; the tight upper bound",
            "Θ(n log n)",
            false,
            |n| Packed(DekkerTournament::new(n)),
        ));
        reg.register(plain(
            "peterson",
            "Peterson tournament; remote spins under contention",
            "Θ(n log n)",
            false,
            |n| Packed(Peterson::new(n)),
        ));
        reg.register(plain(
            "bakery",
            "Lamport's first-come-first-served lock",
            "Θ(n²)",
            false,
            |n| Packed(Bakery::new(n)),
        ));
        reg.register(AlgorithmEntry::new(
            AlgorithmInfo {
                name: "filter".into(),
                aliases: vec![],
                summary: "level-based generalization of Peterson".into(),
                min_n: 1,
                uses_rmw: false,
                recoverable: false,
                symmetric: false,
                deadlock_free: true,
                cost_class: "Θ(n³)".into(),
                params: vec![ParamInfo {
                    key: "levels",
                    help: "filter levels to climb, ≥ n-1 (default n-1)",
                }],
            },
            |spec, n| {
                spec.expect_params(&["levels"], false)?;
                let levels = spec.usize_param("levels", n.saturating_sub(1))?;
                let refuse = |expected: String| {
                    Err(SpecError::InvalidParam {
                        spec: spec.label(),
                        key: "levels".into(),
                        value: levels.to_string(),
                        expected,
                    })
                };
                if levels.saturating_add(1) < n {
                    return refuse(format!("at least n-1 = {} levels", n - 1));
                }
                // A lock for more processes than the registry admits;
                // its register count, n + levels, could overflow.
                if levels >= AlgorithmRegistry::MAX_PROCESSES {
                    return refuse(format!(
                        "fewer than {} levels",
                        AlgorithmRegistry::MAX_PROCESSES
                    ));
                }
                Ok(Arc::new(Packed(Filter::with_levels(n, levels))))
            },
        ));
        reg.register(plain(
            "dijkstra",
            "the original 1965 algorithm",
            "Θ(n²)",
            false,
            |n| Packed(Dijkstra::new(n)),
        ));
        reg.register(plain(
            "burns-lynch",
            "one shared bit per process (space-optimal)",
            "Θ(n²)",
            false,
            |n| Packed(BurnsLynch::new(n)),
        ));
        reg.register(plain_with(
            "splitter",
            "symmetric two-register splitter lock, busy gate polling",
            "unbounded",
            false,
            true,
            false,
            |n| Packed(Splitter::new(n)),
        ));
        reg.register(plain_with(
            "splitter-gate",
            "symmetric two-register splitter lock, polite gate spin",
            "unbounded",
            false,
            true,
            false,
            |n| Packed(Splitter::gated(n)),
        ));
        reg.register(plain_with(
            "tas-sim",
            "test-and-set spin lock (simulated)",
            "rmw",
            true,
            true,
            true,
            |n| Packed(TasSim::new(n)),
        ));
        reg.register(AlgorithmEntry::new(
            AlgorithmInfo {
                name: "ttas-sim".into(),
                aliases: vec!["ttas".into()],
                summary: "test-and-test-and-set spin lock (simulated)".into(),
                min_n: 1,
                uses_rmw: true,
                recoverable: false,
                symmetric: true,
                deadlock_free: true,
                cost_class: "rmw".into(),
                params: vec![ParamInfo {
                    key: "backoff",
                    help: "polling reads after a lost swap (default 0)",
                }],
            },
            |spec, n| {
                spec.expect_params(&["backoff"], false)?;
                let backoff = spec.usize_param("backoff", 0)?;
                Ok(Arc::new(Packed(TtasSim::with_backoff(n, backoff))))
            },
        ));
        reg.register(plain(
            "mcs-sim",
            "MCS queue lock (simulated)",
            "rmw",
            true,
            |n| Packed(Mcs::with_remote_links(n)),
        ));
        reg.register(plain_with(
            "mcs",
            "composable MCS: linked tail + own-flag spin + successor handoff",
            "O(1) RMR",
            true,
            false,
            true,
            |n| Packed(Mcs::new(n)),
        ));
        reg.register(plain(
            "clh",
            "composable CLH: swap tail + predecessor-flag spin + release cell",
            "O(1) RMR-CC",
            true,
            |n| Packed(Clh::new(n)),
        ));
        reg.register(plain_with(
            "ticket",
            "composable ticket: counter draw + serving match + counter bump",
            "Θ(n) RMR-CC",
            true,
            true,
            true,
            |n| Packed(Ticket::new(n)),
        ));
        reg.register(recoverable(
            "rpeterson",
            "recoverable Peterson tournament (healing recovery pass)",
            "Θ(n log n)",
            false,
            |n| Packed(RPeterson::new(n)),
        ));
        reg.register(recoverable(
            "rtas",
            "recoverable CAS lock with owner record",
            "rmw",
            true,
            RTas::new,
        ));
        reg.register(recoverable(
            "broken-recover",
            "planted bug: recovery frees the lock unconditionally",
            "rmw",
            true,
            BrokenRecover::new,
        ));
        reg
    }

    /// The process-wide default registry (the standard suite), built
    /// once on first use. Callers who want extra entries clone
    /// [`standard`](AlgorithmRegistry::standard) and register onto it.
    #[must_use]
    pub fn global() -> &'static AlgorithmRegistry {
        static GLOBAL: OnceLock<AlgorithmRegistry> = OnceLock::new();
        GLOBAL.get_or_init(AlgorithmRegistry::standard)
    }

    /// The largest process count any entry resolves at. Every engine
    /// sizes its tables by `n` (register banks, cost matrices, one OS
    /// thread per process in the hardware leg), so a runaway `--n`
    /// must stop here, before anything is built; the cap sits well
    /// above the sizes in use (the paper's E1/E2 tables reach
    /// `n = 256`).
    pub const MAX_PROCESSES: usize = 1024;

    /// Resolves a parsed spec at process count `n`: checks the name,
    /// the `min_n` floor, the [`MAX_PROCESSES`](Self::MAX_PROCESSES)
    /// cap and the parameters, then runs the entry's constructor. This
    /// is a single hash lookup plus one construction — nothing else is
    /// instantiated.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownName`] (listing the registry contents and the
    /// nearest valid name or alias), [`SpecError::TooFewProcesses`],
    /// [`SpecError::TooManyProcesses`], or whatever parameter
    /// validation error the entry reports.
    pub fn resolve(&self, spec: &Spec, n: usize) -> Result<ResolvedAlgorithm, SpecError> {
        let entry = self.lookup(&spec.name)?;
        let info = entry.info();
        if n < info.min_n {
            return Err(SpecError::TooFewProcesses {
                name: info.name.clone(),
                n,
                min_n: info.min_n,
            });
        }
        if n > Self::MAX_PROCESSES {
            return Err(SpecError::TooManyProcesses {
                name: info.name.clone(),
                n,
                max_n: Self::MAX_PROCESSES,
            });
        }
        let automaton = entry.resolve(spec, n)?;
        // Canonicalize: an aliased spelling ("ttas:backoff=4") labels
        // under the canonical name ("ttas-sim:backoff=4").
        let canonical = Spec {
            name: info.name.clone(),
            params: spec.params.clone(),
        };
        Ok(ResolvedAlgorithm {
            label: canonical.label(),
            uses_rmw: info.uses_rmw,
            recoverable: info.recoverable,
            deadlock_free: info.deadlock_free,
            automaton,
        })
    }

    /// Resolves, by its bare name at `n` processes, every entry whose
    /// metadata passes `keep`, in registration order. Entries that do
    /// not resolve bare at `n` (below their `min_n` floor, or requiring
    /// a parameter) are left out.
    ///
    /// # Example
    ///
    /// ```
    /// use exclusion_mutex::registry::{AlgorithmInfo, AlgorithmRegistry};
    ///
    /// let paper = AlgorithmRegistry::global().resolve_where(4, AlgorithmInfo::paper_lock);
    /// let labels: Vec<_> = paper.iter().map(|r| r.label.as_str()).collect();
    /// assert_eq!(
    ///     labels,
    ///     ["dekker-tree", "peterson", "bakery", "filter", "dijkstra", "burns-lynch"]
    /// );
    /// ```
    #[must_use]
    pub fn resolve_where(
        &self,
        n: usize,
        keep: impl Fn(&AlgorithmInfo) -> bool,
    ) -> Vec<ResolvedAlgorithm> {
        self.entries()
            .filter(|e| keep(e.info()))
            .filter_map(|e| self.resolve_str(&e.info().name, n).ok())
            .collect()
    }

    /// Parses and resolves a spec string in one call.
    ///
    /// # Errors
    ///
    /// As [`Spec::parse`] and [`AlgorithmRegistry::resolve`].
    pub fn resolve_str(&self, s: &str, n: usize) -> Result<ResolvedAlgorithm, SpecError> {
        self.resolve(&Spec::parse(s)?, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::dynamic::DynRef;
    use exclusion_shmem::sched::{run_round_robin, run_sequential};
    use exclusion_shmem::ProcessId;

    #[test]
    fn standard_registry_matches_the_suite_order() {
        let reg = AlgorithmRegistry::standard();
        assert_eq!(
            reg.names(),
            [
                "dekker-tree",
                "peterson",
                "bakery",
                "filter",
                "dijkstra",
                "burns-lynch",
                "splitter",
                "splitter-gate",
                "tas-sim",
                "ttas-sim",
                "mcs-sim",
                "mcs",
                "clh",
                "ticket",
                "rpeterson",
                "rtas",
                "broken-recover"
            ]
        );
        assert_eq!(reg.entries().filter(|e| e.info().uses_rmw).count(), 8);
        assert_eq!(reg.entries().filter(|e| e.info().recoverable).count(), 3);
        assert_eq!(reg.entries().filter(|e| e.info().symmetric).count(), 5);
    }

    #[test]
    fn paper_locks_complete_canonical_runs() {
        let paper = AlgorithmRegistry::global().resolve_where(5, AlgorithmInfo::paper_lock);
        assert_eq!(paper.len(), 6);
        let order: Vec<_> = ProcessId::all(5).collect();
        for r in &paper {
            let alg = DynRef(r.automaton.as_ref());
            let exec = run_sequential(&alg, &order, 100_000)
                .unwrap_or_else(|e| panic!("{}: {e}", r.label));
            assert!(exec.is_canonical(5), "{}", r.label);
            assert_eq!(exec.critical_order(), order, "{}", r.label);
        }
    }

    #[test]
    fn symmetric_flags_match_the_automata() {
        // The metadata flag must mirror what the constructed automaton
        // actually declares — explorers trust `dyn_symmetric()`, and a
        // mismatch would make listings lie about reducibility.
        let reg = AlgorithmRegistry::global();
        for entry in reg.entries() {
            let n = entry.info().min_n.max(3);
            let r = reg
                .resolve_str(&entry.info().name, n)
                .expect("standard entries resolve");
            assert_eq!(
                r.automaton.dyn_symmetric(),
                entry.info().symmetric,
                "{}: registry flag disagrees with the automaton",
                entry.info().name
            );
        }
    }

    #[test]
    fn every_entry_resolves_and_completes_a_run() {
        let reg = AlgorithmRegistry::global();
        for name in reg.names() {
            let r = reg.resolve_str(&name, 3).expect("standard entries resolve");
            assert_eq!(r.label, name);
            let exec = run_round_robin(&DynRef(r.automaton.as_ref()), 1, 1_000_000)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(exec.mutual_exclusion(3), "{name}");
        }
    }

    #[test]
    fn parameterized_specs_resolve_and_validate() {
        let reg = AlgorithmRegistry::global();
        let fat = reg.resolve_str("filter:levels=6", 3).unwrap();
        assert_eq!(fat.label, "filter:levels=6");
        // 3 level registers + 6 victim registers.
        assert_eq!(fat.automaton.registers(), 9);

        let err = reg.resolve_str("filter:levels=1", 4).unwrap_err();
        assert!(err.to_string().contains("at least n-1 = 3"), "{err}");
        let err = reg.resolve_str("filter:depth=3", 4).unwrap_err();
        assert!(matches!(err, SpecError::UnknownParam { .. }), "{err}");
        let err = reg.resolve_str("dekker-tree:levels=3", 4).unwrap_err();
        assert!(matches!(err, SpecError::UnknownParam { .. }), "{err}");

        let backoff = reg.resolve_str("ttas-sim:backoff=4", 3).unwrap();
        let exec = run_round_robin(&DynRef(backoff.automaton.as_ref()), 2, 1_000_000).unwrap();
        assert!(exec.mutual_exclusion(3));
    }

    #[test]
    fn unknown_names_list_the_registry_and_suggest() {
        let err = AlgorithmRegistry::global()
            .resolve_str("petersen", 4)
            .unwrap_err();
        let SpecError::UnknownName {
            known, suggestion, ..
        } = &err
        else {
            panic!("{err}")
        };
        assert_eq!(known.len(), 17);
        assert_eq!(suggestion.as_deref(), Some("peterson"));
        // Aliases are candidates too: `ttass` is one edit from `ttas`.
        let err = AlgorithmRegistry::global()
            .resolve_str("ttass", 4)
            .unwrap_err();
        let SpecError::UnknownName { suggestion, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(suggestion.as_deref(), Some("ttas"));
    }

    #[test]
    fn aliases_resolve_to_canonical_labels() {
        let reg = AlgorithmRegistry::global();
        // The ISSUE's spelling: `ttas:backoff=4`.
        let r = reg.resolve_str("ttas:backoff=4", 3).unwrap();
        assert_eq!(r.label, "ttas-sim:backoff=4", "labels canonicalize");
        assert_eq!(reg.resolve_str("ttas", 3).unwrap().label, "ttas-sim");
    }

    #[test]
    fn min_n_floors_are_enforced_at_resolution() {
        let mut reg = AlgorithmRegistry::standard();
        reg.register(AlgorithmEntry::new(
            AlgorithmInfo {
                name: "pairs-only".into(),
                aliases: vec![],
                summary: "needs an even playing field".into(),
                min_n: 2,
                uses_rmw: false,
                recoverable: false,
                symmetric: false,
                deadlock_free: true,
                cost_class: "test".into(),
                params: vec![],
            },
            |_, n| Ok(Arc::new(Peterson::new(n))),
        ));
        assert!(reg.resolve_str("pairs-only", 2).is_ok());
        let err = reg.resolve_str("pairs-only", 1).unwrap_err();
        assert!(
            matches!(err, SpecError::TooFewProcesses { min_n: 2, n: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn process_counts_past_the_cap_are_refused_before_construction() {
        let mut reg = AlgorithmRegistry::standard();
        reg.register(AlgorithmEntry::new(
            AlgorithmInfo {
                name: "never-built".into(),
                aliases: vec![],
                summary: "panics if constructed".into(),
                min_n: 1,
                uses_rmw: false,
                recoverable: false,
                symmetric: false,
                deadlock_free: true,
                cost_class: "test".into(),
                params: vec![],
            },
            |_, n| panic!("constructed at n = {n}"),
        ));
        let cap = AlgorithmRegistry::MAX_PROCESSES;
        for n in [cap + 1, 1 << 32, usize::MAX] {
            let err = reg.resolve_str("never-built", n).unwrap_err();
            assert!(
                matches!(err, SpecError::TooManyProcesses { max_n, .. } if max_n == cap),
                "{err}"
            );
            assert!(err.to_string().contains("at most 1024 processes"), "{err}");
        }
        assert!(reg.resolve_str("peterson", cap).is_ok());
    }
}
