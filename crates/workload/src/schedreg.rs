//! The open scheduler registry: named entries resolving specs like
//! `"burst:wave=2,gap=32"` into live [`Scheduler`] builders.
//!
//! The counterpart of `exclusion-mutex`'s algorithm registry for the
//! *adversary* side of a scenario. Where `SchedSpec` used to be a
//! hardcoded enum (new contention pattern ⇒ edit the enum, its parser,
//! the CLI and the tests), the registry is a runtime value: downstream
//! crates [`register`](SchedulerRegistry::register) entries for their own
//! [`Scheduler`] implementations and every consumer resolves against the
//! same table.
//!
//! Resolution is staged to keep the sweep hot loop clean: a spec is
//! resolved **once per scenario** (name lookup, parameter validation,
//! defaults scaled to `n`), producing a [`ResolvedSched`] whose
//! [`build`](ResolvedSched::build) is then called once per run with just
//! `(passages, seed)` — no parsing, no lookup, no validation per seed.
//!
//! # Example: registering a custom scheduler
//!
//! ```
//! use exclusion_workload::schedreg::{
//!     ResolvedSched, SchedulerEntry, SchedulerInfo, SchedulerRegistry,
//! };
//! use exclusion_shmem::sched::RoundRobin;
//! use exclusion_shmem::spec::Spec;
//! use std::sync::Arc;
//!
//! let mut reg = SchedulerRegistry::standard();
//! reg.register(SchedulerEntry::new(
//!     SchedulerInfo {
//!         name: "my-rr".into(),
//!         aliases: vec![],
//!         summary: "round robin under a different name".into(),
//!         seeded: false,
//!         params: vec![],
//!     },
//!     |spec, _n| {
//!         spec.expect_params(&[], false)?;
//!         Ok((spec.clone(), Arc::new(|_passages, _seed| Box::new(RoundRobin::new()) as _)))
//!     },
//! ));
//! let r = reg.resolve(&Spec::parse("my-rr").unwrap(), 4).unwrap();
//! assert_eq!(r.build(1, 0).name(), "round-robin");
//! ```

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use exclusion_bound::AdaptiveAdversary;
use exclusion_shmem::sched::{Burst, GreedyAdversary, Random, RoundRobin, Sequential, Stagger};
use exclusion_shmem::spec::{suggest, ParamInfo, Spec, SpecError};
use exclusion_shmem::{ProcessId, Scheduler};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A per-run scheduler constructor: called with `(passages, seed)` for
/// every run of a scenario. Everything else (process count, resolved
/// parameters) is already baked in by resolution.
pub type SchedBuilder = Arc<dyn Fn(usize, u64) -> Box<dyn Scheduler> + Send + Sync>;

/// Metadata describing one scheduler entry — what `workload --list`
/// prints.
#[derive(Clone, Debug)]
pub struct SchedulerInfo {
    /// The canonical spec name (`"greedy-adversary"`).
    pub name: String,
    /// Accepted alternative spellings (`"greedy"`, `"adversary"`).
    pub aliases: Vec<String>,
    /// One-line description.
    pub summary: String,
    /// Whether runs depend on the seed (and a seed grid is therefore
    /// worth sweeping).
    pub seeded: bool,
    /// Parameters the entry accepts in `name:key=value,…` specs.
    pub params: Vec<ParamInfo>,
}

/// What an entry's resolver returns: the *canonical* spec (aliases
/// normalized, defaults made explicit — this becomes the report label)
/// plus the per-run builder.
pub type ResolvedParts = (Spec, SchedBuilder);

type Resolver = dyn Fn(&Spec, usize) -> Result<ResolvedParts, SpecError> + Send + Sync;

/// One named scheduling policy in a [`SchedulerRegistry`].
#[derive(Clone)]
pub struct SchedulerEntry {
    info: SchedulerInfo,
    resolver: Arc<Resolver>,
}

impl SchedulerEntry {
    /// An entry resolving specs with `resolver`, which receives the
    /// parsed spec and the process count `n` (so defaults can scale
    /// with it) and returns the canonical spec plus the per-run
    /// builder.
    pub fn new(
        info: SchedulerInfo,
        resolver: impl Fn(&Spec, usize) -> Result<ResolvedParts, SpecError> + Send + Sync + 'static,
    ) -> Self {
        SchedulerEntry {
            info,
            resolver: Arc::new(resolver),
        }
    }

    /// The entry's metadata.
    #[must_use]
    pub fn info(&self) -> &SchedulerInfo {
        &self.info
    }
}

impl std::fmt::Debug for SchedulerEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerEntry")
            .field("info", &self.info)
            .finish_non_exhaustive()
    }
}

/// A successfully resolved scheduler spec, bound to a process count:
/// build one live scheduler per run with [`build`](ResolvedSched::build).
#[derive(Clone)]
pub struct ResolvedSched {
    /// Canonical label with concrete parameters
    /// (`"burst:wave=4,gap=16"`), used in reports; parseable back into
    /// an equivalent spec.
    pub label: String,
    /// Whether runs depend on the seed.
    pub seeded: bool,
    builder: SchedBuilder,
}

impl ResolvedSched {
    /// A live scheduler for one run driving every process to `passages`
    /// passages; `seed` feeds seeded policies and is ignored by
    /// deterministic ones.
    #[must_use]
    pub fn build(&self, passages: usize, seed: u64) -> Box<dyn Scheduler> {
        (self.builder)(passages, seed)
    }
}

impl std::fmt::Debug for ResolvedSched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedSched")
            .field("label", &self.label)
            .field("seeded", &self.seeded)
            .finish_non_exhaustive()
    }
}

/// An open, runtime-extensible family of scheduling policies.
#[derive(Clone, Debug, Default)]
pub struct SchedulerRegistry {
    entries: Vec<SchedulerEntry>,
    /// Canonical names *and* aliases, each mapping to an entry index.
    by_name: HashMap<String, usize>,
}

impl SchedulerRegistry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        SchedulerRegistry::default()
    }

    /// The seven built-in policies: `sequential` (alias `seq`),
    /// `round-robin` (`rr`), `random`, `greedy-adversary` (`greedy`,
    /// `adversary`; accepts `patience=K`), `fanlynch` (`adaptive`,
    /// `fan-lynch`; the adaptive lower-bound adversary of
    /// `exclusion-bound`, accepts `patience=K` and a deterministic
    /// tie-break `seed=S` — the sweep's seed grid is not used), `burst`
    /// (`wave=W,gap=G`, legacy `burst:WxG`; defaults scale with `n`),
    /// and `stagger` (`stride=S`, legacy `stagger:S`; seeded arrival
    /// order).
    #[must_use]
    pub fn standard() -> Self {
        let mut reg = SchedulerRegistry::empty();
        reg.register(SchedulerEntry::new(
            SchedulerInfo {
                name: "sequential".into(),
                aliases: vec!["seq".into()],
                summary: "canonical no-contention schedule in identity order".into(),
                seeded: false,
                params: vec![],
            },
            |spec, n| {
                spec.expect_params(&[], false)?;
                let builder: SchedBuilder = Arc::new(move |passages, _seed| {
                    let mut order = Vec::with_capacity(n * passages);
                    for _ in 0..passages {
                        order.extend(ProcessId::all(n));
                    }
                    Box::new(Sequential::new(order))
                });
                Ok((Spec::new("sequential"), builder))
            },
        ));
        reg.register(SchedulerEntry::new(
            SchedulerInfo {
                name: "round-robin".into(),
                aliases: vec!["rr".into()],
                summary: "deterministic fair interleaving".into(),
                seeded: false,
                params: vec![],
            },
            |spec, _n| {
                spec.expect_params(&[], false)?;
                let builder: SchedBuilder =
                    Arc::new(|_passages, _seed| Box::new(RoundRobin::new()));
                Ok((Spec::new("round-robin"), builder))
            },
        ));
        reg.register(SchedulerEntry::new(
            SchedulerInfo {
                name: "random".into(),
                aliases: vec![],
                summary: "uniform random fair interleaving; one run per seed".into(),
                seeded: true,
                params: vec![],
            },
            |spec, _n| {
                spec.expect_params(&[], false)?;
                let builder: SchedBuilder = Arc::new(|_passages, seed| Box::new(Random::new(seed)));
                Ok((Spec::new("random"), builder))
            },
        ));
        reg.register(SchedulerEntry::new(
            SchedulerInfo {
                name: "greedy-adversary".into(),
                aliases: vec!["greedy".into(), "adversary".into()],
                summary: "cost-maximizing adversary (charged steps first)".into(),
                seeded: false,
                params: vec![ParamInfo {
                    key: "patience",
                    help: "starvation-valve threshold in picks (default 4n+4)",
                }],
            },
            |spec, _n| {
                spec.expect_params(&["patience"], false)?;
                match spec.get("patience") {
                    None => {
                        let builder: SchedBuilder =
                            Arc::new(|_passages, _seed| Box::new(GreedyAdversary::new()));
                        Ok((Spec::new("greedy-adversary"), builder))
                    }
                    Some(_) => {
                        // `patience=0` would hand the adversary an
                        // always-open starvation valve; out of range.
                        let patience = spec.usize_param_at_least("patience", 1, 1)?;
                        let builder: SchedBuilder = Arc::new(move |_passages, _seed| {
                            Box::new(GreedyAdversary::with_patience(patience))
                        });
                        Ok((
                            Spec::new("greedy-adversary").with("patience", patience),
                            builder,
                        ))
                    }
                }
            },
        ));
        reg.register(SchedulerEntry::new(
            SchedulerInfo {
                name: "fanlynch".into(),
                aliases: vec!["adaptive".into(), "fan-lynch".into()],
                summary: "adaptive lower-bound adversary (awareness-partition strategy)".into(),
                seeded: false,
                params: vec![
                    ParamInfo {
                        key: "patience",
                        help: "starvation-valve threshold in picks (default 4n+4)",
                    },
                    ParamInfo {
                        key: "seed",
                        help: "tie-break seed (default 0); the sweep's seed grid is NOT used",
                    },
                ],
            },
            |spec, _n| {
                // `seeded: false` is a contract: the policy must not
                // read the per-run sweep seed (`effective_seeds()` runs
                // it exactly once). Tie-break perturbation is therefore
                // an explicit spec parameter, canonical in the label.
                spec.expect_params(&["patience", "seed"], false)?;
                let seed = spec.usize_param("seed", 0)? as u64;
                let patience = spec
                    .get("patience")
                    .map(|_| spec.usize_param_at_least("patience", 1, 1))
                    .transpose()?;
                let mut canonical = Spec::new("fanlynch");
                if let Some(p) = patience {
                    canonical = canonical.with("patience", p);
                }
                if spec.get("seed").is_some() {
                    canonical = canonical.with("seed", seed);
                }
                let builder: SchedBuilder = Arc::new(move |_passages, _seed| {
                    Box::new(match patience {
                        Some(p) => AdaptiveAdversary::with_patience(seed, p),
                        None => AdaptiveAdversary::new(seed),
                    })
                });
                Ok((canonical, builder))
            },
        ));
        reg.register(SchedulerEntry::new(
            SchedulerInfo {
                name: "burst".into(),
                aliases: vec![],
                summary: "phased arrival in waves".into(),
                seeded: false,
                params: vec![
                    ParamInfo {
                        key: "wave",
                        help: "processes per wave, > 0 (default ⌈n/2⌉)",
                    },
                    ParamInfo {
                        key: "gap",
                        help: "steps between waves (default 2n)",
                    },
                ],
            },
            |spec, n| {
                // Legacy positional spelling: `burst:WxG`.
                let (wave, gap) = if let Some(p) = positional(spec)? {
                    let bad = || SpecError::InvalidParam {
                        spec: spec.label(),
                        key: String::new(),
                        value: p.to_string(),
                        expected: "WxG (e.g. `burst:2x32`) or wave=W,gap=G".to_string(),
                    };
                    let (w, g) = p.split_once('x').ok_or_else(bad)?;
                    (w.parse().map_err(|_| bad())?, g.parse().map_err(|_| bad())?)
                } else {
                    spec.expect_params(&["wave", "gap"], false)?;
                    (
                        spec.usize_param("wave", n.div_ceil(2).max(1))?,
                        spec.usize_param("gap", n.saturating_mul(2))?,
                    )
                };
                if wave == 0 {
                    return Err(SpecError::InvalidParam {
                        spec: spec.label(),
                        key: "wave".into(),
                        value: "0".into(),
                        expected: "a positive wave size".into(),
                    });
                }
                // The last wave is enabled at ⌊(n−1)/wave⌋·gap.
                last_arrival_fits(spec, "gap", gap, n.saturating_sub(1) / wave)?;
                let builder: SchedBuilder =
                    Arc::new(move |_passages, _seed| Box::new(Burst::new(wave, gap)));
                Ok((
                    Spec::new("burst").with("wave", wave).with("gap", gap),
                    builder,
                ))
            },
        ));
        reg.register(SchedulerEntry::new(
            SchedulerInfo {
                name: "stagger".into(),
                aliases: vec![],
                summary: "staggered arrival; order drawn from the seed".into(),
                seeded: true,
                params: vec![ParamInfo {
                    key: "stride",
                    help: "steps between consecutive arrivals (default 2n)",
                }],
            },
            |spec, n| {
                // Legacy positional spelling: `stagger:S`.
                let stride = if let Some(p) = positional(spec)? {
                    p.parse().map_err(|_| SpecError::InvalidParam {
                        spec: spec.label(),
                        key: String::new(),
                        value: p.to_string(),
                        expected: "a stride in steps (e.g. `stagger:16`)".to_string(),
                    })?
                } else {
                    spec.expect_params(&["stride"], false)?;
                    spec.usize_param("stride", n.saturating_mul(2))?
                };
                // The last arrival is enabled at (n−1)·stride.
                last_arrival_fits(spec, "stride", stride, n.saturating_sub(1))?;
                let builder: SchedBuilder = Arc::new(move |_passages, seed| {
                    // Arrival *order* is the seeded part: the i-th
                    // arriving process is enabled at i*stride.
                    let mut order: Vec<usize> = (0..n).collect();
                    order.shuffle(&mut StdRng::seed_from_u64(seed));
                    let mut enable = vec![0usize; n];
                    for (rank, &p) in order.iter().enumerate() {
                        enable[p] = rank * stride;
                    }
                    Box::new(Stagger::new(enable))
                });
                Ok((Spec::new("stagger").with("stride", stride), builder))
            },
        ));
        reg
    }

    /// The process-wide default registry (the standard policies), built
    /// once on first use.
    #[must_use]
    pub fn global() -> &'static SchedulerRegistry {
        static GLOBAL: OnceLock<SchedulerRegistry> = OnceLock::new();
        GLOBAL.get_or_init(SchedulerRegistry::standard)
    }

    /// Adds an entry; an existing entry with the same **canonical**
    /// name is replaced (later registration wins). A name that merely
    /// matches another entry's alias becomes a new entry and takes the
    /// spelling over from the alias; aliases never displace other
    /// entries' canonical names.
    pub fn register(&mut self, entry: SchedulerEntry) -> &mut Self {
        let existing = self
            .by_name
            .get(&entry.info.name)
            .copied()
            .filter(|&i| self.entries[i].info.name == entry.info.name);
        let idx = match existing {
            Some(i) => {
                self.entries[i] = entry;
                i
            }
            None => {
                let i = self.entries.len();
                self.entries.push(entry);
                i
            }
        };
        self.by_name
            .insert(self.entries[idx].info.name.clone(), idx);
        for alias in self.entries[idx].info.aliases.clone() {
            let taken = self
                .by_name
                .get(&alias)
                .is_some_and(|&i| self.entries[i].info.name == alias);
            if !taken {
                self.by_name.insert(alias, idx);
            }
        }
        self
    }

    /// The entry for `name` (canonical name or alias).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&SchedulerEntry> {
        self.by_name.get(name).map(|&i| &self.entries[i])
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> impl Iterator<Item = &SchedulerEntry> {
        self.entries.iter()
    }

    /// All canonical entry names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.info.name.clone()).collect()
    }

    /// Resolves a parsed spec at process count `n` (defaults scale with
    /// it): one name lookup, one parameter validation, producing the
    /// per-run builder the sweep calls per seed.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownName`] (listing the registry contents and the
    /// nearest valid name) or the entry's parameter validation error.
    pub fn resolve(&self, spec: &Spec, n: usize) -> Result<ResolvedSched, SpecError> {
        let Some(entry) = self.get(&spec.name) else {
            return Err(SpecError::UnknownName {
                name: spec.name.clone(),
                kind: "scheduler",
                known: self.names(),
                suggestion: suggest(
                    &spec.name,
                    self.entries.iter().flat_map(|e| {
                        std::iter::once(e.info.name.as_str())
                            .chain(e.info.aliases.iter().map(String::as_str))
                    }),
                ),
            });
        };
        let (canonical, builder) = (entry.resolver)(spec, n)?;
        Ok(ResolvedSched {
            label: canonical.label(),
            seeded: entry.info.seeded,
            builder,
        })
    }

    /// Parses and resolves a spec string in one call.
    ///
    /// # Errors
    ///
    /// As [`Spec::parse`] and [`SchedulerRegistry::resolve`].
    pub fn resolve_str(&self, s: &str, n: usize) -> Result<ResolvedSched, SpecError> {
        self.resolve(&Spec::parse(s)?, n)
    }
}

/// The single positional (legacy) parameter of a spec, if that is the
/// spec's entire parameter list; rejects mixtures of positional and
/// named parameters.
fn positional(spec: &Spec) -> Result<Option<&str>, SpecError> {
    match spec.params.as_slice() {
        [(k, v)] if k.is_empty() => Ok(Some(v)),
        params if params.iter().any(|(k, _)| k.is_empty()) => Err(SpecError::Malformed {
            spec: spec.label(),
            why: "mix of positional and named parameters".to_string(),
        }),
        _ => Ok(None),
    }
}

/// Refuses `key = value` when an arrival schedule's last enable time,
/// `factor · value`, does not fit the step clock; the message names the
/// largest value that does.
fn last_arrival_fits(spec: &Spec, key: &str, value: usize, factor: usize) -> Result<(), SpecError> {
    if factor.checked_mul(value).is_some() {
        return Ok(());
    }
    Err(SpecError::InvalidParam {
        spec: spec.label(),
        key: key.to_string(),
        value: value.to_string(),
        expected: format!(
            "at most {} so the last arrival fits the step clock",
            usize::MAX / factor
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_lists_seven_policies() {
        let reg = SchedulerRegistry::standard();
        assert_eq!(
            reg.names(),
            [
                "sequential",
                "round-robin",
                "random",
                "greedy-adversary",
                "fanlynch",
                "burst",
                "stagger"
            ]
        );
        assert!(reg.get("rr").is_some(), "aliases resolve");
        assert!(reg.get("greedy").is_some());
        assert!(reg.get("adaptive").is_some());
        assert!(reg.get("fan-lynch").is_some());
    }

    #[test]
    fn aliases_resolve_to_canonical_labels() {
        let reg = SchedulerRegistry::global();
        for alias in ["greedy", "adversary", "greedy-adversary"] {
            let r = reg.resolve_str(alias, 4).unwrap();
            assert_eq!(r.label, "greedy-adversary");
            assert!(!r.seeded);
        }
        assert_eq!(reg.resolve_str("seq", 4).unwrap().label, "sequential");
    }

    #[test]
    fn defaults_scale_with_n_and_are_explicit_in_labels() {
        let reg = SchedulerRegistry::global();
        let burst = reg.resolve_str("burst", 8).unwrap();
        assert_eq!(burst.label, "burst:wave=4,gap=16");
        assert_eq!(burst.build(1, 0).name(), "burst(w4,g16)");
        let stagger = reg.resolve_str("stagger", 8).unwrap();
        assert_eq!(stagger.label, "stagger:stride=16");
        assert!(stagger.seeded);
    }

    #[test]
    fn legacy_positional_spellings_still_parse() {
        let reg = SchedulerRegistry::global();
        let burst = reg.resolve_str("burst:2x32", 8).unwrap();
        assert_eq!(burst.label, "burst:wave=2,gap=32");
        let stagger = reg.resolve_str("stagger:5", 8).unwrap();
        assert_eq!(stagger.label, "stagger:stride=5");
        assert!(reg.resolve_str("burst:0x4", 8).is_err());
        assert!(reg.resolve_str("burst:wxg", 8).is_err());
        assert!(reg.resolve_str("stagger:fast", 8).is_err());
    }

    #[test]
    fn resolved_labels_reparse_to_themselves() {
        let reg = SchedulerRegistry::global();
        for s in [
            "sequential",
            "rr",
            "random",
            "greedy",
            "adaptive",
            "fanlynch:patience=12",
            "burst:2x32",
            "stagger",
            "burst",
        ] {
            let label = reg.resolve_str(s, 6).unwrap().label;
            let again = reg.resolve_str(&label, 6).unwrap().label;
            assert_eq!(label, again, "{s}");
        }
    }

    #[test]
    fn unknown_schedulers_suggest_and_list() {
        let err = SchedulerRegistry::global()
            .resolve_str("greedyy", 4)
            .unwrap_err();
        let SpecError::UnknownName {
            known, suggestion, ..
        } = &err
        else {
            panic!("{err}")
        };
        assert_eq!(known.len(), 7);
        assert_eq!(suggestion.as_deref(), Some("greedy"));
        let err = SchedulerRegistry::global()
            .resolve_str("burst:wave=2,depth=9", 4)
            .unwrap_err();
        assert!(err.to_string().contains("wave, gap"), "{err}");
    }

    /// The satellite fix this PR ships: multi-word spec parameters get
    /// useful parse errors — a typo'd *key* suggests the nearest
    /// accepted key at its true (value-stripped) distance, and a
    /// typo'd *name* with parameters attached still suggests the
    /// nearest entry.
    #[test]
    fn key_value_typos_in_multi_word_specs_suggest_the_nearest_key() {
        let reg = SchedulerRegistry::global();
        let err = reg.resolve_str("fanlynch:patiense=3", 4).unwrap_err();
        let SpecError::UnknownParam { suggestion, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(suggestion.as_deref(), Some("patience"));
        assert!(
            err.to_string().contains("did you mean `patience`?"),
            "{err}"
        );

        let err = reg.resolve_str("burst:wavee=2,gap=32", 8).unwrap_err();
        let SpecError::UnknownParam { suggestion, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(suggestion.as_deref(), Some("wave"));

        // A misspelled *name* carrying multi-word parameters suggests
        // the entry (aliases included in the candidate pool).
        let err = reg.resolve_str("fanlynk:patience=3", 4).unwrap_err();
        let SpecError::UnknownName { suggestion, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(suggestion.as_deref(), Some("fanlynch"));

        // Hopeless keys list the accepted set without a junk
        // suggestion.
        let err = reg.resolve_str("fanlynch:zzzzzz=1", 4).unwrap_err();
        let SpecError::UnknownParam { suggestion, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(suggestion.as_deref(), None);
        assert!(err.to_string().contains("accepted: patience"), "{err}");
    }

    #[test]
    fn fanlynch_resolves_builds_and_honors_patience() {
        let reg = SchedulerRegistry::global();
        for alias in ["fanlynch", "adaptive", "fan-lynch"] {
            let r = reg.resolve_str(alias, 4).unwrap();
            assert_eq!(r.label, "fanlynch");
            assert!(!r.seeded);
            assert_eq!(r.build(1, 0).name(), "fanlynch");
        }
        let r = reg.resolve_str("fanlynch:patience=9", 4).unwrap();
        assert_eq!(r.label, "fanlynch:patience=9");
        assert_eq!(r.build(1, 7).name(), "fanlynch");
        let r = reg.resolve_str("fanlynch:patience=9,seed=3", 4).unwrap();
        assert_eq!(r.label, "fanlynch:patience=9,seed=3");
    }

    /// Out-of-range parameter *values* fail as loudly as unknown keys:
    /// negative seeds don't wrap, zero patience doesn't disable the
    /// starvation valve, and the error names the expected range.
    #[test]
    fn out_of_range_param_values_are_rejected_with_the_expected_range() {
        let reg = SchedulerRegistry::global();
        let err = reg.resolve_str("fanlynch:seed=-1", 4).unwrap_err();
        let SpecError::InvalidParam { key, expected, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(key, "seed");
        assert!(expected.contains("non-negative integer"), "{err}");

        for spec in ["fanlynch:patience=0", "greedy-adversary:patience=0"] {
            let err = reg.resolve_str(spec, 4).unwrap_err();
            let SpecError::InvalidParam { key, expected, .. } = &err else {
                panic!("{err}")
            };
            assert_eq!(key, "patience", "{spec}");
            assert!(expected.contains(">= 1"), "{spec}: {err}");
        }
        // The bound holds for the long spelling too, and valid values
        // at the boundary pass.
        assert!(reg.resolve_str("fanlynch:patience=1", 4).is_ok());
        assert!(reg.resolve_str("greedy:patience=1", 4).is_ok());
    }

    /// `seeded: false` is a behavioral contract, not just metadata:
    /// the built scheduler must ignore the per-run sweep seed (the
    /// tie-break seed is the explicit `seed=` parameter instead).
    #[test]
    fn fanlynch_ignores_the_sweep_seed() {
        use exclusion_shmem::sched::run_scheduler;
        use exclusion_shmem::testing::Alternator;
        let reg = SchedulerRegistry::global();
        let alg = Alternator::new(3);
        let r = reg.resolve_str("fanlynch", 3).unwrap();
        let a = run_scheduler(&alg, r.build(2, 5).as_mut(), 2, 100_000).unwrap();
        let b = run_scheduler(&alg, r.build(2, 9).as_mut(), 2, 100_000).unwrap();
        assert_eq!(a, b, "sweep seeds must not change the schedule");
        // The spec-level seed is the supported perturbation knob.
        let seeded = reg.resolve_str("fanlynch:seed=3", 3).unwrap();
        assert_eq!(seeded.label, "fanlynch:seed=3");
        let c = run_scheduler(&alg, seeded.build(2, 5).as_mut(), 2, 100_000).unwrap();
        assert_eq!(a.critical_order().len(), c.critical_order().len());
    }

    #[test]
    fn registering_over_an_alias_does_not_clobber_its_owner() {
        let mut reg = SchedulerRegistry::standard();
        // "seq" is an alias of "sequential"; a downstream entry *named*
        // "seq" must become its own entry, not overwrite the builtin.
        reg.register(SchedulerEntry::new(
            SchedulerInfo {
                name: "seq".into(),
                aliases: vec![],
                summary: "impostor".into(),
                seeded: false,
                params: vec![],
            },
            |spec, _n| {
                spec.expect_params(&[], false)?;
                Ok((
                    Spec::new("seq"),
                    Arc::new(|_p, _s| Box::new(RoundRobin::new()) as _),
                ))
            },
        ));
        // The builtin survives under its canonical name…
        assert_eq!(
            reg.resolve_str("sequential", 4).unwrap().label,
            "sequential"
        );
        // …while the spelling "seq" now belongs to the new entry.
        assert_eq!(reg.resolve_str("seq", 4).unwrap().label, "seq");
        assert_eq!(reg.names().len(), 8, "appended, not replaced");
        // And a new entry's alias cannot displace an existing name.
        reg.register(SchedulerEntry::new(
            SchedulerInfo {
                name: "other".into(),
                aliases: vec!["random".into()],
                summary: "alias squatter".into(),
                seeded: false,
                params: vec![],
            },
            |spec, _n| {
                spec.expect_params(&[], false)?;
                Ok((
                    Spec::new("other"),
                    Arc::new(|_p, _s| Box::new(RoundRobin::new()) as _),
                ))
            },
        ));
        assert_eq!(reg.resolve_str("random", 4).unwrap().label, "random");
    }

    #[test]
    fn greedy_patience_parameter_reaches_the_scheduler() {
        let reg = SchedulerRegistry::global();
        let r = reg.resolve_str("greedy:patience=3", 4).unwrap();
        assert_eq!(r.label, "greedy-adversary:patience=3");
        // Just building it suffices here; behavior is pinned in shmem.
        assert_eq!(r.build(1, 0).name(), "greedy-adversary");
    }
}
