//! Composable arrival models and their registry: seeded, replayable
//! generators of request arrival times, resolved through the same
//! `name:key=value,…` [`Spec`] grammar as the algorithm and scheduler
//! registries.
//!
//! The `burst` and `stagger` *schedulers* hardcode an arrival pattern
//! into the adversary's pick function. An [`ArrivalModel`] generalizes
//! that pattern into **data the event loop consumes**: the model emits
//! arrival ticks, the engine decides admission, and any scheduler can
//! drive the admitted passages. The four built-ins:
//!
//! | spec | arrivals |
//! |---|---|
//! | `steady:gap=G` | one request every `G` ticks, deterministic |
//! | `poisson:rate=R` | exponential inter-arrival gaps, mean `1/R` |
//! | `bursty:size=B,gap=G` | `B` simultaneous requests every `G` ticks |
//! | `diurnal:period=P,peak=R,trough=r` | Poisson with a sinusoidal rate |
//!
//! Seeded models (`poisson`, `diurnal`) are replayable: the same seed
//! always yields the same stream, and every stripe of a sharded serve
//! derives its own seed from the stripe index, so reports cannot
//! depend on worker count.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use exclusion_shmem::spec::{Entry, Named, ParamInfo, Registry, Spec, SpecError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A stream of request arrival times, in virtual ticks.
///
/// Implementations are deterministic state machines: the sequence of
/// [`next_arrival`](ArrivalModel::next_arrival) values is a pure
/// function of the construction parameters (and seed). The engine
/// additionally clamps the stream to be non-decreasing, so a model may
/// assume its own output is its only contract.
pub trait ArrivalModel {
    /// A short name for reports.
    fn name(&self) -> String;

    /// The arrival tick of the next request. Must be non-decreasing
    /// across calls.
    fn next_arrival(&mut self) -> u64;
}

/// A per-stream model constructor: called with the stream's seed for
/// every stripe of a serve. Deterministic models ignore the seed.
pub type ArrivalBuilder = Arc<dyn Fn(u64) -> Box<dyn ArrivalModel> + Send + Sync>;

/// Turns one `u64` draw into a uniform in the half-open unit interval's
/// *closed upper tail* `(0, 1]` — never zero, so `-ln(u)` is finite.
fn uniform01(rng: &mut StdRng) -> f64 {
    ((rng.random_u64() >> 11) + 1) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// Deterministic fixed-gap arrivals: request `k` arrives at tick `k·G`.
struct Steady {
    gap: u64,
    tick: u64,
    started: bool,
}

impl ArrivalModel for Steady {
    fn name(&self) -> String {
        format!("steady(g{})", self.gap)
    }

    fn next_arrival(&mut self) -> u64 {
        if self.started {
            self.tick += self.gap;
        }
        self.started = true;
        self.tick
    }
}

/// Poisson arrivals: exponential inter-arrival gaps with mean `1/rate`,
/// accumulated in `f64` time and floored to ticks (so several requests
/// can share a tick at high rates).
struct Poisson {
    rate: f64,
    clock: f64,
    rng: StdRng,
}

impl ArrivalModel for Poisson {
    fn name(&self) -> String {
        format!("poisson(r{})", self.rate)
    }

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn next_arrival(&mut self) -> u64 {
        self.clock += -uniform01(&mut self.rng).ln() / self.rate;
        self.clock as u64
    }
}

/// Bursty arrivals: `size` simultaneous requests, then a `gap`-tick
/// lull — the arrival-model generalization of the `burst` scheduler's
/// wave pattern.
struct Bursty {
    size: u64,
    gap: u64,
    emitted: u64,
    tick: u64,
}

impl ArrivalModel for Bursty {
    fn name(&self) -> String {
        format!("bursty(s{},g{})", self.size, self.gap)
    }

    fn next_arrival(&mut self) -> u64 {
        if self.emitted == self.size {
            self.emitted = 0;
            self.tick += self.gap;
        }
        self.emitted += 1;
        self.tick
    }
}

/// Diurnal arrivals: a nonhomogeneous Poisson stream whose rate swings
/// sinusoidally between `trough` and `peak` over `period` ticks —
/// `rate(t) = trough + (peak − trough)·(1 − cos(2πt/P))/2` — sampled
/// by conditioning each exponential gap on the rate at the current
/// clock (gaps are clamped to one period so a deep trough cannot stall
/// the stream).
struct Diurnal {
    period: f64,
    peak: f64,
    trough: f64,
    clock: f64,
    rng: StdRng,
}

impl ArrivalModel for Diurnal {
    fn name(&self) -> String {
        format!("diurnal(p{},r{})", self.period, self.peak)
    }

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn next_arrival(&mut self) -> u64 {
        let phase = (self.clock / self.period) * std::f64::consts::TAU;
        let rate = self.trough + (self.peak - self.trough) * 0.5 * (1.0 - phase.cos());
        let gap = (-uniform01(&mut self.rng).ln() / rate).min(self.period);
        self.clock += gap;
        self.clock as u64
    }
}

/// Metadata describing one arrival-model entry — what the `arrivals:`
/// section of `workload --list` prints.
#[derive(Clone, Debug)]
pub struct ArrivalInfo {
    /// The canonical spec name (`"poisson"`).
    pub name: String,
    /// Accepted alternative spellings.
    pub aliases: Vec<String>,
    /// One-line description.
    pub summary: String,
    /// Whether streams depend on the seed.
    pub seeded: bool,
    /// Parameters the entry accepts in `name:key=value,…` specs.
    pub params: Vec<ParamInfo>,
}

impl Named for ArrivalInfo {
    const KIND: &'static str = "arrival model";
    fn name(&self) -> &str {
        &self.name
    }
    fn aliases(&self) -> &[String] {
        &self.aliases
    }
}

/// What an entry's resolver returns: the canonical spec (defaults made
/// explicit — this becomes the report label) plus the per-stream
/// builder.
pub type ResolvedParts = (Spec, ArrivalBuilder);

/// One named arrival model in an [`ArrivalRegistry`]. Its resolver
/// receives the parsed spec and the process count `n` (so defaults can
/// scale with it) and returns the canonical spec plus the per-stream
/// builder.
pub type ArrivalEntry = Entry<ArrivalInfo, ResolvedParts>;

/// A successfully resolved arrival spec: build one live stream per
/// stripe with [`build`](ResolvedArrivals::build).
#[derive(Clone)]
pub struct ResolvedArrivals {
    /// Canonical label with concrete parameters
    /// (`"poisson:rate=0.5"`), used in reports; parseable back into an
    /// equivalent spec.
    pub label: String,
    /// Whether streams depend on the seed.
    pub seeded: bool,
    builder: ArrivalBuilder,
}

impl ResolvedArrivals {
    /// A live arrival stream; `seed` feeds seeded models and is
    /// ignored by deterministic ones.
    #[must_use]
    pub fn build(&self, seed: u64) -> Box<dyn ArrivalModel> {
        (self.builder)(seed)
    }
}

impl std::fmt::Debug for ResolvedArrivals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedArrivals")
            .field("label", &self.label)
            .field("seeded", &self.seeded)
            .finish_non_exhaustive()
    }
}

/// An open, runtime-extensible family of arrival models — the third
/// registry next to the algorithm and scheduler ones. All three hold
/// the same [`Registry`] table (its `register`, `get`, `entries` and
/// `names` are reached through `Deref`), so they resolve the same spec
/// grammar with the same error vocabulary: unknown names list the
/// registry and suggest the nearest name or alias.
#[derive(Clone, Debug, Default)]
pub struct ArrivalRegistry {
    table: Registry<ArrivalInfo, ResolvedParts>,
}

impl Deref for ArrivalRegistry {
    type Target = Registry<ArrivalInfo, ResolvedParts>;
    fn deref(&self) -> &Self::Target {
        &self.table
    }
}

impl DerefMut for ArrivalRegistry {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.table
    }
}

/// The largest gap `steady` and `bursty` accept, 2^32 ticks: the clock
/// of any stream of fewer than 2^32 requests then stays below 2^64.
const GAP_MAX: u64 = 1 << 32;

/// `gap` as a tick count, refused past [`GAP_MAX`].
fn capped_gap(spec: &Spec, gap: usize) -> Result<u64, SpecError> {
    let ticks = gap as u64;
    if ticks > GAP_MAX {
        return Err(SpecError::InvalidParam {
            spec: spec.label(),
            key: "gap".into(),
            value: gap.to_string(),
            expected: format!("an integer in [1, {GAP_MAX}]"),
        });
    }
    Ok(ticks)
}

/// Arrival rates must be positive and sane: `[1e-6, 1e6]` requests per
/// tick.
const RATE_MIN: f64 = 0.000_001;
/// Upper end of the accepted rate range.
const RATE_MAX: f64 = 1_000_000.0;

impl ArrivalRegistry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        ArrivalRegistry::default()
    }

    /// The four built-in models: `steady` (alias `fixed`; `gap=G`),
    /// `poisson` (`rate=R`), `bursty` (alias `burst`;
    /// `size=B,gap=G`, defaults scaled to `n` like the burst
    /// scheduler's waves), and `diurnal` (`period=P,peak=R,trough=r`).
    #[must_use]
    pub fn standard() -> Self {
        let mut reg = ArrivalRegistry::empty();
        reg.register(ArrivalEntry::new(
            ArrivalInfo {
                name: "steady".into(),
                aliases: vec!["fixed".into()],
                summary: "one request every G ticks, deterministic".into(),
                seeded: false,
                params: vec![ParamInfo {
                    key: "gap",
                    help: "ticks between requests, in [1, 2^32] (default 4)",
                }],
            },
            |spec, _n| {
                spec.expect_params(&["gap"], false)?;
                let gap = capped_gap(spec, spec.usize_param_at_least("gap", 4, 1)?)?;
                let builder: ArrivalBuilder = Arc::new(move |_seed| {
                    Box::new(Steady {
                        gap,
                        tick: 0,
                        started: false,
                    })
                });
                Ok((Spec::new("steady").with("gap", gap), builder))
            },
        ));
        reg.register(ArrivalEntry::new(
            ArrivalInfo {
                name: "poisson".into(),
                aliases: vec![],
                summary: "memoryless arrivals at R requests per tick".into(),
                seeded: true,
                params: vec![ParamInfo {
                    key: "rate",
                    help: "requests per tick in [0.000001, 1000000] (default 0.25)",
                }],
            },
            |spec, _n| {
                spec.expect_params(&["rate"], false)?;
                let rate = spec.f64_param_in_range("rate", 0.25, RATE_MIN, RATE_MAX)?;
                let builder: ArrivalBuilder = Arc::new(move |seed| {
                    Box::new(Poisson {
                        rate,
                        clock: 0.0,
                        rng: StdRng::seed_from_u64(seed),
                    })
                });
                Ok((Spec::new("poisson").with("rate", rate), builder))
            },
        ));
        reg.register(ArrivalEntry::new(
            ArrivalInfo {
                name: "bursty".into(),
                aliases: vec!["burst".into()],
                summary: "B simultaneous requests every G ticks".into(),
                seeded: false,
                params: vec![
                    ParamInfo {
                        key: "size",
                        help: "requests per burst, >= 1 (default ⌈n/2⌉)",
                    },
                    ParamInfo {
                        key: "gap",
                        help: "ticks between bursts, in [1, 2^32] (default 2n)",
                    },
                ],
            },
            |spec, n| {
                spec.expect_params(&["size", "gap"], false)?;
                let size = spec.usize_param_at_least("size", n.div_ceil(2).max(1), 1)? as u64;
                let gap = capped_gap(spec, spec.usize_param_at_least("gap", (2 * n).max(1), 1)?)?;
                let builder: ArrivalBuilder = Arc::new(move |_seed| {
                    Box::new(Bursty {
                        size,
                        gap,
                        emitted: 0,
                        tick: 0,
                    })
                });
                Ok((
                    Spec::new("bursty").with("size", size).with("gap", gap),
                    builder,
                ))
            },
        ));
        reg.register(ArrivalEntry::new(
            ArrivalInfo {
                name: "diurnal".into(),
                aliases: vec![],
                summary: "Poisson with a sinusoidal rate between trough and peak".into(),
                seeded: true,
                params: vec![
                    ParamInfo {
                        key: "period",
                        help: "ticks per cycle, >= 1 (default 4096)",
                    },
                    ParamInfo {
                        key: "peak",
                        help: "peak requests per tick in [0.000001, 1000000] (default 0.5)",
                    },
                    ParamInfo {
                        key: "trough",
                        help: "trough requests per tick, positive, <= peak (default peak/10)",
                    },
                ],
            },
            |spec, _n| {
                spec.expect_params(&["period", "peak", "trough"], false)?;
                let period = spec.usize_param_at_least("period", 4096, 1)? as u64;
                let peak = spec.f64_param_in_range("peak", 0.5, RATE_MIN, RATE_MAX)?;
                let trough =
                    spec.f64_param_in_range("trough", peak / 10.0, RATE_MIN / 1000.0, peak)?;
                let builder: ArrivalBuilder = Arc::new(move |seed| {
                    #[allow(clippy::cast_precision_loss)]
                    Box::new(Diurnal {
                        period: period as f64,
                        peak,
                        trough,
                        clock: 0.0,
                        rng: StdRng::seed_from_u64(seed),
                    })
                });
                Ok((
                    Spec::new("diurnal")
                        .with("period", period)
                        .with("peak", peak)
                        .with("trough", trough),
                    builder,
                ))
            },
        ));
        reg
    }

    /// The process-wide default registry (the standard models), built
    /// once on first use.
    #[must_use]
    pub fn global() -> &'static ArrivalRegistry {
        static GLOBAL: OnceLock<ArrivalRegistry> = OnceLock::new();
        GLOBAL.get_or_init(ArrivalRegistry::standard)
    }

    /// Resolves a parsed spec at process count `n` (defaults scale
    /// with it): one name lookup, one parameter validation, producing
    /// the per-stream builder the engine calls per stripe.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownName`] (listing the registry contents and
    /// the nearest valid name or alias) or the entry's parameter
    /// validation error.
    pub fn resolve(&self, spec: &Spec, n: usize) -> Result<ResolvedArrivals, SpecError> {
        let entry = self.lookup(&spec.name)?;
        let (canonical, builder) = entry.resolve(spec, n)?;
        Ok(ResolvedArrivals {
            label: canonical.label(),
            seeded: entry.info().seeded,
            builder,
        })
    }

    /// Parses and resolves a spec string in one call.
    ///
    /// # Errors
    ///
    /// As [`Spec::parse`] and [`ArrivalRegistry::resolve`].
    pub fn resolve_str(&self, s: &str, n: usize) -> Result<ResolvedArrivals, SpecError> {
        self.resolve(&Spec::parse(s)?, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_lists_four_models() {
        let reg = ArrivalRegistry::standard();
        assert_eq!(reg.names(), ["steady", "poisson", "bursty", "diurnal"]);
        assert!(reg.get("fixed").is_some(), "aliases resolve");
        assert!(reg.get("burst").is_some());
    }

    #[test]
    fn defaults_are_explicit_in_labels_and_labels_reparse() {
        let reg = ArrivalRegistry::global();
        assert_eq!(reg.resolve_str("steady", 4).unwrap().label, "steady:gap=4");
        assert_eq!(
            reg.resolve_str("poisson", 4).unwrap().label,
            "poisson:rate=0.25"
        );
        assert_eq!(
            reg.resolve_str("bursty", 8).unwrap().label,
            "bursty:size=4,gap=16"
        );
        assert_eq!(
            reg.resolve_str("diurnal:peak=2", 4).unwrap().label,
            "diurnal:period=4096,peak=2,trough=0.2"
        );
        for s in ["steady:gap=7", "poisson:rate=0.5", "bursty", "diurnal"] {
            let label = reg.resolve_str(s, 6).unwrap().label;
            assert_eq!(reg.resolve_str(&label, 6).unwrap().label, label, "{s}");
        }
    }

    /// The satellite contract: `poisson:rate=-1` fails with the
    /// expected range spelled out, and typo'd keys still get
    /// nearest-key suggestions.
    #[test]
    fn bad_rates_fail_with_the_range_and_typos_suggest() {
        let reg = ArrivalRegistry::global();
        let err = reg.resolve_str("poisson:rate=-1", 4).unwrap_err();
        let SpecError::InvalidParam { key, expected, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(key, "rate");
        assert_eq!(expected, "a number in [0.000001, 1000000]");

        let err = reg.resolve_str("poisson:rte=1", 4).unwrap_err();
        let SpecError::UnknownParam { suggestion, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(suggestion.as_deref(), Some("rate"));

        let err = reg.resolve_str("poison:rate=1", 4).unwrap_err();
        let SpecError::UnknownName { suggestion, .. } = &err else {
            panic!("{err}")
        };
        assert_eq!(suggestion.as_deref(), Some("poisson"));

        // Out-of-range diurnal parameters name their ranges too.
        assert!(reg.resolve_str("diurnal:peak=-3", 4).is_err());
        assert!(reg.resolve_str("diurnal:period=0", 4).is_err());
        // A trough above the peak is out of range by construction.
        assert!(reg.resolve_str("diurnal:peak=1,trough=2", 4).is_err());
    }

    #[test]
    fn streams_are_monotone_replayable_and_seed_sensitive() {
        let reg = ArrivalRegistry::global();
        for spec in [
            "steady:gap=3",
            "poisson:rate=0.5",
            "bursty:size=3,gap=10",
            "diurnal:period=100,peak=1",
        ] {
            let r = reg.resolve_str(spec, 4).unwrap();
            let take = |seed: u64| -> Vec<u64> {
                let mut m = r.build(seed);
                (0..200).map(|_| m.next_arrival()).collect()
            };
            let a = take(7);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{spec}: monotone");
            assert_eq!(a, take(7), "{spec}: replayable");
            if r.seeded {
                assert_ne!(a, take(8), "{spec}: seed-sensitive");
            } else {
                assert_eq!(a, take(8), "{spec}: seed-independent");
            }
        }
    }

    #[test]
    fn model_shapes_match_their_specs() {
        let reg = ArrivalRegistry::global();
        // Steady: request k at tick k·G.
        let mut m = reg.resolve_str("steady:gap=5", 4).unwrap().build(0);
        let ticks: Vec<u64> = (0..4).map(|_| m.next_arrival()).collect();
        assert_eq!(ticks, [0, 5, 10, 15]);
        // Bursty: `size` share a tick, then a gap.
        let mut m = reg.resolve_str("bursty:size=2,gap=10", 4).unwrap().build(0);
        let ticks: Vec<u64> = (0..6).map(|_| m.next_arrival()).collect();
        assert_eq!(ticks, [0, 0, 10, 10, 20, 20]);
        // Poisson: the empirical mean gap approaches 1/rate.
        let mut m = reg.resolve_str("poisson:rate=0.1", 4).unwrap().build(42);
        let mut last = 0;
        for _ in 0..5000 {
            last = m.next_arrival();
        }
        let mean_gap = last as f64 / 5000.0;
        assert!((8.0..12.0).contains(&mean_gap), "mean gap {mean_gap}");
    }
}
