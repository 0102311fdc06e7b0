//! Integration: the spec grammar round-trips through every registry —
//! for each algorithm and scheduler entry, with and without
//! parameters, `parse(label(x)) == Ok(x)`; resolved report labels
//! re-resolve to themselves; unknown names or malformed parameters
//! produce actionable errors listing the registry contents; and no
//! spec built from a registry's names, its parameter keys and edge
//! values panics when it is resolved and used.

use std::panic::{catch_unwind, AssertUnwindSafe};

use exclusion::cost::run_priced;
use exclusion::mutex::AlgorithmRegistry;
use exclusion::serve::ArrivalRegistry;
use exclusion::shmem::{DynRef, ParamInfo, Spec, SpecError};
use exclusion::workload::{SchedSpec, SchedulerRegistry};
use proptest::prelude::*;

/// Every registry entry name, bare, satisfies `parse(label(x)) == Ok(x)`
/// and resolves to a label that re-resolves to itself.
#[test]
fn bare_entry_names_roundtrip_through_both_registries() {
    let n = 4;
    let algs = AlgorithmRegistry::global();
    for name in algs.names() {
        let spec = Spec::parse(&name).expect("entry names are valid specs");
        assert_eq!(spec.label(), name);
        assert_eq!(Spec::parse(&spec.label()).unwrap(), spec);
        let label = algs.resolve(&spec, n).expect("resolves").label;
        assert_eq!(algs.resolve_str(&label, n).unwrap().label, label, "{name}");
    }
    let scheds = SchedulerRegistry::global();
    for name in scheds.names() {
        let spec = Spec::parse(&name).expect("entry names are valid specs");
        assert_eq!(Spec::parse(&spec.label()).unwrap(), spec);
        let label = scheds.resolve(&spec, n).expect("resolves").label;
        assert_eq!(
            scheds.resolve_str(&label, n).unwrap().label,
            label,
            "{name}: resolved labels are fixed points"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parameterized algorithm specs round-trip: every `(key, value)`
    /// combination the standard entries accept parses back to the same
    /// spec, and resolution accepts it wherever the value is valid.
    #[test]
    fn parameterized_algorithm_specs_roundtrip(
        n in 2usize..=6,
        levels in 1usize..=12,
        backoff in 0usize..=12,
    ) {
        let algs = AlgorithmRegistry::global();
        for spec in [
            Spec::new("filter").with("levels", levels),
            Spec::new("ttas-sim").with("backoff", backoff),
        ] {
            prop_assert_eq!(Spec::parse(&spec.label()).unwrap(), spec.clone());
            match algs.resolve(&spec, n) {
                Ok(resolved) => {
                    prop_assert_eq!(&resolved.label, &spec.label());
                    // Re-resolving the emitted label is identity.
                    let again = algs.resolve_str(&resolved.label, n).unwrap();
                    prop_assert_eq!(again.label, resolved.label);
                }
                Err(e) => {
                    // The only rejection in this grid: too few filter
                    // levels for n — and the error says exactly that.
                    prop_assert!(spec.name == "filter" && levels + 1 < n, "{}", e);
                    prop_assert!(e.to_string().contains("levels"), "{}", e);
                }
            }
        }
    }

    /// Parameterized scheduler specs round-trip — including the legacy
    /// positional spellings, which normalize to canonical labels that
    /// are fixed points of resolution.
    #[test]
    fn parameterized_scheduler_specs_roundtrip(
        n in 2usize..=8,
        wave in 1usize..=8,
        gap in 0usize..=64,
        stride in 0usize..=64,
        patience in 1usize..=64,
    ) {
        let scheds = SchedulerRegistry::global();
        for spec in [
            SchedSpec::burst(wave, gap),
            SchedSpec::stagger(stride),
            SchedSpec::from_spec(Spec::new("greedy-adversary").with("patience", patience)),
        ] {
            prop_assert_eq!(SchedSpec::parse(&spec.label()).unwrap(), spec.clone());
            let resolved = scheds.resolve(spec.spec(), n).unwrap();
            prop_assert_eq!(&resolved.label, &spec.label());
            let again = scheds.resolve_str(&resolved.label, n).unwrap();
            prop_assert_eq!(again.label, resolved.label);
        }
        // Legacy spellings normalize to the named-parameter labels.
        let legacy = scheds.resolve_str(&format!("burst:{wave}x{gap}"), n).unwrap();
        prop_assert_eq!(legacy.label, SchedSpec::burst(wave, gap).label());
        let legacy = scheds.resolve_str(&format!("stagger:{stride}"), n).unwrap();
        prop_assert_eq!(legacy.label, SchedSpec::stagger(stride).label());
    }

    /// Unknown names fail with the full registry contents (so the error
    /// is actionable) and, for near-misses, a suggestion.
    #[test]
    fn unknown_names_list_registry_contents(seed in any::<u64>()) {
        let bogus = format!("no-such-entry-{seed}");
        let err = AlgorithmRegistry::global().resolve_str(&bogus, 4).unwrap_err();
        let SpecError::UnknownName { known, kind, .. } = &err else {
            panic!("expected UnknownName, got {err}");
        };
        prop_assert_eq!(*kind, "algorithm");
        prop_assert_eq!(known.clone(), AlgorithmRegistry::global().names());
        for name in known {
            prop_assert!(err.to_string().contains(name.as_str()), "{}", err);
        }

        let err = SchedulerRegistry::global().resolve_str(&bogus, 4).unwrap_err();
        let SpecError::UnknownName { known, kind, .. } = &err else {
            panic!("expected UnknownName, got {err}");
        };
        prop_assert_eq!(*kind, "scheduler");
        prop_assert_eq!(known.clone(), SchedulerRegistry::global().names());
    }
}

/// Malformed or misdirected parameters are rejected with errors naming
/// the accepted keys — never silently ignored.
#[test]
fn malformed_params_produce_actionable_errors() {
    let algs = AlgorithmRegistry::global();
    let scheds = SchedulerRegistry::global();

    let err = algs.resolve_str("filter:levels=lots", 4).unwrap_err();
    assert!(matches!(err, SpecError::InvalidParam { .. }), "{err}");
    assert!(err.to_string().contains("levels=lots"), "{err}");

    let err = algs.resolve_str("filter:depth=3", 4).unwrap_err();
    assert!(
        err.to_string().contains("levels"),
        "names valid keys: {err}"
    );

    let err = algs.resolve_str("bakery:levels=3", 4).unwrap_err();
    assert!(
        err.to_string().contains("no parameters"),
        "param-less entries say so: {err}"
    );

    let err = scheds.resolve_str("burst:wave=2,depth=4", 4).unwrap_err();
    assert!(err.to_string().contains("wave, gap"), "{err}");

    let err = scheds.resolve_str("burst:wave=0,gap=4", 4).unwrap_err();
    assert!(err.to_string().contains("positive"), "{err}");

    for malformed in ["", "x:", "x:=2", "x:k="] {
        assert!(Spec::parse(malformed).is_err(), "{malformed:?}");
    }
}

/// The values every parameter is tried with: zero and one, a sign, the
/// 32- and 64-bit boundaries, a float extreme, NaN, a word and the
/// empty string.
const EDGE_VALUES: [&str; 11] = [
    "0",
    "1",
    "-1",
    "4294967296",
    "4294967297",
    "9223372036854775808",
    "18446744073709551615",
    "1e308",
    "nan",
    "x",
    "",
];

/// The specs built from one registry's `entries` (name, declared
/// parameters): each name bare, with one positional edge value, with
/// each key the registry declares set to each edge value, and with each
/// pair of the entry's own keys set to each pair of edge values.
fn edge_specs(entries: &[(&str, &[ParamInfo])]) -> Vec<String> {
    let mut keys: Vec<&str> = entries
        .iter()
        .flat_map(|(_, own)| own.iter().map(|p| p.key))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut specs = Vec::new();
    for &(name, own) in entries {
        specs.push(name.to_string());
        for v in EDGE_VALUES {
            specs.push(format!("{name}:{v}"));
            specs.extend(keys.iter().map(|k| format!("{name}:{k}={v}")));
            for (i, a) in own.iter().enumerate() {
                for b in &own[i + 1..] {
                    for w in EDGE_VALUES {
                        specs.push(format!("{name}:{}={v},{}={w}", a.key, b.key));
                    }
                }
            }
        }
    }
    specs
}

/// No spec built from a registry's names, its parameter keys and the
/// edge values panics: each algorithm spec is resolved at n ∈ {1, 2, 3,
/// 1024, 1025}, each scheduler spec is resolved, built and drives 64
/// steps of a 3-process lock, and each arrival spec is resolved and
/// draws 64 arrivals. A spec is refused with an error or used; an
/// overflowing clock, a wrapped count or a failed assertion is a
/// failure, listed with its spec.
#[test]
fn edge_value_specs_resolve_and_run_without_panicking() {
    const NS: [usize; 5] = [1, 2, 3, 1024, 1025];
    let mut panicked = Vec::new();
    let mut guard = |what: String, f: &mut dyn FnMut()| {
        if catch_unwind(AssertUnwindSafe(f)).is_err() {
            panicked.push(what);
        }
    };

    let algs = AlgorithmRegistry::global();
    let entries: Vec<_> = algs
        .entries()
        .map(|e| (e.info().name.as_str(), e.info().params.as_slice()))
        .collect();
    for spec in edge_specs(&entries) {
        for n in NS {
            guard(format!("{spec} at n = {n}"), &mut || {
                let _ = algs.resolve_str(&spec, n);
            });
        }
    }

    let lock = algs
        .resolve_str("peterson", 3)
        .expect("peterson resolves")
        .automaton;
    let scheds = SchedulerRegistry::global();
    let entries: Vec<_> = scheds
        .entries()
        .map(|e| (e.info().name.as_str(), e.info().params.as_slice()))
        .collect();
    for spec in edge_specs(&entries) {
        guard(spec.clone(), &mut || {
            if let Ok(sched) = scheds.resolve_str(&spec, 3) {
                let _ = run_priced(&DynRef(lock.as_ref()), sched.build(1, 1).as_mut(), 1, 64);
            }
        });
    }

    let arrivals = ArrivalRegistry::global();
    let entries: Vec<_> = arrivals
        .entries()
        .map(|e| (e.info().name.as_str(), e.info().params.as_slice()))
        .collect();
    for spec in edge_specs(&entries) {
        for n in NS {
            guard(format!("{spec} at n = {n}"), &mut || {
                if let Ok(resolved) = arrivals.resolve_str(&spec, n) {
                    let mut stream = resolved.build(1);
                    for _ in 0..64 {
                        stream.next_arrival();
                    }
                }
            });
        }
    }
    assert!(
        panicked.is_empty(),
        "these specs panicked:\n{}",
        panicked.join("\n")
    );
}
