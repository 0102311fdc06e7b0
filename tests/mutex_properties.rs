//! Integration: safety of the *whole standard registry* under
//! randomized schedules (property-based) and exhaustive checking.
//!
//! The suites iterate [`AlgorithmRegistry::standard`] rather than a
//! private algorithm list, with the entry count pinned against
//! `fixtures::STANDARD_ALGORITHMS` — registering a new lock without
//! widening these grids is a test failure, not a silent coverage gap.

use exclusion::explore::{explore, ExploreConfig};
use exclusion::mutex::AlgorithmRegistry;
use exclusion::shmem::sched::{run_random, run_round_robin};
use exclusion::shmem::testing::fixtures;
use exclusion::shmem::DynRef;
use proptest::prelude::*;

/// Canonical names of every standard entry, pinned to the fixture
/// count so index-based proptest strategies cannot silently truncate.
fn standard_names() -> Vec<String> {
    let names: Vec<String> = AlgorithmRegistry::global()
        .entries()
        .map(|e| e.info().name.clone())
        .collect();
    assert_eq!(
        names.len(),
        fixtures::STANDARD_ALGORITHMS,
        "standard registry grew; bump fixtures::STANDARD_ALGORITHMS and the strategies here"
    );
    names
}

/// The entries whose runs must *complete*: everything except the two
/// splitter locks, which honestly declare `deadlock_free: false` (a
/// fair schedule can starve a loser, so a passage target would hang).
/// Their mutual exclusion is still certified exhaustively below.
fn deadlock_free_names() -> Vec<String> {
    let names: Vec<String> = AlgorithmRegistry::global()
        .entries()
        .filter(|e| e.info().deadlock_free)
        .map(|e| e.info().name.clone())
        .collect();
    assert_eq!(names.len(), fixtures::STANDARD_ALGORITHMS - 2);
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any deadlock-free registry entry, any size 1–6, any seed: random
    /// fair schedules preserve mutual exclusion and well-formedness.
    #[test]
    fn random_schedules_preserve_mutual_exclusion(
        n in 1usize..=6,
        alg_idx in 0usize..15,
        seed in any::<u64>(),
        passages in 1usize..=3,
    ) {
        let names = deadlock_free_names();
        prop_assert_eq!(names.len(), 15, "widen alg_idx to match the registry");
        let alg = AlgorithmRegistry::global()
            .resolve_str(&names[alg_idx], n)
            .expect("standard entries resolve")
            .automaton;
        let exec = run_random(&DynRef(alg.as_ref()), passages, fixtures::MAX_STEPS, seed)
            .expect("fair run terminates");
        prop_assert!(exec.well_formed(n));
        prop_assert!(exec.mutual_exclusion(n));
        prop_assert_eq!(exec.critical_order().len(), n * passages);
    }

    /// Round-robin (deterministic fair) schedules likewise.
    #[test]
    fn round_robin_preserves_mutual_exclusion(
        n in 1usize..=6,
        alg_idx in 0usize..15,
        passages in 1usize..=3,
    ) {
        let names = deadlock_free_names();
        prop_assert_eq!(names.len(), 15, "widen alg_idx to match the registry");
        let alg = AlgorithmRegistry::global()
            .resolve_str(&names[alg_idx], n)
            .expect("standard entries resolve")
            .automaton;
        let exec = run_round_robin(&DynRef(alg.as_ref()), passages, fixtures::MAX_STEPS)
            .expect("terminates");
        prop_assert!(exec.mutual_exclusion(n));
    }
}

#[test]
fn exhaustive_model_check_registry_n2() {
    for name in standard_names() {
        let alg = AlgorithmRegistry::global()
            .resolve_str(&name, 2)
            .expect("standard entries resolve")
            .automaton;
        let report = explore(
            alg.as_ref(),
            &ExploreConfig {
                passages: 2,
                ..ExploreConfig::default()
            },
        );
        assert!(
            report.certified_safe(),
            "{name}: {} states, violation: {:?}",
            report.states,
            report.violation
        );
    }
}

#[test]
fn exhaustive_model_check_registry_n3_single_passage() {
    for name in standard_names() {
        let alg = AlgorithmRegistry::global()
            .resolve_str(&name, 3)
            .expect("standard entries resolve")
            .automaton;
        let report = explore(alg.as_ref(), &ExploreConfig::default());
        assert!(report.certified_safe(), "{name}: {} states", report.states);
    }
}
