//! Integration: the machinery must *reject* broken inputs — broken
//! locks, lying recovery claims, malformed traces, exhausted budgets —
//! not silently accept them, and every rejection must come with a
//! replayable witness or a precise diagnosis.
//!
//! It exercises these guarantees through the registry + explorer stack
//! (which is what the CLI and the benchmarks run), plus the
//! fault-injection layer this repo's crash model lives in.

use exclusion::explore::{certify_recoverable, conformance_registry, explore, ExploreConfig};
use exclusion::mutex::broken::{BrokenPeterson, RacyBool};
use exclusion::mutex::stale_tournament::StaleTournament;
use exclusion::shmem::dynamic::DynRef;
use exclusion::shmem::spec::SpecError;
use exclusion::shmem::testing::NoLock;
use exclusion::shmem::{run_faulted, FaultPlan, System};

fn cfg(passages: usize) -> ExploreConfig {
    ExploreConfig {
        passages,
        ..ExploreConfig::default()
    }
}

#[test]
fn explorer_rejects_every_broken_lock() {
    // Registry path: the planted `broken` entry (a racy boolean lock)
    // is caught by the same conformance registry the CLI certifies.
    let reg = conformance_registry();
    let racy = reg.resolve_str("broken", 2).unwrap().automaton;
    assert!(explore(racy.as_ref(), &cfg(1)).violation.is_some());

    // Direct path: broken locks that are not registry entries are
    // refuted through the same erased interface the registry uses.
    let no_lock = NoLock::new(2);
    assert!(explore(&no_lock, &cfg(1)).violation.is_some());

    let racy = RacyBool::new(2);
    assert!(explore(&racy, &cfg(1)).violation.is_some());

    // BrokenPeterson's race needs a second passage to surface;
    // StaleTournament's needs a third.
    let peterson = BrokenPeterson;
    assert!(explore(&peterson, &cfg(2)).violation.is_some());

    let stale = StaleTournament::new(2);
    assert!(explore(&stale, &cfg(3)).violation.is_some());
}

#[test]
fn violation_witnesses_are_genuine_executions() {
    let alg = RacyBool::new(3);
    let report = explore(&alg, &cfg(1));
    let v = report.violation.expect("found");
    // The witness schedule re-executes from the initial state to a
    // state with two processes in the critical section — it is a real
    // run, not a certificate about an abstract graph.
    let dref = DynRef(&alg);
    let mut sys = System::new(&dref);
    for &p in &v.schedule {
        sys.step(p);
    }
    assert_eq!(sys.in_critical().count(), 2);
    let (a, b) = v.culprits;
    assert_ne!(a, b);
}

#[test]
fn crash_certification_rejects_lying_recovery_claims() {
    // `broken-recover` claims `recoverable` in its registry metadata
    // and is crash-free indistinguishable from the honest `rtas` — the
    // crash-aware explorer is the only machinery that can expose the
    // lie, and it must do so with a replayable fault witness.
    let reg = conformance_registry();
    let alg = reg.resolve_str("broken-recover", 2).unwrap().automaton;

    assert!(
        explore(alg.as_ref(), &cfg(1)).certified_safe(),
        "crash-free, the lie is invisible"
    );
    let report = certify_recoverable(alg.as_ref(), 1, &cfg(1));
    let witness = report.violation.expect("one crash leaks the CS");

    let (mut script, mut plan) = witness.replay_artifacts();
    let replayed = run_faulted(
        &DynRef(alg.as_ref()),
        &mut script,
        &mut plan,
        1,
        witness.trace.len() + 1,
    )
    .expect("witness replays");
    assert_eq!(replayed, witness.trace, "bit-identical replay");
    assert!(!replayed.mutual_exclusion(2));
}

/// Every registry entry that claims `recoverable`, at n ∈ {2, 3} under
/// a budget of two crashes: the honest locks certify, and the planted
/// `broken-recover` is refuted with a fault witness that replays
/// bit-identically into a mutual-exclusion violation.
#[test]
fn recoverable_entries_certify_or_are_refuted_under_two_crashes() {
    let reg = conformance_registry();
    let recoverable: Vec<String> = reg
        .entries()
        .filter(|e| e.info().recoverable)
        .map(|e| e.info().name.clone())
        .collect();
    assert_eq!(recoverable, ["rpeterson", "rtas", "broken-recover"]);
    for name in &recoverable {
        let honest = name != "broken-recover";
        for n in [2usize, 3] {
            let alg = reg.resolve_str(name, n).unwrap().automaton;
            let report = certify_recoverable(alg.as_ref(), 2, &cfg(1));
            assert!(!report.truncated, "{name} n={n}");
            assert_eq!(
                report.certified_recoverable(),
                honest,
                "{name} n={n}: honest locks certify, the planted one is refuted"
            );
            let Some(witness) = report.violation else {
                continue;
            };
            let (mut script, mut plan) = witness.replay_artifacts();
            let replayed = run_faulted(
                &DynRef(alg.as_ref()),
                &mut script,
                &mut plan,
                1,
                witness.trace.len() + 1,
            )
            .unwrap_or_else(|e| panic!("{name} n={n}: witness replay failed: {e}"));
            assert_eq!(
                replayed, witness.trace,
                "{name} n={n}: bit-identical replay"
            );
            assert!(!replayed.mutual_exclusion(n), "{name} n={n}");
        }
    }
}

#[test]
fn budget_exhaustion_is_reported_not_truncated() {
    // The fault driver reports an exhausted step budget as an error —
    // it does not hand back a silently truncated execution.
    let reg = conformance_registry();
    let alg = reg.resolve_str("rtas", 3).unwrap().automaton;
    let mut sched = exclusion::shmem::sched::RoundRobin::new();
    let mut plan = FaultPlan::none();
    let err = run_faulted(&DynRef(alg.as_ref()), &mut sched, &mut plan, 1, 3).unwrap_err();
    assert!(err.to_string().contains("exceeded 3 steps"), "{err}");
}

#[test]
fn registries_reject_out_of_range_parameter_values() {
    // Values outside a parameter's range fail as loudly as unknown
    // keys: a negative seed does not wrap, zero patience does not
    // silently disable the starvation valve.
    let scheds = exclusion::workload::schedreg::SchedulerRegistry::global();
    let err = scheds.resolve_str("fanlynch:seed=-1", 4).unwrap_err();
    assert!(
        matches!(&err, SpecError::InvalidParam { key, .. } if key == "seed"),
        "{err}"
    );
    assert!(err.to_string().contains("non-negative integer"), "{err}");

    let err = scheds.resolve_str("fanlynch:patience=0", 4).unwrap_err();
    assert!(
        matches!(&err, SpecError::InvalidParam { key, .. } if key == "patience"),
        "{err}"
    );
    assert!(err.to_string().contains(">= 1"), "{err}");

    // Typo'd keys still get the nearest-key suggestion alongside.
    let err = scheds.resolve_str("fanlynch:patince=9", 4).unwrap_err();
    assert!(
        err.to_string().contains("did you mean `patience`?"),
        "{err}"
    );
}

#[test]
fn the_register_only_filter_rejects_rmw_algorithms() {
    // The paper's model — and its Ω(n log n) bound — is register-only;
    // the growth suites derive their algorithm list from the registry's
    // own metadata, so RMW locks cannot leak into the theorem's scope.
    let names =
        exclusion::bound::register_only(exclusion::mutex::registry::AlgorithmRegistry::global());
    assert!(names.contains(&"peterson".to_string()));
    assert!(
        names.contains(&"rpeterson".to_string()),
        "register-only recoverable"
    );
    for rmw in ["rtas", "tas", "ttas", "mcs"] {
        assert!(!names.contains(&rmw.to_string()), "{rmw} is RMW");
    }
}

#[test]
fn execution_predicates_reject_malformed_traces() {
    use exclusion::shmem::{CritKind, Execution, ProcessId, Step};
    let p0 = ProcessId::new(0);
    // enter before try
    let e = Execution::from_steps(vec![Step::crit(p0, CritKind::Enter)]);
    assert!(!e.well_formed(1));
    // process id out of range
    let e = Execution::from_steps(vec![Step::crit(ProcessId::new(5), CritKind::Try)]);
    assert!(!e.well_formed(2));
    // a crash of an out-of-range process is malformed too
    let e = Execution::from_steps(vec![Step::Crash {
        pid: ProcessId::new(9),
    }]);
    assert!(!e.well_formed(2));
}
