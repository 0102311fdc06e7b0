//! Integration: property-based checks of the shared-memory substrate
//! itself — replay determinism, execution predicates, scheduler
//! equivalences.

use exclusion::mutex::{AlgorithmInfo, AlgorithmRegistry, ResolvedAlgorithm};
use exclusion::shmem::sched::{run_random, run_sequential, run_with};
use exclusion::shmem::{replay, replay_collect, Automaton, CritKind, DynRef, ProcessId, Step};
use proptest::prelude::*;

/// The paper's locks (registry entries that are register-only,
/// deadlock-free and not crash-recoverable) at `n` processes, in
/// report order.
fn paper_locks(n: usize) -> Vec<ResolvedAlgorithm> {
    AlgorithmRegistry::global().resolve_where(n, AlgorithmInfo::paper_lock)
}

/// How many locks [`full_suite`] holds; the `alg_idx` strategies span it.
const FULL_SUITE: usize = 12;

/// The paper's locks, then the RMW locks: every registry entry that
/// completes its runs and is not crash-recoverable.
fn full_suite(n: usize) -> Vec<ResolvedAlgorithm> {
    let suite = AlgorithmRegistry::global().resolve_where(n, |i| i.deadlock_free && !i.recoverable);
    assert_eq!(suite.len(), FULL_SUITE, "widen FULL_SUITE to the registry");
    suite
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replay is deterministic and idempotent: replaying a recorded
    /// execution reproduces exactly the same outcomes, twice.
    #[test]
    fn replay_is_deterministic(
        n in 1usize..=5,
        alg_idx in 0..FULL_SUITE,
        seed in any::<u64>(),
    ) {
        let r = full_suite(n).remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        let exec = run_random(&alg, 1, 50_000_000, seed).expect("terminates");
        let a = replay_collect(&alg, exec.steps()).expect("replays");
        let b = replay_collect(&alg, exec.steps()).expect("replays");
        prop_assert_eq!(a, b);
    }

    /// The recorded read values equal the value of the last write (or
    /// RMW) to that register, or the initial value — the register
    /// semantics of §3.1.
    #[test]
    fn reads_return_last_written_value(
        n in 1usize..=4,
        alg_idx in 0..FULL_SUITE,
        seed in any::<u64>(),
    ) {
        let r = full_suite(n).remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        let exec = run_random(&alg, 1, 50_000_000, seed).expect("terminates");
        let outcomes = replay_collect(&alg, exec.steps()).expect("replays");
        let mut shadow: Vec<u64> = (0..alg.registers())
            .map(|r| alg.initial_value(exclusion::shmem::RegisterId::new(r)))
            .collect();
        for o in outcomes {
            match o.step {
                Step::Read { reg, .. } => {
                    prop_assert_eq!(o.read_value, Some(shadow[reg.index()]));
                }
                Step::Write { reg, value, .. } => shadow[reg.index()] = value,
                Step::Rmw { reg, op, .. } => {
                    let old = shadow[reg.index()];
                    prop_assert_eq!(o.read_value, Some(old));
                    shadow[reg.index()] = op.apply(old);
                }
                // Crashes leave registers untouched (and cannot appear in
                // an unfaulted run anyway).
                Step::Crit { .. } | Step::Crash { .. } => {}
            }
        }
    }

    /// Prefixes of well-formed executions are well formed; projections
    /// contain only the projected process's steps, in order.
    #[test]
    fn prefix_and_projection_laws(
        n in 1usize..=4,
        alg_idx in 0usize..6,
        seed in any::<u64>(),
        cut in 0usize..200,
    ) {
        let r = paper_locks(n).remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        let exec = run_random(&alg, 1, 50_000_000, seed).expect("terminates");
        let prefix = exec.prefix(cut.min(exec.len()));
        prop_assert!(prefix.well_formed(n));
        prop_assert!(prefix.mutual_exclusion(n));
        for p in ProcessId::all(n) {
            let proj: Vec<_> = exec.projection(p).collect();
            prop_assert!(proj.iter().all(|s| s.pid() == p));
            // Projection of the prefix is a prefix of the projection.
            let proj_prefix: Vec<_> = prefix.projection(p).collect();
            prop_assert!(proj.starts_with(&proj_prefix));
        }
    }

    /// `run_with` driven by a recorded schedule reproduces the same
    /// execution (scheduling is the only nondeterminism in the model).
    #[test]
    fn schedule_determines_execution(
        n in 1usize..=4,
        alg_idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let r = paper_locks(n).remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        let exec = run_random(&alg, 1, 50_000_000, seed).expect("terminates");
        let schedule: Vec<ProcessId> = exec.iter().map(Step::pid).collect();
        let mut i = 0;
        let replayed = run_with(&alg, schedule.len() + 1, |_| {
            let next = schedule.get(i).copied();
            i += 1;
            next
        })
        .expect("within budget");
        prop_assert_eq!(exec, replayed);
    }
}

#[test]
fn sequential_runs_compose() {
    // Running [p0], then continuing with [p1] from scratch, equals the
    // canonical sequential run of [p0, p1] — stages do not interfere.
    for r in paper_locks(3) {
        let alg = DynRef(r.automaton.as_ref());
        let order: Vec<_> = ProcessId::all(3).collect();
        let full = run_sequential(&alg, &order, 100_000).unwrap();
        // Count rem steps: exactly one per process, in order.
        let rems: Vec<_> = full
            .iter()
            .filter(|s| s.crit_kind() == Some(CritKind::Rem))
            .map(Step::pid)
            .collect();
        assert_eq!(rems, order, "{}", alg.name());
        // And the run replays.
        replay(&alg, full.steps(), |_| {}).unwrap();
    }
}
