//! Queue-lock FIFO fairness, the defining queue-lock property: under
//! *any* schedule, critical-section entry order equals enqueue order —
//! the system-wide order of the ordering RMWs (fetch-and-store on the
//! tail for MCS/CLH, fetch-and-add on the ticket counter) *is* the
//! service order.
//!
//! The property is checked over the shared fixture scheduler grid ×
//! random seeds × sizes (property-based), and the adaptive lower-bound
//! adversary's `force()` witnesses over the queue locks replay
//! bit-identically through the streaming pricer — the adversary plays
//! real schedules even against locks outside the register-only model
//! it was built to bound.

use exclusion::bound::{force, BoundConfig, SC};
use exclusion::cost::run_priced;
use exclusion::mutex::AlgorithmRegistry;
use exclusion::shmem::sched::run_scheduler;
use exclusion::shmem::testing::fixtures;
use exclusion::shmem::{DynRef, Execution, ProcessId, RmwOp, Step};
use exclusion::workload::SchedulerRegistry;
use proptest::prelude::*;

const QUEUE_LOCKS: [&str; 3] = ["mcs", "clh", "ticket"];

/// The pids performing the lock's *ordering* RMW, in execution order.
///
/// Layouts are pinned by `crates/mutex/src/queue.rs`: the MCS tail
/// lives at register `2n`, the CLH tail at `n+1`, the ticket draw
/// counter at `0`. MCS's exit-path compare-and-swap targets the same
/// tail word, so the filter keys on the op variant as well as the
/// register: only the fetch-and-store (`Swap`) / fetch-and-add draws
/// define queue positions.
fn enqueue_order(exec: &Execution, alg: &str, n: usize) -> Vec<ProcessId> {
    let (reg, swap): (usize, bool) = match alg {
        "mcs" => (2 * n, true),
        "clh" => (n + 1, true),
        "ticket" => (0, false),
        other => panic!("not a queue lock: {other}"),
    };
    exec.steps()
        .iter()
        .filter_map(|s| match s {
            Step::Rmw { pid, reg: r, op } if r.index() == reg => match op {
                RmwOp::Swap(_) if swap => Some(*pid),
                RmwOp::FetchAdd(_) if !swap => Some(*pid),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

fn fifo_holds(alg_name: &str, n: usize, spec: &str, passages: usize, seed: u64) {
    let alg = AlgorithmRegistry::global()
        .resolve_str(alg_name, n)
        .expect("queue locks resolve")
        .automaton;
    let sched = SchedulerRegistry::global()
        .resolve_str(spec, n)
        .expect("fixture spec resolves");
    let mut live = sched.build(passages, seed);
    let exec = run_scheduler(
        &DynRef(alg.as_ref()),
        live.as_mut(),
        passages,
        fixtures::MAX_STEPS,
    )
    .unwrap_or_else(|e| panic!("{alg_name} n={n} under {spec} seed {seed}: {e}"));
    let entries = exec.critical_order();
    assert_eq!(entries.len(), n * passages, "{alg_name} n={n} under {spec}");
    assert_eq!(
        enqueue_order(&exec, alg_name, n),
        entries,
        "{alg_name} n={n} under {spec} seed {seed}: entry order must equal enqueue order"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any queue lock, any fixture scheduler, any seed: FIFO holds.
    #[test]
    fn entry_order_equals_enqueue_order(
        alg_idx in 0usize..3,
        sched_idx in 0usize..7,
        n in 2usize..=4,
        passages in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let specs = fixtures::sched_specs(n);
        prop_assert_eq!(specs.len(), 7, "fixture grid grew; widen sched_idx");
        fifo_holds(QUEUE_LOCKS[alg_idx], n, &specs[sched_idx], passages, seed);
    }
}

/// The full fixture grid, deterministically, at the fixture seeds —
/// so a FIFO break is caught even if the sampled property run misses
/// the triggering cell.
#[test]
fn fifo_holds_on_the_full_fixture_grid() {
    for alg in QUEUE_LOCKS {
        for &n in fixtures::SMALL_NS {
            for spec in fixtures::sched_specs(n) {
                for &seed in fixtures::SEEDS {
                    fifo_holds(alg, n, &spec, fixtures::PASSAGES, seed);
                }
            }
        }
    }
}

/// The adaptive adversary's witnesses over the queue locks are
/// executable: `force()`'s recorded `Script` replays through
/// `run_priced` to a complete run of exactly the recorded step count
/// and forced SC cost, bit-identically across replays.
#[test]
fn force_witnesses_over_queue_locks_replay_bit_identically() {
    let registry = AlgorithmRegistry::global();
    let cfg = BoundConfig::default();
    for name in QUEUE_LOCKS {
        for n in [2usize, 3] {
            let alg = registry.resolve_str(name, n).unwrap().automaton;
            let run = force(alg.as_ref(), &cfg);
            assert!(run.completed(), "{name} n={n}: forced run must complete");
            let dyn_ref = DynRef(alg.as_ref());
            let once = run_priced(&dyn_ref, &mut run.script(), cfg.passages, run.steps + 1)
                .unwrap_or_else(|e| panic!("{name} n={n}: witness replay failed: {e}"));
            assert_eq!(once.completed, n, "{name} n={n}: the witness stops short");
            let twice =
                run_priced(&dyn_ref, &mut run.script(), cfg.passages, run.steps + 1).unwrap();
            assert_eq!(once, twice, "{name} n={n}: replay must be deterministic");
            assert_eq!(once.steps, run.steps, "{name} n={n}");
            assert_eq!(once.sc.total(), run.forced[SC], "{name} n={n}");
        }
    }
}
