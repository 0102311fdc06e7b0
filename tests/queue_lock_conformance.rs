//! Queue-lock conformance: the composable `mcs`/`clh`/`ticket` entries
//! are explore-certified (mutual exclusion + deadlock freedom) at the
//! fixture sizes, and their exact worst-case remote costs are pinned.
//!
//! The cost pins encode the model boundary the locks were built to
//! demonstrate, per passage-1 worst case at n∈{2,3}:
//!
//! * under **CC** (crash-free, this *is* the RMR-CC cost) all three
//!   have finite exact worst cases — the spins are cache-local, so the
//!   adversary cannot pump a waiting process;
//! * under **DSM** only `mcs` stays finite: its queue node (`locked[i]`
//!   *and* `next[i]`) is homed at its owner, so every spin is local.
//!   `clh` spins on the *predecessor's* node and `ticket` on the shared
//!   counter — remote under DSM, so the adversary pumps the wait
//!   forever, exactly the literature's local-spin classification;
//! * `mcs-sim`, the same MCS built by `Mcs::with_remote_links`, homes
//!   only its `locked` bank (the exit-path link-wait spins remotely),
//!   so it is DSM-unbounded — homing the whole node is pinned here as a
//!   strict improvement.
//!
//! Contrast with the register-only suite pinned in
//! `safety_conformance.rs` / `exhaustive_bounds.rs`, where busy-waits
//! are chargeable and most entries pump under SC.

use exclusion::cost::run_priced;
use exclusion::explore::{analyze, ExploreConfig, Model, WorstCost};
use exclusion::mutex::AlgorithmRegistry;
use exclusion::shmem::sched::Script;
use exclusion::shmem::testing::fixtures;
use exclusion::shmem::DynRef;

const QUEUE_LOCKS: [&str; 3] = ["mcs", "clh", "ticket"];

/// Exact worst-case CC (≡ crash-free RMR) cost, passages = 1.
const PINNED_CC: &[(&str, usize, usize)] = &[
    // (algorithm, worst at n=2, worst at n=3)
    ("mcs", 12, 20),
    ("clh", 9, 14),
    ("ticket", 7, 12),
];

/// Exact worst-case DSM cost for the one genuinely local-spin lock.
const PINNED_DSM_MCS: &[(usize, usize)] = &[(2, 6), (3, 10)];

/// Exact reachable-state counts at passages = 1 — a drift detector for
/// the micro-program encodings, like the register-only pins in
/// `safety_conformance.rs`.
const PINNED_STATES: &[(&str, usize, usize)] =
    &[("mcs", 134, 2100), ("clh", 77, 693), ("ticket", 30, 80)];

fn resolve(name: &str, n: usize) -> exclusion::mutex::DynAlgorithm {
    AlgorithmRegistry::global()
        .resolve_str(name, n)
        .expect("queue locks resolve from the standard registry")
        .automaton
}

#[test]
fn queue_locks_are_certified_with_pinned_exact_cc_worst_cases() {
    let cfg = ExploreConfig::default();
    for &(name, at2, at3) in PINNED_CC {
        for (n, pinned) in [(2, at2), (3, at3)] {
            let alg = resolve(name, n);
            let (report, worst) = analyze(alg.as_ref(), Model::Cc, &cfg);
            assert!(!report.truncated, "{name} at n={n} must explore fully");
            assert!(
                report.certified_safe(),
                "{name} at n={n} must be certified mutually exclusive"
            );
            assert!(
                report.certified_deadlock_free(),
                "{name} at n={n} must be certified deadlock-free"
            );
            let worst = worst.expect("worst-case search ran");
            let WorstCost::Exact { cost, schedule } = &worst.cost else {
                panic!("{name} at n={n}: CC worst case must be finite, got {worst:?}");
            };
            assert_eq!(*cost, pinned, "{name} at n={n}: exact CC worst drifted");
            // The witness is executable: it replays through the
            // streaming pricer to exactly the pinned optimum.
            let dref = DynRef(alg.as_ref());
            let priced = run_priced(
                &dref,
                &mut Script::new(schedule.clone()),
                1,
                schedule.len() + 1,
            )
            .expect("witness schedule runs");
            assert_eq!(priced.completed, n, "{name} at n={n}: witness stops short");
            assert_eq!(priced.cc.total(), pinned, "{name} at n={n}: witness replay");
        }
    }
}

#[test]
fn mcs_is_dsm_finite_and_clh_ticket_are_dsm_pumpable() {
    let cfg = ExploreConfig::default();
    for &(n, pinned) in PINNED_DSM_MCS {
        let alg = resolve("mcs", n);
        let (_, worst) = analyze(alg.as_ref(), Model::Dsm, &cfg);
        let worst = worst.expect("worst-case search ran");
        assert_eq!(
            worst.cost.exact(),
            Some(pinned),
            "mcs at n={n}: DSM worst must stay finite (local-spin)"
        );
    }
    for name in ["clh", "ticket"] {
        for n in [2, 3] {
            let alg = resolve(name, n);
            let (_, worst) = analyze(alg.as_ref(), Model::Dsm, &cfg);
            let worst = worst.expect("worst-case search ran");
            let WorstCost::Unbounded { prefix, cycle } = &worst.cost else {
                panic!(
                    "{name} at n={n}: DSM worst must be unbounded, got {:?}",
                    worst.cost
                );
            };
            // Pump the witness: every lap of the cycle adds the same
            // positive DSM charge — the remote spin, made executable. A
            // pumped prefix stops short of completion on purpose.
            let price = |laps: usize| {
                let mut picks = prefix.clone();
                for _ in 0..laps {
                    picks.extend_from_slice(cycle);
                }
                let len = picks.len();
                run_priced(&DynRef(alg.as_ref()), &mut Script::new(picks), 1, len)
                    .expect("pump runs")
                    .dsm
                    .total()
            };
            let (zero, one, two) = (price(0), price(1), price(2));
            assert!(one > zero, "{name} at n={n}: cycle adds no DSM charge");
            assert_eq!(
                two - one,
                one - zero,
                "{name} at n={n}: pump laps must charge linearly"
            );
        }
    }
}

/// The two MCS entries differ only in homing: `mcs-sim` homes only the
/// `locked` bank, leaving the exit-path link-wait remote — DSM-pumpable
/// — while `mcs` homes the whole per-process node and stays finite.
#[test]
fn composable_mcs_improves_on_the_sim_twin_under_dsm() {
    let cfg = ExploreConfig::default();
    let sim = resolve("mcs-sim", 2);
    let (_, worst) = analyze(sim.as_ref(), Model::Dsm, &cfg);
    assert!(
        worst.expect("worst-case search ran").cost.is_unbounded(),
        "mcs-sim: the remote link-wait must be DSM-pumpable"
    );
    let ported = resolve("mcs", 2);
    let (_, worst) = analyze(ported.as_ref(), Model::Dsm, &cfg);
    assert_eq!(worst.expect("worst-case search ran").cost.exact(), Some(6));
}

#[test]
fn queue_lock_state_spaces_are_pinned() {
    let cfg = ExploreConfig::default();
    for &(name, at2, at3) in PINNED_STATES {
        for (n, expected) in [(2, at2), (3, at3)] {
            let alg = resolve(name, n);
            let (report, _) = analyze(alg.as_ref(), Model::Cc, &cfg);
            assert_eq!(
                report.states, expected,
                "{name} at n={n}: reachable-state count drifted"
            );
        }
    }
}

/// The registry metadata the engines trust: all three are RMW locks,
/// none is recoverable, and only the ticket lock (whose tokens are
/// pid-free draw numbers) declares permutation symmetry.
#[test]
fn queue_lock_registry_metadata_is_pinned() {
    let reg = AlgorithmRegistry::global();
    for name in QUEUE_LOCKS {
        let info = reg.get(name).expect("registered").info().clone();
        assert!(info.uses_rmw, "{name}");
        assert!(info.deadlock_free, "{name}");
        assert!(!info.recoverable, "{name}");
        assert_eq!(info.symmetric, name == "ticket", "{name}");
    }
    let _ = fixtures::SMALL_NS; // the grid the pins above cover
}
