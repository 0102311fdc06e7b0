//! Soundness of the explorer's orbit (symmetry) reduction, ample-set
//! partial-order reduction and fingerprint compression: every knob
//! must change *how much* the explorer visits, never *what it
//! concludes*.
//!
//! The contract under test, per knob:
//!
//! * **symmetry** — quotienting by the process-permutation orbit is a
//!   strong bisimulation, so every verdict (safety, hazard kind, BFS
//!   depth, minimal-witness length, exact worst-case cost) must agree
//!   with the unreduced run, and witnesses must replay verbatim after
//!   de-canonicalization;
//! * **partial-order reduction** — preserves safety and
//!   completion-reachability but *not* minimal witness depth or hazard
//!   kind, so only existence verdicts are compared;
//! * **compression** — a pure representation change: every report
//!   field must be bit-identical to the plain run (modulo the
//!   `fingerprinted` flag).

use exclusion::cost::run_priced;
use exclusion::explore::{
    analyze, conformance_registry, explore, explore_probed, ExploreConfig, ExploreError, Model,
    WorstCost, GRAIN,
};
use exclusion::shmem::dynamic::{DynAutomaton, DynState};
use exclusion::shmem::probe::{Probe, TraceEvent};
use exclusion::shmem::sched::{Random, Scheduler, Script};
use exclusion::shmem::testing::fixtures;
use exclusion::shmem::{
    canonical_perm, canonicalize_snapshot, permute_snapshot, replay, DynRef, Perm, ProcessId,
    SchedContext, Snapshot, System, ViewTable,
};
use proptest::prelude::*;

/// The registry entries declaring full process-permutation symmetry —
/// the ones orbit reduction actually shrinks.
const SYMMETRIC: [&str; 5] = ["splitter", "splitter-gate", "tas-sim", "ttas-sim", "ticket"];

fn cfg_with(f: impl FnOnce(&mut ExploreConfig)) -> ExploreConfig {
    let mut cfg = ExploreConfig::default();
    f(&mut cfg);
    cfg
}

/// Orbit reduction is a verdict-preserving quotient: for **every**
/// registry entry (symmetric or not) the reduced and unreduced
/// explorations agree on safety, hazard kind, BFS depth and
/// minimal-witness length — and the planted race's witness still
/// replays to two processes in the critical section.
#[test]
fn reduced_and_unreduced_verdicts_agree_for_every_entry() {
    let registry = conformance_registry();
    for &n in fixtures::SMALL_NS {
        for name in registry.names() {
            let entry = registry.get(&name).expect("listed name resolves");
            if entry.info().min_n > n {
                continue;
            }
            let alg = registry.resolve_str(&name, n).expect("resolves").automaton;
            let reduced = explore(alg.as_ref(), &ExploreConfig::default());
            let plain = explore(alg.as_ref(), &cfg_with(|c| c.symmetry = false));
            assert!(!reduced.truncated && !plain.truncated, "{name} n={n}");
            assert_eq!(
                reduced.certified_safe(),
                plain.certified_safe(),
                "{name} n={n}: safety verdict must not depend on reduction"
            );
            assert_eq!(
                reduced.violation.is_some(),
                plain.violation.is_some(),
                "{name} n={n}"
            );
            if let (Some(rv), Some(pv)) = (&reduced.violation, &plain.violation) {
                // BFS layer depths survive the quotient, so minimality
                // does too.
                assert_eq!(
                    rv.schedule.len(),
                    pv.schedule.len(),
                    "{name} n={n}: minimal witness length must survive reduction"
                );
                let dref = DynRef(alg.as_ref());
                let sys = replay(&dref, rv.trace.steps(), |_| {}).expect("witness replays");
                assert_eq!(sys.in_critical().count(), 2, "{name} n={n}");
            }
            assert_eq!(
                reduced.hazard.as_ref().map(|h| h.kind),
                plain.hazard.as_ref().map(|h| h.kind),
                "{name} n={n}: hazard kind must survive reduction"
            );
            assert_eq!(reduced.depth, plain.depth, "{name} n={n}");
            // The quotient never *grows* the space, and for entries
            // with no declared symmetry it is exactly the identity.
            assert!(reduced.states <= plain.states, "{name} n={n}");
            if !entry.info().symmetric {
                assert_eq!(reduced.states, plain.states, "{name} n={n}");
                assert_eq!(reduced.edges, plain.edges, "{name} n={n}");
            }
        }
    }
}

/// For genuinely symmetric entries the quotient must actually shrink
/// the state space — at n = 3 every orbit of a contended configuration
/// has up to 3! members, so the reduction is strict and substantial,
/// and at n = 4 the splitter's orbits are big enough for a tenfold
/// quotient — while safety, BFS depth and hazard kind stay the same.
#[test]
fn reduction_strictly_shrinks_symmetric_state_spaces() {
    let registry = conformance_registry();
    let rows = SYMMETRIC
        .iter()
        .map(|&name| (name, 3, 2))
        .chain([("splitter", 4, 10)]);
    for (name, n, factor) in rows {
        let alg = registry.resolve_str(name, n).expect("resolves").automaton;
        let reduced = explore(alg.as_ref(), &ExploreConfig::default());
        let plain = explore(alg.as_ref(), &cfg_with(|c| c.symmetry = false));
        assert!(!reduced.truncated && !plain.truncated, "{name} n={n}");
        assert!(
            factor * reduced.states <= plain.states,
            "{name}: expected ≥{factor}x shrink at n={n}, got {} vs {}",
            reduced.states,
            plain.states
        );
        assert_eq!(
            reduced.certified_safe(),
            plain.certified_safe(),
            "{name} n={n}"
        );
        assert_eq!(reduced.depth, plain.depth, "{name} n={n}");
        assert_eq!(
            reduced.hazard.as_ref().map(|h| h.kind),
            plain.hazard.as_ref().map(|h| h.kind),
            "{name} n={n}"
        );
    }
}

/// Hazard schedules of the reduced exploration replay verbatim: the
/// de-canonicalized pids drive a fresh system into the doomed region —
/// for a deadlock, all the way to a fully stuck state.
#[test]
fn hazard_schedules_replay_under_reduction() {
    let registry = conformance_registry();
    for &n in fixtures::SMALL_NS {
        for name in ["splitter", "splitter-gate"] {
            let alg = registry.resolve_str(name, n).expect("resolves").automaton;
            let dref = DynRef(alg.as_ref());
            let report = explore(alg.as_ref(), &ExploreConfig::default());
            let hazard = report
                .hazard
                .as_ref()
                .unwrap_or_else(|| panic!("{name} n={n} must have a contention hazard"));
            let mut sys = System::new(&dref);
            for &p in &hazard.schedule {
                sys.step(p);
            }
            // The doomed region never completes the passage target.
            assert!(
                ProcessId::all(n).any(|p| sys.passages(p) < report.passages),
                "{name} n={n}: hazard schedule must not lead to completion"
            );
            if hazard.kind == exclusion::explore::HazardKind::Deadlock {
                // A deadlock witness ends fully stuck: every remaining
                // process's step leaves the system unchanged.
                let before = sys.snapshot();
                for p in ProcessId::all(n) {
                    if sys.passages(p) >= report.passages {
                        continue;
                    }
                    sys.step(p);
                    assert_eq!(
                        sys.snapshot(),
                        before,
                        "{name} n={n}: deadlock witness must be stuck"
                    );
                }
            }
        }
    }
}

/// The worst-case search sees the same optimum through the quotient:
/// exact costs agree with the unreduced search, finite witnesses price
/// to exactly the optimum after de-canonicalization, and unbounded
/// pump cycles add the same positive charge per unrolled lap.
#[test]
fn worst_case_costs_survive_reduction() {
    let registry = conformance_registry();
    for &n in fixtures::SMALL_NS {
        for name in SYMMETRIC {
            let alg = registry.resolve_str(name, n).expect("resolves").automaton;
            let price = |picks: Vec<ProcessId>| {
                let len = picks.len();
                run_priced(&DynRef(alg.as_ref()), &mut Script::new(picks), 1, len)
                    .expect("a script runs within its own length")
            };
            // The step cap bounds only the greedy incumbent, which this
            // test never reads; the splitter locks never complete under
            // greedy and would otherwise run the default 50 M steps.
            let (_, reduced) = analyze(
                alg.as_ref(),
                Model::Sc,
                &cfg_with(|c| c.max_steps = 100_000),
            );
            let (_, plain) = analyze(
                alg.as_ref(),
                Model::Sc,
                &cfg_with(|c| {
                    c.symmetry = false;
                    c.max_steps = 100_000;
                }),
            );
            let reduced = reduced.expect("safe entries get a worst-case report");
            let plain = plain.expect("safe entries get a worst-case report");
            match (&reduced.cost, &plain.cost) {
                (WorstCost::Exact { cost: rc, schedule }, WorstCost::Exact { cost: pc, .. }) => {
                    assert_eq!(rc, pc, "{name} n={n}: exact optimum must survive reduction");
                    let priced = price(schedule.clone());
                    assert_eq!(
                        priced.completed, n,
                        "{name} n={n}: reduced witness must complete every passage"
                    );
                    assert_eq!(
                        priced.sc.total(),
                        *rc,
                        "{name} n={n}: reduced witness must price to the optimum"
                    );
                }
                (WorstCost::Unbounded { prefix, cycle }, WorstCost::Unbounded { .. }) => {
                    // A pumped prefix stops short of completion on
                    // purpose.
                    let lap = |k: usize| {
                        let mut picks = prefix.clone();
                        for _ in 0..k {
                            picks.extend_from_slice(cycle);
                        }
                        price(picks).sc.total()
                    };
                    let (zero, one, two) = (lap(0), lap(1), lap(2));
                    assert!(one > zero, "{name} n={n}: cycle must charge");
                    assert_eq!(
                        two + zero,
                        2 * one,
                        "{name} n={n}: cycle must pump linearly"
                    );
                }
                (r, p) => panic!("{name} n={n}: verdict shape diverged: {r:?} vs {p:?}"),
            }
        }
    }
}

/// Partial-order reduction preserves existence verdicts (safety,
/// hazard-or-not) — though not witness minimality or hazard kind — and
/// its violation witnesses still replay.
#[test]
fn partial_order_reduction_preserves_existence_verdicts() {
    let registry = conformance_registry();
    for &n in fixtures::SMALL_NS {
        for name in registry.names() {
            let entry = registry.get(&name).expect("listed name resolves");
            if entry.info().min_n > n {
                continue;
            }
            let alg = registry.resolve_str(&name, n).expect("resolves").automaton;
            let plain = explore(alg.as_ref(), &ExploreConfig::default());
            let por = explore(alg.as_ref(), &cfg_with(|c| c.por = true));
            assert!(!por.truncated, "{name} n={n}");
            assert!(por.states <= plain.states, "{name} n={n}");
            assert_eq!(
                por.violation.is_some(),
                plain.violation.is_some(),
                "{name} n={n}: POR must preserve the safety verdict"
            );
            assert_eq!(
                por.hazard.is_some(),
                plain.hazard.is_some(),
                "{name} n={n}: POR must preserve hazard existence"
            );
            if let Some(v) = &por.violation {
                let dref = DynRef(alg.as_ref());
                let sys = replay(&dref, v.trace.steps(), |_| {}).expect("witness replays");
                assert_eq!(sys.in_critical().count(), 2, "{name} n={n}");
            }
        }
    }
}

/// Fingerprint compression is a representation change only: every
/// field of the report except `fingerprinted` is bit-identical to the
/// plain run.
#[test]
fn compression_changes_no_verdict() {
    let registry = conformance_registry();
    for name in ["splitter", "peterson", "tas-sim", "broken", "bakery"] {
        let alg = registry.resolve_str(name, 3).expect("resolves").automaton;
        let plain = explore(alg.as_ref(), &ExploreConfig::default());
        let alt = explore(alg.as_ref(), &cfg_with(|c| c.compress = true));
        assert_eq!(alt.states, plain.states, "{name}");
        assert_eq!(alt.edges, plain.edges, "{name}");
        assert_eq!(alt.depth, plain.depth, "{name}");
        assert_eq!(alt.violation, plain.violation, "{name}");
        assert_eq!(alt.hazard, plain.hazard, "{name}");
        assert!(alt.fingerprinted && !plain.fingerprinted, "{name}");
    }
}

/// Records the most states any BFS layer expanded.
struct WidestLayer(usize);

impl Probe for WidestLayer {
    fn record(&mut self, ev: &TraceEvent) {
        if let TraceEvent::Layer { expanded, .. } = *ev {
            self.0 = self.0.max(expanded);
        }
    }
}

/// Reduced explorations stay worker-count independent: the layer
/// barrier plus canonical representatives make states, depth and
/// verdicts a pure function of the algorithm and bounds.
#[test]
fn reduced_verdicts_are_worker_count_independent() {
    let registry = conformance_registry();
    // A layer gets one worker per `GRAIN` states, so the n = 3 layers
    // run on one thread at every worker count. splitter-gate's reduced
    // layers at n = 7 reach almost 2,000 states, so its 2- and 4-worker
    // builds canonicalize and intern on spawned threads.
    let mut widest = 0;
    for (name, n) in [("splitter", 3), ("splitter-gate", 3), ("splitter-gate", 7)] {
        let alg = registry.resolve_str(name, n).expect("resolves").automaton;
        let mut probe = WidestLayer(0);
        let base = explore_probed(alg.as_ref(), &cfg_with(|c| c.workers = 1), &mut probe);
        widest = widest.max(probe.0);
        for workers in [2, 4] {
            let alt = explore(alg.as_ref(), &cfg_with(|c| c.workers = workers));
            let at = format!("{name} n={n} workers={workers}");
            assert_eq!(alt.states, base.states, "{at}");
            assert_eq!(alt.edges, base.edges, "{at}");
            assert_eq!(alt.depth, base.depth, "{at}");
            assert_eq!(alt.dedup_hits, base.dedup_hits, "{at}");
            assert_eq!(
                alt.hazard.as_ref().map(|h| (h.kind, h.doomed_states)),
                base.hazard.as_ref().map(|h| (h.kind, h.doomed_states)),
                "{at}"
            );
        }
    }
    assert!(widest >= 2 * GRAIN, "widest layer {widest}");
}

/// The node-id budget is a structured error, not an assert: an
/// oversized `max_states` is rejected up front with the actual limit
/// spelled out.
#[test]
fn oversized_state_caps_are_structured_errors() {
    let cfg = cfg_with(|c| c.max_states = usize::MAX);
    let err = cfg.validated().expect_err("must reject");
    assert!(matches!(err, ExploreError::TooManyStates { .. }));
    let msg = err.to_string();
    assert!(
        msg.contains("exceeds the 32-bit node-id limit") && msg.contains("--max-states"),
        "diagnostic must spell out the limit: {msg}"
    );
}

/// The canonicalization contract at one snapshot of a symmetric
/// algorithm, for both `canonicalize_snapshot` and `canonical_perm`.
fn canonicalization_contract(
    alg: &dyn DynAutomaton,
    snap: &Snapshot<DynState>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let n = snap.states().len();
    let (canon, mu) = canonicalize_snapshot(alg, snap);
    // Membership: the representative is μ's image of the input.
    prop_assert_eq!(
        &permute_snapshot(alg, snap, &mu),
        &canon,
        "representative must be the recorded permutation's image"
    );
    // `canonical_perm` is `None` exactly on the identity, and otherwise
    // is the permutation onto the same representative.
    let perm = canonical_perm(alg, snap);
    prop_assert_eq!(perm.is_none(), mu.is_identity());
    if let Some(perm) = &perm {
        prop_assert_eq!(&permute_snapshot(alg, snap, perm), &canon);
    }
    // Idempotence.
    let (again, sigma) = canonicalize_snapshot(alg, &canon);
    prop_assert_eq!(
        &again,
        &canon,
        "canonicalizing a canonical snapshot moves it"
    );
    prop_assert!(sigma.is_identity());
    prop_assert!(canonical_perm(alg, &canon).is_none());
    // Invariance under a random relabelling.
    let pi = random_perm(n, seed ^ 0x9e3779b97f4a7c15);
    let permuted = permute_snapshot(alg, snap, &pi);
    let (canon2, _) = canonicalize_snapshot(alg, &permuted);
    prop_assert_eq!(&canon2, &canon, "whole orbit must share one representative");
    let onto = canonical_perm(alg, &permuted).unwrap_or_else(|| Perm::identity(n));
    prop_assert_eq!(&permute_snapshot(alg, &permuted, &onto), &canon);
    Ok(())
}

/// Drives a seeded random walk of `cut` steps and returns the system.
fn walk<'a>(dref: &'a DynRef<'a>, _n: usize, seed: u64, cut: usize) -> System<'a, DynRef<'a>> {
    let mut sched = Random::new(seed);
    let mut sys = System::new(dref);
    let mut table = ViewTable::new(&sys, 1, sched.wants_step_previews());
    for step in 0..cut {
        let ctx = SchedContext {
            step,
            target_passages: 1,
            views: table.views(),
        };
        let Some(p) = sched.pick(&ctx) else { break };
        table.step(&mut sys, p);
    }
    sys
}

/// A pseudo-random permutation of `0..n` from a seed (Fisher–Yates
/// over a splitmix-style stream).
fn random_perm(n: usize, mut seed: u64) -> Perm {
    let mut map: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        map.swap(i, j);
    }
    Perm::from_map(map)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Along real runs of every symmetric algorithm, canonicalization
    /// is idempotent, permutation-invariant, and returns a
    /// representative that really is the recorded permutation's image
    /// of the input — the exact contract the explorer's transposition
    /// table relies on to merge orbits without merging behaviors. Each
    /// case also checks tas-sim at n = 80, past the process count up to
    /// which `canonical_perm` keeps its buffers on the stack.
    #[test]
    fn canonicalization_is_idempotent_and_permutation_invariant(
        alg_idx in 0usize..5,
        n in 2usize..=4,
        seed in any::<u64>(),
        cut in 0usize..32,
    ) {
        let registry = conformance_registry();
        for (name, n, cut) in [(SYMMETRIC[alg_idx], n, cut), ("tas-sim", 80, 8 * cut)] {
            let alg = registry.resolve_str(name, n).expect("resolves").automaton;
            let dref = DynRef(alg.as_ref());
            let snap = walk(&dref, n, seed, cut).snapshot();
            canonicalization_contract(alg.as_ref(), &snap, seed)?;
        }
    }

    /// The symmetry contract itself, checked dynamically: stepping then
    /// permuting equals permuting then stepping the relabelled process.
    /// (The registry pins each entry's `symmetric` flag to the
    /// automaton's; this pins the flag to the *behavior*.)
    #[test]
    fn declared_symmetry_commutes_with_steps(
        alg_idx in 0usize..5,
        n in 2usize..=4,
        seed in any::<u64>(),
        cut in 0usize..24,
        p_idx in 0usize..4,
    ) {
        let registry = conformance_registry();
        let alg = registry
            .resolve_str(SYMMETRIC[alg_idx], n)
            .expect("resolves")
            .automaton;
        let dref = DynRef(alg.as_ref());
        let sys = walk(&dref, n, seed, cut);
        let snap = sys.snapshot();
        let p = ProcessId::new(p_idx % n);
        let pi = random_perm(n, seed ^ 0xd1b54a32d192ed03);

        // step-then-permute
        let mut a = System::from_snapshot(&dref, &snap);
        a.step(p);
        let stepped_then_permuted = permute_snapshot(alg.as_ref(), &a.snapshot(), &pi);
        // permute-then-step
        let permuted = permute_snapshot(alg.as_ref(), &snap, &pi);
        let mut b = System::from_snapshot(&dref, &permuted);
        b.step(pi.apply(p));
        prop_assert_eq!(
            &stepped_then_permuted,
            &b.snapshot(),
            "relabelling must be a transition-graph automorphism"
        );
    }
}

/// Scripts recorded from reduced counterexample schedules replay
/// deterministically: feeding the schedule back through `Script`
/// reproduces the violating end state of the planted race even when
/// the exploration ran with every reduction knob on.
#[test]
fn reduced_witness_scripts_replay_bit_identically() {
    let registry = conformance_registry();
    let alg = registry
        .resolve_str("broken", 3)
        .expect("resolves")
        .automaton;
    let dref = DynRef(alg.as_ref());
    let cfg = cfg_with(|c| {
        c.por = true;
        c.compress = true;
    });
    let report = explore(alg.as_ref(), &cfg);
    let cex = report.violation.expect("broken must be caught");
    let mut sys = System::new(&dref);
    let mut script = Script::new(cex.schedule.clone());
    for step in 0..cex.schedule.len() {
        let ctx = SchedContext {
            step,
            target_passages: cfg.passages,
            views: &[],
        };
        let p = script.pick(&ctx).expect("script covers the schedule");
        let done = sys.step(p);
        assert_eq!(done.step, cex.trace.steps()[step], "step {step} diverged");
    }
    assert_eq!(sys.in_critical().count(), 2);
}
