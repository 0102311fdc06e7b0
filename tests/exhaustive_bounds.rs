//! Cross-engine bounds: the exhaustive worst-case search dominates
//! every sampled adversary and every canonical execution of the paper's
//! construction, its exact values are pinned at small `n`, and its
//! witnesses are executable — finite witnesses replay to exactly the
//! exact cost via `run_priced`, unbounded verdicts pump.
//!
//! The sampled side sweeps the shared small-`n` fixture grid
//! (`shmem::testing::fixtures`): the same scheduler specs and seeds the
//! streaming-equivalence suite uses.

use exclusion::cost::run_priced;
use exclusion::explore::{conformance_registry, worst_case, ExploreConfig, Model, WorstCost};
use exclusion::lb::{construct, ConstructConfig, Permutation};
use exclusion::shmem::sched::{run_scheduler, Script};
use exclusion::shmem::testing::fixtures;
use exclusion::shmem::{DynRef, ProcessId};
use exclusion::workload::SchedulerRegistry;

/// Pinned exact worst-case costs at passages = 1 for the register-only
/// suite. `None` means unbounded (the adversary can pump a chargeable
/// busy-wait forever — remote spins under SC, uncached re-reads under
/// CC).
const PINNED: &[(&str, Model, usize, Option<usize>)] = &[
    ("dekker-tree", Model::Sc, 2, Some(15)),
    ("dekker-tree", Model::Sc, 3, Some(43)),
    ("peterson", Model::Sc, 2, None),
    ("peterson", Model::Sc, 3, None),
    ("bakery", Model::Sc, 2, Some(16)),
    ("bakery", Model::Sc, 3, Some(33)),
    ("filter", Model::Sc, 2, None),
    ("filter", Model::Sc, 3, None),
    ("dijkstra", Model::Sc, 2, None),
    ("dijkstra", Model::Sc, 3, None),
    ("burns-lynch", Model::Sc, 2, None),
    ("burns-lynch", Model::Sc, 3, None),
    ("dekker-tree", Model::Cc, 2, Some(15)),
    ("dekker-tree", Model::Cc, 3, Some(44)),
    ("peterson", Model::Cc, 2, Some(10)),
    ("peterson", Model::Cc, 3, Some(30)),
    ("bakery", Model::Cc, 2, Some(18)),
    ("bakery", Model::Cc, 3, Some(38)),
    ("filter", Model::Cc, 2, Some(10)),
    ("filter", Model::Cc, 3, Some(32)),
    ("dijkstra", Model::Cc, 2, None),
    ("dijkstra", Model::Cc, 3, None),
    ("burns-lynch", Model::Cc, 2, None),
    ("burns-lynch", Model::Cc, 3, None),
];

/// The best cost any sampled scheduler of the fixture grid extracts.
fn best_sampled(alg: &exclusion::mutex::DynAlgorithm, n: usize, model: Model) -> usize {
    let scheds = SchedulerRegistry::global();
    let mut best = 0;
    for spec in fixtures::sched_specs(n) {
        let sched = scheds.resolve_str(&spec, n).expect("fixture spec resolves");
        let seeds: &[u64] = if sched.seeded { fixtures::SEEDS } else { &[0] };
        for &seed in seeds {
            let mut live = sched.build(1, seed);
            let priced = run_priced(&DynRef(alg.as_ref()), live.as_mut(), 1, fixtures::MAX_STEPS)
                .expect("sampled run completes");
            best = best.max(model.total_of(&priced));
        }
    }
    best
}

#[test]
fn exact_worst_case_dominates_every_sampled_adversary() {
    let registry = conformance_registry();
    let cfg = ExploreConfig::default();
    for &n in fixtures::SMALL_NS {
        for name in ["dekker-tree", "peterson", "bakery", "filter"] {
            let alg = registry.resolve_str(name, n).expect("resolves").automaton;
            for model in Model::ALL {
                let report = worst_case(alg.as_ref(), model, &cfg);
                assert!(!report.truncated, "{name} n={n} {model}");
                let sampled = best_sampled(&alg, n, model);
                match &report.cost {
                    WorstCost::Exact { cost, .. } => {
                        assert!(
                            *cost >= sampled,
                            "{name} n={n} {model}: exact {cost} < sampled {sampled}"
                        );
                        assert!(
                            *cost >= report.incumbent,
                            "{name} n={n} {model}: exact below greedy incumbent"
                        );
                    }
                    // An unbounded supremum dominates every sample; the
                    // pump witness is exercised below.
                    WorstCost::Unbounded { .. } => {}
                    WorstCost::Unknown => panic!("{name} n={n} {model}: no verdict"),
                }
            }
        }
    }
}

#[test]
fn exact_witness_schedules_replay_to_the_exact_cost_via_run_priced() {
    let registry = conformance_registry();
    let cfg = ExploreConfig::default();
    for &(name, model, n, expected) in PINNED {
        let alg = registry.resolve_str(name, n).expect("resolves").automaton;
        let report = worst_case(alg.as_ref(), model, &cfg);
        match (expected, &report.cost) {
            (Some(pinned), WorstCost::Exact { cost, schedule }) => {
                assert_eq!(*cost, pinned, "{name} n={n} {model}: exact value drifted");
                // Replaying the witness through the streaming pricer
                // (exactly the engine the sweeps use) completes every
                // passage and reproduces the optimum step for step.
                let dref = DynRef(alg.as_ref());
                let priced = run_priced(
                    &dref,
                    &mut Script::new(schedule.clone()),
                    1,
                    schedule.len() + 1,
                )
                .expect("witness schedule runs");
                assert_eq!(
                    priced.completed, n,
                    "{name} n={n} {model}: witness stops short"
                );
                assert_eq!(priced.steps, schedule.len(), "{name} n={n} {model}");
                assert_eq!(
                    model.total_of(&priced),
                    pinned,
                    "{name} n={n} {model}: witness does not replay to the optimum"
                );
            }
            (None, WorstCost::Unbounded { prefix, cycle }) => {
                // Pump the cycle: each lap adds the same positive
                // charge, so the supremum is genuinely infinite. A
                // pumped prefix stops short of completion on purpose.
                let price = |laps: usize| {
                    let mut picks = prefix.clone();
                    for _ in 0..laps {
                        picks.extend_from_slice(cycle);
                    }
                    let len = picks.len();
                    let priced = run_priced(&DynRef(alg.as_ref()), &mut Script::new(picks), 1, len)
                        .expect("pump runs");
                    model.total_of(&priced)
                };
                let (zero, one, two) = (price(0), price(1), price(2));
                assert!(one > zero, "{name} n={n} {model}: cycle adds no charge");
                // Each lap adds the same charge (subtraction-free so a
                // regression fails the assert instead of underflowing).
                assert_eq!(two + zero, 2 * one, "{name} n={n} {model}");
            }
            (want, got) => panic!("{name} n={n} {model}: pinned {want:?}, got {got:?}"),
        }
    }
}

/// DSM charges every remote access, so *any* algorithm without a fully
/// local spin is pumpable — the registry's register-only suite at n = 2
/// is unbounded across the board, which is exactly why the paper's
/// remote-memory-reference discussion needs local-spin constructions.
#[test]
fn dsm_worst_cases_are_unbounded_for_the_register_only_suite() {
    let registry = conformance_registry();
    let cfg = ExploreConfig::default();
    for name in ["dekker-tree", "peterson", "bakery", "burns-lynch"] {
        let alg = registry.resolve_str(name, 2).expect("resolves").automaton;
        let report = worst_case(alg.as_ref(), Model::Dsm, &cfg);
        assert!(report.cost.is_unbounded(), "{name}: {:?}", report.cost);
    }
}

/// The paper's own executions join the chain. For every π at n = 2 and
/// 3, the deterministic linearization α_π of `construct(π)` replays
/// step for step through `Script` and `run_priced` (one passage),
/// completes every passage and costs exactly C(α_π) under SC. No α_π
/// costs more than the explorer's exact SC worst case, where that is
/// finite. The largest C(α_π) per row is pinned; bakery's equals its
/// exact worst case.
#[test]
fn canonical_executions_replay_and_stay_below_the_exact_worst_case() {
    const MAX_CANONICAL: &[(&str, usize, usize)] = &[
        ("dekker-tree", 2, 8),
        ("dekker-tree", 3, 24),
        ("bakery", 2, 16),
        ("bakery", 3, 33),
        ("peterson", 2, 8),
        ("peterson", 3, 24),
        ("burns-lynch", 2, 9),
        ("burns-lynch", 3, 18),
    ];
    let registry = conformance_registry();
    let cfg = ExploreConfig::default();
    for &(name, n, pinned) in MAX_CANONICAL {
        let alg = registry.resolve_str(name, n).expect("resolves").automaton;
        let dref = DynRef(alg.as_ref());
        let report = worst_case(alg.as_ref(), Model::Sc, &cfg);
        assert!(!report.truncated, "{name} n={n}");
        let exact = report.cost.exact();
        assert!(
            exact.is_some() || report.cost.is_unbounded(),
            "{name} n={n}"
        );
        let mut max = 0;
        for pi in Permutation::all(n) {
            let c = construct(&dref, &pi, &ConstructConfig::default())
                .unwrap_or_else(|e| panic!("{name} {pi}: {e}"));
            let alpha = c.linearize();
            let picks: Vec<ProcessId> = alpha.iter().map(|s| s.pid()).collect();
            let len = picks.len();
            let priced =
                run_priced(&dref, &mut Script::new(picks.clone()), 1, len + 1).expect("α_π runs");
            assert_eq!(priced.completed, n, "{name} {pi}: α_π stops short");
            assert_eq!(priced.steps, len, "{name} {pi}");
            assert_eq!(Model::Sc.total_of(&priced), c.cost(), "{name} {pi}");
            let replayed =
                run_scheduler(&dref, &mut Script::new(picks), 1, len + 1).expect("α_π runs");
            assert_eq!(replayed, alpha, "{name} {pi}: step for step");
            if let Some(exact) = exact {
                assert!(
                    c.cost() <= exact,
                    "{name} {pi}: C = {} > exact {exact}",
                    c.cost()
                );
            }
            max = max.max(c.cost());
        }
        assert_eq!(max, pinned, "{name} n={n}: largest C(α_π) drifted");
    }
}
