//! The adversary against ground truth, where ground truth exists: at
//! n ∈ {2, 3} the exhaustive engine (`exclusion-explore`, PR 4)
//! computes the *exact* SC supremum, so the adaptive adversary's forced
//! cost can be sandwiched — it must dominate the greedy incumbent the
//! exhaustive search starts from, and (being a real, replayable
//! schedule) it can never exceed the exact optimum. Where the supremum
//! is finite the forced cost is pinned cell by cell; where it is
//! unbounded (remote spins, pumpable forever) the adversary's finite
//! fair-execution cost strictly beats the incumbent instead.
//!
//! Every witness schedule must also replay bit-identically through the
//! streaming pricer: the same `Script` driven twice produces the same
//! `PricedRun`, equal to the costs the game recorded.

use exclusion::bound::{force, register_only, BoundConfig, SC};
use exclusion::cost::run_priced;
use exclusion::explore::{worst_case, ExploreConfig, Model};
use exclusion::mutex::registry::AlgorithmRegistry;
use exclusion::shmem::DynRef;

/// `incumbent ≤ forced ≤ exact` for every register-only algorithm at
/// every exhaustively-searchable size; the upper bound is vacuous for
/// the unbounded (remote-spin) cells, where the forced cost must
/// instead be a finite value the fair game extracted.
#[test]
fn forced_cost_is_sandwiched_by_the_exhaustive_search() {
    let registry = AlgorithmRegistry::global();
    let cfg = BoundConfig::default();
    let xcfg = ExploreConfig::default();
    for name in register_only(AlgorithmRegistry::global()) {
        for n in [2usize, 3] {
            let alg = registry.resolve_str(&name, n).unwrap().automaton;
            let run = force(alg.as_ref(), &cfg);
            assert!(run.completed(), "{name} n={n}");
            let worst = worst_case(alg.as_ref(), Model::Sc, &xcfg);
            assert!(
                run.forced[SC] >= worst.incumbent,
                "{name} n={n}: forced {} below the exhaustive incumbent {}",
                run.forced[SC],
                worst.incumbent
            );
            match worst.cost.exact() {
                Some(exact) => assert!(
                    run.forced[SC] <= exact,
                    "{name} n={n}: forced {} exceeds the exact supremum {exact} — \
                     the adversary plays real schedules and cannot pass the optimum",
                    run.forced[SC]
                ),
                None => assert!(
                    run.steps > 0,
                    "{name} n={n}: unbounded cell must still yield a finite fair run"
                ),
            }
        }
    }
}

/// The cells where the sandwich closes completely: the adversary's
/// forced SC cost *equals* the exhaustive exact optimum. Bakery's
/// worst case is reachable by charged-steps-first play at both sizes;
/// dekker-tree's is at n = 2 (at n = 3 the optimum takes a
/// lookahead — donating a free step to set up two charged ones — that
/// no myopic strategy finds; the honest gap, 33 of 43, is pinned
/// below).
#[test]
fn forced_cost_equals_the_exact_optimum_where_pinned() {
    let registry = AlgorithmRegistry::global();
    let cfg = BoundConfig::default();
    let xcfg = ExploreConfig::default();
    for (name, n) in [("bakery", 2), ("bakery", 3), ("dekker-tree", 2)] {
        let alg = registry.resolve_str(name, n).unwrap().automaton;
        let run = force(alg.as_ref(), &cfg);
        let worst = worst_case(alg.as_ref(), Model::Sc, &xcfg);
        assert_eq!(
            Some(run.forced[SC]),
            worst.cost.exact(),
            "{name} n={n}: the adversary reaches the exhaustive optimum"
        );
    }
    // The pinned gap: dekker-tree n=3 exact is 43, the myopic
    // adversary forces 33. If a future strategy closes this, tighten
    // the pin — do not widen it.
    let alg = registry.resolve_str("dekker-tree", 3).unwrap().automaton;
    let run = force(alg.as_ref(), &cfg);
    let worst = worst_case(alg.as_ref(), Model::Sc, &xcfg);
    assert_eq!(worst.cost.exact(), Some(43));
    assert!(
        (33..=43).contains(&run.forced[SC]),
        "dekker-tree n=3: forced {} left the pinned [33, 43] bracket",
        run.forced[SC]
    );
}

/// The witness `Script` trace replays bit-identically through the
/// streaming pricer: two replays agree with each other and with the
/// costs the game recorded, under every cost model — at the
/// exhaustively searchable sizes and on past them to n = 16.
#[test]
fn witness_scripts_replay_bit_identically_through_run_priced() {
    let registry = AlgorithmRegistry::global();
    let cfg = BoundConfig::default();
    for name in register_only(AlgorithmRegistry::global()) {
        for n in [2usize, 3, 4, 8, 16] {
            let alg = registry.resolve_str(&name, n).unwrap().automaton;
            let run = force(alg.as_ref(), &cfg);
            assert!(run.completed(), "{name} n={n}: {:?}", run.errors);
            let dyn_ref = DynRef(alg.as_ref());
            let once = run_priced(&dyn_ref, &mut run.script(), cfg.passages, run.steps + 1)
                .unwrap_or_else(|e| panic!("{name} n={n}: witness replay failed: {e}"));
            let twice =
                run_priced(&dyn_ref, &mut run.script(), cfg.passages, run.steps + 1).unwrap();
            assert_eq!(once, twice, "{name} n={n}: replay must be deterministic");
            assert_eq!(once.steps, run.steps, "{name} n={n}");
            assert_eq!(once.sc.total(), run.forced[SC], "{name} n={n}");
            // The SC winner's whole cost vector matches the recorded
            // per-strategy costs of whichever strategy won.
            let winner_costs = if run.winner[SC] == "fanlynch" {
                run.adaptive
            } else {
                run.greedy
            };
            assert_eq!(
                [once.sc.total(), once.cc.total(), once.dsm.total()],
                winner_costs,
                "{name} n={n}: witness costs must match the winner's record"
            );
        }
    }
}
