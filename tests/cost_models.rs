//! Integration: cost-model relations across the suite.

use exclusion::cost::{all_costs, cc_cost, dsm_cost, sc_cost};
use exclusion::mutex::{AlgorithmInfo, AlgorithmRegistry, Bakery, DekkerTournament, Filter};
use exclusion::shmem::sched::{run_random, run_sequential};
use exclusion::shmem::{Automaton, DynRef, Execution, ProcessId};

fn canonical<A: Automaton>(alg: &A) -> Execution {
    let order: Vec<_> = ProcessId::all(alg.processes()).collect();
    run_sequential(alg, &order, 10_000_000).expect("canonical run")
}

#[test]
fn canonical_growth_separates_the_classes() {
    // Θ(n log n) vs Θ(n²): at n = 32 the tournament must be strictly
    // cheaper than every scanner; by n = 64 decisively so.
    for n in [32usize, 64] {
        let tournament = sc_cost(
            &DekkerTournament::new(n),
            &canonical(&DekkerTournament::new(n)),
        )
        .unwrap()
        .total();
        let bakery = sc_cost(&Bakery::new(n), &canonical(&Bakery::new(n)))
            .unwrap()
            .total();
        assert!(
            2 * tournament < bakery,
            "n = {n}: tournament {tournament} vs bakery {bakery}"
        );
    }
}

#[test]
fn filter_is_cubic() {
    let c8 = sc_cost(&Filter::new(8), &canonical(&Filter::new(8)))
        .unwrap()
        .total();
    let c16 = sc_cost(&Filter::new(16), &canonical(&Filter::new(16)))
        .unwrap()
        .total();
    // Doubling n multiplies a cubic cost by ~8; allow slack for the
    // lower-order terms.
    assert!(
        c16 >= 6 * c8,
        "filter: c8 = {c8}, c16 = {c16} — expected ~8x growth"
    );
}

#[test]
fn sc_dominates_cc_when_spins_change_state() {
    // Peterson's alternating two-register spin changes state on every
    // read, so SC ≥ CC under contention.
    let alg = exclusion::mutex::Peterson::new(4);
    for seed in 0..10 {
        let exec = run_random(&alg, 2, 50_000_000, seed).unwrap();
        let (sc, cc, _) = all_costs(&alg, &exec).unwrap();
        assert!(sc.total() >= cc.total(), "seed {seed}");
    }
}

#[test]
fn cc_dominates_sc_for_single_register_spins() {
    // Dekker-tree's spins are free under SC once parked, but each
    // armed spin still pays one CC miss; the two models stay within a
    // small factor on canonical runs.
    let alg = DekkerTournament::new(16);
    let exec = canonical(&alg);
    let (sc, cc, _) = all_costs(&alg, &exec).unwrap();
    assert_eq!(
        sc.total(),
        cc.total(),
        "no contention: both charge every access"
    );
}

#[test]
fn dsm_homes_reduce_cost_for_local_protocols() {
    for n in [4usize, 8] {
        let alg = Bakery::new(n);
        let exec = canonical(&alg);
        let sc = sc_cost(&alg, &exec).unwrap().total();
        let dsm = dsm_cost(&alg, &exec).unwrap().total();
        assert!(dsm < sc, "n = {n}: dsm {dsm} < sc {sc}");
    }
}

#[test]
fn per_process_budgets_are_consistent() {
    for r in AlgorithmRegistry::global().resolve_where(6, AlgorithmInfo::paper_lock) {
        let alg = DynRef(r.automaton.as_ref());
        let exec = canonical(&alg);
        let sc = sc_cost(&alg, &exec).unwrap();
        let total: usize = ProcessId::all(6).map(|p| sc.process(p)).sum();
        assert_eq!(total, sc.total(), "{}", alg.name());
        let cc = cc_cost(&alg, &exec).unwrap();
        assert!(cc.max_process() * 6 >= cc.total(), "{}", alg.name());
    }
}
