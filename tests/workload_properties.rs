//! Integration: cross-suite properties of the scenario engine — every
//! algorithm stays safe under every scheduler, the greedy adversary
//! dominates the baselines it exists to beat, and parallel sweeps are
//! deterministic.

use exclusion::cost::sc_cost;
use exclusion::mutex::{AlgorithmInfo, AlgorithmRegistry, DekkerTournament, ResolvedAlgorithm};
use exclusion::shmem::sched::{
    run_random, run_scheduler, run_sequential, Burst, GreedyAdversary, Random, RoundRobin,
    Sequential, Stagger,
};
use exclusion::shmem::{Automaton, DynRef, ProcessId, Scheduler};
use exclusion::workload::{sweep, Scenario, SchedSpec, SweepOptions, JSON_SCHEMA};
use proptest::prelude::*;

/// The paper's locks (registry entries that are register-only,
/// deadlock-free and not crash-recoverable) at `n` processes, in
/// report order.
fn paper_locks(n: usize) -> Vec<ResolvedAlgorithm> {
    AlgorithmRegistry::global().resolve_where(n, AlgorithmInfo::paper_lock)
}

/// One of every scheduler, configured for `n` processes and `passages`
/// passages (the sequential order is repeated so it, too, reaches the
/// target).
fn all_schedulers(n: usize, passages: usize, seed: u64) -> Vec<Box<dyn Scheduler>> {
    let mut order: Vec<ProcessId> = Vec::new();
    for _ in 0..passages {
        order.extend(ProcessId::all(n));
    }
    vec![
        Box::new(Sequential::new(order)),
        Box::new(RoundRobin::new()),
        Box::new(Random::new(seed)),
        Box::new(GreedyAdversary::new()),
        Box::new(Burst::new(n.div_ceil(2), 2 * n)),
        Box::new(Stagger::stride(n, 2 * n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any suite algorithm, any size, any seed, under *every* scheduler
    /// (the three refactored drivers and the three adversarial ones):
    /// runs terminate, stay well formed, preserve mutual exclusion, and
    /// complete exactly the requested passages.
    #[test]
    fn every_scheduler_preserves_safety_on_every_algorithm(
        n in 2usize..=5,
        alg_idx in 0usize..6,
        seed in any::<u64>(),
        passages in 1usize..=2,
    ) {
        let r = paper_locks(n).remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        for mut sched in all_schedulers(n, passages, seed) {
            let exec = run_scheduler(&alg, sched.as_mut(), passages, 50_000_000)
                .map_err(|e| TestCaseError::fail(
                    format!("{} under {}: {e}", alg.name(), sched.name()),
                ))?;
            prop_assert!(exec.well_formed(n), "{} under {}", alg.name(), sched.name());
            prop_assert!(exec.mutual_exclusion(n), "{} under {}", alg.name(), sched.name());
            prop_assert_eq!(
                exec.critical_order().len(),
                n * passages,
                "{} under {}",
                alg.name(),
                sched.name()
            );
        }
    }
}

/// The adversary never extracts *less* SC cost than the canonical
/// (no-contention) sequential run — contention only adds state changes.
#[test]
fn greedy_adversary_never_extracts_less_than_canonical() {
    for n in [2usize, 3, 4, 6, 8] {
        for r in paper_locks(n) {
            let alg = DynRef(r.automaton.as_ref());
            let order: Vec<_> = ProcessId::all(n).collect();
            let seq = run_sequential(&alg, &order, 1_000_000).expect("canonical run");
            let seq_sc = sc_cost(&alg, &seq).expect("replay").total();
            let adv = run_scheduler(&alg, &mut GreedyAdversary::new(), 1, 50_000_000)
                .unwrap_or_else(|e| panic!("{} n={n}: {e}", alg.name()));
            let adv_sc = sc_cost(&alg, &adv).expect("replay").total();
            assert!(
                adv_sc >= seq_sc,
                "{} n={n}: adversary {adv_sc} < sequential {seq_sc}",
                alg.name()
            );
        }
    }
}

/// The acceptance bar for the greedy adversary: on the tournament lock
/// at n = 8 it extracts at least as much SC cost as the random fair
/// scheduler manages on any of a 16-seed grid, for 1 and 2 passages.
#[test]
fn greedy_beats_every_random_schedule_on_dekker_n8() {
    let alg = DekkerTournament::new(8);
    for passages in [1usize, 2] {
        let adv = run_scheduler(&alg, &mut GreedyAdversary::new(), passages, 50_000_000)
            .expect("adversary run");
        let adv_sc = sc_cost(&alg, &adv).expect("replay").total();
        for seed in 0..16u64 {
            let rnd = run_random(&alg, passages, 50_000_000, seed).expect("random run");
            let rnd_sc = sc_cost(&alg, &rnd).expect("replay").total();
            assert!(
                adv_sc >= rnd_sc,
                "passages={passages} seed={seed}: adversary {adv_sc} < random {rnd_sc}"
            );
        }
    }
}

/// A sharded sweep is a pure function of its scenario grid: thread
/// count changes nothing, and the JSON report carries the schema tag.
#[test]
fn sweeps_are_deterministic_and_reportable() {
    let scenarios: Vec<Scenario> = ["dekker-tree", "burns-lynch"]
        .into_iter()
        .flat_map(|alg| {
            [
                SchedSpec::greedy(),
                SchedSpec::random(),
                SchedSpec::stagger(8),
            ]
            .into_iter()
            .map(move |sched| {
                Scenario::builder(alg, 4)
                    .passages(2)
                    .sched(sched)
                    .seeds(1..=4)
                    .build()
                    .expect("valid")
            })
        })
        .collect();
    let opts = |threads| SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let serial = sweep(&scenarios, &opts(1));
    let sharded = sweep(&scenarios, &opts(4));
    assert_eq!(serial, sharded);
    assert_eq!(serial.to_json(), sharded.to_json());
    assert!(serial.to_json().contains(JSON_SCHEMA));
    assert_eq!(
        serial.to_csv().lines().count(),
        serial.records.len() + 1,
        "CSV: header plus one line per record"
    );
    // 2 algorithms × (greedy 1 + random 4 + stagger 4) runs.
    assert_eq!(serial.records.len(), 18);
    assert!(serial.records.iter().all(|r| r.error.is_none()));
}

/// One pinned digest per (algorithm, n, scheduler) of the sweep grid.
#[rustfmt::skip]
const PINNED_SWEEP_DIGESTS: &[(&str, usize, &str, u64)] = &[
    ("dekker-tree", 8, "greedy-adversary", 0xf41cb9c85be71670),
    ("dekker-tree", 8, "random", 0x200e2a5821ee22d9),
    ("dekker-tree", 8, "burst:wave=4,gap=16", 0x55cf30868d2c44ed),
    ("dekker-tree", 16, "greedy-adversary", 0x10e394e67a152c16),
    ("dekker-tree", 16, "random", 0x908153bc030c4568),
    ("dekker-tree", 16, "burst:wave=8,gap=32", 0xb13d0d13f4e38b5a),
    ("dekker-tree", 32, "greedy-adversary", 0x501556c2e57a5112),
    ("dekker-tree", 32, "random", 0x27dcac0e656c30cd),
    ("dekker-tree", 32, "burst:wave=16,gap=64", 0xaf2e8d9ed54c271a),
    ("dekker-tree", 64, "greedy-adversary", 0x627f94bf2b5cbde7),
    ("dekker-tree", 64, "random", 0x155c06c685f93040),
    ("dekker-tree", 64, "burst:wave=32,gap=128", 0x720b69c38157522f),
    ("peterson", 8, "greedy-adversary", 0x4b69c60f932f2ea7),
    ("peterson", 8, "random", 0xb6865a6912b82585),
    ("peterson", 8, "burst:wave=4,gap=16", 0x3f663148bdaa8fd0),
    ("peterson", 16, "greedy-adversary", 0x977c03d45ccdfc6e),
    ("peterson", 16, "random", 0x6038b4acaa00b82c),
    ("peterson", 16, "burst:wave=8,gap=32", 0x9e566fd9001f2604),
    ("peterson", 32, "greedy-adversary", 0xed546ba32ce8f85d),
    ("peterson", 32, "random", 0x1cb1edd72733b0b0),
    ("peterson", 32, "burst:wave=16,gap=64", 0xbc29b3363a2ac271),
    ("peterson", 64, "greedy-adversary", 0x44ac876003c47c92),
    ("peterson", 64, "random", 0x1b9d175f5113ed84),
    ("peterson", 64, "burst:wave=32,gap=128", 0x070a94b97f20a865),
];

/// The sweep's rows over dekker-tree and peterson at n ∈ {8, 16, 32,
/// 64}, under greedy, random and burst (wave ⌈n/2⌉, gap 2n), seeds 1–4,
/// two passages: no run fails, and every record's steps, SC/CC/DSM
/// totals and failure flag are pinned by an FNV-1a digest per scenario.
#[test]
fn sweep_outputs_match_their_pinned_digests() {
    let mut scenarios = Vec::new();
    for alg in ["dekker-tree", "peterson"] {
        for n in [8usize, 16, 32, 64] {
            for sched in [
                SchedSpec::greedy(),
                SchedSpec::random(),
                SchedSpec::burst(n.div_ceil(2), 2 * n),
            ] {
                scenarios.push(
                    Scenario::builder(alg, n)
                        .passages(2)
                        .sched(sched)
                        .seeds(1..=4)
                        .build()
                        .expect("valid"),
                );
            }
        }
    }
    let report = sweep(&scenarios, &SweepOptions::default());
    // Records come in grid order: each scenario's effective seeds in turn.
    let mut records = report.records.iter();
    let mut got: Vec<(&str, usize, String, u64)> = Vec::new();
    for (scenario, summary) in scenarios.iter().zip(&report.summaries) {
        assert_eq!(summary.failures, 0, "{}", summary.scenario);
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for r in records.by_ref().take(scenario.effective_seeds().len()) {
            for x in [r.steps, r.sc, r.cc, r.dsm, usize::from(r.error.is_some())] {
                for b in (x as u64).to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        got.push((&summary.algorithm, summary.n, summary.scheduler.clone(), h));
    }
    let table: String = got
        .iter()
        .map(|(alg, n, sched, d)| format!("    (\"{alg}\", {n}, \"{sched}\", {d:#018x}),\n"))
        .collect();
    assert!(
        got.iter()
            .map(|(alg, n, sched, d)| (*alg, *n, sched.as_str(), *d))
            .eq(PINNED_SWEEP_DIGESTS.iter().copied()),
        "sweep output changed; digests now:\n{table}"
    );
}
