//! Integration: the probe layer is observationally free and its output
//! is deterministic. With [`NoProbe`] vs a collecting probe, schedules,
//! costs and reports are bit-identical over the full registry ×
//! scheduler fixture grid; and the collected event stream itself is a
//! pure function of the run — identical across repeated games, fresh
//! vs reused schedulers, and explorer worker counts (mirroring the
//! adversary-determinism suite, which pins the same properties for the
//! unprobed engines).

use exclusion::bound::{force, force_probed, AdaptiveAdversary, BoundConfig};
use exclusion::cost::{run_priced, run_priced_faulted, run_priced_probed};
use exclusion::explore::{
    explore, explore_probed, worst_case, worst_case_probed, ExploreConfig, Model,
};
use exclusion::mutex::AlgorithmRegistry;
use exclusion::shmem::sched::Traced;
use exclusion::shmem::testing::{fixtures, Alternator};
use exclusion::shmem::{DynRef, FaultPlan, NoProbe, TraceEvent};
use exclusion::trace::{chrome_trace, CollectingProbe};
use exclusion::workload::SchedulerRegistry;
use proptest::prelude::*;

const MAX_STEPS: usize = fixtures::MAX_STEPS;

/// The registry algorithms cheap enough for a property grid (the same
/// list `adversary_determinism.rs` sweeps).
const ALGORITHMS: [&str; 8] = [
    "dekker-tree",
    "peterson",
    "bakery",
    "dijkstra",
    "burns-lynch",
    "tas-sim",
    "ttas-sim",
    "ticket",
];

/// Over the full registry × scheduler fixture grid: pricing a run with
/// a collecting probe attached changes nothing — steps, SC/CC/DSM
/// reports, everything — and collecting the same run twice yields the
/// identical event stream.
#[test]
fn probed_runs_match_unprobed_on_the_full_grid() {
    let passages = fixtures::PASSAGES;
    let algs = AlgorithmRegistry::global();
    let scheds = SchedulerRegistry::global();
    for &n in fixtures::SMALL_NS {
        for name in algs.names() {
            // Skip entries below their n floor, and entries that
            // disclaim deadlock-freedom (the splitter locks can strand
            // a sampled run forever; the explorer certifies them).
            if algs
                .get(&name)
                .is_none_or(|e| e.info().min_n > n || !e.info().deadlock_free)
            {
                continue;
            }
            let erased = algs
                .resolve_str(&name, n)
                .expect("registry entry")
                .automaton;
            let alg = DynRef(erased.as_ref());
            for spec in fixtures::sched_specs(n) {
                let sched = scheds.resolve_str(&spec, n).expect("known policy");
                let seeds: &[u64] = if sched.seeded { fixtures::SEEDS } else { &[0] };
                for &seed in seeds {
                    let label = format!("{name} n={n} under {} seed {seed}", sched.label);

                    let mut plain = sched.build(passages, seed);
                    let unprobed = run_priced(&alg, plain.as_mut(), passages, MAX_STEPS)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));

                    let mut collect = CollectingProbe::new();
                    let mut observed = sched.build(passages, seed);
                    let probed = run_priced_probed(
                        &alg,
                        observed.as_mut(),
                        passages,
                        MAX_STEPS,
                        &mut collect,
                    )
                    .unwrap_or_else(|e| panic!("{label}: {e}"));

                    assert_eq!(unprobed, probed, "{label}");
                    assert!(collect.len() >= probed.steps, "{label}");
                    let executed = collect
                        .events()
                        .iter()
                        .filter(|e| matches!(e, TraceEvent::Executed { .. }))
                        .count();
                    assert_eq!(executed, probed.steps, "{label}: one event per step");

                    let mut again = CollectingProbe::new();
                    let mut rerun = sched.build(passages, seed);
                    let _ =
                        run_priced_probed(&alg, rerun.as_mut(), passages, MAX_STEPS, &mut again)
                            .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(collect.events(), again.events(), "{label}");
                }
            }
        }
    }
}

/// `explore` with a probe attached certifies exactly what the unprobed
/// pass certifies, and the layer-event stream is independent of the
/// worker count (layer events are emitted single-threaded at each BFS
/// barrier).
#[test]
fn explore_event_streams_are_worker_count_independent() {
    let registry = AlgorithmRegistry::global();
    let peterson = registry.resolve_str("peterson", 3).unwrap().automaton;
    let alternator = Alternator::new(3);
    let algs: [&(dyn exclusion::shmem::DynAutomaton + Sync); 2] = [peterson.as_ref(), &alternator];
    for alg in algs {
        let base = ExploreConfig {
            passages: 2,
            ..ExploreConfig::default()
        };
        let unprobed = explore(alg, &base);
        let mut streams = Vec::new();
        for workers in [1, 8] {
            let cfg = ExploreConfig { workers, ..base };
            let mut collect = CollectingProbe::new();
            let report = explore_probed(alg, &cfg, &mut collect);
            assert_eq!(report, unprobed, "{} workers={workers}", alg.name());
            assert!(
                collect
                    .events()
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Layer { .. })),
                "{}",
                alg.name()
            );
            streams.push(collect.into_events());
        }
        assert_eq!(streams[0], streams[1], "{}", alg.name());
        assert_eq!(
            chrome_trace(&streams[0]),
            chrome_trace(&streams[1]),
            "{}: byte-identical export",
            alg.name()
        );
    }
}

/// The probed worst-case search returns the unprobed verdict under
/// every cost model, and an unbounded verdict puts a pump event in the
/// stream.
#[test]
fn worst_case_probed_matches_unprobed_for_every_model() {
    let registry = AlgorithmRegistry::global();
    let peterson = registry.resolve_str("peterson", 2).unwrap().automaton;
    let cfg = ExploreConfig::default();
    for model in Model::ALL {
        let unprobed = worst_case(peterson.as_ref(), model, &cfg);
        let mut collect = CollectingProbe::new();
        let probed = worst_case_probed(peterson.as_ref(), model, &cfg, &mut collect);
        assert_eq!(probed.cost.exact(), unprobed.cost.exact(), "{model}");
        assert_eq!(probed.incumbent, unprobed.incumbent, "{model}");
        assert_eq!(probed.nodes, unprobed.nodes, "{model}");
        if model == Model::Sc {
            // Peterson's bouncing spin is pumpable under SC.
            assert!(
                collect
                    .events()
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Pump { .. })),
                "{model}"
            );
        }
    }
}

/// The faulted pricer under a probe: outcome-preserving against the
/// [`NoProbe`] run, one `Crash` and one `Recover` event per injected
/// crash (paired per victim, crash first), and the whole stream — and
/// its Chrome export — byte-identical across repeated games.
#[test]
fn faulted_streams_cover_crash_and_recover_events_deterministically() {
    let registry = AlgorithmRegistry::global();
    for name in ["rtas", "rpeterson"] {
        let alg = registry.resolve_str(name, 3).unwrap().automaton;
        let dyn_ref = DynRef(alg.as_ref());
        let run = |probe: &mut CollectingProbe| {
            let mut sched = AdaptiveAdversary::new(7);
            let mut plan = FaultPlan::in_critical(2);
            run_priced_faulted(&dyn_ref, &mut sched, &mut plan, 1, 1_000_000, probe).unwrap()
        };

        let mut sched = AdaptiveAdversary::new(7);
        let mut plan = FaultPlan::in_critical(2);
        let unprobed =
            run_priced_faulted(&dyn_ref, &mut sched, &mut plan, 1, 1_000_000, NoProbe).unwrap();

        let mut first = CollectingProbe::new();
        let a = run(&mut first);
        assert_eq!(a, unprobed, "{name}: probe is observationally free");
        assert!(a.crashes > 0, "{name}: the plan found a CS occupant");

        let crashes: Vec<_> = first
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Crash { index, pid } => Some((*index, *pid)),
                _ => None,
            })
            .collect();
        let recovers: Vec<_> = first
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Recover { index, pid } => Some((*index, *pid)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), a.crashes, "{name}: one Crash event each");
        assert_eq!(recovers.len(), a.crashes, "{name}: one Recover event each");
        // Each Recover is the victim's first post-crash step: same pid,
        // strictly later index, in the same order the crashes landed.
        for (&(ci, cp), &(ri, rp)) in crashes.iter().zip(&recovers) {
            assert_eq!(cp, rp, "{name}: recovery pairs its crash victim");
            assert!(ri > ci, "{name}: recovery follows the crash");
        }

        let mut second = CollectingProbe::new();
        let b = run(&mut second);
        assert_eq!(a, b, "{name}");
        assert_eq!(first.events(), second.events(), "{name}");
        assert_eq!(
            chrome_trace(first.events()),
            chrome_trace(second.events()),
            "{name}: byte-identical export"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Playing the full adversary game with a collecting probe neither
    /// changes the outcome nor wavers: two probed games produce the
    /// same `ForcedRun`, the same event stream, and byte-identical
    /// Chrome exports (span wall-clocks are excluded from both event
    /// equality and the export).
    #[test]
    fn probed_games_are_reproducible_and_outcome_preserving(
        alg_idx in 0..ALGORITHMS.len(),
        n in 2usize..8,
        seed in any::<u64>(),
    ) {
        let registry = AlgorithmRegistry::global();
        let alg = registry.resolve_str(ALGORITHMS[alg_idx], n).unwrap().automaton;
        let cfg = BoundConfig { seed, ..BoundConfig::default() };
        let unprobed = force(alg.as_ref(), &cfg);
        let mut first = CollectingProbe::new();
        let a = force_probed(alg.as_ref(), &cfg, &mut first);
        let mut second = CollectingProbe::new();
        let b = force_probed(alg.as_ref(), &cfg, &mut second);
        prop_assert_eq!(&a, &unprobed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(first.events(), second.events());
        prop_assert_eq!(chrome_trace(first.events()), chrome_trace(second.events()));
    }

    /// A reused probed adversary replays its schedule and its event
    /// stream from the top — per-run state (awareness partition,
    /// valve clocks) resets at step 0, and the probe sees the same
    /// merges again.
    #[test]
    fn reused_probed_adversaries_replay_their_event_streams(
        alg_idx in 0..ALGORITHMS.len(),
        n in 2usize..8,
        seed in any::<u64>(),
    ) {
        let registry = AlgorithmRegistry::global();
        let alg = registry.resolve_str(ALGORITHMS[alg_idx], n).unwrap().automaton;
        let dyn_ref = DynRef(alg.as_ref());
        let mut collect = CollectingProbe::new();
        let mut sched = Traced::new(AdaptiveAdversary::new(seed).with_probe(&mut collect));
        let priced_first = run_priced(&dyn_ref, &mut sched, 1, 1_000_000).unwrap();
        let first_picks = sched.picks().to_vec();
        let priced_again = run_priced(&dyn_ref, &mut sched, 1, 1_000_000).unwrap();
        drop(sched);
        prop_assert_eq!(&priced_first, &priced_again);
        let events = collect.into_events();
        prop_assert_eq!(events.len() % 2, 0, "two identical halves");
        let (one, two) = events.split_at(events.len() / 2);
        prop_assert_eq!(one, two);
        prop_assert!(!first_picks.is_empty());
    }
}
