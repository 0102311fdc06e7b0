//! Integration: the streaming cost engine is bit-identical to the
//! replay-based pricers — totals, per-process and per-register
//! breakdowns — for every algorithm of the registry under every
//! scheduling policy and several seeds, **through the erased-state dyn
//! path**: the recorded leg drives the concrete automaton type, the
//! streaming leg drives the registry's `Arc<dyn DynAutomaton>` handle,
//! so one assertion pins streaming == replay *and* dyn == typed at
//! once. On crashed runs of the recoverable locks both computations
//! apply the one CC rule — a crash wipes the victim's cache — and agree
//! too. The incrementally maintained scheduler views must also equal
//! a from-scratch rebuild after every step of an adversarial run driven
//! through the dyn path.

use exclusion::cost::{all_costs, run_priced, CostTracker};
use exclusion::mutex::rmw::{TasSim, TtasSim};
use exclusion::mutex::{
    AlgorithmRegistry, Bakery, BrokenRecover, BurnsLynch, Clh, DekkerTournament, Dijkstra,
    DynAlgorithm, Filter, Mcs, Peterson, RPeterson, RTas, Ticket,
};
use exclusion::shmem::sched::run_scheduler;
use exclusion::shmem::testing::fixtures;
use exclusion::shmem::{
    run_faulted_with, Automaton, DynRef, Execution, FaultPlan, NoProbe, ProcessId, RegisterId,
    Section, System, ViewTable,
};
use exclusion::workload::{SchedSpec, SchedulerRegistry};

const MAX_STEPS: usize = fixtures::MAX_STEPS;

/// The shared small-`n` scheduler grid (`shmem::testing::fixtures`),
/// parsed into specs — the same grid the safety-conformance and
/// exhaustive-bounds suites sweep.
fn all_specs(n: usize) -> Vec<SchedSpec> {
    fixtures::sched_specs(n)
        .iter()
        .map(|s| SchedSpec::parse(s).expect("fixture specs parse"))
        .collect()
}

/// The acceptance bar for the streaming engine and the erased-state
/// redesign: over the full registry × scheduler grid (RMW locks
/// included) at several seeds, `run_priced` on the erased registry
/// handle reproduces the typed, recorded run's replay-based SC/CC/DSM
/// reports bit for bit — not just the totals but the per-process and
/// per-register breakdowns.
#[test]
fn dyn_streaming_costs_match_typed_replay_costs_on_the_full_grid() {
    let n = 4;
    let algs = AlgorithmRegistry::global();
    for name in algs.names() {
        // A sampled run can strand forever inside a lock that
        // disclaims deadlock-freedom (the splitter locks have
        // genuinely doomed states), so the run-to-completion grid
        // skips those entries; the explorer certifies them instead.
        if algs.get(&name).is_none_or(|e| !e.info().deadlock_free) {
            continue;
        }
        let erased = algs
            .resolve_str(&name, n)
            .expect("registry entry")
            .automaton;
        typed_grid_leg(&name, erased, n);
    }
}

/// Runs [`grid_leg`] with the concrete automaton type behind the
/// registry entry `name` as the recorded leg. Every deadlock-free
/// entry must be listed, so a new lock cannot skip the dyn ≡ typed pin.
fn typed_grid_leg(name: &str, erased: DynAlgorithm, n: usize) {
    match name {
        "dekker-tree" => grid_leg(name, &DekkerTournament::new(n), erased, n),
        "peterson" => grid_leg(name, &Peterson::new(n), erased, n),
        "bakery" => grid_leg(name, &Bakery::new(n), erased, n),
        "filter" => grid_leg(name, &Filter::new(n), erased, n),
        "dijkstra" => grid_leg(name, &Dijkstra::new(n), erased, n),
        "burns-lynch" => grid_leg(name, &BurnsLynch::new(n), erased, n),
        "tas-sim" => grid_leg(name, &TasSim::new(n), erased, n),
        "ttas-sim" => grid_leg(name, &TtasSim::new(n), erased, n),
        "mcs-sim" => grid_leg(name, &Mcs::with_remote_links(n), erased, n),
        "mcs" => grid_leg(name, &Mcs::new(n), erased, n),
        "clh" => grid_leg(name, &Clh::new(n), erased, n),
        "ticket" => grid_leg(name, &Ticket::new(n), erased, n),
        "rpeterson" => grid_leg(name, &RPeterson::new(n), erased, n),
        "rtas" => grid_leg(name, &RTas::new(n), erased, n),
        "broken-recover" => grid_leg(name, &BrokenRecover::new(n), erased, n),
        _ => panic!("{name}: name its concrete automaton type here"),
    }
}

fn grid_leg<A: Automaton>(name: &str, typed: &A, erased: DynAlgorithm, n: usize) {
    let passages = fixtures::PASSAGES;
    let scheds = SchedulerRegistry::global();
    {
        for spec in all_specs(n) {
            let sched = scheds.resolve(spec.spec(), n).expect("known policy");
            let seeds: &[u64] = if sched.seeded { fixtures::SEEDS } else { &[0] };
            for &seed in seeds {
                let label = format!("{name} under {} seed {seed}", sched.label);

                let mut recording = sched.build(passages, seed);
                let exec = run_scheduler(typed, recording.as_mut(), passages, MAX_STEPS)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let (sc, cc, dsm) = all_costs(typed, &exec).expect("replay");

                let mut streaming = sched.build(passages, seed);
                let priced = run_priced(
                    &DynRef(erased.as_ref()),
                    streaming.as_mut(),
                    passages,
                    MAX_STEPS,
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));

                assert_eq!(priced.steps, exec.len(), "{label}");
                assert_eq!(priced.sc, sc, "{label}");
                assert_eq!(priced.cc, cc, "{label}");
                assert_eq!(priced.dsm, dsm, "{label}");
                // Spell the breakdowns out, so a future widening of
                // `CostReport` equality cannot silently weaken this.
                for p in ProcessId::all(n) {
                    assert_eq!(priced.sc.process(p), sc.process(p), "{label} {p}");
                    assert_eq!(priced.cc.process(p), cc.process(p), "{label} {p}");
                    assert_eq!(priced.dsm.process(p), dsm.process(p), "{label} {p}");
                }
                for r in RegisterId::all(typed.registers()) {
                    assert_eq!(priced.sc.register(r), sc.register(r), "{label} {r:?}");
                    assert_eq!(priced.cc.register(r), cc.register(r), "{label} {r:?}");
                    assert_eq!(priced.dsm.register(r), dsm.register(r), "{label} {r:?}");
                }
            }
        }
    }
}

/// Parameterized registry specs run through the dyn path too: the
/// erased `filter:levels=…` and `ttas-sim:backoff=…` variants price
/// identically to their directly constructed typed counterparts.
#[test]
fn parameterized_specs_stream_identically_to_their_typed_constructions() {
    let n = 4;
    let passages = 2;
    let algs = AlgorithmRegistry::global();
    let scheds = SchedulerRegistry::global();
    let typed_fat_filter = exclusion::mutex::Filter::with_levels(n, 6);
    let typed_backoff = exclusion::mutex::TtasSim::with_backoff(n, 3);

    for (spec, typed) in [
        (
            "filter:levels=6",
            &typed_fat_filter as &dyn exclusion::shmem::DynAutomaton,
        ),
        ("ttas-sim:backoff=3", &typed_backoff),
    ] {
        let erased = algs
            .resolve_str(spec, n)
            .expect("parameterized spec")
            .automaton;
        for sched_spec in ["greedy", "random"] {
            let sched = scheds.resolve_str(sched_spec, n).expect("policy");
            let mut a = sched.build(passages, 9);
            let mut b = sched.build(passages, 9);
            let direct = run_priced(&DynRef(typed), a.as_mut(), passages, MAX_STEPS)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            let resolved = run_priced(&DynRef(erased.as_ref()), b.as_mut(), passages, MAX_STEPS)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(direct, resolved, "{spec} under {sched_spec}");
            assert!(direct.sc.total() > 0, "{spec}");
        }
    }
}

/// Crashed runs: every recoverable entry at n ∈ {2, 3, 4}, under
/// round-robin and greedy, with crashes aimed at the critical section
/// (budgets 1–3) or drawn at random (budget 3, eight seeds). A
/// `CostTracker` fed by the fault driver prices each run as it goes;
/// its SC, CC and DSM reports, per process and per register, must equal
/// the replay pricers' on the recorded execution. Either side skipping
/// the crash wipe charges a victim's re-reads differently.
#[test]
fn streaming_costs_match_replay_costs_on_crashed_runs() {
    let plans: Vec<FaultPlan> = (1..=3)
        .map(FaultPlan::in_critical)
        .chain((1..=8).map(|seed| FaultPlan::random(seed, 3)))
        .collect();
    let scheds = SchedulerRegistry::global();
    for n in [2, 3, 4] {
        for r in AlgorithmRegistry::global().resolve_where(n, |i| i.recoverable) {
            let alg = DynRef(r.automaton.as_ref());
            for (i, plan) in plans.iter().enumerate() {
                for sched_name in ["round-robin", "greedy"] {
                    let label = format!("{} n={n} plan {i} under {sched_name}", r.label);
                    let mut sched = scheds
                        .resolve_str(sched_name, n)
                        .expect("known policy")
                        .build(fixtures::PASSAGES, 0);
                    let mut tracker = CostTracker::new(&alg);
                    let mut exec = Execution::new();
                    run_faulted_with(
                        &alg,
                        sched.as_mut(),
                        &mut plan.clone(),
                        fixtures::PASSAGES,
                        MAX_STEPS,
                        &mut NoProbe,
                        |done| {
                            tracker.observe(done);
                            exec.push(done.step);
                        },
                    )
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(exec.crash_count() > 0, "{label}: no crash");
                    let replayed = all_costs(&alg, &exec).expect("replay");
                    assert_eq!(tracker.steps(), exec.len(), "{label}");
                    let streamed = tracker.into_reports();
                    for (model, got, want) in [
                        ("sc", &streamed.0, &replayed.0),
                        ("cc", &streamed.1, &replayed.1),
                        ("dsm", &streamed.2, &replayed.2),
                    ] {
                        assert_eq!(got.total(), want.total(), "{label} {model}");
                        assert_eq!(got.per_process(), want.per_process(), "{label} {model}");
                        assert_eq!(got.per_register(), want.per_register(), "{label} {model}");
                    }
                }
            }
        }
    }
}

/// A tracker fed step by step agrees with the one-shot driver.
#[test]
fn manual_tracker_feed_matches_run_priced() {
    let alg = DekkerTournament::new(4);
    let passages = 1;
    let sched_entry = SchedulerRegistry::global()
        .resolve_str("greedy", 4)
        .expect("known policy");
    let mut sched = sched_entry.build(passages, 0);
    let mut sys = System::new(&alg);
    let mut tracker = CostTracker::new(&alg);
    let mut table = ViewTable::new(&sys, passages, sched.wants_step_previews());
    for step in 0..MAX_STEPS {
        let ctx = exclusion::shmem::SchedContext {
            step,
            target_passages: passages,
            views: table.views(),
        };
        let Some(p) = sched.pick(&ctx) else { break };
        tracker.observe(&table.step(&mut sys, p));
    }
    let mut again = sched_entry.build(passages, 0);
    let priced = run_priced(&alg, again.as_mut(), passages, MAX_STEPS).expect("run");
    assert_eq!(priced.steps, tracker.steps());
    let (sc, cc, dsm) = tracker.into_reports();
    assert_eq!((priced.sc, priced.cc, priced.dsm), (sc, cc, dsm));
}

/// The incremental-view regression: during a greedy-adversary run of a
/// real tournament lock **driven through the erased dyn path**, the
/// driver's `ViewTable` equals a from-scratch rebuild with the same
/// targets after every single step — with and without previews, while
/// targets move during the first thousand steps: every 37 steps one
/// process gets a passage more, or, if it sits in its remainder
/// section, retires early.
#[test]
fn incremental_views_equal_fresh_views_during_adversarial_dyn_runs() {
    for alg_name in ["dekker-tree", "burns-lynch", "mcs-sim"] {
        for previews in [true, false] {
            let n = 5;
            let handle = AlgorithmRegistry::global()
                .resolve_str(alg_name, n)
                .expect("known")
                .automaton;
            let alg = DynRef(handle.as_ref());
            let mut sched = SchedulerRegistry::global()
                .resolve_str("greedy", n)
                .expect("known policy")
                .build(2, 0);
            let mut targets = vec![2; n];
            let mut sys = System::new(&alg);
            let mut table = ViewTable::new(&sys, 2, previews);
            let mut finished = false;
            for step in 0..100_000 {
                if step < 1_000 && step % 37 == 36 {
                    let k = step / 37;
                    let q = ProcessId::new(k % n);
                    targets[q.index()] = if k % 2 == 0 {
                        targets[q.index()] + 1
                    } else if sys.section(q) == Section::Remainder {
                        sys.passages(q)
                    } else {
                        targets[q.index()]
                    };
                    table.set_target(q, targets[q.index()]);
                }
                let mut fresh = ViewTable::new(&sys, 0, previews);
                for q in ProcessId::all(n) {
                    fresh.set_target(q, targets[q.index()]);
                }
                assert_eq!(
                    table.views(),
                    fresh.views(),
                    "{alg_name} previews={previews} step {step}"
                );
                let ctx = exclusion::shmem::SchedContext {
                    step,
                    target_passages: 2,
                    views: table.views(),
                };
                let Some(p) = sched.pick(&ctx) else {
                    finished = true;
                    break;
                };
                table.step(&mut sys, p);
            }
            assert!(finished, "{alg_name}: run did not terminate");
        }
    }
}
