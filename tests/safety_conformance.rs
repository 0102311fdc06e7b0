//! Safety conformance: the exhaustive explorer's verdict for **every**
//! entry of the algorithm registry is pinned at the shared small-`n`
//! fixture grid. All real algorithms — register-only and RMW — must be
//! *certified* mutually exclusive, and certified deadlock-free unless
//! their registry metadata disclaims it (the splitter locks, whose
//! contention hazard must then be *found*); the planted `broken` lock
//! must be caught with a minimal counterexample that replays through
//! the ordinary replay machinery. The explorer's whole output over that
//! grid is also pinned by digest, and so is its verdict on each lock's
//! own bounded instances, at several passages per process.

use exclusion::explore::{
    analyze, conformance_registry, explore, ExploreConfig, Model, WorstCaseReport, WorstCost,
};
use exclusion::explore::{ExploreReport, HazardKind};
use exclusion::mutex::broken::{BrokenPeterson, RacyBool};
use exclusion::mutex::rmw::{TasSim, TtasSim};
use exclusion::mutex::stale_tournament::StaleTournament;
use exclusion::mutex::{
    Bakery, BrokenRecover, BurnsLynch, Clh, DekkerTournament, Dijkstra, Filter, Mcs, Peterson,
    RPeterson, RTas, Splitter, Ticket,
};
use exclusion::shmem::testing::fixtures;
use exclusion::shmem::{replay, DynAutomaton, DynRef, ProcessId};

/// Pinned state-space sizes for the register-only suite at the fixture
/// grid (passages = 1). These are exact reachable-state counts; a
/// change means the algorithm encodings (or the snapshot semantics)
/// changed.
const PINNED_STATES: &[(&str, usize, usize)] = &[
    // (algorithm, states at n=2, states at n=3)
    ("dekker-tree", 116, 3469),
    ("peterson", 95, 2285),
    ("bakery", 216, 7507),
    ("filter", 95, 2692),
    ("dijkstra", 164, 4159),
    ("burns-lynch", 87, 1145),
];

#[test]
fn every_registry_entry_is_certified_or_caught_at_small_n() {
    let registry = conformance_registry();
    for &n in fixtures::SMALL_NS {
        for name in registry.names() {
            let entry = registry.get(&name).expect("listed name resolves");
            if entry.info().min_n > n {
                continue;
            }
            let alg = registry
                .resolve_str(&name, n)
                .expect("registry entry resolves")
                .automaton;
            let report = explore(alg.as_ref(), &ExploreConfig::default());
            assert!(!report.truncated, "{name} at n={n} must explore fully");
            if name == "broken" {
                assert!(
                    report.violation.is_some(),
                    "the planted race must be caught at n={n}"
                );
            } else {
                assert!(
                    report.certified_safe(),
                    "{name} at n={n} must be certified mutually exclusive"
                );
                if entry.info().deadlock_free {
                    assert!(
                        report.certified_deadlock_free(),
                        "{name} at n={n} must be certified deadlock-free"
                    );
                } else if n > 1 {
                    // Entries that disclaim deadlock-freedom (the
                    // splitter locks: every contender can lose) must
                    // have their hazard *found* — a certified negative,
                    // not a silent pass.
                    assert!(
                        report.hazard.is_some(),
                        "{name} at n={n} disclaims deadlock-freedom; \
                         the explorer must find the hazard"
                    );
                }
            }
        }
    }
}

#[test]
fn register_only_state_spaces_are_pinned() {
    let registry = conformance_registry();
    for &(name, at2, at3) in PINNED_STATES {
        for (n, expected) in [(2, at2), (3, at3)] {
            let alg = registry
                .resolve_str(name, n)
                .expect("pinned name resolves")
                .automaton;
            let report = explore(alg.as_ref(), &ExploreConfig::default());
            assert_eq!(
                report.states, expected,
                "{name} at n={n}: reachable-state count drifted"
            );
            assert!(report.edges > report.states, "{name} at n={n}");
        }
    }
}

#[test]
fn broken_counterexample_is_minimal_and_replays() {
    let registry = conformance_registry();
    for &n in fixtures::SMALL_NS {
        let alg = registry
            .resolve_str("broken", n)
            .expect("broken resolves")
            .automaton;
        let report = explore(alg.as_ref(), &ExploreConfig::default());
        let cex = report.violation.expect("broken must be caught");
        // The race needs exactly: both processes try, both read the
        // clear bit, both claim it, both enter — 8 steps regardless of
        // how many bystanders exist.
        assert_eq!(cex.schedule.len(), 8, "minimal witness at n={n}");
        assert_eq!(cex.trace.len(), cex.schedule.len());
        assert_ne!(cex.culprits.0, cex.culprits.1);
        assert!(!cex.trace.mutual_exclusion(n));
        // The trace replays against the erased algorithm through the
        // standard replay machinery and indeed ends with two processes
        // in the critical section.
        let dref = DynRef(alg.as_ref());
        let sys = replay(&dref, cex.trace.steps(), |_| {}).expect("witness replays");
        assert_eq!(sys.in_critical().count(), 2, "n={n}");
    }
}

/// What `explore` must conclude about one bounded instance.
#[derive(Clone, Copy, Debug)]
enum Verdict {
    /// Certified mutually exclusive, over exactly this many states.
    Safe(usize),
    /// Refuted, by a minimal witness of exactly this many steps.
    Violation(usize),
}

use Verdict::{Safe, Violation};

/// Each lock's own bounded instances, at their own passage bounds:
/// `(lock, n, passages, verdict)`. The locks are the concrete automaton
/// types (see [`concrete`]), whose erased states are boxed; orbit
/// reduction canonicalizes only inline word states, so none applies
/// and every safe count is the number of reachable states under the
/// passage bound.
#[rustfmt::skip]
const LOCK_INSTANCES: &[(&str, usize, usize, Verdict)] = &[
    ("dekker-tree", 2, 3, Safe(1_499)),
    ("dekker-tree", 3, 2, Safe(50_138)),
    ("dekker-tree", 4, 1, Safe(51_987)),
    ("peterson", 2, 3, Safe(827)),
    ("peterson", 4, 1, Safe(27_765)),
    ("bakery", 2, 2, Safe(1_235)),
    ("bakery", 3, 1, Safe(7_507)),
    ("filter", 2, 2, Safe(369)),
    ("filter", 3, 1, Safe(2_692)),
    ("dijkstra", 2, 2, Safe(742)),
    ("dijkstra", 3, 1, Safe(4_159)),
    ("burns-lynch", 2, 3, Safe(685)),
    ("burns-lynch", 3, 2, Safe(7_963)),
    ("splitter", 2, 2, Safe(800)),
    ("splitter", 3, 2, Safe(21_686)),
    ("splitter-gate", 2, 2, Safe(728)),
    ("splitter-gate", 3, 2, Safe(22_016)),
    ("tas-sim", 2, 2, Safe(133)),
    ("tas-sim", 3, 1, Safe(208)),
    ("ttas-sim", 2, 2, Safe(189)),
    ("ttas-sim", 3, 1, Safe(350)),
    ("mcs-sim", 2, 2, Safe(887)),
    ("mcs-sim", 3, 1, Safe(2_100)),
    ("mcs", 2, 2, Safe(887)),
    ("clh", 2, 2, Safe(353)),
    ("clh", 3, 1, Safe(693)),
    ("ticket", 2, 2, Safe(193)),
    ("ticket", 3, 1, Safe(376)),
    // Crash-free, even the planted broken-recover is a correct lock.
    ("rpeterson", 2, 3, Safe(827)),
    ("rtas", 3, 2, Safe(1_225)),
    ("broken-recover", 3, 2, Safe(1_225)),
    ("racy-bool", 2, 1, Violation(8)),
    // The inverted tie-break needs a second passage to bite.
    ("broken-peterson", 2, 2, Violation(11)),
    // The stale wake-up needs two full passages to set up, so its
    // witness is no trivial interleaving (over 30 steps); it fits in
    // two passages per process and cannot happen in one.
    ("stale-tournament", 2, 3, Violation(39)),
    ("stale-tournament", 2, 2, Violation(39)),
    ("stale-tournament", 2, 1, Safe(348)),
];

/// The concrete automaton type behind each name of [`LOCK_INSTANCES`].
fn concrete(name: &str, n: usize) -> Box<dyn DynAutomaton + Sync> {
    match name {
        "dekker-tree" => Box::new(DekkerTournament::new(n)),
        "peterson" => Box::new(Peterson::new(n)),
        "bakery" => Box::new(Bakery::new(n)),
        "filter" => Box::new(Filter::new(n)),
        "dijkstra" => Box::new(Dijkstra::new(n)),
        "burns-lynch" => Box::new(BurnsLynch::new(n)),
        "splitter" => Box::new(Splitter::new(n)),
        "splitter-gate" => Box::new(Splitter::gated(n)),
        "tas-sim" => Box::new(TasSim::new(n)),
        "ttas-sim" => Box::new(TtasSim::new(n)),
        "mcs-sim" => Box::new(Mcs::with_remote_links(n)),
        "mcs" => Box::new(Mcs::new(n)),
        "clh" => Box::new(Clh::new(n)),
        "ticket" => Box::new(Ticket::new(n)),
        "rpeterson" => Box::new(RPeterson::new(n)),
        "rtas" => Box::new(RTas::new(n)),
        "broken-recover" => Box::new(BrokenRecover::new(n)),
        "racy-bool" => Box::new(RacyBool::new(n)),
        "broken-peterson" => Box::new(BrokenPeterson),
        "stale-tournament" => Box::new(StaleTournament::new(n)),
        other => panic!("no concrete type for {other}"),
    }
}

/// Every lock, at several passages per process where its state space
/// allows: safe locks are certified over their pinned state counts, and
/// broken ones are refuted by a minimal witness that replays to two
/// processes in the critical section.
#[test]
fn lock_instances_get_their_pinned_verdicts() {
    for &(name, n, passages, verdict) in LOCK_INSTANCES {
        let label = format!("{name} n={n} passages={passages}");
        let alg = concrete(name, n);
        assert_eq!(alg.processes(), n, "{label}");
        let cfg = ExploreConfig {
            passages,
            ..ExploreConfig::default()
        };
        let report = explore(alg.as_ref(), &cfg);
        assert!(!report.truncated, "{label}: truncated");
        match verdict {
            Safe(states) => {
                assert!(report.certified_safe(), "{label}: {:?}", report.violation);
                assert_eq!(report.states, states, "{label}: state count");
            }
            Violation(steps) => {
                let cex = report
                    .violation
                    .unwrap_or_else(|| panic!("{label}: violation not found"));
                assert_eq!(cex.trace.len(), steps, "{label}: witness length");
                assert!(!cex.trace.mutual_exclusion(n), "{label}");
                let dref = DynRef(alg.as_ref());
                let sys = replay(&dref, cex.trace.steps(), |_| {})
                    .unwrap_or_else(|e| panic!("{label}: witness does not replay: {e}"));
                assert_eq!(sys.in_critical().count(), 2, "{label}");
            }
        }
    }
}

/// The certified verdict is a *proof* only because exploration is
/// exhaustive: capping the state budget must withdraw certification,
/// not claim it vacuously.
#[test]
fn truncated_runs_never_certify() {
    let registry = conformance_registry();
    let alg = registry
        .resolve_str("dekker-tree", 3)
        .expect("resolves")
        .automaton;
    let report = explore(
        alg.as_ref(),
        &ExploreConfig {
            max_states: 100,
            ..ExploreConfig::default()
        },
    );
    assert!(report.truncated);
    assert!(!report.certified_safe());
    assert!(!report.certified_deadlock_free());
}

/// FNV-1a over 64 bits. Its output is fixed by its definition, so the
/// pins below hold on every Rust release (`DefaultHasher`'s do not).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn pids(&mut self, pids: &[ProcessId]) {
        self.u64(pids.len() as u64);
        for p in pids {
            self.u64(p.index() as u64);
        }
    }
}

/// Everything `analyze` reports for one (algorithm, n, model) cell.
/// Hazard schedules and pump prefixes are folded in by length only:
/// among equally short candidates the explorer takes the first by node
/// id, and node ids follow the transposition table's hash, so their
/// spelling is not part of the contract. Everything else is: a one-worker
/// build discovers states in a fixed order, so its parent chains, and
/// the violation and exact witnesses read off them, are deterministic.
fn explorer_digest(report: &ExploreReport, worst: Option<&WorstCaseReport>) -> u64 {
    let mut h = Fnv::new();
    for x in [
        report.states,
        report.edges,
        report.depth,
        usize::from(report.truncated),
        report.dedup_hits,
        report.peak_frontier,
    ] {
        h.u64(x as u64);
    }
    match &report.violation {
        None => h.u64(0),
        Some(cex) => {
            h.u64(1);
            h.pids(&cex.schedule);
            h.pids(&[cex.culprits.0, cex.culprits.1]);
        }
    }
    match &report.hazard {
        None => h.u64(0),
        Some(hazard) => {
            h.u64(match hazard.kind {
                HazardKind::Deadlock => 1,
                HazardKind::Livelock => 2,
            });
            h.u64(hazard.doomed_states as u64);
            h.u64(hazard.schedule.len() as u64);
        }
    }
    match worst {
        None => h.u64(0),
        Some(w) => {
            h.u64(1);
            h.u64(w.nodes as u64);
            h.u64(w.edges as u64);
            h.u64(w.incumbent as u64);
            match &w.cost {
                WorstCost::Exact { cost, schedule } => {
                    h.u64(1);
                    h.u64(*cost as u64);
                    h.pids(schedule);
                }
                WorstCost::Unbounded { prefix, .. } => {
                    h.u64(2);
                    h.u64(prefix.len() as u64);
                }
                WorstCost::Unknown => h.u64(3),
            }
        }
    }
    h.0
}

/// The pinned grid: every conformance entry under SC at n = 2 and 3,
/// under CC and DSM at n = 2, and two register-only locks under CC at
/// n = 3 (their product graphs are the largest the grid reaches).
#[rustfmt::skip]
const PINNED_EXPLORER_DIGESTS: &[(&str, usize, &str, u64)] = &[
    ("dekker-tree", 2, "sc", 0x03a4ff04af97a876),
    ("dekker-tree", 2, "cc", 0x73e80ceccf68cbde),
    ("dekker-tree", 2, "dsm", 0xc8d952b2375e57ca),
    ("peterson", 2, "sc", 0xbb88bef97796c674),
    ("peterson", 2, "cc", 0x8ac2e4874486fb6f),
    ("peterson", 2, "dsm", 0xbb88bef97796c674),
    ("bakery", 2, "sc", 0x9a5d7aeadac970a1),
    ("bakery", 2, "cc", 0xbadaecc35d21e2c5),
    ("bakery", 2, "dsm", 0x3c0e1331a8192954),
    ("filter", 2, "sc", 0xbb88bef97796c674),
    ("filter", 2, "cc", 0x8ac2e4874486fb6f),
    ("filter", 2, "dsm", 0x541eba4a7d377fc8),
    ("dijkstra", 2, "sc", 0x99e32e562fe71baa),
    ("dijkstra", 2, "cc", 0x1b0cc5c72a6fbd7a),
    ("dijkstra", 2, "dsm", 0x0b824c139c789650),
    ("burns-lynch", 2, "sc", 0x4bf0eccefbacbc5e),
    ("burns-lynch", 2, "cc", 0x151dd89b7df48509),
    ("burns-lynch", 2, "dsm", 0xcf6f5e14b345766c),
    ("splitter", 2, "sc", 0x9c832bc08f126675),
    ("splitter", 2, "cc", 0x3af5a9c6407714d1),
    ("splitter", 2, "dsm", 0x9c832bc08f126675),
    ("splitter-gate", 2, "sc", 0x9190067f45fdd8e8),
    ("splitter-gate", 2, "cc", 0x6cf767f9be7d3390),
    ("splitter-gate", 2, "dsm", 0x12c4515fbbe635b5),
    ("tas-sim", 2, "sc", 0x329fe5988df361c8),
    ("tas-sim", 2, "cc", 0x3422cc976a870245),
    ("tas-sim", 2, "dsm", 0x4cd65589f37c1c40),
    ("ttas-sim", 2, "sc", 0x8e0dc33409146cc1),
    ("ttas-sim", 2, "cc", 0x02abb0992617a087),
    ("ttas-sim", 2, "dsm", 0xc170842aafdad07f),
    ("mcs-sim", 2, "sc", 0x37d5fc0822431fc9),
    ("mcs-sim", 2, "cc", 0x37d96ec709e94fa7),
    ("mcs-sim", 2, "dsm", 0x4b3eb3621818c27a),
    ("mcs", 2, "sc", 0x37d5fc0822431fc9),
    ("mcs", 2, "cc", 0x37d96ec709e94fa7),
    ("mcs", 2, "dsm", 0x153bca98be7efec8),
    ("clh", 2, "sc", 0x4827b8f5d1166f15),
    ("clh", 2, "cc", 0xf2b3e86805909cfc),
    ("clh", 2, "dsm", 0xd49881b11e2c01e8),
    ("ticket", 2, "sc", 0xb585c6320f2c1c91),
    ("ticket", 2, "cc", 0x2c58529061817a05),
    ("ticket", 2, "dsm", 0xc170842aafdad07f),
    ("rpeterson", 2, "sc", 0xbb88bef97796c674),
    ("rpeterson", 2, "cc", 0x8ac2e4874486fb6f),
    ("rpeterson", 2, "dsm", 0xbb88bef97796c674),
    ("rtas", 2, "sc", 0x92cbd87161dfc47a),
    ("rtas", 2, "cc", 0x41f3dd6413bc643f),
    ("rtas", 2, "dsm", 0xcce476692f1eff12),
    ("broken-recover", 2, "sc", 0x92cbd87161dfc47a),
    ("broken-recover", 2, "cc", 0x41f3dd6413bc643f),
    ("broken-recover", 2, "dsm", 0xcce476692f1eff12),
    ("broken", 2, "sc", 0x375b48e6bb87a651),
    ("broken", 2, "cc", 0x751291501999059e),
    ("broken", 2, "dsm", 0x751291501999059e),
    ("dekker-tree", 3, "sc", 0x25051489b7f4508e),
    ("peterson", 3, "sc", 0x263b1377d640d690),
    ("bakery", 3, "sc", 0x78cea3e8572ff00e),
    ("filter", 3, "sc", 0x1a4d95feb4659a5a),
    ("dijkstra", 3, "sc", 0xb101fcef145d7d86),
    ("burns-lynch", 3, "sc", 0x9393a686bd9dc4e6),
    ("splitter", 3, "sc", 0x3f8c5efd7d205abf),
    ("splitter-gate", 3, "sc", 0xc3b9002eae046c54),
    ("tas-sim", 3, "sc", 0x6495f8cbb61e69c6),
    ("ttas-sim", 3, "sc", 0xe54e2511e8ff0dd2),
    ("mcs-sim", 3, "sc", 0x8555afe0ee1b2148),
    ("mcs", 3, "sc", 0x8555afe0ee1b2148),
    ("clh", 3, "sc", 0xde3b47d406629309),
    ("ticket", 3, "sc", 0xb5eeccd8a318589a),
    ("rpeterson", 3, "sc", 0x263b1377d640d690),
    ("rtas", 3, "sc", 0x477c75553e32e617),
    ("broken-recover", 3, "sc", 0x477c75553e32e617),
    ("broken", 3, "sc", 0x0c68360386d57b1d),
    ("dekker-tree", 3, "cc", 0x7cdbeefc64bb32b8),
    ("peterson", 3, "cc", 0x9839010b98ffb74f),
];

#[test]
fn explorer_outputs_match_their_pinned_digests() {
    let registry = conformance_registry();
    // One worker keeps parent chains deterministic; the step cap keeps
    // the greedy incumbent of the splitter locks (which never complete
    // under it) from running the default 50 M-step budget.
    let cfg = ExploreConfig {
        workers: 1,
        max_steps: 100_000,
        ..ExploreConfig::default()
    };
    let mut cells: Vec<(String, usize, Model)> = Vec::new();
    for &n in fixtures::SMALL_NS {
        for name in registry.names() {
            if registry.get(&name).expect("listed").info().min_n > n {
                continue;
            }
            cells.push((name.clone(), n, Model::Sc));
            if n == 2 {
                cells.push((name.clone(), n, Model::Cc));
                cells.push((name, n, Model::Dsm));
            }
        }
    }
    for name in ["dekker-tree", "peterson"] {
        cells.push((name.to_string(), 3, Model::Cc));
    }
    let got: Vec<(String, usize, Model, u64)> = cells
        .into_iter()
        .map(|(name, n, model)| {
            let alg = registry
                .resolve_str(&name, n)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .automaton;
            let (report, worst) = analyze(alg.as_ref(), model, &cfg);
            let digest = explorer_digest(&report, worst.as_ref());
            (name, n, model, digest)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, n, model, d)| format!("    (\"{name}\", {n}, \"{model}\", {d:#018x}),\n"))
        .collect();
    assert!(
        got.len() == PINNED_EXPLORER_DIGESTS.len()
            && got.iter().zip(PINNED_EXPLORER_DIGESTS).all(
                |((name, n, model, d), &(pn, pnn, pm, pd))| {
                    name == pn && *n == pnn && model.name() == pm && *d == pd
                }
            ),
        "explorer output changed; digests now:\n{table}"
    );
}
