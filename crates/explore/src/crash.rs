//! Crash-transition certification: exhaustive safety verdicts for
//! recoverable locks under a bounded crash adversary.
//!
//! [`certify_recoverable`] explores every interleaving of an algorithm
//! in which, on top of the ordinary step nondeterminism, the adversary
//! may inject up to `budget` crashes — at *any* point, into *any*
//! process that has not yet completed its passages (mid-passage, mid-
//! recovery, or at rest in its remainder section; power loss does not
//! wait for a convenient moment). A crash is the atomic
//! [`Step::Crash`](exclusion_shmem::Step) transition of the fault
//! layer: the victim's volatile state is wiped to its
//! [`recover_state`](exclusion_shmem::Automaton::recover_state) entry
//! point, shared registers and passage counts persist.
//!
//! The search runs on the same parallel BFS engine as the crash-free
//! explorer, over the product of system snapshots and crashes-used (the
//! crash count rides in the transposition key: the same snapshot with
//! a different remaining budget has a different future). Mutual
//! exclusion either holds across the whole bounded space — the lock is
//! *certified recoverable* for those bounds — or a minimal-length
//! [`CrashCounterexample`] is returned whose `(Script, FaultPlan)`
//! artifacts replay the violation bit-identically through the fault
//! driver.
//!
//! This is what validates (or refutes) a registry entry's
//! `recoverable` claim: the planted `broken-recover` lock — crash-free
//! identical to the honest `rtas` — is caught here and nowhere else.
//!
//! # Example
//!
//! ```
//! use exclusion_explore::{certify_recoverable, conformance_registry, ExploreConfig};
//!
//! let reg = conformance_registry();
//! let cfg = ExploreConfig::default();
//!
//! let rtas = reg.resolve_str("rtas", 2).unwrap().automaton;
//! assert!(certify_recoverable(rtas.as_ref(), 2, &cfg).certified_recoverable());
//!
//! let planted = reg.resolve_str("broken-recover", 2).unwrap().automaton;
//! let report = certify_recoverable(planted.as_ref(), 1, &cfg);
//! let witness = report.violation.expect("one crash breaks it");
//! assert!(witness.crashes() >= 1);
//! ```

use exclusion_shmem::dynamic::{DynAutomaton, DynRef};
use exclusion_shmem::probe::{NoProbe, Probe, SpanScope};
use exclusion_shmem::sched::Script;
use exclusion_shmem::{faulted_script, Execution, FaultPlan, ProcessId, System};

use crate::graph::{build, decanonicalize_picks, CrashLens};
use crate::ExploreConfig;

/// A reachable mutual exclusion violation under a bounded crash
/// adversary, with replayable fault artifacts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CrashCounterexample {
    /// The full pick sequence reaching the violation: `(pid, crashed)`
    /// per step index, minimal in length among all violating crash
    /// schedules.
    pub picks: Vec<(ProcessId, bool)>,
    /// The witness execution, crash steps included; replaying it
    /// through the fault driver ends with two processes in the critical
    /// section.
    pub trace: Execution,
    /// Two processes simultaneously in the critical section at the end
    /// of the trace.
    pub culprits: (ProcessId, ProcessId),
}

impl CrashCounterexample {
    /// How many crash injections the witness spends.
    #[must_use]
    pub fn crashes(&self) -> usize {
        self.picks.iter().filter(|&&(_, c)| c).count()
    }

    /// The `(Script, FaultPlan)` pair that replays this witness
    /// bit-identically through
    /// [`run_faulted`](exclusion_shmem::run_faulted) — the portable
    /// artifact form: record once, reconstruct, re-run anywhere.
    #[must_use]
    pub fn replay_artifacts(&self) -> (Script, FaultPlan) {
        faulted_script(self.trace.steps())
    }
}

/// What an exhaustive bounded crash exploration established.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CrashReport {
    /// The algorithm's name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Passage bound per process.
    pub passages: usize,
    /// Crash injections available to the adversary.
    pub budget: usize,
    /// Distinct `(state, crashes-used)` product nodes visited.
    pub states: usize,
    /// Transitions discovered (ordinary steps and crash injections).
    pub edges: usize,
    /// Deepest BFS layer fully merged.
    pub depth: usize,
    /// Whether `max_states`/`max_depth` cut exploration short — if so,
    /// the absence of a violation is *not* a certification.
    pub truncated: bool,
    /// A minimal-depth mutual exclusion violation, if one is reachable
    /// within the crash budget.
    pub violation: Option<CrashCounterexample>,
}

impl CrashReport {
    /// Whether mutual exclusion was *proved* to survive every schedule
    /// with at most `budget` crashes for the explored bounds: the whole
    /// bounded product space was visited and no violating state exists
    /// in it.
    #[must_use]
    pub fn certified_recoverable(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

/// Exhaustively explores every interleaving of `alg` in which each
/// process performs at most `cfg.passages` passages and the adversary
/// injects at most `budget` crashes, and returns a certified safety
/// verdict for the crash model.
///
/// With `budget == 0` the explored space is exactly the crash-free
/// explorer's snapshot graph — same states, edges, depth and verdict —
/// so the crash certification is a strict extension, not a parallel
/// re-implementation. When a violation exists, the returned
/// counterexample has minimal pick-sequence length, and its
/// [`replay_artifacts`](CrashCounterexample::replay_artifacts) replay
/// it bit-identically through the fault driver.
#[must_use]
pub fn certify_recoverable(
    alg: &(dyn DynAutomaton + Sync),
    budget: usize,
    cfg: &ExploreConfig,
) -> CrashReport {
    certify_recoverable_probed(alg, budget, cfg, &mut NoProbe)
}

/// [`certify_recoverable`] with a [`Probe`] observing the build: a
/// [`SpanScope::Explore`] span around the pass and one layer event per
/// barrier-merged BFS layer, worker-count independent like the
/// crash-free explorer's stream.
#[must_use]
pub fn certify_recoverable_probed(
    alg: &(dyn DynAutomaton + Sync),
    budget: usize,
    cfg: &ExploreConfig,
    probe: &mut dyn Probe,
) -> CrashReport {
    let lens = CrashLens { budget };
    let graph = crate::spanned(probe, SpanScope::Explore, alg.processes() as u32, |probe| {
        build(alg, &lens, cfg, true, probe)
    });
    let violation = graph
        .violations
        .iter()
        .filter(|&&v| graph.nodes[v as usize].violating)
        .map(|&v| graph.steps_to(v))
        .min_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)))
        .map(|picks| materialize(alg, decanonicalize_picks(alg, graph.symmetric, &picks)));
    CrashReport {
        algorithm: alg.name(),
        n: alg.processes(),
        passages: cfg.passages,
        budget,
        states: graph.nodes.len(),
        edges: graph.edges,
        depth: graph.depth as usize,
        truncated: graph.truncated,
        violation,
    }
}

/// Re-executes a violating pick sequence against a fresh system to
/// materialize the witness trace (the graph drops snapshots when it
/// flattens; the automaton is deterministic, so the parent chain
/// reproduces the state exactly).
fn materialize(
    alg: &(dyn DynAutomaton + Sync),
    picks: Vec<(ProcessId, bool)>,
) -> CrashCounterexample {
    let dref = DynRef(alg);
    let mut sys = System::new(&dref);
    let mut trace = Execution::new();
    for &(p, crashed) in &picks {
        let done = if crashed { sys.crash(p) } else { sys.step(p) };
        trace.push(done.step);
    }
    let mut critical = sys.in_critical();
    let culprits = (
        critical.next().expect("violating state"),
        critical.next().expect("two in critical"),
    );
    CrashCounterexample {
        picks,
        trace,
        culprits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::WidestLayer;
    use crate::{conformance_registry, explore};
    use exclusion_shmem::run_faulted;

    fn cfg() -> ExploreConfig {
        ExploreConfig {
            passages: 1,
            ..ExploreConfig::default()
        }
    }

    /// Budget 0 is bit-identical to the crash-free explorer: same
    /// states, edges, depth, and (absence of a) verdict.
    #[test]
    fn zero_budget_matches_the_crash_free_explorer() {
        let reg = conformance_registry();
        for name in ["peterson", "rtas", "broken-recover"] {
            let alg = reg.resolve_str(name, 2).unwrap().automaton;
            let crash = certify_recoverable(alg.as_ref(), 0, &cfg());
            let plain = explore(alg.as_ref(), &cfg());
            assert_eq!(crash.states, plain.states, "{name}");
            assert_eq!(crash.edges, plain.edges, "{name}");
            assert_eq!(crash.depth, plain.depth, "{name}");
            assert_eq!(
                crash.violation.is_some(),
                plain.violation.is_some(),
                "{name}"
            );
        }
    }

    /// The honest recoverable locks survive every ≤2-crash schedule at
    /// n = 2 (and rpeterson at n = 3) — and the certification is
    /// worker-count independent.
    #[test]
    fn recoverable_locks_certify_under_two_crashes() {
        let reg = conformance_registry();
        // rpeterson's n = 3 product graph has layers of over 1,600
        // states, so its 4-worker build expands them on spawned threads.
        let mut widest = 0;
        for (name, n) in [("rpeterson", 2), ("rtas", 2), ("rpeterson", 3)] {
            let alg = reg.resolve_str(name, n).unwrap().automaton;
            let mut probe = WidestLayer(0);
            let one = certify_recoverable_probed(
                alg.as_ref(),
                2,
                &ExploreConfig {
                    workers: 1,
                    ..cfg()
                },
                &mut probe,
            );
            widest = widest.max(probe.0);
            let many = certify_recoverable(
                alg.as_ref(),
                2,
                &ExploreConfig {
                    workers: 4,
                    ..cfg()
                },
            );
            assert!(
                one.certified_recoverable(),
                "{name} n={n}: {:?}",
                one.violation
            );
            assert_eq!(one.states, many.states, "{name} n={n}");
            assert_eq!(one.edges, many.edges, "{name} n={n}");
            assert_eq!(one.depth, many.depth, "{name} n={n}");
            // The crash budget strictly enlarges the product space.
            let zero = certify_recoverable(alg.as_ref(), 0, &cfg());
            assert!(one.states > zero.states, "{name} n={n}");
        }
        assert!(widest >= 2 * crate::GRAIN, "widest layer {widest}");
    }

    /// The planted `broken-recover` lock — crash-free identical to the
    /// honest `rtas` — is refuted with one crash, and the witness
    /// replays bit-identically through the fault driver.
    #[test]
    fn broken_recover_is_caught_with_a_replayable_crash_witness() {
        let reg = conformance_registry();
        let alg = reg.resolve_str("broken-recover", 2).unwrap().automaton;

        // Crash-free it certifies: the bug is invisible without faults.
        assert!(certify_recoverable(alg.as_ref(), 0, &cfg()).certified_recoverable());

        let report = certify_recoverable(alg.as_ref(), 1, &cfg());
        let witness = report.violation.expect("one crash leaks the CS");
        assert_eq!(
            witness.crashes(),
            1,
            "the minimal witness spends its only crash"
        );
        assert_ne!(witness.culprits.0, witness.culprits.1);
        assert!(!witness.trace.mutual_exclusion(2));

        // The witness ends at the violation, so its replay stops short
        // of completion on purpose.
        let (mut script, mut plan) = witness.replay_artifacts();
        let replayed = run_faulted(
            &DynRef(alg.as_ref()),
            &mut script,
            &mut plan,
            cfg().passages,
            witness.trace.len() + 1,
        )
        .expect("witness replays");
        assert_eq!(replayed, witness.trace, "bit-identical replay");
        assert!(!replayed.mutual_exclusion(2));
    }

    /// A violating witness is minimal in pick count: no shorter crash
    /// schedule violates (spot-checked by asserting the BFS depth of
    /// the witness equals its length).
    #[test]
    fn crash_witnesses_are_minimal_depth() {
        let reg = conformance_registry();
        let alg = reg.resolve_str("broken-recover", 2).unwrap().automaton;
        let report = certify_recoverable(alg.as_ref(), 2, &cfg());
        let witness = report.violation.expect("refuted");
        assert_eq!(report.depth, witness.picks.len());
    }
}
