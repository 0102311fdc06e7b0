//! Certified safety and progress verdicts over the bounded state space.
//!
//! [`explore`] walks *every* reachable state of an algorithm in which
//! each process performs at most a bounded number of passages, and
//! classifies what it finds:
//!
//! * a reachable state with two processes in the critical section ⇒ a
//!   **mutual exclusion violation**, reported with a minimal-depth
//!   [`Counterexample`] whose trace replays against the algorithm via
//!   the ordinary replay machinery;
//! * a reachable state from which no schedule completes all passages ⇒
//!   a **progress hazard**: a [`HazardKind::Deadlock`] when the doomed
//!   region contains a fully stuck state (every step of every live
//!   process leaves the system unchanged), otherwise a
//!   [`HazardKind::Livelock`] (the doomed region cycles forever);
//! * neither, with the whole bounded space visited ⇒ the algorithm is
//!   **certified** mutually exclusive and deadlock-free for those
//!   bounds.

use exclusion_shmem::dynamic::{DynAutomaton, DynRef};
use exclusion_shmem::probe::{NoProbe, Probe, SpanScope};
use exclusion_shmem::{Execution, ProcessId, System};

use crate::graph::{build, decanonicalize_schedule, live_set, BuiltGraph, ScLens};
use crate::ExploreConfig;

/// A reachable mutual exclusion violation, with a replayable witness.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// The schedule (which process stepped, in order) reaching the
    /// violation — minimal in length among all violating schedules.
    pub schedule: Vec<ProcessId>,
    /// The witness execution; replaying it against the algorithm ends
    /// with two processes in the critical section.
    pub trace: Execution,
    /// Two processes simultaneously in the critical section at the end
    /// of the trace.
    pub culprits: (ProcessId, ProcessId),
}

/// How a doomed region fails to make progress.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HazardKind {
    /// A reachable state where no step of any live process changes the
    /// system at all — everyone spins forever.
    Deadlock,
    /// A reachable region that keeps moving but can never complete the
    /// passage target under any schedule.
    Livelock,
}

impl std::fmt::Display for HazardKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HazardKind::Deadlock => "deadlock",
            HazardKind::Livelock => "livelock",
        })
    }
}

/// A certified progress failure: some reachable state cannot reach
/// completion of the bounded passage target under *any* schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hazard {
    /// Deadlock (stuck state reachable) or livelock (doomed cycle).
    pub kind: HazardKind,
    /// A schedule from the initial state into the doomed region (to a
    /// stuck state, for deadlocks).
    pub schedule: Vec<ProcessId>,
    /// How many reachable states cannot reach completion.
    pub doomed_states: usize,
}

/// What an exhaustive bounded exploration established.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExploreReport {
    /// The algorithm's name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Passage bound per process.
    pub passages: usize,
    /// Distinct reachable states visited.
    pub states: usize,
    /// Transitions discovered.
    pub edges: usize,
    /// Deepest BFS layer fully merged.
    pub depth: usize,
    /// Whether `max_states`/`max_depth` cut exploration short — if so,
    /// the absence of a violation or hazard is *not* a certification.
    pub truncated: bool,
    /// Transposition-table dedup hits: insert attempts that found an
    /// already interned state. `states + dedup_hits` is the total
    /// insert traffic, so reports quantify how much sharing the
    /// canonical snapshot space has — comparable across machines, since
    /// the counts are worker-count independent (untruncated builds).
    pub dedup_hits: usize,
    /// Largest BFS frontier the build held at a barrier — the
    /// explorer's peak working set, the capacity number exploration
    /// runs are sized by.
    pub peak_frontier: usize,
    /// Whether the transposition table stored 128-bit fingerprints
    /// instead of full snapshots ([`ExploreConfig::compress`]): the
    /// verdicts then hold only modulo fingerprint collisions
    /// (probability ≈ `states²/2^129`).
    pub fingerprinted: bool,
    /// A minimal-depth mutual exclusion violation, if one is reachable.
    pub violation: Option<Counterexample>,
    /// A progress hazard, if one is reachable (only computed when the
    /// space was fully explored and mutual exclusion holds).
    pub hazard: Option<Hazard>,
}

impl ExploreReport {
    /// Whether mutual exclusion was *proved* for the explored bounds:
    /// the whole bounded space was visited and no violating state
    /// exists in it.
    #[must_use]
    pub fn certified_safe(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }

    /// Whether deadlock-freedom was proved on top of safety: from every
    /// reachable state some schedule completes the passage target.
    #[must_use]
    pub fn certified_deadlock_free(&self) -> bool {
        self.certified_safe() && self.hazard.is_none()
    }

    /// Fraction of insert traffic answered by the transposition table:
    /// `dedup_hits / (states + dedup_hits)`, 0 for an empty build.
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        let total = self.states + self.dedup_hits;
        if total == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / total as f64
        }
    }
}

/// Exhaustively explores every interleaving of `alg` in which each
/// process performs at most `cfg.passages` passages, and returns
/// certified safety and progress verdicts.
///
/// Exploration runs breadth-first in parallel over `cfg.workers`
/// threads (see the crate docs); verdicts, state counts and depths are
/// independent of the worker count. When a violation exists, the
/// returned counterexample has minimal schedule length — though which
/// of several equally short witnesses is returned may vary between
/// parallel runs (parent pointers go to first discoverers); every
/// returned witness replays.
///
/// # Example
///
/// ```
/// use exclusion_explore::{explore, ExploreConfig};
/// use exclusion_shmem::testing::{Alternator, NoLock};
///
/// let good = explore(&Alternator::new(2), &ExploreConfig::default());
/// assert!(good.certified_deadlock_free());
///
/// let bad = explore(&NoLock::new(2), &ExploreConfig::default());
/// let witness = bad.violation.expect("NoLock is unsafe");
/// assert!(!witness.trace.mutual_exclusion(2));
/// ```
#[must_use]
pub fn explore(alg: &(dyn DynAutomaton + Sync), cfg: &ExploreConfig) -> ExploreReport {
    explore_probed(alg, cfg, &mut NoProbe)
}

/// [`explore`] with a [`Probe`] observing the build: a
/// [`SpanScope::Explore`] span around the whole pass and one
/// layer event per barrier-merged BFS layer, emitted single-threaded so
/// the stream is worker-count independent ([`explore`] is this function
/// with [`NoProbe`], leaving the unprobed pass unchanged).
#[must_use]
pub fn explore_probed(
    alg: &(dyn DynAutomaton + Sync),
    cfg: &ExploreConfig,
    probe: &mut dyn Probe,
) -> ExploreReport {
    let graph = crate::spanned(probe, SpanScope::Explore, alg.processes() as u32, |probe| {
        build(alg, &ScLens, cfg, true, probe)
    });
    report_from_graph(alg, &graph, cfg, None)
}

/// Derives the safety/progress verdicts from an already-built graph —
/// shared by [`explore`] and by [`crate::analyze`], which reuses one
/// SC graph (and, via `live`, one backward-reachability pass) for both
/// certification and the worst-case search.
pub(crate) fn report_from_graph(
    alg: &(dyn DynAutomaton + Sync),
    graph: &BuiltGraph,
    cfg: &ExploreConfig,
    live: Option<&[bool]>,
) -> ExploreReport {
    let mut report = ExploreReport {
        algorithm: alg.name(),
        n: alg.processes(),
        passages: cfg.passages,
        states: graph.nodes.len(),
        edges: graph.edges,
        depth: graph.depth as usize,
        truncated: graph.truncated,
        dedup_hits: graph.dedup_hits,
        peak_frontier: graph.peak_frontier,
        fingerprinted: cfg.compress,
        violation: None,
        hazard: None,
    };
    if let Some(cex) = pick_violation(alg, graph) {
        report.violation = Some(cex);
        return report;
    }
    if !graph.truncated {
        let owned;
        let live = match live {
            Some(l) => l,
            None => {
                owned = live_set(graph);
                &owned
            }
        };
        report.hazard = find_hazard(alg, graph, live);
    }
    report
}

/// Materializes a minimal-depth violation (if any) into a replayable
/// counterexample: node depths are BFS distances, so the shortest
/// recorded schedule is globally minimal (with a violation halt the
/// recorded set is exactly the first violating layer; on a full-space
/// graph deeper violations are recorded too and lose the `min_by`).
/// Among equally short schedules the lexicographically smallest is
/// chosen, so equal explorations produce the same witness whenever
/// their discovery races resolve the same way.
fn pick_violation(alg: &(dyn DynAutomaton + Sync), graph: &BuiltGraph) -> Option<Counterexample> {
    let schedule = graph
        .violations
        .iter()
        .filter(|&&v| graph.nodes[v as usize].violating)
        .map(|&v| graph.schedule_to(v))
        .min_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)))?;
    // An orbit-reduced graph records pids in canonical frames; fold the
    // build's permutations back out so the schedule replays verbatim.
    let schedule = decanonicalize_schedule(alg, graph.symmetric, &schedule);
    let dref = DynRef(alg);
    let mut sys = System::new(&dref);
    let mut trace = Execution::new();
    for &p in &schedule {
        trace.push(sys.step(p).step);
    }
    let mut critical = sys.in_critical();
    let culprits = (
        critical.next().expect("violating state"),
        critical.next().expect("two in critical"),
    );
    Some(Counterexample {
        schedule,
        trace,
        culprits,
    })
}

/// Classifies the doomed region given the backward-reachability result
/// (the shared [`live_set`]): every reachable state that cannot reach
/// completion is *doomed*. The witness schedule leads to a stuck state
/// when one exists (deadlock), otherwise to the shallowest doomed
/// state (livelock).
fn find_hazard(
    alg: &(dyn DynAutomaton + Sync),
    graph: &BuiltGraph,
    live: &[bool],
) -> Option<Hazard> {
    let nodes = &graph.nodes;
    let doomed_states = live.iter().filter(|&&l| !l).count();
    if doomed_states == 0 {
        return None;
    }
    // A doomed node is stuck when every live process's step maps the
    // system to itself — the whole system spins in place.
    let stuck = |u: usize| graph.succs(u as u32).all(|(_, t, _)| t as usize == u);
    let witness = (0..nodes.len())
        .filter(|&u| !live[u] && stuck(u))
        .min_by_key(|&u| nodes[u].depth);
    let (kind, target) = match witness {
        Some(u) => (HazardKind::Deadlock, u),
        None => {
            let shallowest = (0..nodes.len())
                .filter(|&u| !live[u])
                .min_by_key(|&u| nodes[u].depth)
                .expect("doomed set is nonempty");
            (HazardKind::Livelock, shallowest)
        }
    };
    Some(Hazard {
        kind,
        schedule: decanonicalize_schedule(alg, graph.symmetric, &graph.schedule_to(target as u32)),
        doomed_states,
    })
}
