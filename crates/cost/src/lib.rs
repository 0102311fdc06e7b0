//! Cost models over shared-memory executions.
//!
//! The paper's contribution is a lower bound in the **state change (SC)
//! cost model** (Definition 3.1): an algorithm is charged one unit for
//! every shared-memory step after which the acting process's state
//! differs — so a busy-wait that keeps reading the same value on one
//! register is free until the value it is waiting for arrives. This crate
//! implements SC exactly, plus the two standard models the paper
//! contrasts it with in §3.3:
//!
//! * [`cc_cost`] — the **cache-coherent (CC)** model: a read costs one
//!   remote memory reference when the register is not in the reader's
//!   cache (never read since the last invalidating write, or since the
//!   reader last crashed); a write always costs one and invalidates all
//!   other caches;
//! * [`dsm_cost`] — the **distributed shared memory (DSM)** model: every
//!   access to a register whose home is not the acting process costs one
//!   (homes are declared by [`Automaton::register_home`]).
//!
//! The same two models price crashed runs in the recoverable-mutex RMR
//! model (Golab–Ramaraju): a [`Step::Crash`] wipes the crashed
//! process's cache, so RMR-CC is the CC cost of a crashed execution and
//! RMR-DSM is its DSM cost. On a crash-free execution the crash rule
//! never fires.
//!
//! All three models exist in two computations that are pinned
//! bit-identical by tests:
//!
//! * **replay-based** — [`sc_cost`], [`cc_cost`], [`dsm_cost`],
//!   [`all_costs`]: deterministic replay of a recorded [`Execution`]
//!   (three separate re-executions for `all_costs`);
//! * **streaming** — [`CostTracker`] prices SC, CC and DSM *online* from
//!   [`Executed`] outcomes as a run produces them, and [`run_priced`]
//!   drives any scheduler through the one run loop, `run_faulted_with`,
//!   without recording anything — one pass, O(1) pricing per step, and
//!   the run's completion count in [`PricedRun::completed`].
//!
//! # Example
//!
//! ```
//! use exclusion_cost::{sc_cost, cc_cost, dsm_cost};
//! use exclusion_mutex::DekkerTournament;
//! use exclusion_shmem::sched::run_sequential;
//! use exclusion_shmem::ProcessId;
//!
//! let alg = DekkerTournament::new(8);
//! let order: Vec<_> = ProcessId::all(8).collect();
//! let exec = run_sequential(&alg, &order, 100_000).unwrap();
//! let sc = sc_cost(&alg, &exec).unwrap();
//! // Every shared access in a canonical (no-contention) run changes
//! // state, so SC ≤ total shared accesses.
//! assert!(sc.total() <= exec.shared_accesses());
//! assert!(cc_cost(&alg, &exec).unwrap().total() > 0);
//! assert!(dsm_cost(&alg, &exec).unwrap().total() > 0);
//! ```
//!
//! Streaming, without recording the execution:
//!
//! ```
//! use exclusion_cost::run_priced;
//! use exclusion_mutex::DekkerTournament;
//! use exclusion_shmem::sched::GreedyAdversary;
//!
//! let alg = DekkerTournament::new(8);
//! let priced = run_priced(&alg, &mut GreedyAdversary::new(), 1, 100_000).unwrap();
//! assert!(priced.sc.total() > 0);
//! assert!(priced.steps > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use exclusion_shmem::fault::{run_faulted_with, FaultPlan};
use exclusion_shmem::probe::{NoProbe, Probe, TraceEvent};
use exclusion_shmem::{
    replay, Automaton, Executed, Execution, ProcessId, RegisterId, ReplayError, RunError,
    Scheduler, Step,
};

/// A cost total with per-process and per-register breakdowns.
///
/// Both breakdowns are dense vectors indexed by id (process and register
/// counts are known from the automaton), so charging is two array
/// increments — no hashing on the charge path.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CostReport {
    per_process: Vec<usize>,
    per_register: Vec<usize>,
}

impl CostReport {
    fn new(processes: usize, registers: usize) -> Self {
        CostReport {
            per_process: vec![0; processes],
            per_register: vec![0; registers],
        }
    }

    fn charge(&mut self, pid: ProcessId, reg: RegisterId) {
        self.per_process[pid.index()] += 1;
        self.per_register[reg.index()] += 1;
    }

    /// Total cost over all processes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.per_process.iter().sum()
    }

    /// Cost charged to one process.
    #[must_use]
    pub fn process(&self, pid: ProcessId) -> usize {
        self.per_process[pid.index()]
    }

    /// Cost charged per process, indexed by process.
    #[must_use]
    pub fn per_process(&self) -> &[usize] {
        &self.per_process
    }

    /// Cost attributed to accesses of one register.
    #[must_use]
    pub fn register(&self, reg: RegisterId) -> usize {
        self.per_register.get(reg.index()).copied().unwrap_or(0)
    }

    /// Cost attributed per register, indexed by register.
    #[must_use]
    pub fn per_register(&self) -> &[usize] {
        &self.per_register
    }

    /// The maximum cost any single process was charged.
    #[must_use]
    pub fn max_process(&self) -> usize {
        self.per_process.iter().copied().max().unwrap_or(0)
    }
}

/// The state-change cost `C(α)` of Definition 3.1: one unit per
/// shared-memory step that changes the acting process's state.
///
/// # Errors
///
/// Returns [`ReplayError`] if the execution was not produced by `alg`.
pub fn sc_cost<A: Automaton>(alg: &A, exec: &Execution) -> Result<CostReport, ReplayError> {
    let mut report = CostReport::new(alg.processes(), alg.registers());
    replay(alg, exec.steps(), |o| {
        if o.state_changed {
            if let Some(reg) = o.step.register() {
                report.charge(o.step.pid(), reg);
            }
        }
    })?;
    Ok(report)
}

/// The cache-coherent cost: remote memory references under a
/// write-invalidate protocol with unbounded caches.
///
/// A read by `p` of register `ℓ` is free if `p` has read or written `ℓ`
/// since the last write to `ℓ` by another process, and costs one
/// otherwise (the line must be fetched). A write always costs one and
/// invalidates every other process's cached copy. A crash of `p` wipes
/// `p`'s cache (its volatile state, cache included, is lost), so every
/// register it re-reads after recovery is fetched again; the crash step
/// itself is free.
///
/// # Errors
///
/// Returns [`ReplayError`] if the execution was not produced by `alg`.
pub fn cc_cost<A: Automaton>(alg: &A, exec: &Execution) -> Result<CostReport, ReplayError> {
    let n = alg.processes();
    let regs = alg.registers();
    let mut report = CostReport::new(n, regs);
    // cached[p][ℓ]: does p hold a valid copy of ℓ?
    let mut cached = vec![vec![false; regs]; n];
    replay(alg, exec.steps(), |o| match o.step {
        Step::Read { pid, reg } => {
            if !cached[pid.index()][reg.index()] {
                report.charge(pid, reg);
                cached[pid.index()][reg.index()] = true;
            }
        }
        // RMW claims the line exclusively, like a write.
        Step::Write { pid, reg, .. } | Step::Rmw { pid, reg, .. } => {
            report.charge(pid, reg);
            for (i, c) in cached.iter_mut().enumerate() {
                c[reg.index()] = i == pid.index();
            }
        }
        Step::Crash { pid } => cached[pid.index()].fill(false),
        Step::Crit { .. } => {}
    })?;
    Ok(report)
}

/// The distributed-shared-memory cost: one unit per access to a register
/// whose [`register_home`](Automaton::register_home) is not the acting
/// process (or is unassigned).
///
/// # Errors
///
/// Returns [`ReplayError`] if the execution was not produced by `alg`.
pub fn dsm_cost<A: Automaton>(alg: &A, exec: &Execution) -> Result<CostReport, ReplayError> {
    let mut report = CostReport::new(alg.processes(), alg.registers());
    replay(alg, exec.steps(), |o| {
        if let Some(reg) = o.step.register() {
            if alg.register_home(reg) != Some(o.step.pid()) {
                report.charge(o.step.pid(), reg);
            }
        }
    })?;
    Ok(report)
}

/// All three costs of one execution: `(sc, cc, dsm)`.
///
/// # Errors
///
/// Returns [`ReplayError`] if the execution was not produced by `alg`.
pub fn all_costs<A: Automaton>(
    alg: &A,
    exec: &Execution,
) -> Result<(CostReport, CostReport, CostReport), ReplayError> {
    Ok((
        sc_cost(alg, exec)?,
        cc_cost(alg, exec)?,
        dsm_cost(alg, exec)?,
    ))
}

/// Streaming pricer: accumulates the SC, CC and DSM costs of a run
/// online, one [`Executed`] outcome at a time, with O(1) work per
/// ordinary step — no recorded execution, no replays.
///
/// The CC model's write-invalidation is tracked with epoch counters
/// (`valid(p, ℓ) ⇔ p touched ℓ after the last write to ℓ`) instead of
/// clearing an n-entry cache column per write, so even writes are O(1).
/// A crash clears the victim's row, which reads as "never touched": an
/// O(registers) wipe, made at most once per injected crash.
/// Totals and breakdowns are bit-identical to the replay-based pricers
/// ([`sc_cost`], [`cc_cost`], [`dsm_cost`]) on the recorded execution of
/// the same run — pinned by the cross-suite equivalence tests.
///
/// # Example
///
/// ```
/// use exclusion_cost::{sc_cost, CostTracker};
/// use exclusion_mutex::Peterson;
/// use exclusion_shmem::{ProcessId, System};
///
/// let alg = Peterson::new(2);
/// let mut sys = System::new(&alg);
/// let mut tracker = CostTracker::new(&alg);
/// let mut steps = Vec::new();
/// let p0 = ProcessId::new(0);
/// while sys.passages(p0) == 0 {
///     let done = sys.step(p0);
///     tracker.observe(&done);
///     steps.push(done.step);
/// }
/// let replayed = sc_cost(&alg, &steps.into_iter().collect()).unwrap();
/// assert_eq!(tracker.sc(), &replayed);
/// ```
#[derive(Clone, Debug)]
pub struct CostTracker {
    registers: usize,
    sc: CostReport,
    cc: CostReport,
    dsm: CostReport,
    /// Epoch at which process `p` last touched register `ℓ` (row-major
    /// `p * registers + ℓ`); 0 means never.
    touched: Vec<usize>,
    /// Epoch of the last write (or RMW) to each register.
    invalidated: Vec<usize>,
    /// Strictly increasing step clock, starting at 1.
    clock: usize,
    /// Home process of each register, precomputed from the automaton.
    home: Vec<Option<ProcessId>>,
}

impl CostTracker {
    /// A tracker for runs of `alg`, starting from zero cost.
    #[must_use]
    pub fn new<A: Automaton>(alg: &A) -> Self {
        let n = alg.processes();
        let registers = alg.registers();
        CostTracker {
            registers,
            sc: CostReport::new(n, registers),
            cc: CostReport::new(n, registers),
            dsm: CostReport::new(n, registers),
            touched: vec![0; n * registers],
            invalidated: vec![0; registers],
            clock: 0,
            home: RegisterId::all(registers)
                .map(|r| alg.register_home(r))
                .collect(),
        }
    }

    /// Prices one executed step under all three models.
    pub fn observe(&mut self, done: &Executed) {
        self.clock += 1;
        let step = done.step;
        if done.state_changed {
            if let Some(reg) = step.register() {
                self.sc.charge(step.pid(), reg);
            }
        }
        match step {
            Step::Read { pid, reg } => {
                let cell = &mut self.touched[pid.index() * self.registers + reg.index()];
                if *cell == 0 || *cell < self.invalidated[reg.index()] {
                    self.cc.charge(pid, reg);
                }
                *cell = self.clock;
            }
            // RMW claims the line exclusively, like a write.
            Step::Write { pid, reg, .. } | Step::Rmw { pid, reg, .. } => {
                self.cc.charge(pid, reg);
                self.invalidated[reg.index()] = self.clock;
                self.touched[pid.index() * self.registers + reg.index()] = self.clock;
            }
            Step::Crash { pid } => {
                let row = pid.index() * self.registers;
                self.touched[row..row + self.registers].fill(0);
            }
            Step::Crit { .. } => {}
        }
        if let Some(reg) = step.register() {
            if self.home[reg.index()] != Some(step.pid()) {
                self.dsm.charge(step.pid(), reg);
            }
        }
    }

    /// Prices one executed step and reports it to `probe`: an
    /// [`Executed`](TraceEvent::Executed) event for every step, plus a
    /// [`Charged`](TraceEvent::Charged) event carrying the per-model
    /// deltas when any model charged. With a disabled probe this is
    /// exactly [`observe`](CostTracker::observe) — no event is even
    /// constructed.
    pub fn observe_probed<P: Probe + ?Sized>(&mut self, done: &Executed, probe: &mut P) {
        if !probe.enabled() {
            self.observe(done);
            return;
        }
        let pid = done.step.pid();
        // Every model charges only the acting process, so per-step
        // deltas are two O(1) reads around the observe.
        let before = (
            self.sc.process(pid),
            self.cc.process(pid),
            self.dsm.process(pid),
        );
        self.observe(done);
        let index = self.clock - 1;
        probe.record(&TraceEvent::Executed {
            index,
            pid,
            ty: done.step.step_type(),
            reg: done.step.register(),
            state_changed: done.state_changed,
        });
        let (sc, cc, dsm) = (
            (self.sc.process(pid) - before.0) as u8,
            (self.cc.process(pid) - before.1) as u8,
            (self.dsm.process(pid) - before.2) as u8,
        );
        if sc + cc + dsm > 0 {
            // Only shared-memory steps charge, so the register exists.
            if let Some(reg) = done.step.register() {
                probe.record(&TraceEvent::Charged {
                    index,
                    pid,
                    reg,
                    sc,
                    cc,
                    dsm,
                });
            }
        }
    }

    /// Steps priced so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.clock
    }

    /// The state-change cost accumulated so far.
    #[must_use]
    pub fn sc(&self) -> &CostReport {
        &self.sc
    }

    /// The cache-coherent cost accumulated so far.
    #[must_use]
    pub fn cc(&self) -> &CostReport {
        &self.cc
    }

    /// The distributed-shared-memory cost accumulated so far.
    #[must_use]
    pub fn dsm(&self) -> &CostReport {
        &self.dsm
    }

    /// Consumes the tracker, returning `(sc, cc, dsm)`.
    #[must_use]
    pub fn into_reports(self) -> (CostReport, CostReport, CostReport) {
        (self.sc, self.cc, self.dsm)
    }
}

/// All three costs of one streamed run, plus its length and how many
/// processes finished — what [`run_priced`] returns instead of a
/// recorded execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PricedRun {
    /// Steps the run took.
    pub steps: usize,
    /// Processes that had completed their passages when the scheduler
    /// stopped ([`Run::completed`](exclusion_shmem::Run::completed));
    /// fewer than `n` means the run stopped short.
    pub completed: usize,
    /// State-change (SC) cost.
    pub sc: CostReport,
    /// Cache-coherent (CC) cost.
    pub cc: CostReport,
    /// Distributed-shared-memory (DSM) cost.
    pub dsm: CostReport,
}

/// Drives `sched` over a fresh system of `alg` and prices the run under
/// all three cost models in the same single pass — nothing is recorded
/// and nothing is replayed. This is the streaming counterpart of
/// `run_scheduler` + [`all_costs`], with identical results (bit-for-bit,
/// pinned by tests) at a quarter of the automaton evaluations.
///
/// # Errors
///
/// Returns [`RunError`] if the scheduler keeps picking processes past
/// `max_steps`.
pub fn run_priced<A, S>(
    alg: &A,
    sched: &mut S,
    passages: usize,
    max_steps: usize,
) -> Result<PricedRun, RunError>
where
    A: Automaton,
    S: Scheduler + ?Sized,
{
    run_priced_probed(alg, sched, passages, max_steps, NoProbe)
}

/// [`run_priced`] with a [`Probe`] observing the run: one
/// [`Executed`](TraceEvent::Executed) event per step and one
/// [`Charged`](TraceEvent::Charged) event per charged step, in step
/// order. [`run_priced`] is this function monomorphized with
/// [`NoProbe`], so the unprobed hot path is unchanged (the overhead
/// bound is pinned by `bench_trace`).
///
/// # Errors
///
/// Returns [`RunError`] if the scheduler keeps picking processes past
/// `max_steps`.
pub fn run_priced_probed<A, S, P>(
    alg: &A,
    sched: &mut S,
    passages: usize,
    max_steps: usize,
    mut probe: P,
) -> Result<PricedRun, RunError>
where
    A: Automaton,
    S: Scheduler + ?Sized,
    P: Probe,
{
    let mut tracker = CostTracker::new(alg);
    let run = run_faulted_with(
        alg,
        sched,
        &mut FaultPlan::none(),
        passages,
        max_steps,
        &mut NoProbe,
        |done| tracker.observe_probed(done, &mut probe),
    )?;
    let (sc, cc, dsm) = tracker.into_reports();
    Ok(PricedRun {
        steps: run.steps,
        completed: run.completed,
        sc,
        cc,
        dsm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_mutex::{AlgorithmInfo, AlgorithmRegistry, Bakery, DekkerTournament, Peterson};
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};
    use exclusion_shmem::testing::Alternator;
    use exclusion_shmem::{Automaton, DynRef};

    fn canonical<A: Automaton>(alg: &A) -> Execution {
        let order: Vec<_> = ProcessId::all(alg.processes()).collect();
        run_sequential(alg, &order, 1_000_000).expect("canonical run")
    }

    #[test]
    fn sc_ignores_free_busywaits() {
        // Alternator: p1 spins on `turn` while p0 completes. Under round
        // robin p1's failed reads are free.
        let alg = Alternator::new(2);
        let exec = run_round_robin(&alg, 1, 10_000).unwrap();
        let sc = sc_cost(&alg, &exec).unwrap();
        let (reads, writes, _) = exec.type_counts();
        assert!(reads + writes > sc.total(), "some spins must be free");
        // p1 pays exactly: 1 successful read + 1 write = 2.
        assert_eq!(sc.process(ProcessId::new(1)), 2);
    }

    #[test]
    fn sc_charges_every_step_in_solo_runs() {
        // A canonical sequential dekker run has no contention: every
        // shared access changes state.
        let alg = DekkerTournament::new(8);
        let exec = canonical(&alg);
        let sc = sc_cost(&alg, &exec).unwrap();
        assert_eq!(sc.total(), exec.shared_accesses());
    }

    #[test]
    fn dekker_canonical_sc_cost_is_4_n_log_n() {
        for n in [2usize, 4, 8, 16, 32] {
            let alg = DekkerTournament::new(n);
            let exec = canonical(&alg);
            let sc = sc_cost(&alg, &exec).unwrap();
            let levels = (usize::BITS - (n - 1).leading_zeros()) as usize;
            assert_eq!(sc.total(), 4 * levels * n, "n = {n}");
        }
    }

    #[test]
    fn bakery_canonical_sc_cost_is_quadratic() {
        let mut prev = 0;
        for n in [4usize, 8, 16] {
            let alg = Bakery::new(n);
            let exec = canonical(&alg);
            let sc = sc_cost(&alg, &exec).unwrap().total();
            // ~ n * (n reads + n waits + 3 writes): strictly superlinear.
            assert!(sc >= n * n, "n = {n}, sc = {sc}");
            assert!(sc > 2 * prev, "quadratic growth from {prev} to {sc}");
            prev = sc;
        }
    }

    #[test]
    fn cc_cached_rereads_are_free() {
        // In Peterson contention, a spinning process re-reads the same
        // two registers; CC charges only on invalidation.
        let alg = Peterson::new(2);
        let exec = run_round_robin(&alg, 2, 100_000).unwrap();
        let cc = cc_cost(&alg, &exec).unwrap();
        let sc = sc_cost(&alg, &exec).unwrap();
        let (reads, writes, _) = exec.type_counts();
        assert!(cc.total() <= reads + writes);
        // Peterson's two-register spin changes state every read: SC
        // charges the spin, CC does not.
        assert!(sc.total() >= cc.total());
    }

    #[test]
    fn dsm_respects_homes() {
        // Bakery declares choosing[i]/number[i] home = i; a process's
        // accesses to its own registers are free.
        let alg = Bakery::new(3);
        let exec = canonical(&alg);
        let dsm = dsm_cost(&alg, &exec).unwrap();
        let sc = sc_cost(&alg, &exec).unwrap();
        assert!(dsm.total() < sc.total());
        for p in ProcessId::all(3) {
            assert!(dsm.process(p) > 0);
        }
    }

    #[test]
    fn dsm_charges_everything_without_homes() {
        // Peterson declares no homes: DSM cost = all shared accesses.
        let alg = Peterson::new(2);
        let exec = canonical(&alg);
        let dsm = dsm_cost(&alg, &exec).unwrap();
        assert_eq!(dsm.total(), exec.shared_accesses());
    }

    #[test]
    fn reports_break_down_consistently() {
        let alg = DekkerTournament::new(4);
        let exec = canonical(&alg);
        let (sc, cc, dsm) = all_costs(&alg, &exec).unwrap();
        for report in [&sc, &cc, &dsm] {
            let by_reg: usize = RegisterId::all(alg.registers())
                .map(|r| report.register(r))
                .sum();
            assert_eq!(report.total(), by_reg);
            assert!(report.max_process() <= report.total());
        }
    }

    #[test]
    fn costs_are_deterministic_across_replays() {
        let alg = DekkerTournament::new(4);
        let exec = run_random(&alg, 2, 1_000_000, 7).unwrap();
        let a = sc_cost(&alg, &exec).unwrap();
        let b = sc_cost(&alg, &exec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn whole_suite_has_finite_canonical_costs() {
        for r in AlgorithmRegistry::global().resolve_where(6, AlgorithmInfo::paper_lock) {
            let alg = DynRef(r.automaton.as_ref());
            let exec = canonical(&alg);
            let (sc, cc, dsm) = all_costs(&alg, &exec).unwrap();
            assert!(sc.total() > 0, "{}", alg.name());
            assert!(cc.total() > 0, "{}", alg.name());
            assert!(dsm.total() > 0, "{}", alg.name());
        }
    }

    #[test]
    fn streaming_tracker_matches_replay_pricers_under_contention() {
        use exclusion_shmem::sched::{run_scheduler, GreedyAdversary, Random};
        for r in AlgorithmRegistry::global().resolve_where(4, |i| i.deadlock_free) {
            let alg = DynRef(r.automaton.as_ref());
            let exec = run_scheduler(&alg, &mut Random::new(11), 2, 50_000_000).unwrap();
            let (sc, cc, dsm) = all_costs(&alg, &exec).unwrap();
            let priced = run_priced(&alg, &mut Random::new(11), 2, 50_000_000).unwrap();
            assert_eq!(priced.steps, exec.len(), "{}", alg.name());
            assert_eq!(priced.sc, sc, "{}", alg.name());
            assert_eq!(priced.cc, cc, "{}", alg.name());
            assert_eq!(priced.dsm, dsm, "{}", alg.name());

            let exec = run_scheduler(&alg, &mut GreedyAdversary::new(), 2, 50_000_000).unwrap();
            let replayed = all_costs(&alg, &exec).unwrap();
            let priced = run_priced(&alg, &mut GreedyAdversary::new(), 2, 50_000_000).unwrap();
            assert_eq!(
                (priced.sc, priced.cc, priced.dsm),
                replayed,
                "{} under greedy",
                alg.name()
            );
        }
    }

    #[test]
    fn run_priced_propagates_budget_exhaustion() {
        use exclusion_shmem::sched::RoundRobin;
        let alg = Bakery::new(4);
        let err = run_priced(&alg, &mut RoundRobin::new(), 1, 3).unwrap_err();
        assert_eq!(err.limit, 3);
    }

    #[test]
    fn probed_run_matches_unprobed_and_emits_charges() {
        use exclusion_shmem::sched::GreedyAdversary;
        struct Collect(Vec<TraceEvent>);
        impl Probe for Collect {
            fn record(&mut self, ev: &TraceEvent) {
                self.0.push(*ev);
            }
        }
        let alg = Peterson::new(3);
        let unprobed = run_priced(&alg, &mut GreedyAdversary::new(), 2, 100_000).unwrap();
        let mut collect = Collect(Vec::new());
        let probed =
            run_priced_probed(&alg, &mut GreedyAdversary::new(), 2, 100_000, &mut collect).unwrap();
        assert_eq!(unprobed, probed);
        // One Executed event per step, in step order.
        let executed: Vec<usize> = collect
            .0
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Executed { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(executed, (0..probed.steps).collect::<Vec<_>>());
        // Charged deltas re-add to the reports' totals.
        let (mut sc, mut cc, mut dsm) = (0usize, 0usize, 0usize);
        for ev in &collect.0 {
            if let TraceEvent::Charged {
                sc: s,
                cc: c,
                dsm: d,
                ..
            } = ev
            {
                sc += usize::from(*s);
                cc += usize::from(*c);
                dsm += usize::from(*d);
            }
        }
        assert_eq!(sc, probed.sc.total());
        assert_eq!(cc, probed.cc.total());
        assert_eq!(dsm, probed.dsm.total());
    }

    #[test]
    fn crashes_wipe_the_victims_cache_in_both_pricers() {
        use exclusion_shmem::fault::run_faulted;
        use exclusion_shmem::sched::RoundRobin;
        let alg = Peterson::new(2);
        let mut plan = FaultPlan::in_critical(2);
        let exec = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 100_000).unwrap();
        assert_eq!(exec.crash_count(), 2);
        // Each victim re-reads what its crash wiped: 20 remote
        // references, where a cache that survived the crashes gives 18.
        let replayed = all_costs(&alg, &exec).unwrap();
        assert_eq!(replayed.1.total(), 20);
        let mut tracker = CostTracker::new(&alg);
        let mut sys = exclusion_shmem::System::new(&alg);
        for s in exec.steps() {
            tracker.observe(&sys.execute_expected(*s).unwrap());
        }
        assert_eq!(tracker.into_reports(), replayed);
    }

    #[test]
    fn replay_error_propagates() {
        use exclusion_shmem::{CritKind, Step};
        let alg = Peterson::new(2);
        let bogus = Execution::from_steps(vec![Step::crit(
            ProcessId::new(0),
            CritKind::Enter, // processes must start with try
        )]);
        assert!(sc_cost(&alg, &bogus).is_err());
        assert!(cc_cost(&alg, &bogus).is_err());
        assert!(dsm_cost(&alg, &bogus).is_err());
    }
}
