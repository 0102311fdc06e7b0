//! Schedulers: drivers that pick which process steps next and record the
//! resulting execution.
//!
//! # The [`Scheduler`] trait
//!
//! A scheduler is the adversary of the paper's model: the algorithm is
//! deterministic, so the *schedule* — which process moves at each point —
//! is the only source of nondeterminism, and choosing it is how an
//! adversary extracts cost. Implementors see a [`SchedContext`]: one
//! [`ProcessView`] per process carrying its section, completed passages,
//! and a preview of its pending step (`shared`, `changes_state` — the SC
//! predicate of the paper's Figure 1). [`run_scheduler`] drives any
//! `Scheduler` until it returns `None` or a step budget is exhausted,
//! through the one run loop, [`run_faulted_with`], which also reports
//! how many processes reached their target (a
//! [`Run`](crate::fault::Run)).
//!
//! Built-in schedulers:
//!
//! * [`Sequential`] — the canonical no-contention schedule: each process
//!   of an order runs a whole passage before the next starts;
//! * [`RoundRobin`] — deterministic fair interleaving;
//! * [`Random`] — uniformly random fair interleaving (seeded);
//! * [`GreedyAdversary`] — cost-maximizing: always schedules a process
//!   whose pending shared step would be charged under SC;
//! * [`Burst`] — phased arrival: processes join in waves;
//! * [`Stagger`] — per-process enable times;
//! * [`Script`] — replays a fixed pick sequence (e.g. an exact
//!   worst-case witness schedule) and stops.
//!
//! [`Traced`] wraps any scheduler and records the picks it makes — the
//! hook surface for adversary engines (`exclusion-bound`) that need a
//! replayable [`Script`] out of a stateful, observation-fed strategy
//! without changing how the run is driven or priced.
//!
//! # Fairness obligations for implementors
//!
//! The paper's executions are *fair*: no process outside its remainder
//! section is neglected forever. Every built-in scheduler here upholds a
//! bounded version of that obligation — each live process is scheduled at
//! least once in any window of `B` picks for some bound `B` (round-robin:
//! `B = n`; [`GreedyAdversary`]: its `patience` valve) — which is what
//! makes runs of livelock-free algorithms terminate. A custom `Scheduler`
//! that starves a live process forever models a *non-admissible*
//! adversary: [`run_scheduler`] will still behave correctly, but runs may
//! only end by exhausting `max_steps` and reporting [`RunError`].
//! Implementors must also only ever pick **live** processes (ones with
//! `done == false`); picking a finished process would start an unwanted
//! extra passage, and the driver rejects it with a debug assertion.
//!
//! # The incremental-view contract
//!
//! The driver does **not** rebuild the views from scratch on every step
//! (that would cost Θ(n) `peek`/`observe` evaluations per simulated
//! step). It maintains them in a [`ViewTable`] and, after a step,
//! refreshes only what the step could have changed:
//!
//! * the acting process's whole view (its state, section, passage count
//!   and pending step are the only ones that can move);
//! * the `changes_state` preview of every process whose pending read or
//!   RMW targets the register the step wrote, found via a per-register
//!   waiter index (a write can flip exactly those previews — a pending
//!   write/crit preview depends only on the acting process's own state).
//!
//! The per-step cost is therefore O(1 + affected) instead of Θ(n), and
//! δ (the automaton's transition function) is evaluated once per step:
//! [`ViewTable::step`] executes the pending step the acting process's
//! view already holds, so only the step after it is computed.
//!
//! Each process is driven to its own target passage count, and its view
//! is `done` once it has completed that many. [`ViewTable::new`] gives
//! every process the same target; [`ViewTable::set_target`] moves one
//! process's target (an open driver, like `exclusion-serve`'s lanes,
//! starts every process at target 0 and raises one by a passage to hand
//! it work). A custom [`Scheduler`] may rely on the views it sees being
//! *exactly* what a fresh rebuild would produce — `ViewTable::new(sys,
//! 0, previews)` followed by the same `set_target` calls (pinned by
//! tests). A custom driver that wants the same guarantee can use
//! [`ViewTable`] directly: construct it with [`ViewTable::new`], execute
//! scheduled steps with [`ViewTable::step`], and report any step made
//! outside it (a [`System::crash`]) with [`ViewTable::apply`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::automaton::{Automaton, NextStep};
use crate::error::RunError;
use crate::execution::Execution;
use crate::fault::{run_faulted_with, FaultPlan};
use crate::ids::{ProcessId, RegisterId};
use crate::probe::NoProbe;
use crate::step::Step;
use crate::system::{Executed, Section, System};

/// What a scheduler is allowed to see about one process before picking:
/// bookkeeping plus a preview of the process's pending step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProcessView {
    /// The process this view describes.
    pub pid: ProcessId,
    /// Its current section.
    pub section: Section,
    /// Completed passages so far.
    pub passages: usize,
    /// Whether it has completed all passages the run asks for. Done
    /// processes must not be picked.
    pub done: bool,
    /// The pending step itself (δ of the current state).
    pub next: NextStep,
    /// Whether executing its pending step right now would change its
    /// state — i.e. whether the SC cost model would charge it (for
    /// shared steps) and whether a spin would advance (for reads).
    ///
    /// Computing this costs an `observe` evaluation per process per
    /// step, so it is only populated for schedulers that opt in via
    /// [`Scheduler::wants_step_previews`]; otherwise it is `false`.
    pub changes_state: bool,
}

impl ProcessView {
    /// Whether the pending step accesses shared memory (read, write or
    /// RMW — as opposed to a critical step).
    #[must_use]
    pub fn shared(&self) -> bool {
        !matches!(self.next, NextStep::Crit(_))
    }
}

/// Everything a [`Scheduler`] sees when asked for the next process.
#[derive(Clone, Copy, Debug)]
pub struct SchedContext<'a> {
    /// Global index of the step about to be scheduled (0-based); doubles
    /// as the arrival clock for [`Burst`] and [`Stagger`] and as the
    /// pick clock for [`GreedyAdversary`]'s starvation valve. Drivers
    /// must pass `0` on a run's first pick and increase it by one per
    /// executed step; the built-in schedulers whose picks depend on
    /// per-run history ([`Sequential`], [`GreedyAdversary`]) treat a
    /// pick at step `0` as the start of a fresh run and reset that
    /// history. (The rotation-based schedulers keep their cursor, and
    /// [`Random`] its RNG stream — reusing those across runs is
    /// well-defined but does not replay the first run's schedule.)
    pub step: usize,
    /// The passage count every process is driven to.
    pub target_passages: usize,
    /// One view per process, indexed by process.
    pub views: &'a [ProcessView],
}

impl SchedContext<'_> {
    /// Views of the processes that still have passages to complete.
    pub fn live(&self) -> impl Iterator<Item = &ProcessView> {
        self.views.iter().filter(|v| !v.done)
    }
}

/// A scheduling policy: picks which live process steps next.
///
/// Object safe — `Box<dyn Scheduler>` lets callers select policies at
/// runtime. See the module docs for the fairness obligations.
pub trait Scheduler {
    /// A short name for reports and tables.
    fn name(&self) -> String;

    /// The next process to step, or `None` to end the run (normally:
    /// when every process is done).
    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId>;

    /// Whether this scheduler reads [`ProcessView::changes_state`].
    /// Defaults to `false`, which lets the driver skip the per-process
    /// `observe` evaluation on every step; cost-aware schedulers (like
    /// [`GreedyAdversary`]) opt in.
    fn wants_step_previews(&self) -> bool {
        false
    }
}

/// The single definition of what a process's view is — used both by the
/// from-scratch rebuild and by [`ViewTable::apply`]'s incremental
/// refresh, so the two cannot drift.
fn view_of<A: Automaton>(
    sys: &System<'_, A>,
    pid: ProcessId,
    target: usize,
    previews: bool,
) -> ProcessView {
    let next = sys.peek(pid);
    ProcessView {
        pid,
        section: sys.section(pid),
        passages: sys.passages(pid),
        done: sys.passages(pid) >= target,
        next,
        changes_state: previews && sys.next_changes_state(pid, next),
    }
}

/// Incrementally maintained [`ProcessView`]s over a live [`System`] —
/// the table behind the drivers' O(1 + affected) per-step cost (see the
/// module docs for the contract).
///
/// A `ViewTable` is always equal to what a from-scratch rebuild against
/// the current system would produce: [`ViewTable::new`] with target 0,
/// followed by the same [`ViewTable::set_target`] calls. `new` *is* that
/// rebuild, so the invariant is directly testable:
///
/// ```
/// use exclusion_shmem::sched::ViewTable;
/// use exclusion_shmem::testing::Alternator;
/// use exclusion_shmem::{ProcessId, System};
///
/// let alg = Alternator::new(3);
/// let mut sys = System::new(&alg);
/// let mut table = ViewTable::new(&sys, 1, true);
/// table.step(&mut sys, ProcessId::new(0));
/// assert_eq!(table.views(), ViewTable::new(&sys, 1, true).views());
/// table.set_target(ProcessId::new(2), 0);
/// assert!(table.views()[2].done);
/// ```
#[derive(Clone, Debug)]
pub struct ViewTable {
    views: Vec<ProcessView>,
    /// `targets[p]`: the passage count at which `p`'s view is `done`.
    targets: Vec<usize>,
    previews: bool,
    /// `waiters[r]`: processes whose pending step reads or RMWs register
    /// `r` — the only views whose `changes_state` preview a write to `r`
    /// can flip. Maintained (non-empty) only when previews are on.
    waiters: Vec<Vec<ProcessId>>,
    /// `slot[p]`: where process `p` sits in the waiter index, if
    /// anywhere, for O(1) un-enrollment.
    slot: Vec<Option<(RegisterId, usize)>>,
}

impl ViewTable {
    /// Builds the table from scratch against the system's current state:
    /// one view per process, each driven to `passages` target passages,
    /// with `changes_state` previews populated iff `previews` is set.
    #[must_use]
    pub fn new<A: Automaton>(sys: &System<'_, A>, passages: usize, previews: bool) -> Self {
        let n = sys.processes();
        let mut table = ViewTable {
            views: ProcessId::all(n)
                .map(|p| view_of(sys, p, passages, previews))
                .collect(),
            targets: vec![passages; n],
            previews,
            waiters: vec![
                Vec::new();
                if previews {
                    sys.algorithm().registers()
                } else {
                    0
                }
            ],
            slot: vec![None; if previews { n } else { 0 }],
        };
        if previews {
            for p in ProcessId::all(n) {
                table.enroll(p);
            }
        }
        table
    }

    /// The views, indexed by process.
    #[must_use]
    pub fn views(&self) -> &[ProcessView] {
        &self.views
    }

    /// Moves `pid`'s target to `passages` completed passages; its view
    /// is `done` from then on iff it has completed that many.
    pub fn set_target(&mut self, pid: ProcessId, passages: usize) {
        self.targets[pid.index()] = passages;
        let view = &mut self.views[pid.index()];
        view.done = view.passages >= passages;
    }

    /// Executes `pid`'s pending step — the one its view holds — on `sys`
    /// and updates the table, returning the step's outcome.
    ///
    /// # Panics
    ///
    /// As [`System::step`]; a debug build also checks that the view's
    /// pending step is the one δ gives for `pid`'s current state.
    pub fn step<A: Automaton>(&mut self, sys: &mut System<'_, A>, pid: ProcessId) -> Executed {
        let next = self.views[pid.index()].next;
        debug_assert_eq!(next, sys.peek(pid), "stale view of {pid}");
        let done = sys.apply(pid, next);
        self.apply(sys, &done);
        done
    }

    /// Updates the table after `sys` executed one step with outcome
    /// `done`: the acting process's view is rebuilt, and — when previews
    /// are on and the step wrote a register — the `changes_state`
    /// preview of every process waiting on that register is
    /// re-evaluated.
    pub fn apply<A: Automaton>(&mut self, sys: &System<'_, A>, done: &Executed) {
        let pid = done.step.pid();
        self.views[pid.index()] = view_of(sys, pid, self.targets[pid.index()], self.previews);
        if !self.previews {
            return;
        }
        self.unenroll(pid);
        self.enroll(pid);
        if let Step::Write { reg, .. } | Step::Rmw { reg, .. } = done.step {
            for k in 0..self.waiters[reg.index()].len() {
                let q = self.waiters[reg.index()][k];
                if q != pid {
                    let view = &mut self.views[q.index()];
                    view.changes_state = sys.next_changes_state(q, view.next);
                }
            }
        }
    }

    fn enroll(&mut self, pid: ProcessId) {
        let reg = match self.views[pid.index()].next {
            NextStep::Read(r) | NextStep::Rmw(r, _) => r,
            NextStep::Write(..) | NextStep::Crit(_) => return,
        };
        let list = &mut self.waiters[reg.index()];
        self.slot[pid.index()] = Some((reg, list.len()));
        list.push(pid);
    }

    fn unenroll(&mut self, pid: ProcessId) {
        let Some((reg, k)) = self.slot[pid.index()].take() else {
            return;
        };
        let list = &mut self.waiters[reg.index()];
        list.swap_remove(k);
        if let Some(&moved) = list.get(k) {
            self.slot[moved.index()] = Some((reg, k));
        }
    }
}

/// Drives `sched` over a fresh system of `alg` until the scheduler
/// returns `None` or the step budget is exhausted, invoking `sink` with
/// the [`Executed`] outcome of every step, and returns the number of
/// steps executed. It is [`run_faulted_with`] with [`FaultPlan::none`]
/// and no probe, and drops the run's completion count.
///
/// Kept for the benchmark's layer ladder, which times this entry point
/// over a script that stops short on purpose (`passages = usize::MAX`).
/// A caller that needs to know whether every process finished calls
/// [`run_faulted_with`] and reads
/// [`Run::completed`](crate::fault::Run::completed).
///
/// # Errors
///
/// Returns [`RunError`] if the scheduler keeps picking processes past
/// `max_steps`.
pub fn run_scheduler_with<A, S, F>(
    alg: &A,
    sched: &mut S,
    passages: usize,
    max_steps: usize,
    sink: F,
) -> Result<usize, RunError>
where
    A: Automaton,
    S: Scheduler + ?Sized,
    F: FnMut(&Executed),
{
    let mut plan = FaultPlan::none();
    run_faulted_with(
        alg,
        sched,
        &mut plan,
        passages,
        max_steps,
        &mut NoProbe,
        sink,
    )
    .map(|run| run.steps)
}

/// Drives `sched` over a fresh system of `alg` until the scheduler
/// returns `None`, recording the execution. Every process is expected to
/// be driven to `passages` completed passages (exposed to the scheduler
/// as `target_passages`; the scheduler decides when to stop).
///
/// # Errors
///
/// Returns [`RunError`] if the scheduler keeps picking processes past
/// `max_steps`.
pub fn run_scheduler<A, S>(
    alg: &A,
    sched: &mut S,
    passages: usize,
    max_steps: usize,
) -> Result<Execution, RunError>
where
    A: Automaton,
    S: Scheduler + ?Sized,
{
    let mut exec = Execution::new();
    run_scheduler_with(alg, sched, passages, max_steps, |done| exec.push(done.step))?;
    Ok(exec)
}

/// The canonical sequential schedule: each process of `order` runs one
/// whole passage before the next one starts. With a repeated process the
/// later occurrence runs one *further* passage.
#[derive(Clone, Debug)]
pub struct Sequential {
    order: Vec<ProcessId>,
    /// First entry of `order` whose passage is not yet complete.
    /// Passage counts never decrease, so the cursor only ever advances —
    /// picks are amortized O(1) instead of rescanning the whole order.
    cursor: usize,
    /// `counts[p]`: occurrences of `p` among the completed entries
    /// `order[..cursor]`; entry `cursor` is complete once `p` has
    /// `counts[p] + 1` passages.
    counts: Vec<usize>,
}

impl Sequential {
    /// A sequential scheduler completing one passage per entry of
    /// `order`, in order.
    #[must_use]
    pub fn new(order: Vec<ProcessId>) -> Self {
        Sequential {
            order,
            cursor: 0,
            counts: Vec::new(),
        }
    }
}

impl Scheduler for Sequential {
    fn name(&self) -> String {
        "sequential".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        // A pick at step 0 is the start of a (possibly new) run: reset,
        // so a reused scheduler replays its order from the top.
        if self.counts.len() != ctx.views.len() {
            self.counts = vec![0; ctx.views.len()];
            self.cursor = 0;
        } else if ctx.step == 0 {
            self.counts.fill(0);
            self.cursor = 0;
        }
        while let Some(&p) = self.order.get(self.cursor) {
            if ctx.views[p.index()].passages > self.counts[p.index()] {
                self.counts[p.index()] += 1;
                self.cursor += 1;
            } else {
                return Some(p);
            }
        }
        None
    }
}

/// Deterministic fair interleaving: processes step in cyclic order,
/// skipping finished ones.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin scheduler starting at process 0.
    #[must_use]
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let n = ctx.views.len();
        if self.next >= n {
            // Left past the end by a run over more processes.
            self.next = self.next.checked_rem(n)?;
        }
        for _ in 0..n {
            let v = &ctx.views[self.next];
            self.next += 1;
            if self.next == n {
                self.next = 0;
            }
            if !v.done {
                return Some(v.pid);
            }
        }
        None
    }
}

/// Uniformly random fair interleaving, seeded for reproducibility.
///
/// The candidate buffer is reused across picks, so scheduling is
/// allocation-free after the first step.
#[derive(Clone, Debug)]
pub struct Random {
    rng: StdRng,
    live: Vec<ProcessId>,
}

impl Random {
    /// A random scheduler with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Random {
            rng: StdRng::seed_from_u64(seed),
            live: Vec::new(),
        }
    }
}

impl Scheduler for Random {
    fn name(&self) -> String {
        "random".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        self.live.clear();
        self.live.extend(ctx.live().map(|v| v.pid));
        if self.live.is_empty() {
            None
        } else {
            Some(self.live[self.rng.random_range(0..self.live.len())])
        }
    }
}

/// The greedy cost-maximizing adversary: always schedules a process
/// whose pending step will be *charged* by the SC cost model.
///
/// Pick order (the paper's adversary intuition — force state changes,
/// never donate free progress):
///
/// 1. a live process whose pending **shared** step changes its state
///    (a charged step);
/// 2. failing that, a live process at a critical step (free, but
///    advances the passage structure so more contention can build);
/// 3. failing that, a live spinning process (free read; nothing better
///    exists).
///
/// Ties prefer the process with the fewest completed passages (keeping
/// as many processes as possible in the contended trying section), then
/// the lowest id — fully deterministic.
///
/// A starvation valve keeps the schedule fair in the paper's sense: any
/// live process skipped `patience` consecutive picks is scheduled next,
/// so livelock-free algorithms still terminate under the adversary.
///
/// Skip counts are derived from the pick clock (`ctx.step`) and the step
/// at which each process was last picked, so a pick costs one fused pass
/// over the views plus a single O(1) write — not the per-process counter
/// sweep it used to.
#[derive(Clone, Debug)]
pub struct GreedyAdversary {
    /// `last_picked[p]`: the step at which `p` was last scheduled.
    last_picked: Vec<Option<usize>>,
    patience: Option<usize>,
}

impl GreedyAdversary {
    /// An adversary with the default patience of `4·n + 4` picks.
    #[must_use]
    pub fn new() -> Self {
        GreedyAdversary {
            last_picked: Vec::new(),
            patience: None,
        }
    }

    /// An adversary whose starvation valve triggers after `patience`
    /// consecutive skips. Lower is fairer (and cheaper); `usize::MAX`
    /// disables the valve (runs may then exhaust their budget).
    #[must_use]
    pub fn with_patience(patience: usize) -> Self {
        GreedyAdversary {
            last_picked: Vec::new(),
            patience: Some(patience),
        }
    }
}

impl Default for GreedyAdversary {
    fn default() -> Self {
        GreedyAdversary::new()
    }
}

impl Scheduler for GreedyAdversary {
    fn name(&self) -> String {
        "greedy-adversary".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let n = ctx.views.len();
        // Derived per pick, not latched: a reused adversary driven over
        // a different-sized algorithm gets that run's default valve,
        // like the `last_picked` reset below.
        let patience = self.patience.unwrap_or(4 * n + 4);
        // A pick at step 0 is the start of a (possibly new) run; stale
        // entries would make `waited` underflow on a reused scheduler.
        if self.last_picked.len() != n {
            self.last_picked = vec![None; n];
        } else if ctx.step == 0 {
            self.last_picked.fill(None);
        }
        // One pass computes both candidates. `waited` — picks since the
        // process last ran — falls out of the pick clock: one pick per
        // step, so a process last picked at step `s` has been skipped
        // `step - s - 1` times (and a never-picked one `step` times).
        // The pick ordering: class, then fewest passages, then
        // longest-unscheduled, then pid.
        type GreedyKey = (usize, usize, std::cmp::Reverse<usize>, usize);
        let mut starved: Option<(usize, ProcessId)> = None;
        let mut best: Option<(GreedyKey, ProcessId)> = None;
        for v in ctx.live() {
            // Saturating: a driver that re-polls at the same step (after
            // discarding a pick) sees `waited = 0`, not an underflow.
            let waited = match self.last_picked[v.pid.index()] {
                Some(s) => ctx.step.saturating_sub(s + 1),
                None => ctx.step,
            };
            // `>=` keeps the *latest* maximum, matching the counter-era
            // tie-break among equally starved processes.
            if waited >= patience && starved.is_none_or(|(w, _)| waited >= w) {
                starved = Some((waited, v.pid));
            }
            let class = match (v.next, v.changes_state) {
                // Recruit everyone into the trying section first:
                // contention needs participants.
                (NextStep::Crit(crate::step::CritKind::Try), _) => 0usize,
                // Charged writes/RMWs next: they fill the registers
                // other processes are about to read, steering those
                // reads onto their contended (expensive) paths.
                (NextStep::Write(..) | NextStep::Rmw(..), true) => 1,
                // Then harvest the reads those writes charged.
                (NextStep::Read(_), true) => 2,
                // Free critical progress only when nothing is
                // chargeable.
                (NextStep::Crit(_), _) => 3,
                // Free spins last: they cost nothing and learn
                // nothing.
                (_, false) => 4,
            };
            // Within a class: fewest passages (keep everyone in the
            // game), then longest-unscheduled (advance the match
            // fronts symmetrically, like round-robin does), then pid.
            let key = (class, v.passages, std::cmp::Reverse(waited), v.pid.index());
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, v.pid));
            }
        }
        let picked = starved.map(|(_, p)| p).or(best.map(|(_, p)| p))?;
        self.last_picked[picked.index()] = Some(ctx.step);
        Some(picked)
    }

    fn wants_step_previews(&self) -> bool {
        true
    }
}

/// Replays a fixed process sequence, one pick per step, then stops —
/// the bridge from an explicitly chosen schedule (e.g. the witness of
/// `exclusion-explore`'s exact worst-case search) back into every
/// generic driver, including the streaming pricer `run_priced`.
///
/// The script is indexed by the driver's step clock, so a reused
/// `Script` deterministically replays from the top on every run. The
/// script must only name live processes at each point; a script that
/// picks a finished process trips the driver's debug assertion, exactly
/// like any other misbehaving scheduler.
///
/// # Example
///
/// ```
/// use exclusion_shmem::sched::{run_scheduler, Script};
/// use exclusion_shmem::ProcessId;
/// use exclusion_shmem::testing::Alternator;
///
/// let alg = Alternator::new(1);
/// let p0 = ProcessId::new(0);
/// let exec = run_scheduler(&alg, &mut Script::new(vec![p0; 6]), 1, 100).unwrap();
/// assert_eq!(exec.len(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct Script {
    picks: Vec<ProcessId>,
}

impl Script {
    /// A scheduler replaying exactly `picks`, in order.
    #[must_use]
    pub fn new(picks: Vec<ProcessId>) -> Self {
        Script { picks }
    }

    /// The scripted picks.
    #[must_use]
    pub fn picks(&self) -> &[ProcessId] {
        &self.picks
    }
}

impl Scheduler for Script {
    fn name(&self) -> String {
        format!("script({} picks)", self.picks.len())
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        self.picks.get(ctx.step).copied()
    }
}

/// Records the picks an inner scheduler makes while delegating
/// everything to it — the bridge from any *stateful* scheduling
/// strategy (an adaptive adversary, a random search) back to a
/// replayable [`Script`]: drive a `Traced` scheduler once, then replay
/// [`picks`](Traced::picks) through any driver, including the
/// streaming pricer, and get the identical run.
///
/// Follows the per-run reset convention of the module docs: a pick at
/// step 0 starts a fresh trace, so a reused `Traced` records its
/// latest run.
///
/// # Example
///
/// ```
/// use exclusion_shmem::sched::{run_scheduler, GreedyAdversary, Script, Traced};
/// use exclusion_shmem::testing::Alternator;
///
/// let alg = Alternator::new(3);
/// let mut traced = Traced::new(GreedyAdversary::new());
/// let exec = run_scheduler(&alg, &mut traced, 1, 100_000).unwrap();
/// let replayed =
///     run_scheduler(&alg, &mut Script::new(traced.into_picks()), 1, 100_000).unwrap();
/// assert_eq!(replayed, exec);
/// ```
#[derive(Clone, Debug)]
pub struct Traced<S> {
    inner: S,
    picks: Vec<ProcessId>,
}

impl<S: Scheduler> Traced<S> {
    /// Wraps `inner`, recording every pick it makes.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Traced {
            inner,
            picks: Vec::new(),
        }
    }

    /// The picks recorded so far (this run's, after a reuse).
    #[must_use]
    pub fn picks(&self) -> &[ProcessId] {
        &self.picks
    }

    /// Consumes the wrapper, returning the recorded picks.
    #[must_use]
    pub fn into_picks(self) -> Vec<ProcessId> {
        self.picks
    }

    /// The wrapped scheduler.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Scheduler> Scheduler for Traced<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        if ctx.step == 0 {
            self.picks.clear();
        }
        let picked = self.inner.pick(ctx);
        if let Some(p) = picked {
            self.picks.push(p);
        }
        picked
    }

    fn wants_step_previews(&self) -> bool {
        self.inner.wants_step_previews()
    }
}

/// Round-robin among the processes enabled at the current arrival clock;
/// when none of the live processes has arrived yet, the earliest arrival
/// is scheduled (the clock jumps to it).
fn pick_arrivals(
    ctx: &SchedContext<'_>,
    next: &mut usize,
    enable: impl Fn(usize) -> usize,
) -> Option<ProcessId> {
    let n = ctx.views.len();
    for _ in 0..n {
        let v = &ctx.views[*next % n];
        *next = (*next + 1) % n;
        if !v.done && enable(v.pid.index()) <= ctx.step {
            return Some(v.pid);
        }
    }
    ctx.live()
        .min_by_key(|v| enable(v.pid.index()))
        .map(|v| v.pid)
}

/// Phased arrival: processes join in waves of `wave` processes, one wave
/// every `gap` steps, and the arrived ones interleave round-robin. The
/// degenerate `wave >= n` is plain round-robin; `wave = 1` with a large
/// `gap` approaches the sequential schedule.
#[derive(Clone, Debug)]
pub struct Burst {
    wave: usize,
    gap: usize,
    next: usize,
}

impl Burst {
    /// A burst scheduler releasing `wave` processes every `gap` steps.
    ///
    /// # Panics
    ///
    /// Panics if `wave` is zero.
    #[must_use]
    pub fn new(wave: usize, gap: usize) -> Self {
        assert!(wave > 0, "wave size must be positive");
        Burst { wave, gap, next: 0 }
    }
}

impl Scheduler for Burst {
    fn name(&self) -> String {
        format!("burst(w{},g{})", self.wave, self.gap)
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let (wave, gap) = (self.wave, self.gap);
        // Saturating: a clock past `usize::MAX` keeps the waves in
        // index order, which is the order they arrive in anyway.
        pick_arrivals(ctx, &mut self.next, |i| (i / wave).saturating_mul(gap))
    }
}

/// Per-process enable times: process `i` may not be scheduled before
/// step `enable[i]`; arrived processes interleave round-robin. This is
/// the fully general arrival pattern ([`Burst`] is the special case of
/// equal-size waves).
#[derive(Clone, Debug)]
pub struct Stagger {
    enable: Vec<usize>,
    next: usize,
}

impl Stagger {
    /// A stagger scheduler with an explicit enable time per process.
    /// Processes beyond the end of `enable` are enabled at step 0.
    #[must_use]
    pub fn new(enable: Vec<usize>) -> Self {
        Stagger { enable, next: 0 }
    }

    /// The linear ramp: process `i` enabled at step `i * stride`
    /// (saturating at `usize::MAX`, which keeps the arrivals in index
    /// order).
    #[must_use]
    pub fn stride(n: usize, stride: usize) -> Self {
        Stagger::new((0..n).map(|i| i.saturating_mul(stride)).collect())
    }
}

impl Scheduler for Stagger {
    fn name(&self) -> String {
        "stagger".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let enable = std::mem::take(&mut self.enable);
        let picked = pick_arrivals(ctx, &mut self.next, |i| enable.get(i).copied().unwrap_or(0));
        self.enable = enable;
        picked
    }
}

/// Runs each process of `order` to completion of one passage, one after
/// another — the *canonical sequential* schedule. The resulting execution
/// is canonical and its critical-section order is exactly `order`.
///
/// Implemented on the [`Sequential`] scheduler; the step budget is
/// `max_steps_per_process` for each entry of `order`, pooled. An order
/// that leaves processes out (or repeats some more than others) stops
/// short on purpose: the run ends when the order does, and the
/// processes it did not name never reach the passage target.
///
/// # Errors
///
/// Returns [`RunError`] if the run needs more than
/// `order.len() * max_steps_per_process` steps in total (the algorithm is
/// not livelock-free when run solo after the prefix).
///
/// # Example
///
/// ```
/// use exclusion_shmem::sched::run_sequential;
/// use exclusion_shmem::ProcessId;
/// use exclusion_shmem::testing::Alternator;
///
/// let alg = Alternator::new(3);
/// let order: Vec<_> = ProcessId::all(3).collect();
/// let exec = run_sequential(&alg, &order, 10_000).unwrap();
/// assert!(exec.is_canonical(3));
/// assert_eq!(exec.critical_order(), order);
/// ```
pub fn run_sequential<A: Automaton>(
    alg: &A,
    order: &[ProcessId],
    max_steps_per_process: usize,
) -> Result<Execution, RunError> {
    let mut occurrences = vec![0usize; alg.processes()];
    for p in order {
        occurrences[p.index()] += 1;
    }
    let passages = occurrences.into_iter().max().unwrap_or(0);
    let mut sched = Sequential::new(order.to_vec());
    run_scheduler(
        alg,
        &mut sched,
        passages,
        max_steps_per_process.saturating_mul(order.len()),
    )
}

/// Runs all processes round-robin, each until it has completed `passages`
/// passages.
///
/// # Errors
///
/// Returns [`RunError`] if the run does not finish within `max_steps`.
pub fn run_round_robin<A: Automaton>(
    alg: &A,
    passages: usize,
    max_steps: usize,
) -> Result<Execution, RunError> {
    run_scheduler(alg, &mut RoundRobin::new(), passages, max_steps)
}

/// Runs all processes under a uniformly random (seeded) fair schedule,
/// each until it has completed `passages` passages.
///
/// # Errors
///
/// Returns [`RunError`] if the run does not finish within `max_steps`.
pub fn run_random<A: Automaton>(
    alg: &A,
    passages: usize,
    max_steps: usize,
    seed: u64,
) -> Result<Execution, RunError> {
    run_scheduler(alg, &mut Random::new(seed), passages, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Alternator;

    #[test]
    fn sequential_is_canonical_in_any_order() {
        let alg = Alternator::new(4);
        // Alternator hands the token around in index order, so only the
        // identity order terminates when run sequentially; use it here.
        let order: Vec<_> = ProcessId::all(4).collect();
        let exec = run_sequential(&alg, &order, 1000).unwrap();
        assert!(exec.is_canonical(4));
        assert_eq!(exec.critical_order(), order);
    }

    #[test]
    fn sequential_detects_stuck_process() {
        let alg = Alternator::new(2);
        // p1 cannot enter before p0 hands over the token.
        let order = [ProcessId::new(1), ProcessId::new(0)];
        let err = run_sequential(&alg, &order, 100).unwrap_err();
        assert_eq!(err.completed, 0);
    }

    #[test]
    fn sequential_supports_repeated_processes() {
        let alg = Alternator::new(1);
        let p0 = ProcessId::new(0);
        let exec = run_sequential(&alg, &[p0, p0, p0], 1000).unwrap();
        assert_eq!(exec.critical_order(), vec![p0, p0, p0]);
    }

    #[test]
    fn round_robin_completes_multiple_passages() {
        let alg = Alternator::new(3);
        let exec = run_round_robin(&alg, 2, 100_000).unwrap();
        assert!(exec.well_formed(3));
        assert!(exec.mutual_exclusion(3));
        assert_eq!(exec.critical_order().len(), 6);
    }

    #[test]
    fn random_schedule_is_reproducible() {
        let alg = Alternator::new(3);
        let a = run_random(&alg, 1, 100_000, 42).unwrap();
        let b = run_random(&alg, 1, 100_000, 42).unwrap();
        let c = run_random(&alg, 1, 100_000, 43).unwrap();
        assert_eq!(a, b);
        assert!(a.is_canonical(3));
        assert!(c.is_canonical(3));
    }

    #[test]
    fn budget_exhaustion_reports_error() {
        let alg = Alternator::new(2);
        let err = run_round_robin(&alg, 1, 3).unwrap_err();
        assert_eq!(err.limit, 3);
    }

    #[test]
    fn views_expose_the_sc_predicate() {
        let alg = Alternator::new(2);
        let mut sys = System::new(&alg);
        // Step p1 to its spin on `turn` (which p0 has not released).
        let p1 = ProcessId::new(1);
        sys.step(p1);
        let table = ViewTable::new(&sys, 1, true);
        let views = table.views();
        assert_eq!(views.len(), 2);
        // p0's pending try changes state but is not shared.
        assert!(!views[0].shared());
        assert!(views[0].changes_state);
        // p1's pending read is shared and free (spinning on 0).
        assert!(views[1].shared());
        assert!(!views[1].changes_state);
        assert!(!views[1].done);
    }

    /// The incremental-view contract: after every step of an adversarial
    /// run, the [`ViewTable`] equals a from-scratch rebuild with the same
    /// targets — with and without `changes_state` previews, while some
    /// processes' targets move mid-run.
    #[test]
    fn incremental_views_match_fresh_views_after_every_step() {
        let [p0, p1, p2, p3, p4] = [0, 1, 2, 3, 4].map(ProcessId::new);
        // (step, process, new target): raise two targets, retire p4
        // early and bring it back, then raise the rest to match — the
        // token ring only terminates if everyone ends on one target.
        let moves = [
            (30, p1, 4),
            (30, p3, 4),
            (70, p4, 0),
            (110, p4, 4),
            (150, p0, 4),
            (150, p2, 4),
        ];
        for previews in [true, false] {
            let alg = Alternator::new(5);
            let mut targets = [3; 5];
            let mut sched = GreedyAdversary::new();
            let mut sys = System::new(&alg);
            let mut table = ViewTable::new(&sys, 3, previews);
            let mut finished = false;
            for step in 0..10_000 {
                for &(at, p, target) in &moves {
                    if at == step {
                        table.set_target(p, target);
                        targets[p.index()] = target;
                    }
                }
                let mut fresh = ViewTable::new(&sys, 0, previews);
                for p in ProcessId::all(5) {
                    fresh.set_target(p, targets[p.index()]);
                }
                assert_eq!(
                    table.views(),
                    fresh.views(),
                    "previews={previews} step={step}"
                );
                let ctx = SchedContext {
                    step,
                    target_passages: 4,
                    views: table.views(),
                };
                let Some(p) = sched.pick(&ctx) else {
                    finished = true;
                    break;
                };
                table.step(&mut sys, p);
            }
            assert!(finished, "adversarial run did not terminate");
            assert!(ProcessId::all(5).all(|p| sys.passages(p) == 4));
        }
    }

    /// The compare-and-reset cursor picks exactly what the `% n`
    /// rotation did, including after a run over more processes left
    /// the cursor past the end.
    #[test]
    fn round_robin_matches_the_modulo_rotation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut new = RoundRobin::new();
        let mut old = 0usize;
        for _ in 0..2_000 {
            let n = rng.random_range(1..9);
            let views: Vec<ProcessView> = ProcessId::all(n)
                .map(|pid| ProcessView {
                    pid,
                    section: Section::Remainder,
                    passages: 0,
                    done: rng.random_range(0..3) == 0,
                    next: NextStep::Crit(crate::step::CritKind::Try),
                    changes_state: false,
                })
                .collect();
            let ctx = SchedContext {
                step: 0,
                target_passages: 1,
                views: &views,
            };
            let mut expected = None;
            for _ in 0..n {
                let v = &views[old % n];
                old = (old + 1) % n;
                if !v.done {
                    expected = Some(v.pid);
                    break;
                }
            }
            assert_eq!(new.pick(&ctx), expected, "n={n}");
        }
    }

    #[test]
    fn streaming_driver_reports_steps_and_outcomes_in_order() {
        let alg = Alternator::new(3);
        let mut outcomes = Vec::new();
        let steps = run_scheduler_with(&alg, &mut RoundRobin::new(), 1, 100_000, |done| {
            outcomes.push(*done);
        })
        .unwrap();
        assert_eq!(steps, outcomes.len());
        let exec = run_round_robin(&alg, 1, 100_000).unwrap();
        let recorded: Vec<_> = outcomes.iter().map(|o| o.step).collect();
        assert_eq!(exec.steps(), &recorded[..]);
    }

    #[test]
    fn greedy_adversary_terminates_and_is_deterministic() {
        let alg = Alternator::new(4);
        let a = run_scheduler(&alg, &mut GreedyAdversary::new(), 2, 100_000).unwrap();
        let b = run_scheduler(&alg, &mut GreedyAdversary::new(), 2, 100_000).unwrap();
        assert_eq!(a, b);
        assert!(a.well_formed(4));
        assert!(a.mutual_exclusion(4));
        assert_eq!(a.critical_order().len(), 8);
    }

    #[test]
    fn greedy_adversary_never_schedules_a_free_spin_when_charged_steps_exist() {
        // In the Alternator only the token holder can make progress;
        // everyone else's spin is free. Greedy must therefore drive the
        // token holder and never burn steps on spinners, matching the
        // (minimal) sequential step count exactly.
        let alg = Alternator::new(3);
        let greedy = run_scheduler(&alg, &mut GreedyAdversary::new(), 1, 100_000).unwrap();
        let order: Vec<_> = ProcessId::all(3).collect();
        let seq = run_sequential(&alg, &order, 100_000).unwrap();
        assert_eq!(greedy.len(), seq.len());
    }

    #[test]
    fn burst_and_stagger_complete_and_respect_arrival_order() {
        let alg = Alternator::new(4);
        for sched in [
            &mut Burst::new(2, 8) as &mut dyn Scheduler,
            &mut Stagger::stride(4, 6),
        ] {
            let exec = run_scheduler(&alg, sched, 1, 100_000).unwrap();
            assert!(exec.well_formed(4), "{}", sched.name());
            assert!(exec.mutual_exclusion(4), "{}", sched.name());
            assert_eq!(exec.critical_order().len(), 4, "{}", sched.name());
            // The token circulates in index order and arrivals are in
            // index order, so entries happen in index order too.
            assert_eq!(
                exec.critical_order(),
                ProcessId::all(4).collect::<Vec<_>>(),
                "{}",
                sched.name()
            );
        }
    }

    #[test]
    fn stagger_delays_late_processes() {
        // With an enormous enable time for p0 (the token holder), the
        // run must still terminate: the arrival-clock jump schedules the
        // earliest-enabled live process once no one else can run.
        let alg = Alternator::new(2);
        let mut sched = Stagger::new(vec![5_000, 0]);
        let exec = run_scheduler(&alg, &mut sched, 1, 100_000).unwrap();
        assert!(exec.mutual_exclusion(2));
        assert_eq!(exec.critical_order().len(), 2);
    }

    /// Schedulers hold per-run state now; a pick at step 0 must reset
    /// it so a reused scheduler reproduces its first run instead of
    /// returning an empty execution (Sequential) or underflowing its
    /// skip counts (GreedyAdversary).
    #[test]
    fn reused_schedulers_reproduce_their_first_run() {
        let alg = Alternator::new(3);
        let order: Vec<_> = ProcessId::all(3).collect();
        let mut seq = Sequential::new(order);
        let a = run_scheduler(&alg, &mut seq, 1, 10_000).unwrap();
        let b = run_scheduler(&alg, &mut seq, 1, 10_000).unwrap();
        assert!(!b.is_empty());
        assert_eq!(a, b);

        let mut greedy = GreedyAdversary::new();
        let a = run_scheduler(&alg, &mut greedy, 2, 100_000).unwrap();
        let b = run_scheduler(&alg, &mut greedy, 2, 100_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn script_replays_a_recorded_schedule_exactly() {
        let alg = Alternator::new(3);
        let exec = run_scheduler(&alg, &mut GreedyAdversary::new(), 2, 100_000).unwrap();
        let picks: Vec<_> = exec.steps().iter().map(|s| s.pid()).collect();
        let mut script = Script::new(picks.clone());
        let replayed = run_scheduler(&alg, &mut script, 2, 100_000).unwrap();
        assert_eq!(replayed, exec);
        assert_eq!(script.picks(), &picks[..]);
        // Reuse replays from the top (picks index on the step clock).
        let again = run_scheduler(&alg, &mut script, 2, 100_000).unwrap();
        assert_eq!(again, exec);
    }

    #[test]
    fn traced_records_exactly_the_executed_picks_and_resets_per_run() {
        let alg = Alternator::new(3);
        let mut traced = Traced::new(GreedyAdversary::new());
        let exec = run_scheduler(&alg, &mut traced, 2, 100_000).unwrap();
        let expected: Vec<_> = exec.steps().iter().map(|s| s.pid()).collect();
        assert_eq!(traced.picks(), &expected[..]);
        assert_eq!(traced.name(), "greedy-adversary");
        assert!(traced.wants_step_previews());
        // Reuse records the latest run, not an accumulation.
        let again = run_scheduler(&alg, &mut traced, 2, 100_000).unwrap();
        assert_eq!(again, exec);
        assert_eq!(traced.picks().len(), exec.len());
        // The trace replays bit-identically.
        let picks = traced.into_picks();
        let replayed = run_scheduler(&alg, &mut Script::new(picks), 2, 100_000).unwrap();
        assert_eq!(replayed, exec);
    }

    #[test]
    fn schedulers_are_usable_as_trait_objects() {
        let alg = Alternator::new(2);
        let mut boxed: Box<dyn Scheduler> = Box::new(RoundRobin::new());
        let exec = run_scheduler(&alg, boxed.as_mut(), 1, 100_000).unwrap();
        assert_eq!(exec.critical_order().len(), 2);
        assert_eq!(boxed.name(), "round-robin");
    }
}
