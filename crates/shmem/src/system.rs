//! A live simulation of an algorithm: process states, register contents,
//! and per-process section tracking.

use std::fmt;

use crate::automaton::{Automaton, NextStep, Observation};
use crate::error::ReplayError;
use crate::ids::{ProcessId, RegisterId, Value};
use crate::step::{CritKind, Step};

/// Which of the four sections a process is currently in, per the paper's
/// well-formedness condition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Section {
    /// No critical step yet, or the last one was `rem`.
    #[default]
    Remainder,
    /// Last critical step was `try`.
    Trying,
    /// Last critical step was `enter`.
    Critical,
    /// Last critical step was `exit`.
    Exit,
}

impl Section {
    /// The section reached by performing the given critical step.
    ///
    /// Returns `None` when the step is not permitted in this section
    /// (violating well-formedness).
    #[must_use]
    pub fn after(self, kind: CritKind) -> Option<Section> {
        match (self, kind) {
            (Section::Remainder, CritKind::Try) => Some(Section::Trying),
            (Section::Trying, CritKind::Enter) => Some(Section::Critical),
            (Section::Critical, CritKind::Exit) => Some(Section::Exit),
            (Section::Exit, CritKind::Rem) => Some(Section::Remainder),
            _ => None,
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Section::Remainder => "remainder",
            Section::Trying => "trying",
            Section::Critical => "critical",
            Section::Exit => "exit",
        };
        f.write_str(s)
    }
}

/// A canonical, hashable image of a [`System`]'s complete state: every
/// process state, every register value, every section, every passage
/// count.
///
/// Two snapshots of the same algorithm compare equal exactly when the
/// systems they were taken from would behave identically from that
/// point on — which is what makes a snapshot usable as a transposition
/// key in exhaustive state-space exploration (`exclusion-explore`).
/// `Hash` mirrors `Eq`, including through erased
/// [`DynState`](crate::dynamic::DynState)s, whose hashing forwards to
/// the typed state's `Hash` impl (boxed) or to the packed words
/// (inline).
///
/// Snapshots round-trip bit-identically:
/// [`System::from_snapshot`] followed by [`System::snapshot`]
/// reproduces the original (pinned by property tests).
///
/// # Example
///
/// ```
/// use exclusion_shmem::{ProcessId, System};
/// use exclusion_shmem::testing::Alternator;
///
/// let alg = Alternator::new(2);
/// let mut sys = System::new(&alg);
/// let before = sys.snapshot();
/// sys.step(ProcessId::new(0));
/// assert_ne!(sys.snapshot(), before);
/// // Restore and re-snapshot: bit-identical.
/// let restored = System::from_snapshot(&alg, &before);
/// assert_eq!(restored.snapshot(), before);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Snapshot<S> {
    states: Vec<S>,
    regs: Vec<Value>,
    sections: Vec<Section>,
    passages: Vec<usize>,
}

impl<S> Snapshot<S> {
    /// Assembles a snapshot from raw components. Callers that build
    /// snapshots that did not come from a live [`System`] — the
    /// symmetry canonicalizer — must preserve the invariant that all
    /// per-process vectors share one length (debug-asserted here).
    pub fn from_parts(
        states: Vec<S>,
        regs: Vec<Value>,
        sections: Vec<Section>,
        passages: Vec<usize>,
    ) -> Snapshot<S> {
        debug_assert_eq!(states.len(), sections.len());
        debug_assert_eq!(states.len(), passages.len());
        Snapshot {
            states,
            regs,
            sections,
            passages,
        }
    }

    /// The four components as mutable slices (states, registers,
    /// sections, passages), for decoders that refill a snapshot of the
    /// right dimensions in place instead of assembling a new one with
    /// [`Snapshot::from_parts`]. The lengths cannot change.
    pub fn parts_mut(&mut self) -> (&mut [S], &mut [Value], &mut [Section], &mut [usize]) {
        (
            &mut self.states,
            &mut self.regs,
            &mut self.sections,
            &mut self.passages,
        )
    }

    /// Per-process states, indexed by process.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Register values, indexed by register.
    #[must_use]
    pub fn registers(&self) -> &[Value] {
        &self.regs
    }

    /// Per-process sections, indexed by process.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Per-process completed passage counts, indexed by process.
    #[must_use]
    pub fn passages(&self) -> &[usize] {
        &self.passages
    }

    /// Processes currently in their critical section.
    pub fn in_critical(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.sections
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Section::Critical)
            .map(|(i, _)| ProcessId::new(i))
    }
}

/// The outcome of executing one step on a [`System`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Executed {
    /// The step that was executed.
    pub step: Step,
    /// Whether the acting process's state changed — the unit of cost in
    /// the state-change model (Definition 3.1) when the step accesses
    /// shared memory.
    pub state_changed: bool,
    /// The value obtained, if the step was a read.
    pub read_value: Option<Value>,
}

/// A running instance of an algorithm: all process states, all register
/// values, and bookkeeping (sections and completed passages).
///
/// # Example
///
/// ```
/// use exclusion_shmem::{ProcessId, Section, System};
/// use exclusion_shmem::testing::Alternator;
///
/// let alg = Alternator::new(2);
/// let mut sys = System::new(&alg);
/// let p0 = ProcessId::new(0);
/// // Drive p0 through one full passage.
/// while sys.passages(p0) == 0 {
///     sys.step(p0);
/// }
/// assert_eq!(sys.section(p0), Section::Remainder);
/// ```
pub struct System<'a, A: Automaton> {
    alg: &'a A,
    states: Vec<A::State>,
    regs: Vec<Value>,
    sections: Vec<Section>,
    passages: Vec<usize>,
}

impl<'a, A: Automaton> System<'a, A> {
    /// Creates a system in the default initial state `s0`: every process
    /// in its initial state, every register at its initial value.
    #[must_use]
    pub fn new(alg: &'a A) -> Self {
        let n = alg.processes();
        let states = ProcessId::all(n).map(|p| alg.initial_state(p)).collect();
        let regs = RegisterId::all(alg.registers())
            .map(|r| alg.initial_value(r))
            .collect();
        System {
            alg,
            states,
            regs,
            sections: vec![Section::Remainder; n],
            passages: vec![0; n],
        }
    }

    /// Reconstructs the system a [`Snapshot`] was taken from.
    ///
    /// The algorithm must be the one (or an identically configured
    /// instance of the one) that produced the snapshot; restoring a
    /// snapshot into a different algorithm is out of contract, exactly
    /// like feeding a foreign state to an erased automaton.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's dimensions do not match the algorithm's
    /// process and register counts.
    #[must_use]
    pub fn from_snapshot(alg: &'a A, snap: &Snapshot<A::State>) -> Self {
        check_dimensions(alg, snap);
        System {
            alg,
            states: snap.states.clone(),
            regs: snap.regs.clone(),
            sections: snap.sections.clone(),
            passages: snap.passages.clone(),
        }
    }

    /// Puts this system into the state `snap` was taken from, reusing
    /// its buffers: the in-place form of [`System::from_snapshot`], for
    /// loops that restore one system many times.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's dimensions do not match the algorithm's
    /// process and register counts.
    pub fn restore(&mut self, snap: &Snapshot<A::State>) {
        check_dimensions(self.alg, snap);
        self.states.clone_from(&snap.states);
        self.regs.clone_from(&snap.regs);
        self.sections.clone_from(&snap.sections);
        self.passages.clone_from(&snap.passages);
    }

    /// Captures the complete current state as a canonical, hashable
    /// [`Snapshot`] — the transposition key of exhaustive exploration.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot<A::State> {
        Snapshot {
            states: self.states.clone(),
            regs: self.regs.clone(),
            sections: self.sections.clone(),
            passages: self.passages.clone(),
        }
    }

    /// Overwrites `out` with [`System::snapshot`], reusing its buffers.
    pub fn snapshot_into(&self, out: &mut Snapshot<A::State>) {
        out.states.clone_from(&self.states);
        out.regs.clone_from(&self.regs);
        out.sections.clone_from(&self.sections);
        out.passages.clone_from(&self.passages);
    }

    /// The algorithm this system runs.
    #[must_use]
    pub fn algorithm(&self) -> &'a A {
        self.alg
    }

    /// Number of processes.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.states.len()
    }

    /// Current state of a process.
    #[must_use]
    pub fn state(&self, pid: ProcessId) -> &A::State {
        &self.states[pid.index()]
    }

    /// Current value of a register.
    #[must_use]
    pub fn register(&self, reg: RegisterId) -> Value {
        self.regs[reg.index()]
    }

    /// All register values, indexed by register.
    #[must_use]
    pub fn registers(&self) -> &[Value] {
        &self.regs
    }

    /// Current section of a process.
    #[must_use]
    pub fn section(&self, pid: ProcessId) -> Section {
        self.sections[pid.index()]
    }

    /// How many complete passages (ending in `rem`) a process has made.
    #[must_use]
    pub fn passages(&self, pid: ProcessId) -> usize {
        self.passages[pid.index()]
    }

    /// Processes currently in their critical section.
    pub fn in_critical(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.sections
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Section::Critical)
            .map(|(i, _)| ProcessId::new(i))
    }

    /// The step process `pid` will perform next (δ applied to its state).
    #[must_use]
    pub fn peek(&self, pid: ProcessId) -> NextStep {
        self.alg.next_step(pid, self.state(pid))
    }

    /// Whether `pid`'s state would change if it read `value` right now —
    /// the `SC` predicate of the paper's Figure 1, evaluated against this
    /// system's current state of `pid`.
    ///
    /// Meaningful when `pid`'s next step is a read; callers are expected
    /// to check that first.
    #[must_use]
    pub fn read_changes_state(&self, pid: ProcessId, value: Value) -> bool {
        self.alg
            .observe_changes(pid, self.state(pid), Observation::Read(value))
    }

    /// Whether executing `pid`'s next step *right now* would change its
    /// state — the per-step charge of the SC cost model, evaluated
    /// against the current register contents without mutating anything.
    ///
    /// Schedulers use this to see, before committing to a step, whether
    /// it would be billed: a busy-wait read that will see the value it is
    /// already spinning on returns `false` here.
    #[must_use]
    pub fn step_changes_state(&self, pid: ProcessId) -> bool {
        self.next_changes_state(pid, self.peek(pid))
    }

    /// [`System::step_changes_state`] for a pending step `next` the
    /// caller already holds (it must be `pid`'s `peek`).
    pub(crate) fn next_changes_state(&self, pid: ProcessId, next: NextStep) -> bool {
        let obs = match next {
            NextStep::Read(reg) => Observation::Read(self.register(reg)),
            NextStep::Write(..) => Observation::Write,
            NextStep::Rmw(reg, _) => Observation::Rmw(self.register(reg)),
            NextStep::Crit(_) => Observation::Crit,
        };
        self.alg.observe_changes(pid, self.state(pid), obs)
    }

    /// Executes the next step of `pid` and returns what happened.
    ///
    /// # Panics
    ///
    /// Panics if the automaton requests a critical step that violates
    /// well-formedness or accesses an out-of-range register — both are
    /// bugs in the algorithm under simulation, not runtime conditions.
    pub fn step(&mut self, pid: ProcessId) -> Executed {
        let next = self.peek(pid);
        self.apply(pid, next)
    }

    /// Crashes process `pid` (Golab–Ramaraju model): its volatile state
    /// is reset to [`Automaton::recover_state`], its section returns to
    /// the remainder section, and its passage count is untouched. Shared
    /// registers persist — any stale ownership the process left behind
    /// stays visible to everyone.
    ///
    /// Crashes are *injected* (by a [`FaultPlan`](crate::fault::FaultPlan)
    /// or an adversary), never produced by the automaton's transition
    /// function. The returned [`Executed`] records a [`Step::Crash`];
    /// `state_changed` reports whether the wipe actually changed the
    /// process's state (a crash in the remainder section with default
    /// recovery is a no-op), and crash steps are never charged by any
    /// cost model.
    pub fn crash(&mut self, pid: ProcessId) -> Executed {
        let i = pid.index();
        let recovered = self.alg.recover_state(pid);
        let state_changed = recovered != self.states[i] || self.sections[i] != Section::Remainder;
        self.states[i] = recovered;
        self.sections[i] = Section::Remainder;
        Executed {
            step: Step::crash(pid),
            state_changed,
            read_value: None,
        }
    }

    /// Executes `step` for its named process if (and only if) it is
    /// exactly what the automaton would perform; used by replay.
    ///
    /// A recorded [`Step::Crash`] is always accepted (crashes are
    /// injected, not produced by δ) and performs [`System::crash`].
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Mismatch`] when the recorded step diverges
    /// from the automaton, [`ReplayError::InvalidProcess`] when it names a
    /// process that does not exist. The `index` in the error is `0`;
    /// callers add their own position information.
    pub fn execute_expected(&mut self, step: Step) -> Result<Executed, ReplayError> {
        let pid = step.pid();
        if pid.index() >= self.processes() {
            return Err(ReplayError::InvalidProcess {
                index: 0,
                pid,
                processes: self.processes(),
            });
        }
        if let Step::Crash { .. } = step {
            return Ok(self.crash(pid));
        }
        let next = self.peek(pid);
        let matches = match (next, step) {
            (NextStep::Read(r), Step::Read { reg, .. }) => r == reg,
            (NextStep::Write(r, v), Step::Write { reg, value, .. }) => r == reg && v == value,
            (NextStep::Rmw(r, o), Step::Rmw { reg, op, .. }) => r == reg && o == op,
            (NextStep::Crit(k), Step::Crit { kind, .. }) => k == kind,
            _ => false,
        };
        if !matches {
            return Err(ReplayError::Mismatch {
                index: 0,
                expected: next,
                found: step,
            });
        }
        Ok(self.apply(pid, next))
    }

    /// Executes `next`, which must be `pid`'s pending step (its `peek`).
    pub(crate) fn apply(&mut self, pid: ProcessId, next: NextStep) -> Executed {
        let i = pid.index();
        let (step, obs, read_value) = match next {
            NextStep::Read(reg) => {
                let v = self.regs[reg.index()];
                (Step::read(pid, reg), Observation::Read(v), Some(v))
            }
            NextStep::Write(reg, value) => {
                self.regs[reg.index()] = value;
                (Step::write(pid, reg, value), Observation::Write, None)
            }
            NextStep::Rmw(reg, op) => {
                let old = self.regs[reg.index()];
                self.regs[reg.index()] = op.apply(old);
                (Step::rmw(pid, reg, op), Observation::Rmw(old), Some(old))
            }
            NextStep::Crit(kind) => {
                let sect = self.sections[i].after(kind).unwrap_or_else(|| {
                    panic!("{pid} performed {kind} in {} section", self.sections[i])
                });
                self.sections[i] = sect;
                if kind == CritKind::Rem {
                    self.passages[i] += 1;
                }
                (Step::crit(pid, kind), Observation::Crit, None)
            }
        };
        let state_changed = self.alg.observe_in_place(pid, &mut self.states[i], obs);
        Executed {
            step,
            state_changed,
            read_value,
        }
    }
}

/// The dimension checks shared by [`System::from_snapshot`] and
/// [`System::restore`].
fn check_dimensions<A: Automaton>(alg: &A, snap: &Snapshot<A::State>) {
    assert_eq!(
        snap.states.len(),
        alg.processes(),
        "snapshot process count does not match the algorithm"
    );
    assert_eq!(
        snap.regs.len(),
        alg.registers(),
        "snapshot register count does not match the algorithm"
    );
}

// Manual impl: `A` itself need not be `Clone` (it is only borrowed).
impl<A: Automaton> Clone for System<'_, A> {
    fn clone(&self) -> Self {
        System {
            alg: self.alg,
            states: self.states.clone(),
            regs: self.regs.clone(),
            sections: self.sections.clone(),
            passages: self.passages.clone(),
        }
    }
}

impl<A: Automaton> fmt::Debug for System<'_, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("states", &self.states)
            .field("regs", &self.regs)
            .field("sections", &self.sections)
            .field("passages", &self.passages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{Alternator, NoLock};

    #[test]
    fn section_transitions_follow_cycle() {
        assert_eq!(
            Section::Remainder.after(CritKind::Try),
            Some(Section::Trying)
        );
        assert_eq!(
            Section::Trying.after(CritKind::Enter),
            Some(Section::Critical)
        );
        assert_eq!(Section::Critical.after(CritKind::Exit), Some(Section::Exit));
        assert_eq!(Section::Exit.after(CritKind::Rem), Some(Section::Remainder));
        assert_eq!(Section::Remainder.after(CritKind::Enter), None);
        assert_eq!(Section::Critical.after(CritKind::Try), None);
    }

    #[test]
    fn alternator_single_passage() {
        let alg = Alternator::new(3);
        let mut sys = System::new(&alg);
        let p0 = ProcessId::new(0);
        let mut steps = Vec::new();
        while sys.passages(p0) == 0 {
            steps.push(sys.step(p0).step);
        }
        // try, read(turn), enter, exit, write(turn), rem
        assert_eq!(steps.len(), 6);
        assert_eq!(steps[0], Step::crit(p0, CritKind::Try));
        assert_eq!(steps[5], Step::crit(p0, CritKind::Rem));
        assert_eq!(sys.register(RegisterId::new(0)), 1);
    }

    #[test]
    fn busywait_read_does_not_change_state() {
        let alg = Alternator::new(2);
        let mut sys = System::new(&alg);
        let p1 = ProcessId::new(1);
        sys.step(p1); // try
        let spin = sys.step(p1); // read turn = 0, but p1 waits for 1
        assert!(!spin.state_changed);
        assert_eq!(spin.read_value, Some(0));
        // SC predicate: reading 1 would change p1's state, reading 0 not.
        assert!(sys.read_changes_state(p1, 1));
        assert!(!sys.read_changes_state(p1, 0));
    }

    #[test]
    fn step_changes_state_previews_without_mutating() {
        let alg = Alternator::new(2);
        let mut sys = System::new(&alg);
        let p1 = ProcessId::new(1);
        // try is a real state change.
        assert!(sys.step_changes_state(p1));
        sys.step(p1); // try
                      // p1 now spins on `turn` which holds 0; the pending read is free.
        assert!(!sys.step_changes_state(p1));
        let before = *sys.state(p1);
        let _ = sys.step_changes_state(p1);
        assert_eq!(*sys.state(p1), before, "preview must not mutate");
        // Once p0 hands over the token, the same pending read is charged.
        let p0 = ProcessId::new(0);
        while sys.passages(p0) == 0 {
            sys.step(p0);
        }
        assert!(sys.step_changes_state(p1));
    }

    #[test]
    fn execute_expected_accepts_matching_step() {
        let alg = Alternator::new(2);
        let mut sys = System::new(&alg);
        let p0 = ProcessId::new(0);
        let done = sys
            .execute_expected(Step::crit(p0, CritKind::Try))
            .expect("try matches");
        assert!(done.state_changed);
    }

    #[test]
    fn execute_expected_rejects_divergence() {
        let alg = Alternator::new(2);
        let mut sys = System::new(&alg);
        let p0 = ProcessId::new(0);
        let err = sys
            .execute_expected(Step::read(p0, RegisterId::new(0)))
            .unwrap_err();
        assert!(matches!(err, ReplayError::Mismatch { .. }));
    }

    #[test]
    fn execute_expected_rejects_unknown_process() {
        let alg = Alternator::new(2);
        let mut sys = System::new(&alg);
        let ghost = ProcessId::new(9);
        let err = sys
            .execute_expected(Step::crit(ghost, CritKind::Try))
            .unwrap_err();
        assert!(matches!(err, ReplayError::InvalidProcess { .. }));
    }

    #[test]
    fn snapshots_roundtrip_and_key_on_full_state() {
        let alg = Alternator::new(3);
        let mut sys = System::new(&alg);
        let p0 = ProcessId::new(0);
        let s0 = sys.snapshot();
        assert_eq!(
            s0,
            System::new(&alg).snapshot(),
            "initial state is canonical"
        );
        // Drive p0 into its critical section and snapshot there.
        sys.step(p0); // try
        sys.step(p0); // read turn = 0
        sys.step(p0); // enter
        let mid = sys.snapshot();
        assert_eq!(mid.in_critical().collect::<Vec<_>>(), vec![p0]);
        assert_eq!(mid.sections()[0], Section::Critical);
        assert_eq!(mid.passages(), &[0, 0, 0]);
        // Restore → re-snapshot is bit-identical, and the restored
        // system continues exactly like the original.
        let mut restored = System::from_snapshot(&alg, &mid);
        assert_eq!(restored.snapshot(), mid);
        let a = sys.step(p0);
        let b = restored.step(p0);
        assert_eq!(a, b);
        assert_eq!(sys.snapshot(), restored.snapshot());
        assert_ne!(sys.snapshot(), mid);
    }

    #[test]
    #[should_panic(expected = "snapshot process count")]
    fn foreign_snapshots_are_rejected() {
        let small = Alternator::new(2);
        let big = Alternator::new(3);
        let snap = System::new(&big).snapshot();
        let _ = System::from_snapshot(&small, &snap);
    }

    #[test]
    fn crash_wipes_state_and_section_but_not_registers_or_passages() {
        let alg = Alternator::new(2);
        let mut sys = System::new(&alg);
        let p0 = ProcessId::new(0);
        // Drive p0 through a full passage, leaving turn = 1.
        while sys.passages(p0) == 0 {
            sys.step(p0);
        }
        // p0 starts a second passage and parks inside its CS.
        sys.step(ProcessId::new(1)); // p1: try
        let crashed_reg = sys.register(RegisterId::new(0));
        sys.step(p0); // try — but turn is 1, p0 spins
        let done = sys.crash(p0);
        assert_eq!(done.step, Step::crash(p0));
        assert!(done.state_changed);
        assert_eq!(done.read_value, None);
        // Volatile state and section are wiped…
        assert_eq!(sys.section(p0), Section::Remainder);
        assert_eq!(*sys.state(p0), alg.recover_state(p0));
        // …registers and passage counts persist.
        assert_eq!(sys.register(RegisterId::new(0)), crashed_reg);
        assert_eq!(sys.passages(p0), 1);
    }

    #[test]
    fn crash_in_remainder_with_default_recovery_is_a_noop() {
        let alg = Alternator::new(2);
        let mut sys = System::new(&alg);
        let done = sys.crash(ProcessId::new(1));
        assert!(!done.state_changed);
        assert_eq!(sys.snapshot(), System::new(&alg).snapshot());
    }

    #[test]
    fn execute_expected_accepts_recorded_crashes() {
        let alg = Alternator::new(2);
        let mut sys = System::new(&alg);
        let p0 = ProcessId::new(0);
        sys.step(p0); // try
        let done = sys
            .execute_expected(Step::crash(p0))
            .expect("crash replays");
        assert_eq!(done.step, Step::crash(p0));
        assert_eq!(sys.section(p0), Section::Remainder);
        // An out-of-range crash is still rejected.
        let err = sys.execute_expected(Step::crash(ProcessId::new(9)));
        assert!(matches!(err, Err(ReplayError::InvalidProcess { .. })));
    }

    #[test]
    fn no_lock_lets_two_processes_into_critical() {
        let alg = NoLock::new(2);
        let mut sys = System::new(&alg);
        for p in ProcessId::all(2) {
            sys.step(p); // try
            sys.step(p); // enter
        }
        assert_eq!(sys.in_critical().count(), 2);
    }

    #[test]
    #[should_panic(expected = "performed")]
    fn malformed_critical_step_panics() {
        use crate::automaton::{NextStep, Observation};
        struct Bad;
        impl Automaton for Bad {
            type State = u8;
            fn processes(&self) -> usize {
                1
            }
            fn registers(&self) -> usize {
                0
            }
            fn initial_state(&self, _p: ProcessId) -> u8 {
                0
            }
            fn next_step(&self, _p: ProcessId, _s: &u8) -> NextStep {
                NextStep::Crit(CritKind::Enter) // enter without try
            }
            fn observe(&self, _p: ProcessId, s: &u8, _o: Observation) -> u8 {
                s + 1
            }
        }
        let alg = Bad;
        let mut sys = System::new(&alg);
        sys.step(ProcessId::new(0));
    }
}
