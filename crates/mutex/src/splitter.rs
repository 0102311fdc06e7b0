//! A fully symmetric register-only lock built from the Moir–Anderson
//! splitter, in two flavors (busy retry and polite gate spin).
//!
//! The classical splitter (Moir & Anderson's renaming building block,
//! after Lamport's fast-path mutex) routes at most one process "down"
//! using two plain registers and *no* process-ordered scans:
//!
//! ```text
//! X := me;   if Y ≠ ⊥ → lose;   Y := me;   if X = me → win
//! ```
//!
//! Here the splitter is closed into a lock: winners enter and reopen
//! the gate (`Y := ⊥`) on exit; losers go back to `X := me` and wait
//! for the gate. Losers never write `Y` to ⊥ — only exiting winners
//! do. (The tempting "clear your own stale `Y` claim before retrying"
//! optimization is *unsound*: exhaustive exploration finds a
//! two-process trace where a loser's cleanup reopens the gate while
//! the winner is still inside.) Every use of a process id is
//! *covariant* — write your own id, compare a read against it — both
//! registers are global, and the initial state is id-independent, so
//! the automaton honors the full [`Automaton::symmetric`] contract,
//! which no id-ordered scanner (`filter`, `dijkstra`) or fixed
//! tournament (`peterson`, `dekker-tree`) in this suite can. That
//! makes it the suite's register-only showcase for orbit-reduced
//! exploration.
//!
//! # Safety (mutual exclusion) — holds for every `n`
//!
//! Call the interval from one `Y := ⊥` write (or the initial state)
//! to the next an *epoch*. Claims (`Y := me`) are nonzero and clears
//! are written only by exiting winners, so within an epoch `Y`
//! becomes nonzero at the epoch's first claim and stays nonzero to
//! the epoch's end; every successful gate read (`Y = ⊥`) of the epoch
//! therefore precedes its first claim. A process wins by reading its
//! own id back from `X`, which requires its `X`-interval — from its
//! `X := me` to its check — to contain no other `X` write. Two
//! same-epoch winners would need disjoint `X`-intervals, but the
//! later one's `X := me` precedes its gate read, which precedes the
//! epoch's first claim, which precedes the earlier one's check —
//! putting the later write *inside* the earlier interval. So each
//! epoch admits at most one winner, the next epoch opens only when
//! that winner exits and clears, and critical sections never overlap.
//!
//! # Liveness — deliberately *not* deadlock-free
//!
//! By the Burns–Lynch space lower bound, deadlock-free mutual
//! exclusion for `n` processes needs at least `n` registers; this
//! lock has two, so for `n ≥ 2` some reachable states make global
//! progress impossible (an epoch where every contender loses the `X`
//! race leaves `Y` claimed by a loser that will never clear it). The
//! explorer certifies safety *and* exhibits the hazard — and the SC
//! worst case over completing schedules is unbounded (contenders can
//! be pumped through charged retry cycles), so the exact verdict is a
//! pumpable-cycle certificate rather than a supremum.
//!
//! The two flavors differ only in how a process waits at a claimed
//! gate: [`Splitter::new`] re-runs `X := me; read Y` on every poll
//! (every retry is SC-charged), while [`Splitter::gated`] spins on
//! `Y` without changing state and rewrites `X` only after the gate
//! reopens.

use exclusion_shmem::dynamic::WordState;
use exclusion_shmem::{
    Automaton, CritKind, NextStep, Observation, Perm, ProcessId, RegisterId, Value,
};

/// Where a process is inside the splitter entry/exit protocol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpPhase {
    /// In the remainder section.
    Remainder,
    /// About to write its id to `X`.
    WriteX,
    /// About to read the gate `Y`.
    ReadY,
    /// Gate was open: about to claim it with its id.
    WriteY,
    /// Gate was claimed (polite variant): spinning on `Y` until it
    /// reopens, then back to [`SpPhase::WriteX`] — the stale `X` claim
    /// must be refreshed before racing again.
    WaitY,
    /// Gate claimed: about to check `X` still holds its id.
    ReadX,
    /// Won the splitter: about to perform `enter`.
    Entering,
    /// In the critical section.
    Critical,
    /// Exited: about to reopen the gate (`Y := ⊥`).
    ClearY,
    /// Gate reopened: about to perform `rem`.
    Resting,
}

impl WordState for SpPhase {
    const WORDS: usize = 1;
    fn pack(&self, out: &mut [u64]) {
        out[0] = *self as u64;
    }
    fn unpack(words: &[u64]) -> Self {
        match words[0] {
            0 => SpPhase::Remainder,
            1 => SpPhase::WriteX,
            2 => SpPhase::ReadY,
            3 => SpPhase::WriteY,
            4 => SpPhase::WaitY,
            5 => SpPhase::ReadX,
            6 => SpPhase::Entering,
            7 => SpPhase::Critical,
            8 => SpPhase::ClearY,
            9 => SpPhase::Resting,
            w => unreachable!("invalid splitter phase word {w}"),
        }
    }
}

/// The splitter lock (see the module docs). Fully symmetric under
/// process permutation; two registers total, independent of `n`.
#[derive(Clone, Copy, Debug)]
pub struct Splitter {
    n: usize,
    gate: bool,
}

/// Register 0: the overwrite cell `X`.
fn reg_x() -> RegisterId {
    RegisterId::new(0)
}

/// Register 1: the gate cell `Y` (`0` means open).
fn reg_y() -> RegisterId {
    RegisterId::new(1)
}

impl Splitter {
    /// An `n`-process splitter lock with busy polling: a process
    /// finding the gate claimed rewrites `X` and re-reads `Y`, so
    /// every poll is SC-charged.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Splitter { n, gate: false }
    }

    /// An `n`-process splitter lock with a polite gate: a process
    /// finding the gate claimed spins on `Y` without changing state
    /// and rewrites `X` only once the gate reopens.
    #[must_use]
    pub fn gated(n: usize) -> Self {
        Splitter { n, gate: true }
    }

    /// Register value encoding of a process id (`0` is ⊥).
    fn tag(p: ProcessId) -> Value {
        p.index() as Value + 1
    }
}

impl Automaton for Splitter {
    type State = SpPhase;

    fn processes(&self) -> usize {
        self.n
    }
    fn registers(&self) -> usize {
        2
    }
    fn initial_state(&self, _p: ProcessId) -> SpPhase {
        SpPhase::Remainder
    }

    fn next_step(&self, p: ProcessId, s: &SpPhase) -> NextStep {
        match s {
            SpPhase::Remainder => NextStep::Crit(CritKind::Try),
            SpPhase::WriteX => NextStep::Write(reg_x(), Self::tag(p)),
            SpPhase::ReadY | SpPhase::WaitY => NextStep::Read(reg_y()),
            SpPhase::WriteY => NextStep::Write(reg_y(), Self::tag(p)),
            SpPhase::ReadX => NextStep::Read(reg_x()),
            SpPhase::Entering => NextStep::Crit(CritKind::Enter),
            SpPhase::Critical => NextStep::Crit(CritKind::Exit),
            SpPhase::ClearY => NextStep::Write(reg_y(), 0),
            SpPhase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, p: ProcessId, s: &SpPhase, obs: Observation) -> SpPhase {
        match (*s, obs) {
            (SpPhase::Remainder, Observation::Crit) => SpPhase::WriteX,
            (SpPhase::WriteX, Observation::Write) => SpPhase::ReadY,
            (SpPhase::ReadY, Observation::Read(v)) => {
                if v == 0 {
                    SpPhase::WriteY
                } else if self.gate {
                    SpPhase::WaitY // polite: spin until the gate opens
                } else {
                    SpPhase::WriteX // busy: rewrite X, poll the gate again
                }
            }
            (SpPhase::WaitY, Observation::Read(v)) => {
                if v == 0 {
                    SpPhase::WriteX // gate open: refresh X, race again
                } else {
                    SpPhase::WaitY // free spin: the state does not change
                }
            }
            (SpPhase::WriteY, Observation::Write) => SpPhase::ReadX,
            (SpPhase::ReadX, Observation::Read(v)) => {
                if v == Self::tag(p) {
                    SpPhase::Entering
                } else if self.gate {
                    SpPhase::WaitY // lost the X race: wait out the epoch
                } else {
                    SpPhase::WriteX
                }
            }
            (SpPhase::Entering, Observation::Crit) => SpPhase::Critical,
            (SpPhase::Critical, Observation::Crit) => SpPhase::ClearY,
            (SpPhase::ClearY, Observation::Write) => SpPhase::Resting,
            (SpPhase::Resting, Observation::Crit) => SpPhase::Remainder,
            (phase, obs) => unreachable!("splitter: {obs:?} in phase {phase:?}"),
        }
    }

    fn register_name(&self, reg: RegisterId) -> String {
        if reg == reg_x() { "x" } else { "y" }.to_string()
    }

    fn name(&self) -> String {
        if self.gate {
            "splitter-gate"
        } else {
            "splitter"
        }
        .to_string()
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn permute_register_value(&self, _reg: RegisterId, value: Value, perm: &Perm) -> Value {
        if value == 0 {
            0
        } else {
            perm.apply_index(value as usize - 1) as Value + 1
        }
    }

    fn pid_in_value(&self, _reg: RegisterId, value: Value) -> Option<ProcessId> {
        (value > 0).then(|| ProcessId::new(value as usize - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::sched::run_sequential;

    #[test]
    fn sequential_passages_complete() {
        for alg in [Splitter::new(4), Splitter::gated(4)] {
            let order: Vec<_> = ProcessId::all(4).collect();
            let exec = run_sequential(&alg, &order, 100_000).unwrap();
            assert!(exec.is_canonical(4), "{}", alg.name());
        }
    }

    #[test]
    fn phase_words_round_trip() {
        use SpPhase::*;
        for p in [
            Remainder, WriteX, ReadY, WriteY, WaitY, ReadX, Entering, Critical, ClearY, Resting,
        ] {
            let mut w = [0u64];
            p.pack(&mut w);
            assert_eq!(SpPhase::unpack(&w), p);
        }
    }

    #[test]
    fn permutation_hooks_are_consistent() {
        let alg = Splitter::new(3);
        let perm = Perm::from_map(vec![2, 0, 1]);
        assert!(alg.symmetric());
        assert_eq!(alg.permute_register_value(reg_x(), 0, &perm), 0);
        // pid 0 (tag 1) maps to pid 2 (tag 3).
        assert_eq!(alg.permute_register_value(reg_x(), 1, &perm), 3);
        assert_eq!(alg.pid_in_value(reg_y(), 2), Some(ProcessId::new(1)));
        assert_eq!(alg.pid_in_value(reg_y(), 0), None);
    }
}
