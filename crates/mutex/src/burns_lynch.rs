//! The Burns–Lynch one-bit algorithm.
//!
//! Each process owns a single boolean flag — the algorithm is
//! space-optimal (Burns & Lynch, *Bounds on shared memory for mutual
//! exclusion*, Inf. & Comp. 1993, reference \[6\] of the paper). A process
//! defers to lower-indexed flag holders (restarting its doorway), then
//! waits out higher-indexed ones. Deadlock-free but not lockout-free.

use exclusion_shmem::dynamic::WordState;
use exclusion_shmem::{Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, Value};

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Remainder,
    /// `flag[me] := 0` (doorway restart point).
    Lower,
    /// First scan of lower-indexed flags; any raised flag restarts.
    ScanLowFirst,
    /// `flag[me] := 1`.
    Raise,
    /// Second scan of lower-indexed flags; any raised flag restarts.
    ScanLowSecond,
    /// Wait until each higher-indexed flag is lowered.
    WaitHigh,
    Entering,
    Critical,
    /// Exit: `flag[me] := 0`.
    Clear,
    Resting,
}

impl Phase {
    /// Every phase in declaration order, so `ALL[p as usize] == p`.
    const ALL: [Phase; 10] = [
        Phase::Remainder,
        Phase::Lower,
        Phase::ScanLowFirst,
        Phase::Raise,
        Phase::ScanLowSecond,
        Phase::WaitHigh,
        Phase::Entering,
        Phase::Critical,
        Phase::Clear,
        Phase::Resting,
    ];
}

/// Per-process state: phase plus scan index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BurnsLynchState {
    phase: Phase,
    j: u32,
}

/// One word: the phase in the low byte, the scan index above it.
impl WordState for BurnsLynchState {
    const WORDS: usize = 1;

    fn pack(&self, out: &mut [u64]) {
        out[0] = self.phase as u64 | u64::from(self.j) << 8;
    }

    fn unpack(words: &[u64]) -> Self {
        BurnsLynchState {
            phase: Phase::ALL[(words[0] & 0xFF) as usize],
            j: (words[0] >> 8) as u32,
        }
    }
}

/// The Burns–Lynch one-bit `n`-process algorithm.
///
/// # Example
///
/// ```
/// use exclusion_mutex::BurnsLynch;
/// use exclusion_shmem::sched::run_round_robin;
///
/// let alg = BurnsLynch::new(3);
/// let exec = run_round_robin(&alg, 1, 100_000).unwrap();
/// assert!(exec.is_canonical(3));
/// assert!(exec.mutual_exclusion(3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BurnsLynch {
    n: usize,
}

impl BurnsLynch {
    /// An `n`-process instance.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        BurnsLynch { n }
    }

    fn flag(&self, i: usize) -> RegisterId {
        RegisterId::new(i)
    }
}

impl Automaton for BurnsLynch {
    type State = BurnsLynchState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        self.n
    }

    fn initial_state(&self, _pid: ProcessId) -> BurnsLynchState {
        BurnsLynchState {
            phase: Phase::Remainder,
            j: 0,
        }
    }

    fn next_step(&self, pid: ProcessId, state: &BurnsLynchState) -> NextStep {
        match state.phase {
            Phase::Remainder => NextStep::Crit(CritKind::Try),
            Phase::Lower => NextStep::Write(self.flag(pid.index()), 0),
            Phase::ScanLowFirst | Phase::ScanLowSecond | Phase::WaitHigh => {
                NextStep::Read(self.flag(state.j as usize))
            }
            Phase::Raise => NextStep::Write(self.flag(pid.index()), 1),
            Phase::Entering => NextStep::Crit(CritKind::Enter),
            Phase::Critical => NextStep::Crit(CritKind::Exit),
            Phase::Clear => NextStep::Write(self.flag(pid.index()), 0),
            Phase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(
        &self,
        pid: ProcessId,
        state: &BurnsLynchState,
        obs: Observation,
    ) -> BurnsLynchState {
        let me = pid.index();
        let at = |phase, j: u32| BurnsLynchState { phase, j };
        // After the first scans (below `me`) comes `Raise` / `WaitHigh`.
        let after_low_first = |j: u32| {
            if (j + 1) as usize >= me {
                at(Phase::Raise, 0)
            } else {
                at(Phase::ScanLowFirst, j + 1)
            }
        };
        let after_low_second = |j: u32| {
            if (j + 1) as usize >= me {
                if me + 1 < self.n {
                    at(Phase::WaitHigh, me as u32 + 1)
                } else {
                    at(Phase::Entering, 0)
                }
            } else {
                at(Phase::ScanLowSecond, j + 1)
            }
        };
        match (state.phase, obs) {
            (Phase::Remainder, Observation::Crit) => at(Phase::Lower, 0),
            (Phase::Lower, Observation::Write) => {
                if me == 0 {
                    at(Phase::Raise, 0)
                } else {
                    at(Phase::ScanLowFirst, 0)
                }
            }
            (Phase::ScanLowFirst, Observation::Read(v)) => {
                if v == 1 {
                    at(Phase::Lower, 0) // a lower-indexed contender: restart
                } else {
                    after_low_first(state.j)
                }
            }
            (Phase::Raise, Observation::Write) => {
                if me == 0 {
                    if self.n > 1 {
                        at(Phase::WaitHigh, 1)
                    } else {
                        at(Phase::Entering, 0)
                    }
                } else {
                    at(Phase::ScanLowSecond, 0)
                }
            }
            (Phase::ScanLowSecond, Observation::Read(v)) => {
                if v == 1 {
                    at(Phase::Lower, 0)
                } else {
                    after_low_second(state.j)
                }
            }
            (Phase::WaitHigh, Observation::Read(v)) => {
                if v == 1 {
                    *state // higher-indexed contender still in: spin (free)
                } else if (state.j + 1) as usize >= self.n {
                    at(Phase::Entering, 0)
                } else {
                    at(Phase::WaitHigh, state.j + 1)
                }
            }
            (Phase::Entering, Observation::Crit) => at(Phase::Critical, 0),
            (Phase::Critical, Observation::Crit) => at(Phase::Clear, 0),
            (Phase::Clear, Observation::Write) => at(Phase::Resting, 0),
            (Phase::Resting, Observation::Crit) => at(Phase::Remainder, 0),
            (phase, obs) => unreachable!("burns-lynch: {phase:?} cannot observe {obs:?}"),
        }
    }

    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        Some(ProcessId::new(reg.index()))
    }

    fn register_name(&self, reg: RegisterId) -> String {
        format!("flag[{}]", reg.index())
    }

    fn name(&self) -> String {
        "burns-lynch".to_string()
    }

    fn initial_value(&self, _reg: RegisterId) -> Value {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};

    #[test]
    fn uses_exactly_one_register_per_process() {
        assert_eq!(BurnsLynch::new(7).registers(), 7);
    }

    #[test]
    fn sequential_canonical() {
        let alg = BurnsLynch::new(6);
        let order: Vec<_> = ProcessId::all(6).collect();
        let exec = run_sequential(&alg, &order, 10_000).unwrap();
        assert!(exec.is_canonical(6));
    }

    #[test]
    fn contended_schedules_are_safe() {
        for n in [2, 3, 4] {
            let alg = BurnsLynch::new(n);
            let exec = run_round_robin(&alg, 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n));
            for seed in 0..10 {
                let exec = run_random(&alg, 1, 1_000_000, seed).unwrap();
                assert!(exec.mutual_exclusion(n), "n = {n}, seed = {seed}");
            }
        }
    }
}
