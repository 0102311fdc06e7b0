//! Dijkstra's mutual exclusion algorithm (1965) — the original solution,
//! and the historical starting point the paper's related-work section
//! cites.
//!
//! A process raises its flag to 1, steals `turn` when its holder is
//! idle, commits by raising its flag to 2, and verifies that no other
//! process has also committed; on conflict it backs off to flag 1 and
//! retries. Deadlock-free but not lockout-free. A solo passage scans all
//! flags once: Θ(n), so canonical executions cost Θ(n²).

use exclusion_shmem::dynamic::WordState;
use exclusion_shmem::{Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, Value};

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Remainder,
    /// `flag[me] := 1`.
    SetInterested,
    /// Read `turn`; if it is me, commit, otherwise inspect its holder.
    ReadTurn,
    /// Read `flag[k]` for the current turn-holder `k`; steal if idle.
    ReadHolder,
    /// `turn := me`.
    StealTurn,
    /// `flag[me] := 2`.
    Commit,
    /// Verify: read `flag[j]`, restarting if another process committed.
    Check,
    Entering,
    Critical,
    /// Exit: `flag[me] := 0`.
    ClearFlag,
    Resting,
}

impl Phase {
    /// Every phase in declaration order, so `ALL[p as usize] == p`.
    const ALL: [Phase; 11] = [
        Phase::Remainder,
        Phase::SetInterested,
        Phase::ReadTurn,
        Phase::ReadHolder,
        Phase::StealTurn,
        Phase::Commit,
        Phase::Check,
        Phase::Entering,
        Phase::Critical,
        Phase::ClearFlag,
        Phase::Resting,
    ];
}

/// Per-process state: phase, the last observed turn-holder, and the
/// verification scan index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DijkstraState {
    phase: Phase,
    /// Turn-holder observed by the most recent `ReadTurn`.
    holder: u32,
    /// Scan index for the verification loop.
    j: u32,
}

/// Two words: the phase in the low byte of the first with the
/// observed holder above it, then the scan index.
impl WordState for DijkstraState {
    const WORDS: usize = 2;

    fn pack(&self, out: &mut [u64]) {
        out[0] = self.phase as u64 | u64::from(self.holder) << 8;
        out[1] = u64::from(self.j);
    }

    fn unpack(words: &[u64]) -> Self {
        DijkstraState {
            phase: Phase::ALL[(words[0] & 0xFF) as usize],
            holder: (words[0] >> 8) as u32,
            j: words[1] as u32,
        }
    }
}

/// Dijkstra's `n`-process algorithm.
///
/// # Example
///
/// ```
/// use exclusion_mutex::Dijkstra;
/// use exclusion_shmem::sched::run_round_robin;
///
/// let alg = Dijkstra::new(3);
/// let exec = run_round_robin(&alg, 1, 100_000).unwrap();
/// assert!(exec.is_canonical(3));
/// assert!(exec.mutual_exclusion(3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Dijkstra {
    n: usize,
}

impl Dijkstra {
    /// An `n`-process instance.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        Dijkstra { n }
    }

    fn flag(&self, i: usize) -> RegisterId {
        RegisterId::new(i)
    }

    fn turn(&self) -> RegisterId {
        RegisterId::new(self.n)
    }

    fn advance_check(&self, pid: ProcessId, j: u32) -> DijkstraState {
        let mut j = j + 1;
        if j as usize == pid.index() {
            j += 1;
        }
        if (j as usize) < self.n {
            DijkstraState {
                phase: Phase::Check,
                holder: 0,
                j,
            }
        } else {
            DijkstraState {
                phase: Phase::Entering,
                holder: 0,
                j: 0,
            }
        }
    }

    fn start_check(&self, pid: ProcessId) -> DijkstraState {
        let first = if pid.index() == 0 { 1 } else { 0 };
        if first >= self.n {
            DijkstraState {
                phase: Phase::Entering,
                holder: 0,
                j: 0,
            }
        } else {
            DijkstraState {
                phase: Phase::Check,
                holder: 0,
                j: first as u32,
            }
        }
    }
}

impl Automaton for Dijkstra {
    type State = DijkstraState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        self.n + 1
    }

    fn initial_state(&self, _pid: ProcessId) -> DijkstraState {
        DijkstraState {
            phase: Phase::Remainder,
            holder: 0,
            j: 0,
        }
    }

    fn next_step(&self, pid: ProcessId, state: &DijkstraState) -> NextStep {
        match state.phase {
            Phase::Remainder => NextStep::Crit(CritKind::Try),
            Phase::SetInterested => NextStep::Write(self.flag(pid.index()), 1),
            Phase::ReadTurn => NextStep::Read(self.turn()),
            Phase::ReadHolder => NextStep::Read(self.flag(state.holder as usize)),
            Phase::StealTurn => NextStep::Write(self.turn(), pid.index() as Value),
            Phase::Commit => NextStep::Write(self.flag(pid.index()), 2),
            Phase::Check => NextStep::Read(self.flag(state.j as usize)),
            Phase::Entering => NextStep::Crit(CritKind::Enter),
            Phase::Critical => NextStep::Crit(CritKind::Exit),
            Phase::ClearFlag => NextStep::Write(self.flag(pid.index()), 0),
            Phase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, pid: ProcessId, state: &DijkstraState, obs: Observation) -> DijkstraState {
        let still = |phase| DijkstraState {
            phase,
            holder: 0,
            j: 0,
        };
        match (state.phase, obs) {
            (Phase::Remainder, Observation::Crit) => still(Phase::SetInterested),
            (Phase::SetInterested, Observation::Write) => still(Phase::ReadTurn),
            (Phase::ReadTurn, Observation::Read(v)) => {
                if v == pid.index() as Value {
                    still(Phase::Commit)
                } else {
                    DijkstraState {
                        phase: Phase::ReadHolder,
                        holder: v as u32,
                        j: 0,
                    }
                }
            }
            (Phase::ReadHolder, Observation::Read(v)) => {
                if v == 0 {
                    still(Phase::StealTurn)
                } else {
                    still(Phase::ReadTurn)
                }
            }
            (Phase::StealTurn, Observation::Write) => still(Phase::ReadTurn),
            (Phase::Commit, Observation::Write) => self.start_check(pid),
            (Phase::Check, Observation::Read(v)) => {
                if v == 2 {
                    // Another committed process: back off and retry.
                    still(Phase::SetInterested)
                } else {
                    self.advance_check(pid, state.j)
                }
            }
            (Phase::Entering, Observation::Crit) => still(Phase::Critical),
            (Phase::Critical, Observation::Crit) => still(Phase::ClearFlag),
            (Phase::ClearFlag, Observation::Write) => still(Phase::Resting),
            (Phase::Resting, Observation::Crit) => still(Phase::Remainder),
            (phase, obs) => unreachable!("dijkstra: {phase:?} cannot observe {obs:?}"),
        }
    }

    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        (reg.index() < self.n).then(|| ProcessId::new(reg.index()))
    }

    fn register_name(&self, reg: RegisterId) -> String {
        if reg.index() < self.n {
            format!("flag[{}]", reg.index())
        } else {
            "turn".to_string()
        }
    }

    fn name(&self) -> String {
        "dijkstra".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};

    #[test]
    fn sequential_canonical_linear_solo_cost() {
        let alg = Dijkstra::new(8);
        let order: Vec<_> = ProcessId::all(8).collect();
        let exec = run_sequential(&alg, &order, 10_000).unwrap();
        assert!(exec.is_canonical(8));
        // Solo passage: flag writes + turn dance + n-1 checks: Θ(n).
        let per_process = exec.shared_accesses() / 8;
        assert!((7..40).contains(&per_process));
    }

    #[test]
    fn contended_schedules_are_safe() {
        for n in [2, 3, 4] {
            let alg = Dijkstra::new(n);
            let exec = run_round_robin(&alg, 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n));
            for seed in 0..10 {
                let exec = run_random(&alg, 1, 1_000_000, seed).unwrap();
                assert!(exec.mutual_exclusion(n), "n = {n}, seed = {seed}");
            }
        }
    }
}
