//! A local-spin tournament lock built from Dekker-style two-process
//! elements — this workspace's witness that the paper's Ω(n log n) bound
//! is tight in the state-change cost model.
//!
//! Processes climb an arbitration tree (as in Yang & Anderson \[13\], the
//! algorithm the paper cites for the matching upper bound; see
//! [`stale_tournament`](crate::stale_tournament) for why the element here
//! is Dekker's rather than a reconstruction of theirs). At a node, a process raises its side's flag and checks the
//! rival flag; on contention the tie-break register decides, and — the
//! key restructuring — **every busy-wait loop reads a single register**:
//!
//! * the tie-break loser lowers its flag and spins on `turn` alone
//!   (`turn` is only ever handed to side `s` by the other side's exit, so
//!   once observed it is stable until our own exit);
//! * the tie-break holder spins on the rival's flag alone.
//!
//! A spin read that sees the same value leaves the state unchanged and is
//! free in the SC model, so a node encounter costs O(1) state changes
//! even under contention, a passage costs O(log n), and a canonical
//! execution costs O(n log n) — matching the paper's lower bound.

use exclusion_shmem::dynamic::WordState;
use exclusion_shmem::{Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, Value};

use crate::tree::Tree;

const REGS_PER_NODE: usize = 3;
const FLAG0: usize = 0;
const FLAG1: usize = 1;
const TURN: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Remainder,
    /// Entry: `flag[v][s] := 1`.
    Raise,
    /// Entry: read the rival's flag; absent rival wins immediately.
    ReadRival,
    /// Entry: contention — read the tie-break once.
    ReadTurn,
    /// Holding the tie-break: spin on the rival's flag (single register).
    HoldSpin,
    /// Lost the tie-break: lower our flag before waiting.
    Backoff,
    /// Lost the tie-break: spin on `turn` (single register).
    WaitTurn,
    /// Tie-break regained: raise the flag again.
    ReRaise,
    Entering,
    Critical,
    /// Exit, per node (root → leaf): hand the tie-break to the rival.
    ExitTurn,
    /// Exit: lower our flag.
    ExitLower,
    Resting,
}

impl Phase {
    /// Every phase in declaration order, so `ALL[p as usize] == p`.
    const ALL: [Phase; 13] = [
        Phase::Remainder,
        Phase::Raise,
        Phase::ReadRival,
        Phase::ReadTurn,
        Phase::HoldSpin,
        Phase::Backoff,
        Phase::WaitTurn,
        Phase::ReRaise,
        Phase::Entering,
        Phase::Critical,
        Phase::ExitTurn,
        Phase::ExitLower,
        Phase::Resting,
    ];
}

/// Per-process state: the phase and the climb/release level it applies
/// to (level 0 is the node just above the leaves).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DekkerState {
    phase: Phase,
    level: u8,
}

/// One word: the phase in the low byte, the level in the next.
impl WordState for DekkerState {
    const WORDS: usize = 1;

    fn pack(&self, out: &mut [u64]) {
        out[0] = self.phase as u64 | u64::from(self.level) << 8;
    }

    fn unpack(words: &[u64]) -> Self {
        DekkerState {
            phase: Phase::ALL[(words[0] & 0xFF) as usize],
            level: (words[0] >> 8) as u8,
        }
    }
}

/// The `n`-process Dekker tournament.
///
/// # Example
///
/// ```
/// use exclusion_mutex::DekkerTournament;
/// use exclusion_shmem::sched::run_sequential;
/// use exclusion_shmem::ProcessId;
///
/// let alg = DekkerTournament::new(4);
/// let order: Vec<_> = ProcessId::all(4).collect();
/// let exec = run_sequential(&alg, &order, 10_000).unwrap();
/// assert!(exec.is_canonical(4));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DekkerTournament {
    tree: Tree,
}

impl DekkerTournament {
    /// An `n`-process instance.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        DekkerTournament { tree: Tree::new(n) }
    }

    /// The arbitration-tree geometry.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    fn reg(&self, node: usize, which: usize) -> RegisterId {
        RegisterId::new((node - 1) * REGS_PER_NODE + which)
    }

    fn flag_reg(&self, node: usize, side: u8) -> RegisterId {
        self.reg(node, if side == 0 { FLAG0 } else { FLAG1 })
    }

    fn turn_reg(&self, node: usize) -> RegisterId {
        self.reg(node, TURN)
    }

    fn levels(&self) -> usize {
        self.tree.levels()
    }

    fn won(&self, level: u8) -> DekkerState {
        if (level as usize) + 1 < self.levels() {
            DekkerState {
                phase: Phase::Raise,
                level: level + 1,
            }
        } else {
            DekkerState {
                phase: Phase::Entering,
                level: 0,
            }
        }
    }

    fn released(&self, level: u8) -> DekkerState {
        if level == 0 {
            DekkerState {
                phase: Phase::Resting,
                level: 0,
            }
        } else {
            DekkerState {
                phase: Phase::ExitTurn,
                level: level - 1,
            }
        }
    }
}

impl Automaton for DekkerTournament {
    type State = DekkerState;

    fn processes(&self) -> usize {
        self.tree.processes()
    }

    fn registers(&self) -> usize {
        self.tree.nodes() * REGS_PER_NODE
    }

    fn initial_state(&self, _pid: ProcessId) -> DekkerState {
        DekkerState {
            phase: Phase::Remainder,
            level: 0,
        }
    }

    fn next_step(&self, pid: ProcessId, state: &DekkerState) -> NextStep {
        let hop = |lvl: u8| self.tree.hop(pid.index(), lvl as usize);
        match state.phase {
            Phase::Remainder => NextStep::Crit(CritKind::Try),
            Phase::Raise | Phase::ReRaise => {
                let h = hop(state.level);
                NextStep::Write(self.flag_reg(h.node, h.side), 1)
            }
            Phase::ReadRival | Phase::HoldSpin => {
                let h = hop(state.level);
                NextStep::Read(self.flag_reg(h.node, 1 - h.side))
            }
            Phase::ReadTurn | Phase::WaitTurn => {
                let h = hop(state.level);
                NextStep::Read(self.turn_reg(h.node))
            }
            Phase::Backoff => {
                let h = hop(state.level);
                NextStep::Write(self.flag_reg(h.node, h.side), 0)
            }
            Phase::Entering => NextStep::Crit(CritKind::Enter),
            Phase::Critical => NextStep::Crit(CritKind::Exit),
            Phase::ExitTurn => {
                let h = hop(state.level);
                NextStep::Write(self.turn_reg(h.node), Value::from(1 - h.side))
            }
            Phase::ExitLower => {
                let h = hop(state.level);
                NextStep::Write(self.flag_reg(h.node, h.side), 0)
            }
            Phase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, pid: ProcessId, state: &DekkerState, obs: Observation) -> DekkerState {
        let side = |lvl: u8| self.tree.hop(pid.index(), lvl as usize).side;
        let lvl = state.level;
        let go = |phase| DekkerState { phase, level: lvl };
        match (state.phase, obs) {
            (Phase::Remainder, Observation::Crit) => {
                if self.levels() == 0 {
                    DekkerState {
                        phase: Phase::Entering,
                        level: 0,
                    }
                } else {
                    DekkerState {
                        phase: Phase::Raise,
                        level: 0,
                    }
                }
            }
            (Phase::Raise, Observation::Write) => go(Phase::ReadRival),
            (Phase::ReadRival, Observation::Read(v)) => {
                if v == 0 {
                    self.won(lvl)
                } else {
                    go(Phase::ReadTurn)
                }
            }
            (Phase::ReadTurn, Observation::Read(v)) => {
                if v == Value::from(side(lvl)) {
                    // The tie-break is ours and stable until our own
                    // exit: wait for the rival to back off or leave.
                    go(Phase::HoldSpin)
                } else {
                    go(Phase::Backoff)
                }
            }
            (Phase::HoldSpin, Observation::Read(v)) => {
                if v == 0 {
                    self.won(lvl)
                } else {
                    *state // spin on the rival flag: free
                }
            }
            (Phase::Backoff, Observation::Write) => go(Phase::WaitTurn),
            (Phase::WaitTurn, Observation::Read(v)) => {
                if v == Value::from(side(lvl)) {
                    go(Phase::ReRaise)
                } else {
                    *state // spin on the tie-break: free
                }
            }
            (Phase::ReRaise, Observation::Write) => go(Phase::HoldSpin),
            (Phase::Entering, Observation::Crit) => go(Phase::Critical),
            (Phase::Critical, Observation::Crit) => {
                if self.levels() == 0 {
                    DekkerState {
                        phase: Phase::Resting,
                        level: 0,
                    }
                } else {
                    DekkerState {
                        phase: Phase::ExitTurn,
                        level: (self.levels() - 1) as u8,
                    }
                }
            }
            (Phase::ExitTurn, Observation::Write) => go(Phase::ExitLower),
            (Phase::ExitLower, Observation::Write) => self.released(lvl),
            (Phase::Resting, Observation::Crit) => DekkerState {
                phase: Phase::Remainder,
                level: 0,
            },
            (phase, obs) => unreachable!("dekker: {phase:?} cannot observe {obs:?}"),
        }
    }

    fn register_name(&self, reg: RegisterId) -> String {
        let idx = reg.index();
        let node = idx / REGS_PER_NODE + 1;
        match idx % REGS_PER_NODE {
            FLAG0 => format!("flag[{node}][0]"),
            FLAG1 => format!("flag[{node}][1]"),
            _ => format!("turn[{node}]"),
        }
    }

    fn name(&self) -> String {
        "dekker-tree".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};

    #[test]
    fn solo_passage_cost_is_logarithmic() {
        for (n, levels) in [(2usize, 1usize), (8, 3), (32, 5), (128, 7)] {
            let alg = DekkerTournament::new(n);
            let order = [ProcessId::new(0)];
            let exec = run_sequential(&alg, &order, 10_000).unwrap();
            // Per level: raise, read-rival, exit-turn, exit-lower = 4
            // shared accesses; plus 4 critical steps.
            assert_eq!(exec.shared_accesses(), 4 * levels, "n = {n}");
        }
    }

    #[test]
    fn sequential_canonical_any_order() {
        let alg = DekkerTournament::new(6);
        for order in [
            vec![0, 1, 2, 3, 4, 5],
            vec![5, 4, 3, 2, 1, 0],
            vec![2, 0, 5, 1, 4, 3],
        ] {
            let order: Vec<_> = order.into_iter().map(ProcessId::new).collect();
            let exec = run_sequential(&alg, &order, 10_000).unwrap();
            assert!(exec.is_canonical(6));
            assert_eq!(exec.critical_order(), order);
        }
    }

    #[test]
    fn contended_schedules_are_safe() {
        for n in [2, 3, 4, 5, 8] {
            let alg = DekkerTournament::new(n);
            let exec = run_round_robin(&alg, 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n), "round robin, n = {n}");
            for seed in 0..20 {
                let exec = run_random(&alg, 2, 1_000_000, seed).unwrap();
                assert!(exec.mutual_exclusion(n), "random, n = {n}, seed = {seed}");
            }
        }
    }

    #[test]
    fn contended_sc_cost_stays_bounded_per_node() {
        // Even under a fully contended round-robin schedule, state
        // changes per process per passage stay O(levels): spins are free.
        use exclusion_shmem::replay;
        let n = 8;
        let alg = DekkerTournament::new(n);
        let exec = run_round_robin(&alg, 1, 1_000_000).unwrap();
        let mut sc = 0usize;
        replay(&alg, exec.steps(), |o| {
            if o.step.is_shared_access() && o.state_changed {
                sc += 1;
            }
        })
        .unwrap();
        let levels = alg.tree().levels();
        // ≤ ~8 state changes per node encounter, n passages, `levels`
        // nodes each.
        assert!(
            sc <= 8 * levels * n,
            "sc = {sc}, bound = {}",
            8 * levels * n
        );
    }
}
