//! Simulated locks built on read-modify-write primitives — the
//! "stronger memory primitives" of the paper's §8 — mirroring the
//! hardware family in `exclusion-spin`: test-and-set and
//! test-and-test-and-set. The MCS, CLH and ticket locks are simulated
//! by the composed [`crate::queue`] locks (`mcs` and `mcs-sim`, `clh`,
//! `ticket`).
//!
//! These automata use [`NextStep::Rmw`] and therefore live *outside*
//! the paper's register-only model: the lower-bound construction
//! rejects them with [`ConstructError::UnsupportedStep`] (tested in the
//! workspace's failure-injection suite), but the simulator, the cost
//! models and exhaustive exploration handle them fully, which lets the
//! experiments compare register-only and RMW synchronization under
//! identical accounting.
//!
//! [`ConstructError::UnsupportedStep`]: ../exclusion_lb/enum.ConstructError.html

use exclusion_shmem::dynamic::WordState;
use exclusion_shmem::{
    Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, RmwOp, Value,
};

/// Common phase structure shared by the RMW lock automata.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Remainder,
    /// Entry phases (meaning per algorithm).
    Entry(u8),
    Entering,
    Critical,
    /// Exit phases (meaning per algorithm).
    Exit(u8),
    Resting,
}

/// Per-process state: a phase and one auxiliary word (the TTAS lock's
/// remaining backoff polls).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RmwState {
    phase: Phase,
    aux: Value,
}

impl RmwState {
    fn at(phase: Phase, aux: Value) -> Self {
        RmwState { phase, aux }
    }
}

impl WordState for RmwState {
    const WORDS: usize = 2;

    fn pack(&self, out: &mut [u64]) {
        // Injective phase encoding: low byte is the variant tag, the
        // next byte carries the Entry/Exit payload.
        out[0] = match self.phase {
            Phase::Remainder => 0,
            Phase::Entry(k) => 1 | (u64::from(k) << 8),
            Phase::Entering => 2,
            Phase::Critical => 3,
            Phase::Exit(k) => 4 | (u64::from(k) << 8),
            Phase::Resting => 5,
        };
        out[1] = self.aux;
    }

    fn unpack(words: &[u64]) -> Self {
        let payload = (words[0] >> 8) as u8;
        let phase = match words[0] & 0xFF {
            0 => Phase::Remainder,
            1 => Phase::Entry(payload),
            2 => Phase::Entering,
            3 => Phase::Critical,
            4 => Phase::Exit(payload),
            5 => Phase::Resting,
            w => unreachable!("invalid rmw phase word {w}"),
        };
        RmwState {
            phase,
            aux: words[1],
        }
    }
}

macro_rules! common_crit {
    ($self:ident, $state:ident, $obs:ident, $entry0:expr) => {
        match ($state.phase, $obs) {
            (Phase::Remainder, Observation::Crit) => return $entry0,
            (Phase::Entering, Observation::Crit) => {
                return RmwState::at(Phase::Critical, $state.aux)
            }
            (Phase::Critical, Observation::Crit) => return RmwState::at(Phase::Exit(0), $state.aux),
            // aux is preserved across the remainder section, so a lock
            // may carry a word from passage to passage.
            (Phase::Resting, Observation::Crit) => {
                return RmwState::at(Phase::Remainder, $state.aux)
            }
            _ => {}
        }
    };
}

/// Test-and-set: spin on `swap(1)` until the old value is 0.
///
/// In the SC model a failed swap leaves both the register and the state
/// unchanged, so TAS spinning is *free* — while under CC every attempt
/// claims the line. The pair quantifies how differently the two models
/// price write-based spinning.
#[derive(Clone, Copy, Debug)]
pub struct TasSim {
    n: usize,
}

impl TasSim {
    /// An `n`-process test-and-set lock.
    #[must_use]
    pub fn new(n: usize) -> Self {
        TasSim { n }
    }

    fn bit(&self) -> RegisterId {
        RegisterId::new(0)
    }
}

impl Automaton for TasSim {
    type State = RmwState;

    fn processes(&self) -> usize {
        self.n
    }
    fn registers(&self) -> usize {
        1
    }
    fn initial_state(&self, _p: ProcessId) -> RmwState {
        RmwState::at(Phase::Remainder, 0)
    }

    fn next_step(&self, _p: ProcessId, s: &RmwState) -> NextStep {
        match s.phase {
            Phase::Remainder => NextStep::Crit(CritKind::Try),
            Phase::Entry(_) => NextStep::Rmw(self.bit(), RmwOp::Swap(1)),
            Phase::Entering => NextStep::Crit(CritKind::Enter),
            Phase::Critical => NextStep::Crit(CritKind::Exit),
            Phase::Exit(_) => NextStep::Write(self.bit(), 0),
            Phase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, _p: ProcessId, s: &RmwState, obs: Observation) -> RmwState {
        common_crit!(self, s, obs, RmwState::at(Phase::Entry(0), 0));
        match (s.phase, obs) {
            (Phase::Entry(0), Observation::Rmw(old)) => {
                if old == 0 {
                    RmwState::at(Phase::Entering, 0)
                } else {
                    *s // failed swap: spin
                }
            }
            (Phase::Exit(0), Observation::Write) => RmwState::at(Phase::Resting, 0),
            _ => unreachable!("tas: {s:?} cannot observe {obs:?}"),
        }
    }

    fn name(&self) -> String {
        "tas-sim".to_string()
    }

    // States and register values are pid-free, so relabelling processes
    // is an automorphism with the default (identity) permutation hooks.
    fn symmetric(&self) -> bool {
        true
    }
}

/// Test-and-test-and-set: read until the bit looks free, then swap.
#[derive(Clone, Copy, Debug)]
pub struct TtasSim {
    n: usize,
    /// Polling reads inserted after a lost swap before re-polling.
    backoff: Value,
}

impl TtasSim {
    /// An `n`-process TTAS lock with no backoff.
    #[must_use]
    pub fn new(n: usize) -> Self {
        TtasSim { n, backoff: 0 }
    }

    /// A TTAS lock that backs off after losing a swap race: the loser
    /// performs `backoff` extra polling reads (each counted down in its
    /// state) before resuming the normal poll loop. Under SC the
    /// countdown reads are all charged — the model's price for
    /// impatience — while under CC they mostly hit the loser's cache;
    /// the registry exposes this as the `ttas-sim:backoff=K` spec
    /// parameter (`ttas` is a registered alias, so `ttas:backoff=K`
    /// works too). `backoff = 0` is exactly [`TtasSim::new`].
    #[must_use]
    pub fn with_backoff(n: usize, backoff: usize) -> Self {
        TtasSim {
            n,
            backoff: backoff as Value,
        }
    }

    fn bit(&self) -> RegisterId {
        RegisterId::new(0)
    }
}

impl Automaton for TtasSim {
    type State = RmwState;

    fn processes(&self) -> usize {
        self.n
    }
    fn registers(&self) -> usize {
        1
    }
    fn initial_state(&self, _p: ProcessId) -> RmwState {
        RmwState::at(Phase::Remainder, 0)
    }

    fn next_step(&self, _p: ProcessId, s: &RmwState) -> NextStep {
        match s.phase {
            Phase::Remainder => NextStep::Crit(CritKind::Try),
            Phase::Entry(0) => NextStep::Read(self.bit()),
            Phase::Entry(1) => NextStep::Rmw(self.bit(), RmwOp::Swap(1)),
            // Backoff countdown: polling reads, charged as they count.
            Phase::Entry(_) => NextStep::Read(self.bit()),
            Phase::Entering => NextStep::Crit(CritKind::Enter),
            Phase::Critical => NextStep::Crit(CritKind::Exit),
            Phase::Exit(_) => NextStep::Write(self.bit(), 0),
            Phase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, _p: ProcessId, s: &RmwState, obs: Observation) -> RmwState {
        common_crit!(self, s, obs, RmwState::at(Phase::Entry(0), 0));
        match (s.phase, obs) {
            (Phase::Entry(0), Observation::Read(v)) => {
                if v == 0 {
                    RmwState::at(Phase::Entry(1), 0)
                } else {
                    *s // polled busy: spin on the read
                }
            }
            (Phase::Entry(1), Observation::Rmw(old)) => {
                if old == 0 {
                    RmwState::at(Phase::Entering, 0)
                } else if self.backoff > 0 {
                    // Lost the race: back off for `backoff` reads.
                    RmwState::at(Phase::Entry(2), self.backoff)
                } else {
                    RmwState::at(Phase::Entry(0), 0) // lost the race: re-poll
                }
            }
            (Phase::Entry(2), Observation::Read(_)) => {
                if s.aux > 1 {
                    RmwState::at(Phase::Entry(2), s.aux - 1)
                } else {
                    RmwState::at(Phase::Entry(0), 0) // backed off: re-poll
                }
            }
            (Phase::Exit(0), Observation::Write) => RmwState::at(Phase::Resting, 0),
            _ => unreachable!("ttas: {s:?} cannot observe {obs:?}"),
        }
    }

    fn name(&self) -> String {
        "ttas-sim".to_string()
    }

    // Pid-free states and register values: see `TasSim::symmetric`.
    fn symmetric(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AlgorithmRegistry, ResolvedAlgorithm};
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};
    use exclusion_shmem::DynRef;

    /// The registry's RMW locks that are not crash-recoverable: the
    /// simulated locks of this module and the composed queue locks.
    fn rmw_algorithms(n: usize) -> Vec<ResolvedAlgorithm> {
        AlgorithmRegistry::global().resolve_where(n, |i| i.uses_rmw && !i.recoverable)
    }

    #[test]
    fn all_rmw_locks_complete_canonical_runs() {
        for r in rmw_algorithms(5) {
            let alg = DynRef(r.automaton.as_ref());
            let order: Vec<_> = ProcessId::all(5).collect();
            let exec = run_sequential(&alg, &order, 100_000)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert!(exec.is_canonical(5), "{}", alg.name());
            assert_eq!(exec.critical_order(), order, "{}", alg.name());
        }
    }

    #[test]
    fn all_rmw_locks_are_safe_under_contention() {
        for r in rmw_algorithms(3) {
            let alg = DynRef(r.automaton.as_ref());
            let exec = run_round_robin(&alg, 2, 1_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert!(exec.mutual_exclusion(3), "{}", alg.name());
            for seed in 0..10 {
                let exec = run_random(&alg, 2, 1_000_000, seed)
                    .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
                assert!(exec.mutual_exclusion(3), "{} seed {seed}", alg.name());
            }
        }
    }

    #[test]
    fn rmw_canonical_cost_is_constant_per_passage() {
        // Queue and TAS locks acquire in O(1) accesses uncontended —
        // contrast with Θ(log n) tournaments and Θ(n) scanners.
        for r in rmw_algorithms(16) {
            let alg = DynRef(r.automaton.as_ref());
            let order: Vec<_> = ProcessId::all(16).collect();
            let exec = run_sequential(&alg, &order, 100_000).unwrap();
            let per_passage = exec.shared_accesses() as f64 / 16.0;
            assert!(
                per_passage <= 8.0,
                "{}: {per_passage} accesses per passage",
                alg.name()
            );
        }
    }

    #[test]
    fn rmw_state_words_round_trip() {
        let states = [
            RmwState::at(Phase::Remainder, 0),
            RmwState::at(Phase::Entry(0), 7),
            RmwState::at(Phase::Entry(4), u64::MAX),
            RmwState::at(Phase::Entering, 1),
            RmwState::at(Phase::Critical, 2),
            RmwState::at(Phase::Exit(3), 9),
            RmwState::at(Phase::Resting, 0),
        ];
        for s in states {
            let mut w = [0u64; 2];
            s.pack(&mut w);
            assert_eq!(RmwState::unpack(&w), s);
        }
    }
}
