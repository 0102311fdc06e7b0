//! Crash-recoverable locks for the fault-injection model of
//! [`exclusion_shmem::fault`].
//!
//! A crash wipes a process's volatile state to
//! [`Automaton::recover_state`] while shared registers persist; the
//! *recovery section* is ordinary automaton steps (reads and writes
//! taken before the next `try`) that repair shared memory from whatever
//! the crash left behind. The locks here make that repair explicit:
//!
//! | Lock | Recovery section | Idea |
//! |---|---|---|
//! | [`RPeterson`] | lower own *exclusive* flags, root → leaf | Golab–Ramaraju-style healing of Peterson's tournament |
//! | [`RTas`] | read owner record, release if mine | CAS lock whose register names the owner |
//! | [`BrokenRecover`] | **unconditionally** free the lock | planted bug: leaks another process's CS |
//!
//! [`BrokenRecover`] is deliberately wrong — crash-free it is a correct
//! CAS lock, but one crash of a *non-owner* frees an owner's lock, so
//! only crash-aware certification (the `explore` crate's recoverability
//! check) can tell it apart from [`RTas`]. It plays the same role for
//! crash-aware certification that [`crate::broken`] plays for the
//! crash-free explorer.

use exclusion_shmem::dynamic::WordState;
use exclusion_shmem::{
    Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, RmwOp, Value,
};

use crate::peterson::{Peterson, PetersonState};

/// Volatile state of [`RPeterson`]: either running the underlying
/// tournament or healing after a crash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RPetersonState {
    /// Normal operation, delegated to [`Peterson`].
    Run(PetersonState),
    /// Recovery section: lower the own flag at this level, then descend
    /// to the next *exclusively owned* level (skipping shared
    /// node-sides) until none remain, then restart with a fresh `Run`.
    Heal(u8),
}

/// One word: a `Run` state is its [`PetersonState`] word (16 bits); a
/// `Heal` level sets bit 16 above it.
impl WordState for RPetersonState {
    const WORDS: usize = 1;

    fn pack(&self, out: &mut [u64]) {
        match self {
            RPetersonState::Run(s) => s.pack(out),
            RPetersonState::Heal(level) => out[0] = HEAL | u64::from(*level),
        }
    }

    fn unpack(words: &[u64]) -> Self {
        if words[0] & HEAL == 0 {
            RPetersonState::Run(PetersonState::unpack(words))
        } else {
            RPetersonState::Heal(words[0] as u8)
        }
    }
}

/// The tag bit of a packed [`RPetersonState::Heal`].
const HEAL: u64 = 1 << 16;

/// Peterson's tournament with a Golab–Ramaraju-style recovery section.
///
/// A crashed process may have left its flags raised anywhere on its
/// leaf-to-root path — including at the root while logically inside the
/// critical section. Recovery lowers the process's flag at every level
/// whose node-side the process owns **exclusively** (no other process's
/// path passes through it), root first — exactly the exit protocol's
/// order, extended to levels it had not actually claimed, where the
/// write is a no-op. Shared node-sides are deliberately left alone:
/// above the leaves, subtree siblings raise the *same* flag register,
/// and blindly lowering it can strip the protection of a sibling that
/// is inside the critical section (at `n = 3`, an idle process crashing
/// once would otherwise free the root claim of the CS holder — the
/// crash-aware explorer finds that witness immediately). A stale shared
/// flag is instead re-acquired through the ordinary entry protocol,
/// which is safe to re-execute because its first move at every node is
/// to yield the turn; the flag comes down normally on the next
/// completed exit. Lowering only exclusively owned flags never grants
/// anyone else's entry prematurely, so mutual exclusion is preserved
/// under any crash pattern; the `explore` crate certifies this
/// exhaustively for small `n`.
///
/// # Example
///
/// ```
/// use exclusion_mutex::recover::RPeterson;
/// use exclusion_shmem::fault::{run_faulted, FaultPlan};
/// use exclusion_shmem::sched::RoundRobin;
///
/// let alg = RPeterson::new(2);
/// let mut plan = FaultPlan::in_critical(2);
/// let exec = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 100_000).unwrap();
/// assert!(exec.mutual_exclusion(2));
/// assert_eq!(exec.crash_count(), 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RPeterson {
    inner: Peterson,
}

impl RPeterson {
    /// An `n`-process instance.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        RPeterson {
            inner: Peterson::new(n),
        }
    }

    /// Whether `pid` is the only process whose path raises the flag at
    /// `level` — the node-side's flag register is then safe to lower
    /// during recovery without consulting anyone.
    fn exclusive(&self, pid: ProcessId, level: u8) -> bool {
        let reg = self.inner.own_flag(pid, level);
        ProcessId::all(self.processes())
            .filter(|&q| self.inner.own_flag(q, level) == reg)
            .count()
            == 1
    }

    /// The next healing state: the highest exclusively owned level
    /// strictly below `below`, or a fresh run when none remain.
    fn heal_from(&self, pid: ProcessId, below: usize) -> RPetersonState {
        (0..below)
            .rev()
            .find(|&l| self.exclusive(pid, l as u8))
            .map_or_else(
                || RPetersonState::Run(self.inner.initial_state(pid)),
                |l| RPetersonState::Heal(l as u8),
            )
    }
}

impl Automaton for RPeterson {
    type State = RPetersonState;

    fn processes(&self) -> usize {
        self.inner.processes()
    }

    fn registers(&self) -> usize {
        self.inner.registers()
    }

    fn initial_state(&self, pid: ProcessId) -> RPetersonState {
        RPetersonState::Run(self.inner.initial_state(pid))
    }

    fn next_step(&self, pid: ProcessId, state: &RPetersonState) -> NextStep {
        match *state {
            RPetersonState::Run(s) => self.inner.next_step(pid, &s),
            RPetersonState::Heal(level) => NextStep::Write(self.inner.own_flag(pid, level), 0),
        }
    }

    fn observe(&self, pid: ProcessId, state: &RPetersonState, obs: Observation) -> RPetersonState {
        match *state {
            RPetersonState::Run(s) => RPetersonState::Run(self.inner.observe(pid, &s, obs)),
            RPetersonState::Heal(level) => {
                debug_assert_eq!(obs, Observation::Write);
                self.heal_from(pid, level as usize)
            }
        }
    }

    /// Recovery enters the healing pass at the highest exclusively
    /// owned level; with no tree (`n == 1`) there is nothing to heal.
    fn recover_state(&self, pid: ProcessId) -> RPetersonState {
        self.heal_from(pid, self.inner.level_count())
    }

    fn register_name(&self, reg: RegisterId) -> String {
        self.inner.register_name(reg)
    }

    fn name(&self) -> String {
        "rpeterson".to_string()
    }
}

/// Phases shared by the CAS-owner locks below.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum TasPhase {
    Remainder,
    /// `CAS(lock, 0, pid+1)`; spin on failure.
    Acquire,
    Entering,
    Critical,
    /// `lock := 0`.
    Release,
    Resting,
    /// Recovery: read the owner record.
    RecoverCheck,
    /// Recovery: release a lock the record says is ours.
    RecoverFix,
}

/// Volatile state of [`RTas`] and [`BrokenRecover`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RTasState {
    phase: TasPhase,
}

impl RTasState {
    fn at(phase: TasPhase) -> Self {
        RTasState { phase }
    }
}

fn lock_reg() -> RegisterId {
    RegisterId::new(0)
}

fn owner_token(pid: ProcessId) -> Value {
    pid.index() as Value + 1
}

fn tas_next_step(pid: ProcessId, state: &RTasState) -> NextStep {
    match state.phase {
        TasPhase::Remainder => NextStep::Crit(CritKind::Try),
        TasPhase::Acquire => NextStep::Rmw(
            lock_reg(),
            RmwOp::CompareAndSwap {
                expect: 0,
                new: owner_token(pid),
            },
        ),
        TasPhase::Entering => NextStep::Crit(CritKind::Enter),
        TasPhase::Critical => NextStep::Crit(CritKind::Exit),
        TasPhase::Release | TasPhase::RecoverFix => NextStep::Write(lock_reg(), 0),
        TasPhase::Resting => NextStep::Crit(CritKind::Rem),
        TasPhase::RecoverCheck => NextStep::Read(lock_reg()),
    }
}

fn tas_observe(pid: ProcessId, state: &RTasState, obs: Observation) -> RTasState {
    match (state.phase, obs) {
        (TasPhase::Remainder, Observation::Crit) => RTasState::at(TasPhase::Acquire),
        (TasPhase::Acquire, Observation::Rmw(old)) => {
            if old == 0 {
                RTasState::at(TasPhase::Entering)
            } else {
                *state // lost the CAS: spin
            }
        }
        (TasPhase::Entering, Observation::Crit) => RTasState::at(TasPhase::Critical),
        (TasPhase::Critical, Observation::Crit) => RTasState::at(TasPhase::Release),
        (TasPhase::Release | TasPhase::RecoverFix, Observation::Write) => {
            RTasState::at(if state.phase == TasPhase::Release {
                TasPhase::Resting
            } else {
                TasPhase::Remainder
            })
        }
        (TasPhase::Resting, Observation::Crit) => RTasState::at(TasPhase::Remainder),
        (TasPhase::RecoverCheck, Observation::Read(v)) => RTasState::at(if v == owner_token(pid) {
            TasPhase::RecoverFix
        } else {
            TasPhase::Remainder
        }),
        (phase, obs) => unreachable!("rtas: {phase:?} cannot observe {obs:?}"),
    }
}

/// A recoverable test-and-set lock: the lock word records its owner
/// (`0` = free, `p+1` = held by `p`), acquired by `CAS(0, p+1)`.
///
/// Recovery reads the record; if it names the recovering process — it
/// crashed between winning the CAS and completing release — the lock is
/// released, otherwise nothing is touched. The record can only change
/// under the owner's feet by the owner itself, so the read-then-write
/// recovery is race-free: a failed `CAS(0, _)` cannot overwrite `p+1`.
///
/// # Example
///
/// ```
/// use exclusion_mutex::recover::RTas;
/// use exclusion_shmem::fault::{run_faulted, FaultPlan};
/// use exclusion_shmem::sched::RoundRobin;
///
/// let alg = RTas::new(2);
/// let mut plan = FaultPlan::in_critical(2);
/// let exec = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 100_000).unwrap();
/// assert!(exec.mutual_exclusion(2));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RTas {
    n: usize,
}

impl RTas {
    /// An `n`-process instance.
    #[must_use]
    pub fn new(n: usize) -> Self {
        RTas { n }
    }
}

impl Automaton for RTas {
    type State = RTasState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        1
    }

    fn initial_state(&self, _pid: ProcessId) -> RTasState {
        RTasState::at(TasPhase::Remainder)
    }

    fn next_step(&self, pid: ProcessId, state: &RTasState) -> NextStep {
        tas_next_step(pid, state)
    }

    fn observe(&self, pid: ProcessId, state: &RTasState, obs: Observation) -> RTasState {
        tas_observe(pid, state, obs)
    }

    /// Recovery inspects the owner record before touching anything.
    fn recover_state(&self, _pid: ProcessId) -> RTasState {
        RTasState::at(TasPhase::RecoverCheck)
    }

    fn register_name(&self, _reg: RegisterId) -> String {
        "lock".to_string()
    }

    fn name(&self) -> String {
        "rtas".to_string()
    }
}

/// The planted-bug twin of [`RTas`]: recovery skips the owner check and
/// frees the lock unconditionally.
///
/// Crash-free the two locks are step-for-step identical, so every
/// crash-free check passes. But when a process crashes while *another*
/// process holds the lock, its recovery writes `0` over the owner
/// record and the next `CAS(0, _)` succeeds — two processes in the
/// critical section with a single crash at `n = 2`. The `explore`
/// crate's recoverability certification must catch exactly this and
/// produce a replayable crash witness.
#[derive(Clone, Copy, Debug)]
pub struct BrokenRecover {
    n: usize,
}

impl BrokenRecover {
    /// An `n`-process instance.
    #[must_use]
    pub fn new(n: usize) -> Self {
        BrokenRecover { n }
    }
}

impl Automaton for BrokenRecover {
    type State = RTasState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        1
    }

    fn initial_state(&self, _pid: ProcessId) -> RTasState {
        RTasState::at(TasPhase::Remainder)
    }

    fn next_step(&self, pid: ProcessId, state: &RTasState) -> NextStep {
        tas_next_step(pid, state)
    }

    fn observe(&self, pid: ProcessId, state: &RTasState, obs: Observation) -> RTasState {
        tas_observe(pid, state, obs)
    }

    /// The bug: "the lock must have been mine" — straight to the fix.
    fn recover_state(&self, _pid: ProcessId) -> RTasState {
        RTasState::at(TasPhase::RecoverFix)
    }

    fn register_name(&self, _reg: RegisterId) -> String {
        "lock".to_string()
    }

    fn name(&self) -> String {
        "broken-recover".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::fault::{run_faulted, FaultPlan};
    use exclusion_shmem::sched::{run_random, run_round_robin, GreedyAdversary, RoundRobin};
    use exclusion_shmem::Step;

    #[test]
    fn crash_free_runs_are_correct_locks() {
        for n in [1, 2, 3, 4] {
            let exec = run_round_robin(&RPeterson::new(n), 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n), "rpeterson n = {n}");
            let exec = run_round_robin(&RTas::new(n), 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n), "rtas n = {n}");
            let exec = run_round_robin(&BrokenRecover::new(n), 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n), "broken-recover n = {n}");
        }
    }

    #[test]
    fn recoverable_locks_survive_adversarial_crashes() {
        for n in [2, 3] {
            for seed in 0..20 {
                let mut plan = FaultPlan::random(seed, 3);
                let exec = run_faulted(
                    &RPeterson::new(n),
                    &mut RoundRobin::new(),
                    &mut plan,
                    2,
                    200_000,
                )
                .unwrap();
                assert!(exec.mutual_exclusion(n), "rpeterson n = {n} seed = {seed}");
                assert!(exec.well_formed(n), "rpeterson n = {n} seed = {seed}");

                let mut plan = FaultPlan::random(seed, 3);
                let exec =
                    run_faulted(&RTas::new(n), &mut RoundRobin::new(), &mut plan, 2, 200_000)
                        .unwrap();
                assert!(exec.mutual_exclusion(n), "rtas n = {n} seed = {seed}");
                assert!(exec.well_formed(n), "rtas n = {n} seed = {seed}");
            }
        }
    }

    #[test]
    fn crashes_in_the_cs_release_and_make_progress() {
        // Crash the CS holder twice; the run must still complete all
        // passages (a crashed owner that never released would wedge it).
        for seed in 0..10 {
            let mut plan = FaultPlan::in_critical(2);
            let alg = RTas::new(3);
            let exec = run_faulted(
                &alg,
                &mut exclusion_shmem::sched::Random::new(seed),
                &mut plan,
                2,
                500_000,
            )
            .unwrap();
            assert_eq!(exec.crash_count(), 2, "seed = {seed}");
            assert!(exec.mutual_exclusion(3), "seed = {seed}");
        }
    }

    #[test]
    fn broken_recover_leaks_the_cs_after_one_crash() {
        // Hand-built n = 2 scenario: p1 holds the lock inside its CS,
        // p0 crashes while spinning, recovers by freeing p1's lock, and
        // walks into the critical section alongside p1.
        let alg = BrokenRecover::new(2);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        let mut sys = exclusion_shmem::System::new(&alg);
        let mut steps = Vec::new();
        let schedule = [p1, p1, p1, p0, p0]; // p1: try, CAS, enter; p0: try, losing CAS
        for pid in schedule {
            steps.push(sys.step(pid).step);
        }
        steps.push(sys.crash(p0).step);
        // p0: recovery write lock := 0 (the bug), try, CAS on the
        // leaked lock, enter — joining p1 in the CS.
        for _ in 0..4 {
            steps.push(sys.step(p0).step);
        }
        let exec = exclusion_shmem::Execution::from_steps(steps.clone());
        assert!(!exec.mutual_exclusion(2), "{steps:?}");
        // The same schedule is safe for the honest twin.
        let alg = RTas::new(2);
        let mut sys = exclusion_shmem::System::new(&alg);
        let mut ok = Vec::new();
        for s in &steps {
            // Replay pid-wise: RTas recovery takes an extra read, so
            // drive by pid rather than expecting identical steps.
            let done = if matches!(s, Step::Crash { .. }) {
                sys.crash(s.pid())
            } else {
                sys.step(s.pid())
            };
            ok.push(done.step);
        }
        let exec = exclusion_shmem::Execution::from_steps(ok);
        assert!(exec.mutual_exclusion(2));
    }

    #[test]
    fn rpeterson_heals_exactly_its_exclusive_flags_after_a_cs_crash() {
        let alg = RPeterson::new(4); // two levels; only the leaf is exclusive
        let mut plan = FaultPlan::in_critical(1);
        let exec = run_faulted(&alg, &mut GreedyAdversary::new(), &mut plan, 2, 500_000).unwrap();
        assert_eq!(exec.crash_count(), 1);
        assert!(exec.mutual_exclusion(4));
        // After the crash the victim writes 0 to its leaf flag — and
        // *only* the leaf flag: at n = 4 every root side is shared with
        // a subtree sibling, so healing must leave it alone.
        let crash_at = exec
            .steps()
            .iter()
            .position(|s| matches!(s, Step::Crash { .. }))
            .unwrap();
        let victim = exec.steps()[crash_at].pid();
        let heals: Vec<_> = exec.steps()[crash_at + 1..]
            .iter()
            .filter(|s| s.pid() == victim)
            .take_while(|s| matches!(s, Step::Write { value: 0, .. }))
            .collect();
        assert_eq!(heals.len(), 1, "one heal write, leaf level only");
    }

    /// The regression the crash-aware explorer found at `n = 3`: p0
    /// enters the CS through the shared root side, p2 climbs the other
    /// side and spins on p0's root flag, and then the *idle* p1 — whose
    /// path shares p0's root side — crashes. A recovery that blindly
    /// lowered every own-path flag would write 0 over p0's root claim
    /// and wave p2 straight into the CS beside p0. Healing only
    /// exclusive flags leaves the shared root side untouched.
    #[test]
    fn idle_sibling_crash_cannot_strip_a_cs_holder_at_n_3() {
        let alg = RPeterson::new(3);
        let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
        let mut sys = exclusion_shmem::System::new(&alg);
        let mut steps = Vec::new();
        // p0: full uncontended entry (try … enter).
        while !sys.in_critical().any(|p| p == p0) {
            steps.push(sys.step(p0).step);
        }
        // p2: climb to the root and block on p0.
        for _ in 0..6 {
            steps.push(sys.step(p2).step);
        }
        steps.push(sys.crash(p1).step);
        // p1's whole recovery section plus a fresh try, then p2 probing
        // the root again: nobody may join p0.
        for _ in 0..4 {
            steps.push(sys.step(p1).step);
        }
        for _ in 0..4 {
            steps.push(sys.step(p2).step);
        }
        let exec = exclusion_shmem::Execution::from_steps(steps);
        assert!(exec.mutual_exclusion(3));
        assert_eq!(sys.in_critical().collect::<Vec<_>>(), vec![p0]);
    }

    #[test]
    fn random_crashes_never_break_the_honest_locks_under_random_scheds() {
        for seed in 0..10u64 {
            for n in [2, 3] {
                let mut plan = FaultPlan::random(seed.wrapping_mul(31), 4);
                let exec = run_faulted(
                    &RPeterson::new(n),
                    &mut exclusion_shmem::sched::Random::new(seed),
                    &mut plan,
                    1,
                    500_000,
                )
                .unwrap();
                assert!(exec.mutual_exclusion(n), "n = {n} seed = {seed}");
            }
        }
        // Keep parity with the crash-free property: faulted executions
        // replay deterministically through the unfaulted random driver's
        // seed space too.
        let exec = run_random(&RTas::new(2), 1, 100_000, 7).unwrap();
        assert!(exec.mutual_exclusion(2));
    }
}
