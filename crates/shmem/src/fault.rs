//! Deterministic crash injection: [`FaultPlan`]s and the faulted
//! scheduler driver.
//!
//! The Golab–Ramaraju recoverable-mutex model extends the paper's
//! failure-free setting with *crashes*: a crashed process loses its
//! volatile state (wiped to [`Automaton::recover_state`]) and its
//! section resets to the remainder section, while shared registers
//! persist. This module injects those crashes into otherwise unchanged
//! runs:
//!
//! * [`FaultPlan`] — a deterministic, seedable description of *when*
//!   crashes happen: at fixed step indices, whenever a victim is inside
//!   its critical section (the adversarially interesting case), or
//!   pseudo-randomly from a seed — each limited by a total crash budget
//!   and an optional per-process cap;
//! * [`run_faulted_with`] / [`run_faulted`] — the faulted twin of
//!   [`run_scheduler_with`](crate::sched::run_scheduler_with): the plan
//!   is polled *before* the scheduler at every step index, so **every
//!   existing scheduler composes with faults unchanged** — a crash
//!   consumes a step index and the scheduler is simply never consulted
//!   at it;
//! * [`faulted_script`] — the bridge back to replayability: from a
//!   recorded step sequence (which includes [`Step::Crash`] entries),
//!   reconstruct the [`Script`] + [`FaultPlan`] pair that reproduces
//!   the run bit-identically through the faulted driver — witnesses
//!   with crashes replay exactly like witnesses without.
//!
//! Faulted runs emit [`TraceEvent::Crash`] at each injection and
//! [`TraceEvent::Recover`] when the crashed process takes its first
//! post-crash step, so trace equality extends to crashed runs.
//!
//! # Example
//!
//! ```
//! use exclusion_shmem::fault::{run_faulted, FaultPlan};
//! use exclusion_shmem::sched::RoundRobin;
//! use exclusion_shmem::testing::Alternator;
//!
//! let alg = Alternator::new(2);
//! // Crash whichever process is inside its CS, at most twice.
//! let mut plan = FaultPlan::in_critical(2);
//! let exec = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 10_000).unwrap();
//! assert_eq!(exec.crash_count(), 2);
//! assert!(exec.mutual_exclusion(2));
//! ```

use crate::automaton::Automaton;
use crate::error::RunError;
use crate::execution::Execution;
use crate::ids::ProcessId;
use crate::probe::{NoProbe, Probe, TraceEvent};
use crate::sched::{ProcessView, SchedContext, Scheduler, Script, ViewTable};
use crate::step::Step;
use crate::system::{Section, System};

/// SplitMix64 — the same tiny generator the adaptive adversary seeds
/// its tie-breaks with; good enough to decorrelate crash times from
/// schedules.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Debug)]
enum Mode {
    /// Never crashes anything.
    None,
    /// Crashes exactly the listed `(step, victim)` pairs, in step order.
    AtSteps(Vec<(usize, ProcessId)>),
    /// Crashes a process the moment it is inside its critical section
    /// (lowest pid first when several are).
    InCritical,
    /// Seeded pseudo-random crashes: roughly one crash opportunity
    /// every `gap` steps, victim drawn from the live processes.
    Random { seed: u64, gap: u64 },
}

/// A deterministic description of when processes crash.
///
/// Plans follow the drivers' per-run reset convention: a poll at step
/// `0` starts a fresh run (budgets and cursors reset), so one plan can
/// be reused across runs and replays deterministically. Same plan +
/// same scheduler + same algorithm ⇒ the same faulted run, always.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    mode: Mode,
    /// Total crashes this plan may inject per run.
    budget: usize,
    /// Per-process cap (≤ budget); `usize::MAX` when uncapped.
    per_process: usize,
    /// Crashes injected so far this run.
    used: usize,
    /// Per-process crashes injected so far this run.
    used_by: Vec<usize>,
    /// Cursor into the `AtSteps` list / RNG state for `Random`.
    cursor: usize,
    state: u64,
}

impl FaultPlan {
    fn with_mode(mode: Mode, budget: usize) -> Self {
        FaultPlan {
            mode,
            budget,
            per_process: usize::MAX,
            used: 0,
            used_by: Vec::new(),
            cursor: 0,
            state: 0,
        }
    }

    /// A plan that never crashes anything — the faulted driver with
    /// this plan behaves bit-identically to the unfaulted one.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::with_mode(Mode::None, 0)
    }

    /// Crashes exactly the given `(step index, victim)` pairs. The list
    /// is sorted by step index; duplicate step indices keep the first
    /// entry. This is the replay mode [`faulted_script`] reconstructs.
    #[must_use]
    pub fn at_steps(mut crashes: Vec<(usize, ProcessId)>) -> Self {
        crashes.sort_by_key(|&(step, _)| step);
        crashes.dedup_by_key(|&mut (step, _)| step);
        let budget = crashes.len();
        FaultPlan::with_mode(Mode::AtSteps(crashes), budget)
    }

    /// Crashes a process the moment it is inside its critical section —
    /// the adversarially interesting schedule for recoverable locks
    /// (stale ownership is left in shared registers) — up to `budget`
    /// crashes per run. When several processes are in the CS at once
    /// (a broken lock), the lowest pid crashes first.
    #[must_use]
    pub fn in_critical(budget: usize) -> Self {
        FaultPlan::with_mode(Mode::InCritical, budget)
    }

    /// Seeded pseudo-random crashes: roughly one crash opportunity
    /// every 8 steps, victim drawn deterministically from the live
    /// processes, up to `budget` crashes per run.
    #[must_use]
    pub fn random(seed: u64, budget: usize) -> Self {
        FaultPlan::with_mode(Mode::Random { seed, gap: 8 }, budget)
    }

    /// Caps how many times any single process may crash per run
    /// (builder style). The Golab–Ramaraju "crash budgets per process".
    #[must_use]
    pub fn with_per_process(mut self, cap: usize) -> Self {
        self.per_process = cap;
        self
    }

    /// The total crash budget of this plan.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Crashes injected so far in the current run.
    #[must_use]
    pub fn crashes(&self) -> usize {
        self.used
    }

    fn reset(&mut self, n: usize) {
        self.used = 0;
        self.used_by.clear();
        self.used_by.resize(n, 0);
        self.cursor = 0;
        self.state = match self.mode {
            Mode::Random { seed, .. } => mix(seed),
            _ => 0,
        };
    }

    fn may_crash(&self, victim: ProcessId) -> bool {
        self.used < self.budget && self.used_by[victim.index()] < self.per_process
    }

    fn charge(&mut self, victim: ProcessId) -> Option<ProcessId> {
        self.used += 1;
        self.used_by[victim.index()] += 1;
        Some(victim)
    }

    /// Which process (if any) crashes at step index `step`, given the
    /// current per-process views. The driver polls this *before* asking
    /// the scheduler; a `Some` consumes the step index. A poll at step
    /// `0` resets the plan for a fresh run.
    pub fn next_fault(&mut self, step: usize, views: &[ProcessView]) -> Option<ProcessId> {
        if step == 0 {
            self.reset(views.len());
        }
        match &self.mode {
            Mode::None => None,
            Mode::AtSteps(crashes) => {
                let &(at, victim) = crashes.get(self.cursor)?;
                if at != step || victim.index() >= views.len() {
                    return None;
                }
                self.cursor += 1;
                if !self.may_crash(victim) {
                    return None;
                }
                self.charge(victim)
            }
            Mode::InCritical => {
                let victim = views
                    .iter()
                    .find(|v| v.section == Section::Critical && self.may_crash(v.pid))?
                    .pid;
                self.charge(victim)
            }
            Mode::Random { gap, .. } => {
                let gap = *gap;
                self.state = mix(self.state);
                let z = self.state;
                if !z.is_multiple_of(gap) {
                    return None;
                }
                // Draw among processes that are up (not done) and may
                // still crash; skip the opportunity when none qualify.
                let candidates: Vec<ProcessId> = views
                    .iter()
                    .filter(|v| !v.done && self.may_crash(v.pid))
                    .map(|v| v.pid)
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let victim = candidates[(z / gap) as usize % candidates.len()];
                self.charge(victim)
            }
        }
    }
}

/// Drives `sched` over a fresh system of `alg` with crashes injected by
/// `plan`, invoking `sink` with every [`Executed`](crate::Executed)
/// outcome (crash steps included) and emitting
/// [`TraceEvent::Crash`]/[`TraceEvent::Recover`] into `probe`. Returns
/// the number of steps executed (crashes count as steps).
///
/// The plan is polled before the scheduler at every step index; when it
/// names a victim, the crash consumes that index and the scheduler is
/// not consulted. With [`FaultPlan::none`] this is bit-identical to
/// [`run_scheduler_with`](crate::sched::run_scheduler_with).
///
/// # Errors
///
/// Returns [`RunError`] if the run does not complete within `max_steps`.
pub fn run_faulted_with<A, S, P, F>(
    alg: &A,
    sched: &mut S,
    plan: &mut FaultPlan,
    passages: usize,
    max_steps: usize,
    probe: &mut P,
    mut sink: F,
) -> Result<usize, RunError>
where
    A: Automaton,
    S: Scheduler + ?Sized,
    P: Probe,
    F: FnMut(&crate::system::Executed),
{
    let n = alg.processes();
    let mut sys = System::new(alg);
    let mut table = ViewTable::new(&sys, passages, sched.wants_step_previews());
    let mut executed = 0usize;
    let mut crashed = vec![false; n];
    for step in 0..=max_steps {
        if let Some(victim) = plan.next_fault(step, table.views()) {
            if step == max_steps {
                break;
            }
            let done = sys.crash(victim);
            table.apply(&sys, &done);
            crashed[victim.index()] = true;
            if probe.enabled() {
                probe.record(&TraceEvent::Crash {
                    index: step,
                    pid: victim,
                });
            }
            sink(&done);
            executed += 1;
            continue;
        }
        let ctx = SchedContext {
            step,
            target_passages: passages,
            views: table.views(),
        };
        match sched.pick(&ctx) {
            None => return Ok(executed),
            Some(p) if step < max_steps => {
                debug_assert!(
                    !table.views()[p.index()].done,
                    "{} picked finished process {p}",
                    sched.name()
                );
                if crashed[p.index()] {
                    crashed[p.index()] = false;
                    if probe.enabled() {
                        probe.record(&TraceEvent::Recover {
                            index: step,
                            pid: p,
                        });
                    }
                }
                sink(&table.step(&mut sys, p));
                executed += 1;
            }
            Some(_) => break,
        }
    }
    let completed = table.views().iter().filter(|v| v.done).count();
    Err(RunError {
        limit: max_steps,
        completed,
        processes: n,
    })
}

/// Drives `sched` with crashes from `plan`, recording the execution
/// (crash steps included).
///
/// # Errors
///
/// Returns [`RunError`] if the run does not complete within `max_steps`.
pub fn run_faulted<A, S>(
    alg: &A,
    sched: &mut S,
    plan: &mut FaultPlan,
    passages: usize,
    max_steps: usize,
) -> Result<Execution, RunError>
where
    A: Automaton,
    S: Scheduler + ?Sized,
{
    let mut exec = Execution::new();
    run_faulted_with(alg, sched, plan, passages, max_steps, &mut NoProbe, |d| {
        exec.push(d.step)
    })?;
    Ok(exec)
}

/// Reconstructs the `(Script, FaultPlan)` pair that replays a recorded
/// (possibly crashed) step sequence bit-identically through
/// [`run_faulted_with`]: crash entries become
/// [`FaultPlan::at_steps`] injections at their original indices, and
/// every index (crash or not) carries its acting pid in the script —
/// the driver never consults the script at crash indices, so the
/// placeholder is inert.
///
/// This is what makes crash witnesses replayable artifacts: record
/// once, reconstruct, and re-run anywhere.
#[must_use]
pub fn faulted_script(steps: &[Step]) -> (Script, FaultPlan) {
    let picks = steps.iter().map(Step::pid).collect();
    let crashes = steps
        .iter()
        .enumerate()
        .filter(|&(_, s)| matches!(s, Step::Crash { .. }))
        .map(|(i, s)| (i, s.pid()))
        .collect();
    (Script::new(picks), FaultPlan::at_steps(crashes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run_scheduler, GreedyAdversary, RoundRobin, Traced};
    use crate::testing::Alternator;

    #[test]
    fn none_plan_is_bit_identical_to_the_unfaulted_driver() {
        let alg = Alternator::new(3);
        let unfaulted = run_scheduler(&alg, &mut RoundRobin::new(), 2, 100_000).unwrap();
        let mut plan = FaultPlan::none();
        let faulted = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 2, 100_000).unwrap();
        assert_eq!(unfaulted, faulted);
        assert_eq!(plan.crashes(), 0);
    }

    #[test]
    fn at_steps_crashes_exactly_where_told() {
        let alg = Alternator::new(2);
        let p0 = ProcessId::new(0);
        let mut plan = FaultPlan::at_steps(vec![(3, p0)]);
        let exec = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 10_000).unwrap();
        assert_eq!(exec.steps()[3], Step::crash(p0));
        assert_eq!(exec.crash_count(), 1);
        assert!(exec.well_formed(2));
        assert!(exec.mutual_exclusion(2));
    }

    #[test]
    fn in_critical_crashes_inside_the_cs_and_respects_the_budget() {
        let alg = Alternator::new(2);
        let mut plan = FaultPlan::in_critical(2);
        let exec = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 100_000).unwrap();
        assert_eq!(plan.crashes(), 2);
        assert_eq!(exec.crash_count(), 2);
        // Every crash lands on a process that had entered but not exited.
        let steps = exec.steps();
        for (i, s) in steps.iter().enumerate() {
            if let Step::Crash { pid } = s {
                let before = Execution::from_steps(steps[..i].to_vec());
                assert!(before.well_formed(2));
                // Simulate sections up to the crash: the victim is critical.
                let mut sect = [Section::Remainder; 2];
                for t in &steps[..i] {
                    if t.step_type() == crate::step::StepType::Crash {
                        sect[t.pid().index()] = Section::Remainder;
                    } else if let Some(k) = t.crit_kind() {
                        sect[t.pid().index()] = sect[t.pid().index()].after(k).unwrap();
                    }
                }
                assert_eq!(sect[pid.index()], Section::Critical);
            }
        }
        assert!(exec.mutual_exclusion(2));
    }

    #[test]
    fn per_process_caps_bound_each_victim() {
        let alg = Alternator::new(2);
        let mut plan = FaultPlan::in_critical(4).with_per_process(1);
        let exec = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 100_000).unwrap();
        for p in 0..2 {
            let mine = exec
                .steps()
                .iter()
                .filter(|s| matches!(s, Step::Crash { pid } if pid.index() == p))
                .count();
            assert!(mine <= 1, "process {p} crashed {mine} times");
        }
    }

    #[test]
    fn random_plans_are_deterministic_and_seed_sensitive() {
        let alg = Alternator::new(3);
        let run = |seed: u64| {
            let mut plan = FaultPlan::random(seed, 2);
            run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 100_000).unwrap()
        };
        assert_eq!(run(7), run(7), "same seed must reproduce the run");
        // A reused plan resets at step 0 and replays identically.
        let mut plan = FaultPlan::random(7, 2);
        let a = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 100_000).unwrap();
        let b = run_faulted(&alg, &mut RoundRobin::new(), &mut plan, 1, 100_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_script_replays_bit_identically() {
        let alg = Alternator::new(3);
        let mut plan = FaultPlan::in_critical(2);
        let mut traced = Traced::new(GreedyAdversary::new());
        let mut exec = Execution::new();
        run_faulted_with(
            &alg,
            &mut traced,
            &mut plan,
            1,
            100_000,
            &mut NoProbe,
            |d| exec.push(d.step),
        )
        .unwrap();
        assert_eq!(exec.crash_count(), 2);
        let (mut script, mut replan) = faulted_script(exec.steps());
        let replayed = run_faulted(&alg, &mut script, &mut replan, 1, 100_000).unwrap();
        assert_eq!(replayed, exec, "witness replay must be bit-identical");
        // And the recorded steps also replay through execute_expected.
        let outcomes = crate::replay::replay_collect(&alg, exec.steps()).unwrap();
        assert_eq!(outcomes.len(), exec.len());
    }

    #[test]
    fn crash_and_recover_events_are_emitted() {
        struct Collect(Vec<TraceEvent>);
        impl Probe for Collect {
            fn record(&mut self, ev: &TraceEvent) {
                self.0.push(*ev);
            }
        }
        let alg = Alternator::new(2);
        let mut plan = FaultPlan::in_critical(1);
        let mut probe = Collect(Vec::new());
        let mut steps = Vec::new();
        run_faulted_with(
            &alg,
            &mut RoundRobin::new(),
            &mut plan,
            1,
            100_000,
            &mut probe,
            |d| steps.push(d.step),
        )
        .unwrap();
        let crashes: Vec<_> = probe
            .0
            .iter()
            .filter(|e| matches!(e, TraceEvent::Crash { .. }))
            .collect();
        let recovers: Vec<_> = probe
            .0
            .iter()
            .filter(|e| matches!(e, TraceEvent::Recover { .. }))
            .collect();
        assert_eq!(crashes.len(), 1);
        assert_eq!(recovers.len(), 1);
        let TraceEvent::Crash { index: ci, pid: cp } = crashes[0] else {
            unreachable!()
        };
        let TraceEvent::Recover { index: ri, pid: rp } = recovers[0] else {
            unreachable!()
        };
        assert_eq!(steps[*ci], Step::crash(*cp));
        assert!(ri > ci, "recovery follows the crash");
        assert_eq!(cp, rp);
        assert_eq!(steps[*ri].pid(), *rp);
    }
}
