//! The deterministic process-automaton trait.
//!
//! The paper models each process as a deterministic automaton with a state
//! set, an initial state, and a transition function δ that computes the
//! next step from the current state. We split δ into two pure functions:
//!
//! * [`Automaton::next_step`] — which step the process performs next, as a
//!   function of its current state only;
//! * [`Automaton::observe`] — the state reached after performing that step
//!   and seeing its observable outcome (for a read, the value read).
//!
//! The split is what makes the *state change* cost model (paper §3.3) and
//! the `SC(α, m, i)` predicate of Figure 1 directly computable: a step is
//! charged exactly when `observe` returns a state different from its input.

use crate::ids::{ProcessId, RegisterId, Value};
use crate::step::CritKind;
use crate::symmetry::Perm;

/// A read-modify-write operation on a register, performed atomically.
///
/// The paper's model — and its lower bound — is for plain registers;
/// RMW operations are provided for the *simulator* so that the
/// stronger-primitive algorithms the paper's related work discusses
/// (queue locks, test-and-set) can be compared under the same cost
/// models. The lower-bound construction rejects them explicitly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RmwOp {
    /// Replace the value, returning the old one.
    Swap(Value),
    /// If the value equals `expect`, replace it with `new`; returns the
    /// old value either way.
    CompareAndSwap {
        /// Value the register must currently hold.
        expect: Value,
        /// Replacement written on success.
        new: Value,
    },
    /// Add to the value (wrapping), returning the old one.
    FetchAdd(Value),
}

impl RmwOp {
    /// The value the register holds after applying this operation to
    /// `old`.
    #[must_use]
    pub fn apply(self, old: Value) -> Value {
        match self {
            RmwOp::Swap(v) => v,
            RmwOp::CompareAndSwap { expect, new } => {
                if old == expect {
                    new
                } else {
                    old
                }
            }
            RmwOp::FetchAdd(d) => old.wrapping_add(d),
        }
    }
}

/// The step a process wants to perform next, as computed by δ from its
/// current state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NextStep {
    /// Read the given register.
    Read(RegisterId),
    /// Write the given value to the given register.
    Write(RegisterId, Value),
    /// Atomically read-modify-write the given register (simulator
    /// extension; not part of the paper's register-only model).
    Rmw(RegisterId, RmwOp),
    /// Perform a critical step.
    Crit(CritKind),
}

/// The observable outcome of performing a step, fed back into the state
/// via [`Automaton::observe`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Observation {
    /// A read returned this value.
    Read(Value),
    /// A write completed (writes return nothing).
    Write,
    /// A read-modify-write returned this **old** value.
    Rmw(Value),
    /// A critical step completed.
    Crit,
}

/// A deterministic process automaton over shared registers — one mutual
/// exclusion algorithm for a fixed number of processes.
///
/// Implementations must be *deterministic*: `next_step` and `observe` must
/// be pure functions of their arguments. They must also be *well formed*:
/// the critical steps requested by each process must follow the cycle
/// `try → enter → exit → rem → try → …`, starting with `try` (the paper
/// assumes the initial step of each process is `try_i`; implementations
/// whose protocol performs shared-memory steps before `try` would be
/// charged for them all the same, so we require `try` first and
/// [`System`](crate::system::System) enforces it).
///
/// States must implement `Eq` + `Hash`: equality defines the state-change
/// cost model, hashing lets state-space exploration deduplicate states.
///
/// # Example
///
/// A single process that writes a register, enters, and leaves:
///
/// ```
/// use exclusion_shmem::{Automaton, CritKind, NextStep, Observation,
///                       ProcessId, RegisterId, Value};
///
/// struct OneShot;
///
/// impl Automaton for OneShot {
///     type State = u8;
///     fn processes(&self) -> usize { 1 }
///     fn registers(&self) -> usize { 1 }
///     fn initial_state(&self, _p: ProcessId) -> u8 { 0 }
///     fn next_step(&self, _p: ProcessId, s: &u8) -> NextStep {
///         match s {
///             0 => NextStep::Crit(CritKind::Try),
///             1 => NextStep::Write(RegisterId::new(0), 1),
///             2 => NextStep::Crit(CritKind::Enter),
///             3 => NextStep::Crit(CritKind::Exit),
///             _ => NextStep::Crit(CritKind::Rem),
///         }
///     }
///     fn observe(&self, _p: ProcessId, s: &u8, _o: Observation) -> u8 {
///         if *s >= 4 { 0 } else { s + 1 }
///     }
/// }
/// ```
pub trait Automaton {
    /// A process's local state. Equality is the state-change criterion of
    /// the SC cost model; two states compare equal exactly when the
    /// process would behave identically from them onward.
    type State: Clone + Eq + std::hash::Hash + std::fmt::Debug;

    /// Number of processes `n` this instance is configured for.
    fn processes(&self) -> usize;

    /// Number of shared registers the algorithm uses.
    fn registers(&self) -> usize;

    /// Initial value of register `reg`. Defaults to `0`.
    fn initial_value(&self, reg: RegisterId) -> Value {
        let _ = reg;
        0
    }

    /// Initial state of process `pid`.
    fn initial_state(&self, pid: ProcessId) -> Self::State;

    /// The transition function δ: which step `pid` performs from `state`.
    fn next_step(&self, pid: ProcessId, state: &Self::State) -> NextStep;

    /// The state `pid` reaches after performing the step computed by
    /// [`next_step`](Automaton::next_step) and observing `obs`.
    ///
    /// For the SC cost model to be meaningful the result must equal
    /// `state` exactly when the process has learned nothing — e.g. a
    /// busy-wait read that sees the value it was already spinning on.
    fn observe(&self, pid: ProcessId, state: &Self::State, obs: Observation) -> Self::State;

    /// Applies [`observe`](Automaton::observe) to `state` in place and
    /// reports whether it changed — the SC predicate of the paper's
    /// Figure 1 as a side effect of the transition itself.
    ///
    /// This is the driver's hot path ([`System::step`](crate::System::step)
    /// goes through it). The default computes `observe` and compares;
    /// erased automata ([`DynRef`](crate::dynamic::DynRef)) override it
    /// to update their boxed state without allocating a replacement.
    fn observe_in_place(&self, pid: ProcessId, state: &mut Self::State, obs: Observation) -> bool {
        let next = self.observe(pid, state, obs);
        if next == *state {
            false
        } else {
            *state = next;
            true
        }
    }

    /// Whether observing `obs` from `state` would change it, without
    /// committing the transition — the non-mutating preview behind
    /// [`System::step_changes_state`](crate::System::step_changes_state)
    /// that cost-aware schedulers poll every step.
    fn observe_changes(&self, pid: ProcessId, state: &Self::State, obs: Observation) -> bool {
        self.observe(pid, state, obs) != *state
    }

    /// The state `pid` restarts from after a crash (Golab–Ramaraju
    /// recoverable-mutex model).
    ///
    /// # Contract
    ///
    /// A crash wipes the process's *volatile* state; shared registers
    /// persist. The returned state is the entry point of the recovery
    /// section: it must be reachable-from-remainder in the sense that its
    /// first critical step is `try` (the driver resets the crashed
    /// process's section to the remainder section, so a recovering
    /// process re-announces itself with `try` before touching shared
    /// memory — recovery reads/writes that repair persistent registers
    /// come after that `try`).
    ///
    /// The default returns [`initial_state`](Automaton::initial_state):
    /// correct for algorithms whose recovery is "start over", which is
    /// safe only if the algorithm leaves no stale ownership in shared
    /// registers. Recoverable algorithms override this to enter a
    /// recovery section that inspects persistent registers and repairs
    /// them. Like the rest of δ, it must be deterministic.
    fn recover_state(&self, pid: ProcessId) -> Self::State {
        self.initial_state(pid)
    }

    /// Home process of a register in the distributed-shared-memory cost
    /// model, or `None` if the register is remote to every process.
    ///
    /// The DSM model charges a process for accessing registers that are
    /// not local to it; algorithms designed for DSM (flag arrays, spin
    /// variables) override this to declare their layout.
    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        let _ = reg;
        None
    }

    /// Human-readable name of a register, for traces and debugging.
    fn register_name(&self, reg: RegisterId) -> String {
        format!("r{}", reg.index())
    }

    /// A short name for the algorithm, used in reports and tables.
    fn name(&self) -> String {
        std::any::type_name::<Self>()
            .rsplit("::")
            .next()
            .unwrap_or("automaton")
            .to_string()
    }

    /// Declares that this algorithm is **fully symmetric** under
    /// process permutation, enabling orbit canonicalization in the
    /// explorer. Defaults to `false` (identity-only canonicalization,
    /// always sound).
    ///
    /// # Contract
    ///
    /// Returning `true` asserts that for *every* permutation π of the
    /// process indices, relabelling a system configuration — moving
    /// process `i`'s state, section, and passage count to slot `π(i)`
    /// and rewriting each register value via
    /// [`permute_register_value`](Automaton::permute_register_value) —
    /// is an automorphism of the transition system: process `i`'s step
    /// from the original configuration corresponds exactly to process
    /// `π(i)`'s step from the relabelled one. Concretely this requires:
    ///
    /// * [`initial_state`](Automaton::initial_state) and
    ///   [`recover_state`](Automaton::recover_state) do not depend on
    ///   the process id (or depend on it only through content that
    ///   [`permute_state`](Automaton::permute_state) rewrites);
    /// * [`next_step`](Automaton::next_step) and
    ///   [`observe`](Automaton::observe) use their `pid` argument
    ///   *covariantly* only — writing the process's own id into
    ///   registers and comparing read values against it are fine;
    ///   numeric comparisons between ids, id-indexed register banks,
    ///   and id-ordered scans are not;
    /// * register indices are global (the same register means the same
    ///   thing to every process) and every way a register value can
    ///   encode a process id is declared via
    ///   [`pid_in_value`](Automaton::pid_in_value).
    ///
    /// Ordered scans (`filter`, `dijkstra`, `bakery`'s id tie-break)
    /// and fixed tournament wirings (`peterson`, `dekker-tree`) break
    /// this contract and must keep the default.
    fn symmetric(&self) -> bool {
        false
    }

    /// Relabels any process ids *inside* a local state under `perm`.
    /// The default clones unchanged — correct whenever states never
    /// store process ids (the common case for symmetric algorithms).
    ///
    /// Only meaningful when [`symmetric`](Automaton::symmetric) is
    /// `true`; must be a bijection satisfying
    /// `permute_state(permute_state(s, π), π⁻¹) == s`.
    fn permute_state(&self, state: &Self::State, perm: &Perm) -> Self::State {
        let _ = perm;
        state.clone()
    }

    /// Rewrites a register value under `perm`, relabelling any process
    /// id the value encodes. The default returns the value unchanged —
    /// correct whenever register values never encode process ids.
    ///
    /// Only meaningful when [`symmetric`](Automaton::symmetric) is
    /// `true`; must agree with [`pid_in_value`](Automaton::pid_in_value):
    /// if `pid_in_value(reg, v) == Some(p)` then
    /// `pid_in_value(reg, permute_register_value(reg, v, π)) == Some(π(p))`.
    fn permute_register_value(&self, reg: RegisterId, value: Value, perm: &Perm) -> Value {
        let _ = (reg, perm);
        value
    }

    /// Which process id (if any) the value currently held by `reg`
    /// encodes. Drives the canonical tie-break: processes whose local
    /// data is identical are ordered by the first register mentioning
    /// them. The default, `None`, is correct whenever register values
    /// never encode process ids.
    fn pid_in_value(&self, reg: RegisterId, value: Value) -> Option<ProcessId> {
        let _ = (reg, value);
        None
    }
}

impl<A: Automaton + ?Sized> Automaton for &A {
    type State = A::State;

    fn processes(&self) -> usize {
        (**self).processes()
    }
    fn registers(&self) -> usize {
        (**self).registers()
    }
    fn initial_value(&self, reg: RegisterId) -> Value {
        (**self).initial_value(reg)
    }
    fn initial_state(&self, pid: ProcessId) -> Self::State {
        (**self).initial_state(pid)
    }
    fn next_step(&self, pid: ProcessId, state: &Self::State) -> NextStep {
        (**self).next_step(pid, state)
    }
    fn observe(&self, pid: ProcessId, state: &Self::State, obs: Observation) -> Self::State {
        (**self).observe(pid, state, obs)
    }
    fn observe_in_place(&self, pid: ProcessId, state: &mut Self::State, obs: Observation) -> bool {
        (**self).observe_in_place(pid, state, obs)
    }
    fn observe_changes(&self, pid: ProcessId, state: &Self::State, obs: Observation) -> bool {
        (**self).observe_changes(pid, state, obs)
    }
    fn recover_state(&self, pid: ProcessId) -> Self::State {
        (**self).recover_state(pid)
    }
    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        (**self).register_home(reg)
    }
    fn register_name(&self, reg: RegisterId) -> String {
        (**self).register_name(reg)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn symmetric(&self) -> bool {
        (**self).symmetric()
    }
    fn permute_state(&self, state: &Self::State, perm: &Perm) -> Self::State {
        (**self).permute_state(state, perm)
    }
    fn permute_register_value(&self, reg: RegisterId, value: Value, perm: &Perm) -> Value {
        (**self).permute_register_value(reg, value, perm)
    }
    fn pid_in_value(&self, reg: RegisterId, value: Value) -> Option<ProcessId> {
        (**self).pid_in_value(reg, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Alternator;

    #[test]
    fn reference_impl_forwards() {
        let alg = Alternator::new(2);
        let by_ref: &Alternator = &alg;
        assert_eq!(by_ref.processes(), alg.processes());
        assert_eq!(by_ref.registers(), alg.registers());
        assert_eq!(by_ref.name(), alg.name());
        let p = ProcessId::new(0);
        assert_eq!(by_ref.initial_state(p), alg.initial_state(p));
        assert_eq!(by_ref.register_name(RegisterId::new(0)), "turn");
    }

    #[test]
    fn default_register_metadata() {
        // The default home is `None` and the default name is `r{i}`.
        struct Plain;
        impl Automaton for Plain {
            type State = u8;
            fn processes(&self) -> usize {
                1
            }
            fn registers(&self) -> usize {
                2
            }
            fn initial_state(&self, _p: ProcessId) -> u8 {
                0
            }
            fn next_step(&self, _p: ProcessId, _s: &u8) -> NextStep {
                NextStep::Crit(CritKind::Try)
            }
            fn observe(&self, _p: ProcessId, s: &u8, _o: Observation) -> u8 {
                *s
            }
        }
        let alg = Plain;
        assert_eq!(alg.register_home(RegisterId::new(1)), None);
        assert_eq!(alg.register_name(RegisterId::new(1)), "r1");
        assert_eq!(alg.initial_value(RegisterId::new(0)), 0);
        assert_eq!(alg.name(), "Plain");
        // The default recovery state is the initial state.
        let p = ProcessId::new(0);
        assert_eq!(alg.recover_state(p), alg.initial_state(p));
    }
}
