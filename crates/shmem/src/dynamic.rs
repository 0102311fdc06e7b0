//! The erased-state automaton core: run algorithms whose state types are
//! not known at compile time.
//!
//! [`Automaton`] has an associated `State` type, so it cannot be a trait
//! object. This module erases it:
//!
//! * [`DynState`] — an erased process state. Small states pack into a
//!   few `u64` words stored **inline** (no allocation, trivially
//!   copyable); everything else spills into a boxed erased object that
//!   is mutated *in place* on the hot path, so even the spill path
//!   allocates only when a process state object is first created, never
//!   per step;
//! * [`DynAutomaton`] — the object-safe mirror of [`Automaton`], with a
//!   blanket implementation for **every** `Automaton` whose state is
//!   `'static + Send + Sync` (the boxed representation);
//! * [`Packed`] — an adapter choosing the inline-word representation
//!   for automata whose states implement [`WordState`];
//! * [`DynRef`] — the bridge back: drives a `&dyn DynAutomaton` as a plain
//!   `Automaton` with `State = DynState`, so every generic driver
//!   (`System`, `ViewTable`, the run loop `run_faulted_with`, the
//!   streaming cost engine) works unchanged on erased algorithms.
//!
//! # The erased-state / SC-equality contract
//!
//! The state-change (SC) cost model charges a step exactly when
//! `observe` returns a state different from its input, so *state
//! equality is load-bearing*. Erasure must preserve it exactly:
//!
//! 1. two [`DynState`]s produced by the **same** automaton compare equal
//!    if and only if the underlying typed states compare equal (`Eq` on
//!    the state type, or word-for-word equality of the packed words —
//!    [`WordState::pack`] must therefore be injective on the states the
//!    automaton can reach);
//! 2. [`DynAutomaton::dyn_observe`] reports `true` exactly when the
//!    typed `observe` would have produced a state `!=` its input — the
//!    blanket adapters compute this with the *typed* equality, so a
//!    `DynRef`-driven run charges bit-identically to the typed run
//!    (pinned by `tests/streaming_equivalence.rs`);
//! 3. a `DynState` belongs to the automaton that created it. Feeding a
//!    state to a different automaton panics (boxed, on the downcast) or
//!    produces garbage words (inline). Drivers never do this; the
//!    contract only binds custom code that juggles several erased
//!    algorithms at once.
//!
//! Hashing mirrors equality: inline states hash their words, boxed
//! states hash through the typed `Hash` impl.
//!
//! # Example
//!
//! ```
//! use exclusion_shmem::dynamic::{DynAutomaton, DynRef};
//! use exclusion_shmem::sched::run_round_robin;
//! use exclusion_shmem::testing::Alternator;
//!
//! let alg = Alternator::new(3);
//! // Erase the algorithm: any `Automaton` is a `DynAutomaton`.
//! let erased: &dyn DynAutomaton = &alg;
//! // …and drive it through the ordinary generic machinery.
//! let exec = run_round_robin(&DynRef(erased), 1, 10_000).unwrap();
//! assert!(exec.is_canonical(3));
//! ```

use std::any::Any;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::automaton::{Automaton, NextStep, Observation};
use crate::ids::{ProcessId, RegisterId, Value};
use crate::symmetry::Perm;

/// Words of inline storage in a [`DynState`]. States that pack into at
/// most this many `u64`s avoid the boxed spill path entirely.
pub const INLINE_WORDS: usize = 3;

/// A state that packs losslessly into at most [`INLINE_WORDS`] `u64`
/// words — the opt-in ticket to the allocation-free inline
/// representation of [`DynState`], via the [`Packed`] adapter.
///
/// `pack` must be **injective** on the automaton's reachable states
/// (distinct states ⇒ distinct words): inline `DynState`s compare by
/// their words, and the SC cost model charges on state *inequality*, so
/// a collision would silently drop charges. `unpack(pack(s)) == s` is
/// pinned by property tests for the provided implementations.
///
/// The standard registry of `exclusion-mutex` packs every entry but
/// three: the paper's register-only locks (dekker-tree, peterson,
/// bakery, filter, dijkstra, burns-lynch), rpeterson, the splitter
/// locks, tas-sim, ttas-sim and the composed mcs, clh and ticket locks
/// register through [`Packed`] in one or two words per process; mcs-sim,
/// rtas and broken-recover keep boxed states. The explorer stores an
/// inline state as its words and a boxed one as an index into an
/// intern list, so both take its one record layout.
pub trait WordState: Copy + Eq + Hash + fmt::Debug + Send + Sync + 'static {
    /// How many of the [`INLINE_WORDS`] this type uses (≤ `INLINE_WORDS`).
    const WORDS: usize;

    /// Writes the state into `out` (`out.len() == Self::WORDS`).
    fn pack(&self, out: &mut [u64]);

    /// Reconstructs the state from words previously written by `pack`.
    fn unpack(words: &[u64]) -> Self;
}

macro_rules! word_state_int {
    ($($ty:ty),*) => {$(
        impl WordState for $ty {
            const WORDS: usize = 1;
            fn pack(&self, out: &mut [u64]) {
                out[0] = *self as u64;
            }
            fn unpack(words: &[u64]) -> Self {
                words[0] as $ty
            }
        }
    )*};
}

word_state_int!(u8, u16, u32, u64, usize);

impl WordState for bool {
    const WORDS: usize = 1;
    fn pack(&self, out: &mut [u64]) {
        out[0] = u64::from(*self);
    }
    fn unpack(words: &[u64]) -> Self {
        words[0] != 0
    }
}

impl WordState for () {
    const WORDS: usize = 0;
    fn pack(&self, _out: &mut [u64]) {}
    fn unpack(_words: &[u64]) -> Self {}
}

impl<A: WordState, B: WordState> WordState for (A, B) {
    const WORDS: usize = A::WORDS + B::WORDS;
    fn pack(&self, out: &mut [u64]) {
        self.0.pack(&mut out[..A::WORDS]);
        self.1.pack(&mut out[A::WORDS..]);
    }
    fn unpack(words: &[u64]) -> Self {
        (A::unpack(&words[..A::WORDS]), B::unpack(&words[A::WORDS..]))
    }
}

/// The boxed spill path: a type-erased state object. Implemented for
/// every `'static + Clone + Eq + Hash + Debug + Send + Sync` type via a
/// blanket impl; not meant to be implemented by hand.
trait ErasedState: fmt::Debug + Send + Sync {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn clone_box(&self) -> Box<dyn ErasedState>;
    /// Clones `self` into `target` in place; `false` (and `target`
    /// untouched) when `target` holds another type.
    fn clone_into_erased(&self, target: &mut dyn ErasedState) -> bool;
    fn eq_erased(&self, other: &dyn ErasedState) -> bool;
    fn hash_erased(&self, state: &mut dyn Hasher);
}

impl<T> ErasedState for T
where
    T: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
{
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn clone_box(&self) -> Box<dyn ErasedState> {
        Box::new(self.clone())
    }
    fn clone_into_erased(&self, target: &mut dyn ErasedState) -> bool {
        match target.as_any_mut().downcast_mut::<T>() {
            Some(t) => {
                t.clone_from(self);
                true
            }
            None => false,
        }
    }
    fn eq_erased(&self, other: &dyn ErasedState) -> bool {
        other.as_any().downcast_ref::<T>() == Some(self)
    }
    fn hash_erased(&self, mut state: &mut dyn Hasher) {
        self.hash(&mut state);
    }
}

#[derive(Debug)]
enum Repr {
    /// `words[..len]` carry the packed state.
    Inline {
        len: u8,
        words: [u64; INLINE_WORDS],
    },
    Boxed(Box<dyn ErasedState>),
}

/// An erased process state — the `State` type of [`DynRef`].
///
/// Produced only by a [`DynAutomaton`]; which representation it uses is
/// that automaton's choice (inline words for [`Packed`] adapters, a
/// boxed erased object for the blanket adapter) and is stable for the
/// automaton's lifetime, as is the width of its inline states. See the
/// module docs for the equality contract.
pub struct DynState {
    repr: Repr,
}

impl DynState {
    /// Packs a [`WordState`] into the inline representation.
    #[must_use]
    pub fn from_words<S: WordState>(state: &S) -> Self {
        let mut words = [0u64; INLINE_WORDS];
        const {
            assert!(S::WORDS <= INLINE_WORDS, "state too wide for inline words");
        }
        state.pack(&mut words[..S::WORDS]);
        DynState {
            repr: Repr::Inline {
                len: S::WORDS as u8,
                words,
            },
        }
    }

    /// Erases an arbitrary state into the boxed representation.
    #[must_use]
    pub fn boxed<S>(state: S) -> Self
    where
        S: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    {
        DynState {
            repr: Repr::Boxed(Box::new(state)),
        }
    }

    /// Rebuilds an inline state from words previously observed through
    /// [`words`](DynState::words) — the round-trip the explorer's key
    /// records use to store inline states without knowing the typed
    /// `WordState` behind them. Equality is word-for-word, so the
    /// reconstruction compares equal to the original.
    ///
    /// # Panics
    ///
    /// When `words` exceeds [`INLINE_WORDS`].
    #[must_use]
    pub fn from_raw_words(words: &[u64]) -> Self {
        assert!(
            words.len() <= INLINE_WORDS,
            "state too wide for inline words"
        );
        let mut buf = [0u64; INLINE_WORDS];
        buf[..words.len()].copy_from_slice(words);
        DynState {
            repr: Repr::Inline {
                len: words.len() as u8,
                words: buf,
            },
        }
    }

    /// The inline words, if this state uses the inline representation.
    #[must_use]
    pub fn words(&self) -> Option<&[u64]> {
        match &self.repr {
            Repr::Inline { len, words } => Some(&words[..usize::from(*len)]),
            Repr::Boxed(_) => None,
        }
    }

    /// Unpacks an inline state; `None` if boxed or packed as a
    /// different width.
    #[must_use]
    pub fn to_words<S: WordState>(&self) -> Option<S> {
        let words = self.words()?;
        (words.len() == S::WORDS).then(|| S::unpack(words))
    }

    /// Borrows the boxed state as `S`; `None` if inline or of a
    /// different type.
    #[must_use]
    pub fn downcast_ref<S: 'static>(&self) -> Option<&S> {
        match &self.repr {
            Repr::Boxed(b) => b.as_any().downcast_ref::<S>(),
            Repr::Inline { .. } => None,
        }
    }

    /// Mutably borrows the boxed state as `S`; `None` if inline or of a
    /// different type.
    #[must_use]
    pub fn downcast_mut<S: 'static>(&mut self) -> Option<&mut S> {
        match &mut self.repr {
            Repr::Boxed(b) => b.as_any_mut().downcast_mut::<S>(),
            Repr::Inline { .. } => None,
        }
    }

    /// Overwrites an inline state in place. Panics if boxed (states
    /// never change representation within one automaton).
    fn store_words<S: WordState>(&mut self, state: &S) {
        match &mut self.repr {
            Repr::Inline { len, words } => {
                debug_assert_eq!(usize::from(*len), S::WORDS);
                state.pack(&mut words[..S::WORDS]);
            }
            Repr::Boxed(_) => unreachable!("inline automaton produced a boxed state"),
        }
    }
}

impl Clone for DynState {
    fn clone(&self) -> Self {
        let repr = match &self.repr {
            Repr::Inline { len, words } => Repr::Inline {
                len: *len,
                words: *words,
            },
            Repr::Boxed(b) => Repr::Boxed(b.clone_box()),
        };
        DynState { repr }
    }

    /// Reuses `self`'s box when both states are boxed states of one
    /// type, so restoring a system from a snapshot allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        if let (Repr::Boxed(dst), Repr::Boxed(src)) = (&mut self.repr, &source.repr) {
            if src.clone_into_erased(dst.as_mut()) {
                return;
            }
        }
        *self = source.clone();
    }
}

impl PartialEq for DynState {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Inline { len: la, words: wa }, Repr::Inline { len: lb, words: wb }) => {
                la == lb && wa[..usize::from(*la)] == wb[..usize::from(*lb)]
            }
            (Repr::Boxed(a), Repr::Boxed(b)) => a.eq_erased(b.as_ref()),
            // One automaton never mixes representations; cross-automaton
            // comparisons are out of contract and simply unequal.
            _ => false,
        }
    }
}

impl Eq for DynState {}

impl Hash for DynState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.repr {
            Repr::Inline { len, words } => {
                words[..usize::from(*len)].hash(state);
            }
            Repr::Boxed(b) => b.hash_erased(state),
        }
    }
}

impl fmt::Debug for DynState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Inline { len, words } => f
                .debug_tuple("DynState")
                .field(&&words[..usize::from(*len)])
                .finish(),
            Repr::Boxed(b) => f.debug_tuple("DynState").field(b).finish(),
        }
    }
}

/// The object-safe mirror of [`Automaton`]: same transition structure,
/// with the associated `State` erased to [`DynState`].
///
/// Every [`Automaton`] whose state is `'static + Send + Sync` gets this
/// trait for free (the boxed representation, mutated in place on the
/// hot path); [`Packed`] opts small word-packable states into the
/// inline representation. Registries hand out `Arc<dyn DynAutomaton +
/// Send + Sync>` handles; [`DynRef`] feeds them back into the generic
/// drivers. See the module docs for the erased-state/SC-equality
/// contract implementations must uphold.
pub trait DynAutomaton {
    /// Number of processes `n` this instance is configured for.
    fn processes(&self) -> usize;

    /// Number of shared registers the algorithm uses.
    fn registers(&self) -> usize;

    /// Initial value of register `reg`.
    fn initial_value(&self, reg: RegisterId) -> Value;

    /// Initial (erased) state of process `pid`.
    fn initial_dyn_state(&self, pid: ProcessId) -> DynState;

    /// The transition function δ: which step `pid` performs from `state`.
    fn dyn_next_step(&self, pid: ProcessId, state: &DynState) -> NextStep;

    /// Applies δ's observation to `state` **in place** and reports
    /// whether it changed — must agree exactly with the typed
    /// `observe(..) != state` (the SC predicate; see the module docs).
    fn dyn_observe(&self, pid: ProcessId, state: &mut DynState, obs: Observation) -> bool;

    /// Whether observing `obs` from `state` would change it, without
    /// committing the transition.
    fn dyn_observe_changes(&self, pid: ProcessId, state: &DynState, obs: Observation) -> bool;

    /// The (erased) state `pid` restarts from after a crash — the entry
    /// point of its recovery section. Must mirror the typed
    /// [`Automaton::recover_state`] contract; the default restarts from
    /// [`initial_dyn_state`](DynAutomaton::initial_dyn_state).
    fn recover_dyn_state(&self, pid: ProcessId) -> DynState {
        self.initial_dyn_state(pid)
    }

    /// Home process of a register in the DSM cost model.
    fn register_home(&self, reg: RegisterId) -> Option<ProcessId>;

    /// Human-readable name of a register.
    fn register_name(&self, reg: RegisterId) -> String;

    /// A short name for the algorithm, used in reports and tables.
    fn name(&self) -> String;

    /// Whether the algorithm declares full process-permutation
    /// symmetry — mirrors [`Automaton::symmetric`] and carries the
    /// same contract. Defaults to `false` (always sound).
    fn dyn_symmetric(&self) -> bool {
        false
    }

    /// Relabels process ids inside an erased state under `perm` —
    /// mirrors [`Automaton::permute_state`]. The default clones.
    fn dyn_permute_state(&self, state: &DynState, perm: &Perm) -> DynState {
        let _ = perm;
        state.clone()
    }

    /// Rewrites a register value under `perm` — mirrors
    /// [`Automaton::permute_register_value`]. The default is identity.
    fn dyn_permute_register_value(&self, reg: RegisterId, value: Value, perm: &Perm) -> Value {
        let _ = (reg, perm);
        value
    }

    /// Which process id the value held by `reg` encodes — mirrors
    /// [`Automaton::pid_in_value`]. The default is `None`.
    fn dyn_pid_in_value(&self, reg: RegisterId, value: Value) -> Option<ProcessId> {
        let _ = (reg, value);
        None
    }
}

fn expect_typed<S: 'static>(state: &DynState) -> &S {
    state
        .downcast_ref::<S>()
        .expect("state does not belong to this automaton")
}

/// The blanket adapter: every automaton with an erasable state *is* an
/// erased automaton, using the boxed representation. The box is created
/// once per process (in `initial_dyn_state`) and mutated in place from
/// then on — the steady state allocates nothing.
impl<A> DynAutomaton for A
where
    A: Automaton,
    A::State: Send + Sync + 'static,
{
    fn processes(&self) -> usize {
        Automaton::processes(self)
    }
    fn registers(&self) -> usize {
        Automaton::registers(self)
    }
    fn initial_value(&self, reg: RegisterId) -> Value {
        Automaton::initial_value(self, reg)
    }
    fn initial_dyn_state(&self, pid: ProcessId) -> DynState {
        DynState::boxed(self.initial_state(pid))
    }
    fn dyn_next_step(&self, pid: ProcessId, state: &DynState) -> NextStep {
        self.next_step(pid, expect_typed::<A::State>(state))
    }
    fn dyn_observe(&self, pid: ProcessId, state: &mut DynState, obs: Observation) -> bool {
        let s = state
            .downcast_mut::<A::State>()
            .expect("state does not belong to this automaton");
        self.observe_in_place(pid, s, obs)
    }
    fn dyn_observe_changes(&self, pid: ProcessId, state: &DynState, obs: Observation) -> bool {
        self.observe_changes(pid, expect_typed::<A::State>(state), obs)
    }
    fn recover_dyn_state(&self, pid: ProcessId) -> DynState {
        DynState::boxed(self.recover_state(pid))
    }
    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        Automaton::register_home(self, reg)
    }
    fn register_name(&self, reg: RegisterId) -> String {
        Automaton::register_name(self, reg)
    }
    fn name(&self) -> String {
        Automaton::name(self)
    }
    fn dyn_symmetric(&self) -> bool {
        Automaton::symmetric(self)
    }
    fn dyn_permute_state(&self, state: &DynState, perm: &Perm) -> DynState {
        DynState::boxed(self.permute_state(expect_typed::<A::State>(state), perm))
    }
    fn dyn_permute_register_value(&self, reg: RegisterId, value: Value, perm: &Perm) -> Value {
        Automaton::permute_register_value(self, reg, value, perm)
    }
    fn dyn_pid_in_value(&self, reg: RegisterId, value: Value) -> Option<ProcessId> {
        Automaton::pid_in_value(self, reg, value)
    }
}

/// Adapter choosing the **inline-word** representation for an automaton
/// whose states implement [`WordState`]: erased states live entirely in
/// [`DynState`]'s inline words — no allocation even at process start,
/// and cloning is a memcpy.
///
/// ```
/// use exclusion_shmem::dynamic::{DynAutomaton, DynRef, Packed};
/// use exclusion_shmem::sched::run_round_robin;
/// use exclusion_shmem::testing::Alternator;
///
/// // Alternator's state is `u8`, which packs into one word.
/// let alg = Packed(Alternator::new(2));
/// let exec = run_round_robin(&DynRef(&alg), 1, 10_000).unwrap();
/// assert!(exec.mutual_exclusion(2));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Packed<A>(pub A);

impl<A> DynAutomaton for Packed<A>
where
    A: Automaton,
    A::State: WordState,
{
    fn processes(&self) -> usize {
        self.0.processes()
    }
    fn registers(&self) -> usize {
        self.0.registers()
    }
    fn initial_value(&self, reg: RegisterId) -> Value {
        self.0.initial_value(reg)
    }
    fn initial_dyn_state(&self, pid: ProcessId) -> DynState {
        DynState::from_words(&self.0.initial_state(pid))
    }
    fn dyn_next_step(&self, pid: ProcessId, state: &DynState) -> NextStep {
        let s = state
            .to_words::<A::State>()
            .expect("state does not belong to this automaton");
        self.0.next_step(pid, &s)
    }
    fn dyn_observe(&self, pid: ProcessId, state: &mut DynState, obs: Observation) -> bool {
        let s = state
            .to_words::<A::State>()
            .expect("state does not belong to this automaton");
        let next = self.0.observe(pid, &s, obs);
        if next == s {
            false
        } else {
            state.store_words(&next);
            true
        }
    }
    fn dyn_observe_changes(&self, pid: ProcessId, state: &DynState, obs: Observation) -> bool {
        let s = state
            .to_words::<A::State>()
            .expect("state does not belong to this automaton");
        self.0.observe(pid, &s, obs) != s
    }
    fn recover_dyn_state(&self, pid: ProcessId) -> DynState {
        DynState::from_words(&self.0.recover_state(pid))
    }
    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        self.0.register_home(reg)
    }
    fn register_name(&self, reg: RegisterId) -> String {
        self.0.register_name(reg)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn dyn_symmetric(&self) -> bool {
        self.0.symmetric()
    }
    fn dyn_permute_state(&self, state: &DynState, perm: &Perm) -> DynState {
        let s = state
            .to_words::<A::State>()
            .expect("state does not belong to this automaton");
        DynState::from_words(&self.0.permute_state(&s, perm))
    }
    fn dyn_permute_register_value(&self, reg: RegisterId, value: Value, perm: &Perm) -> Value {
        self.0.permute_register_value(reg, value, perm)
    }
    fn dyn_pid_in_value(&self, reg: RegisterId, value: Value) -> Option<ProcessId> {
        self.0.pid_in_value(reg, value)
    }
}

/// The bridge back from the erased world: wraps a `&dyn DynAutomaton`
/// as an [`Automaton`] with `State = DynState`, so `System`,
/// `ViewTable`, the run loop `run_faulted_with` and the streaming cost
/// engine all drive erased algorithms unchanged — including the
/// incremental-view and streaming-pricing contracts.
///
/// The hot-path hooks ([`Automaton::observe_in_place`],
/// [`Automaton::observe_changes`]) are overridden to go through the
/// in-place erased methods, so driving through `DynRef` performs no
/// per-step allocation.
#[derive(Clone, Copy)]
pub struct DynRef<'a>(pub &'a dyn DynAutomaton);

impl fmt::Debug for DynRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DynRef").field(&self.0.name()).finish()
    }
}

impl Automaton for DynRef<'_> {
    type State = DynState;

    fn processes(&self) -> usize {
        self.0.processes()
    }
    fn registers(&self) -> usize {
        self.0.registers()
    }
    fn initial_value(&self, reg: RegisterId) -> Value {
        self.0.initial_value(reg)
    }
    fn initial_state(&self, pid: ProcessId) -> DynState {
        self.0.initial_dyn_state(pid)
    }
    fn next_step(&self, pid: ProcessId, state: &DynState) -> NextStep {
        self.0.dyn_next_step(pid, state)
    }
    fn observe(&self, pid: ProcessId, state: &DynState, obs: Observation) -> DynState {
        let mut next = state.clone();
        self.0.dyn_observe(pid, &mut next, obs);
        next
    }
    fn observe_in_place(&self, pid: ProcessId, state: &mut DynState, obs: Observation) -> bool {
        self.0.dyn_observe(pid, state, obs)
    }
    fn observe_changes(&self, pid: ProcessId, state: &DynState, obs: Observation) -> bool {
        self.0.dyn_observe_changes(pid, state, obs)
    }
    fn recover_state(&self, pid: ProcessId) -> DynState {
        self.0.recover_dyn_state(pid)
    }
    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        self.0.register_home(reg)
    }
    fn register_name(&self, reg: RegisterId) -> String {
        self.0.register_name(reg)
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn symmetric(&self) -> bool {
        self.0.dyn_symmetric()
    }
    fn permute_state(&self, state: &DynState, perm: &Perm) -> DynState {
        self.0.dyn_permute_state(state, perm)
    }
    fn permute_register_value(&self, reg: RegisterId, value: Value, perm: &Perm) -> Value {
        self.0.dyn_permute_register_value(reg, value, perm)
    }
    fn pid_in_value(&self, reg: RegisterId, value: Value) -> Option<ProcessId> {
        self.0.dyn_pid_in_value(reg, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run_round_robin, run_scheduler, GreedyAdversary};
    use crate::testing::Alternator;

    #[test]
    fn boxed_erasure_runs_identically_to_the_typed_algorithm() {
        let alg = Alternator::new(4);
        let typed = run_round_robin(&alg, 2, 100_000).unwrap();
        let erased: &dyn DynAutomaton = &alg;
        let dynamic = run_round_robin(&DynRef(erased), 2, 100_000).unwrap();
        assert_eq!(typed, dynamic);
    }

    #[test]
    fn packed_erasure_runs_identically_too() {
        let alg = Alternator::new(4);
        let packed = Packed(Alternator::new(4));
        let typed = run_scheduler(&alg, &mut GreedyAdversary::new(), 2, 100_000).unwrap();
        let inline =
            run_scheduler(&DynRef(&packed), &mut GreedyAdversary::new(), 2, 100_000).unwrap();
        assert_eq!(typed, inline, "inline erasure must not perturb schedules");
    }

    #[test]
    fn dyn_observe_reports_the_sc_predicate() {
        let alg = Alternator::new(2);
        let erased: &dyn DynAutomaton = &alg;
        let p1 = ProcessId::new(1);
        let mut s = erased.initial_dyn_state(p1);
        // try changes state…
        assert!(erased.dyn_observe_changes(p1, &s, Observation::Crit));
        assert!(erased.dyn_observe(p1, &mut s, Observation::Crit));
        // …but spinning on the un-surrendered token is free.
        assert!(!erased.dyn_observe_changes(p1, &s, Observation::Read(0)));
        assert!(!erased.dyn_observe(p1, &mut s, Observation::Read(0)));
        assert!(erased.dyn_observe(p1, &mut s, Observation::Read(1)));
    }

    #[test]
    fn word_states_roundtrip() {
        fn roundtrip<S: WordState>(s: S) {
            let d = DynState::from_words(&s);
            assert_eq!(d.to_words::<S>(), Some(s));
            assert_eq!(d, DynState::from_words(&s));
        }
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip((7u8, u64::MAX));
        roundtrip((u32::MAX, (true, 9usize)));
    }

    #[test]
    fn dyn_state_equality_and_hash_follow_the_contract() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of(s: &DynState) -> u64 {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        }
        let a = DynState::from_words(&7u8);
        let b = DynState::from_words(&7u8);
        let c = DynState::from_words(&8u8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(hash_of(&a), hash_of(&b));

        let x = DynState::boxed(String::from("s"));
        let y = DynState::boxed(String::from("s"));
        let z = DynState::boxed(42u8);
        assert_eq!(x, y);
        assert_ne!(x, z, "different boxed types are unequal");
        assert_eq!(hash_of(&x), hash_of(&y));
        // Representations never mix within one automaton; across, unequal.
        assert_ne!(a, x);
        assert_eq!(format!("{a:?}"), "DynState([7])");
    }

    #[test]
    fn downcasts_reject_foreign_types() {
        let boxed = DynState::boxed(5u8);
        assert!(boxed.downcast_ref::<u16>().is_none());
        assert!(boxed.downcast_ref::<u8>().is_some());
        assert!(boxed.words().is_none());
        let inline = DynState::from_words(&5u8);
        assert!(inline.downcast_ref::<u8>().is_none());
        assert_eq!(inline.words(), Some(&[5u64][..]));
    }

    #[test]
    #[should_panic(expected = "state does not belong")]
    fn foreign_states_panic_on_the_boxed_path() {
        let alg = Alternator::new(2);
        let erased: &dyn DynAutomaton = &alg;
        let foreign = DynState::boxed(String::from("not an Alternator state"));
        let _ = erased.dyn_next_step(ProcessId::new(0), &foreign);
    }
}
