//! Process-permutation symmetry: permutations, snapshot relabelling,
//! and orbit canonicalization.
//!
//! Mutual exclusion algorithms that treat every process identically
//! (no id-ordered scans, no id-indexed register banks) induce a
//! transition system on which the symmetric group over process indices
//! acts by automorphisms: relabelling the processes of a reachable
//! configuration yields another reachable configuration with the same
//! future behavior. Exhaustive exploration then only needs one
//! representative per orbit, cutting the state space by a factor
//! approaching `n!`.
//!
//! This module provides the group element ([`Perm`]), the action
//! ([`permute_snapshot`]), and the representative chooser
//! ([`canonicalize_snapshot`], or [`canonical_perm`] for just the
//! permutation). Which algorithms may use them is
//! declared — and contractually constrained — by
//! [`Automaton::symmetric`](crate::Automaton::symmetric).

use crate::dynamic::{DynAutomaton, DynState};
use crate::ids::{ProcessId, RegisterId};
use crate::system::{Section, Snapshot};

/// A permutation of the process indices `0..n`, stored as the forward
/// map *old index → new index*.
///
/// `Perm` is the group element threaded through every symmetry hook:
/// [`permute_snapshot`] applies it to a whole configuration,
/// [`canonicalize_snapshot`] returns the one it used, and explorers
/// compose the returned permutations to de-canonicalize witness
/// schedules back into replayable coordinates.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Perm {
    map: Vec<usize>,
}

impl Perm {
    /// The identity permutation on `n` processes.
    #[must_use]
    pub fn identity(n: usize) -> Perm {
        Perm {
            map: (0..n).collect(),
        }
    }

    /// Builds a permutation from its forward map (`map[i]` is the new
    /// index of old process `i`).
    ///
    /// # Panics
    ///
    /// When `map` is not a bijection on `0..map.len()`.
    #[must_use]
    pub fn from_map(map: Vec<usize>) -> Perm {
        let n = map.len();
        let mut seen = vec![false; n];
        for &t in &map {
            assert!(t < n && !seen[t], "not a bijection on 0..{n}: {map:?}");
            seen[t] = true;
        }
        Perm { map }
    }

    /// Number of processes this permutation acts on.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the permutation acts on zero processes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether this is the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &t)| i == t)
    }

    /// The new index of old index `i`.
    #[must_use]
    pub fn apply_index(&self, i: usize) -> usize {
        self.map[i]
    }

    /// The new id of old process `p`.
    #[must_use]
    pub fn apply(&self, p: ProcessId) -> ProcessId {
        ProcessId::new(self.map[p.index()])
    }

    /// The inverse permutation.
    #[must_use]
    pub fn inverse(&self) -> Perm {
        let mut inv = vec![0usize; self.map.len()];
        for (i, &t) in self.map.iter().enumerate() {
            inv[t] = i;
        }
        Perm { map: inv }
    }

    /// Composition `next ∘ self`: applies `self` first, then `next`.
    ///
    /// # Panics
    ///
    /// When the two permutations act on different process counts.
    #[must_use]
    pub fn then(&self, next: &Perm) -> Perm {
        assert_eq!(self.len(), next.len(), "composing mismatched perms");
        Perm {
            map: self.map.iter().map(|&t| next.map[t]).collect(),
        }
    }
}

/// Applies `perm` to a whole configuration: process `i`'s state
/// (relabelled via
/// [`dyn_permute_state`](DynAutomaton::dyn_permute_state)), section,
/// and passage count move to slot `perm(i)`, and every register value
/// is rewritten via
/// [`dyn_permute_register_value`](DynAutomaton::dyn_permute_register_value).
/// Register *indices* do not move — the symmetry contract requires
/// registers to be global.
///
/// For an algorithm honoring the
/// [`symmetric`](crate::Automaton::symmetric) contract this is an
/// automorphism of the transition system: stepping process `p` and
/// then permuting equals permuting and then stepping `perm(p)`, and it
/// preserves the mutual exclusion predicate, the passage goal, and
/// every permutation-invariant cost.
///
/// # Panics
///
/// When `perm` does not act on exactly the snapshot's process count.
#[must_use]
pub fn permute_snapshot(
    alg: &dyn DynAutomaton,
    snap: &Snapshot<DynState>,
    perm: &Perm,
) -> Snapshot<DynState> {
    let n = snap.states().len();
    assert_eq!(perm.len(), n, "perm acts on a different process count");
    let mut states: Vec<Option<DynState>> = vec![None; n];
    let mut sections = vec![Section::default(); n];
    let mut passages = vec![0usize; n];
    for i in 0..n {
        let t = perm.apply_index(i);
        states[t] = Some(alg.dyn_permute_state(&snap.states()[i], perm));
        sections[t] = snap.sections()[i];
        passages[t] = snap.passages()[i];
    }
    let regs = snap
        .registers()
        .iter()
        .enumerate()
        .map(|(j, &v)| alg.dyn_permute_register_value(RegisterId::new(j), v, perm))
        .collect();
    Snapshot::from_parts(
        states.into_iter().map(Option::unwrap).collect(),
        regs,
        sections,
        passages,
    )
}

fn section_rank(s: Section) -> u8 {
    match s {
        Section::Remainder => 0,
        Section::Trying => 1,
        Section::Critical => 2,
        Section::Exit => 3,
    }
}

/// Process `i`'s local data, the primary key that sorts processes into
/// their canonical slots; its state must use the inline representation.
/// All states of one algorithm pack into the same number of words, so
/// the words compare as fixed-width tuples.
fn local_key(snap: &Snapshot<DynState>, i: usize) -> (&[u64], u8, usize) {
    (
        snap.states()[i].words().unwrap_or_default(),
        section_rank(snap.sections()[i]),
        snap.passages()[i],
    )
}

/// Process counts up to which [`canonical_perm`] keeps its buffers on
/// the stack (the explorer's process cap); larger counts use the heap.
const STACK_PROCESSES: usize = 64;

/// Chooses the canonical representative of `snap`'s orbit under the
/// process-permutation group and returns it together with the
/// permutation that maps `snap` onto it.
///
/// # Contract
///
/// For an algorithm whose [`symmetric`](crate::Automaton::symmetric)
/// contract holds, the result is a pure function of the **orbit**:
///
/// * **permutation invariance** — for every permutation π,
///   `canonicalize_snapshot(alg, permute_snapshot(alg, s, π)).0`
///   equals `canonicalize_snapshot(alg, s).0`;
/// * **idempotence** — canonicalizing a canonical snapshot returns it
///   unchanged (a direct consequence of invariance);
/// * **membership** — the representative is
///   `permute_snapshot(alg, snap, perm)` for the returned `perm`, so
///   it is itself a legal configuration with identical future behavior
///   modulo relabelling.
///
/// The permutation is [`canonical_perm`]'s (the identity when that
/// returns `None`); see there for how it is chosen and when it falls
/// back to the identity.
#[must_use]
pub fn canonicalize_snapshot(
    alg: &dyn DynAutomaton,
    snap: &Snapshot<DynState>,
) -> (Snapshot<DynState>, Perm) {
    match canonical_perm(alg, snap) {
        Some(perm) => (permute_snapshot(alg, snap, &perm), perm),
        None => (snap.clone(), Perm::identity(snap.states().len())),
    }
}

/// The permutation [`canonicalize_snapshot`] applies to `snap`, or
/// `None` when `snap` is already its orbit's representative. Up to 64
/// processes the search runs in stack buffers, so the `None` case
/// allocates nothing and a caller that keeps `snap` when it is
/// canonical pays for no copy.
///
/// The representative is computed in `O(n log n + registers)` — no
/// factorial enumeration: processes are sorted by their local data
/// (packed state words, section, passage count); ties are broken by
/// the first register whose value references the process (in register
/// index order, via [`pid_in_value`](crate::Automaton::pid_in_value));
/// processes still tied after that are bit-identical and unreferenced,
/// hence fully interchangeable — any assignment yields the same
/// representative, and pid order is used.
///
/// Returns `None` (the identity: always sound, no reduction) when the
/// algorithm does not declare symmetry, when it has fewer than two
/// processes, or when its states use the boxed (non-word-packed)
/// representation, which admits no total order.
///
/// One caveat completes the contract: the tie-break inspects register
/// references only, so a symmetric algorithm whose *states* embed
/// process ids (nontrivial
/// [`permute_state`](crate::Automaton::permute_state)) must ensure
/// every such embedded id is also visible through some register value;
/// otherwise two bit-identical processes may not actually be
/// interchangeable. All symmetric algorithms in this suite have
/// pid-free states, making the condition vacuous.
#[must_use]
pub fn canonical_perm(alg: &dyn DynAutomaton, snap: &Snapshot<DynState>) -> Option<Perm> {
    let n = snap.states().len();
    if !alg.dyn_symmetric() || n <= 1 || snap.states().iter().any(|s| s.words().is_none()) {
        return None;
    }
    if n <= STACK_PROCESSES {
        let mut first_ref = [usize::MAX; STACK_PROCESSES];
        let mut order = [0usize; STACK_PROCESSES];
        canonical_order(alg, snap, &mut first_ref[..n], &mut order[..n])
    } else {
        canonical_order(alg, snap, &mut vec![usize::MAX; n], &mut vec![0; n])
    }
}

/// [`canonical_perm`] over caller-provided buffers of length `n`:
/// `first_ref` starts all `usize::MAX`, `order` is scratch.
fn canonical_order(
    alg: &dyn DynAutomaton,
    snap: &Snapshot<DynState>,
    first_ref: &mut [usize],
    order: &mut [usize],
) -> Option<Perm> {
    let n = order.len();
    // The first register referencing a process ranks it within its run
    // of equal local keys. Scanning registers in index order keeps the
    // choice a function of the orbit, not of the incoming labelling.
    for j in 0..alg.registers() {
        if let Some(p) = alg.dyn_pid_in_value(RegisterId::new(j), snap.registers()[j]) {
            if p.index() < n && first_ref[p.index()] == usize::MAX {
                first_ref[p.index()] = j;
            }
        }
    }
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    // Unreferenced processes with equal keys are interchangeable; the
    // pid makes the order total, so an unstable sort is deterministic.
    order.sort_unstable_by(|&a, &b| {
        local_key(snap, a)
            .cmp(&local_key(snap, b))
            .then(first_ref[a].cmp(&first_ref[b]))
            .then(a.cmp(&b))
    });
    if order.iter().enumerate().all(|(slot, &p)| slot == p) {
        return None;
    }
    let mut map = vec![0; n];
    for (slot, &p) in order.iter().enumerate() {
        map[p] = slot;
    }
    Some(Perm { map })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Automaton, NextStep, Observation};
    use crate::dynamic::{DynRef, Packed};
    use crate::ids::Value;
    use crate::step::CritKind;
    use crate::system::System;

    #[test]
    fn perm_algebra_holds() {
        let p = Perm::from_map(vec![2, 0, 1]);
        assert!(!p.is_identity());
        assert_eq!(p.apply_index(0), 2);
        assert_eq!(p.inverse().then(&p).map, Perm::identity(3).map);
        assert_eq!(p.then(&p.inverse()).map, Perm::identity(3).map);
        assert_eq!(p.apply(ProcessId::new(1)), ProcessId::new(0));
        assert!(Perm::identity(4).is_identity());
    }

    #[test]
    #[should_panic(expected = "not a bijection")]
    fn non_bijections_are_rejected() {
        let _ = Perm::from_map(vec![0, 0, 1]);
    }

    /// A minimal fully symmetric automaton: each process writes its id
    /// (+1) to a single register, then enters when it reads itself.
    struct OwnId {
        n: usize,
    }

    impl Automaton for OwnId {
        type State = u8;
        fn processes(&self) -> usize {
            self.n
        }
        fn registers(&self) -> usize {
            1
        }
        fn initial_state(&self, _p: ProcessId) -> u8 {
            0
        }
        fn next_step(&self, p: ProcessId, s: &u8) -> NextStep {
            match s {
                0 => NextStep::Crit(CritKind::Try),
                1 => NextStep::Write(RegisterId::new(0), p.index() as Value + 1),
                2 => NextStep::Read(RegisterId::new(0)),
                3 => NextStep::Crit(CritKind::Enter),
                4 => NextStep::Crit(CritKind::Exit),
                _ => NextStep::Crit(CritKind::Rem),
            }
        }
        fn observe(&self, p: ProcessId, s: &u8, o: Observation) -> u8 {
            match (*s, o) {
                (2, Observation::Read(v)) => {
                    if v == p.index() as Value + 1 {
                        3
                    } else {
                        2
                    }
                }
                (5, _) => 0,
                _ => s + 1,
            }
        }
        fn symmetric(&self) -> bool {
            true
        }
        fn permute_register_value(&self, _r: RegisterId, v: Value, perm: &Perm) -> Value {
            if v == 0 {
                0
            } else {
                perm.apply_index(v as usize - 1) as Value + 1
            }
        }
        fn pid_in_value(&self, _r: RegisterId, v: Value) -> Option<ProcessId> {
            (v > 0).then(|| ProcessId::new(v as usize - 1))
        }
    }

    fn all_perms(n: usize) -> Vec<Perm> {
        let mut out = Vec::new();
        let mut idx: Vec<usize> = (0..n).collect();
        permute_rec(&mut idx, 0, &mut out);
        out
    }

    fn permute_rec(idx: &mut Vec<usize>, k: usize, out: &mut Vec<Perm>) {
        if k == idx.len() {
            out.push(Perm::from_map(idx.clone()));
            return;
        }
        for i in k..idx.len() {
            idx.swap(k, i);
            permute_rec(idx, k + 1, out);
            idx.swap(k, i);
        }
    }

    #[test]
    fn canonicalization_is_invariant_and_idempotent_along_a_run() {
        let alg = Packed(OwnId { n: 3 });
        let dref = DynRef(&alg);
        let mut sys = System::new(&dref);
        let perms = all_perms(3);
        // Drive an asymmetric-looking interleaving and check every
        // prefix snapshot.
        let schedule = [0usize, 1, 0, 0, 2, 1, 0, 1, 2, 0, 1];
        for &p in &schedule {
            sys.step(ProcessId::new(p));
            let snap = sys.snapshot();
            let (canon, used) = canonicalize_snapshot(&alg, &snap);
            // Membership: the representative is the permuted original.
            assert_eq!(canon, permute_snapshot(&alg, &snap, &used));
            // Idempotence.
            let (again, _) = canonicalize_snapshot(&alg, &canon);
            assert_eq!(again, canon);
            // Invariance over the whole orbit.
            for pi in &perms {
                let relabelled = permute_snapshot(&alg, &snap, pi);
                let (c2, _) = canonicalize_snapshot(&alg, &relabelled);
                assert_eq!(c2, canon, "orbit member disagrees under {pi:?}");
            }
        }
    }

    #[test]
    fn asymmetric_algorithms_fall_back_to_identity() {
        struct NotSym;
        impl Automaton for NotSym {
            type State = u8;
            fn processes(&self) -> usize {
                2
            }
            fn registers(&self) -> usize {
                1
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
        let alg = Packed(NotSym);
        let dref = DynRef(&alg);
        let sys = System::new(&dref);
        let snap = sys.snapshot();
        let (canon, perm) = canonicalize_snapshot(&alg, &snap);
        assert_eq!(canon, snap);
        assert!(perm.is_identity());
    }
}
