//! Property coverage for the erased-state contract the explorer's
//! transposition table leans on: `DynState` hashing and equality agree
//! with the concrete states under both representations (inline words
//! and boxed), `System` snapshots round-trip bit-identically, also
//! through the buffer-reusing `restore` and `snapshot_into`, and the
//! paper's locks pack their states losslessly and injectively.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use exclusion::mutex::{
    AlgorithmRegistry, Bakery, BurnsLynch, DekkerTournament, Dijkstra, Filter, Peterson, RPeterson,
};
use exclusion::shmem::dynamic::{DynState, WordState};
use exclusion::shmem::sched::{Scheduler, Script};
use exclusion::shmem::{Automaton, DynRef, ProcessId, SchedContext, Snapshot, System, ViewTable};
use proptest::prelude::*;

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Boxed erasure forwards `hash` to the typed state's own impl and
    /// `eq` to the typed equality: a boxed `DynState` is
    /// hash/eq-indistinguishable from its concrete counterpart.
    #[test]
    fn boxed_states_agree_with_their_concrete_counterparts(
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let da = DynState::boxed(a);
        let db = DynState::boxed(b);
        prop_assert_eq!(da == db, a == b);
        prop_assert_eq!(hash_of(&da), hash_of(&a), "boxed hash == typed hash");
        if a != b {
            prop_assert!(hash_of(&da) != hash_of(&db));
        }
    }

    /// Inline (word-packed) erasure: equality mirrors the concrete
    /// equality, `pack` stays injective (distinct states ⇒ distinct
    /// words), the packed words round-trip, and hashing mirrors the
    /// words exactly — the SC model's state-equality contract.
    #[test]
    fn packed_states_agree_with_their_concrete_counterparts(
        a in any::<u32>(),
        b in any::<u32>(),
        flag in any::<bool>(),
    ) {
        let pa = (a, flag);
        let pb = (b, flag);
        let da = DynState::from_words(&pa);
        let db = DynState::from_words(&pb);
        prop_assert_eq!(da == db, pa == pb);
        prop_assert_eq!(da.to_words::<(u32, bool)>(), Some(pa), "round-trip");
        // Inline states hash their words, so the hash agrees with the
        // packed image of the concrete state.
        let mut words = [0u64; 2];
        pa.pack(&mut words);
        prop_assert_eq!(hash_of(&da), hash_of(&&words[..]));
        if pa != pb {
            prop_assert!(da.words() != db.words(), "pack must be injective");
        }
    }

    /// Snapshot → restore → snapshot is bit-identical (equal and
    /// equal-hashing) at every prefix of a real run, through the erased
    /// dyn path, and the restored system continues exactly like the
    /// original.
    #[test]
    fn snapshots_roundtrip_bit_identically_along_real_runs(
        alg_idx in 0usize..11,
        n in 2usize..=3,
        seed in any::<u64>(),
        cut in 1usize..40,
    ) {
        let registry = AlgorithmRegistry::global();
        let name = &registry.names()[alg_idx];
        let handle = registry.resolve_str(name, n).expect("resolves").automaton;
        let dref = DynRef(handle.as_ref());

        // Drive a seeded random run and stop at the cut point.
        let mut sched = exclusion::shmem::sched::Random::new(seed);
        let mut sys = System::new(&dref);
        let mut table = ViewTable::new(&sys, 1, sched.wants_step_previews());
        let mut picks = Vec::new();
        for step in 0..cut {
            let ctx = SchedContext { step, target_passages: 1, views: table.views() };
            let Some(p) = sched.pick(&ctx) else { break };
            table.step(&mut sys, p);
            picks.push(p);
        }

        let snap = sys.snapshot();
        let mut restored = System::from_snapshot(&dref, &snap);
        prop_assert_eq!(restored.snapshot(), snap.clone(), "{}: restore must be exact", name);
        prop_assert_eq!(hash_of(&restored.snapshot()), hash_of(&snap), "{}", name);

        // The buffer-reusing forms match: `restore` into a system that
        // holds another configuration, and `snapshot_into` a buffer that
        // holds another (larger) instance's snapshot.
        let mut reused = System::new(&dref);
        for p in ProcessId::all(n) {
            reused.step(p);
        }
        reused.restore(&snap);
        prop_assert_eq!(reused.snapshot(), snap.clone(), "{}: restore must be exact", name);
        let bigger = registry.resolve_str(name, n + 1).expect("resolves").automaton;
        let mut buf = System::new(&DynRef(bigger.as_ref())).snapshot();
        let wrong = buf.clone();
        sys.snapshot_into(&mut buf);
        prop_assert_eq!(&buf, &snap, "{}: snapshot_into must be exact", name);
        prop_assert_eq!(hash_of(&buf), hash_of(&snap), "{}", name);
        // A snapshot of the wrong size is refused by both forms.
        let fresh = catch_unwind(AssertUnwindSafe(|| System::from_snapshot(&dref, &wrong).processes()));
        prop_assert!(fresh.is_err(), "{}: from_snapshot took a foreign snapshot", name);
        let reuse = catch_unwind(AssertUnwindSafe(|| reused.restore(&wrong)));
        prop_assert!(reuse.is_err(), "{}: restore took a foreign snapshot", name);

        // Both systems take the same continuation and stay in lockstep.
        for p in ProcessId::all(n) {
            if sys.passages(p) >= 1 {
                continue;
            }
            let a = sys.step(p);
            let b = restored.step(p);
            prop_assert_eq!(a, b, "{}: divergence after restore", name);
        }
        prop_assert_eq!(sys.snapshot(), restored.snapshot(), "{}", name);

        // And the pick sequence replays from scratch to the pre-cut
        // snapshot: snapshots key on exactly the run history's effect.
        if !picks.is_empty() {
            let mut replayed = System::new(&dref);
            let mut script = Script::new(picks.clone());
            for step in 0..picks.len() {
                let ctx = SchedContext { step, target_passages: 1, views: &[] };
                let p = script.pick(&ctx).expect("script covers the range");
                replayed.step(p);
            }
            prop_assert_eq!(replayed.snapshot(), snap, "{}: replay must land on the snapshot", name);
        }
    }
}

/// Every process state of `alg` reachable with at most `passages`
/// passages per process, by breadth-first search over whole snapshots;
/// with `crashes`, a crash of any incomplete process is a step too.
fn reachable_states<A>(alg: &A, passages: usize, crashes: bool) -> HashSet<A::State>
where
    A: Automaton,
    A::State: Hash,
{
    let n = alg.processes();
    let root = System::new(alg).snapshot();
    let mut seen: HashSet<Snapshot<A::State>> = HashSet::from([root.clone()]);
    let mut queue = VecDeque::from([root]);
    let mut states = HashSet::new();
    while let Some(snap) = queue.pop_front() {
        states.extend(snap.states().iter().cloned());
        for p in ProcessId::all(n).filter(|p| snap.passages()[p.index()] < passages) {
            for crash in [false, true].into_iter().take(1 + usize::from(crashes)) {
                let mut sys = System::from_snapshot(alg, &snap);
                if crash {
                    sys.crash(p);
                } else {
                    sys.step(p);
                }
                let next = sys.snapshot();
                if seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
    }
    states
}

/// The process states of seeded random walks on `alg`: each walk picks
/// an incomplete process by an xorshift stream (crashing it instead one
/// pick in eight under `crashes`) and restarts once every process has
/// completed `passages` passages.
fn walked_states<A>(alg: &A, passages: usize, crashes: bool, seed: u64) -> HashSet<A::State>
where
    A: Automaton,
    A::State: Hash,
{
    let n = alg.processes();
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut sys = System::new(alg);
    let mut states = HashSet::new();
    for _ in 0..20_000 {
        let live: Vec<ProcessId> = ProcessId::all(n)
            .filter(|&p| sys.passages(p) < passages)
            .collect();
        if live.is_empty() {
            sys = System::new(alg);
            continue;
        }
        let p = live[(next() % live.len() as u64) as usize];
        if crashes && next() % 8 == 0 {
            sys.crash(p);
        } else {
            sys.step(p);
        }
        states.insert(sys.state(p).clone());
    }
    states
}

/// `unpack(pack(s)) == s` for every state in `states`, and `pack` is
/// injective on them: no two distinct states share their words.
fn assert_packs_losslessly<S: WordState>(label: &str, states: &HashSet<S>) {
    let mut by_words: HashMap<Vec<u64>, S> = HashMap::new();
    for &s in states {
        let mut words = vec![0u64; S::WORDS];
        s.pack(&mut words);
        assert_eq!(S::unpack(&words), s, "{label}: {s:?} does not round-trip");
        let inline = DynState::from_words(&s);
        assert_eq!(inline.words(), Some(&words[..]), "{label}: {s:?}");
        if let Some(other) = by_words.insert(words.clone(), s) {
            assert_eq!(other, s, "{label}: {other:?} and {s:?} pack to {words:?}");
        }
    }
}

/// The states of `make(n)` reachable by exploration at n = 2 and 3 and
/// by seeded random walks at n = 8, packed and checked.
fn check_lock<A, F>(name: &str, make: F, crashes: bool)
where
    A: Automaton,
    A::State: WordState,
    F: Fn(usize) -> A,
{
    for (n, passages) in [(2, 2), (3, 1)] {
        let states = reachable_states(&make(n), passages, crashes);
        assert!(states.len() > 4, "{name} n={n}: {} states", states.len());
        assert_packs_losslessly(&format!("{name} n={n}"), &states);
    }
    let big = make(8);
    for seed in 0..4 {
        let states = walked_states(&big, 2, crashes, seed);
        assert_packs_losslessly(&format!("{name} n=8 seed={seed}"), &states);
    }
}

/// The seven register-only locks the registry hands out as inline word
/// states: every state they reach packs losslessly and injectively
/// (the SC model charges on state inequality, so a collision would drop
/// charges). rpeterson's healing states are reached through crashes.
#[test]
fn paper_lock_states_pack_losslessly_and_injectively() {
    check_lock("dekker-tree", DekkerTournament::new, false);
    check_lock("peterson", Peterson::new, false);
    check_lock("bakery", Bakery::new, false);
    check_lock("filter", Filter::new, false);
    check_lock("dijkstra", Dijkstra::new, false);
    check_lock("burns-lynch", BurnsLynch::new, false);
    check_lock("rpeterson", RPeterson::new, true);
}
