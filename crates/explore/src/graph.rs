//! The parallel bounded-exploration core: a transposition table over
//! canonical [`Snapshot`]s, expanded breadth-first by a work-stealing
//! frontier sharded across `thread::scope` workers.
//!
//! Exploration is generic over a [`CostLens`]: a pricing rule that
//! carries whatever extra per-node state its cost model needs (the CC
//! model's cache-validity masks) and charges each edge as it is
//! discovered. Memoryless models (SC, DSM) use a `()` digest, so their
//! search space is exactly the reachable snapshot graph; the CC lens
//! explores the product of snapshots and cache states.
//!
//! The table is sharded: each shard owns an index from key hash to
//! node and the node storage for the keys whose hash picks it, behind
//! its own mutex, so concurrent inserts from different workers rarely
//! contend. Each key is hashed once ([`key_hash`]): bits 32 and up of
//! the hash pick the shard, and the shard's index is keyed by the hash
//! itself. The index's `HashMap` takes its slot from the hash's low bits
//! and its SIMD tag from the top seven, so the shard bits stay clear of
//! both and every key in a shard keeps its full tag entropy.
//! Workers pull chunks of the current BFS layer from a shared cursor
//! (dynamic partitioning — a fast worker steals the work a slow one
//! never claimed) and accumulate the next layer locally; layers are
//! merged at a barrier, which is what makes node *depths* — and
//! therefore every verdict derived from the graph — independent of the
//! worker count.
//!
//! Expanding an edge allocates nothing unless its target is new: each
//! worker keeps one scratch [`System`], snapshot and digest, restores
//! the parent into them for every successor, and copies a successor
//! into the table and the next layer only when it is fresh. A layer
//! gets one worker per [`GRAIN`] states (at most the configured
//! count). The calling thread is always one of them, so a layer with
//! one worker spawns no thread: a thread spawn costs more than
//! expanding a small layer.
//!
//! # Orbit reduction
//!
//! For algorithms declaring process-permutation symmetry
//! ([`DynAutomaton::dyn_symmetric`]), every discovered snapshot is
//! replaced by the canonical representative of its orbit
//! ([`canonical_perm`]) before interning, so the table holds one
//! node per orbit — up to `n!` fewer states — and every stored schedule
//! lives in *canonical frames*: the pid recorded on an edge is the pid
//! in the canonical relabelling of its source node, not in the original
//! run. [`Decanon`] folds the recorded permutations back together to
//! turn such a schedule into a bit-identically replayable one. Cost
//! digests ride along through [`CostLens::permute_digest`], and a lens
//! whose prices are *not* permutation-invariant opts out via
//! [`CostLens::symmetry_compatible`].

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use exclusion_shmem::dynamic::{DynAutomaton, DynRef, DynState};
use exclusion_shmem::probe::{Probe, TraceEvent};
use exclusion_shmem::{
    canonical_perm, permute_snapshot, CritKind, Executed, NextStep, Perm, ProcessId, Section,
    Snapshot, System,
};

use crate::ExploreConfig;

/// A canonical system snapshot over erased states — the transposition
/// key of the explorer.
pub(crate) type Snap = Snapshot<DynState>;

/// Sentinel parent id of the root node.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Frontier chunk claimed per cursor fetch.
const CHUNK: usize = 32;

/// Layer states per worker: a layer of `k` states is expanded by
/// `min(workers, k / GRAIN)` workers, at least one. Expanding a state
/// takes about a microsecond and spawning plus joining a thread tens of
/// microseconds, so a worker needs hundreds of states to pay for
/// itself.
pub const GRAIN: usize = 512;

/// End of a chain of same-hash nodes in a shard.
const NO_NODE: u32 = u32::MAX;

/// A cost model's view of exploration: the extra state it carries per
/// node and the price of each executed step.
pub(crate) trait CostLens: Sync {
    /// Cost-model state rides alongside the snapshot in the
    /// transposition key; `()` for memoryless models.
    type Digest: Clone + Eq + Hash + Send + Sync;

    /// The digest at the initial system state of an algorithm with
    /// `registers` registers.
    fn initial(&self, registers: usize) -> Self::Digest;

    /// Advances the digest over one executed step and returns the
    /// step's charge.
    fn price(&self, digest: &mut Self::Digest, done: &Executed) -> u32;

    /// How many more crash injections the explorer may branch on from a
    /// node with this digest. The default of `0` disables crash
    /// expansion entirely, so the cost-model lenses explore exactly the
    /// crash-free snapshot graph they always did; only the crash
    /// certification lens overrides this with its remaining budget.
    fn crash_allowance(&self, _digest: &Self::Digest) -> usize {
        0
    }

    /// Relabels the digest under a process permutation, so that pricing
    /// a step in the canonical frame charges exactly what the original
    /// frame would have. The default clone is correct for every digest
    /// that mentions no process ids (`()`, crash counts); a lens whose
    /// digest is pid-indexed (the CC cache masks) must permute it.
    fn permute_digest(&self, digest: &Self::Digest, _perm: &Perm) -> Self::Digest {
        digest.clone()
    }

    /// Whether this lens's prices are invariant under relabelling the
    /// processes of `alg` — the precondition for orbit reduction on its
    /// product graph. Defaults to `true`; the DSM lens refuses when any
    /// register has a home process (remote-access charges then depend
    /// on the labelling).
    fn symmetry_compatible(&self, _alg: &dyn DynAutomaton) -> bool {
        true
    }

    /// How many `u64` words [`digest_to_words`](CostLens::digest_to_words)
    /// writes for an algorithm with `registers` registers, or `None`
    /// when the digest has no fixed-width encoding — which disables the
    /// spill-to-disk frontier for this lens.
    fn digest_width(&self, _registers: usize) -> Option<usize> {
        None
    }

    /// Encodes the digest into exactly
    /// [`digest_width`](CostLens::digest_width) words.
    fn digest_to_words(&self, _digest: &Self::Digest, _out: &mut [u64]) {
        unreachable!("lens reports no digest width")
    }

    /// Decodes a digest previously written by
    /// [`digest_to_words`](CostLens::digest_to_words).
    fn digest_from_words(&self, _words: &[u64]) -> Self::Digest {
        unreachable!("lens reports no digest width")
    }
}

/// The state-change model of Definition 3.1: one unit per shared step
/// that changes the acting process's state. Memoryless.
pub(crate) struct ScLens;

impl CostLens for ScLens {
    type Digest = ();

    fn initial(&self, _registers: usize) -> Self::Digest {}

    fn price(&self, (): &mut Self::Digest, done: &Executed) -> u32 {
        u32::from(done.state_changed && done.step.register().is_some())
    }

    fn digest_width(&self, _registers: usize) -> Option<usize> {
        Some(0)
    }
    fn digest_to_words(&self, (): &Self::Digest, _out: &mut [u64]) {}
    fn digest_from_words(&self, _words: &[u64]) -> Self::Digest {}
}

/// The distributed-shared-memory model: one unit per access to a
/// register whose home is not the acting process. Memoryless.
pub(crate) struct DsmLens {
    home: Vec<Option<ProcessId>>,
}

impl DsmLens {
    pub(crate) fn new(alg: &dyn DynAutomaton) -> Self {
        DsmLens {
            home: exclusion_shmem::RegisterId::all(alg.registers())
                .map(|r| alg.register_home(r))
                .collect(),
        }
    }
}

impl CostLens for DsmLens {
    type Digest = ();

    fn initial(&self, _registers: usize) -> Self::Digest {}

    fn price(&self, (): &mut Self::Digest, done: &Executed) -> u32 {
        match done.step.register() {
            Some(reg) => u32::from(self.home[reg.index()] != Some(done.step.pid())),
            None => 0,
        }
    }

    /// A register with a home process breaks price invariance: after a
    /// relabelling, the same access pattern charges differently. With
    /// no homes at all every access is remote and the price depends on
    /// nothing but the step count — fully invariant.
    fn symmetry_compatible(&self, _alg: &dyn DynAutomaton) -> bool {
        self.home.iter().all(Option::is_none)
    }

    fn digest_width(&self, _registers: usize) -> Option<usize> {
        Some(0)
    }
    fn digest_to_words(&self, (): &Self::Digest, _out: &mut [u64]) {}
    fn digest_from_words(&self, _words: &[u64]) -> Self::Digest {}
}

/// The cache-coherent model: the digest holds, per register, the set of
/// processes with a valid cached copy (one bit per process), mirroring
/// the replay pricer's `cached` matrix exactly.
pub(crate) struct CcLens;

impl CostLens for CcLens {
    type Digest = Vec<u64>;

    fn initial(&self, registers: usize) -> Self::Digest {
        vec![0; registers] // nothing cached initially
    }

    fn price(&self, digest: &mut Self::Digest, done: &Executed) -> u32 {
        use exclusion_shmem::Step;
        match done.step {
            Step::Read { pid, reg } => {
                let bit = 1u64 << pid.index();
                if digest[reg.index()] & bit == 0 {
                    digest[reg.index()] |= bit;
                    1
                } else {
                    0
                }
            }
            // RMW claims the line exclusively, like a write.
            Step::Write { pid, reg, .. } | Step::Rmw { pid, reg, .. } => {
                digest[reg.index()] = 1u64 << pid.index();
                1
            }
            Step::Crit { .. } => 0,
            // A crash wipes the crashed process's cache: its next read of
            // every register is a miss again. The crash step itself is free,
            // matching the replay pricer's `rmr_cc_cost`.
            Step::Crash { pid } => {
                let bit = 1u64 << pid.index();
                for line in digest.iter_mut() {
                    *line &= !bit;
                }
                0
            }
        }
    }

    /// The cache masks are pid-indexed bitsets: relabelling the
    /// processes moves each process's valid bit to its new index.
    fn permute_digest(&self, digest: &Self::Digest, perm: &Perm) -> Self::Digest {
        digest
            .iter()
            .map(|&line| {
                let mut out = 0u64;
                let mut rest = line;
                while rest != 0 {
                    let p = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    out |= 1u64 << perm.apply_index(p);
                }
                out
            })
            .collect()
    }

    fn digest_width(&self, registers: usize) -> Option<usize> {
        Some(registers)
    }
    fn digest_to_words(&self, digest: &Self::Digest, out: &mut [u64]) {
        out.copy_from_slice(digest);
    }
    fn digest_from_words(&self, words: &[u64]) -> Self::Digest {
        words.to_vec()
    }
}

/// The crash-certification lens: the digest counts crashes injected so
/// far, so the explored space is the product of snapshots and
/// crashes-used — two paths reaching the same snapshot with different
/// remaining budgets are distinct nodes, because their futures differ.
/// Edge charges are irrelevant to a safety verdict, so every step
/// prices to zero.
pub(crate) struct CrashLens {
    /// Total crash injections the adversary may spend.
    pub budget: usize,
}

impl CostLens for CrashLens {
    type Digest = u8;

    fn initial(&self, _registers: usize) -> Self::Digest {
        0
    }

    fn price(&self, digest: &mut Self::Digest, done: &Executed) -> u32 {
        if matches!(done.step, exclusion_shmem::Step::Crash { .. }) {
            *digest += 1;
        }
        0
    }

    fn crash_allowance(&self, digest: &Self::Digest) -> usize {
        self.budget.saturating_sub(*digest as usize)
    }

    fn digest_width(&self, _registers: usize) -> Option<usize> {
        Some(1)
    }
    fn digest_to_words(&self, digest: &Self::Digest, out: &mut [u64]) {
        out[0] = u64::from(*digest);
    }
    fn digest_from_words(&self, words: &[u64]) -> Self::Digest {
        words[0] as u8
    }
}

/// One explored state after the graph is flattened: snapshots and
/// digests are dropped (they are only needed while expanding), leaving
/// the structure every verdict is computed from.
pub(crate) struct FlatNode {
    /// BFS distance from the initial state (deterministic: layers are
    /// barrier-synchronized).
    pub depth: u32,
    /// First discoverer ([`NO_PARENT`] for the root); parent chains are
    /// always valid root paths.
    pub parent: u32,
    /// The process whose step led here from `parent`.
    pub via: ProcessId,
    /// Whether the edge from `parent` was an injected crash of `via`
    /// rather than an ordinary step (always `false` for the cost-model
    /// lenses, whose crash allowance is zero).
    pub via_crash: bool,
    /// Whether every process has completed the passage target.
    pub goal: bool,
    /// Whether two processes are simultaneously in the critical section.
    pub violating: bool,
    /// Outgoing edges `(pid, target, cost)`, one per live process, in
    /// pid order. Empty for goal nodes — and for frontier nodes left
    /// unexpanded by a truncation or an early violation stop, which is
    /// why the progress analyses only run on untruncated graphs.
    pub succs: Vec<(ProcessId, u32, u32)>,
}

/// The flattened bounded reachability graph (product graph, for lenses
/// with a non-trivial digest).
pub(crate) struct BuiltGraph {
    pub nodes: Vec<FlatNode>,
    pub root: u32,
    pub edges: usize,
    /// Deepest BFS layer that holds a node.
    pub depth: u32,
    /// Whether `max_states`/`max_depth` cut exploration short (absence
    /// of a violation is then not a proof).
    pub truncated: bool,
    /// Violating nodes discovered in the first layer that has any.
    pub violations: Vec<u32>,
    /// Transposition-table hits over the whole build: insert calls that
    /// found an already interned state. Worker-count independent for
    /// untruncated builds (a truncation aborts workers mid-layer).
    pub dedup_hits: usize,
    /// Largest BFS frontier over the whole build.
    pub peak_frontier: usize,
    /// Whether orbit reduction was active: nodes are canonical orbit
    /// representatives and every recorded schedule lives in canonical
    /// frames — replay it through [`Decanon`], never directly.
    pub symmetric: bool,
}

/// Which nodes can reach a goal node — backward reachability over
/// predecessor lists. Shared by the progress (deadlock/livelock)
/// classification and the worst-case search, so the two engines cannot
/// diverge on what "can still complete" means.
pub(crate) fn live_set(graph: &BuiltGraph) -> Vec<bool> {
    let n = graph.nodes.len();
    // Predecessor lists in one CSR array: node `t`'s predecessors are
    // `preds[start[t]..start[t + 1]]`.
    let mut start = vec![0usize; n + 1];
    for node in &graph.nodes {
        for &(_, t, _) in &node.succs {
            start[t as usize + 1] += 1;
        }
    }
    for t in 0..n {
        start[t + 1] += start[t];
    }
    let mut fill = start.clone();
    let mut preds = vec![0u32; start[n]];
    for (u, node) in graph.nodes.iter().enumerate() {
        for &(_, t, _) in &node.succs {
            preds[fill[t as usize]] = u as u32;
            fill[t as usize] += 1;
        }
    }
    let mut live = vec![false; n];
    let mut work: Vec<u32> = (0..n as u32)
        .filter(|&u| graph.nodes[u as usize].goal)
        .collect();
    for &u in &work {
        live[u as usize] = true;
    }
    while let Some(u) = work.pop() {
        for &p in &preds[start[u as usize]..start[u as usize + 1]] {
            if !live[p as usize] {
                live[p as usize] = true;
                work.push(p);
            }
        }
    }
    live
}

impl BuiltGraph {
    /// The schedule (pid sequence) of the parent chain from the root to
    /// `id` — always a valid executable schedule.
    pub(crate) fn schedule_to(&self, id: u32) -> Vec<ProcessId> {
        self.steps_to(id).into_iter().map(|(p, _)| p).collect()
    }

    /// The parent chain as `(pid, crashed)` picks: `crashed` marks the
    /// indices where the edge was an injected crash rather than an
    /// ordinary step. Re-executing the chain (stepping on `false`,
    /// crashing on `true`) reproduces the node's system state exactly.
    pub(crate) fn steps_to(&self, id: u32) -> Vec<(ProcessId, bool)> {
        let mut out = Vec::new();
        let mut at = id;
        while self.nodes[at as usize].parent != NO_PARENT {
            out.push((
                self.nodes[at as usize].via,
                self.nodes[at as usize].via_crash,
            ));
            at = self.nodes[at as usize].parent;
        }
        out.reverse();
        out
    }
}

struct Shard<D> {
    /// Key hash → the newest node *within this shard* that carries it;
    /// older ones chain through [`BuildNode::next`] (collisions resolved
    /// by full key equality).
    index: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    nodes: Vec<BuildNode<D>>,
}

/// What a table node stores to recognize revisits.
enum StoredKey<D> {
    /// The full transposition key: exact, the default.
    Full(Snap, D),
    /// A 128-bit [`fingerprint`] of the key: an order of magnitude
    /// smaller, exact only modulo fingerprint collisions — reports
    /// built this way say so via `fingerprinted`.
    Fingerprint(u128),
}

impl<D: Eq> StoredKey<D> {
    fn matches(&self, snap: &Snap, digest: &D, fp: u128) -> bool {
        match self {
            StoredKey::Full(s, d) => s == snap && d == digest,
            StoredKey::Fingerprint(f) => *f == fp,
        }
    }
}

struct BuildNode<D> {
    key: StoredKey<D>,
    /// The next older node of this shard with the same key hash, or
    /// [`NO_NODE`].
    next: u32,
    flat: FlatNode,
}

struct Table<D> {
    shards: Vec<Mutex<Shard<D>>>,
    shard_bits: u32,
    count: AtomicUsize,
    /// Store fingerprints instead of full keys (`ExploreConfig::compress`).
    compress: bool,
}

/// The table's key hash: one multiply–rotate pass over the key's words
/// ([`WordHasher`]). A pure function of the key — identical across
/// workers and runs.
fn key_hash<D: Hash>(snap: &Snap, digest: &D) -> u64 {
    let mut h = WordHasher(0);
    snap.hash(&mut h);
    digest.hash(&mut h);
    h.finish()
}

/// Hashes a word at a time: rotate, xor the word in, multiply (the
/// FxHash step). `finish` avalanches the state (murmur3's `fmix64`), so
/// every output bit depends on every input bit — the shard is taken
/// from the middle bits and the shard's index from the rest.
struct WordHasher(u64);

impl WordHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.word(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.word(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.word(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.word(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The shard index's hasher: its keys already are [`key_hash`]es, so it
/// passes the one `u64` it is given through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the shard index hashes only u64 keys")
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The 128-bit key fingerprint [`ExploreConfig::compress`] stores in
/// place of the key: two [`DefaultHasher`] (SipHash) passes, the second
/// seeded with a fixed prefix so the halves are independent. A pure
/// function of the key — identical across workers and runs.
fn fingerprint<D: Hash>(snap: &Snap, digest: &D) -> u128 {
    let mut h1 = DefaultHasher::new();
    snap.hash(&mut h1);
    digest.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    0x9e37_79b9_7f4a_7c15u64.hash(&mut h2);
    snap.hash(&mut h2);
    digest.hash(&mut h2);
    (u128::from(h1.finish()) << 64) | u128::from(h2.finish())
}

impl<D: Eq> Table<D> {
    fn new(shard_count: usize, compress: bool) -> Self {
        Table {
            shards: (0..shard_count)
                .map(|_| {
                    Mutex::new(Shard {
                        index: HashMap::default(),
                        nodes: Vec::new(),
                    })
                })
                .collect(),
            shard_bits: shard_count.trailing_zeros(),
            count: AtomicUsize::new(0),
            compress,
        }
    }

    fn mask(&self) -> u64 {
        (self.shards.len() - 1) as u64
    }

    /// Interns `(snap, digest)`, returning its id and whether it was
    /// new. Ids pack the shard into the low bits so they can be decoded
    /// without a lookup. The key is only cloned into the table when it
    /// is actually new — revisits (the common case: every state is
    /// rediscovered once per predecessor) allocate nothing — and under
    /// `compress` only its fingerprint is kept.
    fn insert(&self, snap: &Snap, digest: &D, meta: FlatNode) -> (u32, bool)
    where
        D: Hash + Clone,
    {
        let hv = key_hash(snap, digest);
        let fp = if self.compress {
            fingerprint(snap, digest)
        } else {
            0
        };
        // Bits 32.. are neither the index's slot (low bits) nor its tag
        // (top seven); at most 1,024 shards keeps them below bit 57.
        let s = ((hv >> 32) & self.mask()) as usize;
        let mut guard = self.shards[s].lock().expect("shard poisoned");
        let Shard { index, nodes } = &mut *guard;
        let idx = nodes.len() as u32;
        let next = match index.entry(hv) {
            Entry::Occupied(mut head) => {
                let mut at = *head.get();
                while at != NO_NODE {
                    let node = &nodes[at as usize];
                    if node.key.matches(snap, digest, fp) {
                        return ((at << self.shard_bits) | s as u32, false);
                    }
                    at = node.next;
                }
                head.insert(idx)
            }
            Entry::Vacant(head) => {
                head.insert(idx);
                NO_NODE
            }
        };
        nodes.push(BuildNode {
            key: if self.compress {
                StoredKey::Fingerprint(fp)
            } else {
                StoredKey::Full(snap.clone(), digest.clone())
            },
            next,
            flat: meta,
        });
        self.count.fetch_add(1, Ordering::Relaxed);
        ((idx << self.shard_bits) | s as u32, true)
    }

    fn set_succs(&self, id: u32, succs: Vec<(ProcessId, u32, u32)>) {
        let s = (id & self.mask() as u32) as usize;
        let idx = (id >> self.shard_bits) as usize;
        let mut guard = self.shards[s].lock().expect("shard poisoned");
        guard.nodes[idx].flat.succs = succs;
    }

    /// Flattens the sharded storage into one dense node vector,
    /// remapping every id (shard-packed → dense) arithmetically.
    fn flatten(self, root: u32, violations: Vec<u32>) -> (Vec<FlatNode>, u32, Vec<u32>, usize) {
        let bits = self.shard_bits;
        let mask = self.mask() as u32;
        let mut offsets = Vec::with_capacity(self.shards.len());
        let mut total = 0u32;
        let inners: Vec<Shard<D>> = self
            .shards
            .into_iter()
            .map(|m| m.into_inner().expect("shard poisoned"))
            .collect();
        for shard in &inners {
            offsets.push(total);
            total += shard.nodes.len() as u32;
        }
        let remap = |id: u32| offsets[(id & mask) as usize] + (id >> bits);
        let mut nodes = Vec::with_capacity(total as usize);
        let mut edges = 0usize;
        for shard in inners {
            for node in shard.nodes {
                let mut flat = node.flat;
                if flat.parent != NO_PARENT {
                    flat.parent = remap(flat.parent);
                }
                for (_, target, _) in &mut flat.succs {
                    *target = remap(*target);
                }
                edges += flat.succs.len();
                nodes.push(flat);
            }
        }
        (
            nodes,
            remap(root),
            violations.into_iter().map(remap).collect(),
            edges,
        )
    }
}

fn resolved_workers(cfg: &ExploreConfig) -> usize {
    if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        cfg.workers
    }
}

#[cfg(unix)]
fn section_word(s: Section) -> u64 {
    match s {
        Section::Remainder => 0,
        Section::Trying => 1,
        Section::Critical => 2,
        Section::Exit => 3,
    }
}

#[cfg(unix)]
fn word_section(w: u64) -> Section {
    match w {
        0 => Section::Remainder,
        1 => Section::Trying,
        2 => Section::Critical,
        3 => Section::Exit,
        _ => unreachable!("invalid section word {w}"),
    }
}

#[cfg(unix)]
fn write_words(sink: &mut impl std::io::Write, words: &[u64]) -> std::io::Result<()> {
    for &w in words {
        sink.write_all(&w.to_le_bytes())?;
    }
    Ok(())
}

/// Fixed-width `u64` record codec for spilled frontier layers — one
/// record per entry: `[id, states (n·w words), registers, sections,
/// passages, digest]`. Only constructible when every process state uses
/// the inline-word representation and the lens has a fixed-width digest
/// encoding; anything else keeps the in-memory frontier.
#[cfg(unix)]
#[derive(Clone, Copy)]
struct SpillCodec {
    n: usize,
    regs: usize,
    state_words: usize,
    digest_words: usize,
}

/// A completed BFS layer parked on disk: an *unlinked* temp file (the
/// data lives through the handle, so nothing leaks even on panic) of
/// fixed-size records, streamed back chunk-at-a-time during expansion.
#[cfg(unix)]
struct SpilledLayer {
    file: std::fs::File,
    /// Number of records in the file.
    len: usize,
    /// Whether any spilled snapshot still has an incomplete process —
    /// precomputed at write time so the `max_depth` truncation check
    /// needs no read-back.
    incomplete: bool,
}

#[cfg(unix)]
impl SpillCodec {
    fn plan<L: CostLens>(lens: &L, root: &Snap, regs: usize) -> Option<SpillCodec> {
        let digest_words = lens.digest_width(regs)?;
        let state_words = root.states().first()?.words()?.len();
        Some(SpillCodec {
            n: root.states().len(),
            regs,
            state_words,
            digest_words,
        })
    }

    fn rec_words(&self) -> usize {
        1 + self.n * self.state_words + self.regs + 2 * self.n + self.digest_words
    }

    fn encode<L: CostLens>(
        &self,
        lens: &L,
        id: u32,
        snap: &Snap,
        digest: &L::Digest,
        out: &mut Vec<u64>,
    ) -> Option<()> {
        out.push(u64::from(id));
        for s in snap.states() {
            out.extend_from_slice(s.words()?);
        }
        out.extend_from_slice(snap.registers());
        out.extend(snap.sections().iter().map(|&s| section_word(s)));
        out.extend(snap.passages().iter().map(|&p| p as u64));
        let at = out.len();
        out.resize(at + self.digest_words, 0);
        lens.digest_to_words(digest, &mut out[at..]);
        Some(())
    }

    fn decode<L: CostLens>(&self, lens: &L, rec: &[u64]) -> (u32, Snap, L::Digest) {
        let mut at = 0usize;
        let id = rec[at] as u32;
        at += 1;
        let mut states = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            states.push(DynState::from_raw_words(&rec[at..at + self.state_words]));
            at += self.state_words;
        }
        let regs = rec[at..at + self.regs].to_vec();
        at += self.regs;
        let sections = rec[at..at + self.n]
            .iter()
            .map(|&w| word_section(w))
            .collect();
        at += self.n;
        let passages = rec[at..at + self.n].iter().map(|&w| w as usize).collect();
        at += self.n;
        let digest = lens.digest_from_words(&rec[at..at + self.digest_words]);
        (
            id,
            Snapshot::from_parts(states, regs, sections, passages),
            digest,
        )
    }

    /// Writes a merged layer to a fresh anonymous temp file.
    fn spill<L: CostLens>(
        &self,
        lens: &L,
        layer: &[(u32, Snap, L::Digest)],
        passages: usize,
    ) -> std::io::Result<SpilledLayer> {
        use std::io::Write;
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "exclusion-spill-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        let _ = std::fs::remove_file(&path);
        let flush_at = self.rec_words() * 1024;
        let mut incomplete = false;
        let mut words: Vec<u64> = Vec::with_capacity(flush_at + self.rec_words());
        let mut sink = std::io::BufWriter::new(&file);
        for (id, snap, digest) in layer {
            if self.encode(lens, *id, snap, digest, &mut words).is_none() {
                return Err(std::io::Error::other("non-inline state in spill layer"));
            }
            incomplete |= snap.passages().iter().any(|&p| p < passages);
            if words.len() >= flush_at {
                write_words(&mut sink, &words)?;
                words.clear();
            }
        }
        write_words(&mut sink, &words)?;
        sink.flush()?;
        drop(sink);
        Ok(SpilledLayer {
            file,
            len: layer.len(),
            incomplete,
        })
    }

    /// Reads records `[start, start + count)` back into `buf`.
    fn read_into<L: CostLens>(
        &self,
        lens: &L,
        sp: &SpilledLayer,
        start: usize,
        count: usize,
        buf: &mut Vec<(u32, Snap, L::Digest)>,
    ) {
        use std::os::unix::fs::FileExt;
        let rw = self.rec_words();
        let mut bytes = vec![0u8; count * rw * 8];
        sp.file
            .read_exact_at(&mut bytes, (start * rw * 8) as u64)
            .expect("spilled frontier read failed");
        buf.clear();
        let mut words = vec![0u64; rw];
        for rec in bytes.chunks_exact(rw * 8) {
            for (w, b) in words.iter_mut().zip(rec.chunks_exact(8)) {
                *w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
            buf.push(self.decode(lens, &words));
        }
    }
}

/// The current BFS layer: in memory, or parked on disk behind the
/// `spill` flag.
enum Layer<D> {
    Mem(Vec<(u32, Snap, D)>),
    #[cfg(unix)]
    Disk(SpillCodec, SpilledLayer),
}

impl<D> Layer<D> {
    fn len(&self) -> usize {
        match self {
            Layer::Mem(v) => v.len(),
            #[cfg(unix)]
            Layer::Disk(_, sp) => sp.len,
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn any_incomplete(&self, passages: usize) -> bool {
        match self {
            Layer::Mem(v) => v
                .iter()
                .any(|(_, snap, _)| snap.passages().iter().any(|&p| p < passages)),
            #[cfg(unix)]
            Layer::Disk(_, sp) => sp.incomplete,
        }
    }
}

/// Explores the bounded state space of `alg` under `lens` and returns
/// the flattened graph. When `stop_on_violation` is set, exploration
/// halts after the first BFS layer containing a mutual exclusion
/// violation — the layer itself is always completed, so state/edge
/// counts and depths stay worker-count independent, and every recorded
/// violation is at minimal depth; deeper layers are not explored (the
/// graph is partial, which is why the progress analyses only run on
/// violation-free graphs).
///
/// `probe` observes the build as one [`TraceEvent::Layer`] per
/// barrier-merged BFS layer, emitted on the coordinator thread after
/// the barrier — so the event stream, like the graph itself, is
/// independent of the worker count.
pub(crate) fn build<L: CostLens, P: Probe + ?Sized>(
    alg: &(dyn DynAutomaton + Sync),
    lens: &L,
    cfg: &ExploreConfig,
    stop_on_violation: bool,
    probe: &mut P,
) -> BuiltGraph {
    assert!(cfg.passages >= 1, "exploration needs a passage target");
    let n = alg.processes();
    assert!(n <= 64, "the explorer supports at most 64 processes");
    let workers = resolved_workers(cfg);
    // Bounds that cannot be honored are refused up front with the
    // structured [`ExploreError`] message instead of asserting after
    // the shard back-off below has already run out of room.
    if let Err(e) = cfg.validated() {
        panic!("{e}");
    }
    // Node ids pack the shard into their low bits, so the per-shard
    // index budget shrinks with the shard count; trade contention for
    // headroom when the state cap is huge. `validated()` above
    // guarantees the 16-shard floor always leaves enough index space.
    let mut shard_count = (workers * 8).next_power_of_two().clamp(16, 1024);
    while shard_count > 16 && cfg.max_states >= (u32::MAX as usize) >> shard_count.trailing_zeros()
    {
        shard_count /= 2;
    }
    debug_assert!(cfg.max_states < (u32::MAX as usize) >> shard_count.trailing_zeros());
    let table: Table<L::Digest> = Table::new(shard_count, cfg.compress);
    let truncated = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let violations: Mutex<Vec<u32>> = Mutex::new(Vec::new());

    // Orbit reduction is on only when the config asks for it, the
    // algorithm declares the symmetry contract, and the lens's prices
    // survive relabelling. (`canonical_perm` additionally falls back to
    // identity for boxed states, which keeps the build — and the
    // de-canonicalization helpers, which go through the same function —
    // sound even then.)
    let symmetric = cfg.symmetry && n > 1 && alg.dyn_symmetric() && lens.symmetry_compatible(alg);

    let dref = DynRef(alg);
    let mut root_snap = System::new(&dref).snapshot();
    let mut root_digest = lens.initial(alg.registers());
    if let Some(perm) = symmetric.then(|| canonical_perm(alg, &root_snap)).flatten() {
        root_snap = permute_snapshot(alg, &root_snap, &perm);
        root_digest = lens.permute_digest(&root_digest, &perm);
    }
    let root_goal = root_snap.passages().iter().all(|&p| p >= cfg.passages);
    let (root, _) = table.insert(
        &root_snap,
        &root_digest,
        FlatNode {
            depth: 0,
            parent: NO_PARENT,
            via: ProcessId::new(0),
            via_crash: false,
            goal: root_goal,
            violating: false,
            succs: Vec::new(),
        },
    );

    #[cfg(unix)]
    let spill_codec = if cfg.spill {
        SpillCodec::plan(lens, &root_snap, alg.registers())
    } else {
        None
    };
    let mut frontier: Layer<L::Digest> = Layer::Mem(vec![(root, root_snap, root_digest)]);
    let mut depth = 0u32;
    let mut dedup_hits = 0usize;
    let mut peak_frontier = 0usize;
    loop {
        if frontier.is_empty() || stop.load(Ordering::Relaxed) {
            break;
        }
        peak_frontier = peak_frontier.max(frontier.len());
        if cfg.max_depth.is_some_and(|d| depth as usize >= d) {
            if frontier.any_incomplete(cfg.passages) {
                truncated.store(true, Ordering::Relaxed);
            }
            break;
        }
        let cursor = AtomicUsize::new(0);
        let layer = &frontier;
        let states_before = table.count.load(Ordering::Relaxed);
        // One worker's pass over the layer: pull chunks until none are
        // left, returning the fresh states it interned (the worker's
        // share of the next layer) and its insert count.
        let expand = || {
            let dref = DynRef(alg);
            // Scratch state, reused for every successor: the parent is
            // restored into `sys` and the successor read back into
            // `snap2`/`d2`, so only fresh states are ever copied.
            let mut sys = System::new(&dref);
            let mut snap2 = sys.snapshot();
            let mut d2 = lens.initial(alg.registers());
            let mut succs: Vec<(ProcessId, u32, u32)> = Vec::new();
            let mut local = Vec::new();
            let mut inserts = 0usize;
            #[cfg(unix)]
            let mut chunk_buf: Vec<(u32, Snap, L::Digest)> = Vec::new();
            'pull: loop {
                let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                if start >= layer.len() || stop.load(Ordering::Relaxed) {
                    break;
                }
                let end = (start + CHUNK).min(layer.len());
                let items = match layer {
                    Layer::Mem(v) => &v[start..end],
                    #[cfg(unix)]
                    Layer::Disk(codec, sp) => {
                        codec.read_into(lens, sp, start, end - start, &mut chunk_buf);
                        chunk_buf.as_slice()
                    }
                };
                for (id, snap, digest) in items {
                    if stop.load(Ordering::Relaxed) {
                        break 'pull;
                    }
                    if snap.passages().iter().all(|&p| p >= cfg.passages) {
                        continue; // goal: nothing to expand
                    }
                    succs.clear();
                    // Ordinary steps first, then (budget permitting) one
                    // crash injection per incomplete process — both in
                    // pid order, so parent races resolve to the same
                    // lexicographic witness order crash-free builds have
                    // always had.
                    let crashes = lens.crash_allowance(digest) > 0;
                    // Ample-set reduction: a `try`/`rem` step is local
                    // (no register access), cannot enter the critical
                    // section, and is the only enabled step of its
                    // process, so it commutes with every other process's
                    // step — expanding it alone preserves violation and
                    // goal *reachability* (though not minimal witness
                    // depth, nor which hazard kind a stuck orbit shows).
                    // Only sound with no crash branch pending: a crash of
                    // the ample process does not commute with its own
                    // step.
                    let ample = if cfg.por && !crashes {
                        ProcessId::all(n).find(|&p| {
                            snap.passages()[p.index()] < cfg.passages
                                && matches!(
                                    alg.dyn_next_step(p, &snap.states()[p.index()]),
                                    NextStep::Crit(CritKind::Try | CritKind::Rem)
                                )
                        })
                    } else {
                        None
                    };
                    for crashed in [false, true] {
                        if crashed && !crashes {
                            break;
                        }
                        for p in ProcessId::all(n) {
                            if snap.passages()[p.index()] >= cfg.passages {
                                continue;
                            }
                            if ample.is_some_and(|a| a != p) {
                                continue;
                            }
                            sys.restore(snap);
                            let done = if crashed { sys.crash(p) } else { sys.step(p) };
                            d2.clone_from(digest);
                            let cost = lens.price(&mut d2, &done);
                            sys.snapshot_into(&mut snap2);
                            if let Some(sigma) =
                                symmetric.then(|| canonical_perm(alg, &snap2)).flatten()
                            {
                                snap2 = permute_snapshot(alg, &snap2, &sigma);
                                d2 = lens.permute_digest(&d2, &sigma);
                            }
                            let goal = snap2.passages().iter().all(|&q| q >= cfg.passages);
                            let violating = snap2.in_critical().nth(1).is_some();
                            let (tid, fresh) = table.insert(
                                &snap2,
                                &d2,
                                FlatNode {
                                    depth: depth + 1,
                                    parent: *id,
                                    via: p,
                                    via_crash: crashed,
                                    goal,
                                    violating,
                                    succs: Vec::new(),
                                },
                            );
                            inserts += 1;
                            succs.push((p, tid, cost));
                            if fresh {
                                if violating {
                                    // Record it but *complete the layer*:
                                    // the set of interned states stays
                                    // worker-count independent, and every
                                    // violation in the layer is at the
                                    // same (minimal) depth. The layer loop
                                    // below halts before the next layer.
                                    violations.lock().expect("violations poisoned").push(tid);
                                }
                                if table.count.load(Ordering::Relaxed) > cfg.max_states {
                                    truncated.store(true, Ordering::Relaxed);
                                    stop.store(true, Ordering::Relaxed);
                                }
                                local.push((tid, snap2.clone(), d2.clone()));
                            }
                        }
                    }
                    table.set_succs(*id, succs.clone());
                }
            }
            (local, inserts)
        };
        // The calling thread is always one of the layer's workers, so a
        // one-worker layer spawns nothing.
        let fan = workers.min(layer.len() / GRAIN).max(1);
        let (next, inserts) = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..fan).map(|_| scope.spawn(expand)).collect();
            let (mut next, mut inserts) = expand();
            for h in handles {
                let (mut local, k) = h.join().expect("explorer worker panicked");
                next.append(&mut local);
                inserts += k;
            }
            (next, inserts)
        });
        let states_after = table.count.load(Ordering::Relaxed);
        let fresh = states_after - states_before;
        dedup_hits += inserts - fresh;
        if probe.enabled() {
            // Emitted after the barrier, single-threaded: layer totals
            // (and so the whole stream) are worker-count independent
            // for untruncated builds.
            probe.record(&TraceEvent::Layer {
                depth: depth + 1,
                expanded: layer.len(),
                fresh,
                dedup: inserts - fresh,
                states: states_after,
            });
        }
        // A truncation stop aborts mid-layer, so the partially merged
        // layer does not count as a depth; a completed layer does.
        if !next.is_empty() && !stop.load(Ordering::Relaxed) {
            depth += 1;
        }
        if stop_on_violation && !violations.lock().expect("violations poisoned").is_empty() {
            break;
        }
        if next.is_empty() {
            break;
        }
        #[cfg(unix)]
        {
            frontier = match spill_codec {
                // An io failure falls back to the in-memory layer: the
                // spill is an optimization, never a correctness gate.
                Some(codec) => match codec.spill(lens, &next, cfg.passages) {
                    Ok(sp) => Layer::Disk(codec, sp),
                    Err(_) => Layer::Mem(next),
                },
                None => Layer::Mem(next),
            };
        }
        #[cfg(not(unix))]
        {
            frontier = Layer::Mem(next);
        }
    }

    let states = table.count.load(Ordering::Relaxed);
    let violations = violations.into_inner().expect("violations poisoned");
    let (nodes, root, violations, edges) = table.flatten(root, violations);
    debug_assert_eq!(nodes.len(), states);
    BuiltGraph {
        nodes,
        root,
        edges,
        depth,
        truncated: truncated.into_inner(),
        violations,
        dedup_hits,
        peak_frontier,
        symmetric,
    }
}

/// Folds an orbit-reduced graph's canonical-frame schedule back into
/// original (replayable) coordinates.
///
/// Invariant maintained step by step: `μ` maps the *real* run's current
/// configuration onto the canonical node the graph's parent chain is
/// at — `canonical = μ(real)`. A recorded pick `q` therefore denotes
/// the real process `μ⁻¹(q)`; after executing it, the graph moved to
/// `canon(step(canonical, q))`, and by the automorphism property
/// `step(canonical, q) = μ(step(real, μ⁻¹(q)))`, so recanonicalizing
/// the μ-framed real successor recovers exactly the `σ` the build
/// applied and the new frame is `σ∘μ`. For asymmetric graphs the walk
/// degenerates to the identity and costs nothing.
pub(crate) struct Decanon<'a> {
    alg: &'a (dyn DynAutomaton + Sync),
    snap: Snap,
    mu: Perm,
    active: bool,
}

impl<'a> Decanon<'a> {
    pub(crate) fn new(alg: &'a (dyn DynAutomaton + Sync), symmetric: bool) -> Self {
        let dref = DynRef(alg);
        let snap = System::new(&dref).snapshot();
        let mu = symmetric
            .then(|| canonical_perm(alg, &snap))
            .flatten()
            .unwrap_or_else(|| Perm::identity(alg.processes()));
        Decanon {
            alg,
            snap,
            mu,
            active: symmetric,
        }
    }

    /// The permutation currently mapping real coordinates onto the
    /// canonical frame.
    pub(crate) fn frame(&self) -> &Perm {
        &self.mu
    }

    /// Executes the canonical-frame pick `(q, crashed)` on the real run
    /// and returns the real pid it denotes.
    pub(crate) fn advance(&mut self, q: ProcessId, crashed: bool) -> ProcessId {
        if !self.active {
            return q;
        }
        let p = ProcessId::new(self.mu.inverse().apply_index(q.index()));
        let dref = DynRef(self.alg);
        let mut sys = System::from_snapshot(&dref, &self.snap);
        if crashed {
            sys.crash(p);
        } else {
            sys.step(p);
        }
        self.snap = sys.snapshot();
        let framed = permute_snapshot(self.alg, &self.snap, &self.mu);
        if let Some(sigma) = canonical_perm(self.alg, &framed) {
            self.mu = self.mu.then(&sigma);
        }
        p
    }
}

/// [`Decanon`] over a whole `(pid, crashed)` pick sequence.
pub(crate) fn decanonicalize_picks(
    alg: &(dyn DynAutomaton + Sync),
    symmetric: bool,
    picks: &[(ProcessId, bool)],
) -> Vec<(ProcessId, bool)> {
    if !symmetric {
        return picks.to_vec();
    }
    let mut walk = Decanon::new(alg, true);
    picks
        .iter()
        .map(|&(q, crashed)| (walk.advance(q, crashed), crashed))
        .collect()
}

/// [`Decanon`] over a crash-free pid schedule.
pub(crate) fn decanonicalize_schedule(
    alg: &(dyn DynAutomaton + Sync),
    symmetric: bool,
    schedule: &[ProcessId],
) -> Vec<ProcessId> {
    if !symmetric {
        return schedule.to_vec();
    }
    let mut walk = Decanon::new(alg, true);
    schedule.iter().map(|&q| walk.advance(q, false)).collect()
}

/// Real-coordinate form of an unbounded witness. The canonical cycle
/// returns to the same canonical *node* but generally to a permuted
/// real state, so it is unrolled until the frame permutation recurs —
/// at which point the real configuration is exactly the one the prefix
/// reached and the unrolled cycle pumps verbatim, each lap adding the
/// same positive charge. The unroll factor is the order of the cycle's
/// frame permutation, at most `lcm(1..=n)`.
pub(crate) fn decanonicalize_unbounded(
    alg: &(dyn DynAutomaton + Sync),
    symmetric: bool,
    prefix: &[ProcessId],
    cycle: &[ProcessId],
) -> (Vec<ProcessId>, Vec<ProcessId>) {
    if !symmetric {
        return (prefix.to_vec(), cycle.to_vec());
    }
    let mut walk = Decanon::new(alg, true);
    let real_prefix: Vec<ProcessId> = prefix.iter().map(|&q| walk.advance(q, false)).collect();
    let anchor = walk.frame().clone();
    let mut real_cycle = Vec::new();
    loop {
        for &q in cycle {
            real_cycle.push(walk.advance(q, false));
        }
        if *walk.frame() == anchor {
            return (real_prefix, real_cycle);
        }
        assert!(
            real_cycle.len() < cycle.len().saturating_mul(1 << 20),
            "frame permutation failed to recur while unrolling a pump cycle"
        );
    }
}
