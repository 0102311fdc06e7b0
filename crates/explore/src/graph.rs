//! The parallel bounded-exploration core: a transposition table over
//! fixed-width word records of canonical [`Snapshot`]s, expanded
//! breadth-first by a work-stealing frontier sharded across
//! `thread::scope` workers.
//!
//! Exploration is generic over a [`CostLens`]: a pricing rule that
//! carries whatever extra per-node state its cost model needs (the CC
//! model's cache-validity masks) and charges each edge as it is
//! discovered. Memoryless models (SC, DSM) use a `()` digest, so their
//! search space is exactly the reachable snapshot graph; the CC lens
//! explores the product of snapshots and cache states.
//!
//! # One record layout
//!
//! A key — a snapshot and its digest — is stored, hashed, compared
//! and queued as one record of `u64` words ([`RecordCodec`]):
//!
//! ```text
//! [ states (n·w) | registers | sections (n) | passages (n) | digest ]
//! ```
//!
//! A process state takes `w` words. An automaton that packs its states
//! inline (a [`Packed`](exclusion_shmem::dynamic::Packed) adapter) gives
//! its packed words, so `w` is the packed width. Any other automaton's
//! states are boxed; each takes one word, its index in an *intern list*
//! local to the build, which numbers the distinct boxed states in
//! first-seen order. A section is one word (0–3), a passage count one
//! word, and the digest [`CostLens::digest_width`] words. Records of one
//! build all have one width, and two keys are equal exactly when their
//! records are.
//!
//! The table is sharded: each shard owns an index from key hash to
//! node, a word arena holding its nodes' records back to back and the
//! nodes' metadata, behind its own mutex, so concurrent inserts from
//! different workers rarely contend. Each record is hashed once
//! ([`key_hash`]) and compared as a word slice: bits 32 and up of the
//! hash pick the shard, and the shard's index is keyed by the low 32
//! bits, so every key in a shard keeps its full slot and tag entropy
//! ([`PassThrough`]). Under
//! [`ExploreConfig::compress`] the arena holds each record's 128-bit
//! [`fingerprint`] instead.
//!
//! A BFS layer is one `Vec<u64>` of `[id, record]` entries. Workers
//! pull chunks of the current layer from a shared cursor (dynamic
//! partitioning — a fast worker steals the work a slow one never
//! claimed) and accumulate the next layer locally; layers are merged
//! at a barrier, which is what makes node *depths* — and therefore
//! every verdict derived from the graph — independent of the worker
//! count.
//!
//! Expanding an edge allocates nothing unless its target is new: each
//! worker decodes an entry's record into one scratch snapshot and
//! digest, restores a scratch [`System`] from them for every successor,
//! encodes the successor into a scratch record, and copies the record
//! into the table and the next layer only when it is fresh. Each worker
//! logs the edges it expands; [`Table::flatten`] gathers the logs into
//! one compressed-sparse-row successor array ([`BuiltGraph::succs`])
//! after dropping the records. A layer gets one worker per [`GRAIN`]
//! states (at most the configured count). The calling thread is always
//! one of them, so a layer with one worker spawns no thread: a thread
//! spawn costs more than expanding a small layer.
//!
//! # Orbit reduction
//!
//! For algorithms declaring process-permutation symmetry
//! ([`DynAutomaton::dyn_symmetric`]), every discovered snapshot is
//! replaced by the canonical representative of its orbit
//! ([`canonical_perm`]) before it is stored, encoded straight into its
//! relabelled record, so the table holds one node per orbit — up to
//! `n!` fewer states — and every stored schedule lives in *canonical
//! frames*: the pid recorded on an edge is the pid in the canonical
//! relabelling of its source node, not in the original run.
//! [`Decanon`] folds the recorded permutations back together to turn
//! such a schedule into a bit-identically replayable one. Cost digests
//! ride along through [`CostLens::permute_digest`], and a lens whose
//! prices are *not* permutation-invariant opts out via
//! [`CostLens::symmetry_compatible`].

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use exclusion_shmem::dynamic::{DynAutomaton, DynRef, DynState};
use exclusion_shmem::probe::{Probe, TraceEvent};
use exclusion_shmem::{
    canonical_perm, permute_snapshot, CritKind, Executed, NextStep, Perm, ProcessId, RegisterId,
    Section, Snapshot, System,
};

use crate::ExploreConfig;

/// A system snapshot over erased states: what a record decodes to.
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
    /// writes for an algorithm with `registers` registers: the digest's
    /// share of every key record.
    fn digest_width(&self, registers: usize) -> usize;

    /// Encodes the digest into exactly
    /// [`digest_width`](CostLens::digest_width) words.
    fn digest_to_words(&self, digest: &Self::Digest, out: &mut [u64]);

    /// Decodes a digest previously written by
    /// [`digest_to_words`](CostLens::digest_to_words) into `out`,
    /// reusing its buffers.
    fn digest_from_words(&self, words: &[u64], out: &mut Self::Digest);
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

    fn digest_width(&self, _registers: usize) -> usize {
        0
    }
    fn digest_to_words(&self, (): &Self::Digest, _out: &mut [u64]) {}
    fn digest_from_words(&self, _words: &[u64], (): &mut Self::Digest) {}
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

    fn digest_width(&self, _registers: usize) -> usize {
        0
    }
    fn digest_to_words(&self, (): &Self::Digest, _out: &mut [u64]) {}
    fn digest_from_words(&self, _words: &[u64], (): &mut Self::Digest) {}
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
            // matching `exclusion_cost::cc_cost`.
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

    fn digest_width(&self, registers: usize) -> usize {
        registers
    }
    fn digest_to_words(&self, digest: &Self::Digest, out: &mut [u64]) {
        out.copy_from_slice(digest);
    }
    fn digest_from_words(&self, words: &[u64], out: &mut Self::Digest) {
        out.clear();
        out.extend_from_slice(words);
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
    type Digest = u64;

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

    fn digest_width(&self, _registers: usize) -> usize {
        1
    }
    fn digest_to_words(&self, digest: &Self::Digest, out: &mut [u64]) {
        out[0] = *digest;
    }
    fn digest_from_words(&self, words: &[u64], out: &mut Self::Digest) {
        *out = words[0];
    }
}

/// One explored state after the graph is flattened: records are dropped
/// (they are only needed while expanding), leaving the structure every
/// verdict is computed from.
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
}

/// An outgoing edge in eight bytes: its target node, the step's charge
/// and the acting process ([`Succ::parts`] spells it out).
#[derive(Clone, Copy)]
struct Succ {
    target: u32,
    cost: u16,
    pid: u8,
}

impl Succ {
    fn new(pid: ProcessId, target: u32, cost: u32) -> Self {
        Succ {
            target,
            cost: u16::try_from(cost).expect("a step charges less than 2^16"),
            // The explorer runs at most 64 processes.
            pid: pid.index() as u8,
        }
    }

    /// `(pid, target, cost)`.
    fn parts(self) -> (ProcessId, u32, u32) {
        (
            ProcessId::new(usize::from(self.pid)),
            self.target,
            u32::from(self.cost),
        )
    }
}

/// The flattened bounded reachability graph (product graph, for lenses
/// with a non-trivial digest).
pub(crate) struct BuiltGraph {
    pub nodes: Vec<FlatNode>,
    /// Node `u`'s successors are `succ_list[succ_start[u]..succ_start[u + 1]]`
    /// (compressed sparse rows, see [`BuiltGraph::succs`]).
    succ_start: Vec<usize>,
    succ_list: Vec<Succ>,
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
    /// found an already stored state. Worker-count independent for
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
    for e in &graph.succ_list {
        start[e.target as usize + 1] += 1;
    }
    for t in 0..n {
        start[t + 1] += start[t];
    }
    let mut fill = start.clone();
    let mut preds = vec![0u32; start[n]];
    for u in 0..n as u32 {
        for (_, t, _) in graph.succs(u) {
            preds[fill[t as usize]] = u;
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
    /// Outgoing edges `(pid, target, cost)` of node `u`, one per live
    /// process in pid order (then one crash edge per incomplete
    /// process, for a lens with a crash allowance). Empty for goal
    /// nodes — and for frontier nodes left unexpanded by a truncation
    /// or an early violation stop, which is why the progress analyses
    /// only run on untruncated graphs.
    pub(crate) fn succs(&self, u: u32) -> impl Iterator<Item = (ProcessId, u32, u32)> + '_ {
        let u = u as usize;
        self.succ_list[self.succ_start[u]..self.succ_start[u + 1]]
            .iter()
            .map(|&e| e.parts())
    }

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

/// Boxed process states numbered in first-seen order: a record holds
/// such a state as its index here. Local to one build, so the numbers
/// mean nothing outside it.
#[derive(Default)]
struct Interner {
    ids: HashMap<DynState, u64>,
    states: Vec<DynState>,
}

/// The fixed-width `u64` record codec — the explorer's one key
/// encoding. A key `(snapshot, digest)` is the record
/// `[states (n·w words), registers, sections, passages, digest]`: each
/// process state takes `w` words, its inline words when the automaton
/// packs its states (`w` is then the packed width) or else one word
/// holding its index in the build's intern list; a section is one word
/// (0–3) and a passage count one word. Two keys are equal exactly when
/// their records are, so the table hashes and compares records as word
/// slices and the frontier stores them.
struct RecordCodec {
    n: usize,
    regs: usize,
    /// Words per process state.
    state_words: usize,
    digest_words: usize,
    /// The intern list, for an automaton whose states are not inline.
    interner: Option<RwLock<Interner>>,
}

impl RecordCodec {
    /// Lays records out for the automaton whose initial snapshot is
    /// `root`: inline when every initial state is inline and of one
    /// width, interned otherwise.
    fn plan<L: CostLens>(lens: &L, root: &Snap) -> RecordCodec {
        let width = root
            .states()
            .first()
            .and_then(DynState::words)
            .map(<[u64]>::len);
        let inline = width.filter(|&w| {
            root.states()
                .iter()
                .all(|s| s.words().map(<[u64]>::len) == Some(w))
        });
        RecordCodec {
            n: root.states().len(),
            regs: root.registers().len(),
            state_words: inline.unwrap_or(1),
            digest_words: lens.digest_width(root.registers().len()),
            interner: inline.is_none().then(RwLock::default),
        }
    }

    /// Words per record.
    fn rec_words(&self) -> usize {
        self.n * self.state_words + self.regs + 2 * self.n + self.digest_words
    }

    /// The passage counts of a record.
    fn passages<'r>(&self, rec: &'r [u64]) -> &'r [u64] {
        let at = self.n * self.state_words + self.regs + self.n;
        &rec[at..at + self.n]
    }

    /// Whether every process of a record has completed `passages`.
    fn complete(&self, rec: &[u64], passages: usize) -> bool {
        self.passages(rec).iter().all(|&p| p >= passages as u64)
    }

    /// Writes the record of `(snap, digest)` into `out`
    /// (`out.len() == self.rec_words()`).
    fn encode<L: CostLens>(&self, lens: &L, snap: &Snap, digest: &L::Digest, out: &mut [u64]) {
        let (n, w, regs) = (self.n, self.state_words, self.regs);
        for (i, s) in snap.states().iter().enumerate() {
            self.put_state(s, &mut out[i * w..(i + 1) * w]);
        }
        out[n * w..n * w + regs].copy_from_slice(snap.registers());
        for (i, (&s, &p)) in snap.sections().iter().zip(snap.passages()).enumerate() {
            out[n * w + regs + i] = section_word(s);
            out[n * w + regs + n + i] = p as u64;
        }
        lens.digest_to_words(digest, &mut out[n * w + regs + 2 * n..]);
    }

    /// [`encode`](Self::encode) of `permute_snapshot(alg, snap, perm)`,
    /// written straight into `out`: process `i`'s relabelled state,
    /// section and passage count go to slot `perm(i)` and every
    /// register value is relabelled, with no permuted snapshot built.
    fn encode_permuted<L: CostLens>(
        &self,
        alg: &dyn DynAutomaton,
        lens: &L,
        snap: &Snap,
        perm: &Perm,
        digest: &L::Digest,
        out: &mut [u64],
    ) {
        let (n, w, regs) = (self.n, self.state_words, self.regs);
        for (i, s) in snap.states().iter().enumerate() {
            let t = perm.apply_index(i);
            self.put_state(
                &alg.dyn_permute_state(s, perm),
                &mut out[t * w..(t + 1) * w],
            );
            out[n * w + regs + t] = section_word(snap.sections()[i]);
            out[n * w + regs + n + t] = snap.passages()[i] as u64;
        }
        for (j, &v) in snap.registers().iter().enumerate() {
            out[n * w + j] = alg.dyn_permute_register_value(RegisterId::new(j), v, perm);
        }
        lens.digest_to_words(digest, &mut out[n * w + regs + 2 * n..]);
    }

    /// Writes one process state into its `state_words` slot.
    ///
    /// # Panics
    ///
    /// When a state of an inline automaton is boxed or of another
    /// width: one automaton keeps one representation.
    fn put_state(&self, s: &DynState, slot: &mut [u64]) {
        match &self.interner {
            None => slot.copy_from_slice(
                s.words()
                    .filter(|x| x.len() == slot.len())
                    .expect("an inline automaton's states share one width"),
            ),
            Some(interner) => slot[0] = intern(interner, s),
        }
    }

    /// Refills `snap` and `digest` with the key `rec` encodes; `snap`
    /// must have this codec's dimensions.
    fn decode<L: CostLens>(&self, lens: &L, rec: &[u64], snap: &mut Snap, digest: &mut L::Digest) {
        let (n, w, regs) = (self.n, self.state_words, self.regs);
        let (states, registers, sections, passages) = snap.parts_mut();
        match &self.interner {
            None => {
                for (i, s) in states.iter_mut().enumerate() {
                    *s = DynState::from_raw_words(&rec[i * w..(i + 1) * w]);
                }
            }
            Some(interner) => {
                let list = interner.read().expect("interner poisoned");
                for (s, &i) in states.iter_mut().zip(&rec[..n]) {
                    s.clone_from(&list.states[i as usize]);
                }
            }
        }
        registers.copy_from_slice(&rec[n * w..n * w + regs]);
        for i in 0..n {
            sections[i] = word_section(rec[n * w + regs + i]);
            passages[i] = rec[n * w + regs + n + i] as usize;
        }
        lens.digest_from_words(&rec[n * w + regs + 2 * n..], digest);
    }
}

/// The intern-list index of `state`, numbering it if it is new.
fn intern(interner: &RwLock<Interner>, state: &DynState) -> u64 {
    if let Some(&i) = interner.read().expect("interner poisoned").ids.get(state) {
        return i;
    }
    let mut list = interner.write().expect("interner poisoned");
    let Interner { ids, states } = &mut *list;
    *ids.entry(state.clone()).or_insert_with(|| {
        states.push(state.clone());
        states.len() as u64 - 1
    })
}

fn section_word(s: Section) -> u64 {
    match s {
        Section::Remainder => 0,
        Section::Trying => 1,
        Section::Critical => 2,
        Section::Exit => 3,
    }
}

fn word_section(w: u64) -> Section {
    match w {
        0 => Section::Remainder,
        1 => Section::Trying,
        2 => Section::Critical,
        3 => Section::Exit,
        _ => unreachable!("invalid section word {w}"),
    }
}

struct Shard {
    /// Low 32 bits of the key hash → the newest node *within this
    /// shard* that carries them; older ones chain through
    /// [`BuildNode::next`] (collisions resolved by full key equality).
    index: HashMap<u32, u32, BuildHasherDefault<PassThrough>>,
    /// Node `i`'s stored key is `keys[i * key_words..][..key_words]`.
    keys: Vec<u64>,
    nodes: Vec<BuildNode>,
}

struct BuildNode {
    /// The next older node of this shard with the same key hash, or
    /// [`NO_NODE`].
    next: u32,
    flat: FlatNode,
}

struct Table {
    shards: Vec<Mutex<Shard>>,
    shard_bits: u32,
    count: AtomicUsize,
    /// Words per stored key: the whole record, or the two words of its
    /// 128-bit [`fingerprint`] under `ExploreConfig::compress`.
    key_words: usize,
    compress: bool,
}

/// The table's key hash: one multiply–rotate pass over the record's
/// words ([`WordHasher`]). A pure function of the record — identical
/// across workers and runs of one build.
fn key_hash(rec: &[u64]) -> u64 {
    let mut h = WordHasher(0);
    for &w in rec {
        h.word(w);
    }
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

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The shard index's hasher: its keys already are (the low halves of)
/// [`key_hash`]es, so it copies the one `u32` it is given into both
/// halves of its output — the index's `HashMap` takes its slot from the
/// low bits and its SIMD tag from the top seven, both the key's own.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the shard index hashes only u32 keys")
    }

    fn write_u32(&mut self, x: u32) {
        self.0 = u64::from(x) << 32 | u64::from(x);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The 128-bit key fingerprint [`ExploreConfig::compress`] stores in
/// place of the record: two [`DefaultHasher`] (SipHash) passes over the
/// record's words, the second seeded with a fixed prefix so the halves
/// are independent. A pure function of the record.
fn fingerprint(rec: &[u64]) -> [u64; 2] {
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    h2.write_u64(0x9e37_79b9_7f4a_7c15);
    for &w in rec {
        h1.write_u64(w);
        h2.write_u64(w);
    }
    [h1.finish(), h2.finish()]
}

/// One worker's successor edges over one layer: `runs` holds
/// `(source, count)` per expanded node, whose `count` edges follow in
/// `edges` in expansion order.
#[derive(Default)]
struct EdgeLog {
    runs: Vec<(u32, u32)>,
    edges: Vec<Succ>,
}

impl Table {
    fn new(shard_count: usize, key_words: usize, compress: bool) -> Self {
        Table {
            shards: (0..shard_count)
                .map(|_| {
                    Mutex::new(Shard {
                        index: HashMap::default(),
                        keys: Vec::new(),
                        nodes: Vec::new(),
                    })
                })
                .collect(),
            shard_bits: shard_count.trailing_zeros(),
            count: AtomicUsize::new(0),
            key_words,
            compress,
        }
    }

    fn mask(&self) -> u64 {
        (self.shards.len() - 1) as u64
    }

    /// Interns the key whose record is `rec`, returning its id and
    /// whether it was new. Ids pack the shard into the low bits so they
    /// can be decoded without a lookup. Revisits (the common case: every
    /// state is rediscovered once per predecessor) copy nothing; a new
    /// key appends its record — or under `compress` only its
    /// fingerprint — to the shard's word arena.
    fn insert(&self, rec: &[u64], meta: FlatNode) -> (u32, bool) {
        let hv = key_hash(rec);
        let fp;
        let key = if self.compress {
            fp = fingerprint(rec);
            &fp[..]
        } else {
            rec
        };
        let kw = self.key_words;
        // Bits 32.. pick the shard, the low 32 bits key its index.
        let s = ((hv >> 32) & self.mask()) as usize;
        let mut guard = self.shards[s].lock().expect("shard poisoned");
        let Shard { index, keys, nodes } = &mut *guard;
        let idx = nodes.len() as u32;
        let next = match index.entry(hv as u32) {
            Entry::Occupied(mut head) => {
                let mut at = *head.get();
                while at != NO_NODE {
                    let i = at as usize;
                    if &keys[i * kw..(i + 1) * kw] == key {
                        return ((at << self.shard_bits) | s as u32, false);
                    }
                    at = nodes[i].next;
                }
                head.insert(idx)
            }
            Entry::Vacant(head) => {
                head.insert(idx);
                NO_NODE
            }
        };
        keys.extend_from_slice(key);
        nodes.push(BuildNode { next, flat: meta });
        self.count.fetch_add(1, Ordering::Relaxed);
        ((idx << self.shard_bits) | s as u32, true)
    }

    /// Flattens the sharded storage into one dense node vector,
    /// remapping every id (shard-packed → dense) arithmetically, and
    /// gathers the edge logs into compressed sparse rows. The key arenas
    /// and indices are dropped first.
    fn flatten(self, root: u32, violations: Vec<u32>, logs: Vec<EdgeLog>) -> Flat {
        let bits = self.shard_bits;
        let mask = self.mask() as u32;
        let mut offsets = Vec::with_capacity(self.shards.len());
        let mut total = 0u32;
        let shard_nodes: Vec<Vec<BuildNode>> = self
            .shards
            .into_iter()
            .map(|m| m.into_inner().expect("shard poisoned").nodes)
            .collect();
        for nodes in &shard_nodes {
            offsets.push(total);
            total += nodes.len() as u32;
        }
        let remap = |id: u32| offsets[(id & mask) as usize] + (id >> bits);
        let mut nodes = Vec::with_capacity(total as usize);
        for shard in shard_nodes {
            for node in shard {
                let mut flat = node.flat;
                if flat.parent != NO_PARENT {
                    flat.parent = remap(flat.parent);
                }
                nodes.push(flat);
            }
        }
        // Each node is expanded at most once, so it owns at most one
        // run; its row starts where the rows before it end.
        let mut succ_start = vec![0usize; nodes.len() + 1];
        for log in &logs {
            for &(src, count) in &log.runs {
                succ_start[remap(src) as usize + 1] = count as usize;
            }
        }
        for u in 0..nodes.len() {
            succ_start[u + 1] += succ_start[u];
        }
        let blank = Succ {
            target: 0,
            cost: 0,
            pid: 0,
        };
        let mut succ_list = vec![blank; succ_start[nodes.len()]];
        for log in logs {
            let mut edges = log.edges.into_iter();
            for (src, count) in log.runs {
                let at = succ_start[remap(src) as usize];
                for (slot, e) in succ_list[at..at + count as usize]
                    .iter_mut()
                    .zip(edges.by_ref())
                {
                    *slot = Succ {
                        target: remap(e.target),
                        ..e
                    };
                }
            }
        }
        Flat {
            nodes,
            succ_start,
            succ_list,
            root: remap(root),
            violations: violations.into_iter().map(remap).collect(),
        }
    }
}

/// [`Table::flatten`]'s output.
struct Flat {
    nodes: Vec<FlatNode>,
    succ_start: Vec<usize>,
    succ_list: Vec<Succ>,
    root: u32,
    violations: Vec<u32>,
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
    let workers = exclusion_shmem::pool::workers(cfg.workers);
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
    let codec = RecordCodec::plan(lens, &root_snap);
    let rw = codec.rec_words();
    // A frontier entry is the node id followed by its record.
    let stride = 1 + rw;
    let table = Table::new(shard_count, if cfg.compress { 2 } else { rw }, cfg.compress);
    let mut frontier = vec![0u64; stride];
    codec.encode(lens, &root_snap, &root_digest, &mut frontier[1..]);
    let (root, _) = table.insert(
        &frontier[1..],
        FlatNode {
            depth: 0,
            parent: NO_PARENT,
            via: ProcessId::new(0),
            via_crash: false,
            goal: codec.complete(&frontier[1..], cfg.passages),
            violating: false,
        },
    );
    frontier[0] = u64::from(root);
    // Layer buffers, cleared and handed back to the workers for the
    // next layer: large buffers are not freed and reallocated layer
    // after layer, which fragments the heap.
    let mut spare: Vec<Vec<u64>> = Vec::new();
    let mut logs: Vec<EdgeLog> = Vec::new();
    let mut depth = 0u32;
    let mut dedup_hits = 0usize;
    let mut peak_frontier = 0usize;
    loop {
        let layer_len = frontier.len() / stride;
        if layer_len == 0 || stop.load(Ordering::Relaxed) {
            break;
        }
        peak_frontier = peak_frontier.max(layer_len);
        if cfg.max_depth.is_some_and(|d| depth as usize >= d) {
            if frontier
                .chunks_exact(stride)
                .any(|e| !codec.complete(&e[1..], cfg.passages))
            {
                truncated.store(true, Ordering::Relaxed);
            }
            break;
        }
        let cursor = AtomicUsize::new(0);
        let layer = &frontier;
        let codec = &codec;
        let states_before = table.count.load(Ordering::Relaxed);
        // One worker's pass over the layer: pull chunks until none are
        // left, returning the fresh entries it stored (the worker's
        // share of the next layer), its edges and its insert count.
        let expand = |mut local: Vec<u64>| {
            let dref = DynRef(alg);
            // Scratch state, reused for every entry and successor: the
            // entry's record is decoded into `parent`/`digest`, restored
            // into `sys` per successor, and the successor read back into
            // `snap2`/`d2` and encoded into `rec`; only fresh records
            // are copied, into the next layer.
            let mut sys = System::new(&dref);
            let mut parent = sys.snapshot();
            let mut snap2 = sys.snapshot();
            let mut digest = lens.initial(alg.registers());
            let mut d2 = lens.initial(alg.registers());
            let mut rec = vec![0u64; rw];
            let mut log = EdgeLog::default();
            let mut inserts = 0usize;
            'pull: loop {
                let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                if start >= layer_len || stop.load(Ordering::Relaxed) {
                    break;
                }
                let end = (start + CHUNK).min(layer_len);
                for entry in layer[start * stride..end * stride].chunks_exact(stride) {
                    if stop.load(Ordering::Relaxed) {
                        break 'pull;
                    }
                    let (id, prec) = (entry[0] as u32, &entry[1..]);
                    if codec.complete(prec, cfg.passages) {
                        continue; // goal: nothing to expand
                    }
                    codec.decode(lens, prec, &mut parent, &mut digest);
                    let first_edge = log.edges.len();
                    // Ordinary steps first, then (budget permitting) one
                    // crash injection per incomplete process — both in
                    // pid order, so parent races resolve to the same
                    // lexicographic witness order crash-free builds have
                    // always had.
                    let crashes = lens.crash_allowance(&digest) > 0;
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
                            parent.passages()[p.index()] < cfg.passages
                                && matches!(
                                    alg.dyn_next_step(p, &parent.states()[p.index()]),
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
                            if parent.passages()[p.index()] >= cfg.passages {
                                continue;
                            }
                            if ample.is_some_and(|a| a != p) {
                                continue;
                            }
                            sys.restore(&parent);
                            let done = if crashed { sys.crash(p) } else { sys.step(p) };
                            d2.clone_from(&digest);
                            let cost = lens.price(&mut d2, &done);
                            sys.snapshot_into(&mut snap2);
                            match symmetric.then(|| canonical_perm(alg, &snap2)).flatten() {
                                Some(sigma) => {
                                    d2 = lens.permute_digest(&d2, &sigma);
                                    codec.encode_permuted(alg, lens, &snap2, &sigma, &d2, &mut rec);
                                }
                                None => codec.encode(lens, &snap2, &d2, &mut rec),
                            }
                            let goal = codec.complete(&rec, cfg.passages);
                            let violating = snap2.in_critical().nth(1).is_some();
                            let (tid, fresh) = table.insert(
                                &rec,
                                FlatNode {
                                    depth: depth + 1,
                                    parent: id,
                                    via: p,
                                    via_crash: crashed,
                                    goal,
                                    violating,
                                },
                            );
                            inserts += 1;
                            log.edges.push(Succ::new(p, tid, cost));
                            if fresh {
                                if violating {
                                    // Record it but *complete the layer*:
                                    // the set of stored states stays
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
                                local.push(u64::from(tid));
                                local.extend_from_slice(&rec);
                            }
                        }
                    }
                    let count = log.edges.len() - first_edge;
                    if count > 0 {
                        log.runs.push((id, count as u32));
                    }
                }
            }
            (local, log, inserts)
        };
        // The calling thread is always one of the layer's workers, so a
        // one-worker layer spawns nothing.
        let fan = workers.min(layer_len / GRAIN).max(1);
        let (next, inserts) = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..fan)
                .map(|_| {
                    let buf = spare.pop().unwrap_or_default();
                    scope.spawn(move || expand(buf))
                })
                .collect();
            let (mut next, log, mut inserts) = expand(spare.pop().unwrap_or_default());
            logs.push(log);
            for h in handles {
                let (mut local, log, k) = h.join().expect("explorer worker panicked");
                next.extend_from_slice(&local);
                local.clear();
                spare.push(local);
                logs.push(log);
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
                expanded: layer_len,
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
        let mut done = std::mem::replace(&mut frontier, next);
        done.clear();
        spare.push(done);
    }

    let states = table.count.load(Ordering::Relaxed);
    let violations = violations.into_inner().expect("violations poisoned");
    let flat = table.flatten(root, violations, logs);
    debug_assert_eq!(flat.nodes.len(), states);
    BuiltGraph {
        nodes: flat.nodes,
        edges: flat.succ_list.len(),
        succ_start: flat.succ_start,
        succ_list: flat.succ_list,
        root: flat.root,
        depth,
        truncated: truncated.into_inner(),
        violations: flat.violations,
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

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet, VecDeque};
    use std::fmt::Debug;

    use exclusion_mutex::{Peterson, RPeterson};
    use exclusion_shmem::dynamic::Packed;

    use super::*;
    use crate::conformance_registry;

    /// Every key `(snapshot, digest)` reachable under `lens` with one
    /// passage per process, crash steps included while the lens allows
    /// them, in breadth-first order.
    fn keys<L: CostLens>(alg: &(dyn DynAutomaton + Sync), lens: &L) -> Vec<(Snap, L::Digest)> {
        let dref = DynRef(alg);
        let root = (System::new(&dref).snapshot(), lens.initial(alg.registers()));
        let mut seen = HashSet::from([root.clone()]);
        let mut queue = VecDeque::from([root]);
        let mut out = Vec::new();
        while let Some((snap, digest)) = queue.pop_front() {
            for crashed in [false, true] {
                if crashed && lens.crash_allowance(&digest) == 0 {
                    break;
                }
                for p in ProcessId::all(alg.processes()) {
                    if snap.passages()[p.index()] >= 1 {
                        continue;
                    }
                    let mut sys = System::from_snapshot(&dref, &snap);
                    let done = if crashed { sys.crash(p) } else { sys.step(p) };
                    let mut d = digest.clone();
                    lens.price(&mut d, &done);
                    let key = (sys.snapshot(), d);
                    if seen.insert(key.clone()) {
                        queue.push_back(key);
                    }
                }
            }
            out.push((snap, digest));
        }
        out
    }

    /// Decoding an encoded key restores an equal key, and two records
    /// are equal exactly when their keys are: the keys are distinct, so
    /// their records must be, and encoding a key twice gives one record.
    /// Returns whether the codec interned the states.
    fn assert_records_mirror_keys<L>(label: &str, alg: &(dyn DynAutomaton + Sync), lens: &L) -> bool
    where
        L: CostLens,
        L::Digest: Debug,
    {
        let keys = keys(alg, lens);
        assert!(keys.len() > 4, "{label}: {} keys", keys.len());
        let codec = RecordCodec::plan(lens, &keys[0].0);
        let (mut back, mut d) = keys[0].clone();
        let mut records: HashMap<Vec<u64>, usize> = HashMap::new();
        for (i, (snap, digest)) in keys.iter().enumerate() {
            let mut rec = vec![0; codec.rec_words()];
            codec.encode(lens, snap, digest, &mut rec);
            codec.decode(lens, &rec, &mut back, &mut d);
            assert_eq!((&back, &d), (snap, digest), "{label}: round trip");
            let mut again = vec![0; codec.rec_words()];
            codec.encode(lens, &back, &d, &mut again);
            assert_eq!(again, rec, "{label}: one key, one record");
            if let Some(j) = records.insert(rec, i) {
                panic!("{label}: keys {j} and {i} share a record");
            }
            if let Some(perm) = canonical_perm(alg, snap) {
                let mut moved = vec![0; codec.rec_words()];
                codec.encode_permuted(alg, lens, snap, &perm, digest, &mut moved);
                codec.encode(
                    lens,
                    &permute_snapshot(alg, snap, &perm),
                    digest,
                    &mut again,
                );
                assert_eq!(moved, again, "{label}: relabelled in place");
            }
        }
        codec.interner.is_some()
    }

    #[test]
    fn packed_states_roundtrip_through_records() {
        let reg = conformance_registry();
        for (name, n) in [
            ("peterson", 3),
            ("dekker-tree", 3),
            ("bakery", 2),
            ("splitter-gate", 3),
            ("ticket", 3),
            ("mcs-sim", 2),
        ] {
            let alg = reg.resolve_str(name, n).expect("resolves").automaton;
            assert!(
                !assert_records_mirror_keys(name, alg.as_ref(), &ScLens),
                "{name} packs"
            );
        }
    }

    #[test]
    fn interned_states_roundtrip_through_records() {
        let reg = conformance_registry();
        for (name, n) in [("rtas", 3), ("broken-recover", 2), ("broken", 3)] {
            let alg = reg.resolve_str(name, n).expect("resolves").automaton;
            assert!(
                assert_records_mirror_keys(name, alg.as_ref(), &ScLens),
                "{name} interns"
            );
        }
        // The concrete types behind the registry's packed entries take
        // the boxed path when erased directly.
        assert!(assert_records_mirror_keys(
            "boxed peterson",
            &Peterson::new(3),
            &ScLens
        ));
    }

    #[test]
    fn cc_and_crash_digests_roundtrip_through_records() {
        let reg = conformance_registry();
        for (name, n) in [("peterson", 3), ("ticket", 2), ("mcs-sim", 2)] {
            let alg = reg.resolve_str(name, n).expect("resolves").automaton;
            assert_records_mirror_keys(&format!("{name} cc"), alg.as_ref(), &CcLens);
        }
        let crash = CrashLens { budget: 2 };
        assert_records_mirror_keys("rpeterson crash", &Packed(RPeterson::new(2)), &crash);
        for name in ["rtas", "broken-recover"] {
            let alg = reg.resolve_str(name, 2).expect("resolves").automaton;
            assert_records_mirror_keys(&format!("{name} crash"), alg.as_ref(), &crash);
        }
    }
}
