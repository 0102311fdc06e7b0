//! The construction step — procedures `Construct` and `Generate` of the
//! paper's Figure 1.
//!
//! Given an algorithm `A` and a permutation π, stage `i` runs process
//! `p_{π_i}` from its `try` to its `rem`, weaving its steps into the
//! partial order of metasteps built by the previous stages so that no
//! lower-indexed (earlier-in-π) process can ever observe it:
//!
//! * a **write** is inserted into the minimal unexecuted write metastep
//!   on the same register, where the metastep's winning write immediately
//!   overwrites it (line 16 of Figure 1) — or, if every write metastep on
//!   the register precedes the process's frontier, a fresh write metastep
//!   is created with this write as winner, ordered after all maximal
//!   unexecuted reads of the register (its *prereads*, lines 19–26);
//! * a **read** is inserted into the minimal unexecuted write metastep
//!   whose value would change the reader's state — the `SC` predicate
//!   (lines 28–31) — or, if none exists, becomes a fresh read metastep
//!   (the read of the *current* value must change the state, else the
//!   process is stuck and livelock freedom is violated);
//! * a **critical step** becomes its own metastep (lines 37–39).
//!
//! Three implementation notes:
//!
//! 1. Because the automaton is deterministic and a process's state
//!    depends only on its own projection, the stage threads the process
//!    state incrementally instead of re-linearizing `Plin(M, ≼, m′)` at
//!    every iteration; the equivalence is asserted by replay in tests.
//! 2. A fresh read metastep is additionally ordered before the minimal
//!    unexecuted write metastep on its register (becoming its preread),
//!    which pins down the value it reads in *every* linearization (see
//!    [`ConstructConfig::sr_preread_remedy`]).
//! 3. A down-closed set of metasteps is one prefix length per process
//!    chain. Every metastep lies on the chain of each process with a step
//!    in it, and edges are added at three sites only: `extend_chain`
//!    joins consecutive entries of a chain, the prereads of lines 21–24
//!    point into a fresh write metastep, and the SR-read completion
//!    points into an unexecuted one. So `µ ≼ m′` is one comparison
//!    against the prefix of µ's creator. A *cross* metastep, one with a
//!    second owner or a non-chain predecessor, implies prefixes of other
//!    chains: a join adds the joiner's chain through it, a preread or the
//!    completion its source's cover. Each chain keeps one list, sorted by
//!    position, of what its cross metasteps imply on the *other* chains,
//!    so covering a chain entry reads its needs where they are stored.
//!    Each chain of a down-closed set also keeps a cursor: how many
//!    entries of its list lie below its length, all of them walked. An
//!    entry is only ever inserted at a position the live frontier does
//!    not cover — on a fresh metastep, at a joiner's new last entry, or
//!    on the unexecuted metastep `first_unexecuted_write` returned — so
//!    no cursor has passed an entry it did not walk, and a closure
//!    resumes each chain's walk at its cursor. The maximal unexecuted
//!    reads of line 21 come from the same closure on a scratch copy of
//!    the frontier, cursors included: a read metastep has one owner and
//!    no predecessor but its chain's, so its strict ancestors are its
//!    chain prefix, exclusive of itself.

use exclusion_shmem::{Automaton, NextStep, Observation, ProcessId, RegisterId, Step, Value};

use crate::bitset::BitSet;
use crate::error::ConstructError;
use crate::metastep::{Metastep, MetastepId, MetastepKind};
use crate::perm::Permutation;

/// Direct-edge adjacency of the partial order `≼` (edges are the
/// relations the construction adds; `≼` is their reflexive-transitive
/// closure), in compressed rows. Each row keeps the order in which the
/// construction added its edges.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    preds: Rows,
    succs: Rows,
}

/// One adjacency in compressed rows: row `i` is
/// `items[ends[i - 1]..ends[i]]`, and row 0 starts at 0.
#[derive(Clone, Debug, Default)]
struct Rows {
    ends: Vec<u32>,
    items: Vec<MetastepId>,
}

impl Rows {
    /// Groups `(row, item)` pairs by row, keeping their order within a
    /// row.
    fn group(rows: usize, pairs: impl Iterator<Item = (usize, MetastepId)> + Clone) -> Rows {
        let mut ends = vec![0u32; rows];
        for (row, _) in pairs.clone() {
            ends[row] += 1;
        }
        // Each row's start; filling a row advances its entry to its end.
        let mut start = 0;
        for e in &mut ends {
            (*e, start) = (start, start + *e);
        }
        let mut items = vec![MetastepId(0); start as usize];
        for (row, item) in pairs {
            items[ends[row] as usize] = item;
            ends[row] += 1;
        }
        Rows { ends, items }
    }

    fn row(&self, i: usize) -> &[MetastepId] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.items[start as usize..self.ends[i] as usize]
    }
}

impl Dag {
    /// The DAG on `nodes` metasteps with the generating `edges`, each an
    /// `(a, b)` pair for `a ≼ b`.
    fn from_edges(nodes: usize, edges: &[(MetastepId, MetastepId)]) -> Dag {
        Dag {
            preds: Rows::group(nodes, edges.iter().map(|&(a, b)| (b.index(), a))),
            succs: Rows::group(nodes, edges.iter().map(|&(a, b)| (a.index(), b))),
        }
    }

    /// Direct predecessors of `m`.
    #[must_use]
    pub fn preds(&self, m: MetastepId) -> &[MetastepId] {
        self.preds.row(m.index())
    }

    /// Direct successors of `m`.
    #[must_use]
    pub fn succs(&self, m: MetastepId) -> &[MetastepId] {
        self.succs.row(m.index())
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.preds.ends.len()
    }

    /// Whether the DAG has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.preds.ends.is_empty()
    }

    /// Whether `a ≼ b` (reflexive, transitive reachability). Each call
    /// is a fresh DFS, linear in the explored region, so it suits tests
    /// and sparse queries. The construction never calls it.
    #[must_use]
    pub fn le(&self, a: MetastepId, b: MetastepId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = BitSet::with_capacity(self.len());
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            for &p in self.preds(x) {
                if p == a {
                    return true;
                }
                if seen.insert(p.index()) {
                    stack.push(p);
                }
            }
        }
        false
    }
}

/// The first `len` entries of process `pid`'s chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Prefix {
    pid: u32,
    len: u32,
}

/// One chain's part of a down-closed set: the chain's first `len`
/// entries, and the first `walked` entries of its list of implied
/// prefixes — those at positions below `len`.
#[derive(Clone, Copy, Default)]
struct Reach {
    len: u32,
    walked: u32,
}

/// What the construction knows of `≼` while it builds it (module
/// note 3), and the current stage's frontier.
struct Weave {
    /// The generating edges, in the order they were added.
    edges: Vec<(MetastepId, MetastepId)>,
    /// Per metastep: the prefix of its creator's chain that ends with
    /// it.
    cover: Vec<Prefix>,
    /// Per process: `(position, prefix)` for each prefix of another
    /// chain that a cross metastep on this chain implies, sorted by
    /// position — each joiner's chain through the metastep, each
    /// non-chain predecessor's cover and, on a joiner's list, the
    /// creator's cover. A metastep's needs are its cover plus the
    /// entries at its position on its creator's list. Entries are only
    /// inserted at positions the frontier does not cover (module
    /// note 3).
    implied: Vec<Vec<(u32, Prefix)>>,
    /// Read metasteps per register that are not yet prereads and may
    /// still be overtaken by a future write metastep (cleared at each
    /// write metastep creation).
    pending_reads: Vec<Vec<MetastepId>>,
    /// The ancestors of the current stage's `m′`: per process, how many
    /// entries of its chain are `≼ m′`, and the cursor into its list.
    frontier: Vec<Reach>,
    /// [`maximal_unexecuted`]'s copy of `frontier`.
    scratch: Vec<Reach>,
    /// Prefixes a closure has yet to cover.
    work: Vec<Prefix>,
}

impl Weave {
    fn new(n: usize, registers: usize) -> Self {
        Weave {
            edges: Vec::new(),
            cover: Vec::new(),
            implied: vec![Vec::new(); n],
            pending_reads: vec![Vec::new(); registers],
            frontier: vec![Reach::default(); n],
            scratch: vec![Reach::default(); n],
            work: Vec::new(),
        }
    }

    fn add_edge(&mut self, a: MetastepId, b: MetastepId) {
        debug_assert_ne!(a, b, "no self edges");
        self.edges.push((a, b));
    }

    /// Records that `m`'s membership in a down-closed set implies
    /// `need`, on every chain through `m`: its creator's, and each
    /// joiner's — a need at `m`'s position on the creator's list whose
    /// chain holds `m` there.
    fn add_need(&mut self, chains: &[Vec<MetastepId>], m: MetastepId, need: Prefix) {
        let cover = self.cover[m.index()];
        for i in self.implied_at(cover) {
            let (_, q) = self.implied[cover.pid as usize][i];
            if chains[q.pid as usize].get(q.len as usize - 1) == Some(&m) {
                self.insert(q, need);
            }
        }
        self.insert(cover, need);
    }

    /// `joiner`'s process has just joined `m`: its chain through `m`
    /// becomes one of `m`'s needs, and `m`'s other needs go on the
    /// joiner's list at its new last position.
    fn join(&mut self, chains: &[Vec<MetastepId>], m: MetastepId, joiner: Prefix) {
        let cover = self.cover[m.index()];
        for i in self.implied_at(cover) {
            let (_, q) = self.implied[cover.pid as usize][i];
            if q.pid != joiner.pid {
                self.insert(joiner, q);
            }
        }
        self.insert(joiner, cover);
        self.add_need(chains, m, joiner);
    }

    /// The indices of the entries at `at`'s last position on its
    /// chain's list.
    fn implied_at(&self, at: Prefix) -> std::ops::Range<usize> {
        let list = &self.implied[at.pid as usize];
        let pos = at.len - 1;
        let from = list.partition_point(|&(p, _)| p < pos);
        from..from + list[from..].iter().take_while(|&&(p, _)| p == pos).count()
    }

    /// Lists `need` on `at`'s chain, at `at`'s last position.
    fn insert(&mut self, at: Prefix, need: Prefix) {
        debug_assert_ne!(at.pid, need.pid, "a chain lists no need of its own");
        debug_assert!(
            self.frontier[at.pid as usize].len < at.len,
            "a need inserted below the frontier"
        );
        let list = &mut self.implied[at.pid as usize];
        let pos = at.len - 1;
        let i = list.partition_point(|&(p, _)| p <= pos);
        list.insert(i, (pos, need));
    }

    /// Whether `m ≼ m′`.
    fn executed(&self, m: MetastepId) -> bool {
        let Prefix { pid, len } = self.cover[m.index()];
        self.frontier[pid as usize].len >= len
    }

    /// Moves the frontier to the last entry of `to`, which must be ≽ the
    /// previous frontier.
    fn advance(&mut self, to: Prefix) {
        self.work.push(to);
        close(&mut self.frontier, &mut self.work, &self.implied);
    }
}

/// Raises the down-closed set `reach` to also cover the prefixes on
/// `work`, emptying it. Each newly covered chain's list is walked on
/// from its cursor up to its new length.
fn close(reach: &mut [Reach], work: &mut Vec<Prefix>, implied: &[Vec<(u32, Prefix)>]) {
    while let Some(Prefix { pid, len }) = work.pop() {
        let Reach {
            len: have,
            mut walked,
        } = reach[pid as usize];
        if len <= have {
            continue;
        }
        let list = &implied[pid as usize];
        for &(_, need) in list[walked as usize..]
            .iter()
            .take_while(|&&(pos, _)| pos < len)
        {
            walked += 1;
            if reach[need.pid as usize].len < need.len {
                work.push(need);
            }
        }
        reach[pid as usize] = Reach { len, walked };
    }
}

/// Budget and variant switches for the construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConstructConfig {
    /// Maximum number of steps a single process may take in its stage.
    pub max_steps_per_stage: usize,
    /// Whether to apply the SR-read ordering completion: order every
    /// fresh read metastep before the minimal unexecuted write metastep
    /// on its register, as that metastep's preread.
    ///
    /// Figure 1 verbatim (lines 33–35) gives a fresh read metastep the
    /// register's current value but orders it against no unexecuted
    /// write on the register. A write whose value would not change the
    /// reader's state can then be linearized before the read, which
    /// returns a value the construction never assumed, and the replay
    /// diverges. A register's write metasteps are totally ordered
    /// (Lemma 5.3), so ordering the read before the minimal one puts it
    /// before all of them: it reads the current value in every
    /// linearization. [`Construction::sr_remedy_edges`] counts how often
    /// the completion fires; the register-only suite never triggers it.
    ///
    /// Disabling it reproduces Figure 1 verbatim; the E10 ablation
    /// measures how often the verbatim rule yields executions whose
    /// decoding breaks.
    pub sr_preread_remedy: bool,
}

impl Default for ConstructConfig {
    fn default() -> Self {
        ConstructConfig {
            max_steps_per_stage: 1_000_000,
            sr_preread_remedy: true,
        }
    }
}

/// The output of the construction step: the metastep set `M`, the
/// partial order `≼` (as its generating edges), and the bookkeeping the
/// encoding and decoding steps need.
#[derive(Clone, Debug)]
pub struct Construction {
    pub(crate) n: usize,
    pub(crate) registers: usize,
    pub(crate) metasteps: Vec<Metastep>,
    pub(crate) dag: Dag,
    /// Per process: the metasteps containing it, in its program order
    /// (they are totally ordered in ≼).
    pub(crate) chains: Vec<Vec<MetastepId>>,
    /// Per register: its write metasteps, in ≼ order (Lemma 5.3).
    pub(crate) reg_writes: Vec<Vec<MetastepId>>,
    /// The stage order: π for a full construction, a prefix of it for
    /// [`construct_stages`].
    pub(crate) stages: Vec<ProcessId>,
    /// How often the SR-read ordering completion
    /// ([`ConstructConfig::sr_preread_remedy`]) actually added an edge —
    /// i.e. a fresh read metastep coexisted with unexecuted writes on its
    /// register, making the read's value linearization-dependent under
    /// Figure 1 verbatim.
    pub(crate) sr_remedy_edges: usize,
}

impl Construction {
    /// Number of processes.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.n
    }

    /// Number of registers of the underlying algorithm.
    #[must_use]
    pub fn registers(&self) -> usize {
        self.registers
    }

    /// The stage order this construction ran: the permutation π for a
    /// full construction, a prefix of one for [`construct_stages`].
    #[must_use]
    pub fn stages(&self) -> &[ProcessId] {
        &self.stages
    }

    /// All metasteps, indexed by [`MetastepId`].
    #[must_use]
    pub fn metasteps(&self) -> &[Metastep] {
        &self.metasteps
    }

    /// One metastep.
    #[must_use]
    pub fn metastep(&self, id: MetastepId) -> &Metastep {
        &self.metasteps[id.index()]
    }

    /// The partial order's generating edges.
    #[must_use]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The chain of metasteps containing process `p`, in program order.
    #[must_use]
    pub fn chain(&self, p: ProcessId) -> &[MetastepId] {
        &self.chains[p.index()]
    }

    /// The write metasteps of register `reg`, in ≼ order.
    #[must_use]
    pub fn register_writes(&self, reg: RegisterId) -> &[MetastepId] {
        &self.reg_writes[reg.index()]
    }

    /// The state-change cost `C` shared by all linearizations (Lemma
    /// 6.1), by the metastep accounting of Theorem 6.2.
    #[must_use]
    pub fn cost(&self) -> usize {
        self.metasteps.iter().map(Metastep::cost).sum()
    }

    /// Total number of process steps across all metasteps.
    #[must_use]
    pub fn total_steps(&self) -> usize {
        self.metasteps.iter().map(Metastep::size).sum()
    }

    /// Number of times the SR-read ordering completion added an edge
    /// (0 means Figure 1 verbatim would have produced the same partial
    /// order).
    #[must_use]
    pub fn sr_remedy_edges(&self) -> usize {
        self.sr_remedy_edges
    }
}

/// Runs `Construct(π)` (Figure 1) for `alg`.
///
/// # Errors
///
/// Returns [`ConstructError`] when the algorithm violates the paper's
/// livelock-freedom assumption for this permutation (a process busy-waits
/// forever or exceeds the stage budget) — see the error type for the
/// three diagnosed causes.
///
/// # Example
///
/// ```
/// use exclusion_lb::{construct, ConstructConfig, Permutation};
/// use exclusion_mutex::DekkerTournament;
///
/// let alg = DekkerTournament::new(4);
/// let pi = Permutation::reversed(4);
/// let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
/// assert!(c.cost() > 0);
/// ```
pub fn construct<A: Automaton>(
    alg: &A,
    pi: &Permutation,
    cfg: &ConstructConfig,
) -> Result<Construction, ConstructError> {
    assert_eq!(
        pi.len(),
        alg.processes(),
        "permutation size must match process count"
    );
    construct_stages(alg, pi.order(), cfg)
}

/// Runs only the first `|stages|` stages of the construction — the
/// paper's intermediate `(M_i, ≼_i)`.
///
/// `stages` must list distinct processes; it need not cover all of them.
/// Lemma 5.4 says the processes of a stage prefix behave identically in
/// the prefix construction and in any extension — the workspace tests
/// verify exactly that through this entry point.
///
/// # Errors
///
/// Returns [`ConstructError`] as [`construct`] does.
///
/// # Panics
///
/// Panics if `stages` repeats a process or names one out of range.
pub fn construct_stages<A: Automaton>(
    alg: &A,
    stages: &[ProcessId],
    cfg: &ConstructConfig,
) -> Result<Construction, ConstructError> {
    let n = alg.processes();
    let mut seen = vec![false; n];
    for p in stages {
        assert!(p.index() < n, "{p} out of range");
        assert!(
            !std::mem::replace(&mut seen[p.index()], true),
            "{p} repeated"
        );
    }
    let registers = alg.registers();
    let mut c = Construction {
        n,
        registers,
        metasteps: Vec::new(),
        dag: Dag::default(),
        chains: vec![Vec::new(); n],
        reg_writes: vec![Vec::new(); registers],
        stages: stages.to_vec(),
        sr_remedy_edges: 0,
    };
    let mut weave = Weave::new(n, registers);
    for (stage, &pid) in stages.iter().enumerate() {
        generate(alg, &mut c, &mut weave, stage, pid, cfg)?;
    }
    c.dag = Dag::from_edges(c.metasteps.len(), &weave.edges);
    Ok(c)
}

/// One stage of the construction: `Generate(M, ≼, π_i)`.
fn generate<A: Automaton>(
    alg: &A,
    c: &mut Construction,
    w: &mut Weave,
    stage: usize,
    pid: ProcessId,
    cfg: &ConstructConfig,
) -> Result<(), ConstructError> {
    let mut state = alg.initial_state(pid);
    w.frontier.fill(Reach::default());

    // Line 8: the stage opens with p's `try` metastep.
    let try_step = Step::crit(pid, exclusion_shmem::CritKind::Try);
    let m = new_metastep(c, w, MetastepKind::Crit, try_step);
    extend_chain(c, w, pid, m);
    alg.observe_in_place(pid, &mut state, Observation::Crit);

    for _ in 0..cfg.max_steps_per_stage {
        match alg.next_step(pid, &state) {
            NextStep::Write(reg, value) => {
                let e = Step::write(pid, reg, value);
                let mw = first_unexecuted_write(c, w, reg, |_| true);
                let target = if let Some(mw) = mw {
                    // Line 16: hide the write under mw's winner.
                    c.metasteps[mw.index()].writes.push(e);
                    mw
                } else {
                    // Lines 19–26: fresh write metastep, overtaking all
                    // pending reads on the register.
                    let m = new_metastep(c, w, MetastepKind::Write, e);
                    let cands = std::mem::take(&mut w.pending_reads[reg.index()]);
                    #[cfg(test)]
                    let asked = cands.clone();
                    let mr = maximal_unexecuted(w, cands);
                    #[cfg(test)]
                    tests::audit_maximal(c, w, pid, &asked, &mr);
                    for r in mr {
                        w.add_edge(r, m);
                        w.add_need(&c.chains, m, w.cover[r.index()]);
                        c.metasteps[m.index()].pread.push(r);
                        c.metasteps[r.index()].preread_of = Some(m);
                    }
                    c.reg_writes[reg.index()].push(m);
                    m
                };
                extend_chain(c, w, pid, target);
                if !alg.observe_in_place(pid, &mut state, Observation::Write) {
                    return Err(ConstructError::WriteLoop { stage, pid, reg });
                }
            }
            NextStep::Read(reg) => {
                let e = Step::read(pid, reg);
                // Lines 28–31: minimal unexecuted write metastep whose
                // value changes the reader's state.
                let msw = first_unexecuted_write(c, w, reg, |m| {
                    let v = c.metasteps[m.index()].value().expect("write value");
                    alg.observe_changes(pid, &state, Observation::Read(v))
                });
                if let Some(msw) = msw {
                    let v = c.metasteps[msw.index()].value().expect("write value");
                    c.metasteps[msw.index()].reads.push(e);
                    extend_chain(c, w, pid, msw);
                    alg.observe_in_place(pid, &mut state, Observation::Read(v));
                } else {
                    // Lines 33–35 (+ the SR-read completion): fresh
                    // read metastep, reading the current value.
                    let cur = current_value(alg, c, w, reg);
                    if !alg.observe_in_place(pid, &mut state, Observation::Read(cur)) {
                        return Err(ConstructError::Stuck { stage, pid, reg });
                    }
                    let m = new_metastep(c, w, MetastepKind::Read, e);
                    let wmin = cfg
                        .sr_preread_remedy
                        .then(|| first_unexecuted_write(c, w, reg, |_| true))
                        .flatten();
                    if let Some(wmin) = wmin {
                        // Completion: pin the read before every
                        // unexecuted write on the register.
                        w.add_edge(m, wmin);
                        w.add_need(&c.chains, wmin, w.cover[m.index()]);
                        c.metasteps[wmin.index()].pread.push(m);
                        c.metasteps[m.index()].preread_of = Some(wmin);
                        c.sr_remedy_edges += 1;
                    } else {
                        w.pending_reads[reg.index()].push(m);
                    }
                    extend_chain(c, w, pid, m);
                }
            }
            NextStep::Rmw(reg, _) => {
                // The paper's model has registers only; diagnose rather
                // than silently mis-handle stronger primitives.
                return Err(ConstructError::UnsupportedStep { stage, pid, reg });
            }
            NextStep::Crit(kind) => {
                // Lines 37–39.
                let m = new_metastep(c, w, MetastepKind::Crit, Step::crit(pid, kind));
                extend_chain(c, w, pid, m);
                alg.observe_in_place(pid, &mut state, Observation::Crit);
                if kind == exclusion_shmem::CritKind::Rem {
                    return Ok(());
                }
            }
        }
    }
    Err(ConstructError::BudgetExceeded {
        stage,
        pid,
        limit: cfg.max_steps_per_stage,
    })
}

/// Appends `m` to `pid`'s chain, ordered after the chain's previous
/// entry, and moves the frontier to it. If another process created `m`,
/// `pid` joins it: covering `m` now needs `pid`'s chain through it, and
/// covering `pid`'s new entry needs `m`'s other needs.
fn extend_chain(c: &mut Construction, w: &mut Weave, pid: ProcessId, m: MetastepId) {
    let chain = &mut c.chains[pid.index()];
    if let Some(&prev) = chain.last() {
        w.add_edge(prev, m);
    }
    chain.push(m);
    let through = Prefix {
        pid: pid.index() as u32,
        len: chain.len() as u32,
    };
    if w.cover[m.index()] != through {
        w.join(&c.chains, m, through);
    }
    w.advance(through);
    #[cfg(test)]
    tests::audit_frontier(c, w, pid);
}

/// The first (minimal, by Lemma 5.3's total order) write metastep on
/// `reg` that is not ≼ the frontier and satisfies `accept`.
fn first_unexecuted_write(
    c: &Construction,
    w: &Weave,
    reg: RegisterId,
    accept: impl Fn(MetastepId) -> bool,
) -> Option<MetastepId> {
    c.reg_writes[reg.index()]
        .iter()
        .copied()
        .filter(|&m| !w.executed(m))
        .find(|&m| accept(m))
}

/// The value of `reg` at the frontier: the value of the last write
/// metastep ≼ m′, or the initial value.
fn current_value<A: Automaton>(alg: &A, c: &Construction, w: &Weave, reg: RegisterId) -> Value {
    c.reg_writes[reg.index()]
        .iter()
        .take_while(|&&m| w.executed(m))
        .last()
        .and_then(|&m| c.metasteps[m.index()].value())
        .unwrap_or_else(|| alg.initial_value(reg))
}

/// The maximal (w.r.t. ≼) elements among the candidates not ≼ the
/// frontier — the set `Mr` of Figure 1 line 21 — in candidate order.
///
/// The candidates are read metasteps, so a candidate's strict ancestors
/// are its chain prefix, exclusive of itself (module note 3). Closing
/// the frontier with every live candidate's such prefix covers exactly
/// the live candidates below another one; the rest are maximal.
fn maximal_unexecuted(w: &mut Weave, mut cands: Vec<MetastepId>) -> Vec<MetastepId> {
    cands.retain(|&m| !w.executed(m));
    w.scratch.clone_from(&w.frontier);
    w.work.extend(cands.iter().map(|r| {
        let cover = w.cover[r.index()];
        Prefix {
            len: cover.len - 1,
            ..cover
        }
    }));
    close(&mut w.scratch, &mut w.work, &w.implied);
    cands.retain(|r| {
        let Prefix { pid, len } = w.cover[r.index()];
        w.scratch[pid as usize].len < len
    });
    cands
}

/// Adds a metastep holding only `step`, which becomes the next entry of
/// its process's chain: a write as the winner, a read as the one read,
/// a critical step as the critical step.
fn new_metastep(c: &mut Construction, w: &mut Weave, kind: MetastepKind, step: Step) -> MetastepId {
    let id = MetastepId(c.metasteps.len() as u32);
    c.metasteps.push(Metastep {
        id,
        kind,
        reg: step.register(),
        writes: Vec::new(),
        winner: (kind == MetastepKind::Write).then_some(step),
        reads: if kind == MetastepKind::Read {
            vec![step]
        } else {
            Vec::new()
        },
        crit: (kind == MetastepKind::Crit).then_some(step),
        pread: Vec::new(),
        preread_of: None,
    });
    let pid = step.pid().index();
    w.cover.push(Prefix {
        pid: pid as u32,
        len: c.chains[pid].len() as u32 + 1,
    });
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_mutex::{AlgorithmInfo, AlgorithmRegistry, Bakery, DekkerTournament};
    use exclusion_shmem::testing::Alternator;
    use exclusion_shmem::{Automaton, DynRef};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;

    thread_local! {
        /// While set, this thread's constructions check every frontier
        /// and every `Mr` against brute force, counting the checks.
        static AUDITS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Counts one check, or returns false when audits are off.
    fn audited() -> bool {
        AUDITS
            .with(|a| a.get().map(|k| a.set(Some(k + 1))))
            .is_some()
    }

    /// The metasteps below some of `tops` under the edges recorded so
    /// far, by DFS; `tops` themselves only when below another.
    fn strictly_below(c: &Construction, w: &Weave, tops: &[MetastepId]) -> BitSet {
        let dag = Dag::from_edges(c.metasteps.len(), &w.edges);
        let mut below = BitSet::with_capacity(dag.len());
        let mut stack = tops.to_vec();
        while let Some(x) = stack.pop() {
            for &p in dag.preds(x) {
                if below.insert(p.index()) {
                    stack.push(p);
                }
            }
        }
        below
    }

    /// The down-set of `pid`'s last chain entry `m′`, by DFS.
    fn down_set(c: &Construction, w: &Weave, pid: ProcessId) -> BitSet {
        let top = *c.chains[pid.index()]
            .last()
            .expect("a stage opens its chain");
        let mut below = strictly_below(c, w, &[top]);
        below.insert(top.index());
        below
    }

    /// After `pid`'s frontier advanced: every chain's prefix length is
    /// its part of the down-set of `m′`, and every cursor counts the
    /// entries below it.
    pub(super) fn audit_frontier(c: &Construction, w: &Weave, pid: ProcessId) {
        if !audited() {
            return;
        }
        let below = down_set(c, w, pid);
        for (q, chain) in c.chains.iter().enumerate() {
            let Reach { len, walked } = w.frontier[q];
            for (i, m) in chain.iter().enumerate() {
                assert_eq!(
                    i < len as usize,
                    below.contains(m.index()),
                    "stage of {pid}: chain {q} entry {i} ({m}), frontier {len}"
                );
            }
            let under = w.implied[q].partition_point(|&(pos, _)| pos < len);
            assert_eq!(walked as usize, under, "stage of {pid}: chain {q}'s cursor");
        }
    }

    /// `mr`, computed from `asked`, holds exactly the candidates not
    /// below `m′` and below no other such candidate, in candidate order.
    pub(super) fn audit_maximal(
        c: &Construction,
        w: &Weave,
        pid: ProcessId,
        asked: &[MetastepId],
        mr: &[MetastepId],
    ) {
        if !audited() {
            return;
        }
        let executed = down_set(c, w, pid);
        let live: Vec<MetastepId> = asked
            .iter()
            .copied()
            .filter(|m| !executed.contains(m.index()))
            .collect();
        let covered = strictly_below(c, w, &live);
        let want: Vec<MetastepId> = live
            .into_iter()
            .filter(|m| !covered.contains(m.index()))
            .collect();
        assert_eq!(mr, want, "stage of {pid}: Mr of {asked:?}");
    }

    /// Every frontier and every `Mr` of the paper locks at n ≤ 5, under
    /// the identity, the reversal and two seeded π, against DFS over the
    /// edges recorded so far.
    #[test]
    fn closure_matches_brute_force() {
        AUDITS.with(|a| a.set(Some(0)));
        // One frontier check per chain entry, one `Mr` check per write
        // metastep.
        let mut want = 0;
        for n in 2..=5 {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let pis = [
                Permutation::identity(n),
                Permutation::reversed(n),
                Permutation::random(n, &mut rng),
                Permutation::random(n, &mut rng),
            ];
            let locks = AlgorithmRegistry::global().resolve_where(n, AlgorithmInfo::paper_lock);
            assert_eq!(locks.len(), 6, "n = {n}");
            for r in &locks {
                let alg = DynRef(r.automaton.as_ref());
                for pi in &pis {
                    let c = construct(&alg, pi, &ConstructConfig::default())
                        .unwrap_or_else(|e| panic!("{} {pi}: {e}", alg.name()));
                    want += c.chains.iter().map(Vec::len).sum::<usize>()
                        + c.reg_writes.iter().map(Vec::len).sum::<usize>();
                }
            }
        }
        let checks = AUDITS.with(|a| a.replace(None)).expect("audits were on");
        assert_eq!(checks, want);
    }

    #[test]
    fn dekker_identity_construction_succeeds() {
        let alg = DekkerTournament::new(4);
        let pi = Permutation::identity(4);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        assert!(c.cost() > 0);
        // Every process chain starts with its try metastep and ends with
        // its rem metastep.
        for p in ProcessId::all(4) {
            let chain = c.chain(p);
            assert!(chain.len() >= 4);
            let first = c.metastep(chain[0]);
            assert_eq!(first.kind(), MetastepKind::Crit);
            let last = c.metastep(*chain.last().unwrap());
            assert_eq!(
                last.crit().and_then(Step::crit_kind),
                Some(exclusion_shmem::CritKind::Rem)
            );
        }
    }

    #[test]
    fn whole_suite_constructs_for_assorted_permutations() {
        for r in AlgorithmRegistry::global().resolve_where(5, AlgorithmInfo::paper_lock) {
            let alg = DynRef(r.automaton.as_ref());
            for pi in [
                Permutation::identity(5),
                Permutation::reversed(5),
                Permutation::unrank(5, 77),
            ] {
                let c = construct(&alg, &pi, &ConstructConfig::default())
                    .unwrap_or_else(|e| panic!("{} {pi}: {e}", alg.name()));
                assert!(c.cost() > 0, "{}", alg.name());
                assert_eq!(c.processes(), 5);
            }
        }
    }

    #[test]
    fn register_writes_are_chain_ordered() {
        let alg = Bakery::new(4);
        let pi = Permutation::reversed(4);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        // Lemma 5.3: per register, write metasteps are totally ordered;
        // our list is in creation order, which must agree with ≼.
        for reg in exclusion_shmem::RegisterId::all(alg.registers()) {
            let ws = c.register_writes(reg);
            for pair in ws.windows(2) {
                assert!(c.dag().le(pair[0], pair[1]));
                assert!(!c.dag().le(pair[1], pair[0]));
            }
        }
    }

    #[test]
    fn process_chains_are_totally_ordered() {
        let alg = DekkerTournament::new(4);
        let pi = Permutation::unrank(4, 13);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        for p in ProcessId::all(4) {
            let chain = c.chain(p);
            for pair in chain.windows(2) {
                assert!(
                    c.dag().le(pair[0], pair[1]),
                    "{p}: {} and {} unordered",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn each_process_takes_at_most_one_step_per_metastep() {
        let alg = Bakery::new(5);
        let pi = Permutation::unrank(5, 99);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        for m in c.metasteps() {
            let mut owners: Vec<_> = m.owners().collect();
            owners.sort();
            let before = owners.len();
            owners.dedup();
            assert_eq!(before, owners.len(), "{} has a duplicate owner", m.id());
        }
    }

    #[test]
    fn alternator_with_wrong_permutation_is_diagnosed_stuck() {
        // Alternator is not livelock-free: p1 cannot enter before p0.
        let alg = Alternator::new(2);
        let pi = Permutation::reversed(2);
        let err = construct(&alg, &pi, &ConstructConfig::default()).unwrap_err();
        assert!(
            matches!(err, ConstructError::Stuck { stage: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn alternator_identity_constructs() {
        let alg = Alternator::new(3);
        let pi = Permutation::identity(3);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        assert!(c.cost() > 0);
    }

    #[test]
    fn prereads_are_mutual() {
        // Wherever pread(m) lists r, the read r records preread_of = m,
        // and the edge r ≼ m exists.
        let alg = Bakery::new(4);
        let pi = Permutation::reversed(4);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let mut prereads_seen = 0;
        for m in c.metasteps() {
            for &r in m.pread() {
                prereads_seen += 1;
                assert_eq!(c.metastep(r).preread_of(), Some(m.id()));
                assert!(c.dag().le(r, m.id()));
            }
        }
        // Bakery's doorway scan makes prereads plentiful here.
        assert!(prereads_seen > 0);
    }

    /// A two-process automaton exhibiting the read-value ambiguity of
    /// Figure 1 verbatim (see [`ConstructConfig::sr_preread_remedy`]):
    /// `p0` writes `ℓ := 1` and stops; `p1` busy-waits until `ℓ == 0`
    /// (the initial value). In stage 1, `p0`'s write is unexecuted but
    /// reading its value would *not* change `p1`'s state, so `p1`'s read
    /// becomes a fresh read metastep — and without the ordering
    /// completion it is unordered against the write, making the value it
    /// reads depend on the linearization.
    #[derive(Clone, Copy, Debug)]
    struct GateToy;

    impl exclusion_shmem::Automaton for GateToy {
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
        fn next_step(&self, p: ProcessId, s: &u8) -> exclusion_shmem::NextStep {
            use exclusion_shmem::{CritKind, NextStep};
            match (p.index(), s) {
                (_, 0) => NextStep::Crit(CritKind::Try),
                (0, 1) => NextStep::Write(RegisterId::new(0), 1),
                (1, 1) => NextStep::Read(RegisterId::new(0)),
                (_, 2) => NextStep::Crit(CritKind::Enter),
                (_, 3) => NextStep::Crit(CritKind::Exit),
                _ => NextStep::Crit(CritKind::Rem),
            }
        }
        fn observe(&self, p: ProcessId, s: &u8, obs: exclusion_shmem::Observation) -> u8 {
            use exclusion_shmem::Observation;
            match (p.index(), s, obs) {
                (1, 1, Observation::Read(v)) => {
                    if v == 0 {
                        2 // gate open: proceed
                    } else {
                        1 // keep spinning
                    }
                }
                (_, 4, _) => 0,
                _ => s + 1,
            }
        }
    }

    #[test]
    fn remedy_pins_the_ambiguous_read() {
        let pi = Permutation::identity(2);
        let c = construct(&GateToy, &pi, &ConstructConfig::default()).unwrap();
        assert_eq!(c.sr_remedy_edges(), 1, "the completion must fire once");
        // With the completion, every linearization replays: p1's read is
        // ordered before p0's write and always returns 0.
        for seed in 0..20 {
            let lin = c.linearize_random(seed);
            exclusion_shmem::replay(&GateToy, lin.steps(), |_| {})
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    /// A three-process automaton whose last stage must see through the
    /// SR-read completion. `p0` writes `ℓ := 1`. `p1` writes `x := 1`,
    /// then busy-waits until `ℓ == 0`: as in [`GateToy`], its read
    /// becomes a fresh read metastep, ordered before `p0`'s write by the
    /// completion. `p2` reads `ℓ`, joining `p0`'s write, then reads `x`.
    #[derive(Clone, Copy, Debug)]
    struct CompletionToy;

    impl exclusion_shmem::Automaton for CompletionToy {
        type State = u8;

        fn processes(&self) -> usize {
            3
        }
        fn registers(&self) -> usize {
            2
        }
        fn initial_state(&self, _p: ProcessId) -> u8 {
            0
        }
        fn next_step(&self, p: ProcessId, s: &u8) -> exclusion_shmem::NextStep {
            use exclusion_shmem::{CritKind, NextStep};
            let (l, x) = (RegisterId::new(0), RegisterId::new(1));
            match (p.index(), s) {
                (_, 0) => NextStep::Crit(CritKind::Try),
                (0, 1) => NextStep::Write(l, 1),
                (0, 2) => NextStep::Crit(CritKind::Enter),
                (0, 3) => NextStep::Crit(CritKind::Exit),
                (0, _) => NextStep::Crit(CritKind::Rem),
                (1, 1) => NextStep::Write(x, 1),
                (1, 2) | (2, 1) => NextStep::Read(l),
                (2, 2) => NextStep::Read(x),
                (_, 3) => NextStep::Crit(CritKind::Enter),
                (_, 4) => NextStep::Crit(CritKind::Exit),
                _ => NextStep::Crit(CritKind::Rem),
            }
        }
        fn observe(&self, p: ProcessId, s: &u8, obs: exclusion_shmem::Observation) -> u8 {
            use exclusion_shmem::Observation;
            match (p.index(), s, obs) {
                (1, 2, Observation::Read(v)) if v != 0 => 2, // keep spinning
                (0, 4, _) | (_, 5, _) => 0,
                _ => s + 1,
            }
        }
    }

    #[test]
    fn later_stages_see_through_the_completion() {
        let pi = Permutation::identity(3);
        let c = construct(&CompletionToy, &pi, &ConstructConfig::default()).unwrap();
        assert_eq!(c.sr_remedy_edges(), 1, "the completion must fire once");
        // Once p2 has joined p0's write, the completion puts p1's read,
        // and so p1's write to x, below p2's frontier: p2 reads x = 1
        // from a fresh read metastep. A frontier that stopped at the
        // completion edge would offer p1's write to p2 as unexecuted,
        // and p2 joining it behind p0's write would close a cycle.
        let p2 = c.chain(ProcessId::new(2));
        assert_eq!(c.metastep(p2[2]).kind(), MetastepKind::Read);
        let mut lins = vec![c.linearize()];
        lins.extend((0..20).map(|s| c.linearize_random(s)));
        for lin in lins {
            assert!(c.is_linearization(&lin));
            exclusion_shmem::replay(&CompletionToy, lin.steps(), |_| {})
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn without_remedy_some_linearization_diverges() {
        let pi = Permutation::identity(2);
        let cfg = ConstructConfig {
            sr_preread_remedy: false,
            ..ConstructConfig::default()
        };
        let c = construct(&GateToy, &pi, &cfg).unwrap();
        assert_eq!(c.sr_remedy_edges(), 0);
        let mut diverged = false;
        let mut lins = vec![c.linearize()];
        lins.extend((0..20).map(|s| c.linearize_random(s)));
        for lin in lins {
            if exclusion_shmem::replay(&GateToy, lin.steps(), |_| {}).is_err() {
                diverged = true;
                break;
            }
        }
        assert!(
            diverged,
            "Figure 1 verbatim must leave a linearization whose read sees the wrong value"
        );
    }

    #[test]
    fn papers_own_preread_rule_covers_the_reverse_order() {
        // With π = (1 0), the read metastep exists *before* the write is
        // created, and Figure 1's own lines 21–24 order it as a preread:
        // no completion needed, all linearizations replay.
        let pi = Permutation::reversed(2);
        let cfg = ConstructConfig {
            sr_preread_remedy: false,
            ..ConstructConfig::default()
        };
        let c = construct(&GateToy, &pi, &cfg).unwrap();
        for seed in 0..20 {
            let lin = c.linearize_random(seed);
            exclusion_shmem::replay(&GateToy, lin.steps(), |_| {})
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn suite_never_triggers_the_remedy() {
        // The real algorithms' busy-waits are always released by an
        // already-constructed state-changing write, so the completion's
        // precondition never arises for them (reported in E10b).
        for r in AlgorithmRegistry::global().resolve_where(5, AlgorithmInfo::paper_lock) {
            let alg = DynRef(r.automaton.as_ref());
            for rank in [0u64, 60, 119] {
                let pi = Permutation::unrank(5, rank);
                let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
                assert_eq!(c.sr_remedy_edges(), 0, "{}", alg.name());
            }
        }
    }

    #[test]
    fn cost_equals_step_accounting() {
        let alg = DekkerTournament::new(4);
        let pi = Permutation::identity(4);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let by_hand: usize = c
            .metasteps()
            .iter()
            .map(|m| match m.kind() {
                MetastepKind::Crit => 0,
                MetastepKind::Read => 1,
                MetastepKind::Write => m.writes().len() + 1 + m.reads().len(),
            })
            .sum();
        assert_eq!(c.cost(), by_hand);
    }
}
