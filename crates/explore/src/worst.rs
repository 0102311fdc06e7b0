//! Exact worst-case cost: the supremum, over *every* schedule that
//! drives all processes to the passage target, of the run's cost under
//! one cost model — the adversary's true optimum, which the sampled
//! schedulers (greedy/random/burst) can only approach from below.
//!
//! # How it works
//!
//! The algorithm is deterministic, so the scheduler is the only source
//! of nondeterminism and the search is a pure maximization over
//! schedules. [`worst_case`] explores the bounded product graph of
//! (system snapshot × cost-model state) — the cost-model state is `()`
//! for the memoryless SC and DSM models and the cache-validity masks
//! for CC — so every edge has a fixed charge and a schedule's cost is
//! the weight of its path. The exact optimum is then a longest-path
//! computation:
//!
//! 1. condense the graph into strongly connected components (iterative
//!    Tarjan). Within an SCC every node can reach every other, so a
//!    positive-weight edge *inside* an SCC that can still reach
//!    completion means the adversary can pump that cycle forever:
//!    the supremum is [`WorstCost::Unbounded`], witnessed by a prefix
//!    schedule and the pump cycle itself (replaying prefix + k·cycle
//!    costs strictly more for every extra k);
//! 2. otherwise all intra-SCC edges are free, every node of an SCC
//!    shares one optimal value, and a reverse-topological dynamic
//!    program over the condensation yields the exact optimum — with a
//!    witness schedule reconstructed greedily (positive optimal edges
//!    first, breadth-first detours through free edges otherwise) that
//!    replays to exactly that cost via `run_priced` and a
//!    [`Script`](exclusion_shmem::sched::Script) scheduler.
//!
//! The greedy adversary's cost on the same instance is computed first
//! and reported as [`WorstCaseReport::incumbent`]: it seeds the search
//! as the initial lower bound (the branch-and-bound incumbent), and the
//! exact result must — and, pinned by tests, does — dominate it.
//!
//! Unboundedness is not an artifact: under SC it is precisely the
//! remote-spin phenomenon the paper discusses — a process whose
//! busy-wait *changes its state* every read (Peterson's two-register
//! spin) can be charged forever, while a local-spin algorithm
//! (dekker-tree) has a finite supremum.

use exclusion_cost::CostTracker;
use exclusion_shmem::dynamic::{DynAutomaton, DynRef};
use exclusion_shmem::probe::{NoProbe, Probe, SpanScope, TraceEvent};
use exclusion_shmem::sched::GreedyAdversary;
use exclusion_shmem::{ProcessId, System};

use crate::graph::{
    build, decanonicalize_schedule, decanonicalize_unbounded, live_set, BuiltGraph, CcLens,
    CostLens, DsmLens, ScLens,
};
use crate::{ExploreConfig, Model};

/// The exact worst-case verdict of one (algorithm, model, bounds)
/// instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WorstCost {
    /// A finite supremum, realized by `schedule` (which replays to
    /// exactly `cost` under the model).
    Exact {
        /// The supremum.
        cost: usize,
        /// A complete schedule realizing it.
        schedule: Vec<ProcessId>,
    },
    /// No finite supremum: after `prefix`, every repetition of `cycle`
    /// adds the same positive charge and completion remains reachable.
    Unbounded {
        /// Schedule from the initial state to the pump cycle.
        prefix: Vec<ProcessId>,
        /// The positive-cost cycle (returns to the state `prefix`
        /// reaches, so it repeats indefinitely).
        cycle: Vec<ProcessId>,
    },
    /// Exploration was truncated (or no schedule completes the passage
    /// target); only the sampled lower bound is known.
    Unknown,
}

impl WorstCost {
    /// The finite exact value, if there is one.
    #[must_use]
    pub fn exact(&self) -> Option<usize> {
        match self {
            WorstCost::Exact { cost, .. } => Some(*cost),
            _ => None,
        }
    }

    /// Whether the supremum is infinite.
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        matches!(self, WorstCost::Unbounded { .. })
    }
}

/// The result of an exact worst-case search.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorstCaseReport {
    /// The algorithm's name.
    pub algorithm: String,
    /// The cost model searched.
    pub model: Model,
    /// Number of processes.
    pub n: usize,
    /// Passage target per process.
    pub passages: usize,
    /// Product-graph nodes explored.
    pub nodes: usize,
    /// Product-graph edges explored.
    pub edges: usize,
    /// The verdict, with its witness.
    pub cost: WorstCost,
    /// The greedy adversary's cost on the same instance — the sampled
    /// incumbent the exact search starts from and must dominate.
    pub incumbent: usize,
    /// Whether exploration hit `max_states`/`max_depth`.
    pub truncated: bool,
}

/// Computes the exact worst-case cost of `alg` under `model`, bounded
/// by `cfg.passages` passages per process.
///
/// # Example
///
/// ```
/// use exclusion_explore::{worst_case, ExploreConfig, Model};
/// use exclusion_shmem::testing::Alternator;
///
/// let report = worst_case(&Alternator::new(2), Model::Sc, &ExploreConfig::default());
/// // The exact optimum dominates the greedy adversary's incumbent.
/// assert!(report.cost.exact().unwrap() >= report.incumbent);
/// ```
#[must_use]
pub fn worst_case(
    alg: &(dyn DynAutomaton + Sync),
    model: Model,
    cfg: &ExploreConfig,
) -> WorstCaseReport {
    worst_case_probed(alg, model, cfg, &mut NoProbe)
}

/// [`worst_case`] with a [`Probe`] observing the search: a
/// [`SpanScope::Worst`] span around the whole pass (tagged with the
/// model's [`MODELS`](crate::Model)-order index), one layer event per
/// BFS layer of the product-graph build, and a pump event if the
/// condensation finds a positive cycle ([`worst_case`] is this function
/// with [`NoProbe`]).
#[must_use]
pub fn worst_case_probed(
    alg: &(dyn DynAutomaton + Sync),
    model: Model,
    cfg: &ExploreConfig,
    probe: &mut dyn Probe,
) -> WorstCaseReport {
    let tag = match model {
        Model::Sc => 0,
        Model::Cc => 1,
        Model::Dsm => 2,
    };
    crate::spanned(probe, SpanScope::Worst, tag, |probe| match model {
        Model::Sc => worst_with(alg, &ScLens, model, cfg, probe),
        Model::Cc => worst_with(alg, &CcLens, model, cfg, probe),
        Model::Dsm => worst_with(alg, &DsmLens::new(alg), model, cfg, probe),
    })
}

fn worst_with<L: CostLens>(
    alg: &(dyn DynAutomaton + Sync),
    lens: &L,
    model: Model,
    cfg: &ExploreConfig,
    probe: &mut dyn Probe,
) -> WorstCaseReport {
    // Longest-path costs quantify over *every* interleaving, so
    // partial-order reduction (which prunes interleavings) is forced
    // off here. Orbit reduction stays on: the quotient graph preserves
    // path costs in both directions, so the supremum is unchanged.
    let cfg = ExploreConfig { por: false, ..*cfg };
    let graph = build(alg, lens, &cfg, false, probe);
    worst_from_graph(alg, &graph, model, &cfg, None, probe)
}

/// The exact search on an already-built (product) graph — shared by
/// [`worst_case`] and by [`crate::analyze`], which reuses the safety
/// exploration's SC graph (and its already-computed live set) instead
/// of rebuilding either.
pub(crate) fn worst_from_graph(
    alg: &(dyn DynAutomaton + Sync),
    graph: &BuiltGraph,
    model: Model,
    cfg: &ExploreConfig,
    live: Option<&[bool]>,
    probe: &mut dyn Probe,
) -> WorstCaseReport {
    let incumbent = greedy_incumbent(alg, model, cfg);
    let mut report = WorstCaseReport {
        algorithm: alg.name(),
        model,
        n: alg.processes(),
        passages: cfg.passages,
        nodes: graph.nodes.len(),
        edges: graph.edges,
        cost: WorstCost::Unknown,
        incumbent,
        truncated: graph.truncated,
    };
    if graph.truncated {
        return report;
    }
    let scc = condense(graph);
    let owned_live;
    let live = match live {
        Some(l) => l,
        None => {
            owned_live = live_set(graph);
            &owned_live
        }
    };

    // Unbounded: a positive edge inside an SCC that can still complete.
    if let Some((u, p, v)) = scc.pump_edge(graph, live) {
        if probe.enabled() {
            probe.record(&TraceEvent::Pump {
                depth: graph.nodes[u as usize].depth,
                scc: scc.members[scc.comp[u as usize]].len(),
            });
        }
        // Orbit-reduced graphs record canonical-frame pids, and their
        // pump cycle returns to the canonical node but to a *permuted*
        // real state — the de-canonicalization unrolls it until the
        // real state recurs, so the witness pumps verbatim.
        let (prefix, cycle) = decanonicalize_unbounded(
            alg,
            graph.symmetric,
            &graph.schedule_to(u),
            &pump_cycle(graph, &scc, u, p, v),
        );
        report.cost = WorstCost::Unbounded { prefix, cycle };
        return report;
    }

    // Reverse-topological DP over the condensation. Tarjan emits SCCs
    // successors-first, so ascending component ids see every successor
    // value already computed. NONE marks "completion unreachable".
    const NONE: i64 = i64::MIN;
    let mut value = vec![NONE; scc.count];
    for comp in 0..scc.count {
        let mut v = if scc.members[comp]
            .iter()
            .any(|&u| graph.nodes[u as usize].goal)
        {
            0i64
        } else {
            NONE
        };
        for &u in &scc.members[comp] {
            for (_, t, c) in graph.succs(u) {
                let tc = scc.comp[t as usize];
                if tc != comp && value[tc] != NONE {
                    v = v.max(i64::from(c) + value[tc]);
                }
            }
        }
        value[comp] = v;
    }
    let total = value[scc.comp[graph.root as usize]];
    if total == NONE {
        // No schedule completes the passage target at all; the safety
        // explorer reports this as a hazard — here it leaves the
        // optimum undefined.
        return report;
    }
    // Orbit reduction preserves path costs in both directions, so the
    // DP optimum over the quotient graph equals the real optimum — but
    // the witness pids live in canonical frames; fold the build's
    // permutations back out so the replay below prices the real run.
    let schedule =
        decanonicalize_schedule(alg, graph.symmetric, &witness(graph, &scc, &value, total));
    let replayed = price_schedule(alg, model, &schedule);
    assert_eq!(
        replayed as i64, total,
        "worst-case witness must replay to the DP optimum"
    );
    report.cost = WorstCost::Exact {
        cost: replayed,
        schedule,
    };
    report
}

/// The greedy adversary's cost under `model` — the sampled incumbent.
fn greedy_incumbent(alg: &(dyn DynAutomaton + Sync), model: Model, cfg: &ExploreConfig) -> usize {
    let dref = DynRef(alg);
    match exclusion_cost::run_priced(
        &dref,
        &mut GreedyAdversary::new(),
        cfg.passages,
        cfg.max_steps,
    ) {
        Ok(priced) => model.total_of(&priced),
        Err(_) => 0,
    }
}

/// Prices an explicit schedule under one cost model by streaming
/// replay (a [`CostTracker`] fed step by step) — the canonical way to
/// re-price a worst-case witness or pump a cycle.
///
/// # Example
///
/// ```
/// use exclusion_explore::{price_schedule, worst_case, ExploreConfig, Model, WorstCost};
/// use exclusion_shmem::testing::Alternator;
///
/// let alg = Alternator::new(2);
/// let report = worst_case(&alg, Model::Sc, &ExploreConfig::default());
/// let WorstCost::Exact { cost, schedule } = report.cost else { panic!() };
/// assert_eq!(price_schedule(&alg, Model::Sc, &schedule), cost);
/// ```
#[must_use]
pub fn price_schedule(alg: &dyn DynAutomaton, model: Model, schedule: &[ProcessId]) -> usize {
    let dref = DynRef(alg);
    let mut sys = System::new(&dref);
    let mut tracker = CostTracker::new(&dref);
    for &p in schedule {
        tracker.observe(&sys.step(p));
    }
    model.tracker_total(&tracker)
}

struct Condensation {
    /// Component of each node; components are numbered in Tarjan pop
    /// order, which is reverse-topological for the condensation.
    comp: Vec<usize>,
    members: Vec<Vec<u32>>,
    count: usize,
}

impl Condensation {
    /// A positive-cost edge `(u, pid, v)` inside one SCC whose nodes
    /// can still reach completion — the adversary's pump.
    fn pump_edge(&self, graph: &BuiltGraph, live: &[bool]) -> Option<(u32, ProcessId, u32)> {
        let mut best: Option<(u32, ProcessId, u32)> = None;
        for (u, node) in graph.nodes.iter().enumerate() {
            if !live[u] {
                continue;
            }
            for (p, t, c) in graph.succs(u as u32) {
                if c > 0 && self.comp[t as usize] == self.comp[u] {
                    let better = best.is_none_or(|(bu, bp, _)| {
                        let (du, dp) = (graph.nodes[bu as usize].depth, bp);
                        (node.depth, p) < (du, dp)
                    });
                    if better {
                        best = Some((u as u32, p, t));
                    }
                }
            }
        }
        best
    }
}

/// Iterative Tarjan over the successor lists.
fn condense(graph: &BuiltGraph) -> Condensation {
    let n = graph.nodes.len();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut members: Vec<Vec<u32>> = Vec::new();
    let mut next_index = 0u32;
    // Explicit DFS frames: (node, next successor position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start as usize] = next_index;
        low[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;
        while let Some(&mut (u, ref mut pos)) = frames.last_mut() {
            if let Some((_, t, _)) = graph.succs(u).nth(*pos) {
                *pos += 1;
                let ti = t as usize;
                if index[ti] == UNVISITED {
                    index[ti] = next_index;
                    low[ti] = next_index;
                    next_index += 1;
                    stack.push(t);
                    on_stack[ti] = true;
                    frames.push((t, 0));
                } else if on_stack[ti] {
                    low[u as usize] = low[u as usize].min(index[ti]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent as usize] = low[parent as usize].min(low[u as usize]);
                }
                if low[u as usize] == index[u as usize] {
                    let c = members.len();
                    let mut group = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = c;
                        group.push(w);
                        if w == u {
                            break;
                        }
                    }
                    members.push(group);
                }
            }
        }
    }
    let count = members.len();
    Condensation {
        comp,
        members,
        count,
    }
}

/// A cycle through the positive intra-SCC edge `(u, pid, v)`, starting
/// and ending at `u`: BFS back from `v` to `u` inside the SCC (every
/// SCC node reaches every other by definition).
fn pump_cycle(
    graph: &BuiltGraph,
    scc: &Condensation,
    u: u32,
    pid: ProcessId,
    v: u32,
) -> Vec<ProcessId> {
    let mut cycle = vec![pid];
    if v != u {
        cycle.extend(bfs_path(
            graph,
            v,
            |w| w == u,
            |t, _| scc.comp[t as usize] == scc.comp[u as usize],
        ));
    }
    cycle
}

/// BFS from `start` over edges satisfying `admit(target, cost)`,
/// stopping at the first node satisfying `is_target`; returns the pid
/// path. Successors are expanded in pid order, so the path depends only
/// on the graph structure.
fn bfs_path(
    graph: &BuiltGraph,
    start: u32,
    is_target: impl Fn(u32) -> bool,
    admit: impl Fn(u32, u32) -> bool,
) -> Vec<ProcessId> {
    use std::collections::{HashMap, VecDeque};
    if is_target(start) {
        return Vec::new();
    }
    let mut back: HashMap<u32, (u32, ProcessId)> = HashMap::new();
    let mut queue = VecDeque::from([start]);
    while let Some(w) = queue.pop_front() {
        for (p, t, c) in graph.succs(w) {
            if !admit(t, c) || t == start || back.contains_key(&t) {
                continue;
            }
            back.insert(t, (w, p));
            if is_target(t) {
                let mut path = Vec::new();
                let mut at = t;
                while at != start {
                    let (prev, pid) = back[&at];
                    path.push(pid);
                    at = prev;
                }
                path.reverse();
                return path;
            }
            queue.push_back(t);
        }
    }
    unreachable!("BFS target must be reachable inside an SCC")
}

/// Reconstructs a schedule realizing the DP optimum: take a positive
/// optimal edge whenever one exists at the current node; otherwise
/// detour breadth-first through free optimum-preserving edges to the
/// nearest node that has one (or to a goal when the remaining optimum
/// is zero).
fn witness(graph: &BuiltGraph, scc: &Condensation, value: &[i64], total: i64) -> Vec<ProcessId> {
    const NONE: i64 = i64::MIN;
    let mut out = Vec::new();
    let mut u = graph.root;
    let mut remaining = total;
    // An optimal positive edge out of `w` given the remaining optimum.
    let positive = |w: u32, remaining: i64| {
        graph.succs(w).find(|&(_, t, c)| {
            let tv = value[scc.comp[t as usize]];
            c > 0 && tv != NONE && i64::from(c) + tv == remaining
        })
    };
    loop {
        if remaining == 0 && graph.nodes[u as usize].goal {
            return out;
        }
        if let Some((p, t, c)) = positive(u, remaining) {
            out.push(p);
            remaining -= i64::from(c);
            u = t;
            continue;
        }
        // Free detour: BFS over zero-cost optimum-preserving edges to
        // the nearest node with a positive optimal edge (or a goal,
        // when nothing remains to collect).
        let path = bfs_path(
            graph,
            u,
            |w| {
                (remaining == 0 && graph.nodes[w as usize].goal) || positive(w, remaining).is_some()
            },
            |t, c| c == 0 && value[scc.comp[t as usize]] == remaining,
        );
        // Advance along the path.
        for &p in &path {
            let (_, t, _) = graph
                .succs(u)
                .find(|&(q, _, _)| q == p)
                .expect("BFS path follows existing edges");
            u = t;
        }
        out.extend(path);
    }
}
