//! `explore-exact`: exact exploration with two workers. Each case puts
//! most of its time in a different layer:
//!
//! 1. `raw` — `analyze(peterson, n = 3, SC)`: asymmetric states, so
//!    the transposition table and BFS; unit: states;
//! 2. `orbit` — `explore(splitter-gate, n = 5)`: orbit representatives,
//!    so `shmem::symmetry` canonicalization; unit: states;
//! 3. `cc` — `analyze(dekker-tree, n = 3, CC)`: the cache-coherent
//!    product graph and its longest-path search; unit: product nodes.
//!
//! The traced run adds the scale cases — peterson at n = 5 (844,693
//! states), splitter-gate at n = 9 and dekker-tree at n = 4 under CC
//! (136,876 product nodes) — for the two-worker speed-up, bytes per
//! state and the sampled layer timings. No case depends on the seed,
//! so every pin is checked under every seed.

use std::hint::black_box;
use std::time::Instant;

use exclusion_explore::{
    analyze_probed, explore_probed, ExploreConfig, ExploreReport, HazardKind, Model,
    WorstCaseReport, WorstCost,
};
use exclusion_mutex::registry::{AlgorithmRegistry, DynAlgorithm};
use exclusion_shmem::dynamic::{DynAutomaton, DynState};
use exclusion_shmem::{canonicalize_snapshot, DynRef, ProcessId, Snapshot, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tracer::{PhaseProbe, Tracer};
use crate::{status_kib, CaseTime, Checks, Config, Counts, Ledger, Workload};

/// Worker threads of every exploration (the box has two cores).
const WORKERS: usize = 2;

/// What a case's outputs must equal.
struct Pins {
    states: u64,
    edges: u64,
    depth: u64,
    /// The exact worst case, `None` for unbounded (a pump exists).
    worst: Option<u64>,
    incumbent: u64,
    /// Worst-case product nodes and edges (CC only).
    nodes: u64,
    worst_edges: u64,
    deadlock: bool,
}

/// One case: a registry spec at a size, and how it is run.
struct Case {
    spec: &'static str,
    n: usize,
    /// `Some(model)`: `analyze` (certify + worst case); `None`: `explore`.
    model: Option<Model>,
    pins: Pins,
}

fn peterson(n: usize, states: u64, edges: u64, depth: u64, incumbent: u64) -> Case {
    Case {
        spec: "peterson",
        n,
        model: Some(Model::Sc),
        pins: Pins {
            states,
            edges,
            depth,
            worst: None,
            incumbent,
            nodes: 0,
            worst_edges: 0,
            deadlock: false,
        },
    }
}

fn splitter_gate(n: usize, states: u64, edges: u64, depth: u64) -> Case {
    Case {
        spec: "splitter-gate",
        n,
        model: None,
        pins: Pins {
            states,
            edges,
            depth,
            worst: None,
            incumbent: 0,
            nodes: 0,
            worst_edges: 0,
            deadlock: true,
        },
    }
}

fn cc(
    spec: &'static str,
    n: usize,
    worst: u64,
    incumbent: u64,
    nodes: u64,
    worst_edges: u64,
) -> Case {
    Case {
        spec,
        n,
        model: Some(Model::Cc),
        pins: Pins {
            states: 0,
            edges: 0,
            depth: 0,
            worst: Some(worst),
            incumbent,
            nodes,
            worst_edges,
            deadlock: false,
        },
    }
}

/// The timed cases: `raw`, `orbit`, `cc`, at every size. Each takes
/// 20–70 ms, so a run times a couple of hundred rounds, and its table
/// stays near the core's own cache: larger tables time the other
/// tenants' memory traffic as much as the explorer.
fn cases() -> [Case; 3] {
    [
        peterson(3, 2285, 6112, 36, 96),
        splitter_gate(5, 6312, 28_062, 45),
        cc("dekker-tree", 3, 44, 33, 6183, 16_145),
    ]
}

/// The traced run's scale cases, larger than the timed ones: the table
/// outgrows the caches and the second worker pays off.
fn scale_cases(quick: bool) -> [Case; 3] {
    if quick {
        [
            peterson(4, 27_765, 97_860, 48, 155),
            splitter_gate(5, 6312, 28_062, 45),
            cc("dekker-tree", 3, 44, 33, 6183, 16_145),
        ]
    } else {
        [
            peterson(5, 844_693, 3_768_588, 80, 273),
            splitter_gate(9, 167_782, 1_338_867, 81),
            cc("dekker-tree", 4, 65, 63, 136_876, 464_844),
        ]
    }
}

/// A case and its resolved automaton.
type Resolved = (Case, DynAlgorithm);

/// The set-up `explore-exact` workload.
pub struct Explore {
    cfg: Config,
    cases: [Resolved; 3],
    scale: [Resolved; 3],
    /// Resident set before the first exploration, for bytes per state.
    rss_before_kib: u64,
}

fn resolve(case: Case) -> Result<Resolved, String> {
    let alg = AlgorithmRegistry::global()
        .resolve_str(case.spec, case.n)
        .map_err(|e| format!("{}: {e}", case.spec))?
        .automaton;
    Ok((case, alg))
}

impl Explore {
    /// Resolves the algorithms and warms the explorer up on two small
    /// instances at one worker (thread start-up under a loaded host is
    /// the noisiest thing a set-up could time).
    ///
    /// # Errors
    ///
    /// An algorithm that fails to resolve.
    pub fn setup(cfg: &Config) -> Result<Self, String> {
        let [raw, orbit, cc] = cases();
        let [big_raw, big_orbit, big_cc] = scale_cases(cfg.quick);
        let solo = ExploreConfig {
            workers: 1,
            ..explore_config()
        };
        for warm in [peterson(3, 0, 0, 0, 0), splitter_gate(5, 0, 0, 0)] {
            let (case, alg) = resolve(warm)?;
            black_box(Self::run_case(&case, &alg, &solo, &mut Tracer::new(false)));
        }
        Ok(Explore {
            cfg: *cfg,
            cases: [resolve(raw)?, resolve(orbit)?, resolve(cc)?],
            scale: [resolve(big_raw)?, resolve(big_orbit)?, resolve(big_cc)?],
            rss_before_kib: status_kib("VmRSS"),
        })
    }

    /// Every pin of `case` checked against its reports.
    fn check(
        &self,
        case: &Case,
        report: &ExploreReport,
        worst: Option<&WorstCaseReport>,
    ) -> Checks {
        let mut ck = Checks::default();
        let p = &case.pins;
        ck.ok(!report.truncated, "exploration truncated");
        ck.ok(report.violation.is_none(), "mutual exclusion violated");
        let deadlock = report
            .hazard
            .as_ref()
            .is_some_and(|h| h.kind == HazardKind::Deadlock);
        ck.eq("deadlock found", deadlock, p.deadlock);
        if case.model != Some(Model::Cc) {
            ck.eq("states", report.states as u64, self.cfg.pin(p.states));
            ck.eq("edges", report.edges as u64, p.edges);
            ck.eq("depth", report.depth as u64, p.depth);
        }
        if case.model.is_some() {
            let Some(w) = worst else {
                ck.ok(false, "no worst-case report");
                return ck;
            };
            ck.ok(!w.truncated, "worst-case search truncated");
            let exact = match w.cost {
                WorstCost::Exact { cost, .. } => Some(cost as u64),
                WorstCost::Unbounded { .. } => None,
                WorstCost::Unknown => {
                    ck.ok(false, "worst case unknown");
                    None
                }
            };
            ck.eq("worst", exact, p.worst);
            ck.eq("incumbent", w.incumbent as u64, p.incumbent);
            if case.model == Some(Model::Cc) {
                ck.eq("worst nodes", w.nodes as u64, self.cfg.pin(p.nodes));
                ck.eq("worst edges", w.edges as u64, p.worst_edges);
            }
        }
        ck
    }

    /// Runs one case inside a span; the explorer's own certification
    /// and worst-case phases become child spans.
    fn run_case(
        case: &Case,
        alg: &DynAlgorithm,
        cfg: &ExploreConfig,
        tr: &mut Tracer,
    ) -> (ExploreReport, Option<WorstCaseReport>) {
        match case.model {
            Some(model) => tr.span("explore.analyze", |tr| {
                analyze_probed(alg.as_ref(), model, cfg, &mut PhaseProbe::new(tr))
            }),
            None => tr.span("explore.explore", |tr| {
                let report = explore_probed(alg.as_ref(), cfg, &mut PhaseProbe::new(tr));
                (report, None)
            }),
        }
    }

    /// Runs and checks one case; returns its reports and host seconds.
    fn timed(
        &self,
        (case, alg): &Resolved,
        cfg: &ExploreConfig,
        tr: &mut Tracer,
        ledger: &mut Ledger,
    ) -> (ExploreReport, Option<WorstCaseReport>, f64) {
        let start = Instant::now();
        let (report, worst) = Self::run_case(case, alg, cfg, tr);
        let secs = start.elapsed().as_secs_f64();
        let ck = self.check(case, &report, worst.as_ref());
        ledger.record(
            &format!("{} n={} ({} workers)", case.spec, case.n, cfg.workers),
            ck.0,
        );
        (report, worst, secs)
    }
}

fn explore_config() -> ExploreConfig {
    ExploreConfig {
        workers: WORKERS,
        ..ExploreConfig::default()
    }
}

impl Workload for Explore {
    fn round(
        &self,
        _round: usize,
        tr: &mut Tracer,
        ledger: &mut Ledger,
        counts: &mut Counts,
    ) -> [CaseTime; 3] {
        let cfg = explore_config();
        let (raw, _, raw_secs) = self.timed(&self.cases[0], &cfg, tr, ledger);
        let (orbit, _, orbit_secs) = self.timed(&self.cases[1], &cfg, tr, ledger);
        let (_, cc, cc_secs) = self.timed(&self.cases[2], &cfg, tr, ledger);
        counts.insert("explore.states", raw.states as f64);
        counts.insert("explore.edges", raw.edges as f64);
        counts.insert("explore.dedup_ratio", raw.dedup_ratio());
        counts.insert("explore.peak_frontier", raw.peak_frontier as f64);
        let nodes = cc.as_ref().map_or(0, |w| w.nodes);
        counts.insert("worst.nodes", nodes as f64);
        counts.insert("worst.edges", cc.as_ref().map_or(0, |w| w.edges) as f64);
        [
            CaseTime {
                items: raw.states as f64,
                secs: raw_secs,
            },
            CaseTime {
                items: orbit.states as f64,
                secs: orbit_secs,
            },
            CaseTime {
                items: nodes as f64,
                secs: cc_secs,
            },
        ]
    }

    fn layer_metrics(
        &self,
        rounds: &Tracer,
        count: usize,
        tr: &mut Tracer,
        ledger: &mut Ledger,
        layer: &mut Counts,
    ) {
        let per_round = count.max(1) as f64;
        layer.insert(
            "explore.certify_s",
            rounds.total_ms("explore.certify") / 1e3 / per_round,
        );
        layer.insert(
            "explore.worst_s",
            rounds.total_ms("explore.worst") / 1e3 / per_round,
        );

        // The scale cases: the pinned sizes, and `raw`'s certification
        // at one worker against two.
        let certify_s = |t: &Tracer| t.total_ms("explore.certify") / 1e3;
        let mut two = Tracer::with_origin(true, tr.origin());
        let (big, _, _) = self.timed(&self.scale[0], &explore_config(), &mut two, ledger);
        let mut one = Tracer::with_origin(true, tr.origin());
        let solo = ExploreConfig {
            workers: 1,
            ..explore_config()
        };
        self.timed(&self.scale[0], &solo, &mut one, ledger);
        if certify_s(&two) > 0.0 {
            layer.insert("explore.speedup_2w", certify_s(&one) / certify_s(&two));
        }
        tr.append(two);
        tr.append(one);
        if big.states > 0 {
            let grown = status_kib("VmHWM").saturating_sub(self.rss_before_kib);
            layer.insert(
                "explore.bytes_per_state",
                (grown * 1024) as f64 / big.states as f64,
            );
        }
        self.timed(&self.scale[1], &explore_config(), tr, ledger);
        self.timed(&self.scale[2], &explore_config(), tr, ledger);

        // Layer timings over sampled reachable snapshots of the scale
        // instances.
        let gate = &self.scale[1].1;
        let snaps = sample_snapshots(gate.as_ref(), SAMPLES, self.cfg.seed);
        let ns = tr.span("shmem.canonicalize_snapshot", |_| {
            per_call_ns(snaps.len(), || {
                for s in &snaps {
                    black_box(canonicalize_snapshot(gate.as_ref(), s));
                }
            })
        });
        layer.insert("shmem.canonicalize_ns", ns);

        let alg = &self.scale[0].1;
        let snaps = sample_snapshots(alg.as_ref(), SAMPLES, self.cfg.seed);
        let dref = DynRef(alg.as_ref());
        let n = alg.processes();
        let ns = tr.span("shmem.expand", |_| {
            per_call_ns(snaps.len() * n, || {
                for s in &snaps {
                    for p in ProcessId::all(n) {
                        let mut sys = System::from_snapshot(&dref, s);
                        black_box(sys.step(p));
                        black_box(sys.snapshot());
                    }
                }
            })
        });
        layer.insert("shmem.expand_ns", ns);
    }
}

/// Reachable snapshots sampled per layer timing.
const SAMPLES: usize = 4096;

/// Nanoseconds per call of `pass` (which makes `calls` calls), repeated
/// until at least 0.2 s has been timed.
fn per_call_ns(calls: usize, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed().as_secs_f64() < 0.2 {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (f64::from(passes) * calls.max(1) as f64)
}

/// `count` reachable snapshots from seeded random walks, each process
/// bounded to one passage (the explorer's bound), restarting every 512
/// steps or when every process is done.
fn sample_snapshots(alg: &dyn DynAutomaton, count: usize, seed: u64) -> Vec<Snapshot<DynState>> {
    let dref = DynRef(alg);
    let n = alg.processes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut sys = System::new(&dref);
    let mut walked = 0;
    while out.len() < count {
        let live: Vec<ProcessId> = ProcessId::all(n).filter(|&p| sys.passages(p) < 1).collect();
        if live.is_empty() || walked == 512 {
            sys = System::new(&dref);
            walked = 0;
            continue;
        }
        sys.step(live[rng.random_range(0..live.len())]);
        walked += 1;
        out.push(sys.snapshot());
    }
    out
}
