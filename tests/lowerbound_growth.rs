//! The adaptive adversary's forced-cost curves over the growth grid
//! n ∈ {8, 16, 32, 64}: the portfolio dominates the greedy baseline at
//! every grid point for **every** registry algorithm, the register-only
//! (paper-model) curves are superlinear per step, and their SC fits
//! against `c·n·log₂n` are pinned.
//!
//! The superlinearity and fit pins are scoped to the register-only
//! suite deliberately: the paper's Ω(n log n) theorem is a statement
//! about algorithms built from reads and writes. The RMW locks live
//! outside that model (the lower-bound construction rejects them), and
//! several are genuinely O(n) under SC — a test-and-set spin whose
//! failed swap leaves the state unchanged is free, and a ticket lock's
//! single-register spin only changes state when its turn arrives — so
//! their curves are *supposed* to stay linear. The dominance check
//! still covers them: whatever an algorithm's growth class, the
//! adversary must never report less than its own greedy member.
//!
//! The whole output of every game on the grid, and of the crash games
//! of the recoverable locks, is also pinned by digest, and every crash
//! game's witness replays through the fault driver.

use std::sync::OnceLock;

use exclusion::bound::{
    force_crash_curve, force_curve, register_only, BoundConfig, BoundCurve, CrashCurve,
    CrashForcedRun, ForcedRun, MODELS, RMR_CC, RMR_MODELS, SC,
};
use exclusion::cost::cc_cost;
use exclusion::mutex::registry::AlgorithmRegistry;
use exclusion::shmem::{run_faulted_with, DynRef, Execution, NoProbe, RmwOp, Step};

/// The growth grid the satellite pins.
const GRID: [usize; 4] = [8, 16, 32, 64];

/// One forced curve per deadlock-free registry algorithm, computed
/// once and shared by every test in this binary (the filter column
/// alone is millions of simulated steps; no reason to pay it per
/// assertion). Entries that disclaim deadlock-freedom (the splitter
/// locks) are excluded: a forced-passage game against a lock that can
/// strand every contender need never complete, so the dominance and
/// growth contracts below do not apply to them.
fn curves() -> &'static Vec<BoundCurve> {
    static CURVES: OnceLock<Vec<BoundCurve>> = OnceLock::new();
    CURVES.get_or_init(|| {
        let registry = AlgorithmRegistry::global();
        registry
            .names()
            .iter()
            .filter(|name| registry.get(name).is_some_and(|e| e.info().deadlock_free))
            .map(|name| {
                force_curve(registry, name, &GRID, &BoundConfig::default())
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            })
            .collect()
    })
}

fn curve(algorithm: &str) -> &'static BoundCurve {
    curves()
        .iter()
        .find(|c| c.algorithm == algorithm)
        .unwrap_or_else(|| panic!("{algorithm} missing from the grid"))
}

/// Every registry algorithm, every grid point, every cost model: the
/// adversary's forced cost is at least the greedy adversary's — the
/// portfolio may never lose to its own baseline member.
#[test]
fn adaptive_forced_cost_dominates_greedy_at_every_grid_point() {
    for curve in curves() {
        for cell in &curve.cells {
            assert!(
                cell.completed() && cell.errors.is_empty(),
                "{} n={}: {:?}",
                curve.algorithm,
                cell.n,
                cell.errors
            );
            for (m, model) in MODELS.iter().enumerate() {
                assert!(
                    cell.forced[m] >= cell.greedy[m],
                    "{} n={} {model}: forced {} < greedy {}",
                    curve.algorithm,
                    cell.n,
                    cell.forced[m],
                    cell.greedy[m]
                );
                assert_eq!(
                    cell.forced[m],
                    cell.adaptive[m].max(cell.greedy[m]),
                    "{} n={} {model}: forced must be the portfolio max",
                    curve.algorithm,
                    cell.n
                );
            }
        }
    }
}

/// The adaptive strategy itself (not just the portfolio) must beat
/// greedy strictly somewhere — otherwise it contributes nothing. The
/// remote-spin algorithms are where the knowledge-partition strategy's
/// read-first harvesting wins.
#[test]
fn adaptive_strategy_strictly_beats_greedy_on_remote_spin_algorithms() {
    for name in ["peterson", "filter"] {
        for cell in &curve(name).cells {
            assert!(
                cell.adaptive[SC] > cell.greedy[SC],
                "{name} n={}: adaptive {} vs greedy {}",
                cell.n,
                cell.adaptive[SC],
                cell.greedy[SC]
            );
        }
    }
}

/// Register-only curves grow superlinearly: the per-step-normalized
/// cost `forced_sc(n) / n` strictly increases along the grid (checked
/// as the cross-multiplied integer inequality, no floats).
#[test]
fn register_only_sc_curves_are_superlinear_per_process() {
    for name in register_only(AlgorithmRegistry::global()) {
        let cells: &Vec<ForcedRun> = &curve(&name).cells;
        for pair in cells.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                b.forced[SC] * a.n > a.forced[SC] * b.n,
                "{name}: forced/n not increasing from n={} ({}) to n={} ({})",
                a.n,
                a.forced[SC],
                b.n,
                b.forced[SC]
            );
        }
    }
}

/// The SC fit coefficients over the grid, pinned. `force` is fully
/// deterministic, so these are exact reproductions of the measured
/// curves; the brackets (±20%) leave room for adversary improvements
/// while catching any regression that flattens a curve.
#[test]
fn sc_fit_coefficients_are_pinned() {
    let pinned: [(&str, f64); 7] = [
        ("dekker-tree", 8.49),
        ("peterson", 136.05),
        ("bakery", 29.96),
        ("filter", 8564.7),
        ("dijkstra", 392.1),
        ("burns-lynch", 459.5),
        // Crash-free, rpeterson delegates step-for-step to peterson
        // (the recovery section only runs after a crash, and no crash
        // is ever injected here), so its curve pins to the same value.
        ("rpeterson", 136.05),
    ];
    // The pin table must cover exactly the registry's register-only
    // entries: adding a paper-model lock without pinning its curve is
    // a test failure, not silent coverage drift.
    assert_eq!(
        pinned
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>(),
        register_only(AlgorithmRegistry::global()),
    );
    for (name, expected) in pinned {
        let fit = curve(name).fits[SC];
        assert!(
            fit.c > 0.0 && (fit.c - expected).abs() <= 0.2 * expected,
            "{name}: fitted c = {:.2}, pinned {expected:.2}",
            fit.c
        );
        // The tournament curve is essentially exact n·log n (r² ≈ 1);
        // the quadratic-and-worse curves still correlate strongly but
        // leave a visibly larger residual — filter (~n³ over this
        // grid) is the floor.
        assert!(fit.r2 > 0.85, "{name}: r² = {:.3}", fit.r2);
    }
}

/// FNV-1a over 64 bits. Its output is fixed by its definition, so the
/// pins below hold on every Rust release (`DefaultHasher`'s do not).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn usizes(&mut self, xs: &[usize]) {
        for &x in xs {
            self.u64(x as u64);
        }
    }

    fn step(&mut self, s: &Step) {
        self.u64(s.pid().index() as u64);
        match *s {
            Step::Read { reg, .. } => {
                self.u64(1);
                self.u64(reg.index() as u64);
            }
            Step::Write { reg, value, .. } => {
                self.u64(2);
                self.u64(reg.index() as u64);
                self.u64(value);
            }
            Step::Rmw { reg, op, .. } => {
                self.u64(3);
                self.u64(reg.index() as u64);
                let words = match op {
                    RmwOp::Swap(v) => [0, v, 0],
                    RmwOp::CompareAndSwap { expect, new } => [1, expect, new],
                    RmwOp::FetchAdd(v) => [2, v, 0],
                };
                for w in words {
                    self.u64(w);
                }
            }
            Step::Crit { kind, .. } => {
                self.u64(4);
                self.u64(kind as u64);
            }
            Step::Crash { .. } => self.u64(5),
        }
    }
}

/// Everything one forced game reports: the forced, adaptive and greedy
/// cost and the winner per model, the winning schedule and its length,
/// and the strategy errors.
fn forced_digest(run: &ForcedRun) -> u64 {
    let mut h = Fnv::new();
    h.usizes(&[run.n, run.passages, run.steps]);
    h.usizes(&run.forced);
    h.usizes(&run.adaptive);
    h.usizes(&run.greedy);
    for w in run.winner {
        h.str(w);
    }
    h.u64(run.schedule.len() as u64);
    for p in &run.schedule {
        h.u64(p.index() as u64);
    }
    h.u64(run.errors.len() as u64);
    for e in &run.errors {
        h.str(e);
    }
    h.0
}

/// Everything one crash game reports, its witness step by step.
fn crash_digest(run: &CrashForcedRun) -> u64 {
    let mut h = Fnv::new();
    h.usizes(&[run.n, run.passages, run.budget, run.injected, run.steps]);
    h.usizes(&run.forced);
    h.usizes(&run.adaptive);
    h.usizes(&run.greedy);
    for w in run.winner {
        h.str(w);
    }
    h.u64(run.witness.len() as u64);
    for s in &run.witness {
        h.step(s);
    }
    h.u64(run.errors.len() as u64);
    for e in &run.errors {
        h.str(e);
    }
    h.0
}

/// One pinned digest per (algorithm, n) of the growth grid.
#[rustfmt::skip]
const PINNED_FORCED_DIGESTS: &[(&str, usize, u64)] = &[
    ("dekker-tree", 8, 0xd1324c7798e39f51),
    ("dekker-tree", 16, 0x7fdbfd2db002bcad),
    ("dekker-tree", 32, 0x74cc8c124b18a72d),
    ("dekker-tree", 64, 0xda14f93b09779310),
    ("peterson", 8, 0x3df8a908e743aa8a),
    ("peterson", 16, 0xa91f1401dd1e1201),
    ("peterson", 32, 0xf92ec2667244bf2b),
    ("peterson", 64, 0xd9d9ee7e49fdd8e2),
    ("bakery", 8, 0xc02303158889ad23),
    ("bakery", 16, 0x26be34067d7bae42),
    ("bakery", 32, 0x6706ae89ff3b1eeb),
    ("bakery", 64, 0x767b973fed98a10b),
    ("filter", 8, 0xef6aa6e5fccd316e),
    ("filter", 16, 0x434745e6f8a1a9e5),
    ("filter", 32, 0x2c7f978f8abaee79),
    ("filter", 64, 0xe0c37a18f3e7fbe6),
    ("dijkstra", 8, 0x073edabad6f32fc5),
    ("dijkstra", 16, 0xfa1c561f5c8c35d0),
    ("dijkstra", 32, 0x6caf927ded4c8340),
    ("dijkstra", 64, 0x0d0c06db741d8eae),
    ("burns-lynch", 8, 0x5a7a5ad7537c2347),
    ("burns-lynch", 16, 0xda7be50cbaca38d3),
    ("burns-lynch", 32, 0xc4a9bc93bd5a2eb6),
    ("burns-lynch", 64, 0x57aba7a620a9f380),
    ("tas-sim", 8, 0x86b961e8e3596a1b),
    ("tas-sim", 16, 0x4e7a60446ea377ee),
    ("tas-sim", 32, 0xc1778d64fc19595e),
    ("tas-sim", 64, 0x0924e866eafc010e),
    ("ttas-sim", 8, 0x9c8856f7033c842d),
    ("ttas-sim", 16, 0xb7c304c8289961ef),
    ("ttas-sim", 32, 0x37853169a642563b),
    ("ttas-sim", 64, 0x6b2a3f195ce481af),
    ("mcs-sim", 8, 0xe8a5c96418f58843),
    ("mcs-sim", 16, 0xadbba3480f72f3b7),
    ("mcs-sim", 32, 0x722cf1596b65a4eb),
    ("mcs-sim", 64, 0xd8f13c71fc598260),
    ("mcs", 8, 0xefab2a9378041393),
    ("mcs", 16, 0x74060823dcbf2a97),
    ("mcs", 32, 0x7a751116d794c2ab),
    ("mcs", 64, 0x10a130baa7c4c08f),
    ("clh", 8, 0xdad6797a27a50ceb),
    ("clh", 16, 0xdedfe60430da652e),
    ("clh", 32, 0x41e9adf8a4400bae),
    ("clh", 64, 0xbe55248af95859e1),
    ("ticket", 8, 0x7191ed1f106eef13),
    ("ticket", 16, 0x2a4573866cdff85e),
    ("ticket", 32, 0x25d64d6c3def8a1e),
    ("ticket", 64, 0x0035323e772b732e),
    ("rpeterson", 8, 0x3df8a908e743aa8a),
    ("rpeterson", 16, 0xa91f1401dd1e1201),
    ("rpeterson", 32, 0xf92ec2667244bf2b),
    ("rpeterson", 64, 0xd9d9ee7e49fdd8e2),
    ("rtas", 8, 0x86b961e8e3596a1b),
    ("rtas", 16, 0x4e7a60446ea377ee),
    ("rtas", 32, 0xc1778d64fc19595e),
    ("rtas", 64, 0x0924e866eafc010e),
    ("broken-recover", 8, 0x86b961e8e3596a1b),
    ("broken-recover", 16, 0x4e7a60446ea377ee),
    ("broken-recover", 32, 0xc1778d64fc19595e),
    ("broken-recover", 64, 0x0924e866eafc010e),
];

/// The forced games above, replayed from the shared curves: every
/// cost, winner, step count and schedule is pinned.
#[test]
fn forced_outputs_match_their_pinned_digests() {
    let got: Vec<(&str, usize, u64)> = curves()
        .iter()
        .flat_map(|c| {
            c.cells
                .iter()
                .map(|cell| (c.algorithm.as_str(), cell.n, forced_digest(cell)))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(alg, n, d)| format!("    (\"{alg}\", {n}, {d:#018x}),\n"))
        .collect();
    assert!(
        got == PINNED_FORCED_DIGESTS,
        "force output changed; digests now:\n{table}"
    );
}

/// One pinned digest per (recoverable lock, n, crash budget).
#[rustfmt::skip]
const PINNED_CRASH_DIGESTS: &[(&str, usize, usize, u64)] = &[
    ("rpeterson", 2, 0, 0x8716af5c6926c473),
    ("rpeterson", 4, 0, 0xf72bb24764ce7321),
    ("rpeterson", 8, 0, 0xc4ef1b59f955ed9e),
    ("rpeterson", 16, 0, 0x6be529496a9b80ac),
    ("rpeterson", 2, 1, 0xaea7513e6aa025a9),
    ("rpeterson", 4, 1, 0x14d57c120e635872),
    ("rpeterson", 8, 1, 0xa3f4f79f11cde9ee),
    ("rpeterson", 16, 1, 0x45486310019c680f),
    ("rpeterson", 2, 2, 0x3dc17e061609bf57),
    ("rpeterson", 4, 2, 0xf2876f1bfe992a59),
    ("rpeterson", 8, 2, 0xe5e60d0b9da5610a),
    ("rpeterson", 16, 2, 0xc0c40bed1ec44481),
    ("rtas", 2, 0, 0x58e86b343ea43781),
    ("rtas", 4, 0, 0xf162e66702d24fe8),
    ("rtas", 8, 0, 0xe6020f2bb38895b0),
    ("rtas", 16, 0, 0x0d28f4ec84a913ea),
    ("rtas", 2, 1, 0x23af025dcbb2d256),
    ("rtas", 4, 1, 0x5eadf03893c90099),
    ("rtas", 8, 1, 0x6822ec8a6f3b624d),
    ("rtas", 16, 1, 0x5abe412e25096447),
    ("rtas", 2, 2, 0xe0d0d838e387889a),
    ("rtas", 4, 2, 0x6cfd581122f52317),
    ("rtas", 8, 2, 0x90f8f2a81f332b77),
    ("rtas", 16, 2, 0xd1ad5450cdbb073d),
    ("broken-recover", 2, 0, 0x58e86b343ea43781),
    ("broken-recover", 4, 0, 0xf162e66702d24fe8),
    ("broken-recover", 8, 0, 0xe6020f2bb38895b0),
    ("broken-recover", 16, 0, 0x0d28f4ec84a913ea),
    ("broken-recover", 2, 1, 0xcbc255189f932c56),
    ("broken-recover", 4, 1, 0x757f6da26ba3a17b),
    ("broken-recover", 8, 1, 0xd04086984d37220b),
    ("broken-recover", 16, 1, 0xea765a91aeef5181),
    ("broken-recover", 2, 2, 0xe1bdf154c5092dbb),
    ("broken-recover", 4, 2, 0xd479234d57ed1c26),
    ("broken-recover", 8, 2, 0x9d68c46096c9f906),
    ("broken-recover", 16, 2, 0xa09a623183850a14),
];

/// The recoverable locks of the crash grid (the planted
/// `broken-recover` included), its process counts and its crash
/// budgets.
const CRASH_LOCKS: [&str; 3] = ["rpeterson", "rtas", "broken-recover"];
const CRASH_GRID: [usize; 4] = [2, 4, 8, 16];
const BUDGETS: [usize; 3] = [0, 1, 2];

/// One crash curve per recoverable lock over the crash grid, computed
/// once and shared by the tests below, as [`curves`] is.
fn crash_curves() -> &'static Vec<CrashCurve> {
    static CURVES: OnceLock<Vec<CrashCurve>> = OnceLock::new();
    CURVES.get_or_init(|| {
        CRASH_LOCKS
            .iter()
            .map(|name| {
                force_crash_curve(
                    AlgorithmRegistry::global(),
                    name,
                    &CRASH_GRID,
                    &BUDGETS,
                    &BoundConfig::default(),
                )
                .unwrap_or_else(|e| panic!("{name}: {e}"))
            })
            .collect()
    })
}

/// The crash games of the recoverable locks (the planted
/// `broken-recover` included) over n ∈ {2, 4, 8, 16} and budgets
/// k ∈ {0, 1, 2}: injected crashes, both RMR columns, winners and the
/// witness, step by step, are pinned.
#[test]
fn crash_forced_outputs_match_their_pinned_digests() {
    let got: Vec<(&str, usize, usize, u64)> = crash_curves()
        .iter()
        .flat_map(|curve| {
            curve.rows.iter().flat_map(move |row| {
                row.cells.iter().map(move |cell| {
                    (
                        curve.algorithm.as_str(),
                        cell.n,
                        row.budget,
                        crash_digest(cell),
                    )
                })
            })
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(alg, n, k, d)| format!("    (\"{alg}\", {n}, {k}, {d:#018x}),\n"))
        .collect();
    assert!(
        got == PINNED_CRASH_DIGESTS,
        "crash-game output changed; digests now:\n{table}"
    );
}

/// The same crash games, checked cell by cell: every game completes,
/// the portfolio is the per-model maximum of its members under both
/// RMR models, the witness replays bit-identically through the fault
/// driver, completes every passage and re-prices to the winner's RMR-CC
/// cost, and the k = 0 row injects nothing and equals the crash-free
/// game's CC/DSM columns.
#[test]
fn crash_games_dominate_replay_and_reduce_to_the_crash_free_game() {
    let registry = AlgorithmRegistry::global();
    let cfg = BoundConfig::default();
    // The crash-free game's CC and DSM columns (MODELS indices 1 and 2).
    let cc_dsm = |costs: [usize; 3]| [costs[1], costs[2]];
    for curve in crash_curves() {
        let name = curve.algorithm.as_str();
        let plain = force_curve(registry, name, &CRASH_GRID, &cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for row in &curve.rows {
            for (cell, free) in row.cells.iter().zip(&plain.cells) {
                let at = format!("{name} n={} k={}", cell.n, row.budget);
                assert!(
                    cell.completed() && cell.errors.is_empty(),
                    "{at}: {:?}",
                    cell.errors
                );
                for (m, model) in RMR_MODELS.iter().enumerate() {
                    assert!(
                        cell.forced[m] >= cell.greedy[m],
                        "{at} {model}: forced {} < greedy {}",
                        cell.forced[m],
                        cell.greedy[m]
                    );
                    assert_eq!(
                        cell.forced[m],
                        cell.adaptive[m].max(cell.greedy[m]),
                        "{at} {model}: forced must be the portfolio max"
                    );
                }
                let alg = registry.resolve_str(name, cell.n).unwrap().automaton;
                let dref = DynRef(alg.as_ref());
                let (mut script, mut plan) = cell.replay_artifacts();
                let mut replayed = Execution::new();
                let run = run_faulted_with(
                    &dref,
                    &mut script,
                    &mut plan,
                    cfg.passages,
                    cell.steps + 1,
                    &mut NoProbe,
                    |d| replayed.push(d.step),
                )
                .unwrap_or_else(|e| panic!("{at}: witness replay failed: {e}"));
                assert_eq!(
                    run.completed, cell.n,
                    "{at}: the witness must complete every passage"
                );
                assert_eq!(
                    replayed.steps(),
                    cell.witness.as_slice(),
                    "{at}: witness replay"
                );
                let winner = if cell.winner[RMR_CC] == "fanlynch" {
                    cell.adaptive[RMR_CC]
                } else {
                    cell.greedy[RMR_CC]
                };
                assert_eq!(
                    cc_cost(&dref, &replayed).map(|r| r.total()),
                    Ok(winner),
                    "{at}: the witness must re-price to the winner's RMR-CC cost"
                );
                if row.budget == 0 {
                    assert_eq!(cell.injected, 0, "{at}");
                    assert_eq!(
                        [cell.forced, cell.adaptive, cell.greedy],
                        [
                            cc_dsm(free.forced),
                            cc_dsm(free.adaptive),
                            cc_dsm(free.greedy)
                        ],
                        "{at}: the k = 0 row must be the crash-free game"
                    );
                }
            }
        }
    }
}
