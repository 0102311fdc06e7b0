//! The adversary game driver: [`force`] plays the full game for one
//! algorithm instance and returns the forced cost per model plus a
//! replayable witness schedule; [`force_curve`] sweeps a grid of `n`
//! and fits the paper's `c·n·log₂n` growth law.

use std::cell::RefCell;

use exclusion_cost::{run_priced_probed, CostTracker};
use exclusion_mutex::registry::AlgorithmRegistry;
use exclusion_shmem::dynamic::{DynAutomaton, DynRef};
use exclusion_shmem::probe::{NoProbe, Probe, SharedProbe, SpanScope, TraceEvent};
use exclusion_shmem::sched::{GreedyAdversary, Script, Traced};
use exclusion_shmem::spec::SpecError;
use exclusion_shmem::{faulted_script, run_faulted_with, FaultPlan, ProcessId, Scheduler, Step};

use crate::adversary::AdaptiveAdversary;
use crate::fit::{fit_nlogn, Fit};

/// The cost models a forced run is priced under, in the index order of
/// every `[usize; 3]` in this module: state-change (the paper's model),
/// cache-coherent, distributed shared memory.
pub const MODELS: [&str; 3] = ["sc", "cc", "dsm"];

/// Index of the SC model in [`MODELS`]-ordered arrays.
pub const SC: usize = 0;

/// A [`MODELS`]-ordered cost array as the members of a JSON object
/// (`"sc":1,"cc":2,"dsm":3`), as `workload bound` reports it.
#[must_use]
pub fn models_json(costs: &[usize; 3]) -> String {
    MODELS
        .iter()
        .zip(costs)
        .map(|(m, x)| format!("\"{m}\":{x}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// The cost models a *crash* game is priced under, in the index order
/// of every `[usize; 2]` in the crash-game API: cache-coherent remote
/// memory references (a crash wipes the victim's cache, so crashes
/// raise RMR-CC cost) and distributed-shared-memory RMRs (remoteness
/// is topological, so RMR-DSM is crash-insensitive).
pub const RMR_MODELS: [&str; 2] = ["rmr-cc", "rmr-dsm"];

/// Index of the RMR-CC model in [`RMR_MODELS`]-ordered arrays.
pub const RMR_CC: usize = 0;

/// An [`RMR_MODELS`]-ordered cost array as the members of a JSON object
/// (`"rmr-cc":1,"rmr-dsm":2`), as `workload crash` reports it.
#[must_use]
pub fn rmr_models_json(costs: &[usize; 2]) -> String {
    RMR_MODELS
        .iter()
        .zip(costs)
        .map(|(m, x)| format!("\"{m}\":{x}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Bounds and knobs for one adversary game.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BoundConfig {
    /// Passages every process is driven to (default 1 — the paper's
    /// one-passage trying-protocol game).
    pub passages: usize,
    /// Step budget per strategy run.
    pub max_steps: usize,
    /// Tie-break seed for the adaptive strategy.
    pub seed: u64,
    /// Starvation-valve threshold for both strategies; `None` is the
    /// shared default of `4·n + 4` picks.
    pub patience: Option<usize>,
    /// Crash budget granted to the fault driver per strategy run
    /// (default 0 — the crash-free game). Only [`force_crash`] and
    /// [`force_crash_curve`] read it: the classic [`force`] game is
    /// crash-free by definition and ignores the field.
    pub crashes: usize,
}

impl Default for BoundConfig {
    fn default() -> Self {
        BoundConfig {
            passages: 1,
            max_steps: 50_000_000,
            seed: 0,
            patience: None,
            crashes: 0,
        }
    }
}

/// The outcome of one adversary game: one algorithm at one `n`.
///
/// The *forced* cost under each model is the best any strategy in the
/// adversary's portfolio achieved — the adaptive knowledge-partition
/// strategy and the greedy baseline it must dominate (an adversary is a
/// strategy family: it may always play the stronger member, so
/// `forced ≥ greedy` holds per model by construction, and the
/// interesting measurement is how far `adaptive` alone moves past
/// `greedy`). [`script`](ForcedRun::script) replays the SC-winning
/// schedule bit-identically through any generic driver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ForcedRun {
    /// Algorithm name (the automaton's own, or the registry label when
    /// produced by [`force_curve`]).
    pub algorithm: String,
    /// Process count.
    pub n: usize,
    /// Passage target per process.
    pub passages: usize,
    /// Steps of the SC-winning schedule.
    pub steps: usize,
    /// The SC-winning schedule; replaying it through `run_priced` (via
    /// [`ForcedRun::script`]) reproduces `forced[SC]` exactly.
    pub schedule: Vec<ProcessId>,
    /// Forced cost per model ([`MODELS`] order): the portfolio maximum.
    pub forced: [usize; 3],
    /// Which strategy realized each forced cost.
    pub winner: [&'static str; 3],
    /// The adaptive strategy's cost per model.
    pub adaptive: [usize; 3],
    /// The greedy baseline's cost per model.
    pub greedy: [usize; 3],
    /// Why strategy runs failed (step-budget exhaustion), labeled per
    /// strategy. A failed strategy contributes zero cost; the game
    /// still [`completed`](ForcedRun::completed) as long as any
    /// strategy finished.
    pub errors: Vec<String>,
}

impl ForcedRun {
    /// The witness schedule as a [`Script`] scheduler, ready to replay
    /// through `run_scheduler` or `run_priced`.
    #[must_use]
    pub fn script(&self) -> Script {
        Script::new(self.schedule.clone())
    }

    /// Whether at least one portfolio strategy completed the game (so
    /// the forced costs and the witness schedule are meaningful).
    #[must_use]
    pub fn completed(&self) -> bool {
        self.winner[SC] != "none"
    }
}

/// One forced-cost curve: an algorithm swept over a grid of `n`, with
/// per-model least-squares fits against `c·n·log₂n`.
#[derive(Clone, PartialEq, Debug)]
pub struct BoundCurve {
    /// Resolved registry label.
    pub algorithm: String,
    /// One game per grid point, in grid order.
    pub cells: Vec<ForcedRun>,
    /// Per-model fits of the forced costs over the grid ([`MODELS`]
    /// order), over the cells that completed.
    pub fits: [Fit; 3],
}

/// One strategy's outcome: its cost per model and its witness, or why
/// it failed.
type Outcome<const M: usize, W> = Result<([usize; M], W), String>;

/// Runs one strategy through the streaming pricer: its cost per model
/// and its witness, the schedule and its length. A strategy that stops
/// before every process has completed its passages played no game.
fn play<P: Probe>(
    alg: &dyn DynAutomaton,
    sched: impl Scheduler,
    cfg: &BoundConfig,
    probe: P,
) -> Outcome<3, (Vec<ProcessId>, usize)> {
    let mut traced = Traced::new(sched);
    let priced = run_priced_probed(
        &DynRef(alg),
        &mut traced,
        cfg.passages,
        cfg.max_steps,
        probe,
    )
    .map_err(|e| e.to_string())?;
    complete(priced.steps, priced.completed, alg.processes())?;
    let costs = [priced.sc.total(), priced.cc.total(), priced.dsm.total()];
    Ok((costs, (traced.into_picks(), priced.steps)))
}

/// Refuses a strategy run that stopped with fewer than `n` processes
/// done: its cost is not the cost of a whole game.
fn complete(steps: usize, completed: usize, n: usize) -> Result<(), String> {
    if completed < n {
        return Err(format!(
            "strategy stopped after {steps} steps with {completed}/{n} processes finished"
        ));
    }
    Ok(())
}

/// Brackets one strategy run with a [`SpanScope::Game`] span (wall
/// clock on the end event only — event equality ignores it).
fn timed<P: Probe, T>(mut probe: P, tag: u32, run: impl FnOnce() -> T) -> T {
    if !probe.enabled() {
        return run();
    }
    let start = std::time::Instant::now();
    probe.record(&TraceEvent::SpanStart {
        scope: SpanScope::Game,
        tag,
    });
    let out = run();
    probe.record(&TraceEvent::SpanEnd {
        scope: SpanScope::Game,
        tag,
        wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    });
    out
}

/// Plays the adversary game for one algorithm instance: runs every
/// portfolio strategy to completion, prices each run in one streaming
/// pass, and keeps the per-model best (see [`ForcedRun`]).
#[must_use]
pub fn force(alg: &dyn DynAutomaton, cfg: &BoundConfig) -> ForcedRun {
    force_impl(alg, cfg, NoProbe)
}

/// [`force`] with a [`Probe`] observing the whole game: per-strategy
/// [`SpanScope::Game`] spans, every step and cost charge of both
/// priced runs, and the adaptive strategy's harvest/reveal/merge moves
/// — one interleaved, deterministic event stream ([`force`] is this
/// function with [`NoProbe`], so the unprobed game is unchanged).
///
/// The probe is shared between the adversary and the pricing driver
/// through a [`SharedProbe`], which is why this entry takes `&mut dyn
/// Probe` rather than being generic: both emitters hold a handle to
/// the same cell for the duration of the game.
#[must_use]
pub fn force_probed(alg: &dyn DynAutomaton, cfg: &BoundConfig, probe: &mut dyn Probe) -> ForcedRun {
    let cell = RefCell::new(probe);
    force_impl(alg, cfg, SharedProbe::new(&cell))
}

fn force_impl<P: Probe + Copy>(alg: &dyn DynAutomaton, cfg: &BoundConfig, probe: P) -> ForcedRun {
    let (adaptive, greedy) = strategies(cfg);
    let adaptive = adaptive.with_probe(probe);
    let game = portfolio(
        timed(probe, 0, || play(alg, adaptive, cfg, probe)),
        timed(probe, 1, || play(alg, greedy, cfg, probe)),
    );
    let (schedule, steps) = game.witness.unwrap_or_default();
    ForcedRun {
        algorithm: alg.name(),
        n: alg.processes(),
        passages: cfg.passages,
        steps,
        schedule,
        forced: game.forced,
        winner: game.winner,
        adaptive: game.adaptive,
        greedy: game.greedy,
        errors: game.errors,
    }
}

/// The two strategies of the portfolio, as `cfg` configures them.
fn strategies(cfg: &BoundConfig) -> (AdaptiveAdversary, GreedyAdversary) {
    match cfg.patience {
        None => (AdaptiveAdversary::new(cfg.seed), GreedyAdversary::new()),
        Some(p) => (
            AdaptiveAdversary::with_patience(cfg.seed, p),
            GreedyAdversary::with_patience(p),
        ),
    }
}

/// What one portfolio game keeps of its two strategies, per cost model
/// (`M` models, in the order of [`MODELS`] or [`RMR_MODELS`]).
struct Portfolio<const M: usize, W> {
    forced: [usize; M],
    winner: [&'static str; M],
    adaptive: [usize; M],
    greedy: [usize; M],
    /// The witness of the strategy that won on the first model.
    witness: Option<W>,
    errors: Vec<String>,
}

/// The portfolio step of [`force`] and [`force_crash`]: given the
/// adaptive strategy's outcome, then the greedy baseline's (each its
/// cost per model and its witness), keeps each strategy's costs, takes
/// the per-model maximum with ties going to adaptive, keeps the witness
/// that wins on the first model, and labels each error with its
/// strategy. A failed strategy contributes zero cost.
fn portfolio<const M: usize, W>(adaptive: Outcome<M, W>, greedy: Outcome<M, W>) -> Portfolio<M, W> {
    let mut game = Portfolio {
        forced: [0; M],
        winner: ["none"; M],
        adaptive: [0; M],
        greedy: [0; M],
        witness: None,
        errors: Vec::new(),
    };
    for (name, outcome) in [("fanlynch", adaptive), ("greedy-adversary", greedy)] {
        match outcome {
            Ok((costs, witness)) => {
                if name == "fanlynch" {
                    game.adaptive = costs;
                } else {
                    game.greedy = costs;
                }
                for (m, &c) in costs.iter().enumerate() {
                    // Strictly-greater keeps the adaptive strategy (run
                    // first) as the winner on ties.
                    if game.winner[m] == "none" || c > game.forced[m] {
                        game.forced[m] = c;
                        game.winner[m] = name;
                    }
                }
                if game.winner[0] == name {
                    game.witness = Some(witness);
                }
            }
            Err(e) => game.errors.push(format!("{name}: {e}")),
        }
    }
    game
}

/// The names of `registry`'s register-only deadlock-free entries, in
/// registration order — the algorithms the paper's Ω(n log n) theorem
/// covers. RMW locks live outside the register-only model, and entries
/// that disclaim deadlock-freedom (the splitter locks) can strand
/// every contender, so a forced-passage game against them need never
/// complete; both are filtered out by their own metadata, so
/// downstream growth suites and benchmarks cannot drift from the
/// registry.
#[must_use]
pub fn register_only(registry: &AlgorithmRegistry) -> Vec<String> {
    registry
        .entries()
        .filter(|e| !e.info().uses_rmw && e.info().deadlock_free)
        .map(|e| e.info().name.clone())
        .collect()
}

/// Plays the game for `spec` (an algorithm registry spelling, resolved
/// per grid point so the instance matches each `n`) across the grid
/// `ns`, and fits the forced cost per model against `c·n·log₂n`.
///
/// # Errors
///
/// Returns [`SpecError`] when the spec does not parse, does not
/// resolve, or a grid point is below the entry's `min_n` floor.
pub fn force_curve(
    registry: &AlgorithmRegistry,
    spec: &str,
    ns: &[usize],
    cfg: &BoundConfig,
) -> Result<BoundCurve, SpecError> {
    let (algorithm, cells, fits) = play_grid(
        registry,
        spec,
        ns,
        |alg, algorithm| ForcedRun {
            algorithm,
            ..force(alg, cfg)
        },
        |cell| cell.completed().then_some((cell.n, cell.forced)),
    )?;
    Ok(BoundCurve {
        algorithm,
        cells,
        fits,
    })
}

/// The grid step of [`force_curve`] and [`force_crash_curve`]: resolves
/// `spec` at each grid point, plays `game` on it (handing over the
/// resolved label), and fits each model's forced cost, as `point`
/// reports it for a completed game, against `c·n·log₂n`. Returns the
/// last resolved label, the games in grid order and the fits.
fn play_grid<C, const M: usize>(
    registry: &AlgorithmRegistry,
    spec: &str,
    ns: &[usize],
    mut game: impl FnMut(&dyn DynAutomaton, String) -> C,
    point: impl Fn(&C) -> Option<(usize, [usize; M])>,
) -> Result<(String, Vec<C>, [Fit; M]), SpecError> {
    let mut label = String::new();
    let mut cells = Vec::with_capacity(ns.len());
    for &n in ns {
        let resolved = registry.resolve_str(spec, n)?;
        label.clone_from(&resolved.label);
        cells.push(game(resolved.automaton.as_ref(), resolved.label));
    }
    let fits = std::array::from_fn(|m| {
        let (grid, costs): (Vec<usize>, Vec<usize>) = cells
            .iter()
            .filter_map(&point)
            .map(|(n, forced)| (n, forced[m]))
            .unzip();
        fit_nlogn(&grid, &costs)
    });
    Ok((label, cells, fits))
}

/// The outcome of one *crash* adversary game: one algorithm at one `n`
/// under one crash budget, priced under the RMR models.
///
/// The scheduling portfolio is the same as [`force`]'s (adaptive
/// knowledge-partition strategy, then the greedy baseline), but every
/// strategy run goes through the fault driver with a
/// [`FaultPlan::in_critical`] plan of `budget` crashes — the plan that
/// aims each crash at a critical-section occupant, the point where a
/// recoverable lock has the most volatile state to lose. With budget 0
/// the fault driver injects nothing and the game degenerates to the
/// crash-free pipeline: both games price with one [`CostTracker`], so
/// the RMR-CC/RMR-DSM columns are then [`force`]'s CC/DSM columns
/// (pinned by test).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CrashForcedRun {
    /// Algorithm name (the automaton's own, or the registry label when
    /// produced by [`force_crash_curve`]).
    pub algorithm: String,
    /// Process count.
    pub n: usize,
    /// Passage target per process.
    pub passages: usize,
    /// Crash budget handed to the fault driver per strategy run.
    pub budget: usize,
    /// Crashes actually injected in the RMR-CC-winning run (≤ budget;
    /// a plan aiming at the critical section may not spend it all).
    pub injected: usize,
    /// Steps of the RMR-CC-winning run, crash steps included.
    pub steps: usize,
    /// Full step trace of the RMR-CC-winning run;
    /// [`replay_artifacts`](CrashForcedRun::replay_artifacts) turns it
    /// back into a `(Script, FaultPlan)` pair.
    pub witness: Vec<Step>,
    /// Forced cost per RMR model ([`RMR_MODELS`] order): the portfolio
    /// maximum.
    pub forced: [usize; 2],
    /// Which strategy realized each forced cost.
    pub winner: [&'static str; 2],
    /// The adaptive strategy's cost per RMR model.
    pub adaptive: [usize; 2],
    /// The greedy baseline's cost per RMR model.
    pub greedy: [usize; 2],
    /// Why strategy runs failed, labeled per strategy (as in
    /// [`ForcedRun::errors`]).
    pub errors: Vec<String>,
}

impl CrashForcedRun {
    /// The `(Script, FaultPlan)` pair that replays the RMR-CC-winning
    /// run bit-identically through [`run_faulted_with`].
    #[must_use]
    pub fn replay_artifacts(&self) -> (Script, FaultPlan) {
        faulted_script(&self.witness)
    }

    /// Whether at least one portfolio strategy completed the game.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.winner[RMR_CC] != "none"
    }
}

/// Runs one strategy through the fault driver, recording each step and
/// pricing it with a streaming [`CostTracker`] in the same pass: its CC
/// cost (a crash wipes the victim's cache) is the run's RMR-CC cost and
/// its DSM cost the RMR-DSM cost. Like [`play`], it refuses a run that
/// stops short.
fn play_faulted(
    alg: &dyn DynAutomaton,
    mut sched: impl Scheduler,
    cfg: &BoundConfig,
) -> Outcome<2, Vec<Step>> {
    let dref = DynRef(alg);
    let mut plan = FaultPlan::in_critical(cfg.crashes);
    let mut tracker = CostTracker::new(&dref);
    let mut witness = Vec::new();
    let run = run_faulted_with(
        &dref,
        &mut sched,
        &mut plan,
        cfg.passages,
        cfg.max_steps,
        &mut NoProbe,
        |done| {
            tracker.observe(done);
            witness.push(done.step);
        },
    )
    .map_err(|e| e.to_string())?;
    complete(run.steps, run.completed, alg.processes())?;
    Ok(([tracker.cc().total(), tracker.dsm().total()], witness))
}

/// Plays the crash adversary game for one algorithm instance: every
/// portfolio strategy runs through the fault driver with a fresh
/// `cfg.crashes`-crash plan, priced under the RMR models as it runs,
/// and the per-model best is kept (see [`CrashForcedRun`]).
#[must_use]
pub fn force_crash(alg: &dyn DynAutomaton, cfg: &BoundConfig) -> CrashForcedRun {
    let (adaptive, greedy) = strategies(cfg);
    let game = portfolio(
        play_faulted(alg, adaptive, cfg),
        play_faulted(alg, greedy, cfg),
    );
    let witness = game.witness.unwrap_or_default();
    CrashForcedRun {
        algorithm: alg.name(),
        n: alg.processes(),
        passages: cfg.passages,
        budget: cfg.crashes,
        injected: witness
            .iter()
            .filter(|s| matches!(s, Step::Crash { .. }))
            .count(),
        steps: witness.len(),
        witness,
        forced: game.forced,
        winner: game.winner,
        adaptive: game.adaptive,
        greedy: game.greedy,
        errors: game.errors,
    }
}

/// One row of a crash-forced grid: a crash budget swept over the `n`
/// grid, with per-RMR-model `c·n·log₂n` fits over the completed cells.
#[derive(Clone, PartialEq, Debug)]
pub struct CrashRow {
    /// Crash budget of every cell in this row.
    pub budget: usize,
    /// One crash game per grid point, in grid order.
    pub cells: Vec<CrashForcedRun>,
    /// Per-RMR-model fits of the forced costs over the grid
    /// ([`RMR_MODELS`] order).
    pub fits: [Fit; 2],
}

/// A forced-RMR-cost-per-crash-budget grid: one [`CrashRow`] per entry
/// of the swept budget list, each sweeping the same `n` grid.
#[derive(Clone, PartialEq, Debug)]
pub struct CrashCurve {
    /// Resolved registry label.
    pub algorithm: String,
    /// One row per crash budget, in sweep order.
    pub rows: Vec<CrashRow>,
}

/// Plays the crash game for `spec` across the grid `ns` under each
/// crash budget in `ks` (overriding `cfg.crashes` per row), and fits
/// each row's forced RMR costs against `c·n·log₂n`. The `ks = [0]`
/// grid reproduces the crash-free pipeline's CC/DSM columns exactly.
///
/// # Errors
///
/// Returns [`SpecError`] when the spec does not parse, does not
/// resolve, or a grid point is below the entry's `min_n` floor.
pub fn force_crash_curve(
    registry: &AlgorithmRegistry,
    spec: &str,
    ns: &[usize],
    ks: &[usize],
    cfg: &BoundConfig,
) -> Result<CrashCurve, SpecError> {
    let mut algorithm = String::new();
    let mut rows = Vec::with_capacity(ks.len());
    for &k in ks {
        let row_cfg = BoundConfig { crashes: k, ..*cfg };
        let (label, cells, fits) = play_grid(
            registry,
            spec,
            ns,
            |alg, algorithm| CrashForcedRun {
                algorithm,
                ..force_crash(alg, &row_cfg)
            },
            |cell| cell.completed().then_some((cell.n, cell.forced)),
        )?;
        algorithm = label;
        rows.push(CrashRow {
            budget: k,
            cells,
            fits,
        });
    }
    Ok(CrashCurve { algorithm, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_cost::run_priced;

    #[test]
    fn forced_dominates_both_strategies_and_the_script_replays() {
        let reg = AlgorithmRegistry::standard();
        let cfg = BoundConfig::default();
        for spec in ["dekker-tree", "peterson", "bakery"] {
            let alg = reg.resolve_str(spec, 4).unwrap().automaton;
            let run = force(alg.as_ref(), &cfg);
            assert!(
                run.completed() && run.errors.is_empty(),
                "{spec}: {:?}",
                run.errors
            );
            for (m, model) in MODELS.iter().enumerate() {
                assert!(run.forced[m] >= run.adaptive[m], "{spec} {model}");
                assert!(run.forced[m] >= run.greedy[m], "{spec} {model}");
                assert_eq!(
                    run.forced[m],
                    run.adaptive[m].max(run.greedy[m]),
                    "{spec} {model}"
                );
            }
            let priced = run_priced(
                &DynRef(alg.as_ref()),
                &mut run.script(),
                cfg.passages,
                run.steps + 1,
            )
            .unwrap();
            assert_eq!(priced.completed, 4, "{spec}: the witness is a whole game");
            assert_eq!(priced.steps, run.steps, "{spec}");
            assert_eq!(priced.sc.total(), run.forced[SC], "{spec}");
        }
    }

    #[test]
    fn probed_game_matches_unprobed_and_brackets_both_strategies() {
        struct Collect(Vec<TraceEvent>);
        impl Probe for Collect {
            fn record(&mut self, ev: &TraceEvent) {
                self.0.push(*ev);
            }
        }
        let reg = AlgorithmRegistry::standard();
        let alg = reg.resolve_str("peterson", 4).unwrap().automaton;
        let cfg = BoundConfig::default();
        let plain = force(alg.as_ref(), &cfg);
        let mut probe = Collect(Vec::new());
        let probed = force_probed(alg.as_ref(), &cfg, &mut probe);
        assert_eq!(plain, probed);
        let count = |f: fn(&TraceEvent) -> bool| probe.0.iter().filter(|ev| f(ev)).count();
        // One span per portfolio strategy, properly paired.
        assert_eq!(count(|ev| matches!(ev, TraceEvent::SpanStart { .. })), 2);
        assert_eq!(count(|ev| matches!(ev, TraceEvent::SpanEnd { .. })), 2);
        // The stream interleaves driver and adversary events.
        assert!(count(|ev| matches!(ev, TraceEvent::Charged { .. })) > 0);
        assert!(count(|ev| matches!(ev, TraceEvent::Merge { .. })) > 0);
    }

    #[test]
    fn force_is_deterministic() {
        let reg = AlgorithmRegistry::standard();
        let alg = reg.resolve_str("burns-lynch", 5).unwrap().automaton;
        let cfg = BoundConfig {
            seed: 3,
            ..BoundConfig::default()
        };
        let a = force(alg.as_ref(), &cfg);
        let b = force(alg.as_ref(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn exhausted_budgets_fail_the_cell_only_when_no_strategy_finishes() {
        let reg = AlgorithmRegistry::standard();
        let alg = reg.resolve_str("bakery", 3).unwrap().automaton;
        let run = force(
            alg.as_ref(),
            &BoundConfig {
                max_steps: 3,
                ..BoundConfig::default()
            },
        );
        assert!(!run.completed());
        assert_eq!(run.errors.len(), 2, "{:?}", run.errors);
        assert!(run.schedule.is_empty());
        assert_eq!(run.forced, [0; 3]);
    }

    /// With a zero crash budget the fault driver is inert, so the crash
    /// game's RMR-CC/RMR-DSM columns are bit-identical to the classic
    /// game's CC/DSM columns — the k = 0 row of every crash grid is the
    /// existing no-crash pipeline, not a lookalike.
    #[test]
    fn zero_budget_crash_games_match_the_crash_free_pipeline() {
        let reg = AlgorithmRegistry::standard();
        let cfg = BoundConfig::default();
        for spec in ["peterson", "rtas", "rpeterson"] {
            let alg = reg.resolve_str(spec, 3).unwrap().automaton;
            let plain = force(alg.as_ref(), &cfg);
            let crash = force_crash(alg.as_ref(), &cfg);
            assert!(crash.completed(), "{spec}: {:?}", crash.errors);
            assert_eq!(crash.injected, 0, "{spec}");
            assert_eq!(crash.forced, [plain.forced[1], plain.forced[2]], "{spec}");
            assert_eq!(
                crash.adaptive,
                [plain.adaptive[1], plain.adaptive[2]],
                "{spec}"
            );
            assert_eq!(crash.greedy, [plain.greedy[1], plain.greedy[2]], "{spec}");
        }
    }

    #[test]
    fn crash_games_dominate_both_strategies_and_the_witness_replays() {
        let reg = AlgorithmRegistry::standard();
        let cfg = BoundConfig {
            crashes: 2,
            ..BoundConfig::default()
        };
        for spec in ["rtas", "rpeterson"] {
            let alg = reg.resolve_str(spec, 3).unwrap().automaton;
            let run = force_crash(alg.as_ref(), &cfg);
            assert!(
                run.completed() && run.errors.is_empty(),
                "{spec}: {:?}",
                run.errors
            );
            assert!(run.injected <= run.budget, "{spec}");
            for (m, model) in RMR_MODELS.iter().enumerate() {
                assert!(run.forced[m] >= run.greedy[m], "{spec} {model}");
                assert_eq!(
                    run.forced[m],
                    run.adaptive[m].max(run.greedy[m]),
                    "{spec} {model}"
                );
            }
            // The recorded witness replays bit-identically through the
            // fault driver, completes every passage and re-prices to the
            // forced RMR-CC cost.
            let (mut script, mut plan) = run.replay_artifacts();
            let mut replayed = Vec::new();
            let replay = run_faulted_with(
                &DynRef(alg.as_ref()),
                &mut script,
                &mut plan,
                cfg.passages,
                run.steps + 1,
                &mut NoProbe,
                |d| replayed.push(d.step),
            )
            .unwrap();
            assert_eq!(replay.completed, 3, "{spec}: the witness is a whole game");
            assert_eq!(replayed, run.witness, "{spec}");
            let winner = if run.winner[RMR_CC] == "fanlynch" {
                run.adaptive[RMR_CC]
            } else {
                run.greedy[RMR_CC]
            };
            let cc = exclusion_cost::cc_cost(
                &DynRef(alg.as_ref()),
                &exclusion_shmem::Execution::from_steps(replayed),
            )
            .unwrap();
            assert_eq!(cc.total(), winner, "{spec}");
        }
    }

    #[test]
    fn crash_games_are_deterministic() {
        let reg = AlgorithmRegistry::standard();
        let alg = reg.resolve_str("rtas", 4).unwrap().automaton;
        let cfg = BoundConfig {
            crashes: 2,
            seed: 7,
            ..BoundConfig::default()
        };
        let a = force_crash(alg.as_ref(), &cfg);
        let b = force_crash(alg.as_ref(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn crash_curves_sweep_budgets_and_reproduce_the_crash_free_row() {
        let reg = AlgorithmRegistry::standard();
        let cfg = BoundConfig::default();
        let curve = force_crash_curve(&reg, "rtas", &[2, 3], &[0, 1, 2], &cfg).unwrap();
        assert_eq!(curve.algorithm, "rtas");
        assert_eq!(curve.rows.len(), 3);
        let plain = force_curve(&reg, "rtas", &[2, 3], &cfg).unwrap();
        for (row, &k) in curve.rows.iter().zip(&[0usize, 1, 2]) {
            assert_eq!(row.budget, k);
            assert_eq!(row.cells.len(), 2);
            assert!(row.cells.iter().all(CrashForcedRun::completed));
        }
        for (crash_cell, plain_cell) in curve.rows[0].cells.iter().zip(&plain.cells) {
            assert_eq!(
                crash_cell.forced,
                [plain_cell.forced[1], plain_cell.forced[2]],
                "k = 0 row is the no-crash pipeline"
            );
        }
    }

    #[test]
    fn curves_resolve_per_grid_point_and_fit() {
        let reg = AlgorithmRegistry::standard();
        let curve = force_curve(&reg, "dekker-tree", &[2, 4, 8], &BoundConfig::default()).unwrap();
        assert_eq!(curve.algorithm, "dekker-tree");
        assert_eq!(curve.cells.len(), 3);
        assert!(curve.cells.iter().all(ForcedRun::completed));
        assert!(curve.fits[SC].c > 0.0);
        assert!(force_curve(&reg, "no-such-lock", &[2], &BoundConfig::default()).is_err());
    }
}
