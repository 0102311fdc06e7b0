//! The `workload` CLI: build a scenario grid, run a sharded sweep,
//! print a summary table, and optionally write JSON/CSV reports — plus
//! the `explore` subcommand for exhaustive small-`n` certification, the
//! `bound` subcommand for adaptive forced-cost curves, the `crash`
//! subcommand for crash-recoverable certification and forced-RMR
//! curves under a crash-budget adversary, and the `trace`, `serve` and
//! `hwbench` subcommands.
//!
//! ```text
//! workload                                  # default grid, all cores
//! workload --algs dekker-tree,bakery --n 8 --passages 2 \
//!          --scheds greedy,random,burst,stagger --seeds 8 \
//!          --threads 4 --json sweep.json --csv sweep.csv
//! workload --algs filter:levels=6 --n 6 --scheds burst:wave=2,gap=32
//! workload --list                           # both registries, with metadata
//! workload explore --n 3 --model sc --json explore.json
//! workload explore --algs broken --n 2      # catch the planted race
//! workload bound --algs all --n 4..64       # force the Ω(n log n) bound
//! workload crash --crashes 2                # certify + crash the locks
//! ```
//!
//! Algorithms and schedulers are registry specs; unknown names fail
//! with the registry contents and a nearest-name suggestion. Every
//! subcommand reads its flags through [`exclusion_workload::cli::Flags`],
//! so a bad flag or value exits 1 with one `workload: …` line, the same
//! way everywhere. A sweep's seed grid holds at most 2^20 seeds per
//! scenario and must end at or below `u64::MAX`.

use std::fmt::Write as _;
use std::process::ExitCode;

use exclusion_explore::{analyze_probed, explore_probed, report as xreport, ExploreConfig, Model};
use exclusion_mutex::registry::{AlgorithmInfo, AlgorithmRegistry};
use exclusion_shmem::probe::{Probe, SpanScope, TraceEvent};
use exclusion_workload::cli::{self, Flags};
use exclusion_workload::schedreg::SchedulerRegistry;
use exclusion_workload::{sweep, Scenario, SchedSpec, SweepOptions};

const USAGE: &str = "\
workload — adversarial scenario sweeps over the mutual exclusion suite

USAGE:
    workload [OPTIONS]            sampled cost sweep (the default mode)
    workload explore [OPTIONS]    exhaustive exploration (see explore --help)
    workload bound [OPTIONS]      adaptive forced-cost curves (see bound --help)
    workload crash [OPTIONS]      crash-recoverable certification and
                                  forced-RMR curves (see crash --help)
    workload trace [OPTIONS]      trace one run to Chrome/Perfetto JSON
                                  (see trace --help)
    workload serve [OPTIONS]      open-stream lock service: arrival
                                  models, deadlines, live percentiles
                                  (see serve --help)
    workload hwbench [OPTIONS]    formal-vs-hardware differential: same
                                  arrival schedule simulated and run on
                                  real atomics (see hwbench --help)

OPTIONS:
    --algs A,B,...       algorithm specs to sweep (default:
                         dekker-tree,peterson); parameterized specs like
                         filter:levels=6 or ttas-sim:backoff=4 work
    --n N                processes per run (default: 8)
    --passages P         passages per process (default: 2)
    --scheds S,T,...     scheduler specs: sequential | round-robin |
                         random | greedy | burst[:wave=W,gap=G] |
                         stagger[:stride=S] (legacy burst:WxG and
                         stagger:S also parse; default:
                         greedy,random,burst,stagger)

                         Multi-parameter specs work inside a list
                         (greedy,burst:wave=2,gap=32,stagger parses as
                         two specs: a `k=v` fragment cannot start a
                         spec, so it attaches to the one before it),
                         and repeating --algs/--scheds appends
    --seeds K            seed-grid size for seeded schedulers (default: 8)
    --seed-base B        first seed of the grid (default: 1)
    --threads T          worker threads, 0 = one per core (default: 0)
    --max-steps N        step budget per run (default: 50000000)
    --json PATH          write the JSON report (`-` for stdout)
    --csv PATH           write the per-run CSV (`-` for stdout)
    --metrics PATH       aggregate trace metrics over every run and
                         write the metrics JSON (`-` for stdout)
    --quiet              suppress the summary table and timing
    --list               print both registries (entries, parameters,
                         metadata) and exit
    --list-algs          print known algorithm names and exit
    --help               this text
";

struct Args {
    algs: Vec<String>,
    n: usize,
    passages: usize,
    scheds: Vec<String>,
    seeds: u64,
    seed_base: u64,
    threads: usize,
    max_steps: usize,
    json: Option<String>,
    csv: Option<String>,
    metrics: Option<String>,
    quiet: bool,
}

/// Both registries rendered as aligned text — the CLI's `--list`.
fn render_registries(algs: &AlgorithmRegistry, scheds: &SchedulerRegistry) -> String {
    let mut out = String::from("algorithms:\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>5}  {:<5} {:<11} summary / params",
        "name", "min_n", "rmw", "cost"
    );
    for e in algs.entries() {
        let i = e.info();
        let _ = writeln!(
            out,
            "  {:<12} {:>5}  {:<5} {:<11} {}",
            i.name, i.min_n, i.uses_rmw, i.cost_class, i.summary
        );
        for p in &i.params {
            let _ = writeln!(out, "  {:<37} :{}=…  {}", "", p.key, p.help);
        }
    }
    out.push_str("\nschedulers:\n");
    let _ = writeln!(
        out,
        "  {:<17} {:<7} {:<18} summary / params",
        "name", "seeded", "aliases"
    );
    for e in scheds.entries() {
        let i = e.info();
        let _ = writeln!(
            out,
            "  {:<17} {:<7} {:<18} {}",
            i.name,
            i.seeded,
            i.aliases.join(","),
            i.summary
        );
        for p in &i.params {
            let _ = writeln!(out, "  {:<44} :{}=…  {}", "", p.key, p.help);
        }
    }
    out
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        algs: Vec::new(),
        n: 8,
        passages: 2,
        scheds: Vec::new(),
        seeds: 8,
        seed_base: 1,
        threads: 0,
        max_steps: 50_000_000,
        json: None,
        csv: None,
        metrics: None,
        quiet: false,
    };
    // Repeating --algs/--scheds appends, so multi-parameter specs
    // (whose commas would collide with the list separator) can ride in
    // their own flag occurrence; the defaults apply only when a list
    // was never given.
    let mut flags = Flags::new(argv, "--help");
    while let Some(flag) = flags.next() {
        match flag {
            "--algs" => args.algs.extend(flags.specs()?),
            "--n" => args.n = flags.parse()?,
            "--passages" => args.passages = flags.parse()?,
            "--scheds" => args.scheds.extend(flags.specs()?),
            "--seeds" => args.seeds = flags.parse()?,
            "--seed-base" => args.seed_base = flags.parse()?,
            "--threads" => args.threads = flags.parse()?,
            "--max-steps" => args.max_steps = flags.parse()?,
            "--json" => args.json = Some(flags.value()?.into()),
            "--csv" => args.csv = Some(flags.value()?.into()),
            "--metrics" => args.metrics = Some(flags.value()?.into()),
            "--quiet" => args.quiet = true,
            "--list" => {
                print!(
                    "{}",
                    render_registries(AlgorithmRegistry::global(), SchedulerRegistry::global())
                );
                return Ok(None);
            }
            "--list-algs" => {
                for name in AlgorithmRegistry::global().names() {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(flags.unknown(other)),
        }
    }
    if args.algs.is_empty() {
        args.algs = ["dekker-tree", "peterson"].map(String::from).to_vec();
    }
    if args.scheds.is_empty() {
        args.scheds = ["greedy", "random", "burst", "stagger"]
            .map(String::from)
            .to_vec();
    }
    if args.seeds == 0 {
        return Err("--seeds must be positive".into());
    }
    Ok(Some(args))
}

/// The most seeds one scenario may sweep. Each seed becomes a run
/// record, so the grid is bounded before anything is allocated.
const MAX_SEEDS: u64 = 1 << 20;

/// The grid is wired through the registries: scenario construction
/// parses both specs and resolves them once, so unknown names and bad
/// parameters fail here — with the registry contents and a
/// nearest-name suggestion in the message — before anything runs.
fn build_grid(args: &Args) -> Result<Vec<Scenario>, String> {
    if args.seeds > MAX_SEEDS {
        return Err(format!("--seeds: at most {MAX_SEEDS} seeds per scenario"));
    }
    if args
        .seed_base
        .checked_add(args.seeds.saturating_sub(1))
        .is_none()
    {
        return Err(format!(
            "--seed-base: {} seeds from {} run past u64::MAX",
            args.seeds, args.seed_base
        ));
    }
    let seeds: Vec<u64> = (0..args.seeds).map(|k| args.seed_base + k).collect();
    let mut scenarios = Vec::new();
    for alg in &args.algs {
        for sched_name in &args.scheds {
            let sched = SchedSpec::parse(sched_name).map_err(|e| e.to_string())?;
            let scenario = Scenario::builder(alg.clone(), args.n)
                .passages(args.passages)
                .sched(sched)
                .seeds(seeds.iter().copied())
                .max_steps(args.max_steps)
                .build()
                .map_err(|e| e.to_string())?;
            scenarios.push(scenario);
        }
    }
    Ok(scenarios)
}

/// Replaces an empty `--algs` list, or one naming `all`, with every
/// registry entry whose metadata passes `keep`.
fn all_where(algs: &mut Vec<String>, keep: impl Fn(&AlgorithmInfo) -> bool) {
    if algs.is_empty() || algs.iter().any(|a| a == "all") {
        *algs = AlgorithmRegistry::global()
            .entries()
            .filter(|e| keep(e.info()))
            .map(|e| e.info().name.clone())
            .collect();
    }
}

fn emit(path: &str, what: &str, content: &str) -> Result<(), String> {
    if path == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(path, content).map_err(|e| format!("writing {what} to {path}: {e}"))?;
        eprintln!("wrote {what} to {path}");
        Ok(())
    }
}

const EXPLORE_USAGE: &str = "\
workload explore — exhaustive bounded exploration: certified safety
verdicts and exact worst-case costs

USAGE:
    workload explore [OPTIONS]

OPTIONS:
    --algs A,B,...       algorithm specs to explore (default: every
                         entry of the conformance registry — the
                         standard suite plus the deliberately unsafe
                         `broken` lock)
    --n N                processes per instance (default: 3)
    --passages P         passage bound per process (default: 1)
    --model M            cost model for the worst-case search:
                         sc | cc | dsm (default: sc)
    --depth D            BFS depth bound (default: none)
    --max-states S       transposition-table cap (default: 2000000)
    --workers W          worker threads, 0 = one per core (default: 0)
    --no-worst           skip the exact worst-case search (verdicts only)
    --no-symmetry        disable orbit reduction (explore the raw state
                         space even for symmetric algorithms)
    --por                enable ample-set partial-order reduction for
                         the certification pass (verdict-preserving;
                         the worst-case search always runs without it,
                         and witness depths may exceed the minimum)
    --compress           store 128-bit fingerprints instead of full
                         snapshots in the transposition table (verdicts
                         then hold modulo fingerprint collisions)
    --spill              stream BFS frontiers through an unlinked temp
                         file instead of holding them in memory
    --json PATH          write the JSON report (`-` for stdout)
    --quiet              suppress the text table
    --help               this text

The table's `ms` column is each row's wall time (certification plus the
worst-case search); `states/s` is the certification pass's rate alone.
Neither is in the JSON report, which stays byte-comparable across runs.
The `greedy` column is the greedy adversary's cost, the incumbent the
exact worst case must dominate, or 0 when its run does not complete. For
locks that disclaim deadlock-freedom (the splitter locks, which greedy
strands) that run is capped at 100000 steps.

Exit status is nonzero when any explored algorithm other than `broken`
fails certification, or when `broken` is explored and NOT caught.
";

/// Wall time of an exploration's certification pass, read off its
/// [`SpanScope::Explore`] span.
struct CertifyClock(u64);

impl Probe for CertifyClock {
    fn record(&mut self, ev: &TraceEvent) {
        if let TraceEvent::SpanEnd {
            scope: SpanScope::Explore,
            wall_ns,
            ..
        } = *ev
        {
            self.0 += wall_ns;
        }
    }
}

/// Step budget of the greedy incumbent for entries whose metadata
/// disclaims deadlock-freedom. The greedy adversary can strand every
/// process of such a lock, and the run would then spend the whole
/// default budget only to report a cost of 0.
const STRANDABLE_INCUMBENT_STEPS: usize = 100_000;

struct ExploreArgs {
    algs: Vec<String>,
    n: usize,
    model: Model,
    no_worst: bool,
    json: Option<String>,
    quiet: bool,
    cfg: ExploreConfig,
}

fn parse_explore_args(argv: &[String]) -> Result<Option<ExploreArgs>, String> {
    let mut args = ExploreArgs {
        algs: Vec::new(),
        n: 3,
        model: Model::Sc,
        no_worst: false,
        json: None,
        quiet: false,
        cfg: ExploreConfig::default(),
    };
    let mut flags = Flags::new(argv, "explore --help");
    while let Some(flag) = flags.next() {
        match flag {
            "--algs" => args.algs.extend(flags.specs()?),
            "--n" => args.n = flags.parse()?,
            "--passages" => args.cfg.passages = flags.parse()?,
            "--model" => {
                args.model = flags.value_with(|v| {
                    Model::parse(v).ok_or_else(|| format!("`{v}` is not one of sc|cc|dsm"))
                })?;
            }
            "--depth" => args.cfg.max_depth = Some(flags.parse()?),
            "--max-states" => args.cfg.max_states = flags.parse()?,
            "--workers" => args.cfg.workers = flags.parse()?,
            "--no-worst" => args.no_worst = true,
            "--no-symmetry" => args.cfg.symmetry = false,
            "--por" => args.cfg.por = true,
            "--compress" => args.cfg.compress = true,
            "--spill" => args.cfg.spill = true,
            "--json" => args.json = Some(flags.value()?.into()),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{EXPLORE_USAGE}");
                return Ok(None);
            }
            other => return Err(flags.unknown(other)),
        }
    }
    if args.cfg.passages == 0 {
        return Err("--passages must be positive".into());
    }
    // The explorer's transposition table caps the instance size; turn
    // its internal asserts into flag errors.
    if args.n == 0 || args.n > 64 {
        return Err("--n must be between 1 and 64 (the explorer's process cap)".into());
    }
    // Single source of truth for the node-id budget: the explorer's
    // own structured validation, surfaced as a flag error with the
    // actual limit spelled out instead of an assert mid-run.
    if let Err(e) = args.cfg.validated() {
        return Err(e.to_string());
    }
    Ok(Some(args))
}

fn run_explore(argv: &[String]) -> Result<(), String> {
    let Some(args) = parse_explore_args(argv)? else {
        return Ok(());
    };
    let registry = exclusion_explore::conformance_registry();
    let specs: Vec<String> = if args.algs.is_empty() {
        registry
            .names()
            .into_iter()
            .filter(|name| {
                // Skip entries the requested n cannot instantiate (the
                // default grid at n=1 would otherwise trip on `broken`).
                registry.get(name).is_some_and(|e| e.info().min_n <= args.n)
            })
            .collect()
    } else {
        args.algs.clone()
    };

    let mut rows: Vec<Vec<String>> = vec![[
        "algorithm",
        "states",
        "edges",
        "depth",
        "safe",
        "dl-free",
        "worst",
        "greedy",
        "ms",
        "states/s",
        "note",
    ]
    .iter()
    .map(ToString::to_string)
    .collect()];
    let mut json_items: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for spec in &specs {
        let resolved = registry
            .resolve_str(spec, args.n)
            .map_err(|e| e.to_string())?;
        let alg = resolved.automaton;
        let cfg = if resolved.deadlock_free {
            args.cfg
        } else {
            ExploreConfig {
                max_steps: args.cfg.max_steps.min(STRANDABLE_INCUMBENT_STEPS),
                ..args.cfg
            }
        };
        // `analyze` shares one graph between certification and the SC
        // worst-case search; `--no-worst` skips the search entirely.
        let start = std::time::Instant::now();
        let mut clock = CertifyClock(0);
        let (report, worst) = if args.no_worst {
            (explore_probed(alg.as_ref(), &cfg, &mut clock), None)
        } else {
            analyze_probed(alg.as_ref(), args.model, &cfg, &mut clock)
        };
        let row_ms = start.elapsed().as_secs_f64() * 1e3;
        let states_per_s = report.states as f64 / (clock.0 as f64 / 1e9).max(1e-9);
        let note = if let Some(v) = &report.violation {
            format!(
                "violation in {} steps ({} and {} in critical)",
                v.schedule.len(),
                v.culprits.0.index(),
                v.culprits.1.index()
            )
        } else if let Some(h) = &report.hazard {
            format!("{} ({} doomed states)", h.kind, h.doomed_states)
        } else if report.truncated {
            format!(
                "truncated at {} states, not certified — raise --max-states",
                report.states
            )
        } else {
            String::new()
        };
        // `broken` must be caught; everything else must certify what
        // its registry metadata promises: mutual exclusion always, and
        // deadlock-freedom unless the entry disclaims it (the splitter
        // locks), in which case the hazard must be *found* — a certified
        // negative, not a free pass. A truncated run proves nothing
        // either way, so it always fails with the explicit diagnostic
        // rather than a clean pass.
        let caught = report.violation.is_some();
        if resolved.label == "broken" {
            if !caught {
                if report.truncated {
                    failures.push(format!("{}: {note}", resolved.label));
                } else {
                    failures.push(format!("{}: planted race NOT caught", resolved.label));
                }
            }
        } else if report.truncated {
            failures.push(format!("{}: {note}", resolved.label));
        } else if resolved.deadlock_free {
            if !report.certified_deadlock_free() {
                failures.push(format!("{}: not certified ({note})", resolved.label));
            }
        } else if !report.certified_safe() {
            failures.push(format!("{}: not certified safe ({note})", resolved.label));
        } else if args.n > 1 && report.hazard.is_none() {
            failures.push(format!(
                "{}: expected contention hazard NOT found",
                resolved.label
            ));
        }
        rows.push(vec![
            resolved.label.clone(),
            report.states.to_string(),
            report.edges.to_string(),
            report.depth.to_string(),
            if caught {
                "NO"
            } else if report.certified_safe() {
                "yes"
            } else {
                "?" // truncated: nothing was proved
            }
            .to_string(),
            if caught || report.hazard.is_some() {
                "NO"
            } else if report.certified_deadlock_free() {
                "yes"
            } else {
                "?"
            }
            .to_string(),
            worst
                .as_ref()
                .map_or_else(|| "-".into(), |w| xreport::cost_label(&w.cost)),
            worst
                .as_ref()
                .map_or_else(|| "-".into(), |w| w.incumbent.to_string()),
            format!("{row_ms:.1}"),
            format!("{states_per_s:.0}"),
            note,
        ]);
        let mut item = format!("{{\"explore\":{}", xreport::explore_json(&report));
        match &worst {
            Some(w) => {
                let _ = write!(item, ",\"worst\":{}}}", xreport::worst_json(w));
            }
            None => item.push_str(",\"worst\":null}"),
        }
        json_items.push(item);
    }

    if !args.quiet {
        // First and last (note) columns left-aligned, numbers right.
        let cols = rows[0].len();
        print!(
            "{}",
            exclusion_workload::report::text_table(&rows, &[0, cols - 1])
        );
    }
    if let Some(path) = &args.json {
        let json = format!(
            "{{\"schema\":\"{}\",\"n\":{},\"passages\":{},\"model\":\"{}\",\"results\":[{}]}}",
            xreport::JSON_SCHEMA,
            args.n,
            args.cfg.passages,
            args.model,
            json_items.join(",")
        );
        emit(path, "JSON report", &json)?;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

const BOUND_USAGE: &str = "\
workload bound — play the adaptive lower-bound adversary game and
report the forced cost per model, with a least-squares fit of the SC
curve against the paper's c·n·log₂n growth law

USAGE:
    workload bound [OPTIONS]

OPTIONS:
    --algs A,B,...|all   algorithm specs to force (default: all — every
                         registry entry)
    --n LO..HI|N,M,...   the n grid: a doubling range (4..64 means
                         4,8,16,32,64; the upper end is always
                         included) or an explicit comma list
                         (default: 4..64)
    --passages P         passages per process (default: 1)
    --seed S             adaptive tie-break seed (default: 0)
    --patience K         starvation-valve threshold for both portfolio
                         strategies (default: 4n+4)
    --max-steps N        step budget per strategy run (default: 50000000)
    --json PATH          write the JSON report (`-` for stdout)
    --quiet              suppress the text table
    --help               this text

Exit status is nonzero when any game fails to complete within its step
budget, when the forced cost falls below the greedy baseline anywhere
(the adversary portfolio must dominate it), or when a completed SC
curve does not fit c·n·log₂n with c > 0.
";

struct BoundArgs {
    algs: Vec<String>,
    ns: Vec<usize>,
    json: Option<String>,
    quiet: bool,
    cfg: exclusion_bound::BoundConfig,
}

/// Parses the `--n` grid: `LO..HI` (doubling, upper end included) or an
/// explicit comma list.
fn parse_grid(s: &str) -> Result<Vec<usize>, String> {
    let num = |t: &str| t.parse::<usize>().map_err(|e| e.to_string());
    let ns = match s.split_once("..") {
        Some((lo, hi)) => exclusion_bound::doubling_grid(num(lo)?, num(hi)?),
        None => s.split(',').map(num).collect::<Result<_, _>>()?,
    };
    if ns.is_empty() || ns.contains(&0) {
        return Err(format!("`{s}` is not a usable grid"));
    }
    Ok(ns)
}

fn parse_bound_args(argv: &[String]) -> Result<Option<BoundArgs>, String> {
    let mut args = BoundArgs {
        algs: Vec::new(),
        ns: exclusion_bound::doubling_grid(4, 64),
        json: None,
        quiet: false,
        cfg: exclusion_bound::BoundConfig::default(),
    };
    let mut flags = Flags::new(argv, "bound --help");
    while let Some(flag) = flags.next() {
        match flag {
            "--algs" => args.algs.extend(flags.specs()?),
            "--n" => args.ns = flags.value_with(parse_grid)?,
            "--passages" => args.cfg.passages = flags.parse()?,
            "--seed" => args.cfg.seed = flags.parse()?,
            "--patience" => args.cfg.patience = Some(flags.parse()?),
            "--max-steps" => args.cfg.max_steps = flags.parse()?,
            "--json" => args.json = Some(flags.value()?.into()),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{BOUND_USAGE}");
                return Ok(None);
            }
            other => return Err(flags.unknown(other)),
        }
    }
    if args.cfg.passages == 0 {
        return Err("--passages must be positive".into());
    }
    // A forced-passage game only terminates against locks that
    // guarantee progress; entries disclaiming deadlock-freedom (the
    // splitter locks) are excluded from `all`, though naming one
    // explicitly still plays it (and reports its stall).
    all_where(&mut args.algs, |info| info.deadlock_free);
    Ok(Some(args))
}

fn run_bound(argv: &[String]) -> Result<(), String> {
    use exclusion_bound::{force_curve, BoundCurve, MODELS, SC};

    let Some(args) = parse_bound_args(argv)? else {
        return Ok(());
    };
    let registry = AlgorithmRegistry::global();
    let mut curves: Vec<BoundCurve> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let start = std::time::Instant::now();
    for spec in &args.algs {
        let curve = force_curve(registry, spec, &args.ns, &args.cfg).map_err(|e| e.to_string())?;
        for cell in &curve.cells {
            if !cell.completed() {
                failures.push(format!(
                    "{} n={}: no strategy completed ({})",
                    curve.algorithm,
                    cell.n,
                    cell.errors.join("; ")
                ));
                continue;
            }
            for (m, model) in MODELS.iter().enumerate() {
                if cell.forced[m] < cell.greedy[m] {
                    failures.push(format!(
                        "{} n={} {model}: forced {} below greedy {}",
                        curve.algorithm, cell.n, cell.forced[m], cell.greedy[m]
                    ));
                }
            }
        }
        if curve
            .cells
            .iter()
            .any(exclusion_bound::ForcedRun::completed)
            && curve.fits[SC].c <= 0.0
        {
            failures.push(format!(
                "{}: SC fit c = {} is not positive",
                curve.algorithm, curve.fits[SC].c
            ));
        }
        curves.push(curve);
    }

    if !args.quiet {
        let mut rows: Vec<Vec<String>> = vec![[
            "algorithm",
            "n",
            "steps",
            "sc",
            "sc-adapt",
            "sc-greedy",
            "cc",
            "dsm",
            "winner",
            "note",
        ]
        .iter()
        .map(ToString::to_string)
        .collect()];
        for curve in &curves {
            for cell in &curve.cells {
                rows.push(vec![
                    curve.algorithm.clone(),
                    cell.n.to_string(),
                    cell.steps.to_string(),
                    cell.forced[0].to_string(),
                    cell.adaptive[0].to_string(),
                    cell.greedy[0].to_string(),
                    cell.forced[1].to_string(),
                    cell.forced[2].to_string(),
                    cell.winner[SC].to_string(),
                    cell.errors.join("; "),
                ]);
            }
        }
        let cols = rows[0].len();
        print!(
            "{}",
            exclusion_workload::report::text_table(&rows, &[0, cols - 2, cols - 1])
        );
        for curve in &curves {
            println!(
                "{}: sc ≈ {:.2}·n·log₂n (r² {:.3}); cc c={:.2}, dsm c={:.2}",
                curve.algorithm,
                curve.fits[0].c,
                curve.fits[0].r2,
                curve.fits[1].c,
                curve.fits[2].c
            );
        }
        eprintln!(
            "forced {} curves / {} games in {:.1} ms",
            curves.len(),
            curves.iter().map(|c| c.cells.len()).sum::<usize>(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    if let Some(path) = &args.json {
        emit(path, "JSON report", &bound_json(&args, &curves))?;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Hand-rolled JSON for the bound report, matching the house style of
/// the sweep and explore reports. Witness schedules are summarized by
/// length (they can run to millions of picks); replay them via the
/// library API instead.
fn bound_json(args: &BoundArgs, curves: &[exclusion_bound::BoundCurve]) -> String {
    use exclusion_bound::{models_json, MODELS};
    use exclusion_explore::report::json_escape;

    let mut out = format!(
        "{{\"schema\":\"exclusion-bound/v1\",\"passages\":{},\"seed\":{},\"max_steps\":{},\"grid\":{:?},\"curves\":[",
        args.cfg.passages, args.cfg.seed, args.cfg.max_steps, args.ns
    );
    for (i, curve) in curves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"fits\":{{",
            json_escape(&curve.algorithm)
        );
        for (m, model) in MODELS.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{model}\":{{\"c\":{:.6},\"r2\":{:.6}}}",
                if m > 0 { "," } else { "" },
                curve.fits[m].c,
                curve.fits[m].r2
            );
        }
        out.push_str("},\"cells\":[");
        for (j, cell) in curve.cells.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let errors = cell
                .errors
                .iter()
                .map(|e| format!("\"{}\"", json_escape(e)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                "{{\"n\":{},\"steps\":{},\"schedule_len\":{},\"forced\":{{{}}},\"adaptive\":{{{}}},\"greedy\":{{{}}},\"winner\":\"{}\",\"errors\":[{errors}]}}",
                cell.n,
                cell.steps,
                cell.schedule.len(),
                models_json(&cell.forced),
                models_json(&cell.adaptive),
                models_json(&cell.greedy),
                cell.winner[0],
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

const CRASH_USAGE: &str = "\
workload crash — the crash-budget adversary: exhaustively certify every
recoverable lock against bounded crash injection, then play the crash
game and report the forced cost in remote memory references (RMR-CC /
RMR-DSM) per crash budget

USAGE:
    workload crash [OPTIONS]

OPTIONS:
    --algs A,B,...|all   algorithm specs (default: every registry entry
                         claiming `recoverable`, the planted
                         broken-recover included)
    --n LO..HI|N,M,...   the n grid for the crash game (default: 2,3)
    --crashes K          the crash budget: games sweep every k in 0..=K
                         and certification uses K itself (default: 1)
    --no-certify         skip the exhaustive certification pass
    --no-symmetry        disable orbit reduction in the certification
                         pass (partial-order reduction is never applied
                         under crash branching)
    --compress           fingerprint the certification pass's
                         transposition table
    --spill              stream certification BFS frontiers through an
                         unlinked temp file
    --max-states S       certification transposition-table cap
                         (default: 2000000)
    --passages P         passages per process (default: 1)
    --seed S             adaptive tie-break seed (default: 0)
    --patience K         starvation-valve threshold for both portfolio
                         strategies (default: 4n+4)
    --max-steps N        step budget per strategy run (default: 50000000)
    --json PATH          write the JSON report (`-` for stdout)
    --quiet              suppress the text tables
    --help               this text

Certification explores the product of system states and crashes-used
exhaustively, so it runs only at the grid points with n <= 3; honest
locks must certify and the planted broken-recover must be refuted with
a replayable crash witness. Exit status is nonzero when either
expectation fails, when any crash game fails to complete, or when a
forced RMR cost falls below the greedy baseline.
";

struct CrashArgs {
    algs: Vec<String>,
    ns: Vec<usize>,
    budget: usize,
    certify: bool,
    json: Option<String>,
    quiet: bool,
    cfg: exclusion_bound::BoundConfig,
    /// Explorer knobs for the certification pass (`passages` is taken
    /// from `cfg` so the game and the certification agree on bounds).
    xcfg: ExploreConfig,
}

fn parse_crash_args(argv: &[String]) -> Result<Option<CrashArgs>, String> {
    let mut args = CrashArgs {
        algs: Vec::new(),
        ns: vec![2, 3],
        budget: 1,
        certify: true,
        json: None,
        quiet: false,
        cfg: exclusion_bound::BoundConfig::default(),
        xcfg: ExploreConfig::default(),
    };
    let mut flags = Flags::new(argv, "crash --help");
    while let Some(flag) = flags.next() {
        match flag {
            "--algs" => args.algs.extend(flags.specs()?),
            "--n" => args.ns = flags.value_with(parse_grid)?,
            "--crashes" => args.budget = flags.parse()?,
            "--no-certify" => args.certify = false,
            "--no-symmetry" => args.xcfg.symmetry = false,
            "--compress" => args.xcfg.compress = true,
            "--spill" => args.xcfg.spill = true,
            "--max-states" => args.xcfg.max_states = flags.parse()?,
            "--passages" => args.cfg.passages = flags.parse()?,
            "--seed" => args.cfg.seed = flags.parse()?,
            "--patience" => args.cfg.patience = Some(flags.parse()?),
            "--max-steps" => args.cfg.max_steps = flags.parse()?,
            "--json" => args.json = Some(flags.value()?.into()),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{CRASH_USAGE}");
                return Ok(None);
            }
            other => return Err(flags.unknown(other)),
        }
    }
    if args.cfg.passages == 0 {
        return Err("--passages must be positive".into());
    }
    // Same structured validation as the explore subcommand: an
    // oversized --max-states is a flag error, not a mid-run assert.
    if let Err(e) = args.xcfg.validated() {
        return Err(e.to_string());
    }
    all_where(&mut args.algs, |info| info.recoverable);
    Ok(Some(args))
}

fn run_crash(argv: &[String]) -> Result<(), String> {
    use exclusion_bound::{force_crash_curve, CrashCurve, RMR_CC, RMR_MODELS};
    use exclusion_explore::certify_recoverable;

    let Some(args) = parse_crash_args(argv)? else {
        return Ok(());
    };
    let registry = AlgorithmRegistry::global();
    let ks: Vec<usize> = (0..=args.budget).collect();
    let mut failures: Vec<String> = Vec::new();
    let start = std::time::Instant::now();

    // Pass 1: exhaustive certification at the small grid points. The
    // planted broken-recover must be refuted, honest locks must certify.
    let mut certs: Vec<(String, usize, exclusion_explore::CrashReport)> = Vec::new();
    if args.certify {
        let xcfg = ExploreConfig {
            passages: args.cfg.passages,
            ..args.xcfg
        };
        for spec in &args.algs {
            for &n in args.ns.iter().filter(|&&n| n <= 3) {
                let resolved = registry.resolve_str(spec, n).map_err(|e| e.to_string())?;
                let report = certify_recoverable(resolved.automaton.as_ref(), args.budget, &xcfg);
                let planted = resolved.label == "broken-recover";
                // A truncated exploration certifies (and refutes)
                // nothing: fail loudly instead of printing a clean
                // pass, whatever the entry.
                if report.truncated && report.violation.is_none() {
                    failures.push(format!(
                        "{} n={n}: truncated at {} states, not certified under {} crashes \
                         — raise the state cap",
                        resolved.label, report.states, args.budget
                    ));
                } else if planted && args.budget > 0 && report.violation.is_none() {
                    failures.push(format!(
                        "{} n={n}: planted unsafe recovery NOT caught under {} crashes",
                        resolved.label, args.budget
                    ));
                } else if !planted && !report.certified_recoverable() {
                    failures.push(format!(
                        "{} n={n}: not certified under {} crashes",
                        resolved.label, args.budget
                    ));
                }
                certs.push((resolved.label, n, report));
            }
        }
    }

    // Pass 2: the crash game, swept over budgets 0..=K.
    let mut curves: Vec<CrashCurve> = Vec::new();
    for spec in &args.algs {
        let curve = force_crash_curve(registry, spec, &args.ns, &ks, &args.cfg)
            .map_err(|e| e.to_string())?;
        for row in &curve.rows {
            for cell in &row.cells {
                if !cell.completed() {
                    failures.push(format!(
                        "{} n={} k={}: no strategy completed ({})",
                        curve.algorithm,
                        cell.n,
                        row.budget,
                        cell.errors.join("; ")
                    ));
                    continue;
                }
                for (m, model) in RMR_MODELS.iter().enumerate() {
                    if cell.forced[m] < cell.greedy[m] {
                        failures.push(format!(
                            "{} n={} k={} {model}: forced {} below greedy {}",
                            curve.algorithm, cell.n, row.budget, cell.forced[m], cell.greedy[m]
                        ));
                    }
                }
            }
        }
        curves.push(curve);
    }

    if !args.quiet {
        if !certs.is_empty() {
            let mut rows: Vec<Vec<String>> = vec![[
                "algorithm",
                "n",
                "budget",
                "states",
                "depth",
                "recoverable",
                "witness",
            ]
            .iter()
            .map(ToString::to_string)
            .collect()];
            for (label, n, report) in &certs {
                rows.push(vec![
                    label.clone(),
                    n.to_string(),
                    report.budget.to_string(),
                    report.states.to_string(),
                    report.depth.to_string(),
                    if report.violation.is_some() {
                        "NO"
                    } else if report.certified_recoverable() {
                        "yes"
                    } else {
                        "?" // truncated: nothing was proved
                    }
                    .to_string(),
                    report.violation.as_ref().map_or_else(String::new, |v| {
                        format!("{} steps, {} crashes", v.picks.len(), v.crashes())
                    }),
                ]);
            }
            let cols = rows[0].len();
            print!(
                "{}",
                exclusion_workload::report::text_table(&rows, &[0, cols - 1])
            );
        }
        let mut rows: Vec<Vec<String>> = vec![[
            "algorithm",
            "n",
            "k",
            "steps",
            "inj",
            "rmr-cc",
            "cc-adapt",
            "cc-greedy",
            "rmr-dsm",
            "winner",
            "note",
        ]
        .iter()
        .map(ToString::to_string)
        .collect()];
        for curve in &curves {
            for row in &curve.rows {
                for cell in &row.cells {
                    rows.push(vec![
                        curve.algorithm.clone(),
                        cell.n.to_string(),
                        row.budget.to_string(),
                        cell.steps.to_string(),
                        cell.injected.to_string(),
                        cell.forced[RMR_CC].to_string(),
                        cell.adaptive[RMR_CC].to_string(),
                        cell.greedy[RMR_CC].to_string(),
                        cell.forced[1].to_string(),
                        cell.winner[RMR_CC].to_string(),
                        cell.errors.join("; "),
                    ]);
                }
            }
        }
        let cols = rows[0].len();
        print!(
            "{}",
            exclusion_workload::report::text_table(&rows, &[0, cols - 2, cols - 1])
        );
        eprintln!(
            "crash-certified {} cells / forced {} games in {:.1} ms",
            certs.len(),
            curves
                .iter()
                .map(|c| c.rows.iter().map(|r| r.cells.len()).sum::<usize>())
                .sum::<usize>(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    if let Some(path) = &args.json {
        emit(path, "JSON report", &crash_json(&args, &certs, &curves))?;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Hand-rolled JSON for the crash report, matching the house style.
/// Witness traces are summarized by length and crash count; replay them
/// via the library API (`CrashForcedRun::replay_artifacts`,
/// `CrashCounterexample::replay_artifacts`) instead.
fn crash_json(
    args: &CrashArgs,
    certs: &[(String, usize, exclusion_explore::CrashReport)],
    curves: &[exclusion_bound::CrashCurve],
) -> String {
    use exclusion_bound::{rmr_models_json, RMR_CC, RMR_MODELS};
    use exclusion_explore::report::json_escape;

    let mut out = format!(
        "{{\"schema\":\"exclusion-crash/v1\",\"passages\":{},\"seed\":{},\"budget\":{},\"grid\":{:?},\"certify\":[",
        args.cfg.passages, args.cfg.seed, args.budget, args.ns
    );
    for (i, (label, n, report)) in certs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let witness = report.violation.as_ref().map_or_else(
            || "null".into(),
            |v| {
                format!(
                    "{{\"steps\":{},\"crashes\":{}}}",
                    v.picks.len(),
                    v.crashes()
                )
            },
        );
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"n\":{n},\"budget\":{},\"states\":{},\"edges\":{},\"depth\":{},\"certified\":{},\"violation\":{witness}}}",
            json_escape(label),
            report.budget,
            report.states,
            report.edges,
            report.depth,
            report.certified_recoverable(),
        );
    }
    out.push_str("],\"curves\":[");
    for (i, curve) in curves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"rows\":[",
            json_escape(&curve.algorithm)
        );
        for (j, row) in curve.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"crashes\":{},\"fits\":{{", row.budget);
            for (m, model) in RMR_MODELS.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\"{model}\":{{\"c\":{:.6},\"r2\":{:.6}}}",
                    if m > 0 { "," } else { "" },
                    row.fits[m].c,
                    row.fits[m].r2
                );
            }
            out.push_str("},\"cells\":[");
            for (c, cell) in row.cells.iter().enumerate() {
                if c > 0 {
                    out.push(',');
                }
                let errors = cell
                    .errors
                    .iter()
                    .map(|e| format!("\"{}\"", json_escape(e)))
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = write!(
                    out,
                    "{{\"n\":{},\"steps\":{},\"injected\":{},\"forced\":{{{}}},\"adaptive\":{{{}}},\"greedy\":{{{}}},\"winner\":\"{}\",\"errors\":[{errors}]}}",
                    cell.n,
                    cell.steps,
                    cell.injected,
                    rmr_models_json(&cell.forced),
                    rmr_models_json(&cell.adaptive),
                    rmr_models_json(&cell.greedy),
                    cell.winner[RMR_CC],
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

const TRACE_USAGE: &str = "\
workload trace — run one scenario with the structured probe attached
and export a Chrome trace-event JSON (load it at https://ui.perfetto.dev)

USAGE:
    workload trace [OPTIONS]

OPTIONS:
    --alg A              algorithm spec (default: peterson)
    --sched S            scheduler spec; `fanlynch` (aliases: adaptive,
                         fan-lynch) is constructed directly so its
                         internal awareness-merge / harvest / reveal
                         events are captured too (default: fanlynch)
    --n N                processes (default: 8)
    --passages P         passages per process (default: 1)
    --seed S             scheduler seed / adaptive tie-break (default: 1)
    --max-steps N        step budget (default: 50000000)
    --out PATH           write the Chrome trace JSON (`-` for stdout,
                         the default)
    --metrics PATH       also write the aggregated metrics JSON
    --progress every:N   print a status line to stderr every N events
                         (`--progress=every:N` also parses; 0 = off)
    --help               this text

The exported trace is a pure function of (alg, sched, n, passages,
seed): two identical invocations emit byte-identical JSON.
";

struct TraceArgs {
    alg: String,
    sched: String,
    n: usize,
    passages: usize,
    seed: u64,
    max_steps: usize,
    out: String,
    metrics: Option<String>,
    every: u64,
}

/// Parses a `--progress` value: `every:N` or plain `N`.
fn progress_every(v: &str) -> Result<u64, std::num::ParseIntError> {
    v.strip_prefix("every:").unwrap_or(v).parse()
}

fn parse_trace_args(argv: &[String]) -> Result<Option<TraceArgs>, String> {
    let mut args = TraceArgs {
        alg: "peterson".into(),
        sched: "fanlynch".into(),
        n: 8,
        passages: 1,
        seed: 1,
        max_steps: 50_000_000,
        out: "-".into(),
        metrics: None,
        every: 0,
    };
    let mut flags = Flags::new(argv, "trace --help");
    while let Some(flag) = flags.next() {
        match flag {
            "--alg" => args.alg = flags.value()?.into(),
            "--sched" => args.sched = flags.value()?.into(),
            "--n" => args.n = flags.parse()?,
            "--passages" => args.passages = flags.parse()?,
            "--seed" => args.seed = flags.parse()?,
            "--max-steps" => args.max_steps = flags.parse()?,
            "--out" => args.out = flags.value()?.into(),
            "--metrics" => args.metrics = Some(flags.value()?.into()),
            "--progress" => args.every = flags.value_with(progress_every)?,
            "--help" | "-h" => {
                print!("{TRACE_USAGE}");
                return Ok(None);
            }
            other => match other.strip_prefix("--progress=") {
                Some(v) => args.every = cli::convert("--progress", v, progress_every)?,
                None => return Err(flags.unknown(other)),
            },
        }
    }
    if args.passages == 0 {
        return Err("--passages must be positive".into());
    }
    Ok(Some(args))
}

/// The trace subcommand's composite sink: always collects (for the
/// Chrome export), optionally aggregates metrics, optionally prints
/// progress — one probe handed to the whole run.
struct TraceSink {
    collect: exclusion_trace::CollectingProbe,
    metrics: Option<exclusion_trace::Metrics>,
    progress: exclusion_trace::Progress,
}

impl exclusion_trace::Probe for TraceSink {
    fn record(&mut self, ev: &exclusion_trace::TraceEvent) {
        self.collect.record(ev);
        if let Some(m) = &mut self.metrics {
            m.record(ev);
        }
        self.progress.record(ev);
    }
}

fn run_trace(argv: &[String]) -> Result<(), String> {
    use exclusion_trace::{Probe as _, SharedProbe, SpanScope, TraceEvent};

    let Some(args) = parse_trace_args(argv)? else {
        return Ok(());
    };
    let mut sink = TraceSink {
        collect: exclusion_trace::CollectingProbe::new(),
        metrics: args
            .metrics
            .as_ref()
            .map(|_| exclusion_trace::Metrics::new()),
        progress: exclusion_trace::Progress::new(args.every),
    };
    // The adaptive adversary is special-cased by name: the registry's
    // erased builder cannot carry a probe, so `fanlynch` is constructed
    // directly and shares the sink with the pricing driver — that is
    // what puts awareness-merge/harvest/reveal events in the trace.
    let fanlynch = matches!(args.sched.as_str(), "fanlynch" | "adaptive" | "fan-lynch");
    sink.record(&TraceEvent::SpanStart {
        scope: SpanScope::Run,
        tag: 0,
    });
    let start = std::time::Instant::now();
    let (steps, sc, cc, dsm) = if fanlynch {
        let resolved = AlgorithmRegistry::global()
            .resolve_str(&args.alg, args.n)
            .map_err(|e| e.to_string())?;
        let alg = resolved.automaton;
        let cell = std::cell::RefCell::new(&mut sink as &mut dyn exclusion_trace::Probe);
        let probe = SharedProbe::new(&cell);
        let mut sched = exclusion_bound::AdaptiveAdversary::new(args.seed).with_probe(probe);
        let priced = exclusion_cost::run_priced_probed(
            &exclusion_shmem::dynamic::DynRef(alg.as_ref()),
            &mut sched,
            args.passages,
            args.max_steps,
            probe,
        )
        .map_err(|e| e.to_string())?;
        if priced.completed < args.n {
            return Err(format!(
                "scheduler stopped after {} steps with {}/{} processes finished",
                priced.steps, priced.completed, args.n
            ));
        }
        (
            priced.steps,
            priced.sc.total(),
            priced.cc.total(),
            priced.dsm.total(),
        )
    } else {
        let sched = SchedSpec::parse(&args.sched).map_err(|e| e.to_string())?;
        let scenario = Scenario::builder(args.alg.clone(), args.n)
            .passages(args.passages)
            .sched(sched)
            .seeds([args.seed])
            .max_steps(args.max_steps)
            .build()
            .map_err(|e| e.to_string())?;
        let record = exclusion_workload::run_probed(&scenario, args.seed, &mut sink);
        if let Some(e) = record.error {
            return Err(e);
        }
        (record.steps, record.sc, record.cc, record.dsm)
    };
    sink.record(&TraceEvent::SpanEnd {
        scope: SpanScope::Run,
        tag: 0,
        wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    });
    eprintln!(
        "traced {} {} n={} seed={}: {} steps / {} events | sc {sc} cc {cc} dsm {dsm}",
        args.alg,
        args.sched,
        args.n,
        args.seed,
        steps,
        sink.collect.len(),
    );
    emit(
        &args.out,
        "Chrome trace",
        &exclusion_trace::chrome_trace(sink.collect.events()),
    )?;
    if let Some(path) = &args.metrics {
        let m = sink.metrics.as_ref().expect("metrics were requested");
        emit(path, "metrics JSON", &exclusion_trace::metrics_json(m))?;
    }
    Ok(())
}

const SERVE_USAGE: &str = "\
workload serve — drive an open stream of lock requests through one
algorithm as a deterministic discrete-event loop, with bounded-memory
live percentiles

USAGE:
    workload serve [OPTIONS]

OPTIONS:
    --alg A              algorithm spec (default: peterson)
    --n N                processes = max requests in flight (default: 4)
    --sched S            scheduler spec from the registry
                         (default: round-robin)
    --arrivals M         arrival model spec: steady[:gap=G] |
                         poisson[:rate=R] | bursty[:size=B,gap=G] |
                         diurnal[:period=P,peak=R,trough=R]
                         (default: poisson:rate=0.25)
    --requests N         stream length (default: 1000000)
    --deadline D         queue patience in ticks; a request waiting
                         longer abandons, and is counted
                         (default: wait forever)
    --ring R             pending-ring capacity, 0 = 2n (default: 0)
    --stripe S           requests per shard (default: 8192)
    --workers W          worker threads, 0 = one per core (default: 0)
    --seed S             base seed (default: 1)
    --max-steps N        step budget per stripe (default: 50000000)
    --json PATH          write the JSON report (`-` for stdout,
                         the default)
    --progress every:N   print a status line to stderr every N events
                         (0 = off)
    --quiet              suppress the stderr summary
    --help               this text

The report is a pure function of every option above except --workers
and --progress: byte-identical across worker counts and repeated runs.
Failed stripes (step budget, misbehaving scheduler) are reported in
the JSON and exit nonzero; they never panic.
";

struct ServeArgs {
    alg: String,
    n: usize,
    sched: String,
    arrivals: String,
    requests: u64,
    deadline: Option<u64>,
    ring: usize,
    stripe: u64,
    workers: usize,
    seed: u64,
    max_steps: u64,
    json: String,
    every: u64,
    quiet: bool,
}

fn parse_serve_args(argv: &[String]) -> Result<Option<ServeArgs>, String> {
    let mut args = ServeArgs {
        alg: "peterson".into(),
        n: 4,
        sched: "round-robin".into(),
        arrivals: "poisson:rate=0.25".into(),
        requests: 1_000_000,
        deadline: None,
        ring: 0,
        stripe: 8192,
        workers: 0,
        seed: 1,
        max_steps: 50_000_000,
        json: "-".into(),
        every: 0,
        quiet: false,
    };
    let mut flags = Flags::new(argv, "serve --help");
    while let Some(flag) = flags.next() {
        match flag {
            "--alg" => args.alg = flags.value()?.into(),
            "--n" => args.n = flags.parse()?,
            "--sched" => args.sched = flags.value()?.into(),
            "--arrivals" => args.arrivals = flags.value()?.into(),
            "--requests" => args.requests = flags.parse()?,
            "--deadline" => args.deadline = Some(flags.parse()?),
            "--ring" => args.ring = flags.parse()?,
            "--stripe" => args.stripe = flags.parse()?,
            "--workers" => args.workers = flags.parse()?,
            "--seed" => args.seed = flags.parse()?,
            "--max-steps" => args.max_steps = flags.parse()?,
            "--json" => args.json = flags.value()?.into(),
            "--progress" => args.every = flags.value_with(progress_every)?,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{SERVE_USAGE}");
                return Ok(None);
            }
            other => match other.strip_prefix("--progress=") {
                Some(v) => args.every = cli::convert("--progress", v, progress_every)?,
                None => return Err(flags.unknown(other)),
            },
        }
    }
    if args.stripe == 0 {
        return Err("--stripe must be positive".into());
    }
    Ok(Some(args))
}

fn run_serve(argv: &[String]) -> Result<(), String> {
    use exclusion_serve::{ServeJob, ServeOptions};

    let Some(args) = parse_serve_args(argv)? else {
        return Ok(());
    };
    // Registry schedulers are built per stripe; closed-scenario
    // policies that size themselves by passages (`sequential`) get the
    // stripe length as the hint — one serve stripe admits at most
    // `stripe` requests.
    let resolved = SchedulerRegistry::global()
        .resolve_str(&args.sched, args.n)
        .map_err(|e| e.to_string())?;
    let passages_hint = usize::try_from(args.stripe).unwrap_or(usize::MAX);
    let job = ServeJob::new(&args.alg, args.n, args.requests)
        .map_err(|e| e.to_string())?
        .arrivals(&args.arrivals)
        .map_err(|e| e.to_string())?
        .scheduler(resolved.label.clone(), move |seed| {
            resolved.build(passages_hint, seed)
        });
    let opts = ServeOptions {
        workers: args.workers,
        stripe: args.stripe,
        ring: args.ring,
        deadline: args.deadline,
        seed: args.seed,
        max_steps: args.max_steps,
        progress: args.every,
    };
    let start = std::time::Instant::now();
    let report = exclusion_serve::serve(&job, &opts);
    let elapsed = start.elapsed().as_secs_f64();
    if !args.quiet {
        #[allow(clippy::cast_precision_loss)]
        let rate = |x: u64| x as f64 / elapsed.max(1e-9);
        eprintln!(
            "served {} of {} requests ({} abandoned, {} unserved) on {} {} under {} [{}]",
            report.completed,
            report.requests,
            report.abandoned,
            report.unserved,
            report.algorithm,
            format_args!("n={}", report.n),
            report.scheduler,
            report.arrivals,
        );
        eprintln!(
            "  {} steps in {:.1} ms wall ({:.0} requests/s, {:.0} steps/s)",
            report.steps,
            elapsed * 1e3,
            rate(report.completed),
            rate(report.steps),
        );
        eprintln!(
            "  latency ticks p50 {} p90 {} p99 {} p999 {} | throughput {:.4}/tick | abandonment {:.4}",
            report.latency.quantile(0.50),
            report.latency.quantile(0.90),
            report.latency.quantile(0.99),
            report.latency.quantile(0.999),
            report.throughput(),
            report.abandonment_rate(),
        );
    }
    emit(&args.json, "serve report", &report.to_json())?;
    if !report.errors.is_empty() {
        return Err(format!(
            "{} stripes failed ({})",
            report.errors.len(),
            report.errors[0]
        ));
    }
    Ok(())
}

const HWBENCH_USAGE: &str = "\
workload hwbench — formal-vs-hardware differential: generate one
arrival schedule, run it through the simulated registry automaton
(priced under SC/CC/DSM) and through the matching exclusion-spin lock
on real atomics, and co-report simulated RMR against measured
nanoseconds

USAGE:
    workload hwbench [OPTIONS]

OPTIONS:
    --algs A,B,...       registry specs with hardware twins
                         (default: mcs,clh,ticket)
    --arrivals M,N,...   arrival model specs
                         (default: steady:gap=64,bursty)
    --n N                processes = threads (default: 4)
    --requests R         requests (passages) per process (default: 8)
    --seed S             seed for seeded arrival models (default: 1)
    --ns-per-tick NS     hardware pacing in ns per arrival tick
                         (default: 200)
    --json PATH          write the JSON report (`-` for stdout,
                         the default)
    --quiet              suppress the stderr summary
    --help               this text

Exits nonzero if any scenario's two legs disagree on per-thread
passage counts. All row fields are deterministic per scenario except
elapsed_ns / mean_wait_ns / max_wait_ns, which are measurements —
exclude them from byte-identity comparisons.
";

struct HwbenchArgs {
    algs: Vec<String>,
    arrivals: Vec<String>,
    n: usize,
    requests: usize,
    seed: u64,
    ns_per_tick: u64,
    json: String,
    quiet: bool,
}

fn parse_hwbench_args(argv: &[String]) -> Result<Option<HwbenchArgs>, String> {
    let mut args = HwbenchArgs {
        algs: vec!["mcs".into(), "clh".into(), "ticket".into()],
        arrivals: vec!["steady:gap=64".into(), "bursty".into()],
        n: 4,
        requests: 8,
        seed: 1,
        ns_per_tick: 200,
        json: "-".into(),
        quiet: false,
    };
    let mut flags = Flags::new(argv, "hwbench --help");
    while let Some(flag) = flags.next() {
        match flag {
            "--algs" => args.algs = flags.specs()?,
            "--arrivals" => args.arrivals = flags.specs()?,
            "--n" => args.n = flags.parse()?,
            "--requests" => args.requests = flags.parse()?,
            "--seed" => args.seed = flags.parse()?,
            "--ns-per-tick" => args.ns_per_tick = flags.parse()?,
            "--json" => args.json = flags.value()?.into(),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{HWBENCH_USAGE}");
                return Ok(None);
            }
            other => return Err(flags.unknown(other)),
        }
    }
    if args.n == 0 || args.requests == 0 {
        return Err("--n and --requests must be positive".into());
    }
    // A process count past the registry's cap is refused when the lock
    // resolves, which also comes before any lane is sized.
    if args.n <= AlgorithmRegistry::MAX_PROCESSES
        && args
            .n
            .checked_mul(args.requests)
            .is_none_or(|total| total > MAX_HW_REQUESTS)
    {
        return Err(format!(
            "--requests: at most {MAX_HW_REQUESTS} requests in all (got --n {} × --requests {})",
            args.n, args.requests
        ));
    }
    Ok(Some(args))
}

/// The most requests one hwbench scenario may serve in all, `--n` ×
/// `--requests`. Each request is an arrival tick in its process's lane
/// and an entry in both legs' acquisition orders, so the total is
/// bounded before any lane is sized.
const MAX_HW_REQUESTS: usize = 1 << 20;

fn run_hwbench(argv: &[String]) -> Result<(), String> {
    use exclusion_workload::hwbench::{run_scenario, HwScenario};

    let Some(args) = parse_hwbench_args(argv)? else {
        return Ok(());
    };
    let mut rows = Vec::new();
    for alg in &args.algs {
        for arrivals in &args.arrivals {
            let row = run_scenario(&HwScenario {
                alg: alg.clone(),
                arrivals: arrivals.clone(),
                n: args.n,
                requests_per_process: args.requests,
                seed: args.seed,
                ns_per_tick: args.ns_per_tick,
            })
            .map_err(|e| format!("{alg} under {arrivals}: {e}"))?;
            if !args.quiet {
                eprintln!(
                    "{} under {} n={}: sim {} steps, rmr/passage {:.2}, dsm {} | hw {} in {:.2} ms (mean wait {} ns) | {}",
                    row.alg,
                    row.arrivals,
                    row.n,
                    row.sim.steps,
                    row.sim.rmr_per_passage(),
                    row.sim.dsm,
                    row.hw.lock,
                    row.hw.elapsed_ns as f64 / 1e6,
                    row.hw.mean_wait_ns,
                    if row.agree { "legs agree" } else { "LEGS DISAGREE" },
                );
            }
            rows.push(row);
        }
    }
    let mut json = String::from("{\"schema\":\"exclusion-hwbench/v1\",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&row.to_json());
    }
    json.push_str("]}");
    emit(&args.json, "hwbench report", &json)?;
    let disagreements = rows.iter().filter(|r| !r.agree).count();
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} scenarios disagree between simulation and hardware"
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    match argv.first().map(String::as_str) {
        Some("explore") => run_explore(rest),
        Some("bound") => run_bound(rest),
        Some("crash") => run_crash(rest),
        Some("trace") => run_trace(rest),
        Some("serve") => run_serve(rest),
        Some("hwbench") => run_hwbench(rest),
        _ => run_sweep(&argv),
    }
}

fn run_sweep(argv: &[String]) -> Result<(), String> {
    let Some(args) = parse_args(argv)? else {
        return Ok(());
    };
    let scenarios = build_grid(&args)?;
    let jobs: usize = scenarios.iter().map(|s| s.effective_seeds().len()).sum();
    if !args.quiet {
        eprintln!(
            "sweeping {} scenarios / {} runs on {} threads ...",
            scenarios.len(),
            jobs,
            if args.threads == 0 {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            } else {
                args.threads
            }
        );
    }
    let start = std::time::Instant::now();
    let report = sweep(
        &scenarios,
        &SweepOptions {
            threads: args.threads,
            metrics: args.metrics.is_some(),
        },
    );
    let elapsed = start.elapsed();
    if !args.quiet {
        print!("{}", report.to_text());
        let busy_ns: u64 = report.records.iter().map(|r| r.wall_ns).sum();
        #[allow(clippy::cast_precision_loss)]
        let throughput = report.records.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        eprintln!(
            "swept {} runs in {:.1} ms wall ({throughput:.0} runs/s, {:.1} ms of worker time)",
            report.records.len(),
            elapsed.as_secs_f64() * 1e3,
            busy_ns as f64 / 1e6,
        );
    }
    if let Some(path) = &args.json {
        emit(path, "JSON report", &report.to_json())?;
    }
    if let Some(path) = &args.csv {
        emit(path, "CSV report", &report.to_csv())?;
    }
    if let Some(path) = &args.metrics {
        let m = report.metrics.as_ref().expect("metrics were requested");
        emit(path, "metrics JSON", &exclusion_trace::metrics_json(m))?;
    }
    let failures: usize = report.summaries.iter().map(|s| s.failures).sum();
    if failures > 0 {
        return Err(format!("{failures} runs exhausted their step budget"));
    }
    Ok(())
}

fn main() -> ExitCode {
    exclusion_workload::cli::quiet_broken_pipe();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("workload: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every flag some subcommand reads, switches included.
    #[rustfmt::skip]
    const FLAGS: &[&str] = &[
        "--algs", "--alg", "--n", "--passages", "--scheds", "--sched", "--seeds", "--seed-base",
        "--seed", "--threads", "--workers", "--max-steps", "--max-states", "--depth", "--model",
        "--patience", "--crashes", "--arrivals", "--requests", "--deadline", "--ring", "--stripe",
        "--ns-per-tick", "--progress", "--progress=every:x", "--progress=18446744073709551615",
        "--json", "--csv", "--metrics", "--out", "--no-worst", "--no-symmetry", "--por",
        "--compress", "--spill", "--no-certify", "--quiet",
    ];

    /// The edge values of the grammar, plus one valid value of each
    /// kind; `1024` and `1025` are the registry's process cap and one
    /// past it, `1048576` and `1048577` hwbench's request cap and one
    /// past it.
    #[rustfmt::skip]
    const VALUES: &[&str] = &[
        "0", "-1", "18446744073709551615", "", "x", "4..1", "1", "4..64", "every:0", "peterson",
        "greedy,burst:wave=2,gap=32", "steady", "1024", "1025", "1048576", "1048577",
    ];

    /// Resolves every parsed lock spec (every registry entry for none
    /// or `all`) at every parsed process count, as the subcommands do
    /// before they size anything by `n`, stopping at the first error as
    /// they do: past the registry's cap, resolution must fail. Nothing
    /// is run.
    fn resolve(algs: &[String], ns: &[usize]) -> Result<(), String> {
        let registry = exclusion_explore::conformance_registry();
        let names = if algs.is_empty() || algs.iter().any(|a| a == "all") {
            registry.names()
        } else {
            algs.to_vec()
        };
        for name in &names {
            for &n in ns {
                let resolved = registry.resolve_str(name, n);
                assert!(
                    n <= AlgorithmRegistry::MAX_PROCESSES || resolved.is_err(),
                    "{name} resolved at n = {n}"
                );
                resolved.map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// A subcommand's parser, its result dropped.
    type Parser = fn(&[String]) -> Result<(), String>;

    /// Every subcommand's parser, each followed by resolution of the
    /// locks it names at the process counts it parsed; the sweep's
    /// grid builder resolves its scenarios itself.
    const PARSERS: [Parser; 7] = [
        |argv| match parse_args(argv)? {
            Some(args) => {
                let grid = build_grid(&args);
                assert!(args.n <= AlgorithmRegistry::MAX_PROCESSES || grid.is_err());
                grid.map(drop)
            }
            None => Ok(()),
        },
        |argv| parse_explore_args(argv)?.map_or(Ok(()), |a| resolve(&a.algs, &[a.n])),
        |argv| parse_bound_args(argv)?.map_or(Ok(()), |a| resolve(&a.algs, &a.ns)),
        |argv| parse_crash_args(argv)?.map_or(Ok(()), |a| resolve(&a.algs, &a.ns)),
        |argv| parse_trace_args(argv)?.map_or(Ok(()), |a| resolve(&[a.alg], &[a.n])),
        |argv| parse_serve_args(argv)?.map_or(Ok(()), |a| resolve(&[a.alg], &[a.n])),
        |argv| match parse_hwbench_args(argv)? {
            Some(a) => {
                assert!(
                    a.n > AlgorithmRegistry::MAX_PROCESSES || a.n * a.requests <= MAX_HW_REQUESTS,
                    "{} × {} requests parsed",
                    a.n,
                    a.requests
                );
                resolve(&a.algs, &[a.n])
            }
            None => Ok(()),
        },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary argv, drawn from each parser's own flags and the
        /// edge values, through every subcommand's parser and then
        /// through lock resolution: each returns `Ok` or `Err`, none
        /// panics, and no lock resolves past the process cap.
        #[test]
        fn arbitrary_argv_parses_or_fails_without_panicking(
            picks in prop::collection::vec((any::<usize>(), 0..VALUES.len(), 0..4u8), 0..6)
        ) {
            for parse in PARSERS {
                let known: Vec<&str> = FLAGS
                    .iter()
                    .copied()
                    .filter(|f| !parse(&[f.to_string()]).is_err_and(|e| e.starts_with("unknown")))
                    .collect();
                // Three flags in four carry a value; the rest run into
                // the next flag or off the end.
                let mut argv = Vec::new();
                for &(flag, value, odds) in &picks {
                    argv.push(known[flag % known.len()].to_string());
                    if odds > 0 {
                        argv.push(VALUES[value].to_string());
                    }
                }
                let _ = parse(&argv);
            }
        }
    }
}
