//! One benchmark run: argument parsing, set-up, the timed rounds or the
//! traced round, and the result line.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::tracer::Tracer;
use crate::{
    setup, status_kib, Config, Counts, Ledger, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER,
};

/// Set-ups per untraced run, spread over its measuring time (a run of
/// few rounds makes fewer); `setup_s` is their fast decile.
pub const SETUP_REPS: usize = 21;

/// Untraced/traced round pairs of a traced run.
pub const TRACE_PAIRS: usize = 3;

/// Usage text for `--help` and argument errors.
pub const USAGE: &str = "usage: perfbench --workload <lb-pipeline|explore-exact|serve-stream> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--perturb-pin]";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Measuring budget of an untraced run, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
    /// Seed, size and pin settings.
    pub cfg: Config,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds`, `--trace`, `--quick`
    /// and `--perturb-pin`.
    ///
    /// # Errors
    ///
    /// A missing workload, an unknown flag or a malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut it = args.into_iter();
        let mut workload = None;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut cfg = Config {
            seed: DEFAULT_SEED,
            quick: false,
            perturb_pin: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds takes a non-negative number")?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--quick" => cfg.quick = true,
                "--perturb-pin" => cfg.perturb_pin = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seconds,
            trace,
            cfg,
        })
    }
}

/// What a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed, with failure descriptions.
    pub ledger: Ledger,
    /// `(name, value, unit)`, in `END_TO_END` or `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub log: Vec<String>,
}

impl Outcome {
    /// Whether every operation's output was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0 && self.ledger.attempted > 0
    }

    /// The single-line JSON result.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.ledger.attempted,
            self.ledger.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs the benchmark as `args` asks.
///
/// # Errors
///
/// A workload that fails to set up (unknown name or unresolvable
/// input): nothing was measured.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

/// Sets the workload up, appending the seconds it took to `times`.
fn timed_setup(args: &Args, times: &mut Vec<f64>) -> Result<Box<dyn Workload>, String> {
    let start = Instant::now();
    let workload = setup(&args.workload, &args.cfg)?;
    times.push(start.elapsed().as_secs_f64());
    Ok(workload)
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let workload = timed_setup(args, &mut setup_s)?;

    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(false);
    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut log = Vec::new();
    let start = Instant::now();
    for round in 0.. {
        let times = workload.round(round, &mut tracer, &mut ledger, &mut Counts::new());
        for (k, t) in times.iter().enumerate() {
            rates[k].push(t.items / t.secs.max(1e-9));
        }
        log.push(format!(
            "round {round}: {}",
            times
                .iter()
                .map(|t| format!("{} in {:.4}s", t.items, t.secs))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= args.seconds {
            break;
        }
        // The remaining set-ups are spread over the run: a busy box
        // slows everything for a second or more at a time, so set-ups
        // made back to back would all land in one such spell.
        if (setup_s.len() as f64) < SETUP_REPS as f64 * elapsed / args.seconds {
            drop(timed_setup(args, &mut setup_s)?);
        }
    }
    // The set-up rate's top decile, as seconds: the set-up time at most
    // a tenth of the set-ups beat.
    let setup_rates: Vec<f64> = setup_s.iter().map(|s| 1.0 / s.max(1e-9)).collect();
    let values = [
        1.0 / top_decile(&setup_rates),
        status_kib("VmHWM") as f64 / 1024.0,
        (ledger.attempted - ledger.failed) as f64 / ledger.attempted.max(1) as f64,
        top_decile(&rates[0]),
        top_decile(&rates[1]),
        top_decile(&rates[2]),
    ];
    Ok(Outcome {
        ledger,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        log,
    })
}

/// The round rate that at most a tenth of the rounds beat (nearest
/// rank; the fastest round when a run has at most ten). Other tenants
/// only ever slow a round, so a fast quantile tracks the program, and
/// over a hundred rounds or more it is far steadier than the fastest.
#[must_use]
pub fn top_decile(rates: &[f64]) -> f64 {
    let mut sorted = rates.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted
        .get(rates.len().saturating_sub(1) / 10)
        .copied()
        .unwrap_or(0.0)
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let workload = setup(&args.workload, &args.cfg)?;
    let mut ledger = Ledger::default();
    let mut layer = Counts::new();

    // Untraced and traced rounds alternate; the fastest of each gives
    // the tracing overhead.
    let origin = Instant::now();
    let mut rounds = Tracer::with_origin(true, origin);
    let (mut untraced_ms, mut traced_ms) = (f64::INFINITY, f64::INFINITY);
    for pair in 0..TRACE_PAIRS {
        let start = Instant::now();
        workload.round(
            2 * pair,
            &mut Tracer::new(false),
            &mut ledger,
            &mut Counts::new(),
        );
        untraced_ms = untraced_ms.min(start.elapsed().as_secs_f64() * 1e3);

        layer.clear();
        let start = Instant::now();
        rounds.span("round", |tr| {
            workload.round(2 * pair + 1, tr, &mut ledger, &mut layer)
        });
        traced_ms = traced_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut extras = Tracer::with_origin(true, origin);
    workload.layer_metrics(&rounds, TRACE_PAIRS, &mut extras, &mut ledger, &mut layer);
    layer.insert("trace.untraced_round_ms", untraced_ms);
    layer.insert("trace.traced_round_ms", traced_ms);
    layer.insert("trace.overhead_ms", traced_ms - untraced_ms);
    rounds.append(extras);

    let mut log = Vec::new();
    let path = trace_path(&args.workload, args.cfg.seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, rounds.chrome_json(&args.workload)));
    match written {
        Ok(()) => log.push(format!(
            "chrome trace ({} spans): {}",
            rounds.spans().len(),
            path.display()
        )),
        Err(e) => log.push(format!(
            "chrome trace not written to {}: {e}",
            path.display()
        )),
    }
    Ok(Outcome {
        ledger,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layer.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
        log,
    })
}

/// Where a traced run writes its Chrome trace: `perfbench/out/`.
#[must_use]
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{seed}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve-stream --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, "serve-stream");
        assert_eq!((a.cfg.seed, a.seconds, a.trace), (9, 2.5, true));
        assert!(!a.cfg.pinned());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --seconds -1").is_err());
        assert!(parse("--workload x --bogus").is_err());
    }

    #[test]
    fn top_decile_drops_the_fastest_tenth() {
        assert_eq!(top_decile(&[]), 0.0);
        assert_eq!(top_decile(&[3.0, 9.0, 1.0]), 9.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(top_decile(&ten), 10.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(top_decile(&hundred), 91.0);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let o = Outcome {
            ledger: Ledger {
                attempted: 3,
                failed: 0,
                errors: Vec::new(),
            },
            metrics: vec![("a", 0.123_456_789_012_345_6, "s"), ("b", 2.0, "1/s")],
            log: Vec::new(),
        };
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.1234567890123456, \"unit\": \"s\"}, \
             \"b\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
    }
}
