//! End-to-end pins of the `workload` CLI.
//!
//! Each row runs the built binary once and pins three things: the exit
//! status, an FNV-1a digest of everything written to stdout, and the
//! stderr lines that start with `workload: ` (the error line), verbatim.
//! The rows cover every CI smoke command and README example, shrunk
//! where a full run would be slow in a debug build, each subcommand's
//! `--help`, `--list`, and malformed input.
//!
//! Wall-clock output is left out: the text tables that carry timings
//! (explore's `ms` and `states/s` columns) are switched off with
//! `--quiet`, the stderr timing lines are not pinned, and hwbench's
//! measured fields (`elapsed_ns`, `mean_wait_ns`, `max_wait_ns`) are
//! zeroed before digesting. On drift the test prints the whole table
//! with the values the binary now produces.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// `(argv, exit status, stdout digest, stderr error line)`; argv is
/// split on whitespace.
type Row = (&'static str, i32, u64, &'static str);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Zeroes the value of every `"key":<digits>` field named in `keys`.
fn zero_fields(json: &str, keys: &[&str]) -> String {
    let mut out = json.to_string();
    for key in keys {
        let pat = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pat) {
            let start = from + at + pat.len();
            let len = out[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "0");
            from = start;
        }
    }
    out
}

fn run(argv: &str) -> (i32, u64, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_workload"))
        .args(argv.split_whitespace())
        .output()
        .expect("the workload binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stdout = zero_fields(&stdout, &["elapsed_ns", "mean_wait_ns", "max_wait_ns"]);
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    let error: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("workload: "))
        .collect();
    (
        out.status.code().unwrap_or(-1),
        fnv1a(stdout.as_bytes()),
        error.join("\n"),
    )
}

fn check(rows: &[Row]) {
    let mut table = String::new();
    let mut drift = 0;
    for &(argv, status, digest, error) in rows {
        let got = run(argv);
        if got != (status, digest, error.to_string()) {
            drift += 1;
            table.push_str("    // DRIFT\n");
        }
        table.push_str(&format!(
            "    ({argv:?}, {}, 0x{:016x}, {:?}),\n",
            got.0, got.1, got.2
        ));
    }
    assert!(drift == 0, "{drift} rows drifted; now:\n{table}");
}

/// The CI smoke sweep and the README/module-doc sweep examples.
#[rustfmt::skip]
const SWEEP: &[Row] = &[
    ("--algs dekker-tree,filter:levels=6 --n 6 --passages 1 --scheds greedy,random,burst:wave=2,stagger --seeds 8 --json - --quiet", 0, 0x6800d2199a8e3be4, ""),
    ("--algs dekker-tree,peterson --n 8 --passages 2 --scheds greedy,random,burst,stagger --seeds 8 --threads 0 --json -", 0, 0x7338019cce9eab1a, ""),
    ("--algs dekker-tree,bakery --n 8 --passages 2 --scheds greedy,random,burst,stagger --seeds 8 --threads 4 --json - --csv -", 0, 0xbfd7b5c8f8e974ee, ""),
    ("--algs filter:levels=6 --scheds burst:wave=2,gap=32 --quiet --json -", 1, 0xcbf29ce484222325, "workload: `filter:levels=6`: parameter `levels=6` invalid; expected at least n-1 = 7 levels"),
    ("--algs filter:levels=6 --n 6 --scheds burst:wave=2,gap=32 --quiet --json -", 0, 0x58ecd8dda9558a52, ""),
    ("--algs filter:levels=6 --algs peterson --scheds greedy,burst:wave=2,gap=32,stagger --n 4 --seeds 3 --seed-base 7 --json - --quiet", 0, 0x72454e51950dd91e, ""),
    ("--scheds fanlynch,greedy --algs peterson --n 32", 0, 0x46143b9a9bd921e5, ""),
    ("--algs peterson --n 6 --scheds greedy --seeds 4 --metrics - --quiet", 0, 0xfc3b2c0db25d9a28, ""),
    ("--algs peterson --n 6 --scheds random --seeds 4 --threads 1 --csv - --quiet", 0, 0x6b451c0b5e508090, ""),
];

#[test]
fn sweep_examples_match_their_pins() {
    check(SWEEP);
}

/// The CI explore smoke commands and the README explore examples.
#[rustfmt::skip]
const EXPLORE: &[Row] = &[
    ("explore --n 3 --json - --quiet", 0, 0x8e4474ce7578ddc9, ""),
    ("explore --n 3 --model sc --json - --quiet", 0, 0x8e4474ce7578ddc9, ""),
    ("explore --algs broken,dekker-tree --n 2 --quiet", 0, 0xcbf29ce484222325, ""),
    ("explore --algs broken --n 2 --json - --quiet", 0, 0x51e371da6407bb52, ""),
    ("explore --algs splitter,splitter-gate --n 5 --json - --quiet", 0, 0x337956f4484fa4d1, ""),
    ("explore --algs splitter,tas-sim --n 4 --no-symmetry --por --compress --no-worst --json - --quiet", 0, 0x4be70eb0b20a2369, ""),
    ("explore --algs tas-sim --n 4 --no-symmetry --json - --quiet", 0, 0xa8e18ca98a5ffcca, ""),
    ("explore --algs peterson,dijkstra --n 2 --model cc --depth 12 --workers 1 --json - --quiet", 1, 0xc43037daf8350536, "workload: peterson: truncated at 81 states, not certified — raise --max-states; dijkstra: truncated at 92 states, not certified — raise --max-states"),
    ("explore --algs peterson --n 2 --passages 2 --model dsm --json - --quiet", 0, 0xc57fddbff600866c, ""),
];

#[test]
fn explore_examples_match_their_pins() {
    check(EXPLORE);
}

/// The CI bound and crash smoke commands and their README examples.
#[rustfmt::skip]
const BOUND_AND_CRASH: &[Row] = &[
    ("bound --algs all --n 4..16 --json - --quiet", 0, 0x31dcb3dab1937b95, ""),
    ("bound --algs all --n 4..16", 0, 0xdfa09878207b7b02, ""),
    ("bound --algs peterson,bakery --n 4,6 --passages 2 --seed 3 --patience 9 --max-steps 1000000 --json - --quiet", 0, 0x1c4c7debafc37464, ""),
    ("crash --crashes 2 --json - --quiet", 0, 0x5a8c27af2e02375d, ""),
    ("crash --algs rtas --n 2,3,4 --crashes 2 --no-certify", 0, 0x16ff9b182719976b, ""),
    ("crash --algs rpeterson,broken-recover --n 2 --crashes 1 --no-symmetry --compress --max-states 100000 --json - --quiet", 0, 0xe566889207c50eb6, ""),
];

#[test]
fn bound_and_crash_examples_match_their_pins() {
    check(BOUND_AND_CRASH);
}

/// One-process grids. One process cannot break mutual exclusion, so
/// crash certifies n = 1 and still refutes broken-recover at n = 2;
/// bound refuses a grid without some n ≥ 2, where its SC fit has no
/// positive abscissa.
#[rustfmt::skip]
const ONE_PROCESS: &[Row] = &[
    ("crash --n 1", 0, 0xecd64d1ecd484ffe, ""),
    ("crash --n 1,2 --json - --quiet", 0, 0x80907c3531140a52, ""),
    ("bound --algs peterson --n 1", 1, 0xcbf29ce484222325, "workload: --n: a bound grid needs some n ≥ 2 (the SC fit's n·log₂n is 0 at n = 1)"),
    ("bound --algs peterson --n 1,2", 0, 0x93220d55ccb1a7e3, ""),
];

#[test]
fn one_process_grids_certify_or_are_refused() {
    check(ONE_PROCESS);
}

/// The CI trace, serve and hwbench smoke commands (serve shrunk from a
/// million requests) and their README examples. The serve rows that
/// differ only in `--workers` share a digest.
#[rustfmt::skip]
const TRACE_SERVE_AND_HWBENCH: &[Row] = &[
    ("trace --alg peterson --sched fanlynch --n 16 --out -", 0, 0x6756143af0a3c7a1, ""),
    ("trace --alg peterson --n 4 --out - --metrics - --progress every:5000", 0, 0xeb491991cdf73902, ""),
    ("trace --alg dekker-tree --sched greedy --n 4 --passages 2 --seed 5 --max-steps 100000 --out - --progress=every:0", 0, 0x900efb73ec4a2044, ""),
    ("serve --arrivals poisson:rate=0.5 --requests 20000 --workers 1 --json - --quiet", 0, 0x29c0db8ba24ec055, ""),
    ("serve --arrivals poisson:rate=0.5 --requests 20000 --workers 2 --json - --quiet", 0, 0x29c0db8ba24ec055, ""),
    ("serve --arrivals poisson:rate=0.5 --requests 20000 --workers 4 --json - --quiet", 0, 0x29c0db8ba24ec055, ""),
    ("serve --alg tas-sim --arrivals steady:gap=64 --requests 20000 --workers 1 --json - --quiet", 0, 0xb70e12ff0e62fbf2, ""),
    ("serve --alg tas-sim --arrivals steady:gap=64 --requests 20000 --workers 2 --json - --quiet", 0, 0xb70e12ff0e62fbf2, ""),
    ("serve --alg tas-sim --arrivals bursty:size=4,gap=32 --requests 20000 --deadline 64 --json - --quiet", 0, 0x46c83d7950d43b56, ""),
    ("serve --alg peterson --n 4 --arrivals poisson:rate=0.5 --requests 20000 --deadline 200 --workers 0 --json -", 0, 0x3c2f319ec4a8e418, ""),
    ("serve --alg bakery --n 3 --sched greedy --arrivals steady --requests 5000 --ring 4 --stripe 1000 --seed 9 --max-steps 1000000 --progress every:100000 --quiet", 0, 0x056d201e63f01918, ""),
    ("hwbench --algs mcs,clh,ticket --arrivals steady:gap=64,bursty --n 3 --requests 4 --json - --quiet", 0, 0x8911b0a5182fa4d8, ""),
    ("hwbench --algs mcs,clh,ticket --arrivals steady:gap=64,bursty --n 4", 0, 0x40093f301f2a321b, ""),
    ("hwbench --algs mcs --arrivals bursty:size=2,gap=8 --n 2 --requests 3 --seed 4 --ns-per-tick 10 --quiet", 0, 0x2134f927dd10408a, ""),
];

#[test]
fn trace_serve_and_hwbench_examples_match_their_pins() {
    check(TRACE_SERVE_AND_HWBENCH);
}

/// Every usage text and both registry listings.
#[rustfmt::skip]
const HELP_AND_LISTINGS: &[Row] = &[
    ("--help", 0, 0x425bc16a62857fd4, ""),
    ("-h", 0, 0x425bc16a62857fd4, ""),
    ("--list", 0, 0x3368b0a7272cafa7, ""),
    ("--list-algs", 0, 0xa38071fce391cb62, ""),
    ("explore --help", 0, 0x3516187d3dbc7ca1, ""),
    ("bound --help", 0, 0x0f15d939ea70d02c, ""),
    ("crash --help", 0, 0x71bb76a1bb3d6808, ""),
    ("trace --help", 0, 0xbe9d95074475733a, ""),
    ("serve --help", 0, 0x6ea7ab5b8e0eb5f1, ""),
    ("hwbench -h", 0, 0xcf2912c2bb8386da, ""),
];

#[test]
fn help_and_listings_match_their_pins() {
    check(HELP_AND_LISTINGS);
}

/// Malformed input fails with exit status 1 and one error line: a
/// missing value, a bad number, an unknown flag, a zero count, and an
/// unknown spec name, per subcommand.
#[rustfmt::skip]
const MALFORMED_INPUT: &[Row] = &[
    ("--n", 1, 0xcbf29ce484222325, "workload: --n needs a value"),
    ("--n x", 1, 0xcbf29ce484222325, "workload: --n: invalid digit found in string"),
    ("--seeds -1", 1, 0xcbf29ce484222325, "workload: --seeds: invalid digit found in string"),
    ("--bogus", 1, 0xcbf29ce484222325, "workload: unknown flag `--bogus` (try --help)"),
    ("--passages 0", 1, 0xcbf29ce484222325, "workload: a scenario needs at least one passage"),
    ("--seeds 0", 1, 0xcbf29ce484222325, "workload: --seeds must be positive"),
    ("--n 0", 1, 0xcbf29ce484222325, "workload: a scenario needs at least one process"),
    ("--algs nope", 1, 0xcbf29ce484222325, "workload: unknown algorithm `nope`; known: dekker-tree, peterson, bakery, filter, dijkstra, burns-lynch, splitter, splitter-gate, tas-sim, ttas-sim, mcs-sim, mcs, clh, ticket, rpeterson, rtas, broken-recover"),
    ("--algs petersn", 1, 0xcbf29ce484222325, "workload: unknown algorithm `petersn` (did you mean `peterson`?); known: dekker-tree, peterson, bakery, filter, dijkstra, burns-lynch, splitter, splitter-gate, tas-sim, ttas-sim, mcs-sim, mcs, clh, ticket, rpeterson, rtas, broken-recover"),
    ("--algs ttass --n 3", 1, 0xcbf29ce484222325, "workload: unknown algorithm `ttass` (did you mean `ttas`?); known: dekker-tree, peterson, bakery, filter, dijkstra, burns-lynch, splitter, splitter-gate, tas-sim, ttas-sim, mcs-sim, mcs, clh, ticket, rpeterson, rtas, broken-recover"),
    ("--scheds warp", 1, 0xcbf29ce484222325, "workload: unknown scheduler `warp`; known: sequential, round-robin, random, greedy-adversary, fanlynch, burst, stagger"),
    ("--algs peterson --n 4 --max-steps 5 --quiet", 1, 0xcbf29ce484222325, "workload: 18 runs exhausted their step budget"),
    ("explore --n", 1, 0xcbf29ce484222325, "workload: --n needs a value"),
    ("explore --n 0", 1, 0xcbf29ce484222325, "workload: --n must be between 1 and 64 (the explorer's process cap)"),
    ("explore --n 65", 1, 0xcbf29ce484222325, "workload: --n must be between 1 and 64 (the explorer's process cap)"),
    ("explore --passages 0", 1, 0xcbf29ce484222325, "workload: --passages must be positive"),
    ("explore --model tso", 1, 0xcbf29ce484222325, "workload: --model: `tso` is not one of sc|cc|dsm"),
    ("explore --depth x", 1, 0xcbf29ce484222325, "workload: --depth: invalid digit found in string"),
    ("explore --max-states 18446744073709551615", 1, 0xcbf29ce484222325, "workload: max_states 18446744073709551615 exceeds the 32-bit node-id limit of 268435454 (ids pack a 16-shard floor into their low bits); lower --max-states"),
    ("explore --algs nope --n 2", 1, 0xcbf29ce484222325, "workload: unknown algorithm `nope`; known: dekker-tree, peterson, bakery, filter, dijkstra, burns-lynch, splitter, splitter-gate, tas-sim, ttas-sim, mcs-sim, mcs, clh, ticket, rpeterson, rtas, broken-recover, broken"),
    ("explore --bogus", 1, 0xcbf29ce484222325, "workload: unknown flag `--bogus` (try explore --help)"),
    ("explore --spill", 1, 0xcbf29ce484222325, "workload: unknown flag `--spill` (try explore --help)"),
    ("bound --n 4..1", 1, 0xcbf29ce484222325, "workload: --n: `4..1` is not a usable grid"),
    ("bound --n 0", 1, 0xcbf29ce484222325, "workload: --n: `0` is not a usable grid"),
    ("bound --n 4..x", 1, 0xcbf29ce484222325, "workload: --n: invalid digit found in string"),
    ("bound --n 4,x", 1, 0xcbf29ce484222325, "workload: --n: invalid digit found in string"),
    ("bound --passages 0", 1, 0xcbf29ce484222325, "workload: --passages must be positive"),
    ("bound --algs nope --n 4", 1, 0xcbf29ce484222325, "workload: unknown algorithm `nope`; known: dekker-tree, peterson, bakery, filter, dijkstra, burns-lynch, splitter, splitter-gate, tas-sim, ttas-sim, mcs-sim, mcs, clh, ticket, rpeterson, rtas, broken-recover"),
    ("bound --patience", 1, 0xcbf29ce484222325, "workload: --patience needs a value"),
    ("bound --bogus", 1, 0xcbf29ce484222325, "workload: unknown flag `--bogus` (try bound --help)"),
    ("crash --crashes -1", 1, 0xcbf29ce484222325, "workload: --crashes: invalid digit found in string"),
    ("crash --passages 0", 1, 0xcbf29ce484222325, "workload: --passages must be positive"),
    ("crash --algs nope --n 2", 1, 0xcbf29ce484222325, "workload: unknown algorithm `nope`; known: dekker-tree, peterson, bakery, filter, dijkstra, burns-lynch, splitter, splitter-gate, tas-sim, ttas-sim, mcs-sim, mcs, clh, ticket, rpeterson, rtas, broken-recover"),
    ("crash --bogus", 1, 0xcbf29ce484222325, "workload: unknown flag `--bogus` (try crash --help)"),
    ("crash --spill", 1, 0xcbf29ce484222325, "workload: unknown flag `--spill` (try crash --help)"),
    ("trace --n", 1, 0xcbf29ce484222325, "workload: --n needs a value"),
    ("trace --progress x", 1, 0xcbf29ce484222325, "workload: --progress: invalid digit found in string"),
    ("trace --progress=every:x", 1, 0xcbf29ce484222325, "workload: --progress: invalid digit found in string"),
    ("trace --passages 0", 1, 0xcbf29ce484222325, "workload: --passages must be positive"),
    ("trace --alg nope", 1, 0xcbf29ce484222325, "workload: unknown algorithm `nope`; known: dekker-tree, peterson, bakery, filter, dijkstra, burns-lynch, splitter, splitter-gate, tas-sim, ttas-sim, mcs-sim, mcs, clh, ticket, rpeterson, rtas, broken-recover"),
    ("trace --bogus", 1, 0xcbf29ce484222325, "workload: unknown flag `--bogus` (try trace --help)"),
    ("serve --stripe 0", 1, 0xcbf29ce484222325, "workload: --stripe must be positive"),
    ("serve --deadline x", 1, 0xcbf29ce484222325, "workload: --deadline: invalid digit found in string"),
    ("serve --arrivals nope --requests 10", 1, 0xcbf29ce484222325, "workload: unknown arrival model `nope`; known: steady, poisson, bursty, diurnal"),
    ("serve --sched warp --requests 10", 1, 0xcbf29ce484222325, "workload: unknown scheduler `warp`; known: sequential, round-robin, random, greedy-adversary, fanlynch, burst, stagger"),
    ("serve --passages 1", 1, 0xcbf29ce484222325, "workload: unknown flag `--passages` (try serve --help)"),
    ("hwbench --n 0", 1, 0xcbf29ce484222325, "workload: --n and --requests must be positive"),
    ("hwbench --requests 0", 1, 0xcbf29ce484222325, "workload: --n and --requests must be positive"),
    ("hwbench --ns-per-tick x", 1, 0xcbf29ce484222325, "workload: --ns-per-tick: invalid digit found in string"),
    ("hwbench --algs nope --n 2 --requests 1", 1, 0xcbf29ce484222325, "workload: nope under steady:gap=64: unknown algorithm `nope`; known: dekker-tree, peterson, bakery, filter, dijkstra, burns-lynch, splitter, splitter-gate, tas-sim, ttas-sim, mcs-sim, mcs, clh, ticket, rpeterson, rtas, broken-recover"),
    ("hwbench --bogus", 1, 0xcbf29ce484222325, "workload: unknown flag `--bogus` (try hwbench --help)"),
];

#[test]
fn malformed_input_is_rejected_with_its_pinned_message() {
    check(MALFORMED_INPUT);
}

/// A seed grid past its bound, or past `u64::MAX`, is a flag error.
#[rustfmt::skip]
const SEED_GRID_BOUNDS: &[Row] = &[
    ("--seeds 18446744073709551615", 1, 0xcbf29ce484222325, "workload: --seeds: at most 1048576 seeds per scenario"),
    ("--seeds 1048577 --quiet", 1, 0xcbf29ce484222325, "workload: --seeds: at most 1048576 seeds per scenario"),
    ("--seed-base 18446744073709551615 --seeds 2", 1, 0xcbf29ce484222325, "workload: --seed-base: 2 seeds from 18446744073709551615 run past u64::MAX"),
    ("--algs peterson --scheds random --n 2 --seed-base 18446744073709551614 --seeds 2 --json - --quiet", 0, 0x9e96407aaf2a0462, ""),
];

#[test]
fn seed_grids_past_their_bound_are_flag_errors() {
    check(SEED_GRID_BOUNDS);
}

/// An hwbench run past its total request cap (`--n` × `--requests`,
/// 2^20), or past `usize::MAX`, is a flag error: nothing is sized.
#[rustfmt::skip]
const HWBENCH_REQUEST_CAP: &[Row] = &[
    ("hwbench --n 2 --requests 18446744073709551615", 1, 0xcbf29ce484222325, "workload: --requests: at most 1048576 requests in all (got --n 2 × --requests 18446744073709551615)"),
    ("hwbench --requests 4294967296", 1, 0xcbf29ce484222325, "workload: --requests: at most 1048576 requests in all (got --n 4 × --requests 4294967296)"),
    ("hwbench --n 1 --requests 1048577", 1, 0xcbf29ce484222325, "workload: --requests: at most 1048576 requests in all (got --n 1 × --requests 1048577)"),
];

#[test]
fn hwbench_request_totals_past_the_cap_are_flag_errors() {
    check(HWBENCH_REQUEST_CAP);
}

/// A crash budget past its cap (1024), or past `usize::MAX`, is a flag
/// error: the games would sweep every budget up to it. Past 255 the
/// certification counts crashes exactly: rtas at n = 2 reaches 22,535
/// states under 300 crashes.
#[rustfmt::skip]
const CRASH_BUDGET_CAP: &[Row] = &[
    ("crash --crashes 18446744073709551615 --no-certify", 1, 0xcbf29ce484222325, "workload: --crashes: at most 1024 crashes (got 18446744073709551615)"),
    ("crash --crashes 1025", 1, 0xcbf29ce484222325, "workload: --crashes: at most 1024 crashes (got 1025)"),
    ("crash --algs rtas --n 2 --crashes 300 --quiet --json -", 0, 0x219376e89fb5ccbb, ""),
];

#[test]
fn crash_budgets_past_the_cap_are_flag_errors() {
    check(CRASH_BUDGET_CAP);
}

/// A worker count past its cap (1024) is a flag error in every
/// subcommand that starts workers, before any thread starts.
#[rustfmt::skip]
const WORKER_CAP: &[Row] = &[
    ("--threads 1025", 1, 0xcbf29ce484222325, "workload: --threads: at most 1024 worker threads (got 1025)"),
    ("explore --workers 1025", 1, 0xcbf29ce484222325, "workload: --workers: at most 1024 worker threads (got 1025)"),
    ("serve --workers 1025", 1, 0xcbf29ce484222325, "workload: --workers: at most 1024 worker threads (got 1025)"),
];

#[test]
fn worker_counts_past_the_cap_are_flag_errors() {
    check(WORKER_CAP);
}

/// The sweep's banner names the threads the worker pool really uses:
/// the requested count, but no more than there are runs.
#[test]
fn the_sweep_banner_counts_the_threads_it_uses() {
    for (argv, banner) in [
        (
            "--algs peterson --n 2 --scheds rr --seeds 1 --threads 8",
            "/ 1 runs on 1 threads",
        ),
        (
            "--algs peterson --n 2 --scheds random --seeds 3 --threads 2",
            "/ 3 runs on 2 threads",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_workload"))
            .args(argv.split_whitespace())
            .output()
            .expect("the workload binary runs");
        let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
        assert!(stderr.contains(banner), "{argv}: {stderr}");
    }
}

/// A serve cut into more than 2^20 stripes (⌈requests / stripe⌉) is a
/// flag error, before anything runs. A pending ring larger than the
/// stream is sized by each stripe's own request count, so it runs.
#[rustfmt::skip]
const SERVE_STRIPE_CAP: &[Row] = &[
    ("serve --requests 18446744073709551615 --stripe 1", 1, 0xcbf29ce484222325, "workload: --requests: at most 1048576 stripes (got --requests 18446744073709551615 in stripes of 1)"),
    ("serve --requests 18446744073709551615", 1, 0xcbf29ce484222325, "workload: --requests: at most 1048576 stripes (got --requests 18446744073709551615 in stripes of 8192)"),
    ("serve --ring 18446744073709551615 --requests 10 --json - --quiet", 0, 0x9fdc74d4b9a41f9c, ""),
];

#[test]
fn serve_stripe_counts_past_the_cap_are_flag_errors() {
    check(SERVE_STRIPE_CAP);
}

/// A spec whose parameter would overflow a clock or a count is refused
/// when it is resolved (exit 1): a `burst` gap or `stagger` stride
/// whose last enable time passes `usize::MAX` at the given `n`, a
/// `steady` or `bursty` gap past 2^32 ticks, and a filter lock with
/// more levels than the registry has processes. The largest accepted
/// value of each runs.
#[rustfmt::skip]
const OVERFLOWING_PARAMETERS: &[Row] = &[
    ("--scheds stagger:stride=9223372036854775808 --n 3", 1, 0xcbf29ce484222325, "workload: `stagger:stride=9223372036854775808`: parameter `stride=9223372036854775808` invalid; expected at most 9223372036854775807 so the last arrival fits the step clock"),
    ("--scheds stagger:9223372036854775808 --n 3", 1, 0xcbf29ce484222325, "workload: `stagger:9223372036854775808`: parameter `stride=9223372036854775808` invalid; expected at most 9223372036854775807 so the last arrival fits the step clock"),
    ("--algs peterson --scheds stagger:stride=9223372036854775807 --n 3 --seeds 1 --json - --quiet", 0, 0x8e527131d52f6f14, ""),
    ("--scheds burst:wave=1,gap=18446744073709551615 --n 3", 1, 0xcbf29ce484222325, "workload: `burst:wave=1,gap=18446744073709551615`: parameter `gap=18446744073709551615` invalid; expected at most 9223372036854775807 so the last arrival fits the step clock"),
    ("--scheds burst:1x18446744073709551615 --n 3", 1, 0xcbf29ce484222325, "workload: `burst:1x18446744073709551615`: parameter `gap=18446744073709551615` invalid; expected at most 9223372036854775807 so the last arrival fits the step clock"),
    ("--algs peterson --scheds burst:wave=1,gap=9223372036854775807 --n 3 --seeds 1 --json - --quiet", 0, 0x8a0a79b370efd9d8, ""),
    ("serve --arrivals steady:gap=18446744073709551615 --requests 4", 1, 0xcbf29ce484222325, "workload: `steady:gap=18446744073709551615`: parameter `gap=18446744073709551615` invalid; expected an integer in [1, 4294967296]"),
    ("serve --arrivals steady:gap=4294967297 --requests 4", 1, 0xcbf29ce484222325, "workload: `steady:gap=4294967297`: parameter `gap=4294967297` invalid; expected an integer in [1, 4294967296]"),
    ("serve --arrivals steady:gap=4294967296 --requests 4 --json - --quiet", 0, 0xe190b8b4db17b7f0, ""),
    ("serve --arrivals bursty:size=1,gap=18446744073709551615 --requests 4", 1, 0xcbf29ce484222325, "workload: `bursty:size=1,gap=18446744073709551615`: parameter `gap=18446744073709551615` invalid; expected an integer in [1, 4294967296]"),
    ("serve --arrivals bursty:size=1,gap=4294967296 --requests 4 --json - --quiet", 0, 0x2df4912771d648d8, ""),
    ("hwbench --algs mcs --arrivals steady:gap=18446744073709551615 --n 2 --requests 1", 1, 0xcbf29ce484222325, "workload: mcs under steady:gap=18446744073709551615: `steady:gap=18446744073709551615`: parameter `gap=18446744073709551615` invalid; expected an integer in [1, 4294967296]"),
    ("--algs filter:levels=18446744073709551615 --n 2", 1, 0xcbf29ce484222325, "workload: `filter:levels=18446744073709551615`: parameter `levels=18446744073709551615` invalid; expected fewer than 1024 levels"),
    ("--algs filter:levels=1024 --n 2", 1, 0xcbf29ce484222325, "workload: `filter:levels=1024`: parameter `levels=1024` invalid; expected fewer than 1024 levels"),
    ("--algs filter:levels=1023 --n 2 --scheds round-robin --seeds 1 --json - --quiet", 0, 0x002f8f655d5b915c, ""),
];

#[test]
fn specs_whose_parameters_overflow_are_refused() {
    check(OVERFLOWING_PARAMETERS);
}

/// A process count past the registry's cap is an error (exit 1) in
/// every subcommand that builds a lock, before anything is sized by it.
#[rustfmt::skip]
const PROCESS_CAP: &[Row] = &[
    ("--n 18446744073709551615 --seeds 1", 1, 0xcbf29ce484222325, "workload: `dekker-tree` supports at most 1024 processes (got n = 18446744073709551615)"),
    ("--n 4294967297 --seeds 1", 1, 0xcbf29ce484222325, "workload: `dekker-tree` supports at most 1024 processes (got n = 4294967297)"),
    ("--algs peterson --n 1025", 1, 0xcbf29ce484222325, "workload: `peterson` supports at most 1024 processes (got n = 1025)"),
    ("bound --algs peterson --n 1025", 1, 0xcbf29ce484222325, "workload: `peterson` supports at most 1024 processes (got n = 1025)"),
    ("crash --algs rpeterson --n 18446744073709551615", 1, 0xcbf29ce484222325, "workload: `rpeterson` supports at most 1024 processes (got n = 18446744073709551615)"),
    ("trace --n 4294967297 --out -", 1, 0xcbf29ce484222325, "workload: `peterson` supports at most 1024 processes (got n = 4294967297)"),
    ("serve --n 1025 --requests 10", 1, 0xcbf29ce484222325, "workload: `peterson` supports at most 1024 processes (got n = 1025)"),
    ("hwbench --algs mcs --n 18446744073709551615 --requests 1", 1, 0xcbf29ce484222325, "workload: mcs under steady:gap=64: `mcs` supports at most 1024 processes (got n = 18446744073709551615)"),
];

#[test]
fn process_counts_past_the_cap_are_errors() {
    check(PROCESS_CAP);
}

/// Runs the binary, reads the first line of its stdout and closes the
/// pipe: `(exit status, digest of the first line, whole stderr)`.
fn run_closing_stdout_after_one_line(argv: &str) -> (i32, u64, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_workload"))
        .args(argv.split_whitespace())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the workload binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("stdout is readable");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr is UTF-8");
    let status = child.wait().expect("the binary exits");
    (status.code().unwrap_or(-1), fnv1a(first.as_bytes()), stderr)
}

/// A reader that goes away after the first line ends the output
/// quietly: the sweep's CSV (about 180 KiB, more than a pipe holds)
/// stops at the closed pipe with status 141 (128 + SIGPIPE) and nothing
/// on stderr, where it used to panic with `failed printing to stdout`.
#[test]
fn a_closed_stdout_ends_output_quietly() {
    let argv = "--algs peterson --n 2 --scheds random --seeds 3000 --csv - --quiet";
    let (status, first, stderr) = run_closing_stdout_after_one_line(argv);
    assert_eq!(
        (status, first, stderr.as_str()),
        (141, 0xc372687e7e75eafb, ""),
        "{argv}"
    );
}
