//! End-to-end pins of the `bench_*` binaries' argument handling, and
//! of what `tables` prints.
//!
//! Each row runs one binary with arguments that stop before any
//! benchmark starts (`--help`, an unknown flag, `--out` without its
//! value) and pins the exit status, an FNV-1a digest of stdout and the
//! whole of stderr, verbatim.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// The two bench binaries, by name and built path.
const BINS: [(&str, &str); 2] = [
    ("bench_serve", env!("CARGO_BIN_EXE_bench_serve")),
    ("bench_trace", env!("CARGO_BIN_EXE_bench_trace")),
];

/// FNV-1a of the empty string: nothing was written to stdout.
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(EMPTY, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn run(path: &str, args: &[&str]) -> (i32, u64, String) {
    let out = Command::new(path)
        .args(args)
        .output()
        .expect("the bench binary runs");
    (
        out.status.code().unwrap_or(-1),
        fnv1a(&out.stdout),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

#[test]
fn bench_binaries_answer_help_and_reject_bad_flags_before_running() {
    for (name, path) in BINS {
        let usage = format!("usage: {name} [--quick] [--out PATH|-]\n");
        let unknown = format!("{name}: unknown flag `--bogus` (try --help)\n");
        let missing = format!("{name}: --out needs a value\n");
        let rows: [(&[&str], i32, &str); 6] = [
            (&["--help"], 0, &usage),
            (&["-h"], 0, &usage),
            (&["--quick", "--help"], 0, &usage),
            (&["--bogus"], 1, &unknown),
            (&["--quick", "--bogus", "--out", "-"], 1, &unknown),
            (&["--quick", "--out"], 1, &missing),
        ];
        for (args, status, stderr) in rows {
            assert_eq!(
                run(path, args),
                (status, EMPTY, stderr.to_string()),
                "{name} {args:?}"
            );
        }
    }
}

#[test]
fn tables_rejects_bad_flags_before_running_any_experiment() {
    let tables = env!("CARGO_BIN_EXE_tables");
    let hint = "(try --quick, --exp ID or --markdown)";
    let rows: [(&[&str], String); 4] = [
        (
            &["--quik"],
            format!("tables: unknown flag `--quik` {hint}\n"),
        ),
        (
            &["--quick", "--help"],
            format!("tables: unknown flag `--help` {hint}\n"),
        ),
        (
            &["--quick", "--exp"],
            "tables: --exp needs a value\n".into(),
        ),
        (
            &["--quick", "--exp", "e14"],
            "tables: unknown experiment `e14`; use e1, e2, e3, e4, e5, e6, e7, e8, e9, \
             e10a, e10b, e11, e12, e13\n"
                .into(),
        ),
    ];
    for (args, stderr) in rows {
        assert_eq!(run(tables, args), (2, EMPTY, stderr), "tables {args:?}");
    }
}

/// With `--markdown`, every table is printed once, as Markdown: the
/// first line of a full run is the first table's Markdown title, not
/// an aligned-text copy printed ahead of the Markdown ones. Only the
/// first experiment runs: the child is killed once that line is read.
#[test]
fn tables_markdown_prints_each_table_once() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["--quick", "--markdown"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("tables runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("stdout is readable");
    child.kill().expect("tables is killed");
    child.wait().expect("tables exits");
    assert!(first.starts_with("### E1"), "first line: {first:?}");

    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["--quick", "--exp", "e6", "--markdown"])
        .output()
        .expect("tables runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(out.status.success());
    assert_eq!(stdout.matches("### ").count(), 1, "{stdout}");
    assert!(!stdout.contains(" took "), "{stdout}");
}
