//! The benchmark's own quick-mode test: every metric `BENCHMARK.json`
//! names is printed with its unit on every workload, a deliberately
//! wrong pinned value is caught, and a bad command line prints no
//! result.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::{Command, Output};

use exclusion_perfbench::json::Json;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, section: &str, key: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} array"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field(key))
        })
        .collect()
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// The JSON result on the last line of standard output.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).unwrap_or_else(|e| panic!("last line {last:?} is not JSON: {e}"))
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let doc = manifest();
    for (workload, _) in names(&doc, "workloads", "why") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench(&[
                "--workload",
                &workload,
                "--quick",
                "--seconds",
                "0",
                "--trace",
                trace,
            ]);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let r = result(&out);
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert!(r.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = r.get("metrics").expect("a metrics object");
            let wanted = names(&doc, section, "unit");
            for (name, unit) in &wanted {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
            }
            let Json::Obj(printed) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(printed.len(), wanted.len(), "{workload}: extra metrics");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let doc = manifest();
    for (workload, _) in names(&doc, "workloads", "why") {
        let r = result(&bench(&[
            "--workload",
            &workload,
            "--quick",
            "--seconds",
            "0",
        ]));
        for (name, _) in names(&doc, "end_to_end", "unit") {
            let v = r
                .get("metrics")
                .and_then(|m| m.get(&name)?.get("value")?.as_f64());
            assert!(v.is_some_and(|v| v > 0.0), "{workload}: {name} = {v:?}");
        }
    }
}

#[test]
fn a_wrong_pinned_value_is_caught() {
    for workload in ["lb-pipeline", "explore-exact", "serve-stream"] {
        let out = bench(&[
            "--workload",
            workload,
            "--quick",
            "--seconds",
            "0",
            "--perturb-pin",
        ]);
        assert!(
            !out.status.success(),
            "{workload}: a wrong pin must fail the run"
        );
        let r = result(&out);
        assert_eq!(r.get("correct"), Some(&Json::Bool(false)), "{workload}");
        assert!(r.get("failed").and_then(Json::as_f64) >= Some(1.0));
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    for args in [
        &["--workload", "no-such-workload", "--quick"][..],
        &["--seed", "1"][..],
        &["--workload", "serve-stream", "--trace", "2"][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
