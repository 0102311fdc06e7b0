//! Report serialization: JSON and CSV, hand-rolled (the build
//! environment cannot vendor serde) and deliberately schema-stable.

use std::fmt::Write as _;

use crate::runner::{ModelSummary, RunRecord, ScenarioSummary, SweepReport};

/// Schema tag stamped into every JSON report.
pub const JSON_SCHEMA: &str = "exclusion-workload/v1";

/// Renders `rows` (a header row followed by data rows) as an aligned
/// text table: columns listed in `left_aligned` are left-aligned, all
/// others right-aligned, cells separated by two spaces, a dashed rule
/// under the header, trailing whitespace trimmed. Shared by the sweep
/// summary ([`SweepReport::to_text`]) and the CLI's `explore` table so
/// the two cannot drift apart visually.
#[must_use]
pub fn text_table(rows: &[Vec<String>], left_aligned: &[usize]) -> String {
    let Some(header) = rows.first() else {
        return String::new();
    };
    let cols = header.len();
    let widths: Vec<usize> = (0..cols)
        .map(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            let pad = widths[c].saturating_sub(cell.chars().count());
            if left_aligned.contains(&c) {
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
            } else {
                out.push_str(&" ".repeat(pad));
                out.push_str(cell);
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
        if i == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

// One copy of the JSON escaping rules for the whole report stack.
use exclusion_shmem::json::escape as esc;

fn model_json(out: &mut String, key: &str, m: &ModelSummary) {
    let _ = write!(
        out,
        "\"{key}\":{{\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"mean\":{:.3}}}",
        m.min, m.p50, m.p90, m.p99, m.max, m.mean
    );
}

fn summary_json(out: &mut String, s: &ScenarioSummary) {
    let _ = write!(
        out,
        "{{\"scenario\":\"{}\",\"algorithm\":\"{}\",\"scheduler\":\"{}\",\
         \"n\":{},\"passages\":{},\"runs\":{},\"failures\":{},",
        esc(&s.scenario),
        esc(&s.algorithm),
        esc(&s.scheduler),
        s.n,
        s.passages,
        s.runs,
        s.failures
    );
    model_json(out, "sc", &s.sc);
    out.push(',');
    model_json(out, "cc", &s.cc);
    out.push(',');
    model_json(out, "dsm", &s.dsm);
    out.push('}');
}

fn record_json(out: &mut String, r: &RunRecord) {
    let _ = write!(
        out,
        "{{\"scenario\":\"{}\",\"algorithm\":\"{}\",\"scheduler\":\"{}\",\
         \"n\":{},\"passages\":{},\"seed\":{},\"steps\":{},\
         \"sc\":{},\"cc\":{},\"dsm\":{},\"sc_max_process\":{},\"error\":",
        esc(&r.scenario),
        esc(&r.algorithm),
        esc(&r.scheduler),
        r.n,
        r.passages,
        r.seed,
        r.steps,
        r.sc,
        r.cc,
        r.dsm,
        r.sc_max_process,
    );
    match &r.error {
        None => out.push_str("null"),
        Some(e) => {
            let _ = write!(out, "\"{}\"", esc(e));
        }
    }
    out.push('}');
}

impl SweepReport {
    /// The report as a single JSON document: schema tag, per-scenario
    /// summaries, and per-run records.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":\"{JSON_SCHEMA}\",\"summaries\":[");
        for (i, s) in self.summaries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            summary_json(&mut out, s);
        }
        out.push_str("],\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            record_json(&mut out, r);
        }
        out.push_str("]}");
        out
    }

    /// The per-run records as CSV (header + one line per run).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,algorithm,scheduler,n,passages,seed,steps,sc,cc,dsm,sc_max_process,error\n",
        );
        for r in &self.records {
            let err = r.error.as_deref().unwrap_or("");
            let quote = |s: &str| {
                if s.contains([',', '"', '\n']) {
                    format!("\"{}\"", s.replace('"', "\"\""))
                } else {
                    s.to_string()
                }
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                quote(&r.scenario),
                quote(&r.algorithm),
                quote(&r.scheduler),
                r.n,
                r.passages,
                r.seed,
                r.steps,
                r.sc,
                r.cc,
                r.dsm,
                r.sc_max_process,
                quote(err),
            );
        }
        out
    }

    /// A human-readable summary table (one line per scenario), for
    /// terminals and logs.
    #[must_use]
    pub fn to_text(&self) -> String {
        let header = [
            "scenario", "runs", "fail", "sc min", "sc p50", "sc p90", "sc p99", "sc max",
            "sc mean", "cc max", "dsm max",
        ];
        let mut rows: Vec<Vec<String>> = vec![header.iter().map(ToString::to_string).collect()];
        for s in &self.summaries {
            rows.push(vec![
                s.scenario.clone(),
                s.runs.to_string(),
                s.failures.to_string(),
                s.sc.min.to_string(),
                s.sc.p50.to_string(),
                s.sc.p90.to_string(),
                s.sc.p99.to_string(),
                s.sc.max.to_string(),
                format!("{:.1}", s.sc.mean),
                s.cc.max.to_string(),
                s.dsm.max.to_string(),
            ]);
        }
        text_table(&rows, &[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{sweep, SweepOptions};
    use crate::scenario::{Scenario, SchedSpec};

    fn small_report() -> SweepReport {
        let scenarios = vec![
            Scenario::builder("peterson", 3)
                .sched(SchedSpec::random())
                .seeds(0..3)
                .build()
                .unwrap(),
            Scenario::builder("peterson", 3)
                .sched(SchedSpec::greedy())
                .build()
                .unwrap(),
        ];
        sweep(&scenarios, &SweepOptions::default())
    }

    #[test]
    fn json_has_schema_and_balanced_structure() {
        let report = small_report();
        let json = report.to_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{JSON_SCHEMA}\"")));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches("\"scenario\":").count(), 2 + 4);
        assert!(json.contains("\"error\":null"));
        // Deterministic serialization of a deterministic sweep.
        assert_eq!(json, small_report().to_json());
    }

    #[test]
    fn csv_has_one_line_per_record_plus_header() {
        let report = small_report();
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), report.records.len() + 1);
        assert!(csv.starts_with("scenario,algorithm,scheduler,"));
    }

    #[test]
    fn text_table_lists_every_scenario() {
        let report = small_report();
        let text = report.to_text();
        for s in &report.summaries {
            assert!(text.contains(&s.scenario));
        }
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
