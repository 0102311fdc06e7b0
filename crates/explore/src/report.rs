//! Report rendering for the `workload` CLI's explore report:
//! hand-rolled JSON (the build environment cannot vendor serde) and
//! compact text labels.

use std::fmt::Write as _;

use exclusion_shmem::json::escape as esc;

use crate::{ExploreReport, WorstCaseReport, WorstCost};

/// Schema tag for JSON documents composed from these fragments.
pub const JSON_SCHEMA: &str = "exclusion-explore/v1";

/// One exploration verdict as a JSON object.
#[must_use]
pub fn explore_json(r: &ExploreReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"algorithm\":\"{}\",\"n\":{},\"passages\":{},\"states\":{},\"edges\":{},\
         \"depth\":{},\"truncated\":{},\"dedup_hits\":{},\"dedup_ratio\":{:.4},\
         \"peak_frontier\":{},\"fingerprinted\":{},\"certified_safe\":{},\
         \"certified_deadlock_free\":{},",
        esc(&r.algorithm),
        r.n,
        r.passages,
        r.states,
        r.edges,
        r.depth,
        r.truncated,
        r.dedup_hits,
        r.dedup_ratio(),
        r.peak_frontier,
        r.fingerprinted,
        r.certified_safe(),
        r.certified_deadlock_free(),
    );
    match &r.violation {
        None => out.push_str("\"violation\":null,"),
        Some(v) => {
            let _ = write!(
                out,
                "\"violation\":{{\"schedule_len\":{},\"culprits\":[{},{}],\"trace\":\"{}\"}},",
                v.schedule.len(),
                v.culprits.0.index(),
                v.culprits.1.index(),
                esc(&v.trace.to_string()),
            );
        }
    }
    match &r.hazard {
        None => out.push_str("\"hazard\":null}"),
        Some(h) => {
            let _ = write!(
                out,
                "\"hazard\":{{\"kind\":\"{}\",\"schedule_len\":{},\"doomed_states\":{}}}}}",
                h.kind,
                h.schedule.len(),
                h.doomed_states,
            );
        }
    }
    out
}

/// One worst-case verdict as a JSON object.
#[must_use]
pub fn worst_json(r: &WorstCaseReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"algorithm\":\"{}\",\"model\":\"{}\",\"n\":{},\"passages\":{},\
         \"nodes\":{},\"edges\":{},\"incumbent\":{},\"truncated\":{},",
        esc(&r.algorithm),
        r.model,
        r.n,
        r.passages,
        r.nodes,
        r.edges,
        r.incumbent,
        r.truncated,
    );
    match &r.cost {
        WorstCost::Exact { cost, schedule } => {
            let _ = write!(
                out,
                "\"cost\":{cost},\"unbounded\":false,\"schedule_len\":{}}}",
                schedule.len()
            );
        }
        WorstCost::Unbounded { prefix, cycle } => {
            let _ = write!(
                out,
                "\"cost\":null,\"unbounded\":true,\"pump_prefix_len\":{},\"pump_cycle_len\":{}}}",
                prefix.len(),
                cycle.len()
            );
        }
        WorstCost::Unknown => out.push_str("\"cost\":null,\"unbounded\":false}"),
    }
    out
}

/// A compact cost label for text tables: the exact value, `∞` for
/// unbounded, `?` when truncated.
#[must_use]
pub fn cost_label(cost: &WorstCost) -> String {
    match cost {
        WorstCost::Exact { cost, .. } => cost.to_string(),
        WorstCost::Unbounded { .. } => "∞".into(),
        WorstCost::Unknown => "?".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, worst_case, ExploreConfig, Model};
    use exclusion_shmem::testing::{Alternator, NoLock};

    #[test]
    fn json_fragments_are_balanced_and_tagged() {
        let cfg = ExploreConfig::default();
        let good = explore_json(&explore(&Alternator::new(2), &cfg));
        let bad = explore_json(&explore(&NoLock::new(2), &cfg));
        let worst = worst_json(&worst_case(&Alternator::new(2), Model::Sc, &cfg));
        for json in [&good, &bad, &worst] {
            assert_eq!(
                json.matches('{').count(),
                json.matches('}').count(),
                "{json}"
            );
            assert_eq!(
                json.matches('[').count(),
                json.matches(']').count(),
                "{json}"
            );
        }
        assert!(good.contains("\"certified_safe\":true"));
        assert!(good.contains("\"dedup_hits\":"));
        assert!(good.contains("\"dedup_ratio\":"));
        assert!(good.contains("\"peak_frontier\":"));
        assert!(bad.contains("\"violation\":{"));
        assert!(bad.contains("\"culprits\":["));
        assert!(worst.contains("\"model\":\"sc\""));
        assert!(worst.contains("\"unbounded\":false"));
    }

    #[test]
    fn cost_labels_cover_all_verdicts() {
        assert_eq!(
            cost_label(&WorstCost::Exact {
                cost: 7,
                schedule: vec![]
            }),
            "7"
        );
        assert_eq!(
            cost_label(&WorstCost::Unbounded {
                prefix: vec![],
                cycle: vec![]
            }),
            "∞"
        );
        assert_eq!(cost_label(&WorstCost::Unknown), "?");
    }
}
