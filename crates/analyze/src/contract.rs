//! The parallelization-contract artifact (`results/phase-contract.json`).
//!
//! Rendered from the phase analysis after suppression claiming, the
//! contract is the machine-readable spec the parallel engine rewrite
//! consumes: the declared phases in execution order, each phase's
//! read/write footprint over classified engine state, the disjointness
//! verdict for the parallel phases, and every waived R finding with
//! its mandatory reason. The artifact is deterministic (all sets are
//! ordered, no timestamps) and checked in; CI regenerates it and fails
//! on drift.

use crate::json::escape;
use crate::phases::PhaseInfo;
use crate::rules::{Finding, RULE_PHASE_ACCUM, RULE_PHASE_CROSS_WRITE, RULE_PHASE_READ_RACE};
use std::fmt::Write as _;

/// Format version of the contract artifact.
pub const CONTRACT_VERSION: u32 = 1;

/// Render the contract. `findings` is the final (post-suppression)
/// finding list of the same analysis run.
pub fn render(info: &PhaseInfo, findings: &[Finding]) -> String {
    let is_race_rule =
        |r: &str| r == RULE_PHASE_CROSS_WRITE || r == RULE_PHASE_READ_RACE || r == RULE_PHASE_ACCUM;
    let open_violations = findings
        .iter()
        .filter(|f| is_race_rule(f.rule) && f.suppressed.is_none())
        .count();
    let coverage_gaps = findings
        .iter()
        .filter(|f| f.rule == "R004" && f.suppressed.is_none())
        .count();
    let waivers: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule.starts_with('R') && f.suppressed.is_some())
        .collect();

    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"tool\": \"ofar-lint\",");
    let _ = writeln!(s, "  \"contract_version\": {CONTRACT_VERSION},");
    let _ = writeln!(s, "  \"root\": \"{}\",", escape(&info.root));
    let _ = writeln!(s, "  \"root_file\": \"{}\",", escape(&info.root_file));
    s.push_str("  \"phases\": [");
    for (i, p) in info.phases.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", escape(&p.name));
        let _ = writeln!(s, "      \"kind\": \"{}\",", p.kind.name());
        let _ = writeln!(s, "      \"order\": {i},");
        s.push_str("      \"functions\": [");
        for (j, f) in p.functions.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\"", escape(f));
        }
        s.push_str("],\n");
        s.push_str("      \"footprint\": [");
        for (j, (field, foot)) in p.footprint.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str("\n        {");
            let _ = write!(
                s,
                "\"field\": \"{}\", \"class\": \"{}\", ",
                escape(field),
                foot.class.map_or("unknown", |c| c.name())
            );
            let list = |items: Vec<String>| {
                let mut t = String::from("[");
                for (k, it) in items.iter().enumerate() {
                    if k > 0 {
                        t.push_str(", ");
                    }
                    let _ = write!(t, "\"{}\"", escape(it));
                }
                t.push(']');
                t
            };
            let _ = write!(
                s,
                "\"reads\": {}, \"writes\": {}, \"write_ops\": {}",
                list(foot.read_idx.iter().map(|x| x.to_string()).collect()),
                list(foot.write_idx.iter().map(|x| x.to_string()).collect()),
                list(foot.write_ops.iter().cloned().collect()),
            );
            s.push('}');
        }
        if !p.footprint.is_empty() {
            s.push_str("\n      ");
        }
        s.push_str("]\n    }");
    }
    if !info.phases.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");
    s.push_str("  \"disjointness\": {\n");
    let _ = writeln!(
        s,
        "    \"verdict\": \"{}\",",
        if open_violations == 0 && coverage_gaps == 0 {
            "disjoint"
        } else {
            "violated"
        }
    );
    let _ = writeln!(s, "    \"open_violations\": {open_violations},");
    let _ = writeln!(s, "    \"coverage_gaps\": {coverage_gaps},");
    let _ = writeln!(s, "    \"waived\": {}", waivers.len());
    s.push_str("  },\n");
    s.push_str("  \"waivers\": [");
    for (i, w) in waivers.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let reason = w.suppressed.as_ref().map_or("", |x| x.reason.as_str());
        let _ = write!(
            s,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
            w.rule,
            escape(&w.file),
            w.line,
            escape(reason)
        );
    }
    if !waivers.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json as j;
    use crate::phases::{FieldFoot, PhaseKind, PhaseSummary};
    use crate::rules::Suppression;

    fn sample_info() -> PhaseInfo {
        let mut foot = FieldFoot {
            class: Some(crate::access::Class::Sharded(crate::access::Axis::Router)),
            ..FieldFoot::default()
        };
        foot.read_idx.insert("home");
        foot.write_idx.insert("home");
        foot.write_ops.insert("compound".to_string());
        PhaseInfo {
            root: "Network::step".to_string(),
            root_file: "crates/engine/src/network.rs".to_string(),
            phases: vec![PhaseSummary {
                name: "route".to_string(),
                kind: PhaseKind::Parallel,
                line: 10,
                functions: ["Network::route_and_allocate".to_string()].into(),
                footprint: [("credits".to_string(), foot)].into(),
            }],
        }
    }

    #[test]
    fn contract_is_valid_json_with_verdict() {
        let out = render(&sample_info(), &[]);
        let v = j::parse(&out).expect("contract must parse");
        assert_eq!(
            v.get("disjointness").unwrap().get("verdict"),
            Some(&j::Value::Str("disjoint".to_string()))
        );
        let phases = v.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(
            phases[0].get("kind"),
            Some(&j::Value::Str("parallel".to_string()))
        );
    }

    #[test]
    fn open_violation_flips_verdict_and_waiver_is_listed() {
        let open = Finding {
            rule: crate::rules::RULE_PHASE_CROSS_WRITE,
            file: "a.rs".to_string(),
            line: 5,
            message: String::new(),
            snippet: String::new(),
            suppressed: None,
        };
        let out = render(&sample_info(), std::slice::from_ref(&open));
        let v = j::parse(&out).unwrap();
        assert_eq!(
            v.get("disjointness").unwrap().get("verdict"),
            Some(&j::Value::Str("violated".to_string()))
        );

        let mut waived = open;
        waived.suppressed = Some(Suppression {
            via: "inline",
            reason: "shared fate RNG, serialized in PR-10".to_string(),
        });
        let out = render(&sample_info(), &[waived]);
        let v = j::parse(&out).unwrap();
        assert_eq!(
            v.get("disjointness").unwrap().get("verdict"),
            Some(&j::Value::Str("disjoint".to_string()))
        );
        let ws = v.get("waivers").unwrap().as_arr().unwrap();
        assert_eq!(ws.len(), 1);
        assert!(ws[0].get("reason").is_some());
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render(&sample_info(), &[]);
        let b = render(&sample_info(), &[]);
        assert_eq!(a, b);
    }
}
