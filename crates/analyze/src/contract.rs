//! The phase-contract artifact (`results/phase-contract.json`).
//!
//! Rendered from the phase analysis after suppression claiming, the
//! contract is the machine-readable record of how `Network::step` is
//! partitioned: the declared phases in execution order, each phase's
//! read/write footprint over classified engine state, the disjointness
//! verdict for the parallel phases, and every waived R finding with
//! its mandatory reason. The artifact is deterministic (all sets are
//! ordered, no timestamps) and checked in; CI regenerates it and fails
//! on drift.
//!
//! Nothing in it names a line or, below `root_file`, a file: a waiver
//! is addressed by the function that holds it ([`Waiver`]), so moving
//! code — within a file or into another — leaves the artifact as it is.

use crate::json::{self, escape};
use crate::phases::PhaseInfo;
use crate::rules::{Finding, RULE_PHASE_ACCUM, RULE_PHASE_CROSS_WRITE, RULE_PHASE_READ_RACE};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Format version of the contract artifact.
pub const CONTRACT_VERSION: u32 = 2;

/// One waived R finding, as the contract lists it — the one place that
/// knows the shape: [`render`] writes it, [`load_waivers`] reads it.
#[derive(Clone, Debug, PartialEq)]
pub struct Waiver {
    /// Waived rule (e.g. `R003`, `R006`).
    pub rule: String,
    /// Qualified name of the function whose span holds the finding
    /// (`Network::execute_grant`).
    pub function: String,
    /// 0-based rank among that function's suppressed findings of the
    /// same rule, in source order — an edit in one function cannot
    /// renumber another's.
    pub nth: u32,
    /// Mandatory justification from the `lint:allow` marker.
    pub reason: String,
}

impl std::fmt::Display for Waiver {
    /// `R003 #1 in Network::execute_grant`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} #{} in {}", self.rule, self.nth, self.function)
    }
}

/// The waivers of one analysis run: every suppressed R finding, ordered
/// by `(function, rule, nth)`.
pub fn waivers(findings: &[Finding]) -> Vec<Waiver> {
    let mut held: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule.starts_with('R') && f.suppressed.is_some())
        .collect();
    held.sort_by_key(|f| (&f.function, f.rule, &f.file, f.line));
    let mut rank: BTreeMap<(&str, &str), u32> = BTreeMap::new();
    held.iter()
        .map(|f| {
            let next = rank.entry((&f.function, f.rule)).or_default();
            let nth = *next;
            *next += 1;
            Waiver {
                rule: f.rule.to_string(),
                function: f.function.clone(),
                nth,
                reason: f.suppressed.as_ref().map_or("", |x| &x.reason).to_string(),
            }
        })
        .collect()
}

/// Parse the waiver list out of a `phase-contract.json` document.
pub fn load_waivers(contract_json: &str) -> Result<Vec<Waiver>, String> {
    let v = json::parse(contract_json)?;
    if v.get("contract_version") != Some(&json::Value::Int(i64::from(CONTRACT_VERSION))) {
        return Err(format!(
            "contract_version is not {CONTRACT_VERSION} — regenerate with \
             ofar-lint --emit-contract"
        ));
    }
    let arr = v
        .get("waivers")
        .and_then(|w| w.as_arr())
        .ok_or("contract has no waivers array")?;
    arr.iter()
        .map(|w| {
            let s = |key: &str| {
                w.get(key)
                    .and_then(|x| x.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("waiver missing {key}"))
            };
            let nth = match w.get("nth") {
                Some(json::Value::Int(n)) => u32::try_from(*n).ok(),
                _ => None,
            };
            Ok(Waiver {
                rule: s("rule")?,
                function: s("function")?,
                nth: nth.ok_or("waiver missing nth (a non-negative integer)")?,
                reason: s("reason")?,
            })
        })
        .collect()
}

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
    let waivers = waivers(findings);

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
        let _ = write!(
            s,
            "\n    {{\"rule\": \"{}\", \"function\": \"{}\", \"nth\": {}, \"reason\": \"{}\"}}",
            w.rule,
            escape(&w.function),
            w.nth,
            escape(&w.reason)
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
            function: "Network::route".to_string(),
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
        // What `render` writes, `load_waivers` reads back.
        assert_eq!(
            load_waivers(&out).unwrap(),
            vec![Waiver {
                rule: "R001".to_string(),
                function: "Network::route".to_string(),
                nth: 0,
                reason: "shared fate RNG, serialized in PR-10".to_string(),
            }]
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render(&sample_info(), &[]);
        let b = render(&sample_info(), &[]);
        assert_eq!(a, b);
    }
}
