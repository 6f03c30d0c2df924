//! Report rendering: human-readable text and the structured JSON
//! artifact CI uploads.

use crate::json::escape;
use crate::rules::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counts by rule for the summary block.
fn by_rule(findings: &[Finding]) -> BTreeMap<&'static str, (usize, usize)> {
    let mut m: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for f in findings {
        let e = m.entry(f.rule).or_default();
        if f.suppressed.is_some() {
            e.1 += 1;
        } else {
            e.0 += 1;
        }
    }
    m
}

/// Render the human-readable report.
pub fn text(findings: &[Finding], files_scanned: usize) -> String {
    let mut s = String::new();
    for f in findings.iter().filter(|f| f.suppressed.is_none()) {
        let _ = writeln!(s, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        if !f.snippet.is_empty() {
            let _ = writeln!(s, "    | {}", f.snippet);
        }
    }
    let open = findings.iter().filter(|f| f.suppressed.is_none()).count();
    let supp = findings.len() - open;
    let _ = writeln!(
        s,
        "ofar-lint: {files_scanned} files scanned, {open} open finding(s), \
         {supp} suppressed"
    );
    for (rule, (o, sp)) in by_rule(findings) {
        let _ = writeln!(s, "  {rule}: {o} open, {sp} suppressed");
    }
    s
}

/// Render the JSON report artifact.
pub fn json(findings: &[Finding], files_scanned: usize) -> String {
    let open = findings.iter().filter(|f| f.suppressed.is_none()).count();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"tool\": \"ofar-lint\",");
    let _ = writeln!(s, "  \"version\": 1,");
    let _ = writeln!(s, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(s, "  \"open\": {open},");
    let _ = writeln!(s, "  \"suppressed\": {},", findings.len() - open);
    s.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        let _ = write!(
            s,
            "\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \
             \"snippet\": \"{}\"",
            f.rule,
            escape(&f.file),
            f.line,
            escape(&f.message),
            escape(&f.snippet)
        );
        match &f.suppressed {
            Some(sup) => {
                let _ = write!(
                    s,
                    ", \"suppressed\": {{\"via\": \"{}\", \"reason\": \"{}\"}}",
                    sup.via,
                    escape(&sup.reason)
                );
            }
            None => s.push_str(", \"suppressed\": null"),
        }
        s.push('}');
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json as j;
    use crate::rules::{Suppression, RULE_HASH_CONTAINER, RULE_HOT_ALLOC};

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                rule: RULE_HASH_CONTAINER,
                file: "a.rs".to_string(),
                line: 3,
                message: "msg \"quoted\"".to_string(),
                snippet: "let m = HashMap::new();".to_string(),
                suppressed: None,
            },
            Finding {
                rule: RULE_HOT_ALLOC,
                file: "b.rs".to_string(),
                line: 9,
                message: "alloc".to_string(),
                snippet: "v.clone()".to_string(),
                suppressed: Some(Suppression {
                    via: "inline",
                    reason: "probe-only path".to_string(),
                }),
            },
        ]
    }

    #[test]
    fn json_report_is_valid_json() {
        let out = json(&sample(), 12);
        let v = j::parse(&out).expect("report must parse");
        assert_eq!(v.get("open"), Some(&j::Value::Int(1)));
        assert_eq!(v.get("suppressed"), Some(&j::Value::Int(1)));
        let fs = v.get("findings").unwrap().as_arr().unwrap();
        assert_eq!(fs.len(), 2);
        assert!(fs[1].get("suppressed").unwrap().get("reason").is_some());
    }

    #[test]
    fn text_report_lists_open_only() {
        let out = text(&sample(), 12);
        assert!(out.contains("a.rs:3: [D001]"));
        assert!(!out.contains("b.rs:9: [H001]"));
        assert!(out.contains("1 open finding(s), 1 suppressed"));
    }
}
