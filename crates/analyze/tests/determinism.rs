//! Determinism of the analyzer's CI artifacts.
//!
//! The JSON report and the phase contract are checked-in, CI-diffed
//! artifacts, so any run-to-run wobble — map iteration order, wall
//! clock leaking into output, filesystem enumeration order — would
//! surface as phantom drift. Two runs over the same sources must agree
//! to the byte, and the checked-in contract must match a fresh one —
//! which moving code, within a file or between files, must not disturb.

use ofar_analyze::race::{load_waivers, Waiver};
use ofar_analyze::{analyze_sources, collect_sources, lexer, parse, report};
use ofar_analyze::{LintConfig, SourceFile};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn report_and_contract_are_byte_identical_across_runs() {
    let sources = collect_sources(&workspace_root()).expect("workspace sources");
    assert!(!sources.is_empty());
    let cfg = LintConfig::default();
    let a = analyze_sources(&sources, &cfg);
    let b = analyze_sources(&sources, &cfg);
    assert_eq!(
        report::json(&a.findings, a.files_scanned),
        report::json(&b.findings, b.files_scanned),
        "lint report must be deterministic"
    );
    let ca = a.contract.expect("workspace has a phase root");
    let cb = b.contract.expect("workspace has a phase root");
    assert_eq!(ca, cb, "phase contract must be deterministic");
    ofar_analyze::json::parse(&ca).expect("contract is valid JSON");
}

#[test]
fn checked_in_contract_matches_fresh() {
    let root = workspace_root();
    let sources = collect_sources(&root).expect("workspace sources");
    let a = analyze_sources(&sources, &LintConfig::default());
    let fresh = a.contract.expect("workspace has a phase root");
    let checked_in = std::fs::read_to_string(root.join("results/phase-contract.json"))
        .expect("results/phase-contract.json is checked in");
    assert_eq!(
        checked_in, fresh,
        "checked-in phase contract drifted — regenerate with \
         `ofar-lint --root . --emit-contract results/phase-contract.json`"
    );
}

// ----- waiver addressing: `(rule, function, nth)`, never a line -----

fn contract_of(sources: &[SourceFile]) -> String {
    analyze_sources(sources, &LintConfig::default())
        .contract
        .expect("workspace has a phase root")
}

/// Index of the one source defining `Network::execute_grant`, and the
/// 0-based line range of the function with the comments sitting on it.
fn execute_grant_span(sources: &[SourceFile]) -> (usize, std::ops::Range<usize>) {
    let mut found = Vec::new();
    for (i, s) in sources.iter().enumerate() {
        let file = parse::parse(&s.path, &s.crate_name, &s.text, lexer::lex(&s.text));
        for f in &file.fns {
            if f.qname() == "Network::execute_grant" {
                found.push((i, f.line as usize - 1, f.end_line as usize));
            }
        }
    }
    assert_eq!(found.len(), 1, "one Network::execute_grant: {found:?}");
    let (i, mut first, end) = found[0];
    let lines: Vec<&str> = sources[i].text.lines().collect();
    while first > 0 && lines[first - 1].trim_start().starts_with("//") {
        first -= 1;
    }
    (i, first..end)
}

#[test]
fn contract_ignores_line_numbers() {
    let mut sources = collect_sources(&workspace_root()).expect("workspace sources");
    let before = contract_of(&sources);
    for s in &mut sources {
        if s.path.starts_with("crates/engine/src/") {
            s.text.insert_str(0, &"// padding\n".repeat(40));
        }
    }
    assert_eq!(before, contract_of(&sources));
}

#[test]
fn contract_ignores_which_file_holds_a_function() {
    let mut sources = collect_sources(&workspace_root()).expect("workspace sources");
    let before = contract_of(&sources);
    let (i, span) = execute_grant_span(&sources);
    let lines: Vec<&str> = sources[i].text.lines().collect();
    let moved = format!(
        "impl<P: Policy, H: Hooks> Network<P, H> {{\n{}\n}}\n",
        lines[span.clone()].join("\n")
    );
    let kept = [&lines[..span.start], &lines[span.end..]]
        .concat()
        .join("\n");
    sources[i].text = kept;
    sources.push(SourceFile {
        path: "crates/engine/src/network/moved_for_test.rs".to_string(),
        crate_name: "engine".to_string(),
        text: moved,
    });
    assert_eq!(before, contract_of(&sources));
}

#[test]
fn nth_counts_within_one_function() {
    let mut sources = collect_sources(&workspace_root()).expect("workspace sources");
    let before = load_waivers(&contract_of(&sources)).expect("fresh contract loads");
    let (i, _) = execute_grant_span(&sources);
    let text = &mut sources[i].text;
    let stamp = "self.stats.last_grant = now;";
    let body = text.find("fn execute_grant(").expect("the function");
    let at = body + text[body..].find(stamp).expect("stamp in execute_grant");
    text.insert_str(at, &format!("{stamp}\n        "));
    let after = load_waivers(&contract_of(&sources)).expect("fresh contract loads");

    let added: Vec<&Waiver> = after.iter().filter(|w| !before.contains(w)).collect();
    assert_eq!(added.len(), 1, "{added:?}");
    assert_eq!(added[0].to_string(), "R003 #2 in Network::execute_grant");
    assert!(before.iter().all(|w| after.contains(w)), "a waiver moved");
    assert_eq!(after.len(), before.len() + 1);
}

#[test]
fn load_waivers_refuses_other_shapes() {
    let doc = |version: u32, waiver: &str| {
        format!("{{\"contract_version\": {version}, \"waivers\": [{waiver}]}}")
    };
    let v2 = r#"{"rule": "R003", "function": "Network::f", "nth": 0, "reason": "x"}"#;
    assert_eq!(
        load_waivers(&doc(2, v2)).expect("the current shape").len(),
        1
    );
    for (version, waiver) in [
        (
            1,
            r#"{"rule": "R003", "file": "a.rs", "line": 10, "reason": "x"}"#,
        ),
        (
            2,
            r#"{"rule": "R003", "file": "a.rs", "line": 10, "reason": "x"}"#,
        ),
        (1, v2),
        (
            2,
            r#"{"rule": "R003", "function": "Network::f", "reason": "x"}"#,
        ),
        (
            2,
            r#"{"rule": "R003", "function": "Network::f", "nth": -1, "reason": "x"}"#,
        ),
        (
            2,
            r#"{"rule": "R003", "function": "Network::f", "nth": "0", "reason": "x"}"#,
        ),
    ] {
        assert!(
            load_waivers(&doc(version, waiver)).is_err(),
            "{version} {waiver}"
        );
    }
}
