//! Determinism of the analyzer's CI artifacts.
//!
//! The JSON report and the phase contract are checked-in, CI-diffed
//! artifacts, so any run-to-run wobble — map iteration order, wall
//! clock leaking into output, filesystem enumeration order — would
//! surface as phantom drift. Two runs over the same sources must agree
//! to the byte, and the checked-in contract must match a fresh one.

use ofar_analyze::{analyze_sources, collect_sources, report, LintConfig};
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
