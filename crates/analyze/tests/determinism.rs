//! Determinism of the analyzer's CI artifact.
//!
//! The JSON report is uploaded and diffed by CI, so any run-to-run
//! wobble — map iteration order, wall clock leaking into output,
//! filesystem enumeration order — would surface as phantom drift. Two
//! runs over the same sources must agree to the byte.

use ofar_analyze::{analyze_sources, collect_sources, report, LintConfig};
use std::path::Path;

#[test]
fn report_is_byte_identical_across_runs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = collect_sources(&root).expect("workspace sources");
    assert!(!sources.is_empty());
    let cfg = LintConfig::default();
    let a = analyze_sources(&sources, &cfg);
    let b = analyze_sources(&sources, &cfg);
    assert_eq!(
        report::json(&a.findings, a.files_scanned),
        report::json(&b.findings, b.files_scanned),
        "lint report must be deterministic"
    );
}
