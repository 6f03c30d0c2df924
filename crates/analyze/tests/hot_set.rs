//! The hot-set staleness fix: H/P crate scoping is a *cold* denylist.
//!
//! The analyzer used to carry a hand-kept allowlist of "hot" crates;
//! a new crate joining the cycle loop was silently unchecked until
//! someone remembered to add it. The list is now inverted: crates are
//! hot by default and only the named driver/tooling crates are cold,
//! so the stale-list failure mode is visible noise, never silence.
//! These tests pin both directions of that contract.

use ofar_analyze::{analyze_sources, collect_sources, LintConfig, SourceFile};
use std::path::Path;

/// A hot-path allocation reachable from `Network::step`, used to probe
/// whether a given crate name is subject to the H rules.
const PROBE: &str = r#"
impl Network {
    pub fn step(&mut self) {
        self.advance();
    }

    fn advance(&mut self) {
        let scratch: Vec<u32> = Vec::new();
        let _ = scratch;
    }
}
"#;

fn h_findings_for_crate(crate_name: &str) -> usize {
    let sf = SourceFile {
        path: format!("{crate_name}/probe.rs"),
        crate_name: crate_name.to_string(),
        text: PROBE.to_string(),
    };
    let a = analyze_sources(&[sf], &LintConfig::default());
    a.open().filter(|f| f.rule == "H001").count()
}

/// A crate name the config has never heard of is checked by default:
/// this is the fail-closed property the inversion buys. Under the old
/// allowlist this exact probe was silently skipped.
#[test]
fn unknown_crate_is_hot_by_default() {
    assert_eq!(
        h_findings_for_crate("future_parallel_engine"),
        1,
        "a crate absent from cold_crates must get H001 coverage"
    );
}

/// The named cold crates are still exempt — the denylist keeps the
/// protection against name-collision fan-out (a driver-level `apply`
/// or `clone` sharing a name with an engine method is not hot).
#[test]
fn cold_crates_stay_exempt() {
    for cold in &LintConfig::default().cold_crates {
        assert_eq!(
            h_findings_for_crate(cold),
            0,
            "cold crate `{cold}` must not get H findings"
        );
    }
}

/// Every cold_crates entry names a crate that actually exists in the
/// workspace — a typo or a removed crate would otherwise silently
/// widen the hot set for a crate that was meant to be exempt (noisy)
/// or keep exempting a ghost (stale).
#[test]
fn cold_list_names_real_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = collect_sources(&root).expect("workspace sources");
    let crates: std::collections::BTreeSet<&str> =
        sources.iter().map(|s| s.crate_name.as_str()).collect();
    for cold in &LintConfig::default().cold_crates {
        assert!(
            crates.contains(cold.as_str()),
            "cold_crates entry `{cold}` does not name a workspace crate \
             (known: {crates:?})"
        );
    }
}

/// The whole workspace stays clean under the inverted scoping: the
/// crates that became hot-by-default (none today — every workspace
/// crate is either previously-hot or named cold) introduce no new
/// open findings.
#[test]
fn workspace_is_clean_under_denylist_scoping() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = collect_sources(&root).expect("workspace sources");
    let a = analyze_sources(&sources, &LintConfig::default());
    let open: Vec<_> = a.open().collect();
    assert!(
        open.is_empty(),
        "workspace must be lint-clean, found: {:#?}",
        open.iter()
            .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
    );
}
