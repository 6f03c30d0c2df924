//! The static lint oracle: the phase-discipline analyzer as a mutant
//! killer.
//!
//! [`OpCategory::Source`](crate::OpCategory::Source) mutants are
//! textual transforms of the engine's own `network.rs` — defects a
//! developer could introduce while editing the step loop, invisible to
//! every dynamic oracle because the single-threaded engine simulates
//! them identically. The seeded transform moves the credit return
//! across the phase boundary: the deferred `Effect::Credit` push in
//! `execute_grant` (parallel `route` phase, filed into the timing wheel
//! by `commit_effects` in the serial commit phase) becomes a direct
//! filing of the *upstream* router's credit into the wheel from the
//! route phase — exactly the cross-shard write the checked-in
//! parallelization contract forbids. The oracle
//! re-runs `ofar-analyze` over the mutated workspace text and the
//! mutant is killed when an open R-family finding lands in the mutated
//! file.
//!
//! The pristine text being replaced is pinned byte-exact: when a
//! refactor of `execute_grant` breaks the match, the oracle panics
//! instead of silently analyzing an unmutated workspace and reporting
//! a survivor.

use crate::operator::MutationOp;
use ofar_analyze::{analyze_sources, collect_sources, LintConfig};
use ofar_verify::OracleVerdict;
use std::fmt::Write as _;
use std::path::Path;

/// Workspace-relative path of the mutated file.
const TARGET: &str = "crates/engine/src/network.rs";

/// The deferred credit push in `execute_grant`, byte-exact with the
/// pristine source.
const CREDIT_PUSH: &str = "            self.effects.push(Effect::Credit {
                at: now + u64::from(desc.latency),
                credit: Credit {
                    router: desc.up_router,
                    port: desc.up_port,
                    vc: vc as u8,
                    phits: size,
                },
            });";

/// The hoisted replacement: the credit is filed into the wheel, for a
/// foreign router's port, straight from the parallel phase. Still a
/// valid program with identical single-threaded behavior (the landing
/// cycle picks the slot either way), which is the point — only the
/// analyzer can object.
const CREDIT_HOIST: &str = "            self.wheel.file_credit(
                now + u64::from(desc.latency),
                Credit {
                    router: desc.up_router,
                    port: desc.up_port,
                    vc: vc as u8,
                    phits: size,
                },
            );";

/// Run the phase-discipline analyzer against the workspace with `op`'s
/// textual transform applied to the engine source. Kills are open
/// R-family findings in the mutated file.
pub fn lint_verdict(op: MutationOp) -> OracleVerdict {
    // The harness always runs from a checkout of this workspace (tests,
    // CI, `ofar-bench mutants`), so the compile-time manifest dir
    // locates the sources.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = collect_sources(&root).expect("workspace sources readable");
    let target = sources
        .iter_mut()
        .find(|s| s.path == TARGET)
        .unwrap_or_else(|| panic!("{TARGET} missing from workspace sources"));
    match op {
        MutationOp::SourceCreditPhaseHoist => {
            assert!(
                target.text.contains(CREDIT_PUSH),
                "the deferred credit push in execute_grant no longer matches the \
                 lint oracle's pinned text — update lint_oracle::CREDIT_PUSH"
            );
            target.text = target.text.replace(CREDIT_PUSH, CREDIT_HOIST);
        }
        _ => unreachable!("{} is not a source operator", op.name()),
    }
    let analysis = analyze_sources(&sources, &LintConfig::default());
    let hits: Vec<_> = analysis
        .open()
        .filter(|f| f.file == TARGET && f.rule.starts_with('R'))
        .collect();
    if hits.is_empty() {
        OracleVerdict::Pass
    } else {
        let mut witness = format!("{} phase-discipline finding(s); first: ", hits.len());
        let f = hits[0];
        let _ = write!(witness, "{}:{} [{}] {}", f.file, f.line, f.rule, f.message);
        OracleVerdict::Fail { witness }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::run_mutant;
    use ofar_engine::SimConfig;
    use ofar_routing::MechanismKind;
    use ofar_verify::OracleKind;

    /// Honesty anchor: the pristine engine source carries no open
    /// R-family finding, so any kill below is the transform's doing.
    #[test]
    fn pristine_engine_is_lint_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let sources = collect_sources(&root).expect("workspace sources");
        let a = analyze_sources(&sources, &LintConfig::default());
        let open: Vec<_> = a
            .open()
            .filter(|f| f.file == TARGET && f.rule.starts_with('R'))
            .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message))
            .collect();
        assert!(
            open.is_empty(),
            "pristine engine has open R findings: {open:?}"
        );
    }

    /// The adequacy criterion: the hoisted credit write is reported by
    /// the analyzer as a cross-shard write in a parallel phase.
    #[test]
    fn credit_phase_hoist_is_killed_by_the_lint_oracle() {
        let cfg = SimConfig::paper(2);
        let out = run_mutant(
            MutationOp::SourceCreditPhaseHoist,
            MechanismKind::Ofar,
            &cfg,
            1,
        );
        let (oracle, witness) = out
            .killed_by()
            .expect("the hoisted credit write must be caught");
        assert_eq!(oracle, OracleKind::Lint);
        assert!(witness.contains("R001"), "witness: {witness}");
        assert!(witness.contains("cross-shard write"), "witness: {witness}");
    }
}
