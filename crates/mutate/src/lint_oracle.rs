//! The static lint oracle: the phase-discipline analyzer as a mutant
//! killer.
//!
//! [`OpCategory::Source`](crate::OpCategory::Source) mutants are
//! textual transforms of the engine's own step-loop source — defects a
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
//! The pristine text being replaced is pinned byte-exact and located by
//! content, not by path: exactly one engine source must contain it.
//! When a refactor of `execute_grant` breaks the match, the oracle
//! panics instead of silently analyzing an unmutated workspace and
//! reporting a survivor.

use crate::operator::MutationOp;
use ofar_analyze::{analyze_sources, collect_sources, LintConfig, SourceFile};
use ofar_verify::OracleVerdict;
use std::path::Path;

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

/// The workspace sources and the index of the one engine source that
/// holds [`CREDIT_PUSH`].
fn workspace_and_target() -> (Vec<SourceFile>, usize) {
    // The harness always runs from a checkout of this workspace (tests,
    // CI, `ofar-bench mutants`), so the compile-time manifest dir
    // locates the sources.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = collect_sources(&root).expect("workspace sources readable");
    let holders: Vec<usize> = (0..sources.len())
        .filter(|&i| sources[i].crate_name == "engine" && sources[i].text.contains(CREDIT_PUSH))
        .collect();
    assert_eq!(
        holders.len(),
        1,
        "the deferred credit push in execute_grant must match the lint oracle's \
         pinned text in exactly one engine source — update lint_oracle::CREDIT_PUSH"
    );
    (sources, holders[0])
}

/// `function [rule] message` for every open R-family finding in the
/// source at index `target`.
fn open_r_findings(sources: &[SourceFile], target: usize) -> Vec<String> {
    analyze_sources(sources, &LintConfig::default())
        .open()
        .filter(|f| f.file == sources[target].path && f.rule.starts_with('R'))
        .map(|f| format!("{} [{}] {}", f.function, f.rule, f.message))
        .collect()
}

/// Run the phase-discipline analyzer against the workspace with `op`'s
/// textual transform applied to the engine source. Kills are open
/// R-family findings in the mutated file; the witness names the
/// function, not a line.
pub fn lint_verdict(op: MutationOp) -> OracleVerdict {
    let (mut sources, target) = workspace_and_target();
    match op {
        MutationOp::SourceCreditPhaseHoist => {
            sources[target].text = sources[target].text.replace(CREDIT_PUSH, CREDIT_HOIST);
        }
        _ => unreachable!("{} is not a source operator", op.name()),
    }
    let hits = open_r_findings(&sources, target);
    match hits.first() {
        None => OracleVerdict::Pass,
        Some(first) => OracleVerdict::Fail {
            witness: format!("{} phase-discipline finding(s); first: {first}", hits.len()),
        },
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
        let (sources, target) = workspace_and_target();
        let open = open_r_findings(&sources, target);
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
        assert!(
            witness.contains("Network::execute_grant [R001]"),
            "witness: {witness}"
        );
        assert!(witness.contains("cross-shard write"), "witness: {witness}");
    }
}
