//! Mutation-adequacy run: seed every cataloged defect into the real
//! mechanisms and the engine's flow control, drive each mutant through
//! the four-oracle proof stack, and print the kill matrix.
//!
//! Scale: h=2 by default (the PR-time smoke run, a few seconds);
//! `OFAR_FULL=1` (or `OFAR_H=4`) re-measures at h=4 for the nightly
//! adequacy job. Exit status is the CI contract:
//!
//! * **non-zero** when a *covered* pair survived (an oracle regressed),
//!   when fewer than 20 distinct operators were killed, or when any
//!   kill lacks a witness;
//! * **zero** otherwise — survivors outside the covered set are
//!   expected and printed as the known-gap list (DESIGN.md §11).

use ofar_bench::env_or_exit;
use ofar_core::engine::SimConfig;
use ofar_core::env;
use ofar_mutate::{covered, KillMatrix, MutationOp};
use std::process::ExitCode;

/// Distinct-operator kill floor enforced in CI.
const MIN_KILLED_OPS: usize = 20;

fn main() -> ExitCode {
    let full = if env::flag("OFAR_FULL") { 4 } else { 2 };
    let h = env_or_exit(env::parsed("OFAR_H")).unwrap_or(full);
    let seed: u64 = env_or_exit(env::parsed("OFAR_SEED")).unwrap_or(0xAD0B5);
    let cfg = SimConfig::paper(h);
    eprintln!(
        "[mutants] h={h} ({} nodes), {} operators, {} (operator x mechanism) pairs, seed={seed}",
        cfg.params.nodes(),
        MutationOp::ALL.len(),
        ofar_mutate::pairs().len(),
    );

    let start = std::time::Instant::now();
    let matrix = KillMatrix::run(&cfg, seed);
    eprintln!(
        "[mutants] matrix done in {:.1}s",
        start.elapsed().as_secs_f64()
    );

    println!("kill matrix (h={h}):\n");
    println!("{}", matrix.render());
    println!("kill witnesses:");
    print!("{}", matrix.render_witnesses());
    println!();
    for (oracle, kills) in matrix.kills_per_oracle() {
        println!("killed first by {:<12} {kills}", oracle.name());
    }
    let survivors = matrix.survivors();
    println!(
        "\n{} pairs, {} distinct operators killed, covered kill rate {:.0}%, {} survivor(s)",
        matrix.outcomes.len(),
        matrix.distinct_killed_ops(),
        100.0 * matrix.covered_kill_rate(),
        survivors.len(),
    );
    for s in &survivors {
        let status = if covered(s.op, s.mech) {
            "REGRESSION"
        } else {
            "known gap"
        };
        println!(
            "  survivor [{status}]: {} x {} — {}",
            s.op.name(),
            s.mech.name(),
            s.op.describe()
        );
    }

    let mut failed = false;
    let regressions = matrix.regressions();
    if !regressions.is_empty() {
        eprintln!(
            "\nFAIL: {} covered pair(s) survived — an oracle regressed:",
            regressions.len()
        );
        for r in &regressions {
            eprintln!("  {} x {}", r.op.name(), r.mech.name());
        }
        failed = true;
    }
    if matrix.distinct_killed_ops() < MIN_KILLED_OPS {
        eprintln!(
            "\nFAIL: only {} distinct operators killed (floor: {MIN_KILLED_OPS})",
            matrix.distinct_killed_ops()
        );
        failed = true;
    }
    if matrix
        .outcomes
        .iter()
        .any(|o| o.killed_by().is_some_and(|(_, w)| w.is_empty()))
    {
        eprintln!("\nFAIL: a kill has an empty witness");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
