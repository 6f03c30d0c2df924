//! # ofar-bench
//!
//! The benchmark harness: one binary, `ofar-bench <experiment> [args]`,
//! dispatching through [`EXPERIMENTS`]. `ofar-bench list` prints that
//! table, one `name<TAB>kind` line per experiment:
//!
//! | kind | experiments |
//! |---|---|
//! | `figure` — a table checked in under `results/` (`results/run_all.sh` regenerates exactly these) | `fig2b fig3 fig4 fig5 fig6 fig7 fig8 fig9` (the paper's figures), `theory` (§III bounds), `rings` (§VII ring reliability), `ablation_thresholds ablation_pb ablation_patience` |
//! | `study` — a table that is not checked in | `faults` (§VII link failures), `ber` (lossy links), `overload` (2× saturation, CM off/on), `phases` (host µs per `step` phase) |
//! | `check` — the exit status is the verdict | `golden [--emit FILE] [--verify FILE]`, `verify` (CDG certification + conformance), `mutants` (kill matrix) |
//!
//! An unknown experiment, or an argument to one that takes none, exits
//! with status 2 naming the token.
//!
//! Scale control (every experiment that simulates):
//!
//! * default — `h = 4` network, full curve shapes in minutes;
//! * `OFAR_FULL=1` — the paper's `h = 6`, 5,256-node network;
//! * `OFAR_QUICK=1` — `h = 2` smoke scale;
//! * `OFAR_H=<n>` — override `h` explicitly.
//!
//! Checkpoints (`OFAR_CHECKPOINT_EVERY`, `OFAR_CHECKPOINT_DIR`, see
//! [`ofar_core::checkpoint`]) let a killed run resume where it stopped.
//!
//! A switch is on iff it is exactly `1`, and a value that does not parse
//! stops the binary with exit status 2 (see [`ofar_core::env`]).
//!
//! Host-time measurement lives in `benchmark/` (`ofar-perf`), not here.

mod checks;
mod phases;
mod robustness;
mod studies;

pub use phases::PhaseTimer;

use ofar_core::env::EnvError;
use ofar_core::{experiments, CheckpointPolicy, Scale, Table, SUITE_SEED};
use std::process::ExitCode;
use Kind::{Check, Figure, Study};

/// What an experiment leaves behind (the second column of
/// `ofar-bench list`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Prints a table that is checked in as `results/<name>.txt`.
    Figure,
    /// Prints a table that is not checked in.
    Study,
    /// Passes or fails: the exit status is the result.
    Check,
}

impl Kind {
    /// The name `ofar-bench list` prints.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Figure => "figure",
            Kind::Study => "study",
            Kind::Check => "check",
        }
    }
}

/// One row of [`EXPERIMENTS`].
pub struct Experiment {
    /// The command-line name.
    pub name: &'static str,
    /// What running it produces.
    pub kind: Kind,
    run: Run,
}

enum Run {
    /// A table, by the function that computes it at a scale: takes no
    /// arguments.
    Table(fn(&Scale) -> Table),
    /// Anything else, handed the arguments after its name.
    Args(fn(&[String]) -> ExitCode),
}

const fn table(name: &'static str, kind: Kind, table: fn(&Scale) -> Table) -> Experiment {
    let run = Run::Table(table);
    Experiment { name, kind, run }
}

const fn row(name: &'static str, kind: Kind, run: fn(&[String]) -> ExitCode) -> Experiment {
    let run = Run::Args(run);
    Experiment { name, kind, run }
}

/// Every experiment the binary runs, in `ofar-bench list` order.
pub static EXPERIMENTS: &[Experiment] = &[
    table("fig2b", Figure, experiments::fig2b),
    table("fig3", Figure, experiments::fig3),
    table("fig4", Figure, experiments::fig4),
    table("fig5", Figure, experiments::fig5),
    table("fig6", Figure, experiments::fig6),
    table("fig7", Figure, experiments::fig7),
    table("fig8", Figure, experiments::fig8),
    table("fig9", Figure, experiments::fig9),
    row("theory", Figure, studies::theory),
    table("rings", Figure, studies::ring_reliability),
    table("ablation_thresholds", Figure, studies::ablation_thresholds),
    table("ablation_pb", Figure, studies::ablation_pb),
    table("ablation_patience", Figure, studies::ablation_patience),
    table("faults", Study, robustness::link_failures),
    table("ber", Study, robustness::ber),
    table("overload", Study, robustness::overload),
    row("phases", Study, phases::phases),
    row("golden", Check, checks::golden),
    row("verify", Check, checks::verify),
    row("mutants", Check, checks::mutants),
];

/// The whole command line (without `argv[0]`): `list`, or an experiment
/// name followed by that experiment's own arguments.
pub fn run(args: &[String]) -> ExitCode {
    let Some((name, rest)) = args.split_first() else {
        eprintln!("usage: ofar-bench list | <experiment> [args]");
        return ExitCode::from(2);
    };
    // Every steady-state point reads the checkpoint knobs inside a
    // worker; a bad one is refused here, before anything is printed.
    env_or_exit(CheckpointPolicy::from_env());
    if name == "list" {
        no_args(name, rest);
        for e in EXPERIMENTS {
            println!("{}\t{}", e.name, e.kind.name());
        }
        return ExitCode::SUCCESS;
    }
    match EXPERIMENTS.iter().find(|e| e.name == name).map(|e| &e.run) {
        Some(Run::Table(table)) => {
            println!("{}", table(&start(name, rest)));
            ExitCode::SUCCESS
        }
        Some(Run::Args(run)) => run(rest),
        None => {
            eprintln!("unknown experiment {name} (see `ofar-bench list`)");
            ExitCode::from(2)
        }
    }
}

/// Unwrap an environment read, or report the offending variable and
/// exit with status 2.
fn env_or_exit<T>(read: Result<T, EnvError>) -> T {
    read.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Refuse arguments to an experiment that takes none.
fn no_args(name: &str, args: &[String]) {
    if let Some(stray) = args.first() {
        eprintln!("{name} takes no arguments, got {stray}");
        std::process::exit(2);
    }
}

/// The scale the environment asks for (see the crate docs).
fn scale() -> Scale {
    env_or_exit(Scale::from_env())
}

/// How an experiment without arguments starts: refuse any, read the
/// scale, print the scale banner.
fn start(name: &str, args: &[String]) -> Scale {
    no_args(name, args);
    let scale = scale();
    eprintln!(
        "[{name}] h={} ({} nodes), warmup={} measure={} cycles, seed={}",
        scale.h,
        scale.cfg().params.nodes(),
        scale.steady.warmup,
        scale.steady.measure,
        SUITE_SEED,
    );
    scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique_and_not_list() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_ne!(e.name, "list");
            assert!(EXPERIMENTS[..i].iter().all(|f| f.name != e.name));
        }
    }
}
