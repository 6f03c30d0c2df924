//! Mutation-driven verification adequacy for the OFAR proof stack.
//!
//! The repo carries four independent correctness oracles — the CDG
//! deadlock verifier, the routing-conformance model checker, the
//! runtime invariant auditor and the burst progress watchdog. This
//! crate measures whether that stack would actually *notice* the bugs
//! it exists to catch: it derives defective variants of the real
//! routing mechanisms and the engine's flow control (one semantic
//! fault per mutant, from the [`MutationOp`] catalog), runs every
//! applicable `(mutant × mechanism)` pair through the stack, and emits
//! a kill matrix.
//!
//! A mutant is **killed** when at least one oracle rejects it with a
//! structured witness, and **survives** otherwise. Every operator seeds
//! a break of the paper's safety argument, and
//! [`MutationOp::applies_to`] admits only the mechanisms where it does,
//! so the rule is that every applicable pair dies: a survivor is a hole
//! opened in some oracle, and CI fails on it (DESIGN.md §11).
//!
//! Entry points: [`KillMatrix::run`] for the whole matrix,
//! [`run_mutant`] for one pair and [`MutantPolicy`] to build a single
//! defective policy for ad-hoc experiments. A single defective engine
//! is a network built with the hook pair
//! `(Auditor::with_deep_interval(n), EngineMutation::…)`.

#![warn(missing_docs)]

mod matrix;
mod mutant;
mod operator;
mod oracle;

pub use matrix::{pairs, KillMatrix, OracleKills, MECHANISMS};
pub use mutant::MutantPolicy;
pub use operator::{MutationOp, OpCategory};
pub use oracle::{run_mutant, MutantOutcome};
