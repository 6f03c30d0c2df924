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
//! structured witness, and **survives** otherwise. Survivors are not
//! failures of this harness — they are *measured gaps* in the proof
//! stack, named and analyzed in DESIGN.md §11. The measured kills are
//! baked into [`matrix::covered`]; CI re-runs the matrix and fails if
//! a previously-killed pair starts surviving.
//!
//! Entry points: [`KillMatrix::run`] for the whole matrix,
//! [`run_mutant`] for one pair, [`MutantPolicy`] to build a single
//! defective policy and [`Mutated`] a single defective engine for
//! ad-hoc experiments.

#![warn(missing_docs)]

mod hook;
mod matrix;
mod mutant;
mod operator;
mod oracle;

pub use hook::Mutated;
pub use matrix::{covered, pairs, KillMatrix, OracleKills, MECHANISMS};
pub use mutant::MutantPolicy;
pub use operator::{MutationOp, OpCategory};
pub use oracle::{run_mutant, MutantOutcome};
