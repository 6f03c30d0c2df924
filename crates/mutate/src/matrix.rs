//! The kill matrix: every applicable `(operator × mechanism)` mutant
//! against the oracle stack.
//!
//! The rule is one line: every applicable pair dies with a witness.
//! [`MutationOp::applies_to`] admits only pairs that seed a real defect,
//! so a survivor is always a hole in some oracle, and CI fails on it.

use crate::operator::MutationOp;
use crate::oracle::{run_mutant, MutantOutcome};
use ofar_engine::{crc32, SimConfig};
use ofar_routing::MechanismKind;
use ofar_verify::OracleKind;
use rayon::prelude::*;
use std::fmt::Write as _;

/// The mechanism axis of the matrix: the paper's four canonical-network
/// mechanisms plus the PAR extension, with OFAR standing in for OFAR-L
/// (the dissection model shares every seam the operators target).
pub const MECHANISMS: [MechanismKind; 5] = [
    MechanismKind::Min,
    MechanismKind::Valiant,
    MechanismKind::Pb,
    MechanismKind::Par,
    MechanismKind::Ofar,
];

/// The full matrix result.
#[derive(Clone, Debug)]
pub struct KillMatrix {
    /// One outcome per applicable `(operator × mechanism)` pair.
    pub outcomes: Vec<MutantOutcome>,
}

/// Every applicable `(operator × mechanism)` pair over the default
/// mechanism axis, in report order.
pub fn pairs() -> Vec<(MutationOp, MechanismKind)> {
    MutationOp::ALL
        .iter()
        .flat_map(|&op| {
            MECHANISMS
                .iter()
                .filter(move |&&m| op.applies_to(m))
                .map(move |&m| (op, m))
        })
        .collect()
}

impl KillMatrix {
    /// Run the whole matrix against `cfg` (pairs in parallel). Each
    /// pair's seed is `seed` with the CRC-32 of `"<op> x <mech>"` folded
    /// into its high word: it depends on the pair's names, not its row,
    /// so a catalog edit leaves every other row unchanged.
    pub fn run(cfg: &SimConfig, seed: u64) -> KillMatrix {
        let outcomes = pairs()
            .par_iter()
            .map(|&(op, mech)| {
                let key = format!("{} x {}", op.name(), mech.name());
                let pair_seed = seed ^ (u64::from(crc32(key.as_bytes())) << 32);
                run_mutant(op, mech, cfg, pair_seed)
            })
            .collect();
        KillMatrix { outcomes }
    }

    /// Mutants the whole stack missed.
    pub fn survivors(&self) -> Vec<&MutantOutcome> {
        self.outcomes.iter().filter(|o| o.survived()).collect()
    }

    /// Render the matrix as a fixed-width table: one row per operator,
    /// one column per mechanism, each cell naming the first killing
    /// oracle (`SURVIVED` for a survivor, `-` for an inapplicable pair).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<26}", "operator");
        for m in MECHANISMS {
            let _ = write!(out, "{:>14}", m.name());
        }
        out.push('\n');
        for &op in MutationOp::ALL {
            let _ = write!(out, "{:<26}", op.name());
            for m in MECHANISMS {
                let cell = if op.applies_to(m) {
                    self.outcomes
                        .iter()
                        .find(|o| o.op == op && o.mech == m)
                        .map_or("?", |o| {
                            o.killed_by()
                                .map_or("SURVIVED", |(oracle, _)| oracle.name())
                        })
                } else {
                    "-"
                };
                let _ = write!(out, "{cell:>14}");
            }
            out.push('\n');
        }
        out
    }

    /// Render the per-kill witness list (operator, mechanism, oracle,
    /// witness) for killed mutants.
    pub fn render_witnesses(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            if let Some((oracle, witness)) = o.killed_by() {
                let _ = writeln!(
                    out,
                    "{} x {}: killed by {} — {}",
                    o.op.name(),
                    o.mech.name(),
                    oracle.name(),
                    witness
                );
            }
        }
        out
    }

    /// Per-oracle kill counts, in stack order.
    pub fn kills_per_oracle(&self) -> Vec<OracleKills> {
        [
            OracleKind::Cdg,
            OracleKind::Conformance,
            OracleKind::Audit,
            OracleKind::Watchdog,
        ]
        .into_iter()
        .map(|oracle| {
            let mut tally = OracleKills {
                oracle,
                first: 0,
                kills: 0,
                alone: 0,
            };
            for o in &self.outcomes {
                let killers: Vec<OracleKind> = o.killers().collect();
                if killers.contains(&oracle) {
                    tally.kills += 1;
                    tally.first += usize::from(killers[0] == oracle);
                    tally.alone += usize::from(killers.len() == 1);
                }
            }
            tally
        })
        .collect()
    }
}

/// One oracle's kills over the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleKills {
    /// The oracle.
    pub oracle: OracleKind,
    /// Pairs it killed before any later oracle in the stack did.
    pub first: usize,
    /// Pairs it killed.
    pub kills: usize,
    /// Pairs it killed and no other oracle did: what the stack would
    /// lose without it.
    pub alone: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_list_is_substantial_and_deduplicated() {
        let ps = pairs();
        assert!(ps.len() >= 50, "only {} pairs", ps.len());
        let mut keys: Vec<_> = ps.iter().map(|(o, m)| (o.name(), m.name())).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ps.len());
    }

    #[test]
    fn kills_per_oracle_counts_first_all_and_alone() {
        use ofar_verify::OracleVerdict;
        let fail = || OracleVerdict::Fail {
            witness: "w".into(),
        };
        let outcome = |verdicts| MutantOutcome {
            op: MutationOp::EjectNever,
            mech: MechanismKind::Min,
            verdicts,
        };
        let matrix = KillMatrix {
            outcomes: vec![
                outcome(vec![
                    (OracleKind::Cdg, fail()),
                    (OracleKind::Conformance, fail()),
                ]),
                outcome(vec![
                    (OracleKind::Cdg, OracleVerdict::Pass),
                    (OracleKind::Conformance, fail()),
                ]),
                outcome(vec![
                    (OracleKind::Audit, fail()),
                    (OracleKind::Watchdog, fail()),
                ]),
                outcome(vec![
                    (OracleKind::Audit, OracleVerdict::Pass),
                    (OracleKind::Watchdog, fail()),
                ]),
                outcome(vec![
                    (OracleKind::Audit, OracleVerdict::Pass),
                    (OracleKind::Watchdog, OracleVerdict::Pass),
                ]),
            ],
        };
        let tally: Vec<_> = matrix
            .kills_per_oracle()
            .iter()
            .map(|k| (k.oracle, k.first, k.kills, k.alone))
            .collect();
        assert_eq!(
            tally,
            [
                (OracleKind::Cdg, 1, 1, 0),
                (OracleKind::Conformance, 1, 2, 1),
                (OracleKind::Audit, 1, 1, 0),
                (OracleKind::Watchdog, 1, 2, 1),
            ]
        );
    }
}
