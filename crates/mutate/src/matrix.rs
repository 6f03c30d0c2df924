//! The kill matrix: every applicable `(operator × mechanism)` mutant
//! against the oracle stack, with a baked-in *covered set* for
//! regression enforcement.
//!
//! The covered set is the measured adequacy floor: pairs the stack
//! demonstrably kills today. CI re-runs the matrix and fails when a
//! covered pair *survives* — a silent hole opened in a verifier. Pairs
//! outside the covered set are the known gaps; they are listed by name
//! in DESIGN.md §11 and a new kill there is an improvement, never a
//! failure.

use crate::operator::MutationOp;
use crate::oracle::{run_mutant, MutantOutcome};
use ofar_engine::SimConfig;
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

/// Measured adequacy floor: `(operator × mechanism)` pairs the oracle
/// stack kills at h=2 with the matrix's deterministic seeds. Checked in
/// by hand from a full matrix run (`cargo run -p ofar-bench --
/// mutants`); CI fails when any pair listed here survives.
///
/// A pair absent from this list is a *known gap* — see DESIGN.md §11
/// for the per-survivor analysis.
pub fn covered(op: MutationOp, mech: MechanismKind) -> bool {
    use MechanismKind as K;
    use MutationOp::*;
    match op {
        // Ladder-discipline breaks: undeclared transitions for the
        // VC-ordered mechanisms. OFAR's VC-agnostic local declaration is
        // the named gap for the local variants.
        LocalVcFlatten | LocalVcSwap | LocalVcInvert => {
            matches!(mech, K::Min | K::Valiant | K::Pb | K::Par)
        }
        GlobalVcFlatten => matches!(mech, K::Valiant | K::Pb | K::Par),
        GlobalVcSwap => true,
        // Protocol breaks with static witnesses.
        RingRider | ExitBudgetIgnored | RingNever | LocalFlagStuck => mech == K::Ofar,
        AuxFlagStuck => mech == K::Par,
        IntermediateOffByOne => matches!(mech, K::Valiant | K::Pb),
        // PB's declaration is a superset of MIN's, so never picking an
        // intermediate still conforms there — only Valiant's mandatory
        // phase-1 detour makes the defect observable (see DESIGN.md §11
        // for PB as a named gap).
        IntermediateNever => mech == K::Valiant,
        // Delivery suppression is invisible statically; the watchdog
        // carries it.
        EjectNever => true,
        // Declaration and configuration mutants die in the certifiers.
        DeclDropEscapeDrain | DeclFlattenLadder | DeclBackEdge | DeclDropInject => true,
        CfgShallowRingBuffer | CfgNoRing | CfgFoldedLadder => true,
        // Credit-accounting seams die in the runtime auditor.
        EngineCreditLeak | EngineCreditDouble | EngineEscapeVcSkew => true,
        EngineRingBubbleSkip => mech == K::Ofar,
        // Congestion-management seams: the bypassed token bucket dies in
        // the auditor's throttle-token law on every mechanism (the
        // sustained-overload stage keeps the buckets short for the whole
        // run); the disabled admission guard dies in the synchronized-
        // wave admission watchdog.
        EngineThrottleBypass => true,
        RingAdmitAlways => mech == K::Ofar,
        // Known survivors: performance-policy skews that keep every
        // safety invariant, and the flag OFAR's per-transition ranking
        // cannot distinguish because the engine re-derives it at every
        // grant (see DESIGN.md §11).
        RingEager | ThresholdAdmitAll | ThresholdAdmitNone | PbStaleBroadcast | GlobalFlagStuck => {
            false
        }
    }
}

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
    /// Run the whole matrix against `cfg` (pairs in parallel, each with
    /// a seed derived deterministically from `seed` and its index).
    pub fn run(cfg: &SimConfig, seed: u64) -> KillMatrix {
        let pairs = pairs();
        let outcomes = pairs
            .par_iter()
            .enumerate()
            .map(|(i, &(op, mech))| run_mutant(op, mech, cfg, seed ^ (0xC0FFEE + 7919 * i as u64)))
            .collect();
        KillMatrix { outcomes }
    }

    /// Mutants the whole stack missed.
    pub fn survivors(&self) -> Vec<&MutantOutcome> {
        self.outcomes.iter().filter(|o| o.survived()).collect()
    }

    /// Covered pairs that survived this run — each one is a regression
    /// in some oracle.
    pub fn regressions(&self) -> Vec<&MutantOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.survived() && covered(o.op, o.mech))
            .collect()
    }

    /// Distinct operators killed by at least one oracle on at least one
    /// mechanism.
    pub fn distinct_killed_ops(&self) -> usize {
        let mut ops: Vec<&str> = self
            .outcomes
            .iter()
            .filter(|o| !o.survived())
            .map(|o| o.op.name())
            .collect();
        ops.sort_unstable();
        ops.dedup();
        ops.len()
    }

    /// Kill rate over the covered set (1.0 when no covered pair
    /// survived).
    pub fn covered_kill_rate(&self) -> f64 {
        let covered_pairs: Vec<_> = self
            .outcomes
            .iter()
            .filter(|o| covered(o.op, o.mech))
            .collect();
        if covered_pairs.is_empty() {
            return 1.0;
        }
        let killed = covered_pairs.iter().filter(|o| !o.survived()).count();
        killed as f64 / covered_pairs.len() as f64
    }

    /// Render the matrix as a fixed-width table: one row per operator,
    /// one column per mechanism, each cell naming the killing oracle
    /// (or `SURVIVED` / `-` for inapplicable).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<26}", "operator");
        for m in MECHANISMS {
            let _ = write!(out, "{:>14}", m.name());
        }
        out.push('\n');
        for &op in MutationOp::ALL {
            if !MECHANISMS.iter().any(|&m| op.applies_to(m)) {
                continue;
            }
            let _ = write!(out, "{:<26}", op.name());
            for m in MECHANISMS {
                let cell = if !op.applies_to(m) {
                    "-".to_string()
                } else {
                    match self.outcomes.iter().find(|o| o.op == op && o.mech == m) {
                        Some(o) => match o.killed_by() {
                            Some((oracle, _)) => oracle.name().to_string(),
                            None => {
                                if covered(op, m) {
                                    "SURVIVED!".to_string()
                                } else {
                                    "survived".to_string()
                                }
                            }
                        },
                        None => "?".to_string(),
                    }
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
