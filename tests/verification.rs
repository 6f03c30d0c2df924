//! The verification stack end to end: the static CDG verifier certifies
//! everything the experiments ship, the `core::run` gate refuses what it
//! rejects, the routing-conformance model checker proves the real
//! routing code stays inside its declaration with the paper's hop
//! bounds — and rejects seeded mutant policies with named witnesses —
//! and a full burst on a network built with the `Auditor` runs clean.

use ofar::engine::{Auditor, Fabric};
use ofar::prelude::*;

/// Every shipped (mechanism × ring mode × ring count) combination at
/// paper VCs certifies — the verify bin's table, as a regression test.
#[test]
fn shipped_configuration_space_certifies() {
    for h in [2, 3] {
        for kind in MechanismKind::paper_set() {
            let base = kind.adapt_config(SimConfig::paper(h));
            let mut variants = vec![base];
            if kind.needs_ring() {
                let mut phys = base;
                phys.ring = RingMode::Physical;
                variants.push(phys);
                for k in 2..=h {
                    let mut multi = base;
                    multi.escape_rings = k;
                    variants.push(multi);
                }
            }
            for cfg in variants {
                certify(&cfg, kind).unwrap_or_else(|e| panic!("{} at h={h}: {e}", kind.name()));
            }
        }
    }
}

/// Fig. 9's reduced-VC configuration folds the ladder into a cycle:
/// OFAR still certifies (the ring drains it), the pure ladder does not.
#[test]
fn reduced_vcs_split_the_mechanism_set() {
    let cfg = SimConfig::reduced_vcs(2);
    certify(&cfg, MechanismKind::Ofar).expect("OFAR survives reduced VCs");
    certify(&cfg, MechanismKind::OfarL).expect("OFAR-L survives reduced VCs");
    let mut no_ring = cfg;
    no_ring.ring = RingMode::None;
    let err = certify(&no_ring, MechanismKind::Valiant).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::DependencyCycle {
                mechanism: "VAL",
                ..
            }
        ),
        "expected a named VAL cycle, got {err}"
    );
}

/// The runner gate: `core::run` refuses to start a configuration the
/// verifier rejects, before any cycle is simulated.
#[test]
#[should_panic(expected = "refusing to start unverified configuration")]
fn runners_refuse_unverified_configurations() {
    let mut cfg = SimConfig::reduced_vcs(2);
    cfg.ring = RingMode::None; // VAL on a folded ladder with no escape
    let _ = burst(cfg, MechanismKind::Valiant, &TrafficSpec::uniform(), 1, 7);
}

/// The certificate's numbers are internally consistent with the
/// topology they describe.
#[test]
fn certificate_counts_match_topology() {
    let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
    let cert = certify(&cfg, MechanismKind::Ofar).expect("certifies");
    let topo = Dragonfly::new(cfg.params);
    let nr = topo.num_routers();
    let (a, h) = (cfg.params.a, cfg.params.h);
    assert_eq!(cert.routers, nr);
    assert_eq!(
        cert.channels,
        nr * (a - 1) * cfg.vcs_local + nr * h * cfg.vcs_global
    );
    assert!(
        cert.dependencies > cert.channels,
        "OFAR is densely adaptive"
    );
    assert_eq!(cert.rings, 1);
    assert_eq!(cert.bubble_slack, Some(cfg.buf_ring - 2 * cfg.packet_size));
}

/// A full burst on every mechanism, its network built with the
/// `Auditor`, completes with zero invariant violations — the runtime
/// auditor agrees with the static proof.
#[test]
fn audited_bursts_are_clean_for_every_mechanism() {
    for kind in MechanismKind::paper_set() {
        let cfg = kind.adapt_config(SimConfig::paper(2));
        let mut net = Network::with_hooks(Fabric::new(cfg), kind.build(&cfg, 11), Auditor::new());
        let spec = TrafficSpec::adversarial(2);
        let r = burst_net(&mut net, &spec, 3, 11, RunConfig::default());
        assert!(r.cycles.is_some(), "{} burst must drain", kind.name());
        let audit = r
            .audit
            .unwrap_or_else(|| panic!("{}: audit missing", kind.name()));
        assert!(audit.is_clean(), "{}: {audit}", kind.name());
        assert!(audit.checks > 0);
    }
}

/// `burst` builds its network with `NoHooks`: the audit slot is there
/// but empty.
#[test]
fn unaudited_bursts_report_no_audit() {
    let r = burst(
        SimConfig::paper(2),
        MechanismKind::Min,
        &TrafficSpec::uniform(),
        1,
        3,
    );
    assert!(r.cycles.is_some());
    assert!(r.audit.is_none());
}

// ---------------------------------------------------------------------
// Routing conformance: the model checker against the real mechanisms
// ---------------------------------------------------------------------

/// Paper path-length table (§III/§IV): the conformance checker must
/// *compute* these bounds from the exploration, not assume them.
const PAPER_BOUNDS: [(MechanismKind, u64); 6] = [
    (MechanismKind::Min, 3),
    (MechanismKind::Valiant, 5),
    (MechanismKind::Pb, 5),
    (MechanismKind::Par, 6),
    (MechanismKind::Ofar, 8),
    (MechanismKind::OfarL, 5),
];

/// Every mechanism (paper set plus the PAR extension, whose divert paths
/// exercise the AUX-flag ranking) conforms at h = 2 with exactly the
/// paper's hop bound, and its observed dependency graph re-certifies.
#[test]
fn mechanisms_conform_with_paper_hop_bounds_at_h2() {
    for (kind, bound) in PAPER_BOUNDS {
        let cfg = kind.adapt_config(SimConfig::paper(2));
        let rep =
            conformance(&cfg, kind).unwrap_or_else(|e| panic!("{} must conform: {e}", kind.name()));
        assert_eq!(
            rep.hop_bound,
            bound,
            "{}: computed hop bound {} ≠ paper {bound}",
            kind.name(),
            rep.hop_bound
        );
        assert_eq!(rep.paper_bound, bound, "{}", kind.name());
        assert!(
            rep.states > 0 && rep.decisions > rep.states,
            "{}",
            kind.name()
        );
        assert!(
            !rep.observed.is_empty() && rep.observed.len() <= rep.observed.len() + rep.dead.len(),
            "{}",
            kind.name()
        );
        if kind.needs_ring() {
            let rb = rep
                .ring_bound
                .expect("escape mechanisms get a ring-inclusive bound");
            assert!(rb > rep.hop_bound);
        } else {
            assert!(rep.ring_bound.is_none());
            assert!(
                rep.dead.is_empty(),
                "{}: ladder declarations are exact",
                kind.name()
            );
        }
    }
}

/// Same at h = 4 (the paper's 16k-node scale). Slower, so release CI
/// exercises it through the `verify` bench bin as well.
#[test]
fn mechanisms_conform_with_paper_hop_bounds_at_h4() {
    for (kind, bound) in PAPER_BOUNDS {
        let cfg = kind.adapt_config(SimConfig::paper(4));
        let rep = conformance(&cfg, kind)
            .unwrap_or_else(|e| panic!("{} must conform at h=4: {e}", kind.name()));
        assert_eq!(rep.hop_bound, bound, "{} at h=4", kind.name());
    }
}

// ---------------------------------------------------------------------
// Mutant mechanisms: the checker must reject each with a named witness
// ---------------------------------------------------------------------

mod mutants {
    use super::*;
    use ofar::routing::ClassId;
    use ofar::verify::{conformance_with, ConformanceError, RankingKind};
    use ofar_mutate::{MutantPolicy, MutationOp};

    /// These three started life as hand-rolled wrapper policies in this
    /// file; they are now drawn from the operator catalog in
    /// `crates/mutate` (which also runs them, and 70+ siblings, through
    /// the full kill matrix — see the `mutants` bench bin). The original
    /// witness assertions are preserved verbatim: each pins not just
    /// *that* the checker rejects the mutant but *where* it localizes
    /// the defect.
    fn mutant(op: MutationOp, kind: MechanismKind) -> Result<(), ConformanceError> {
        let cfg = kind.adapt_config(SimConfig::paper(2));
        conformance_with(
            &cfg,
            MutantPolicy::new(op, kind, &cfg, 0),
            kind.dependency_decl(&cfg),
            RankingKind::for_mechanism(kind),
        )
        .map(|_| ())
    }

    /// `ring-rider` — a livelock: OFAR that never leaves its escape
    /// ring. Ring exits (and ring ejections) become ring advances, so an
    /// on-ring packet rides past its destination forever. The ranking
    /// (ring distance to destination) must catch the wrap-around.
    #[test]
    fn ring_riding_ofar_is_rejected_by_the_ranking() {
        let err = mutant(MutationOp::RingRider, MechanismKind::Ofar)
            .expect_err("a packet that rides past its destination must be rejected");
        match err {
            ConformanceError::RankingViolation {
                witness,
                before,
                after,
                ..
            } => {
                assert_eq!(witness.from, ClassId::Escape, "violation is on the ring");
                assert_eq!(witness.to, ClassId::Escape);
                assert!(after >= before, "{before} -> {after}");
            }
            other => panic!("expected RankingViolation, got {other}"),
        }
    }

    /// `local-vc-flatten` on Valiant — a deadlock seed: every local
    /// request reuses VC 0 instead of climbing the ladder. The first
    /// post-global local hop lands outside the declared ladder.
    #[test]
    fn flat_ladder_valiant_is_rejected_as_undeclared() {
        let err = mutant(MutationOp::LocalVcFlatten, MechanismKind::Valiant)
            .expect_err("reusing local VC 0 after a global hop must be rejected");
        match err {
            ConformanceError::UndeclaredTransition { witness, .. } => {
                assert_eq!(witness.to, ClassId::Local { vc: 0 });
                assert!(
                    matches!(witness.from, ClassId::Global { .. } | ClassId::Local { .. }),
                    "flat ladder shows up on a post-source hop, got {}",
                    witness.from
                );
            }
            other => panic!("expected UndeclaredTransition, got {other}"),
        }
    }

    /// `local-vc-flatten` on MIN — destination-group traffic lands in
    /// local VC 0 instead of the top ladder VC: the declared
    /// `global → local(top)` dependency is replaced by an undeclared
    /// `global → local:v0` edge (a cycle seed under contention).
    #[test]
    fn flat_vc_minimal_is_rejected_as_undeclared() {
        let err = mutant(MutationOp::LocalVcFlatten, MechanismKind::Min)
            .expect_err("a flat-VC minimal router must be rejected");
        match err {
            ConformanceError::UndeclaredTransition { witness, .. } => {
                assert_eq!(witness.to, ClassId::Local { vc: 0 });
                assert!(matches!(witness.from, ClassId::Global { .. }));
            }
            other => panic!("expected UndeclaredTransition, got {other}"),
        }
    }
}
