//! # ofar-verify
//!
//! Static channel-dependency-graph (CDG) deadlock verifier for the OFAR
//! simulator: proves — **before cycle 0** — that a `(mechanism,
//! SimConfig)` pair cannot deadlock, or rejects it with a typed report
//! naming the offending cycle, ring defect or buffer inequality.
//!
//! The proof obligation splits by mechanism family (Dally/Duato theory):
//!
//! * **Ladder mechanisms** (MIN, VAL, PB, PAR) claim deadlock freedom by
//!   VC-order acyclicity. Each mechanism exports its legal (port-class,
//!   VC) transitions ([`ofar_routing::DependencyDecl`]); the verifier
//!   instantiates them as a concrete CDG over the actual palmtree
//!   topology and requires it to be acyclic
//!   ([`VerifyError::DependencyCycle`] otherwise).
//! * **Escape mechanisms** (OFAR, OFAR-L) are deliberately cyclic in the
//!   canonical VCs; safety is delegated to the escape subnetwork
//!   (§IV-C). Three obligations replace acyclicity:
//!   1. every escape ring is a single Hamiltonian cycle over real links
//!      (so ring packets pass every destination and the escape subgraph
//!      has no cycle other than the ring itself) —
//!      [`VerifyError::MalformedRing`];
//!   2. the bubble condition `buf_ring ≥ 2·packet_size` holds, so the
//!      ring can always advance — [`VerifyError::Bubble`];
//!   3. Duato's drain condition: every canonical channel class that
//!      participates in a dependency cycle declares an entry into the
//!      escape layer — [`VerifyError::NoEscapeDrain`].
//!
//! `ofar_core::run` refuses to start a configuration that this crate
//! does not certify; the `verify` bench bin prints the certification
//! table over the shipped configuration space.

#![warn(missing_docs)]

mod cdg;
mod explore;
pub mod oracle;
mod ranking;
mod report;
mod ring_spec;

pub use oracle::{certify_decl, OracleKind, OracleVerdict};
pub use ranking::RankingKind;
pub use report::{
    Certificate, ChannelRef, ConformanceError, ConformanceReport, TransitionWitness, VerifyError,
};
pub use ring_spec::RingSpec;

use cdg::Cdg;
use ofar_engine::config::VCS_RING;
use ofar_engine::{RingMode, SimConfig};
use ofar_routing::{DependencyDecl, EnumerablePolicy, MechanismDeps, MechanismKind};
use ofar_topology::Dragonfly;
use std::sync::Mutex;

/// Certify one `(configuration, mechanism)` pair: [`certify_decl`] over
/// the mechanism's own dependency declaration, discharging the proof
/// obligations described at the crate root.
///
/// Pass the configuration the network will actually run —
/// [`MechanismKind::adapt_config`] is *not* applied here, so callers that
/// adapt must certify the adapted configuration.
pub fn certify(cfg: &SimConfig, kind: MechanismKind) -> Result<Certificate, VerifyError> {
    certify_decl(cfg, &kind.dependency_decl(cfg))
}

/// [`certify`] with a process-wide memo table keyed on the configuration
/// (seed excluded — the proof does not depend on it). Sweeps certify
/// each distinct configuration once instead of once per point.
pub fn certify_cached(cfg: &SimConfig, kind: MechanismKind) -> Result<Certificate, VerifyError> {
    type Key = (MechanismKind, SimConfig);
    static CACHE: Mutex<Vec<(Key, Result<Certificate, VerifyError>)>> = Mutex::new(Vec::new());
    let mut key_cfg = *cfg;
    key_cfg.seed = 0;
    let key = (kind, key_cfg);
    {
        let cache = CACHE.lock().expect("verify cache poisoned");
        if let Some((_, r)) = cache.iter().find(|(k, _)| *k == key) {
            return r.clone();
        }
    }
    let result = certify(cfg, kind);
    let mut cache = CACHE.lock().expect("verify cache poisoned");
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, result.clone()));
    }
    result
}

/// Run the routing-conformance model checker for one `(configuration,
/// mechanism)` pair: first [`certify`] the *declared* dependency graph,
/// then exhaustively drive the mechanism's real `on_inject`/`route` code
/// over the reachable abstract decision space and prove that
///
/// 1. every observed class transition is declared
///    ([`ConformanceError::UndeclaredTransition`] otherwise);
/// 2. every decision strictly decreases the mechanism's well-founded
///    ranking — livelock freedom with a static hop bound
///    ([`ConformanceError::RankingViolation`] otherwise);
/// 3. the observed (tighter) graph re-certifies under the same CDG
///    obligations ([`ConformanceError::ObservedGraphRejected`]).
///
/// The seed is irrelevant: all randomized choices are enumerated through
/// the [`EnumerablePolicy`] probe hooks rather than sampled.
pub fn conformance(
    cfg: &SimConfig,
    kind: MechanismKind,
) -> Result<ConformanceReport, ConformanceError> {
    certify(cfg, kind)?;
    let policy = kind.build(cfg, 0);
    let decl = kind.dependency_decl(cfg);
    explore::conformance_with(cfg, policy, decl, RankingKind::for_mechanism(kind))
}

/// The low-level conformance checker: explore an arbitrary
/// [`EnumerablePolicy`] against an explicit declaration and ranking. This
/// is the entry point for feeding deliberately buggy policies (mutants)
/// that [`conformance`] can never build — the checker must reject them
/// with a named witness.
pub fn conformance_with<P: EnumerablePolicy>(
    cfg: &SimConfig,
    policy: P,
    decl: MechanismDeps,
    rank: RankingKind,
) -> Result<ConformanceReport, ConformanceError> {
    explore::conformance_with(cfg, policy, decl, rank)
}

/// The low-level verifier: discharge the proof obligations for an
/// explicit declaration and explicit ring specs over `topo`. This is the
/// entry point for feeding deliberately broken inputs (reversed ring
/// edges, drain-free declarations) that the safe constructors above can
/// never produce.
pub fn verify_decl(
    topo: &Dragonfly,
    cfg: &SimConfig,
    decl: &MechanismDeps,
    rings: &[RingSpec],
) -> Result<Certificate, VerifyError> {
    // Escape layer: each ring is a spanning cycle over real links…
    for ring in rings {
        ring.check(topo)?;
    }
    // …advancing under a bubble deep enough for two packets (§IV-C).
    if !rings.is_empty() && cfg.buf_ring < 2 * cfg.packet_size {
        return Err(VerifyError::Bubble {
            cap: cfg.buf_ring,
            required: 2 * cfg.packet_size,
        });
    }
    if decl.uses_escape && rings.is_empty() {
        return Err(VerifyError::MissingEscape {
            mechanism: decl.mechanism,
        });
    }

    // Canonical subgraph: find every cyclic SCC.
    let (vl, vg) = (cfg.vcs_local, cfg.vcs_global);
    let graph = Cdg::build(topo, vl, vg, decl);
    let sccs = graph.cyclic_sccs();
    if !decl.uses_escape {
        if let Some(scc) = sccs.first() {
            return Err(VerifyError::DependencyCycle {
                mechanism: decl.mechanism,
                cycle: scc.cycle.clone(),
            });
        }
    } else {
        // Duato drain: every class inside a cycle must be able to leave
        // the cyclic dependency in one transition into the (acyclic +
        // bubble-protected) escape layer.
        for scc in &sccs {
            for &class in &scc.classes {
                if !decl.drains_to_escape(class) {
                    return Err(VerifyError::NoEscapeDrain {
                        mechanism: decl.mechanism,
                        class,
                        cycle: graph.cycle_through(scc, class),
                    });
                }
            }
        }
    }

    let nr = topo.num_routers();
    let (a, h) = (topo.params().a, topo.params().h);
    let lanes = match cfg.ring {
        RingMode::Physical => VCS_RING,
        RingMode::Embedded => 1,
        RingMode::None => 0,
    };
    Ok(Certificate {
        mechanism: decl.mechanism,
        routers: nr,
        channels: nr * (a - 1) * vl + nr * h * vg,
        dependencies: graph.concrete_dependencies(topo),
        escape_channels: rings.len() * nr * lanes.max(usize::from(!rings.is_empty())),
        rings: rings.len(),
        cycles_drained: sccs.len(),
        bubble_slack: (!rings.is_empty()).then(|| cfg.buf_ring - 2 * cfg.packet_size),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofar_routing::{ClassEdge, ClassId, EdgeWhy};
    use ofar_topology::{HamiltonianRing, RouterId};

    #[test]
    fn paper_set_certifies_at_paper_scale() {
        let base = SimConfig::paper(2);
        for kind in MechanismKind::paper_set() {
            let cfg = kind.adapt_config(base);
            let cert = certify(&cfg, kind).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(cert.routers, 36);
            if kind.needs_ring() {
                assert!(cert.rings >= 1);
                assert!(cert.cycles_drained >= 1, "OFAR canonical graph is cyclic");
            } else {
                assert_eq!(cert.cycles_drained, 0, "{} must be acyclic", kind.name());
            }
        }
    }

    #[test]
    fn par_certifies_with_its_fourth_vc() {
        let cfg = MechanismKind::Par.adapt_config(SimConfig::paper(2));
        let cert = certify(&cfg, MechanismKind::Par).expect("PAR certifies");
        assert_eq!(cert.cycles_drained, 0);
    }

    #[test]
    fn reduced_vcs_certifies_ofar_but_rejects_valiant() {
        // Fig. 9's 2-local/1-global configuration folds the ladder into a
        // cycle: only the escape-ring mechanisms survive it.
        let cfg = SimConfig::reduced_vcs(2);
        certify(&cfg, MechanismKind::Ofar).expect("OFAR certifies under reduced VCs");
        let mut no_ring = cfg;
        no_ring.ring = RingMode::None;
        let err = certify(&no_ring, MechanismKind::Valiant).unwrap_err();
        match err {
            VerifyError::DependencyCycle { mechanism, cycle } => {
                assert_eq!(mechanism, "VAL");
                assert!(cycle.len() >= 2);
                // the report names concrete routers and VCs
                let text = format!("{}", certify(&no_ring, MechanismKind::Valiant).unwrap_err());
                assert!(text.contains("cycle"), "{text}");
            }
            other => panic!("expected DependencyCycle, got {other:?}"),
        }
    }

    #[test]
    fn reversed_ring_edge_is_rejected_with_named_routers() {
        let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
        let topo = Dragonfly::new(cfg.params);
        let ring = HamiltonianRing::embedded(&topo, 0);
        let mut spec = RingSpec::from_ring(&topo, &ring);
        let (from, to) = spec.edges[3];
        spec.edges[3] = (to, from);
        let decl = MechanismKind::Ofar.dependency_decl(&cfg);
        let err = verify_decl(&topo, &cfg, &decl, &[spec]).unwrap_err();
        match err {
            VerifyError::MalformedRing {
                ring: 0,
                ref witness,
                ..
            } => {
                assert!(!witness.is_empty(), "witness routers named");
            }
            ref other => panic!("expected MalformedRing, got {other:?}"),
        }
    }

    #[test]
    fn zero_bubble_buffers_are_rejected() {
        let mut cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
        cfg.buf_ring = cfg.packet_size; // one packet: no bubble
        let err = certify(&cfg, MechanismKind::Ofar).unwrap_err();
        assert_eq!(
            err,
            VerifyError::Bubble {
                cap: cfg.packet_size,
                required: 2 * cfg.packet_size
            }
        );
    }

    #[test]
    fn drain_free_adaptive_declaration_is_rejected() {
        // A hand-built "OFAR without ring entry on global VC 0": the
        // global channels stay cyclic with no declared escape entry.
        let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
        let topo = Dragonfly::new(cfg.params);
        let ring = HamiltonianRing::embedded(&topo, 0);
        let spec = RingSpec::from_ring(&topo, &ring);
        let mut decl = MechanismKind::Ofar.dependency_decl(&cfg);
        decl.edges.retain(|e: &ClassEdge| {
            !(e.to == ClassId::Escape && e.from == ClassId::Global { vc: 0 })
        });
        let err = verify_decl(&topo, &cfg, &decl, &[spec]).unwrap_err();
        match err {
            VerifyError::NoEscapeDrain {
                class, ref cycle, ..
            } => {
                assert_eq!(class, ClassId::Global { vc: 0 });
                assert!(cycle.iter().any(|c| c.class() == class));
            }
            ref other => panic!("expected NoEscapeDrain, got {other:?}"),
        }
    }

    #[test]
    fn short_circuited_ring_is_rejected() {
        // Splice the ring so it closes early: take a valid ring and remap
        // one edge to jump back to the start of the walk.
        let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
        let topo = Dragonfly::new(cfg.params);
        let ring = HamiltonianRing::embedded(&topo, 0);
        let order = ring.order().to_vec();
        let mut spec = RingSpec::from_ring(&topo, &ring);
        // order[1] is a local neighbor of order[0] only if they share a
        // group; find some i ≥ 2 whose router links directly back to
        // order[0] and splice there.
        let back = (2..order.len())
            .find(|&i| topo.link_between(order[i], order[0]).is_some())
            .expect("a clique group always offers a back edge");
        let from = order[back];
        for e in &mut spec.edges {
            if e.0 == from {
                *e = (from, order[0]);
            }
        }
        let err = verify_decl(
            &topo,
            &cfg,
            &MechanismKind::Ofar.dependency_decl(&cfg),
            &[spec],
        )
        .unwrap_err();
        match err {
            VerifyError::MalformedRing { detail, .. } => {
                assert!(
                    detail.contains("predecessors") || detail.contains("spanning"),
                    "{detail}"
                );
            }
            other => panic!("expected MalformedRing, got {other:?}"),
        }
    }

    #[test]
    fn certificates_are_cached() {
        let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
        let a = certify_cached(&cfg, MechanismKind::Ofar).expect("certifies");
        let mut reseeded = cfg;
        reseeded.seed = 999;
        let b = certify_cached(&reseeded, MechanismKind::Ofar).expect("cached");
        assert_eq!(a.dependencies, b.dependencies);
    }

    #[test]
    fn unknown_router_in_ring_spec_is_rejected() {
        let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
        let topo = Dragonfly::new(cfg.params);
        let ring = HamiltonianRing::embedded(&topo, 0);
        let mut spec = RingSpec::from_ring(&topo, &ring);
        spec.edges[0].1 = RouterId::from(topo.num_routers() + 5);
        let decl = MechanismKind::Ofar.dependency_decl(&cfg);
        assert!(matches!(
            verify_decl(&topo, &cfg, &decl, &[spec]),
            Err(VerifyError::MalformedRing { .. })
        ));
    }

    #[test]
    fn multi_ring_configurations_certify() {
        let mut cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
        for k in 1..=2 {
            cfg.escape_rings = k;
            let cert = certify(&cfg, MechanismKind::Ofar).expect("k rings certify");
            assert_eq!(cert.rings, k);
        }
    }

    #[test]
    fn min_without_ring_certifies_and_reports_no_escape() {
        let cfg = MechanismKind::Min.adapt_config(SimConfig::paper(2));
        let cert = certify(&cfg, MechanismKind::Min).expect("MIN certifies");
        assert_eq!(cert.rings, 0);
        assert_eq!(cert.escape_channels, 0);
        assert!(cert.bubble_slack.is_none());
        let _ = EdgeWhy::Minimal; // silence unused-import lint in cfg(test)
    }
}
