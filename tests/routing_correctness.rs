//! Routing correctness across mechanisms: packets reach their exact
//! destinations within the mechanism's hop budget, misroute header flags
//! bound non-minimal hops (§IV-A), and the escape ring is used only by
//! the mechanisms that own one.

use ofar::prelude::*;

/// Run `cycles` of Bernoulli traffic and return the network.
fn run(
    kind: MechanismKind,
    spec: TrafficSpec,
    load: f64,
    cycles: u64,
    seed: u64,
) -> Network<Mechanism> {
    let cfg = kind.adapt_config(SimConfig::paper(2).with_seed(seed));
    let mut net = Network::new(cfg, kind.build(&cfg, seed));
    let topo = Dragonfly::new(cfg.params);
    let mut source = OpenLoop::new(&topo, spec, load, cfg.packet_size, seed);
    for _ in 0..cycles {
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
    }
    net
}

#[test]
fn min_stays_within_three_hops() {
    let net = run(MechanismKind::Min, TrafficSpec::uniform(), 0.3, 3_000, 1);
    let s = net.stats();
    assert!(s.delivered_packets > 1_000);
    // Mean ≤ 3 and zero misroutes ⇒ every path was minimal (the engine's
    // ejection assertion already guarantees the right destination).
    assert!(s.avg_hops() <= 3.0 + 1e-9, "MIN avg hops {}", s.avg_hops());
    assert_eq!(s.local_misroutes + s.global_misroutes, 0);
    assert_eq!(s.ring_entries, 0);
}

#[test]
fn valiant_stays_within_five_hops_and_two_globals() {
    let net = run(
        MechanismKind::Valiant,
        TrafficSpec::adversarial(3),
        0.3,
        3_000,
        2,
    );
    let s = net.stats();
    assert!(s.delivered_packets > 1_000);
    assert!(s.avg_hops() <= 5.0 + 1e-9, "VAL avg hops {}", s.avg_hops());
    // inter-group ADV traffic under VAL averages > 3 hops (it always
    // detours)
    assert!(s.avg_hops() > 3.0, "VAL must detour, got {}", s.avg_hops());
}

#[test]
fn ofar_canonical_hops_bounded_by_eight() {
    // The engine debug-asserts local ≤ 6 and global ≤ 2 per packet at
    // ejection; here we double-check the aggregate under pressure.
    let net = run(
        MechanismKind::Ofar,
        TrafficSpec::adversarial(2),
        0.7,
        4_000,
        3,
    );
    let s = net.stats();
    assert!(s.delivered_packets > 1_000);
    assert!(s.avg_hops() <= 8.0, "OFAR avg hops {}", s.avg_hops());
    assert!(
        s.global_misroutes > 0,
        "OFAR must misroute globally under ADV"
    );
}

#[test]
fn ofar_l_takes_no_local_misroutes_ever() {
    for (spec, seed) in [
        (TrafficSpec::uniform(), 4u64),
        (TrafficSpec::adversarial(2), 5),
        (TrafficSpec::mix2(2), 6),
    ] {
        let net = run(MechanismKind::OfarL, spec, 0.6, 3_000, seed);
        assert_eq!(net.stats().local_misroutes, 0);
    }
}

#[test]
fn vc_ordered_mechanisms_never_touch_the_ring() {
    for kind in [
        MechanismKind::Min,
        MechanismKind::Valiant,
        MechanismKind::Pb,
    ] {
        let net = run(kind, TrafficSpec::adversarial(2), 0.7, 2_000, 7);
        let s = net.stats();
        assert_eq!(s.ring_entries, 0, "{kind} used a ring it does not have");
        assert_eq!(s.ring_advances, 0);
        assert_eq!(s.ring_exits, 0);
    }
}

#[test]
fn intra_group_traffic_never_leaves_the_group() {
    // ADV+0-like pattern: destinations within the source group. No
    // global hops should ever be taken by any mechanism (OFAR's global
    // misroute is barred for internal traffic, §IV-A).
    for kind in MechanismKind::paper_set() {
        let cfg = kind.adapt_config(SimConfig::paper(2).with_seed(8));
        let mut net = Network::new(cfg, kind.build(&cfg, 8));
        let _topo = Dragonfly::new(cfg.params);
        let per_group = cfg.params.a * cfg.params.p;
        for cycle in 0..1_500u64 {
            if cycle % 4 == 0 {
                for n in 0..net.num_nodes() {
                    let group_base = n / per_group * per_group;
                    let dst = group_base + (n - group_base + 7) % per_group;
                    if dst != n {
                        net.generate(NodeId::from(n), NodeId::from(dst));
                    }
                }
            }
            net.step();
        }
        let s = net.stats();
        assert!(s.delivered_packets > 500, "{kind} delivered too little");
        assert_eq!(
            s.global_misroutes, 0,
            "{kind} misrouted intra-group traffic globally"
        );
        // mean hops ≤ 2 (one local hop, or two with a local misroute)
        assert!(s.avg_hops() <= 2.0, "{kind} avg hops {}", s.avg_hops());
    }
}

#[test]
fn per_mechanism_names_survive_the_network() {
    for kind in MechanismKind::paper_set() {
        let cfg = kind.adapt_config(SimConfig::paper(2));
        let net = Network::new(cfg, kind.build(&cfg, 0));
        assert_eq!(net.policy().name(), kind.name());
    }
}
