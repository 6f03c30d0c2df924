//! Liveness: no mechanism may wedge the network. VC-ordered mechanisms
//! (MIN, VAL, PB, PAR) are deadlock-free by the ascending ladder; the
//! OFAR models rely on the escape subnetwork (§IV-C). We drive each one
//! well past saturation and assert sustained global progress.

use ofar::prelude::*;

/// Drive `kind` at an overload and assert the network keeps delivering
/// through the whole run (progress watchdog windows of `window` cycles).
fn assert_liveness(cfg: SimConfig, kind: MechanismKind, spec: TrafficSpec, seed: u64) {
    let cfg = kind.adapt_config(cfg);
    let mut net = Network::new(cfg, kind.build(&cfg, seed));
    let topo = Dragonfly::new(cfg.params);
    let mut source = OpenLoop::new(&topo, spec.clone(), 0.9, cfg.packet_size, seed);
    let window = 2_000u64;
    let mut last_delivered = 0u64;
    for epoch in 0..4 {
        for _ in 0..window {
            source.cycle(|src, dst| net.generate(src, dst));
            net.step();
        }
        let delivered = net.stats().delivered_packets;
        assert!(
            delivered > last_delivered,
            "{} stopped delivering in epoch {epoch} under {} (total {delivered})",
            kind.name(),
            spec.label(),
        );
        last_delivered = delivered;
    }
}

#[test]
fn overload_liveness_uniform() {
    for kind in MechanismKind::paper_set() {
        assert_liveness(SimConfig::paper(2), kind, TrafficSpec::uniform(), 21);
    }
}

#[test]
fn overload_liveness_adversarial() {
    for kind in MechanismKind::paper_set() {
        assert_liveness(SimConfig::paper(2), kind, TrafficSpec::adversarial(2), 22);
    }
}

#[test]
fn overload_liveness_worst_case_advh() {
    for kind in [
        MechanismKind::Ofar,
        MechanismKind::OfarL,
        MechanismKind::Valiant,
    ] {
        assert_liveness(SimConfig::paper(2), kind, TrafficSpec::adversarial(2), 23);
    }
}

#[test]
fn overload_liveness_with_physical_ring() {
    for kind in [MechanismKind::Ofar, MechanismKind::OfarL] {
        assert_liveness(
            SimConfig::paper(2).with_ring(RingMode::Physical),
            kind,
            TrafficSpec::adversarial(2),
            24,
        );
    }
}

#[test]
fn overload_liveness_with_reduced_vcs() {
    // The Fig. 9 configuration: 2 local / 1 global VCs. Throughput may
    // collapse (that is the figure's point) but packets must keep
    // moving — the escape ring guarantees forward progress.
    assert_liveness(
        SimConfig::reduced_vcs(2),
        MechanismKind::Ofar,
        TrafficSpec::adversarial(2),
        25,
    );
}

#[test]
fn burst_drains_for_every_mechanism() {
    for kind in MechanismKind::paper_set() {
        let cfg = kind.adapt_config(SimConfig::paper(2));
        let point = Point::new(cfg, kind, &TrafficSpec::mix2(2), 26, Shape::burst(10));
        let (r, NoHooks) = burst(&point, NoHooks);
        assert!(
            r.cycles.is_some(),
            "{} stalled during burst consumption",
            kind.name()
        );
        assert_eq!(r.delivered, 10 * cfg.params.nodes() as u64);
    }
}
