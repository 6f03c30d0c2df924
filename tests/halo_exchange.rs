//! End-to-end halo-exchange workload (the paper's §I motivation): every
//! mechanism must drain stencil rounds, and the adaptive network must
//! neutralize the sequential mapping's hot-spots.

use ofar::prelude::*;
use ofar_core::traffic::{StencilTraffic, TaskMapping};

fn drain(kind: MechanismKind, mapping: TaskMapping, rounds: usize) -> u64 {
    let cfg = kind.adapt_config(SimConfig::paper(2));
    let mut net = Network::new(cfg, kind.build(&cfg, 17));
    let topo = Dragonfly::new(cfg.params);
    let stencil = StencilTraffic::square_2d(&topo, mapping, 23);
    for _ in 0..rounds {
        stencil.exchange_round(|s, d| net.generate(s, d));
    }
    while !net.drained() {
        net.step();
        assert!(
            net.now() < 500_000,
            "{} stalled on halo exchange",
            kind.name()
        );
    }
    net.now()
}

#[test]
fn every_mechanism_completes_halo_exchanges() {
    for kind in MechanismKind::paper_set() {
        for mapping in [TaskMapping::Sequential, TaskMapping::RandomizedNodes] {
            assert!(drain(kind, mapping, 5) > 0);
        }
    }
}

#[test]
fn adaptive_routing_beats_min_on_sequential_mapping() {
    let min = drain(MechanismKind::Min, TaskMapping::Sequential, 20);
    let ofar = drain(MechanismKind::Ofar, TaskMapping::Sequential, 20);
    assert!(
        ofar < min,
        "OFAR ({ofar}) must finish the hot-spot exchange before MIN ({min})"
    );
}

#[test]
fn stencil_traffic_conserves_phits() {
    let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
    let mut net = Network::new(cfg, MechanismKind::Ofar.build(&cfg, 3));
    let topo = Dragonfly::new(cfg.params);
    let stencil = StencilTraffic::cube_3d(&topo, TaskMapping::RandomizedNodes, 5);
    for _ in 0..10 {
        stencil.exchange_round(|s, d| net.generate(s, d));
        net.run(50);
    }
    let size = cfg.packet_size as u64;
    assert_eq!(
        net.stats().generated_packets * size,
        net.stats().delivered_phits + net.phits_in_system()
    );
    assert_eq!(net.audit_now(), []);
}
