//! Escape-ring model equivalence and the multi-ring extension: physical
//! and embedded rings must both keep OFAR live (Fig. 8 shows them
//! performing identically), and any ring of the §VII edge-disjoint
//! family must be usable as the escape subnetwork.

use ofar::prelude::*;
use ofar_core::engine::Fabric;
use ofar_core::routing::OfarPolicy;

fn drain_burst_on(fabric: Fabric, seed: u64) -> u64 {
    let cfg = *fabric.cfg();
    let mut net = Network::with_fabric(fabric, OfarPolicy::new(&cfg, seed));
    let topo = Dragonfly::new(cfg.params);
    let mut gen = TrafficGen::new(&topo, TrafficSpec::adversarial(2), seed + 1);
    for n in 0..net.num_nodes() {
        for _ in 0..8 {
            let src = NodeId::from(n);
            let dst = gen.destination(src);
            net.generate(src, dst);
        }
    }
    while !net.drained() {
        net.step();
        assert!(net.now() < 300_000, "network failed to drain");
    }
    net.now()
}

#[test]
fn physical_and_embedded_rings_both_work() {
    let phys = drain_burst_on(
        Fabric::new(SimConfig::paper(2).with_ring(RingMode::Physical)),
        31,
    );
    let emb = drain_burst_on(
        Fabric::new(SimConfig::paper(2).with_ring(RingMode::Embedded)),
        31,
    );
    // Fig. 8: "no significant differences can be reported" — allow 25%.
    let ratio = phys as f64 / emb as f64;
    assert!(
        (0.75..1.33).contains(&ratio),
        "physical ({phys}) vs embedded ({emb}) differ by more than expected"
    );
}

#[test]
fn multiple_simultaneous_escape_rings_work() {
    // §VII ongoing work: several embedded Hamiltonian rings at once.
    for k in 1..=2usize {
        let mut cfg = SimConfig::paper(2).with_ring(RingMode::Embedded);
        cfg.escape_rings = k;
        let cycles = drain_burst_on(Fabric::new(cfg), 35);
        assert!(cycles > 0, "k={k} failed");
    }
    // and physically attached ring pairs
    let mut cfg = SimConfig::paper(2).with_ring(RingMode::Physical);
    cfg.escape_rings = 2;
    assert!(drain_burst_on(Fabric::new(cfg), 36) > 0);
}

#[test]
fn escape_ring_count_is_validated() {
    let mut cfg = SimConfig::paper(2).with_ring(RingMode::Embedded);
    cfg.escape_rings = 3; // h = 2 → at most 2
    assert!(cfg.validate().is_err());
    cfg.escape_rings = 0;
    assert!(cfg.validate().is_err());
}

#[test]
fn every_disjoint_ring_serves_as_escape_network() {
    let cfg = SimConfig::paper(2).with_ring(RingMode::Embedded);
    let topo = Dragonfly::new(cfg.params);
    for ring_idx in 0..cfg.params.h {
        let ring = HamiltonianRing::embedded(&topo, ring_idx);
        let cycles = drain_burst_on(Fabric::with_rings(cfg, vec![ring]), 32);
        assert!(cycles > 0);
    }
}

#[test]
fn embedded_ring_visits_every_router_once() {
    for h in 2..=4 {
        let topo = Dragonfly::balanced(h);
        let ring = HamiltonianRing::embedded(&topo, 0);
        ring.validate(&topo).unwrap();
        // positions are a permutation
        let mut seen = vec![false; topo.num_routers()];
        for &r in ring.order() {
            assert!(!seen[ring.position_of(r)]);
            seen[ring.position_of(r)] = true;
        }
    }
}

#[test]
fn disjoint_family_is_disjoint_at_every_supported_size() {
    for h in 2..=5 {
        let topo = Dragonfly::balanced(h);
        let rings = HamiltonianRing::embed_disjoint(&topo, h);
        assert!(HamiltonianRing::pairwise_edge_disjoint(&topo, &rings));
    }
}

#[test]
fn ring_stats_are_consistent() {
    // entries == exits + deliveries-from-ring + still-on-ring; after a
    // full drain, nothing is still on the ring.
    let cfg = SimConfig::reduced_vcs(2).with_seed(33);
    let mut net = Network::new(cfg, OfarPolicy::new(&cfg, 33));
    let topo = Dragonfly::new(cfg.params);
    let mut gen = TrafficGen::new(&topo, TrafficSpec::adversarial(2), 34);
    for n in 0..net.num_nodes() {
        for _ in 0..30 {
            let src = NodeId::from(n);
            let dst = gen.destination(src);
            net.generate(src, dst);
        }
    }
    while !net.drained() {
        net.step();
        assert!(net.now() < 400_000, "drain stalled");
    }
    let s = net.stats();
    assert_eq!(
        s.ring_entries,
        s.ring_exits + s.ring_deliveries,
        "ring bookkeeping leak: entries {} exits {} deliveries {}",
        s.ring_entries,
        s.ring_exits,
        s.ring_deliveries
    );
}
