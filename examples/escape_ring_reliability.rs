//! The §VII reliability extension: OFAR's deadlock freedom hangs on the
//! escape ring, so a single failed ring link is a liveness hazard. The
//! paper sketches embedding up to `h` *edge-disjoint* Hamiltonian rings
//! so the system survives as long as one ring is intact.
//!
//! This example embeds the full disjoint family, injects random link
//! failures, and measures how many failures the escape subnetwork
//! tolerates — plus a demonstration that the simulator runs unchanged on
//! a secondary ring.
//!
//! Run with:
//! ```text
//! cargo run --release --example escape_ring_reliability
//! ```

use ofar::prelude::*;
use ofar_core::engine::Fabric;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let h = 4;
    let topo = Dragonfly::balanced(h);
    let rings = HamiltonianRing::embed_disjoint(&topo, h);
    assert!(HamiltonianRing::pairwise_edge_disjoint(&topo, &rings));
    println!(
        "h={h}: embedded {} edge-disjoint Hamiltonian rings over {} routers",
        rings.len(),
        topo.num_routers()
    );

    // Monte Carlo: how many random local/global link failures until all
    // rings are dead?
    let mut rng = StdRng::seed_from_u64(7);
    let trials = 200;
    let mut sum_until_dead = 0usize;
    let mut survive_at_h_failures = 0usize;
    for _ in 0..trials {
        let mut failed: Vec<(RouterId, RouterId)> = Vec::new();
        loop {
            // Fail a random link (local or global, uniform over routers).
            let r = RouterId::from(rng.gen_range(0..topo.num_routers()));
            let a = topo.routers_per_group();
            let deg = (a - 1) + h;
            let port = rng.gen_range(0..deg);
            let other = if port < a - 1 {
                topo.local_neighbor(r, port)
            } else {
                topo.global_neighbor(r, port - (a - 1)).0
            };
            failed.push((r, other));
            let alive = HamiltonianRing::surviving_rings(&topo, &rings, &failed);
            if failed.len() == rings.len() && alive > 0 {
                survive_at_h_failures += 1;
            }
            if alive == 0 {
                sum_until_dead += failed.len();
                break;
            }
        }
    }
    println!(
        "random link failures until every ring is broken: {:.1} on average \
         ({} trials); {:.0}% of trials still had a live escape ring after \
         {} failures",
        sum_until_dead as f64 / trials as f64,
        trials,
        100.0 * survive_at_h_failures as f64 / trials as f64,
        rings.len(),
    );

    // A single ring dies to one well-aimed failure:
    let e = rings[0].edges()[0];
    let aimed = [(e.from(), e.to(&topo))];
    assert_eq!(
        HamiltonianRing::surviving_rings(&topo, &rings[..1], &aimed),
        0
    );
    println!(
        "a single-ring deployment is killed by 1 aimed failure — the multi-ring family is not."
    );

    // And the simulator runs on any ring of the family: route a burst of
    // traffic with OFAR using ring #1 instead of ring #0.
    let h2 = 2;
    let cfg = SimConfig::paper(h2).with_ring(RingMode::Embedded);
    let topo2 = Dragonfly::new(cfg.params);
    let alt_ring = HamiltonianRing::embedded(&topo2, 1);
    // Certify the *actual* backup ring before trusting it with escape
    // duty (the default `certify` would only prove ring #0).
    ofar_core::verify::verify_decl(
        &topo2,
        &cfg,
        &MechanismKind::Ofar.dependency_decl(&cfg),
        &[ofar_core::verify::RingSpec::from_ring(&topo2, &alt_ring)],
    )
    .expect("backup ring must be a spanning bubble-protected cycle");
    let fab = Fabric::with_rings(cfg, vec![alt_ring]);
    let mut net = Network::with_fabric(fab, ofar_core::routing::OfarPolicy::new(&cfg, 3));
    let mut gen = TrafficGen::new(&topo2, TrafficSpec::adversarial(2), 5);
    for n in 0..net.num_nodes() {
        for _ in 0..5 {
            let src = NodeId::from(n);
            let dst = gen.destination(src);
            net.generate(src, dst);
        }
    }
    while !net.drained() {
        net.step();
        assert!(net.now() < 200_000, "network failed to drain on ring #1");
    }
    println!(
        "OFAR drained a 5-packet/node ADV+2 burst on backup ring #1 in {} cycles — \
         failover is a fabric swap, no routing changes.",
        net.now()
    );
}
