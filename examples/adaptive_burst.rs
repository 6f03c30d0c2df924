//! Barrier-synchronized communication bursts (§VI-C): in bulk-synchronous
//! HPC applications every rank injects a batch of messages right after a
//! barrier. This example reproduces a small version of the paper's burst
//! experiment — each node enqueues a fixed number of packets with a mixed
//! destination distribution and we time how long each mechanism needs to
//! drain the network.
//!
//! Run with:
//! ```text
//! cargo run --release --example adaptive_burst
//! ```

use ofar::prelude::*;

fn main() {
    let h = 2;
    let cfg = SimConfig::paper(h);
    let packets_per_node = 40;

    // The paper's MIX2: 60% uniform, 20% ADV+1, 20% ADV+h — a blend of
    // well-behaved and adversarial phases, as after a halo exchange.
    let spec = TrafficSpec::mix2(h);
    println!(
        "burst: {} packets/node ({} total) on h={h}, pattern {}",
        packets_per_node,
        packets_per_node * cfg.params.nodes(),
        spec.label()
    );

    let mechs = [
        MechanismKind::Valiant,
        MechanismKind::Pb,
        MechanismKind::Ofar,
        MechanismKind::OfarL,
    ];
    let results: Vec<_> = mechs
        .iter()
        .map(|&kind| {
            let point = Point::new(cfg, kind, &spec, 11, Shape::burst(packets_per_node));
            (kind, burst(&point, NoHooks).0)
        })
        .collect();

    let pb = results
        .iter()
        .find(|(k, _)| *k == MechanismKind::Pb)
        .and_then(|(_, r)| r.cycles)
        .expect("PB must drain");

    println!(
        "\n{:8} {:>10} {:>10} {:>12}",
        "mech", "cycles", "vs PB", "avg latency"
    );
    for (kind, r) in &results {
        let cycles = r.cycles.expect("burst must drain");
        println!(
            "{:8} {:>10} {:>10.3} {:>12.1}",
            kind.name(),
            cycles,
            cycles as f64 / pb as f64,
            r.avg_latency
        );
    }
    println!("\nLower is better; the paper reports OFAR consuming bursts 43% faster than PB on average (Fig. 7).");
}
