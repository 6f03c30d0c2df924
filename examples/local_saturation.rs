//! The motivation study of §III: under ADV+h traffic with Valiant
//! routing, the misrouted traffic entering each intermediate group
//! concentrates on single *local* links, capping throughput at `1/h`
//! even though the global links — the usual suspects — stay half idle.
//!
//! This example measures per-link utilization directly (a hook on the
//! engine's transmit tap) and prints the utilization histogram of local vs
//! global links, plus the observed throughput against the analytic
//! bounds.
//!
//! Run with:
//! ```text
//! cargo run --release --example local_saturation
//! ```

use ofar::prelude::*;
use ofar_core::engine::{Fabric, Hooks, PortKind, Tap};

/// Phits sent by each output port (`router · n_out + port`), counted
/// through [`Tap::Transmit`].
struct LinkPhits {
    n_out: usize,
    phits: Vec<u64>,
}

impl Hooks for LinkPhits {
    fn tap(&mut self, ev: Tap) {
        if let Tap::Transmit(router, port, phits) = ev {
            self.phits[router.idx() * self.n_out + port] += u64::from(phits);
        }
    }
}

fn main() {
    let h = 3; // 19 groups, 114 routers, 342 nodes — quick but non-toy
    let cfg = SimConfig::paper(h);
    let topo = Dragonfly::new(cfg.params);

    // Offered load above the 1/h wall so the bottleneck binds.
    let load = 0.45;
    let warmup = 3_000u64;
    let measure = 6_000u64;

    certify(&cfg, MechanismKind::Valiant).expect("configuration must be deadlock-free");
    let fab = Fabric::new(cfg);
    let counter = LinkPhits {
        n_out: fab.n_out(),
        phits: vec![0; topo.num_routers() * fab.n_out()],
    };
    let mut net = Network::with_hooks(
        fab,
        Mechanism::Valiant(ofar_core::routing::ValiantPolicy::new(&cfg, 7)),
        counter,
    );
    let mut gen = TrafficGen::new(&topo, TrafficSpec::adversarial(h), 1);
    let mut bern = Bernoulli::new(load, cfg.packet_size, 2);
    let nodes = net.num_nodes();

    for _ in 0..warmup {
        bern.cycle(nodes, |src| {
            let dst = gen.destination(src);
            net.generate(src, dst);
        });
        net.step();
    }
    net.hooks_mut().phits.fill(0);
    let start = net.stats().clone();
    for _ in 0..measure {
        bern.cycle(nodes, |src| {
            let dst = gen.destination(src);
            net.generate(src, dst);
        });
        net.step();
    }
    let w = StatsWindow::between(&start, net.stats(), measure, nodes);

    // Histogram of link utilization by class.
    let phits = std::mem::take(&mut net.hooks_mut().phits);
    let fab = net.fabric();
    let mut local = Vec::new();
    let mut global = Vec::new();
    for (i, &sent) in phits.iter().enumerate() {
        let util = sent as f64 / measure as f64;
        match fab.out_kind(i % fab.n_out()) {
            PortKind::Local => local.push(util),
            PortKind::Global => global.push(util),
            _ => {}
        }
    }
    let summary = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = v.len();
        (
            v.iter().sum::<f64>() / n as f64,
            v[n / 2],
            v[(n as f64 * 0.99) as usize],
            v[n - 1],
        )
    };
    let (lmean, lmed, l99, lmax) = summary(&mut local);
    let (gmean, gmed, g99, gmax) = summary(&mut global);

    println!("ADV+{h} under Valiant routing, offered {load} phits/node/cycle");
    println!(
        "accepted throughput: {:.4}  (1/h wall: {:.4}, Valiant global bound: 0.5)",
        w.throughput(),
        ofar::theory::valiant_advh_bound(&cfg.params)
    );
    println!("\nlink utilization (phits/cycle per link):");
    println!("  class    mean    median    p99     max");
    println!("  local   {lmean:.3}   {lmed:.3}     {l99:.3}   {lmax:.3}");
    println!("  global  {gmean:.3}   {gmed:.3}     {g99:.3}   {gmax:.3}");
    println!(
        "\nThe hottest local links run at ~{:.0}% while global links sit near \
         {:.0}% — the §III phenomenon: the network is local-link-bound, so \
         randomizing over global links (Valiant) cannot help, but OFAR's \
         local misrouting can.",
        lmax * 100.0,
        gmean * 100.0
    );

    assert!(
        lmax > 0.85 && lmax > 1.5 * gmean && gmax < 0.75,
        "expected saturated local links against underused globals \
         (local max {lmax:.3}, global mean {gmean:.3}, global max {gmax:.3})"
    );
}
