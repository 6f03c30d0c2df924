//! The §VII reliability study: embed the full family of `h`
//! edge-disjoint Hamiltonian escape rings and measure, by Monte Carlo,
//! how many random link failures the escape subnetwork survives as a
//! function of how many rings are deployed.

use ofar_core::prelude::*;
use ofar_core::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let scale = ofar_bench::announce("rings");
    let topo = Dragonfly::balanced(scale.h);
    let all = HamiltonianRing::embed_disjoint(&topo, scale.h);
    assert!(HamiltonianRing::pairwise_edge_disjoint(&topo, &all));

    let trials = 300;
    let mut t = Table::new(
        format!(
            "Escape-subnetwork reliability: mean random link failures survived (h={}, {} routers, {trials} trials)",
            scale.h,
            topo.num_routers()
        ),
        &["rings deployed", "mean failures to outage", "p(survive h failures)"],
    );
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let a = topo.routers_per_group();
    let h = scale.h;
    for k in 1..=all.len() {
        let rings = &all[..k];
        let mut total = 0usize;
        let mut survive_h = 0usize;
        for _ in 0..trials {
            let mut failed = Vec::new();
            loop {
                let r = RouterId::from(rng.gen_range(0..topo.num_routers()));
                let deg = (a - 1) + h;
                let port = rng.gen_range(0..deg);
                let other = if port < a - 1 {
                    topo.local_neighbor(r, port)
                } else {
                    topo.global_neighbor(r, port - (a - 1)).0
                };
                failed.push((r, other));
                let alive = HamiltonianRing::surviving_rings(&topo, rings, &failed);
                if failed.len() == h && alive > 0 {
                    survive_h += 1;
                }
                if alive == 0 {
                    total += failed.len();
                    break;
                }
            }
        }
        t.push(vec![
            k.to_string(),
            format!("{:.1}", total as f64 / trials as f64),
            format!("{:.2}", survive_h as f64 / trials as f64),
        ]);
    }
    ofar_bench::emit(&t);
}
