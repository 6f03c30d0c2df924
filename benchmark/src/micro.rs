//! Micro-drivers: per-call host time of one public function of each
//! layer, over a seeded fixed input set.
//!
//! A hot call is timed in batches (the clock is read once per batch, so
//! its own cost is amortized over tens of thousands of calls) and the
//! reported figure is the median batch; a construction is timed once per
//! sample and the median of the samples is reported. Inputs are drawn
//! from the workload seed before any clock starts.

use crate::stats::median;
use crate::workloads::{Sizes, MECHANISMS};
use ofar_core::engine::{InputCtx, Packet, PortKind, PortLoad, ViewProbe};
use ofar_core::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, so the fixed input
/// sets do not move when the simulator's RNG does.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant for input sets).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Median over `samples` runs of `f`, in seconds per run.
fn construction_s<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            let built = black_box(f());
            let dt = t.elapsed().as_secs_f64();
            drop(built);
            dt
        })
        .collect();
    median(&times)
}

/// Median over `batches` batches of the per-call time of `call`, in
/// nanoseconds. Each batch builds its state with `fresh` (untimed), then
/// invokes `call(state, i)` for `i = 0..calls`.
fn per_call_ns<S>(
    (batches, calls): (usize, usize),
    mut fresh: impl FnMut() -> S,
    mut call: impl FnMut(&mut S, usize),
) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let mut state = fresh();
            let t = Instant::now();
            for i in 0..calls {
                call(&mut state, i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&times)
}

/// Inputs per router of the `route` micro-driver.
const ROUTE_INPUTS: usize = 64;

/// One `Policy::route` call on a `ViewProbe` view with every port at
/// `load`, over a fixed set of (router, destination, input class).
fn route_ns(kind: MechanismKind, load: PortLoad, sz: &Sizes, seed: u64) -> f64 {
    let cfg = kind.adapt_config(SimConfig::paper(sz.micro_h.0).with_seed(seed));
    let mut probe = ViewProbe::new(cfg);
    let mut policy = kind.build(&cfg, seed);
    let topo = *probe.fab().topo();
    let mut rng = SplitMix(seed);
    let (batches, calls) = sz.micro;
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            // One router per batch: repositioning the probe rebuilds its
            // ports, which must stay outside the timed loop.
            let router = RouterId::from(rng.below(topo.num_routers()));
            probe.set_router(router);
            probe.set_all(load);
            let view = probe.view();
            let fab = probe.fab();
            let inputs: Vec<(InputCtx, Packet)> = (0..ROUTE_INPUTS)
                .map(|i| {
                    let dst = loop {
                        let d = RouterId::from(rng.below(topo.num_routers()));
                        if d != router {
                            break topo.first_node_of(d);
                        }
                    };
                    let (port, class, local_hops) = match i % 3 {
                        0 => (fab.inj_in(0), PortKind::Node, 0),
                        1 => (fab.local_in(0), PortKind::Local, 1),
                        _ => (fab.global_in(0), PortKind::Global, 0),
                    };
                    let mut pkt = Packet {
                        id: i as u64,
                        injected_at: 0,
                        src: topo.first_node_of(router),
                        dst,
                        intermediate: None,
                        flags: 0,
                        ring_exits_left: cfg.max_ring_exits,
                        local_hops,
                        global_hops: 0,
                        ring_hops: 0,
                        wait: 0,
                        cur_group: topo.group_of(router),
                    };
                    // Injection-time route set-up (e.g. the Valiant
                    // intermediate group), as the engine would do it.
                    let vc = if class == PortKind::Node {
                        policy.on_inject(&view, &mut pkt)
                    } else {
                        0
                    };
                    let ctx = InputCtx {
                        port,
                        vc,
                        kind: class,
                        is_escape_vc: false,
                    };
                    (ctx, pkt)
                })
                .collect();
            let t = Instant::now();
            for i in 0..calls {
                let (ctx, base) = &inputs[i % ROUTE_INPUTS];
                // `route` may do idempotent bookkeeping on the packet,
                // so each call gets its own copy.
                let mut pkt = *base;
                black_box(policy.route(&view, *ctx, &mut pkt));
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&times)
}

/// Every micro-driver metric, by name.
pub fn run(sz: &Sizes, seed: u64) -> Vec<(String, f64)> {
    let (h, conformance_reps) = sz.micro_h;
    let kind = MechanismKind::Ofar;
    let cfg = kind.adapt_config(SimConfig::paper(h).with_seed(seed));
    let topo = Dragonfly::new(cfg.params);
    let (routers, nodes) = (topo.num_routers(), topo.num_nodes());
    let mut rng = SplitMix(seed ^ 0x006D_6963_726F); // "micro"
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    // --- topology -----------------------------------------------------
    for bh in [2, 4, 6] {
        let s = construction_s(sz.constructions, || {
            let t = Dragonfly::new(DragonflyParams::balanced(bh));
            let rings = HamiltonianRing::embed_disjoint(&t, 1);
            (t, rings)
        });
        put(&format!("topology.build_us.h{bh}"), s * 1e6);
    }
    let hops: Vec<(RouterId, NodeId)> = (0..1024)
        .map(|_| {
            (
                RouterId::from(rng.below(routers)),
                NodeId::from(rng.below(nodes)),
            )
        })
        .collect();
    put(
        "topology.min_hop_ns",
        per_call_ns(
            sz.micro,
            || (),
            |(), i| {
                let (r, n) = hops[i % hops.len()];
                black_box(topo.minimal_hop_to_node(r, n));
            },
        ),
    );

    // --- traffic ------------------------------------------------------
    for (label, spec) in [
        ("un", TrafficSpec::uniform()),
        ("adv", TrafficSpec::adversarial(1)),
    ] {
        let mut gen = TrafficGen::new(&topo, spec, seed.wrapping_add(1));
        put(
            &format!("traffic.dest_ns.{label}"),
            per_call_ns(
                sz.micro,
                || (),
                |(), i| {
                    black_box(gen.destination(NodeId::from(i % nodes)));
                },
            ),
        );
    }

    // --- routing ------------------------------------------------------
    put(
        "routing.build_us",
        construction_s(sz.constructions, || kind.build(&cfg, seed)) * 1e6,
    );
    for (mech, short) in MECHANISMS {
        for (point, load) in [
            ("empty", PortLoad::Empty),
            ("congested", PortLoad::Congested),
        ] {
            put(
                &format!("routing.route_ns.{short}.{point}"),
                route_ns(mech, load, sz, seed),
            );
        }
    }

    // --- engine -------------------------------------------------------
    {
        // The policy is built outside the clock: `routing.build_us` has it.
        let times: Vec<f64> = (0..sz.constructions)
            .map(|_| {
                let policy = kind.build(&cfg, seed);
                let t = Instant::now();
                let net = black_box(Network::new(cfg, policy));
                let dt = t.elapsed().as_secs_f64();
                drop(net);
                dt
            })
            .collect();
        put("engine.new_us", median(&times) * 1e6);
    }
    {
        let mut gen = TrafficGen::new(&topo, TrafficSpec::uniform(), seed.wrapping_add(1));
        let pairs: Vec<(NodeId, NodeId)> = (0..4096)
            .map(|i| {
                let src = NodeId::from(i % nodes);
                (src, gen.destination(src))
            })
            .collect();
        // A fresh network per batch bounds the source queues' growth.
        put(
            "engine.generate_ns",
            per_call_ns(
                sz.micro,
                || Network::new(cfg, kind.build(&cfg, seed)),
                |net, i| {
                    let (src, dst) = pairs[i % pairs.len()];
                    net.generate(src, dst);
                },
            ),
        );
    }

    // --- verify -------------------------------------------------------
    put(
        "verify.certify_cold_us",
        construction_s(sz.constructions, || certify(&cfg, kind)) * 1e6,
    );
    certify_cached(&cfg, kind).expect("the paper configuration certifies");
    put(
        "verify.certify_cached_ns",
        per_call_ns(
            sz.micro,
            || (),
            |(), _| {
                black_box(certify_cached(&cfg, kind).is_ok());
            },
        ),
    );
    put(
        "verify.conformance_cold_ms",
        construction_s(conformance_reps, || conformance(&cfg, kind).is_ok()) * 1e3,
    );
    out
}
