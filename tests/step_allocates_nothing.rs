//! §V polls every head packet every cycle, so `Network::step` must not
//! allocate per cycle (DESIGN.md §13). Scratch vectors, wheel slots and
//! the tail pool grow to their peaks while a run warms up; after that a
//! thousand steps may allocate a handful of times (a pool chunk, a
//! scratch vector finding a new peak) — never once per step, per router
//! or per packet, which would read a thousand or more.

use ofar::prelude::*;

#[global_allocator]
static ALLOC: allocwatch::Counting = allocwatch::Counting;

const WARMUP: usize = 5_000;
const MEASURED: usize = 1_000;
const BUDGET: u64 = 50;

/// Allocations made inside the last `MEASURED` of `WARMUP + MEASURED`
/// `step` calls (traffic generation, between steps, is not counted).
fn allocations_in_steps(kind: MechanismKind, base: SimConfig, spec: TrafficSpec, load: f64) -> u64 {
    let seed = 7;
    let cfg = kind.adapt_config(base.with_seed(seed));
    let mut net = Network::new(cfg, kind.build(&cfg, seed));
    let topo = Dragonfly::new(cfg.params);
    let mut source = OpenLoop::new(&topo, spec, load, cfg.packet_size, seed);
    let mut in_steps = 0;
    for cycle in 0..WARMUP + MEASURED {
        source.cycle(|src, dst| net.generate(src, dst));
        let before = allocwatch::allocations();
        net.step();
        if cycle >= WARMUP {
            in_steps += allocwatch::allocations() - before;
        }
    }
    assert!(net.stats().delivered_packets > 0, "{kind}: nothing ran");
    in_steps
}

/// One test, so no other thread of this binary allocates meanwhile.
#[test]
fn a_warm_step_allocates_nothing() {
    use MechanismKind::{Min, Ofar, OfarL, Par, Pb, Valiant};
    let paper = SimConfig::paper(2);
    let mut cells: Vec<_> = [Min, Valiant, Pb, Par, Ofar, OfarL]
        .into_iter()
        .map(|kind| (kind.name(), kind, paper, TrafficSpec::adversarial(1), 0.5))
        .collect();
    cells.push((
        "OFAR, ber 1e-3",
        Ofar,
        paper.with_ber(1e-3),
        TrafficSpec::uniform(),
        0.5,
    ));
    cells.push((
        "OFAR, CM on, overloaded",
        Ofar,
        paper.with_cm(),
        TrafficSpec::adversarial(1),
        1.0,
    ));
    for (name, kind, cfg, spec, load) in cells {
        let n = allocations_in_steps(kind, cfg, spec, load);
        assert!(
            n < BUDGET,
            "{name}: {n} allocations in {MEASURED} warm steps (budget {BUDGET})"
        );
    }
}
