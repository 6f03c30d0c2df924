//! §V polls every head packet every cycle, so `Network::step` must not
//! allocate per cycle (DESIGN.md §13). Scratch vectors, the wheel's block
//! pool and the tail pool grow to their peaks while a run warms up; after that a
//! thousand steps may allocate a handful of times (a pool chunk, a
//! scratch vector finding a new peak) — never once per step, per router
//! or per packet, which would read a thousand or more.
//!
//! A closed burst parks every packet in the source queues before the
//! first step, so what a queued packet costs is the run's peak memory:
//! 24 bytes behind the head, in pool chunks of 24 KB (DESIGN.md §3).
//!
//! What `step` allocates while that burst drains is mostly links: the
//! timing wheel's blocks, which follow what is in flight. A `Vec` per
//! wheel bucket, each doubling to its busiest cycle, read 631,264 bytes
//! over the burst below; the block pool reads 337,696.

use ofar::engine::{Fabric, Hooks, NoHooks};
use ofar::prelude::*;

#[global_allocator]
static ALLOC: allocwatch::Counting = allocwatch::Counting;

const WARMUP: usize = 5_000;
const MEASURED: usize = 1_000;
const BUDGET: u64 = 50;
/// Bytes `step` may allocate over the h=2 burst of `bytes_in_burst_steps`:
/// the 337,696 measured, plus 64 KB, a little over one 57.6 KB chunk of
/// arrival blocks.
const LINK_BYTES: u64 = 337_696 + 64 * 1024;

/// Allocations made inside the last `MEASURED` of `WARMUP + MEASURED`
/// `step` calls of a network built with `hooks` (traffic generation,
/// between steps, is not counted).
fn allocations_in_steps<H: Hooks>(
    kind: MechanismKind,
    base: SimConfig,
    spec: TrafficSpec,
    load: f64,
    hooks: H,
) -> u64 {
    let seed = 7;
    let cfg = kind.adapt_config(base.with_seed(seed));
    let mut net = Network::with_hooks(Fabric::new(cfg), kind.build(&cfg, seed), hooks);
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

/// Bytes allocated while `per_node` packets are generated at every node
/// of a fresh h=2 network, and the number of packets.
fn bytes_to_queue(per_node: usize) -> (u64, u64) {
    let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
    let mut net = Network::new(cfg, MechanismKind::Ofar.build(&cfg, 7));
    let nodes = net.num_nodes();
    let before = allocwatch::allocated_bytes();
    for _ in 0..per_node {
        for src in 0..nodes {
            net.generate(NodeId::from(src), NodeId::from((src + 1) % nodes));
        }
    }
    let queued = net.in_flight();
    assert_eq!(queued, (per_node * nodes) as u64);
    (allocwatch::allocated_bytes() - before, queued)
}

/// Bytes `step` allocates while a closed ADV+1 OFAR burst of `per_node`
/// packets per node drains at h=2 (generating the burst is not counted).
fn bytes_in_burst_steps(per_node: usize) -> u64 {
    let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(2));
    let mut net = Network::new(cfg, MechanismKind::Ofar.build(&cfg, 7));
    let topo = Dragonfly::new(cfg.params);
    OpenLoop::fill(
        &topo,
        TrafficSpec::adversarial(1),
        per_node,
        7,
        |src, dst| net.generate(src, dst),
    );
    let mut bytes = 0;
    while !net.drained() {
        assert!(net.now() < 100_000, "the burst did not drain");
        let before = allocwatch::allocated_bytes();
        net.step();
        bytes += allocwatch::allocated_bytes() - before;
    }
    bytes
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
    let mut counts: Vec<_> = cells
        .into_iter()
        .map(|(name, kind, cfg, spec, load)| {
            (name, allocations_in_steps(kind, cfg, spec, load, NoHooks))
        })
        .collect();
    // The runners' latency counts grow by doubling: a warm run has
    // already seen its largest latency, or nearly.
    let recorded = allocations_in_steps(
        Ofar,
        paper,
        TrafficSpec::adversarial(1),
        0.5,
        Recorder::since(0),
    );
    counts.push(("OFAR, recorded", recorded));
    for (name, n) in counts {
        assert!(
            n < BUDGET,
            "{name}: {n} allocations in {MEASURED} warm steps (budget {BUDGET})"
        );
    }
    let (bytes, queued) = bytes_to_queue(200);
    let budget = 24 * queued + 24 * 1_024;
    assert!(
        bytes <= budget,
        "{bytes} bytes to queue {queued} packets (budget {budget}: 24 a packet and one pool chunk)"
    );
    let bytes = bytes_in_burst_steps(100);
    assert!(
        bytes <= LINK_BYTES,
        "{bytes} bytes allocated by step over an h=2 burst (budget {LINK_BYTES})"
    );
}
