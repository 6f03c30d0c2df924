//! Microarchitectural scenario tests: crafted traffic whose timing
//! behaviour is predictable from the §V router model, pinning down the
//! engine's serialization, arbitration, flow-control and ordering
//! semantics.

mod common;

use common::TestMin;
use ofar_engine::config::{LAT_GLOBAL, LAT_LOCAL};
use ofar_engine::{InputCtx, Network, Packet, Policy, Request, RouterView, SimConfig};
use ofar_topology::{Dragonfly, NodeId};

fn net() -> Network<TestMin> {
    Network::new(SimConfig::paper(2), TestMin)
}

/// Deliver a single packet and return its latency.
fn single_latency(src: usize, dst: usize) -> u64 {
    let mut n = net();
    n.generate(NodeId::from(src), NodeId::from(dst));
    while !n.drained() {
        n.step();
        assert!(n.now() < 10_000);
    }
    n.stats().latency_sum
}

#[test]
fn zero_load_latency_decomposes_by_hops() {
    let cfg = SimConfig::paper(2);
    let topo = Dragonfly::new(cfg.params);
    // src router 0; pick destinations at known distances.
    // injection (8) + per hop (link latency) + ejection (8), one cycle
    // per router pass for the allocator.
    let same_router = single_latency(0, 1); // routers equal, hops = 0
    let local_1 = {
        // same group, different router → one local hop
        let dst = cfg.params.p; // router 1, node 0
        single_latency(0, dst)
    };
    let global_path = {
        // a destination two groups over → l g l (3 hops)
        let dst_router = topo.router_at(ofar_topology::GroupId::new(2), 1);
        single_latency(0, topo.first_node_of(dst_router).idx())
    };
    // exact values depend on pipeline details; assert the decomposition
    // ordering and the latency deltas match the link latencies.
    assert!(same_router < local_1);
    assert!(local_1 < global_path);
    // one local hop adds ~lat_local (10) + serialization/arbitration
    assert!(
        (local_1 - same_router) >= LAT_LOCAL && (local_1 - same_router) <= LAT_LOCAL + 16,
        "local hop delta {}",
        local_1 - same_router
    );
    // the l-g-l path adds ≥ one global latency over the local-only path
    assert!(global_path - local_1 >= LAT_GLOBAL);
}

#[test]
fn ejection_port_serializes_at_one_phit_per_cycle() {
    // Two packets to the same node from different sources: the second
    // delivery completes ≥ packet_size cycles after the first.
    let mut n = net();
    let dst = NodeId::new(40);
    n.enable_delivery_log();
    n.generate(NodeId::new(0), dst);
    n.generate(NodeId::new(1), dst);
    while !n.drained() {
        n.step();
        assert!(n.now() < 10_000);
    }
    let log = n.take_delivery_log();
    assert_eq!(log.len(), 2);
    let mut ends: Vec<u64> = log.iter().map(|&(t, l)| t + u64::from(l)).collect();
    ends.sort_unstable();
    assert!(
        ends[1] - ends[0] >= SimConfig::paper(2).packet_size as u64,
        "ejection not serialized: {ends:?}"
    );
}

#[test]
fn injection_is_rate_limited_per_node() {
    // One node generates 4 packets at cycle 0; the injection buffer
    // accepts one packet per packet_size cycles, so injected counts
    // ramp at that rate.
    let mut n = net();
    let src = NodeId::new(0);
    for d in 1usize..5 {
        n.generate(src, NodeId::from(d * 7));
    }
    let size = n.cfg().packet_size as u64;
    let mut injected_at = Vec::new();
    let mut last = 0;
    for _ in 0..200 {
        n.step();
        let inj = n.stats().injected_packets;
        if inj > last {
            injected_at.push(n.now());
            last = inj;
        }
    }
    assert_eq!(injected_at.len(), 4);
    for w in injected_at.windows(2) {
        assert!(w[1] - w[0] >= size, "injection faster than 1 phit/cycle");
    }
}

#[test]
fn same_flow_stays_in_fifo_order() {
    // Packets of one (src, dst) pair ride the same VCs and must arrive
    // in generation order: with the delivery log, generation cycles of
    // consecutive deliveries are non-decreasing for a single flow.
    let mut n = net();
    n.enable_delivery_log();
    let src = NodeId::new(3);
    let dst = NodeId::new(60);
    for cycle in 0..400u64 {
        if cycle % 20 == 0 {
            n.generate(src, dst);
        }
        n.step();
    }
    while !n.drained() {
        n.step();
        assert!(n.now() < 20_000);
    }
    let log = n.take_delivery_log();
    assert_eq!(log.len(), 20);
    let ends: Vec<u64> = log.iter().map(|&(t, l)| t + u64::from(l)).collect();
    let mut sorted = ends.clone();
    sorted.sort_unstable();
    assert_eq!(ends, sorted, "single-flow deliveries out of order");
}

#[test]
fn output_contention_is_shared_fairly() {
    // Nodes on two different routers of group 0 hammer the same third
    // router; the LRS output arbiter must serve both flows within ~2x of
    // each other.
    let mut n = net();
    let cfg = *n.cfg();
    let p = cfg.params.p;
    let dst_a = NodeId::from(2 * p); // router 2, node 0
    let dst_b = NodeId::from(2 * p + 1); // router 2, node 1
    for cycle in 0..2_000u64 {
        if cycle % 8 == 0 {
            n.generate(NodeId::new(0), dst_a); // router 0 → router 2
            n.generate(NodeId::from(p), dst_b); // router 1 → router 2
        }
        n.step();
    }
    while !n.drained() {
        n.step();
        assert!(n.now() < 50_000);
    }
    // both flows fully delivered (250 each) — fairness means neither was
    // starved into the watchdog; stronger: equal counts by construction
    assert_eq!(n.stats().delivered_packets, 2 * 250);
}

#[test]
fn credit_exhaustion_stalls_but_never_overflows() {
    // Offered load far above a single local link's capacity: the engine
    // must backpressure into source queues without any buffer assert
    // firing, and drain completely afterwards.
    let mut n = net();
    let cfg = *n.cfg();
    let p = cfg.params.p;
    // all nodes of router 0 and 1 send to router 2's nodes
    for burst in 0..30 {
        for s in 0..2 * p {
            let d = 2 * p + (s + burst) % p;
            n.generate(NodeId::from(s), NodeId::from(d));
        }
    }
    while !n.drained() {
        n.step();
        assert!(n.now() < 100_000);
    }
    assert_eq!(n.audit_now(), []);
    assert_eq!(n.stats().delivered_packets, 30 * 2 * p as u64);
}

#[test]
fn stats_windows_do_not_drift() {
    // generated == injected + still-in-source-queues at every instant.
    let mut n = net();
    for cycle in 0..500u64 {
        if cycle % 3 == 0 {
            let s = (cycle as usize * 13) % 72;
            let d = (s + 17) % 72;
            n.generate(NodeId::from(s), NodeId::from(d));
        }
        n.step();
        let queued: u64 = (0..72)
            .map(|node: usize| n.source_queue_len(NodeId::from(node)) as u64)
            .sum();
        assert_eq!(
            n.stats().generated_packets,
            n.stats().injected_packets + queued
        );
    }
}

#[test]
fn fault_transition_counters_count_once_per_transition() {
    use ofar_engine::FaultPlan;
    use ofar_topology::RouterId;
    let (a, b) = (RouterId::new(0), RouterId::new(1));
    let r = RouterId::new(2);
    let mut n = net();
    // Same-cycle restore + re-fail at cycle 20 is two transitions, one
    // count each; the duplicate fail at 30 is a no-op transition and
    // must not be counted at all. Routers get the symmetric treatment.
    n.set_fault_plan(
        FaultPlan::new()
            .fail_link_at(10, a, b)
            .restore_link_at(20, a, b)
            .fail_link_at(20, a, b)
            .fail_link_at(30, a, b)
            .restore_link_at(40, a, b)
            .fail_router_at(10, r)
            .restore_router_at(20, r)
            .fail_router_at(20, r)
            .restore_router_at(40, r),
    );
    n.run(50);
    let s = n.stats();
    assert_eq!(
        s.link_failures, 2,
        "fail→(restore,fail) is two fail transitions"
    );
    assert_eq!(s.link_repairs, 2);
    assert_eq!(s.router_failures, 2);
    assert_eq!(s.router_repairs, 2);
}

/// Counts `on_inject` calls, always picks injection VC 0 and never
/// routes, so the one VC fills and stays full.
struct CountingInjections(u64);

impl Policy for CountingInjections {
    fn name(&self) -> &'static str {
        "counting-injections"
    }

    fn route(&mut self, _: &RouterView<'_>, _: InputCtx, _: &mut Packet) -> Option<Request> {
        None
    }

    fn on_inject(&mut self, _: &RouterView<'_>, _: &mut Packet) -> usize {
        self.0 += 1;
        0
    }
}

/// `Policy::on_inject`'s contract: one call per cycle the node offers
/// its head, made before the room test — not one per injection. PB and
/// PAR draw from their RNG lanes in it, so an engine that skipped the
/// call for a full buffer would change their simulated behaviour (and
/// this count) rather than only save time.
#[test]
fn on_inject_is_called_every_offered_cycle_not_once_per_injection() {
    const CYCLES: u64 = 100;
    let cfg = SimConfig::paper(2);
    let (size, fits) = (
        cfg.packet_size as u64,
        (cfg.buf_injection / cfg.packet_size) as u64,
    );
    let mut n = Network::new(cfg, CountingInjections(0));
    for _ in 0..=fits {
        n.generate(NodeId::new(0), NodeId::new(40));
    }
    n.run(CYCLES);
    // The VC takes `fits` packets, one per `size` cycles of the
    // injection link; the next head is then offered, and refused, in
    // every remaining cycle.
    assert_eq!(n.stats().injected_packets, fits);
    assert_eq!(n.source_queue_len(NodeId::new(0)), 1);
    assert_eq!(n.policy().0, fits + (CYCLES - fits * size));
}
