//! Property-based tests of the simulator core: conservation under
//! arbitrary traffic, config validation, and allocator sanity. Uses a
//! trivially deadlock-free test policy (pure minimal routing with
//! position VCs, see `common`) so every property isolates the *engine*,
//! not a routing mechanism.

mod common;

use common::TestMin;
use ofar_engine::config::BUF_GLOBAL;
use ofar_engine::{Network, RingMode, SimConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn phits_are_conserved_under_arbitrary_traffic(
        pairs in prop::collection::vec((0usize..72, 0usize..72), 1..200),
        cycles in 100u64..1_500,
    ) {
        let cfg = SimConfig::paper(2);
        let mut net = Network::new(cfg, TestMin);
        let mut generated = 0u64;
        for (i, &(s, d)) in pairs.iter().enumerate() {
            if s == d {
                continue;
            }
            // stagger generation over the first cycles
            if (i as u64).is_multiple_of(7) {
                net.step();
            }
            net.generate(ofar_topology::NodeId::from(s), ofar_topology::NodeId::from(d));
            generated += 1;
        }
        net.run(cycles);
        let size = cfg.packet_size as u64;
        prop_assert_eq!(
            generated * size,
            net.stats().delivered_phits + net.phits_in_system()
        );
        assert_eq!(net.audit_now(), []);
    }

    #[test]
    fn everything_drains_eventually(
        pairs in prop::collection::vec((0usize..72, 0usize..72), 1..100),
    ) {
        let cfg = SimConfig::paper(2);
        let mut net = Network::new(cfg, TestMin);
        for &(s, d) in &pairs {
            if s != d {
                net.generate(ofar_topology::NodeId::from(s), ofar_topology::NodeId::from(d));
            }
        }
        let expected = net.stats().generated_packets;
        let mut guard = 0u64;
        while !net.drained() {
            net.step();
            guard += 1;
            prop_assert!(guard < 200_000, "engine failed to drain");
        }
        prop_assert_eq!(net.stats().delivered_packets, expected);
        prop_assert_eq!(net.phits_in_system(), 0);
        // every delivery within the minimal-hop ceiling
        prop_assert!(net.stats().avg_hops() <= 3.0 + 1e-9);
    }

    #[test]
    fn config_validation_catches_undersized_buffers(
        packet_size in 1usize..64,
        buf in 1usize..64,
    ) {
        let mut cfg = SimConfig::paper(2);
        cfg.packet_size = packet_size;
        cfg.buf_local = buf;
        let valid = cfg.validate().is_ok();
        let expect = buf >= packet_size
            && BUF_GLOBAL >= packet_size
            && cfg.buf_injection >= packet_size;
        prop_assert_eq!(valid, expect);
    }

    #[test]
    fn ring_configs_validate_bubble_capacity(
        packet_size in 1usize..32,
        buf_ring in 1usize..96,
    ) {
        let mut cfg = SimConfig::paper(2).with_ring(RingMode::Embedded);
        cfg.packet_size = packet_size;
        cfg.buf_ring = buf_ring;
        // keep the other buffers valid so only the ring constraint varies
        cfg.buf_local = 64.max(packet_size);
        cfg.buf_injection = 64.max(packet_size);
        let valid = cfg.validate().is_ok();
        prop_assert_eq!(valid, buf_ring >= 2 * packet_size);
    }
}

#[test]
fn zero_traffic_is_a_fixed_point() {
    let cfg = SimConfig::paper(2);
    let mut net = Network::new(cfg, TestMin);
    net.run(500);
    assert_eq!(net.stats().delivered_packets, 0);
    assert_eq!(net.phits_in_system(), 0);
    assert_eq!(net.audit_now(), []);
}
