//! Integration tests of the link-level retransmission subsystem: end-to-end
//! delivery guarantees under seeded loss/corruption, bit-exact determinism,
//! and the accounting identities that tie the LLR counters together.
//!
//! Uses the trivially deadlock-free `TestMin` policy so every property
//! isolates the link layer, not a routing mechanism.

mod common;

use common::TestMin;
use ofar_engine::{FaultPlan, Network, SimConfig};
use ofar_topology::{NodeId, RouterId};
use proptest::prelude::*;

/// Drain the network, panicking if it stalls. Returns the drain cycle.
fn drain(net: &mut Network<TestMin>, guard: u64) -> u64 {
    while !net.drained() {
        net.step();
        assert!(net.now() < guard, "drain stalled at cycle {}", net.now());
    }
    net.now()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactly-once delivery under uniform Bernoulli BER up to 10%: every
    /// generated packet is delivered exactly once, and every transfer lost
    /// on the wire (dropped or corrupted) is retransmitted exactly once —
    /// no spurious timeouts, no duplicates reaching a node.
    #[test]
    fn exactly_once_delivery_under_ber(
        pairs in prop::collection::vec((0usize..72, 0usize..72), 1..40),
        ber_pct in 0u32..=10,
        seed in 0u64..1_000,
    ) {
        let mut cfg = SimConfig::paper(2).with_ber(f64::from(ber_pct) / 100.0);
        cfg.seed = seed;
        // TestMin is not fault-aware: raise the retry budget so the
        // probability of escalating a link to fail-stop is negligible
        // (p_loss^30 < 1e-7 even at 10% BER).
        cfg.llr_retry_budget = 30;
        let mut net = Network::new(cfg, TestMin);
        prop_assert_eq!(net.llr_enabled(), ber_pct > 0);

        let mut generated = 0u64;
        for &(s, d) in &pairs {
            if s != d {
                net.generate(NodeId::from(s), NodeId::from(d));
                generated += 1;
            }
        }
        drain(&mut net, 400_000);

        let stats = net.stats();
        prop_assert_eq!(stats.delivered_packets, generated);
        prop_assert_eq!(stats.duplicate_deliveries, 0);
        prop_assert_eq!(stats.llr_escalations, 0);
        // Each loss event (wire drop or CRC discard) triggers exactly one
        // retransmission once the network has drained.
        prop_assert_eq!(
            stats.llr_retransmits,
            stats.llr_wire_drops + stats.llr_crc_drops
        );
        // Phit conservation: everything generated was delivered.
        let size = net.cfg().packet_size as u64;
        prop_assert_eq!(stats.delivered_phits, generated * size);
        prop_assert_eq!(net.phits_in_system(), 0);
        assert_eq!(net.audit_now(), []);
    }

    /// Same config, seed and traffic ⇒ bit-identical retry counters and
    /// drain cycle. The LLR fate sampler must be a pure function of the
    /// seeded stream, never of host state.
    #[test]
    fn llr_is_deterministic(
        pairs in prop::collection::vec((0usize..72, 0usize..72), 1..30),
        seed in 0u64..1_000,
    ) {
        let run = |pairs: &[(usize, usize)], seed: u64| {
            let mut cfg = SimConfig::paper(2).with_ber(0.05);
            cfg.seed = seed;
            cfg.llr_retry_budget = 30;
            let mut net = Network::new(cfg, TestMin);
            for &(s, d) in pairs {
                if s != d {
                    net.generate(NodeId::from(s), NodeId::from(d));
                }
            }
            let end = drain(&mut net, 400_000);
            let s = net.stats();
            (
                end,
                s.llr_retransmits,
                s.llr_wire_drops,
                s.llr_crc_drops,
                s.llr_dup_drops,
                s.llr_nacks,
                s.llr_timeouts,
                s.delivered_packets,
            )
        };
        prop_assert_eq!(run(&pairs, seed), run(&pairs, seed));
    }
}

/// A single scheduled `CorruptPhit` on an otherwise clean network: the
/// receiver discards exactly one transfer on CRC, nacks it, and the sender
/// replays it once. The packet still arrives exactly once.
#[test]
fn one_shot_corruption_is_nacked_and_replayed() {
    let cfg = SimConfig::paper(2); // ber = 0
    let mut net = Network::new(cfg, TestMin);
    assert!(!net.llr_enabled());
    // Scheduling a transient fault auto-enables the link layer.
    net.set_fault_plan(FaultPlan::new().corrupt_phit_at(0, RouterId::new(0), RouterId::new(1)));
    assert!(net.llr_enabled());

    // Node 0 lives on router 0, node 2 on router 1 (p = 2): minimal
    // routing crosses exactly the sabotaged local link.
    net.generate(NodeId::from(0usize), NodeId::from(2usize));
    while !net.drained() {
        net.step();
        assert!(net.now() < 10_000, "drain stalled");
    }

    let stats = net.stats();
    assert_eq!(stats.delivered_packets, 1);
    assert_eq!(stats.duplicate_deliveries, 0);
    assert_eq!(stats.llr_crc_drops, 1);
    assert_eq!(stats.llr_nacks, 1);
    assert_eq!(stats.llr_retransmits, 1);
    assert_eq!(stats.llr_wire_drops, 0);
    assert_eq!(stats.llr_timeouts, 0, "nack must beat the timeout");
    assert_eq!(net.audit_now(), []);
}

/// A single scheduled `DropPhit`: the transfer never arrives, so recovery
/// must come from the retransmit timeout, not a nack.
#[test]
fn one_shot_drop_recovers_via_timeout() {
    let cfg = SimConfig::paper(2);
    let mut net = Network::new(cfg, TestMin);
    net.set_fault_plan(FaultPlan::new().drop_phit_at(0, RouterId::new(0), RouterId::new(1)));

    net.generate(NodeId::from(0usize), NodeId::from(2usize));
    while !net.drained() {
        net.step();
        assert!(net.now() < 10_000, "drain stalled");
    }

    let stats = net.stats();
    assert_eq!(stats.delivered_packets, 1);
    assert_eq!(stats.llr_wire_drops, 1);
    assert_eq!(stats.llr_crc_drops, 0);
    assert_eq!(stats.llr_nacks, 0);
    assert_eq!(stats.llr_timeouts, 1);
    assert_eq!(stats.llr_retransmits, 1);
    assert_eq!(
        net.top_retransmit_links(4),
        vec![(RouterId::new(0), RouterId::new(1), 1)]
    );
    assert_eq!(net.audit_now(), []);
}

/// A flapping link composes transient fail/restore pairs: while the link is
/// down the replay buffer holds the undelivered transfers (unless the
/// fail-stop path force-delivers them), and every packet still arrives
/// exactly once with no duplicates.
#[test]
fn exactly_once_across_a_link_flap() {
    let mut cfg = SimConfig::paper(2).with_ber(0.02);
    cfg.llr_retry_budget = 30;
    let mut net = Network::new(cfg, TestMin);
    // Flap the (0,1) local link twice: down at 20..40 and 120..140.
    net.set_fault_plan(FaultPlan::new().flap_link(
        RouterId::new(0),
        RouterId::new(1),
        20,
        20,
        100,
        2,
    ));

    let mut generated = 0u64;
    for round in 0..6u64 {
        for s in 0..4usize {
            for d in 0..4usize {
                if s != d {
                    net.generate(NodeId::from(s), NodeId::from(d));
                    generated += 1;
                }
            }
        }
        net.run(30 * (round + 1) - net.now());
    }
    while !net.drained() {
        net.step();
        assert!(net.now() < 100_000, "drain stalled");
    }

    let stats = net.stats();
    assert_eq!(stats.delivered_packets, generated);
    assert_eq!(stats.duplicate_deliveries, 0);
    assert_eq!(stats.link_failures, 2);
    assert_eq!(stats.link_repairs, 2);
    assert_eq!(net.audit_now(), []);
}
