//! §VII fault tolerance, end to end: with `k = h` embedded escape rings,
//! OFAR keeps delivering every packet while up to `h − 1` random global
//! links die under it; a deliberately partitioned network is *diagnosed*
//! (structured [`StallKind::Partition`]) instead of hanging or being
//! mislabelled a routing deadlock.

use ofar::prelude::*;
use ofar::{RunConfig, StallKind};

/// OFAR under ADV+h with `h − 1` random global links failing mid-burst:
/// every packet must still be delivered, with no watchdog verdict.
#[test]
fn ofar_delivers_fully_with_h_minus_one_failed_links() {
    for h in [2usize, 3] {
        let mut cfg = SimConfig::paper(h);
        cfg.escape_rings = h; // the full edge-disjoint ring family
        let topo = Dragonfly::new(cfg.params);
        let packets_per_node = 3;
        let plan = FaultPlan::random_global_failures(&topo, h - 1, 150, 0xF00D + h as u64);
        let r = burst_faulted(
            cfg,
            MechanismKind::Ofar,
            &TrafficSpec::adversarial(h),
            packets_per_node,
            17,
            plan,
            RunConfig::default(),
        );
        assert_eq!(r.stall, None, "h={h}: watchdog fired: {:?}", r.stall);
        assert!(r.cycles.is_some(), "h={h}: burst did not drain");
        assert_eq!(
            r.delivered,
            (topo.num_nodes() * packets_per_node) as u64,
            "h={h}: lost packets on a connected degraded network"
        );
    }
}

/// A fault plan that kills no link is no fault at all: the faulted burst
/// drains in exactly the cycles of the plain one.
#[test]
fn zero_failures_matches_plain_burst() {
    let mut cfg = SimConfig::paper(2);
    cfg.escape_rings = 1;
    let topo = Dragonfly::new(cfg.params);
    let (uniform, seed) = (TrafficSpec::uniform(), 9);
    // Zero failures at the `faults` study's strike cycle, with its seed.
    let plan = FaultPlan::random_global_failures(&topo, 0, 200, seed ^ 0xFA17);
    let faulted = burst_faulted(
        cfg,
        MechanismKind::Ofar,
        &uniform,
        2,
        seed,
        plan,
        RunConfig::default(),
    );
    let cfg = MechanismKind::Ofar.adapt_config(cfg);
    let plain = burst(cfg, MechanismKind::Ofar, &uniform, 2, seed);
    assert_eq!(faulted.cycles, plain.cycles);
    assert_eq!(faulted.delivered, (topo.num_nodes() * 2) as u64);
}

/// Killing every global link of group 0 isolates it. The run must end
/// with a `Partition` verdict naming undeliverable pairs — not hang, and
/// not be written off as a routing deadlock.
#[test]
fn isolated_group_is_reported_as_partition() {
    let h = 2;
    let mut cfg = SimConfig::paper(h);
    cfg.escape_rings = h;
    let topo = Dragonfly::new(cfg.params);
    let a = topo.routers_per_group();
    let mut plan = FaultPlan::default();
    for i in 0..a {
        let r = RouterId::from(i);
        for k in 0..h {
            let (peer, _) = topo.global_neighbor(r, k);
            plan = plan.fail_link_at(0, r, peer);
        }
    }
    let r = burst_faulted(
        cfg,
        MechanismKind::Ofar,
        &TrafficSpec::adversarial(h),
        2,
        23,
        plan,
        // small window: the verdict is the point, not the wait
        RunConfig {
            watchdog: Some(1_500),
        },
    );
    assert_eq!(r.cycles, None, "a partitioned burst cannot drain");
    match r.stall {
        Some(StallKind::Partition {
            ref unreachable_pairs,
        }) => {
            assert!(
                !unreachable_pairs.is_empty(),
                "partition verdict must name undeliverable pairs"
            );
            // every reported pair straddles the cut around group 0
            for &(src, dst) in unreachable_pairs {
                let gs = topo.group_of(topo.router_of_node(src)).idx();
                let gd = topo.group_of(topo.router_of_node(dst)).idx();
                assert!(
                    (gs == 0) != (gd == 0),
                    "pair {src:?}→{dst:?} does not cross the group-0 cut"
                );
            }
        }
        ref other => panic!("expected a partition verdict, got {other:?}"),
    }
}

/// A link whose error rate pins at 100% can never complete a transfer:
/// the link layer must exhaust its retry budget, escalate the link to
/// the §VII fail-stop machinery, and let degraded routing finish the
/// job — every packet still delivered exactly once, no watchdog verdict.
#[test]
fn hopeless_link_escalates_to_fail_stop_and_burst_drains() {
    let h = 2;
    let mut cfg = SimConfig::paper(h);
    cfg.escape_rings = h;
    // An impatient link layer: a short retry budget and a tight backoff
    // cap so the hopeless link is condemned long before the progress
    // watchdog would fire (at the defaults, the capped timeout alone is
    // ~6k cycles per late retry).
    cfg.llr_retry_budget = 8;
    cfg.llr_backoff_cap = 2;
    let topo = Dragonfly::new(cfg.params);
    let link = random_global_links(&topo, 1, 11)[0];
    // ppm = 1_000_000: every phit of every transfer on this link errors.
    let plan = FaultPlan::default().set_link_ber_at(0, link.0, link.1, 1_000_000);
    let r = burst_faulted(
        cfg,
        MechanismKind::Ofar,
        &TrafficSpec::adversarial(h),
        3,
        29,
        plan,
        RunConfig::default(),
    );
    assert_eq!(r.stall, None, "degraded routing must finish: {:?}", r.stall);
    assert_eq!(
        r.delivered,
        (topo.num_nodes() * 3) as u64,
        "lost packets after escalation"
    );
    assert!(
        r.stats.llr_escalations >= 1,
        "the hopeless link must be escalated: {:?}",
        r.stats
    );
    assert!(
        r.stats.link_failures >= 1,
        "escalation must reach the fail-stop machinery"
    );
    assert_eq!(r.stats.duplicate_deliveries, 0);
}

/// A percent-level bit-error rate on every link: the link layer retries
/// and every packet still arrives exactly once, each loss (wire drop or
/// CRC discard) recovered by exactly one retransmission.
#[test]
fn ofar_delivers_fully_under_percent_level_ber() {
    let cfg = SimConfig::paper(2).with_ber(1e-2);
    let topo = Dragonfly::new(cfg.params);
    let r = burst_faulted(
        cfg,
        MechanismKind::Ofar,
        &TrafficSpec::uniform(),
        2,
        7,
        FaultPlan::default(),
        RunConfig::default(),
    );
    let s = &r.stats;
    let once = (r.delivered, s.duplicate_deliveries);
    assert_eq!(
        once,
        ((topo.num_nodes() * 2) as u64, 0),
        "lossy burst must fully drain: {r:?}"
    );
    assert!(s.llr_retransmits > 0, "1% BER must force retries: {s:?}");
    assert_eq!(s.llr_escalations, 0);
    assert_eq!(r.stall, None);
    assert_eq!(s.llr_retransmits, s.llr_wire_drops + s.llr_crc_drops);
}

/// A zero bit-error rate leaves the link layer idle: no retry, no drop.
#[test]
fn zero_ber_disables_the_link_layer() {
    let cfg = SimConfig::paper(2).with_ber(0.0);
    let topo = Dragonfly::new(cfg.params);
    let r = burst_faulted(
        cfg,
        MechanismKind::Min,
        &TrafficSpec::uniform(),
        1,
        3,
        FaultPlan::default(),
        RunConfig::default(),
    );
    let s = &r.stats;
    let once = (r.delivered, s.duplicate_deliveries);
    assert_eq!(once, (topo.num_nodes() as u64, 0));
    assert_eq!(s.llr_retransmits, 0);
    assert_eq!(s.llr_crc_drops + s.llr_wire_drops, 0);
}

/// A network-wide error rate so high that goodput collapses is a
/// *retransmission storm*: links are alive and the wires are busy, so
/// the verdict must name the offending links and the retry count — not
/// call it a deadlock (nothing is cyclically blocked) or a partition.
#[test]
fn network_wide_noise_is_diagnosed_as_retransmission_storm() {
    let h = 2;
    let mut cfg = SimConfig::paper(h).with_ber(0.9);
    // A budget the storm cannot exhaust inside the watchdog window, so
    // no link escapes into fail-stop and the storm stays a storm.
    cfg.llr_retry_budget = 1_000_000;
    let topo = Dragonfly::new(cfg.params);
    let r = burst_faulted(
        cfg,
        MechanismKind::Min,
        &TrafficSpec::uniform(),
        2,
        37,
        FaultPlan::default(),
        // small window: the verdict is the point, not the wait
        RunConfig {
            watchdog: Some(2_000),
        },
    );
    assert_eq!(r.cycles, None, "a 90% BER burst cannot drain");
    assert!(
        r.delivered < (topo.num_nodes() * 2) as u64,
        "goodput should have collapsed"
    );
    match r.stall {
        Some(StallKind::RetransmissionStorm {
            ref links,
            retransmits,
        }) => {
            assert!(!links.is_empty(), "storm verdict must name links");
            assert!(retransmits >= 64, "storm verdict needs real retries");
            assert!(
                links.windows(2).all(|w| w[0].2 >= w[1].2),
                "links must be sorted worst-first: {links:?}"
            );
        }
        ref other => panic!("expected a retransmission storm, got {other:?}"),
    }
}

/// A transient failure (link dies, then is repaired) must heal: the
/// burst drains fully once the link returns, even for oblivious MIN
/// whose packets just wait out the outage.
#[test]
fn transient_failure_heals_and_drains() {
    let h = 2;
    let cfg = SimConfig::paper(h);
    let topo = Dragonfly::new(cfg.params);
    let link = random_global_links(&topo, 1, 7)[0];
    let plan = FaultPlan::default().transient_link(100, 2_000, link.0, link.1);
    let r = burst_faulted(
        cfg,
        MechanismKind::Min,
        &TrafficSpec::uniform(),
        2,
        31,
        plan,
        RunConfig::default(),
    );
    assert_eq!(r.stall, None, "repaired network must drain: {:?}", r.stall);
    assert_eq!(r.delivered, (topo.num_nodes() * 2) as u64);
}
