//! Post-saturation stability regressions: the overload-robustness bar.
//!
//! The paper's figures stop at the saturation knee; these tests drive
//! OFAR and Piggybacking **2× past** their own measured saturation
//! throughput with the congestion-management layer enabled and pin the
//! issue's stability guarantees: no watchdog stall, ≥90% throughput
//! retention, a finite delivered-latency tail, and — property-tested
//! over the whole valid CM parameter space — full drainage once the
//! offered load drops back below saturation.

use ofar::prelude::*;
use proptest::prelude::*;

/// Shortened windows (same shape as the library's own overload tests):
/// long enough past the knee for the token buckets and the ring guard
/// to engage, short enough for a debug-mode test run.
fn quick() -> OverloadOpts {
    OverloadOpts {
        sat: SteadyOpts {
            warmup: 800,
            measure: 1_500,
        },
        warmup: 800,
        measure: 2_500,
    }
}

fn assert_stable(p: &OverloadPoint) {
    assert!(p.cm, "the stability claim is the CM-enabled half");
    assert!(p.saturation > 0.0);
    assert!(
        p.offered > p.saturation,
        "overload segment must actually exceed saturation: {p:?}"
    );
    assert!(
        p.stable(0.9),
        "{} must retain ≥90% of saturation at 2× with CM on: {p:?}",
        p.mechanism.name()
    );
    assert!(p.stall.is_none(), "post-saturation stall: {:?}", p.stall);
    // The latency tail of packets generated past the knee is bounded:
    // finite, positive, and inside the overload segment itself (an
    // unbounded tail would show up as p99 pinned at the segment length).
    let segment = 800.0 + 2_500.0;
    assert!(
        p.p99_latency > 0.0 && p.p99_latency < segment,
        "p99 latency must stay inside the overload segment: {p:?}"
    );
    assert!(p.jain > 0.0 && p.jain <= 1.0 + 1e-12);
}

#[test]
fn ofar_is_stable_2x_past_saturation_under_adversarial_traffic() {
    let cfg = SimConfig::paper(2).with_cm();
    let shape = Shape::Overload { opts: quick() };
    let point = Point::new(
        cfg,
        MechanismKind::Ofar,
        &TrafficSpec::adversarial(1),
        11,
        shape,
    );
    let (p, NoHooks) = overload_point(&point, NoHooks);
    assert_stable(&p);
    // ADV+1 pushes OFAR onto the escape ring; the guarded ring must
    // still be admitting (protection defers entry, never denies it).
    assert!(p.ring_entries > 0, "guarded ring must still admit: {p:?}");
}

#[test]
fn pb_is_stable_2x_past_saturation_under_adversarial_traffic() {
    let cfg = SimConfig::paper(2).with_cm();
    let shape = Shape::Overload { opts: quick() };
    let point = Point::new(
        cfg,
        MechanismKind::Pb,
        &TrafficSpec::adversarial(1),
        13,
        shape,
    );
    let (p, NoHooks) = overload_point(&point, NoHooks);
    assert_stable(&p);
}

/// Drive an overload pulse through a CM-enabled OFAR network, then drop
/// the offered load below saturation and require the backlog to drain
/// completely: every generated packet delivered, no progress stall, and
/// a balanced credit ledger at the end.
fn pulse_then_drain(cfg: SimConfig, seed: u64) -> proptest::TestCaseResult {
    let kind = MechanismKind::Ofar;
    let cfg = kind.adapt_config(cfg);
    prop_assert!(cfg.validate().is_ok(), "sampled CM config must be valid");
    let mut net = Network::new(cfg, kind.build(&cfg, seed));
    let topo = Dragonfly::new(cfg.params);
    let mut gen = TrafficGen::new(&topo, TrafficSpec::adversarial(1), seed + 1);
    let nodes = net.num_nodes();
    let watchdog = derive_watchdog(&cfg);

    // Phase 1 — overload: 0.9 phits/(node·cycle) is ~2× OFAR's ADV+1
    // saturation at h=2, far past any sampled throttle target.
    let mut bern = Bernoulli::new(0.9, cfg.packet_size, seed + 2);
    for _ in 0..1_000 {
        bern.cycle(nodes, |src| {
            let dst = gen.destination(src);
            net.generate(src, dst);
        });
        net.step();
    }

    // Phase 2 — back below saturation: a trickle the network can absorb
    // while it works off the phase-1 backlog.
    let mut bern = Bernoulli::new(0.05, cfg.packet_size, seed + 3);
    for _ in 0..1_000 {
        bern.cycle(nodes, |src| {
            let dst = gen.destination(src);
            net.generate(src, dst);
        });
        net.step();
    }

    // Phase 3 — drain to empty. Progress is watchdog-bounded: even the
    // slowest sampled throttle floor (`cm_min_rate`) must keep packets
    // flowing, and the hysteresis release must eventually restore full
    // rate as occupancy decays.
    let deadline = net.now() + 100_000;
    let mut last_delivered = net.stats().delivered_packets;
    let mut last_at = net.now();
    while net.stats().delivered_packets < net.stats().generated_packets {
        net.step();
        let d = net.stats().delivered_packets;
        if d > last_delivered {
            last_delivered = d;
            last_at = net.now();
        }
        prop_assert!(
            net.now() - last_at <= 8 * watchdog,
            "delivery stalled during post-overload drain at cycle {} \
             ({} of {} delivered)",
            net.now(),
            last_delivered,
            net.stats().generated_packets
        );
        prop_assert!(
            net.now() < deadline,
            "backlog failed to drain within the deadline ({} of {})",
            last_delivered,
            net.stats().generated_packets
        );
    }
    prop_assert_eq!(net.stats().delivered_packets, net.stats().generated_packets);
    prop_assert_eq!(net.phits_in_system(), 0);
    assert_eq!(net.audit_now(), []);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Any valid CM configuration — throttle target, hysteresis band and
    /// rate floor sampled across their whole legal ranges — never
    /// deadlocks and delivers every packet once the offered load drops
    /// back below saturation. (Sampled as integer percentages: the
    /// vendored proptest shim only carries integer range strategies.)
    #[test]
    fn any_valid_cm_config_drains_after_overload(
        target_pct in 5u32..95,
        hyst_pct in 0u32..95,
        min_rate_pct in 2u32..80,
        seed in 1u64..1_000,
    ) {
        let mut cfg = SimConfig::paper(2).with_seed(seed).with_cm();
        cfg.cm_target_occupancy = f64::from(target_pct) / 100.0;
        // `hysteresis < target` by construction, so every sampled point
        // is a *valid* configuration (the release threshold stays
        // positive and recovery is always reachable).
        cfg.cm_hysteresis = cfg.cm_target_occupancy * f64::from(hyst_pct) / 100.0;
        cfg.cm_min_rate = f64::from(min_rate_pct) / 100.0;
        pulse_then_drain(cfg, seed)?;
    }
}
