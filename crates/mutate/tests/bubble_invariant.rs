//! The per-grant ring-entry bubble invariant, end to end.
//!
//! The mutation campaign found that the deep `BubbleLost` check (free
//! space summed over the whole ring < one packet) cannot see a *single*
//! eroded admission: at h=2 the ring drains faster than a burst can
//! wedge it, so `engine-ring-bubble-skip` survived the original stack.
//! The fix is the fast `RingEnterNoBubble` check in `execute_grant`,
//! which re-derives the §IV-C two-packet precondition on every
//! `RingEnter` grant. These tests pin both directions of that check
//! under the same ring-hostile OFAR tuning the oracle harness uses
//! (zero ring patience, misroute threshold admitting nothing — the ring
//! is the only relief valve for a blocked head).

use ofar_core::{burst_net, RunConfig};
use ofar_engine::{AuditViolation, Auditor, EngineMutation, Fabric, Hooks, Network, SimConfig};
use ofar_routing::{MechanismKind, MisrouteThreshold, OfarConfig};
use ofar_traffic::TrafficSpec;

/// OFAR with the ring as the only relief valve, over the
/// mechanism-adapted paper config at h=2, instrumented with `hooks`.
fn ring_hostile_net<H: Hooks>(hooks: H) -> Network<impl ofar_engine::Policy, H> {
    let kind = MechanismKind::Ofar;
    let cfg = kind.adapt_config(SimConfig::paper(2));
    let policy = kind.build_tuned(
        &cfg,
        7,
        Some(OfarConfig {
            ring_patience: 0,
            threshold: MisrouteThreshold::Static {
                th_min: 0.0,
                th_nonmin: -1.0,
            },
            ..OfarConfig::base()
        }),
        None,
    );
    Network::with_hooks(Fabric::new(cfg), policy, hooks)
}

#[test]
fn eroded_bubble_is_caught_at_the_first_bad_admission() {
    let mut net = ring_hostile_net((
        Auditor::with_deep_interval(8),
        EngineMutation::RingBubbleSkip,
    ));
    let result = burst_net(
        &mut net,
        &TrafficSpec::adversarial(1),
        8,
        7,
        RunConfig::default(),
    );
    assert!(
        result.stats.ring_entries > 0,
        "workload must exercise the ring for the seam to matter"
    );
    let report = result.audit.expect("audit armed");
    assert!(!report.is_clean(), "eroded admissions must be reported");
    let v = report
        .violations
        .iter()
        .find_map(|v| match v {
            AuditViolation::RingEnterNoBubble {
                credits, required, ..
            } => Some((*credits, *required)),
            _ => None,
        })
        .expect("the violation must be the per-grant bubble check");
    let size = 8; // SimConfig::paper packet_size
    assert_eq!(v.1, 2 * size, "required space is the two-packet bubble");
    assert!(v.0 < 2 * size, "witnessed credits must actually violate it");
}

#[test]
fn healthy_engine_enters_the_ring_without_violations() {
    let mut net = ring_hostile_net(Auditor::with_deep_interval(8));
    let result = burst_net(
        &mut net,
        &TrafficSpec::adversarial(1),
        8,
        7,
        RunConfig::default(),
    );
    assert!(
        result.stats.ring_entries > 0,
        "the hostile tuning must still drive real ring entries"
    );
    let report = result.audit.expect("audit armed");
    assert!(
        report.is_clean(),
        "unmutated flow control must pass the per-grant check: {report}"
    );
}
