//! Integration tests for the `Hooks` seam and its `Auditor`: the
//! default hook costs nothing, a healthy run must be audit-clean, and
//! the report machinery must actually have looked.

mod common;

use common::TestMin;
use ofar_engine::{Auditor, Fabric, Network, NoHooks, SimConfig};
use ofar_topology::NodeId;

fn audited(cfg: SimConfig, deep_interval: u64) -> Network<TestMin, Auditor> {
    let hooks = Auditor::with_deep_interval(deep_interval);
    Network::with_hooks(Fabric::new(cfg), TestMin, hooks)
}

/// `NoHooks` is zero-sized, and the one-parameter spelling every caller
/// outside the harnesses uses names exactly the `NoHooks` network.
#[test]
fn default_hooks_are_zero_sized_and_implicit() {
    assert_eq!(std::mem::size_of::<NoHooks>(), 0);
    fn same<T>(_: &T, _: &T) {}
    let implicit: Network<TestMin> = Network::new(SimConfig::paper(2), TestMin);
    let explicit: Network<TestMin, NoHooks> =
        Network::with_hooks(Fabric::new(SimConfig::paper(2)), TestMin, NoHooks);
    same(&implicit, &explicit);
    // Nothing records, so there is nothing to report.
    let mut net = implicit;
    net.run(10);
    assert!(net.take_audit_report().is_none());
}

/// Uniform random-ish traffic over a healthy network: every fast and
/// deep check passes, and the deep checks demonstrably ran.
#[test]
fn healthy_run_is_audit_clean() {
    let mut net = audited(SimConfig::paper(2), 16);
    let nodes = net.num_nodes();
    for round in 0..4u64 {
        for src in 0..nodes {
            let dst = (src + 7 + round as usize * 13) % nodes;
            if dst != src {
                net.generate(NodeId::from(src), NodeId::from(dst));
            }
        }
        net.run(50);
    }
    while !net.drained() {
        net.step();
        assert!(net.now() < 50_000, "drain stalled");
    }
    let report = net.take_audit_report().expect("auditing was enabled");
    assert!(report.is_clean(), "{report}");
    // deep + fast checks both contributed
    assert!(report.checks > 10_000, "only {} checks ran", report.checks);
}

/// The report is taken-and-reset: a second take starts from zero.
#[test]
fn take_resets_the_report() {
    let mut net = audited(SimConfig::paper(2), Auditor::DEFAULT_DEEP_INTERVAL);
    net.generate(NodeId::from(0usize), NodeId::from(50usize));
    while !net.drained() {
        net.step();
    }
    let first = net.take_audit_report().expect("enabled");
    assert!(first.checks > 0);
    let second = net.take_audit_report().expect("still enabled");
    // only the forced final deep pass contributes after the reset
    assert!(second.checks < first.checks);
    assert!(second.is_clean());
}

/// Auditing composes with live faults: a fault campaign on OFAR-less
/// minimal traffic (fail and restore a local link mid-run) keeps every
/// conservation law intact — fail-stop is at packet granularity.
#[test]
fn fault_campaign_conserves_under_audit() {
    use ofar_topology::{Dragonfly, RouterId};
    let cfg = SimConfig::paper(2);
    let topo = Dragonfly::new(cfg.params);
    let mut net = audited(cfg, 8);
    let nodes = net.num_nodes();
    let (a, b) = (RouterId::new(0), topo.local_neighbor(RouterId::new(0), 0));
    for src in 0..nodes {
        net.generate(NodeId::from(src), NodeId::from((src + 11) % nodes));
    }
    net.run(20);
    net.fail_link(a, b);
    net.run(60);
    net.restore_link(a, b);
    while !net.drained() {
        net.step();
        assert!(net.now() < 50_000, "drain stalled");
    }
    let report = net.take_audit_report().expect("enabled");
    assert!(report.is_clean(), "{report}");
}
