//! Post-saturation overload: throughput retention, latency tail and
//! fairness at 2× each mechanism's saturation load, congestion
//! management off vs on.
//!
//! For every mechanism × {CM off, CM on} × {UN, ADV+1}, the runner
//! measures the mechanism's saturation throughput and then drives twice
//! that load open-loop through the same configuration. The table
//! reports how much of the saturation throughput survives (`retention`,
//! acceptance floor 0.9 with CM on), the p99 latency of delivered
//! packets, the Jain fairness index over per-source deliveries, and the
//! watchdog's diagnosis for runs that stopped making progress —
//! including the `saturation` verdict that distinguishes diverging
//! overload backlog from true routing livelock.

use ofar_core::overload::{overload_sweep, OverloadOpts, OverloadPoint};
use ofar_core::prelude::*;
use ofar_core::StallKind;
use ofar_core::Table;

fn outcome(p: &OverloadPoint) -> String {
    match &p.stall {
        None => "stable".into(),
        Some(StallKind::Partition { unreachable_pairs }) => {
            format!("partition ({} pairs)", unreachable_pairs.len())
        }
        Some(StallKind::RetransmissionStorm { links, retransmits }) => {
            format!("retx storm ({} links, {retransmits} retries)", links.len())
        }
        Some(StallKind::Deadlock { stalled_routers }) => {
            format!("deadlock ({} routers)", stalled_routers.len())
        }
        Some(StallKind::Livelock { stalled_routers }) => {
            format!("livelock ({} routers)", stalled_routers.len())
        }
        Some(StallKind::Saturation { backlog, .. }) => {
            format!("saturation ({backlog} backlog)")
        }
    }
}

fn main() {
    let scale = ofar_bench::announce("overload");
    let cfg = scale.cfg();
    let h = scale.h;
    let opts = OverloadOpts {
        sat: scale.steady,
        warmup: scale.steady.warmup,
        measure: scale.steady.measure,
        ..OverloadOpts::default()
    };

    let mechs = MechanismKind::paper_set();
    let mut t = Table::new(
        format!(
            "Post-saturation overload at {:.1}× saturation (h={h}, {} nodes): CM off vs on",
            opts.factor,
            cfg.params.nodes(),
        ),
        &[
            "mechanism",
            "pattern",
            "cm",
            "saturation",
            "offered",
            "throughput",
            "retention",
            "p99",
            "jain",
            "deferrals",
            "outcome",
        ],
    );
    for spec in [TrafficSpec::uniform(), TrafficSpec::adversarial(1)] {
        let pts = overload_sweep(cfg, &mechs, &spec, opts, scale.seed);
        for p in &pts {
            t.push(vec![
                p.mechanism.name().to_string(),
                spec.label(),
                if p.cm { "on" } else { "off" }.to_string(),
                format!("{:.3}", p.saturation),
                format!("{:.3}", p.offered),
                format!("{:.3}", p.throughput),
                format!("{:.2}", p.retention),
                format!("{:.0}", p.p99_latency),
                format!("{:.3}", p.jain),
                p.throttle_deferrals.to_string(),
                outcome(p),
            ]);
        }
    }
    ofar_bench::emit(&t);
}
