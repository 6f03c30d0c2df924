//! §VII degraded operation: burst delivery under live link failures.
//!
//! For every mechanism × escape-ring count × failure count, a burst is
//! injected and a seeded fault plan kills that many random global links
//! at cycle 200; the table reports the delivered fraction, drain time,
//! latency and throughput, plus the watchdog's diagnosis for runs that
//! could not finish (oblivious mechanisms on a severed minimal path, or
//! genuinely partitioned networks).

use ofar_core::faults::{degradation_sweep, DegradationPoint};
use ofar_core::prelude::*;
use ofar_core::StallKind;
use ofar_core::Table;

fn outcome(p: &DegradationPoint) -> String {
    match &p.stall {
        None => "drained".into(),
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
    let scale = ofar_bench::announce("faults");
    let cfg = scale.cfg();
    let h = scale.h;

    let mechs = MechanismKind::paper_set();
    let ring_counts = [1, h];
    let mut failure_counts = vec![0, h.saturating_sub(1), h, 2 * h];
    failure_counts.dedup();

    let pts = degradation_sweep(
        cfg,
        &mechs,
        &TrafficSpec::adversarial(h),
        scale.burst_packets,
        &ring_counts,
        &failure_counts,
        scale.seed,
    );

    let mut t = Table::new(
        format!(
            "Degraded operation under ADV+{h}: burst delivery vs failed global links (h={h}, {} nodes, {} pkts/node)",
            cfg.params.nodes(),
            scale.burst_packets,
        ),
        &[
            "mechanism",
            "rings",
            "failed links",
            "delivered",
            "drain cycles",
            "avg latency",
            "throughput",
            "outcome",
        ],
    );
    for p in &pts {
        t.push(vec![
            p.mechanism.name().to_string(),
            p.rings.to_string(),
            p.failures.to_string(),
            format!("{:.1}%", p.delivered_fraction * 100.0),
            p.cycles.map_or("—".into(), |c| c.to_string()),
            format!("{:.0}", p.avg_latency),
            format!("{:.3}", p.throughput),
            outcome(p),
        ]);
    }
    ofar_bench::emit(&t);
}
