//! Transient faults: burst delivery over lossy links, per mechanism and
//! per bit-error rate.
//!
//! For every mechanism × BER, a burst is injected while every link
//! suffers independent per-phit bit errors; the link-level retransmission
//! layer (CRC-32, seq/ack replay, timeout/backoff — see
//! `ofar_engine::llr`) recovers every corrupted or dropped transfer. The
//! table reports delivered fraction, goodput, mean and p99 latency, and
//! the retry/drop counters — the latency tail is where the retransmit
//! timeouts show up first.

use ofar_core::faults::{ber_sweep, BerPoint};
use ofar_core::prelude::*;
use ofar_core::StallKind;
use ofar_core::Table;

fn outcome(p: &BerPoint) -> String {
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
    let scale = ofar_bench::announce("ber");
    let cfg = scale.cfg();
    let h = scale.h;

    let mechs = [
        MechanismKind::Min,
        MechanismKind::Valiant,
        MechanismKind::Pb,
        MechanismKind::Ofar,
    ];
    let bers = [0.0, 1e-4, 1e-3, 1e-2];

    let pts = ber_sweep(
        cfg,
        &mechs,
        &TrafficSpec::uniform(),
        scale.burst_packets,
        &bers,
        scale.seed,
    );

    let mut t = Table::new(
        format!(
            "Burst delivery vs link bit-error rate under UN (h={h}, {} nodes, {} pkts/node)",
            cfg.params.nodes(),
            scale.burst_packets,
        ),
        &[
            "mechanism",
            "BER",
            "delivered",
            "drain cycles",
            "avg latency",
            "p99 latency",
            "goodput",
            "retransmits",
            "crc drops",
            "wire drops",
            "escalations",
            "outcome",
        ],
    );
    for p in &pts {
        assert_eq!(
            p.duplicate_deliveries,
            0,
            "link layer must dedup: {} at BER {}",
            p.mechanism.name(),
            p.ber
        );
        t.push(vec![
            p.mechanism.name().to_string(),
            format!("{:.0e}", p.ber),
            format!("{:.1}%", p.delivered_fraction * 100.0),
            p.cycles.map_or("—".into(), |c| c.to_string()),
            format!("{:.0}", p.avg_latency),
            format!("{:.0}", p.p99_latency),
            format!("{:.3}", p.throughput),
            p.retransmits.to_string(),
            p.crc_drops.to_string(),
            p.wire_drops.to_string(),
            p.escalations.to_string(),
            outcome(p),
        ]);
    }
    ofar_bench::emit(&t);
}
