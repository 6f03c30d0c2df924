//! Robustness studies beyond the paper's figures: live link failures
//! (§VII), lossy links under the link-level retransmission layer, and
//! post-saturation overload.

use crate::start;
use ofar_core::faults::{ber_sweep, degradation_sweep};
use ofar_core::overload::{overload_sweep, OverloadOpts, OVERLOAD_FACTOR};
use ofar_core::prelude::*;
use std::process::ExitCode;

/// The `outcome` column: `ok` for a run that finished, else the
/// watchdog's diagnosis in brief.
fn outcome(stall: &Option<StallKind>, ok: &str) -> String {
    match stall {
        None => ok.into(),
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

/// §VII degraded operation: burst delivery under live link failures.
///
/// For every mechanism × escape-ring count × failure count, a burst is
/// injected and a seeded fault plan kills that many random global links
/// at cycle 200; the table reports the delivered fraction, drain time,
/// latency and throughput, plus the watchdog's diagnosis for runs that
/// could not finish (oblivious mechanisms on a severed minimal path, or
/// genuinely partitioned networks).
pub(crate) fn link_failures(args: &[String]) -> ExitCode {
    let scale = start("faults", args);
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
        SUITE_SEED,
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
            outcome(&p.stall, "drained"),
        ]);
    }
    println!("{t}");
    ExitCode::SUCCESS
}

/// Transient faults: burst delivery over lossy links, per mechanism and
/// per bit-error rate.
///
/// For every mechanism × BER, a burst is injected while every link
/// suffers independent per-phit bit errors; the link-level retransmission
/// layer (CRC-32, seq/ack replay, timeout/backoff — see
/// `ofar_engine::llr`) recovers every corrupted or dropped transfer. The
/// table reports delivered fraction, goodput, mean and p99 latency, and
/// the retry/drop counters — the latency tail is where the retransmit
/// timeouts show up first.
pub(crate) fn ber(args: &[String]) -> ExitCode {
    let scale = start("ber", args);
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
        SUITE_SEED,
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
            outcome(&p.stall, "drained"),
        ]);
    }
    println!("{t}");
    ExitCode::SUCCESS
}

/// Post-saturation overload: throughput retention, latency tail and
/// fairness at 2× each mechanism's saturation load, congestion
/// management off vs on.
///
/// For every mechanism × {CM off, CM on} × {UN, ADV+1}, the runner
/// measures the mechanism's saturation throughput and then drives twice
/// that load open-loop through the same configuration. The table
/// reports how much of the saturation throughput survives (`retention`,
/// acceptance floor 0.9 with CM on), the p99 latency of delivered
/// packets, the Jain fairness index over per-source deliveries, and the
/// watchdog's diagnosis for runs that stopped making progress —
/// including the `saturation` verdict that distinguishes diverging
/// overload backlog from true routing livelock.
pub(crate) fn overload(args: &[String]) -> ExitCode {
    let scale = start("overload", args);
    let cfg = scale.cfg();
    let h = scale.h;
    let opts = OverloadOpts {
        sat: scale.steady,
        warmup: scale.steady.warmup,
        measure: scale.steady.measure,
    };

    let mechs = MechanismKind::paper_set();
    let mut t = Table::new(
        format!(
            "Post-saturation overload at {:.1}× saturation (h={h}, {} nodes): CM off vs on",
            OVERLOAD_FACTOR,
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
        let pts = overload_sweep(cfg, &mechs, &spec, opts, SUITE_SEED);
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
                outcome(&p.stall, "stable"),
            ]);
        }
    }
    println!("{t}");
    ExitCode::SUCCESS
}
