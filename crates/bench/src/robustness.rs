//! Robustness studies beyond the paper's figures: live link failures
//! (§VII), lossy links under the link-level retransmission layer, and
//! post-saturation overload.
//!
//! Each study is one flat point list mapped by one `par_iter` over the
//! runner it needs (a burst for `faults` and `ber`, [`overload_point`]
//! for `overload`), and prints its table straight from the runner's
//! result.

use ofar_core::overload::{OverloadOpts, OVERLOAD_FACTOR};
use ofar_core::prelude::*;
use ofar_core::run::point_seed;
use rayon::prelude::*;

/// Cycle at which the `faults` study's link failures strike: late enough
/// that the burst is in full flight (buffers occupied, phits on the dead
/// links), early enough that most of the drain happens degraded.
const FAIL_AT: u64 = 200;

/// The `outcome` column: `ok` for a run that finished, else the
/// watchdog's diagnosis in brief.
fn outcome(stall: &Option<StallKind>, ok: &str) -> String {
    stall.as_ref().map_or(ok.into(), ToString::to_string)
}

/// The `delivered` column: delivered packets over the `injected` ones.
fn delivered(r: &BurstResult, injected: usize) -> String {
    format!("{:.1}%", r.delivered as f64 / injected as f64 * 100.0)
}

/// Throughput over a burst's drain: delivered phits per node-cycle, 0
/// for a watchdog-aborted run (latency and delivered fraction carry the
/// signal instead). Retransmitted phits do not count.
fn drain_throughput(r: &BurstResult, cfg: &SimConfig) -> f64 {
    match r.cycles {
        Some(c) if c > 0 => {
            (r.delivered * cfg.packet_size as u64) as f64 / (c as f64 * cfg.params.nodes() as f64)
        }
        _ => 0.0,
    }
}

/// The `faults` study's points, `(mechanism, escape rings, failed
/// links)`: a mechanism without an escape ring runs at the first ring
/// count only (the knob does not affect it).
fn failure_points(
    mechs: &[MechanismKind],
    ring_counts: &[usize],
    failure_counts: &[usize],
) -> Vec<(MechanismKind, usize, usize)> {
    let mut points = Vec::new();
    for &kind in mechs {
        let rings = if kind.needs_ring() {
            ring_counts
        } else {
            &ring_counts[..1]
        };
        for &r in rings {
            points.extend(failure_counts.iter().map(|&f| (kind, r, f)));
        }
    }
    points
}

/// §VII degraded operation: burst delivery under live link failures.
///
/// For every mechanism × escape-ring count × failure count, a burst is
/// injected and a seeded fault plan kills that many random global links
/// at cycle [`FAIL_AT`]; the table reports the delivered fraction, drain
/// time, latency and throughput, plus the watchdog's diagnosis for runs
/// that could not finish (oblivious mechanisms on a severed minimal
/// path, or genuinely partitioned networks).
pub(crate) fn link_failures(scale: &Scale) -> Table {
    let cfg = scale.cfg();
    let h = scale.h;
    let packets = scale.burst_packets;
    let mut failure_counts = vec![0, h.saturating_sub(1), h, 2 * h];
    failure_counts.dedup();
    let points = failure_points(&MechanismKind::paper_set(), &[1, h], &failure_counts);

    let topo = Dragonfly::new(cfg.params);
    let spec = TrafficSpec::adversarial(h);
    let runs: Vec<BurstResult> = points
        .par_iter()
        .map(|&(kind, rings, failures)| {
            // Keyed by failure count, not point index: one seed per
            // column of the grid.
            let seed = point_seed(SUITE_SEED, failures);
            let plan = FaultPlan::random_global_failures(&topo, failures, FAIL_AT, seed ^ 0xFA17);
            let mut cfg = cfg;
            cfg.escape_rings = rings;
            burst_faulted(cfg, kind, &spec, packets, seed, plan, RunConfig::default())
        })
        .collect();

    let mut t = Table::new(
        format!(
            "Degraded operation under ADV+{h}: burst delivery vs failed global links (h={h}, {} nodes, {packets} pkts/node)",
            topo.num_nodes(),
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
    for (&(kind, rings, failures), r) in points.iter().zip(&runs) {
        t.push(vec![
            kind.name().to_string(),
            rings.to_string(),
            failures.to_string(),
            delivered(r, topo.num_nodes() * packets),
            r.cycles.map_or("—".into(), |c| c.to_string()),
            format!("{:.0}", r.avg_latency),
            format!("{:.3}", drain_throughput(r, &cfg)),
            outcome(&r.stall, "drained"),
        ]);
    }
    t
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
pub(crate) fn ber(scale: &Scale) -> Table {
    let cfg = scale.cfg();
    let h = scale.h;
    let packets = scale.burst_packets;
    let mechs = [
        MechanismKind::Min,
        MechanismKind::Valiant,
        MechanismKind::Pb,
        MechanismKind::Ofar,
    ];
    let bers = [0.0, 1e-4, 1e-3, 1e-2];
    let points: Vec<(MechanismKind, f64)> = mechs
        .iter()
        .flat_map(|&kind| bers.map(|b| (kind, b)))
        .collect();

    let spec = TrafficSpec::uniform();
    let runs: Vec<BurstResult> = points
        .par_iter()
        .enumerate()
        .map(|(i, &(kind, ber))| {
            let seed = point_seed(SUITE_SEED, i);
            burst(cfg.with_ber(ber), kind, &spec, packets, seed)
        })
        .collect();

    let nodes = cfg.params.nodes();
    let mut t = Table::new(
        format!(
            "Burst delivery vs link bit-error rate under UN (h={h}, {nodes} nodes, {packets} pkts/node)"
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
    for (&(kind, ber), r) in points.iter().zip(&runs) {
        assert_eq!(
            r.stats.duplicate_deliveries,
            0,
            "link layer must dedup: {} at BER {ber}",
            kind.name(),
        );
        t.push(vec![
            kind.name().to_string(),
            format!("{ber:.0e}"),
            delivered(r, nodes * packets),
            r.cycles.map_or("—".into(), |c| c.to_string()),
            format!("{:.0}", r.avg_latency),
            format!("{:.0}", r.p99_latency.expect("burst records latencies")),
            format!("{:.3}", drain_throughput(r, &cfg)),
            r.stats.llr_retransmits.to_string(),
            r.stats.llr_crc_drops.to_string(),
            r.stats.llr_wire_drops.to_string(),
            r.stats.llr_escalations.to_string(),
            outcome(&r.stall, "drained"),
        ]);
    }
    t
}

/// Post-saturation overload: throughput retention, latency tail and
/// fairness at 2× each mechanism's saturation load, congestion
/// management off vs on.
///
/// For every pattern (UN, ADV+1) × mechanism × {CM off, CM on}, the
/// runner measures the mechanism's saturation throughput and then drives
/// twice that load open-loop through the same configuration. The table
/// reports how much of the saturation throughput survives (`retention`,
/// acceptance floor 0.9 with CM on), the p99 latency of delivered
/// packets, the Jain fairness index over per-source deliveries, and the
/// watchdog's diagnosis for runs that stopped making progress —
/// including the `saturation` verdict that distinguishes diverging
/// overload backlog from true routing livelock.
pub(crate) fn overload(scale: &Scale) -> Table {
    let cfg = scale.cfg();
    let h = scale.h;
    let opts = OverloadOpts {
        sat: scale.steady,
        warmup: scale.steady.warmup,
        measure: scale.steady.measure,
    };
    let specs = [TrafficSpec::uniform(), TrafficSpec::adversarial(1)];
    // Seeded by the index within each pattern's (mechanism × CM) list.
    let points: Vec<(&TrafficSpec, MechanismKind, bool, u64)> = specs
        .iter()
        .flat_map(|spec| {
            MechanismKind::paper_set()
                .into_iter()
                .flat_map(|kind| [(kind, false), (kind, true)])
                .enumerate()
                .map(move |(i, (kind, cm))| (spec, kind, cm, point_seed(SUITE_SEED, i)))
        })
        .collect();

    let runs: Vec<OverloadPoint> = points
        .par_iter()
        .map(|&(spec, kind, cm, seed)| {
            let mut cfg = cfg;
            cfg.cm_enabled = cm;
            overload_point(cfg, kind, spec, opts, seed)
        })
        .collect();

    let mut t = Table::new(
        format!(
            "Post-saturation overload at {OVERLOAD_FACTOR:.1}× saturation (h={h}, {} nodes): CM off vs on",
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
    for (&(spec, ..), p) in points.iter().zip(&runs) {
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
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_points_cover_the_grid() {
        let points = failure_points(&[MechanismKind::Min, MechanismKind::Ofar], &[1, 2], &[0, 1]);
        // MIN runs at one ring count; OFAR at both.
        assert_eq!(points.len(), 2 + 4);
        assert!(points
            .iter()
            .all(|&(kind, rings, _)| kind == MechanismKind::Ofar || rings == 1));
    }
}
