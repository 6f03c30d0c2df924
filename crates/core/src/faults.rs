//! Degraded-operation experiment (§VII): how throughput, latency and
//! delivered fraction decay as global links fail, per mechanism and per
//! escape-ring count.
//!
//! Each point is a burst run: every node enqueues a fixed backlog, a
//! seeded [`FaultPlan`] kills `failures` random global links shortly
//! after injection starts (so the drain/requeue path of in-flight phits
//! is exercised, not just cold routing tables), and the network drains —
//! or the watchdog reports *why* it could not ([`StallKind`]).

use crate::run::{burst_faulted, point_seed, BurstResult, RunConfig, StallKind};
use ofar_engine::{FaultPlan, SimConfig};
use ofar_routing::MechanismKind;
use ofar_topology::Dragonfly;
use ofar_traffic::TrafficSpec;
use rayon::prelude::*;

/// Cycle at which the scheduled link failures strike: late enough that
/// the burst is in full flight (buffers occupied, phits on the dead
/// links), early enough that most of the drain happens degraded.
pub const FAIL_AT: u64 = 200;

/// One point of a degradation curve.
#[derive(Clone, Debug)]
pub struct DegradationPoint {
    /// Routing mechanism.
    pub mechanism: MechanismKind,
    /// Escape rings configured (only meaningful for the OFAR variants).
    pub rings: usize,
    /// Global links killed at cycle [`FAIL_AT`].
    pub failures: usize,
    /// Delivered packets / injected packets (1.0 = full delivery).
    pub delivered_fraction: f64,
    /// Accepted throughput over the drain, phits/(node·cycle).
    pub throughput: f64,
    /// Mean packet latency in cycles.
    pub avg_latency: f64,
    /// Cycles to drain (`None` if the watchdog fired).
    pub cycles: Option<u64>,
    /// Watchdog diagnosis when the burst did not drain.
    pub stall: Option<StallKind>,
}

/// Run one degradation point: a burst of `packets_per_node` per node
/// under `spec`, with `failures` seeded-random global links failing at
/// cycle [`FAIL_AT`] and `rings` escape rings configured.
pub fn degradation(
    cfg: SimConfig,
    kind: MechanismKind,
    spec: &TrafficSpec,
    packets_per_node: usize,
    rings: usize,
    failures: usize,
    seed: u64,
) -> DegradationPoint {
    let mut cfg = cfg;
    cfg.escape_rings = rings.max(1);
    let topo = Dragonfly::new(cfg.params);
    let plan = FaultPlan::random_global_failures(&topo, failures, FAIL_AT, seed ^ 0xFA17);
    let r = burst_faulted(
        cfg,
        kind,
        spec,
        packets_per_node,
        seed,
        plan,
        RunConfig::default(),
    );
    let nodes = topo.num_nodes();
    DegradationPoint {
        mechanism: kind,
        rings,
        failures,
        delivered_fraction: r.delivered as f64 / (nodes * packets_per_node) as f64,
        throughput: drain_throughput(&r, &cfg, nodes),
        avg_latency: r.avg_latency,
        cycles: r.cycles,
        stall: r.stall,
    }
}

/// Throughput over a burst's drain: delivered phits per node-cycle, 0
/// for a watchdog-aborted run (latency and delivered fraction carry the
/// signal instead).
fn drain_throughput(r: &BurstResult, cfg: &SimConfig, nodes: usize) -> f64 {
    match r.cycles {
        Some(c) if c > 0 => {
            (r.delivered * cfg.packet_size as u64) as f64 / (c as f64 * nodes as f64)
        }
        _ => 0.0,
    }
}

/// Full degradation sweep: the cross product of `mechanisms` ×
/// `ring_counts` × `failure_counts`, each point an independent seeded
/// simulation, run in parallel. Mechanisms without an escape ring are
/// swept only at the first ring count (the knob does not affect them).
pub fn degradation_sweep(
    cfg: SimConfig,
    mechanisms: &[MechanismKind],
    spec: &TrafficSpec,
    packets_per_node: usize,
    ring_counts: &[usize],
    failure_counts: &[usize],
    seed: u64,
) -> Vec<DegradationPoint> {
    let mut jobs: Vec<(MechanismKind, usize, usize)> = Vec::new();
    for &kind in mechanisms {
        let rings: &[usize] = if kind.needs_ring() {
            ring_counts
        } else {
            &ring_counts[..1]
        };
        for &r in rings {
            for &f in failure_counts {
                jobs.push((kind, r, f));
            }
        }
    }
    jobs.par_iter()
        .map(|&(kind, rings, failures)| {
            degradation(
                cfg,
                kind,
                spec,
                packets_per_node,
                rings,
                failures,
                // Keyed by failure count, not job index: one seed per
                // column of the grid.
                point_seed(seed, failures),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Transient faults: BER sweep over the link-level retransmission layer
// ---------------------------------------------------------------------

/// One point of a BER sweep: a burst drained over uniformly lossy links,
/// with the link layer (CRC + seq/ack replay, see `ofar_engine::llr`)
/// recovering every corrupted or dropped transfer.
#[derive(Clone, Debug)]
pub struct BerPoint {
    /// Routing mechanism.
    pub mechanism: MechanismKind,
    /// Per-phit bit-error probability applied to every link.
    pub ber: f64,
    /// Delivered packets / injected packets (1.0 = full delivery).
    pub delivered_fraction: f64,
    /// Delivered (goodput) throughput over the drain, phits/(node·cycle).
    /// Retransmitted phits do not count — only unique deliveries.
    pub throughput: f64,
    /// Mean packet latency in cycles.
    pub avg_latency: f64,
    /// 99th-percentile packet latency in cycles — the retry/backoff tail.
    pub p99_latency: f64,
    /// Cycles to drain (`None` if the watchdog fired).
    pub cycles: Option<u64>,
    /// Link-level retransmissions over the run.
    pub retransmits: u64,
    /// Transfers discarded at a receiver on a CRC mismatch.
    pub crc_drops: u64,
    /// Transfers lost outright on the wire.
    pub wire_drops: u64,
    /// Links escalated to fail-stop after exhausting the retry budget.
    pub escalations: u64,
    /// Packets ejected twice — must be 0 (the link layer dedups).
    pub duplicate_deliveries: u64,
    /// Watchdog diagnosis when the burst did not drain.
    pub stall: Option<StallKind>,
}

/// Run one BER point: a burst of `packets_per_node` per node under
/// `spec`, every link suffering independent per-phit bit errors with
/// probability `ber`. A nonzero `ber` auto-enables the link-level
/// retransmission layer.
pub fn ber_burst(
    cfg: SimConfig,
    kind: MechanismKind,
    spec: &TrafficSpec,
    packets_per_node: usize,
    ber: f64,
    seed: u64,
) -> BerPoint {
    let cfg = cfg.with_ber(ber);
    let topo = Dragonfly::new(cfg.params);
    let r = burst_faulted(
        cfg,
        kind,
        spec,
        packets_per_node,
        seed,
        FaultPlan::default(),
        RunConfig::default(),
    );
    let nodes = topo.num_nodes();
    BerPoint {
        mechanism: kind,
        ber,
        delivered_fraction: r.delivered as f64 / (nodes * packets_per_node) as f64,
        throughput: drain_throughput(&r, &cfg, nodes),
        avg_latency: r.avg_latency,
        p99_latency: r.p99_latency.expect("burst_faulted records latencies"),
        cycles: r.cycles,
        retransmits: r.stats.llr_retransmits,
        crc_drops: r.stats.llr_crc_drops,
        wire_drops: r.stats.llr_wire_drops,
        escalations: r.stats.llr_escalations,
        duplicate_deliveries: r.stats.duplicate_deliveries,
        stall: r.stall,
    }
}

/// Full BER sweep: the cross product of `mechanisms` × `bers`, each
/// point an independent seeded simulation, run in parallel.
pub fn ber_sweep(
    cfg: SimConfig,
    mechanisms: &[MechanismKind],
    spec: &TrafficSpec,
    packets_per_node: usize,
    bers: &[f64],
    seed: u64,
) -> Vec<BerPoint> {
    let mut jobs: Vec<(MechanismKind, f64)> = Vec::new();
    for &kind in mechanisms {
        for &b in bers {
            jobs.push((kind, b));
        }
    }
    jobs.par_iter()
        .enumerate()
        .map(|(i, &(kind, ber))| {
            ber_burst(cfg, kind, spec, packets_per_node, ber, point_seed(seed, i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ofar_survives_h_minus_one_failures() {
        // h = 2: one failed global link, k = h = 2 embedded rings.
        let p = degradation(
            SimConfig::paper(2),
            MechanismKind::Ofar,
            &TrafficSpec::uniform(),
            2,
            2,
            1,
            5,
        );
        assert_eq!(
            p.delivered_fraction, 1.0,
            "OFAR must deliver everything: {p:?}"
        );
        assert!(p.stall.is_none());
        assert!(p.cycles.is_some());
        assert!(p.avg_latency > 0.0);
    }

    #[test]
    fn zero_failures_matches_plain_burst() {
        let p = degradation(
            SimConfig::paper(2),
            MechanismKind::Ofar,
            &TrafficSpec::uniform(),
            2,
            1,
            0,
            9,
        );
        let r = crate::run::burst(
            MechanismKind::Ofar.adapt_config({
                let mut c = SimConfig::paper(2);
                c.escape_rings = 1;
                c
            }),
            MechanismKind::Ofar,
            &TrafficSpec::uniform(),
            2,
            9,
        );
        assert_eq!(p.cycles, r.cycles);
        assert_eq!(p.delivered_fraction, 1.0);
    }

    #[test]
    fn ofar_delivers_fully_under_percent_level_ber() {
        let p = ber_burst(
            SimConfig::paper(2),
            MechanismKind::Ofar,
            &TrafficSpec::uniform(),
            2,
            1e-2,
            7,
        );
        let once = (p.delivered_fraction, p.duplicate_deliveries);
        assert_eq!(once, (1.0, 0), "lossy burst must fully drain: {p:?}");
        assert!(p.retransmits > 0, "1% BER must force retries: {p:?}");
        assert_eq!(p.escalations, 0);
        assert_eq!(p.stall, None);
        // every loss (drop or CRC discard) was recovered by exactly one
        // retransmission
        assert_eq!(p.retransmits, p.wire_drops + p.crc_drops);
    }

    #[test]
    fn zero_ber_disables_the_link_layer() {
        let p = ber_burst(
            SimConfig::paper(2),
            MechanismKind::Min,
            &TrafficSpec::uniform(),
            1,
            0.0,
            3,
        );
        assert_eq!((p.delivered_fraction, p.duplicate_deliveries), (1.0, 0));
        assert_eq!(p.retransmits, 0);
        assert_eq!(p.crc_drops + p.wire_drops, 0);
    }

    #[test]
    fn sweep_covers_the_grid() {
        let pts = degradation_sweep(
            SimConfig::paper(2),
            &[MechanismKind::Min, MechanismKind::Ofar],
            &TrafficSpec::uniform(),
            1,
            &[1, 2],
            &[0, 1],
            3,
        );
        // MIN collapses to one ring count; OFAR sweeps both.
        assert_eq!(pts.len(), 2 + 4);
        assert!(pts.iter().all(|p| p.delivered_fraction <= 1.0));
    }
}
