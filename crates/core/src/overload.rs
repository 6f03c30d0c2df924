//! Post-saturation overload experiment: what happens *past* the knee.
//!
//! Every figure in the paper stops at the saturation point; this module
//! drives each mechanism **beyond** it — open-loop Bernoulli injection
//! at a multiple of the mechanism's own measured saturation throughput
//! (2× by default) — and reports whether delivery degrades gracefully
//! or collapses. With the congestion-management layer enabled
//! (`SimConfig::with_cm`: NIC token-bucket throttling plus OFAR's
//! escape-ring admission guard) the network is expected to *retain* its
//! saturation throughput, keep the delivered-latency tail bounded and
//! trip no watchdog; with it disabled the same offered load documents
//! the collapse baseline.
//!
//! Beyond throughput retention the sweep scores *fairness*: congestion
//! trees starve sources unevenly, so each point carries the Jain index
//! and a per-source delivery histogram over the measurement window.
//!
//! Structured like [`crate::faults`]: one function per point, a
//! parallel sweep over the mechanism × CM grid, and a [`StallKind`]
//! diagnosis instead of a hang when a run stops making progress — with
//! [`StallKind::Saturation`] naming diverging-backlog overload (healthy
//! topology, nonzero drain) distinctly from true routing livelock.

use crate::run::{
    derive_watchdog, diagnose_stall, ensure_certified, instrumented, p99_of, steady_state,
    StallKind, SteadyOpts,
};
use ofar_engine::{jain_index, source_histogram, SimConfig, Stats};
use ofar_routing::MechanismKind;
use ofar_traffic::{Bernoulli, TrafficGen, TrafficSpec};
use rayon::prelude::*;

/// Knobs of an overload run.
#[derive(Clone, Copy, Debug)]
pub struct OverloadOpts {
    /// Offered load as a multiple of the measured saturation throughput
    /// (the paper's figures end at 1.0; the overload sweep defaults to
    /// 2.0).
    pub factor: f64,
    /// Warmup/measure lengths of the *saturation* probe (a standard
    /// closed-form steady-state run at offered load 1.0).
    pub sat: SteadyOpts,
    /// Overload cycles simulated before the measurement window opens.
    pub warmup: u64,
    /// Overload cycles measured.
    pub measure: u64,
    /// Progress-watchdog window; `None` derives it from the
    /// configuration via [`derive_watchdog`].
    pub watchdog: Option<u64>,
    /// Buckets of the per-source delivery histogram.
    pub histogram_buckets: usize,
}

impl Default for OverloadOpts {
    fn default() -> Self {
        Self {
            factor: 2.0,
            sat: SteadyOpts {
                warmup: 2_000,
                measure: 4_000,
            },
            warmup: 2_000,
            measure: 6_000,
            watchdog: None,
            histogram_buckets: 8,
        }
    }
}

/// One point of the post-saturation grid.
#[derive(Clone, Debug)]
pub struct OverloadPoint {
    /// Routing mechanism.
    pub mechanism: MechanismKind,
    /// Whether the congestion-management layer was enabled.
    pub cm: bool,
    /// Measured saturation throughput (offered load 1.0, same
    /// configuration), phits/(node·cycle).
    pub saturation: f64,
    /// Offered load of the overload segment, phits/(node·cycle)
    /// (`factor × saturation`).
    pub offered: f64,
    /// Delivered throughput over the measurement window,
    /// phits/(node·cycle).
    pub throughput: f64,
    /// `throughput / saturation` — 1.0 means the mechanism retained its
    /// full pre-saturation capacity under 2× overload; the acceptance
    /// floor with CM enabled is 0.9.
    pub retention: f64,
    /// Mean latency of packets delivered in the window.
    pub avg_latency: f64,
    /// 99th-percentile latency of packets *generated* in the window and
    /// delivered before the run ended.
    pub p99_latency: f64,
    /// Jain fairness index of per-source deliveries in the window.
    pub jain: f64,
    /// Per-source delivery histogram over the window
    /// ([`OverloadOpts::histogram_buckets`] equal-width bins).
    pub src_histogram: Vec<u64>,
    /// Packets delivered during the window.
    pub delivered: u64,
    /// NIC injections deferred by the token bucket during the window
    /// (0 with CM disabled).
    pub throttle_deferrals: u64,
    /// Escape-ring entries during the window.
    pub ring_entries: u64,
    /// Watchdog diagnosis if the run stopped making progress (`None`
    /// when the full overload segment completed).
    pub stall: Option<StallKind>,
}

impl OverloadPoint {
    /// The issue's stability bar: the full segment ran (no watchdog
    /// stall) and throughput retention is at least `floor`.
    pub fn stable(&self, floor: f64) -> bool {
        self.stall.is_none() && self.retention >= floor
    }
}

/// Run one overload point: measure the mechanism's saturation
/// throughput, then drive `factor ×` that load open-loop through the
/// same configuration and measure what survives.
pub fn overload_point(
    cfg: SimConfig,
    kind: MechanismKind,
    spec: &TrafficSpec,
    opts: OverloadOpts,
    seed: u64,
) -> OverloadPoint {
    let cfg = kind.adapt_config(cfg);
    ensure_certified(&cfg, kind);
    let saturation = steady_state(cfg, kind, spec, 1.0, opts.sat, seed).throughput;
    // Offered load is capped at 1 packet/node/cycle — the physical
    // injection-port limit (and `Bernoulli`'s own precondition).
    let offered = (opts.factor * saturation).min(cfg.packet_size as f64);

    let mut net = instrumented(cfg, kind.build(&cfg, seed));
    net.enable_delivery_log();
    let topo = *net.fabric().topo();
    let mut gen = TrafficGen::new(&topo, spec.clone(), seed.wrapping_add(1));
    let mut bern = Bernoulli::new(offered, cfg.packet_size, seed.wrapping_add(2));
    let nodes = net.num_nodes();
    let watchdog = opts.watchdog.unwrap_or_else(|| derive_watchdog(&cfg));
    let total = opts.warmup + opts.measure;

    let mut start = Stats::default();
    let mut src_start: Vec<u64> = vec![0; nodes];
    let mut last_delivered = 0u64;
    let mut last_delivery_at = 0u64;
    let mut retx_at_last_delivery = 0u64;
    let mut stall = None;
    let mut measured = 0u64;
    for cycle in 0..total {
        if cycle == opts.warmup {
            start = net.stats().clone();
            src_start.copy_from_slice(net.per_source_delivered());
        }
        bern.cycle(nodes, |src| {
            let dst = gen.destination(src);
            net.generate(src, dst);
        });
        net.step();
        if cycle >= opts.warmup {
            measured += 1;
        }
        let delivered = net.stats().delivered_packets;
        if delivered > last_delivered {
            last_delivered = delivered;
            last_delivery_at = net.now();
            retx_at_last_delivery = net.stats().llr_retransmits;
        }
        // Same two triggers as the burst runner: a silent allocator, or
        // a busy network that stopped delivering. Overload legitimately
        // slows delivery down, so the windows are identical — a stall
        // here means *zero* drain, not merely saturated drain.
        let no_grant = net.now() - net.stats().last_grant > watchdog;
        let no_delivery = net.now() - last_delivery_at > 4 * watchdog;
        if no_grant || no_delivery {
            let retx_since = net.stats().llr_retransmits - retx_at_last_delivery;
            stall = Some(diagnose_stall(&net, watchdog, no_grant, retx_since));
            break;
        }
    }

    let end = net.stats().clone();
    let window_cycles = measured.max(1);
    let delivered = end.delivered_packets - start.delivered_packets;
    let delivered_phits = end.delivered_phits - start.delivered_phits;
    let throughput = delivered_phits as f64 / (window_cycles as f64 * nodes as f64);
    let latency_sum = end.latency_sum - start.latency_sum;
    let per_src: Vec<u64> = net
        .per_source_delivered()
        .iter()
        .zip(&src_start)
        .map(|(&e, &s)| e - s)
        .collect();
    let p99_latency = p99_of(
        net.take_delivery_log()
            .into_iter()
            .filter(|&(t, _)| t >= opts.warmup)
            .collect(),
    );
    OverloadPoint {
        mechanism: kind,
        cm: cfg.cm_enabled,
        saturation,
        offered,
        throughput,
        retention: if saturation > 0.0 {
            throughput / saturation
        } else {
            0.0
        },
        avg_latency: if delivered == 0 {
            0.0
        } else {
            latency_sum as f64 / delivered as f64
        },
        p99_latency,
        jain: jain_index(&per_src),
        src_histogram: source_histogram(&per_src, opts.histogram_buckets),
        delivered,
        throttle_deferrals: end.cm_throttle_deferrals - start.cm_throttle_deferrals,
        ring_entries: end.ring_entries - start.ring_entries,
        stall,
    }
}

/// Full overload sweep: every mechanism × {CM off, CM on}, each point an
/// independent seeded simulation, run in parallel. The CM-off half is
/// the collapse baseline; the CM-on half carries the stability claim.
pub fn overload_sweep(
    cfg: SimConfig,
    mechanisms: &[MechanismKind],
    spec: &TrafficSpec,
    opts: OverloadOpts,
    seed: u64,
) -> Vec<OverloadPoint> {
    let mut jobs: Vec<(MechanismKind, bool)> = Vec::new();
    for &kind in mechanisms {
        jobs.push((kind, false));
        jobs.push((kind, true));
    }
    jobs.par_iter()
        .enumerate()
        .map(|(i, &(kind, cm))| {
            let c = if cm {
                cfg.with_cm()
            } else {
                let mut c = cfg;
                c.cm_enabled = false;
                c
            };
            overload_point(c, kind, spec, opts, seed.wrapping_add(i as u64 * 7919))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> OverloadOpts {
        OverloadOpts {
            sat: SteadyOpts {
                warmup: 800,
                measure: 1_500,
            },
            warmup: 800,
            measure: 2_500,
            ..OverloadOpts::default()
        }
    }

    #[test]
    fn cm_on_retains_throughput_past_saturation() {
        let p = overload_point(
            SimConfig::paper(2).with_cm(),
            MechanismKind::Ofar,
            &TrafficSpec::uniform(),
            quick(),
            7,
        );
        assert!(p.cm);
        assert!(p.saturation > 0.0);
        assert!(p.offered > p.saturation);
        assert!(
            p.stable(0.9),
            "CM-enabled OFAR must retain ≥90% of saturation at 2×: {p:?}"
        );
        assert!(p.jain > 0.0 && p.jain <= 1.0 + 1e-12);
        assert_eq!(p.src_histogram.iter().sum::<u64>() as usize, 72);
    }

    #[test]
    fn sweep_covers_the_cm_grid() {
        // Valiant under uniform traffic congests its own randomized
        // middle hops well past the sensing threshold, so the CM half
        // of the grid must actually throttle. (MIN would not: its NIC
        // serialization port, not any router buffer, is the
        // bottleneck, and CM correctly leaves it alone.)
        let pts = overload_sweep(
            SimConfig::paper(2),
            &[MechanismKind::Valiant],
            &TrafficSpec::uniform(),
            quick(),
            3,
        );
        assert_eq!(pts.len(), 2);
        assert!(!pts[0].cm && pts[1].cm);
        assert!(pts[1].throttle_deferrals > 0, "2× load must throttle");
        assert_eq!(pts[0].throttle_deferrals, 0);
    }
}
