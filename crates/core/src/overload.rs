//! Post-saturation overload experiment: what happens *past* the knee.
//!
//! Every figure in the paper stops at the saturation point; this module
//! drives each mechanism **beyond** it — open-loop Bernoulli injection
//! at [`OVERLOAD_FACTOR`] times the mechanism's own measured saturation
//! throughput — and reports whether delivery degrades gracefully
//! or collapses. With the congestion-management layer enabled
//! (`SimConfig::with_cm`: NIC token-bucket throttling plus OFAR's
//! escape-ring admission guard) the network is expected to *retain* its
//! saturation throughput, keep the delivered-latency tail bounded and
//! trip no watchdog; with it disabled the same offered load documents
//! the collapse baseline.
//!
//! Beyond throughput retention each point scores *fairness*: congestion
//! trees starve sources unevenly, so it carries the Jain index of
//! per-source deliveries over the measurement window.
//!
//! A run that stops making progress ends with a [`StallKind`] diagnosis
//! instead of a hang, [`StallKind::Saturation`] naming diverging-backlog
//! overload (healthy topology, nonzero drain) distinctly from true
//! routing livelock.

use crate::run::{
    derive_watchdog, ensure_certified, steady_state, StallKind, SteadyOpts, Watchdog,
};
use ofar_engine::{jain_index, Fabric, Network, Recorder, SimConfig, Stats, StatsWindow};
use ofar_routing::MechanismKind;
use ofar_traffic::{OpenLoop, TrafficSpec};

/// Offered load of an overload run as a multiple of the measured
/// saturation throughput (the paper's figures end at 1.0).
pub const OVERLOAD_FACTOR: f64 = 2.0;

/// Run lengths of an overload run.
#[derive(Clone, Copy, Debug)]
pub struct OverloadOpts {
    /// Warmup/measure lengths of the *saturation* probe (a standard
    /// closed-form steady-state run at offered load 1.0).
    pub sat: SteadyOpts,
    /// Overload cycles simulated before the measurement window opens.
    pub warmup: u64,
    /// Overload cycles measured.
    pub measure: u64,
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
    /// ([`OVERLOAD_FACTOR`] `× saturation`).
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
/// throughput, then drive [`OVERLOAD_FACTOR`] times that load open-loop through the
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
    let offered = (OVERLOAD_FACTOR * saturation).min(cfg.packet_size as f64);

    let recorder = Recorder::since(opts.warmup);
    let mut net = Network::with_hooks(Fabric::new(cfg), kind.build(&cfg, seed), recorder);
    let topo = *net.fabric().topo();
    let mut source = OpenLoop::new(&topo, spec.clone(), offered, cfg.packet_size, seed);
    let nodes = net.num_nodes();
    // The burst runner's watchdog, windows unchanged: overload
    // legitimately slows delivery down, so a stall here means *zero*
    // drain, not merely saturated drain.
    let mut watchdog = Watchdog::new(derive_watchdog(&cfg));

    let mut start = Stats::default();
    let mut src_start: Vec<u64> = vec![0; nodes];
    let mut stall = None;
    for cycle in 0..opts.warmup + opts.measure {
        if cycle == opts.warmup {
            start = net.stats().clone();
            src_start.copy_from_slice(net.per_source_delivered());
        }
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
        stall = watchdog.poll(&net);
        if stall.is_some() {
            break;
        }
    }

    let end = net.stats().clone();
    // The window is the cycles run past the warm-up (a stall ends it early).
    let measured = net.now().saturating_sub(opts.warmup).max(1);
    let w = StatsWindow::between(&start, &end, measured, nodes);
    let throughput = w.throughput();
    let per_src: Vec<u64> = net
        .per_source_delivered()
        .iter()
        .zip(&src_start)
        .map(|(&e, &s)| e - s)
        .collect();
    let p99_latency = net.hooks().percentile(99);
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
        avg_latency: w.avg_latency(),
        p99_latency,
        jain: jain_index(&per_src),
        delivered: w.delivered_packets,
        throttle_deferrals: end.cm_throttle_deferrals - start.cm_throttle_deferrals,
        ring_entries: w.ring_entries,
        stall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::point_seed;

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
    }

    #[test]
    fn cm_throttles_valiant_only_when_enabled() {
        // Valiant under uniform traffic congests its own randomized
        // middle hops well past the sensing threshold, so CM must
        // actually throttle. (MIN would not: its NIC serialization port,
        // not any router buffer, is the bottleneck, and CM correctly
        // leaves it alone.) Seeded by the index in its (mechanism ×
        // CM) list, as the `overload` study seeds its points.
        let [off, on] = [false, true].map(|cm| {
            let mut cfg = SimConfig::paper(2);
            cfg.cm_enabled = cm;
            let seed = point_seed(3, usize::from(cm));
            let spec = TrafficSpec::uniform();
            overload_point(cfg, MechanismKind::Valiant, &spec, quick(), seed)
        });
        assert!(!off.cm && on.cm);
        assert!(on.throttle_deferrals > 0, "2× load must throttle");
        assert_eq!(off.throttle_deferrals, 0);
    }
}
