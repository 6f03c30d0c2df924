//! Host time per `Network::step` phase: the [`PhaseTimer`] hook and the
//! `phases` experiment that reads it.

use crate::{emit, start};
use ofar_core::engine::{Fabric, Hooks, Phase};
use ofar_core::prelude::*;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// [`Hooks`] that attribute host time to the nine phases of
/// `Network::step` (the per-phase rows of the perf ledger): each
/// [`Hooks::phase`] call closes the previous phase's span and opens the
/// next. The driver calls [`Self::stop`] after every `step`, so the time
/// it spends generating traffic is not charged to `policy_end`.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    open: Option<(Phase, Instant)>,
    spent: [Duration; Phase::ALL.len()],
}

impl PhaseTimer {
    /// Close the open span, if any.
    pub fn stop(&mut self) {
        if let Some((phase, since)) = self.open.take() {
            self.spent[phase as usize] += since.elapsed();
        }
    }

    /// Host time attributed to `phase` so far.
    pub fn spent(&self, phase: Phase) -> Duration {
        self.spent[phase as usize]
    }
}

impl Hooks for PhaseTimer {
    #[inline]
    fn phase(&mut self, phase: Phase) {
        let now = Instant::now();
        if let Some((prev, since)) = self.open.replace((phase, now)) {
            self.spent[prev as usize] += now - since;
        }
    }
}

/// Drive one operating point and return (measured cycles, delivered
/// packets, the timer).
fn measure(scale: &Scale, kind: MechanismKind, point: Option<f64>) -> (u64, u64, PhaseTimer) {
    let cfg = kind.adapt_config(scale.cfg());
    let fab = Fabric::new(cfg);
    let mut net = Network::with_hooks(fab, kind.build(&cfg, scale.seed), PhaseTimer::default());
    let topo = *net.fabric().topo();
    let Some(load) = point else {
        // Closed burst: every node enqueues its packets at cycle 0.
        let (spec, packets) = (TrafficSpec::adversarial(1), scale.burst_packets);
        OpenLoop::fill(&topo, spec, packets, scale.seed, |src, dst| {
            net.generate(src, dst)
        });
        while !net.drained() {
            net.step();
            net.hooks_mut().stop();
        }
        let delivered = net.stats().delivered_packets;
        return (net.now(), delivered, std::mem::take(net.hooks_mut()));
    };
    let mut source = OpenLoop::new(
        &topo,
        TrafficSpec::uniform(),
        load,
        cfg.packet_size,
        scale.seed,
    );
    let mut delivered_at_warmup = 0;
    for cycle in 0..scale.steady.warmup + scale.steady.measure {
        if cycle == scale.steady.warmup {
            *net.hooks_mut() = PhaseTimer::default(); // warm-up is not measured
            delivered_at_warmup = net.stats().delivered_packets;
        }
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
        net.hooks_mut().stop();
    }
    let delivered = net.stats().delivered_packets - delivered_at_warmup;
    (
        scale.steady.measure,
        delivered,
        std::mem::take(net.hooks_mut()),
    )
}

/// Per-phase rows of the perf ledger (ROADMAP 1a): host µs per
/// `Network::step`, split over the nine declared phases by a
/// [`PhaseTimer`] hook, for OFAR and MIN at three operating points —
/// UN at 0.1 (nearly idle), UN at 0.5 (the knee) and a closed ADV+1
/// burst (saturated). Timing, so read it on a quiet machine; the
/// simulated columns (cycles, delivered) repeat exactly.
pub(crate) fn phases(args: &[String]) -> ExitCode {
    let scale = start("phases", args);
    let mut header = vec!["mechanism", "operating point", "cycles", "delivered"];
    header.extend(Phase::ALL.map(Phase::name));
    header.push("total");
    let mut t = Table::new(
        format!(
            "Host time per Network::step by phase, µs (h={}, {} routers)",
            scale.h,
            scale.cfg().params.routers()
        ),
        &header,
    );
    for kind in [MechanismKind::Ofar, MechanismKind::Min] {
        for (label, point) in [
            ("UN 0.1", Some(0.1)),
            ("UN 0.5", Some(0.5)),
            ("ADV+1 burst", None),
        ] {
            let (cycles, delivered, timer) = measure(&scale, kind, point);
            let us = |d: std::time::Duration| d.as_secs_f64() * 1e6 / cycles as f64;
            let mut row = vec![
                kind.name().to_string(),
                label.to_string(),
                cycles.to_string(),
                delivered.to_string(),
            ];
            row.extend(Phase::ALL.map(|p| format!("{:.1}", us(timer.spent(p)))));
            let total: std::time::Duration = Phase::ALL.iter().map(|&p| timer.spent(p)).sum();
            row.push(format!("{:.1}", us(total)));
            t.push(row);
        }
    }
    emit(&t);
    ExitCode::SUCCESS
}
