//! Host time per `Network::step` phase: the [`PhaseTimer`] hook and the
//! `phases` experiment that reads it.

#![expect(
    clippy::disallowed_types,
    reason = "the host-time ruler: clock reads go to the printed table, never into simulated state"
)]

use crate::start;
use ofar_core::engine::{Phase, Tap};
use ofar_core::prelude::*;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// [`Hooks`] that attribute host time to the eight phases of
/// `Network::step` (the per-phase rows of the perf ledger): each
/// [`Tap::Phase`] closes the previous phase's span and opens the
/// next. The driver calls [`Self::stop`] after every `step`, so the time
/// it spends generating traffic is not charged to `policy_end`.
///
/// Inside `route`, each of the route marks [`Tap::Collect`],
/// [`Tap::Allocate`] and [`Tap::Execute`] likewise closes one part of a
/// router's turn and opens the next; the last part of a turn runs to the
/// next router's first mark, so the loop's skip over routers with
/// nothing buffered is charged to it. Every mark reads the clock once,
/// inside the span it measures: `RouteParts::marks` counts them, so the
/// timer's own share of `route` can be priced and taken off. The
/// `Transmit` and `Delivered` taps read no clock.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    open: Option<(Phase, Instant)>,
    spent: [Duration; Phase::ALL.len()],
    route: RouteParts,
}

/// The `route` phase by part: host time in request collection, the
/// allocator's iterations and grant execution, and what each produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteParts {
    open: Option<(usize, Instant)>,
    /// Host time in collection, allocation and execution.
    pub spent: [Duration; 3],
    /// `Policy::route` calls made.
    pub polled: u64,
    /// Heads whose policy asked for a live output.
    pub asked: u64,
    /// Requests that went on to allocation: the grantable ones.
    pub kept: u64,
    /// Requests the allocator matched.
    pub grants: u64,
    /// `Collect`, `Allocate` and `Execute` taps: clock reads charged to
    /// `route`.
    pub marks: u64,
}

impl RouteParts {
    fn close(&mut self, now: Instant) {
        if let Some((part, since)) = self.open.take() {
            self.spent[part] += now - since;
        }
    }
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

    /// The split of the `route` phase so far.
    pub fn route(&self) -> &RouteParts {
        &self.route
    }
}

impl Hooks for PhaseTimer {
    #[inline(always)]
    fn tap(&mut self, ev: Tap) {
        let part = match ev {
            Tap::Phase(phase) => {
                let now = Instant::now();
                self.route.close(now);
                if let Some((prev, since)) = self.open.replace((phase, now)) {
                    self.spent[prev as usize] += now - since;
                }
                return;
            }
            Tap::Collect => 0,
            Tap::Allocate {
                polled,
                asked,
                kept,
            } => {
                self.route.polled += polled as u64;
                self.route.asked += asked as u64;
                self.route.kept += kept as u64;
                1
            }
            Tap::Execute { grants } => {
                self.route.grants += grants as u64;
                2
            }
            Tap::Transmit(..) | Tap::Delivered(..) => return,
        };
        let now = Instant::now();
        self.route.marks += 1;
        self.route.close(now);
        self.route.open = Some((part, now));
    }
}

/// What one clock read costs on this host, now: the median gap between
/// back-to-back reads.
fn clock_read_cost() -> Duration {
    let mut reads = [Instant::now(); 1025];
    for r in &mut reads {
        *r = Instant::now();
    }
    let mut gaps: Vec<Duration> = reads.windows(2).map(|w| w[1] - w[0]).collect();
    gaps.sort_unstable();
    gaps[gaps.len() / 2]
}

/// Drive one operating point — UN at `load`, or a closed ADV+1 burst —
/// and return (measured cycles, delivered packets, the timer). The loop
/// is its own, not a runner's: it stops the timer after every step.
fn measure(scale: &Scale, kind: MechanismKind, load: Option<f64>) -> (u64, u64, PhaseTimer) {
    let (opts, packets) = (scale.steady, scale.burst_packets);
    let (spec, shape) = match load {
        Some(load) => (TrafficSpec::uniform(), Shape::Steady { load, opts }),
        None => (TrafficSpec::adversarial(1), Shape::burst(packets)),
    };
    let point = Point::new(scale.cfg(), kind, &spec, SUITE_SEED, shape);
    let mut net = network(&point, PhaseTimer::default());
    let topo = *net.fabric().topo();
    let Some(load) = load else {
        // Closed burst: every node enqueues its packets at cycle 0.
        OpenLoop::fill(&topo, spec, packets, SUITE_SEED, |src, dst| {
            net.generate(src, dst)
        });
        while !net.drained() {
            net.step();
            net.hooks_mut().1.stop();
        }
        let delivered = net.stats().delivered_packets;
        return (net.now(), delivered, net.into_hooks().1);
    };
    let mut source = OpenLoop::new(&topo, spec, load, net.cfg().packet_size, SUITE_SEED);
    let mut delivered_at_warmup = 0;
    for cycle in 0..opts.warmup + opts.measure {
        if cycle == opts.warmup {
            net.hooks_mut().1 = PhaseTimer::default(); // warm-up is not measured
            delivered_at_warmup = net.stats().delivered_packets;
        }
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
        net.hooks_mut().1.stop();
    }
    let delivered = net.stats().delivered_packets - delivered_at_warmup;
    (opts.measure, delivered, net.into_hooks().1)
}

/// Per-phase rows of the perf ledger (ROADMAP 1a): host µs per
/// `Network::step`, split over the eight declared phases by a
/// [`PhaseTimer`] hook, for OFAR and MIN at three operating points —
/// UN at 0.1 (nearly idle), UN at 0.5 (the knee) and a closed ADV+1
/// burst (saturated) — then the `route` phase again by part, with the
/// heads polled, the outputs asked for, the requests grantable that
/// cycle (what the allocator sees) and the grants made per cycle.
/// Timing, so read it on a quiet machine; the simulated columns (cycles,
/// delivered, the four counts) repeat exactly. The route marks read the
/// clock up to three times per router turn, all inside `route`: the
/// `timer` column is that share — marks per step × the cost of one
/// read, calibrated once per run — to take off `route` (and off its
/// three parts together) to read them net.
pub(crate) fn phases(args: &[String]) -> ExitCode {
    let scale = start("phases", args);
    let read_cost = clock_read_cost();
    let mut header = vec!["mechanism", "operating point", "cycles", "delivered"];
    for phase in Phase::ALL {
        header.push(phase.name());
        if phase == Phase::Route {
            header.push("timer");
        }
    }
    header.push("total");
    let size = format!("h={}, {} routers", scale.h, scale.cfg().params.routers());
    let timer_note = format!(
        "timer: the route marks' clock reads, {} ns each, included in route",
        read_cost.as_nanos()
    );
    let mut by_phase = Table::new(
        format!("Host time per Network::step by phase, µs ({size}; {timer_note})"),
        &header,
    );
    let mut by_part = Table::new(
        format!("The route phase by part, µs and counts per step ({size}; {timer_note})"),
        &[
            "mechanism",
            "operating point",
            "collect",
            "allocate",
            "execute",
            "timer",
            "heads polled",
            "asked",
            "grantable",
            "grants",
        ],
    );
    for kind in [MechanismKind::Ofar, MechanismKind::Min] {
        for (label, point) in [
            ("UN 0.1", Some(0.1)),
            ("UN 0.5", Some(0.5)),
            ("ADV+1 burst", None),
        ] {
            let (cycles, delivered, timer) = measure(&scale, kind, point);
            let us = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e6 / cycles as f64);
            let per_step = |n: u64| format!("{:.1}", n as f64 / cycles as f64);
            let mut row = vec![
                kind.name().to_string(),
                label.to_string(),
                cycles.to_string(),
                delivered.to_string(),
            ];
            let route = timer.route();
            let timer_us = us(read_cost.mul_f64(route.marks as f64));
            for phase in Phase::ALL {
                row.push(us(timer.spent(phase)));
                if phase == Phase::Route {
                    row.push(timer_us.clone());
                }
            }
            row.push(us(Phase::ALL.iter().map(|&p| timer.spent(p)).sum()));
            by_phase.push(row);
            let mut row = vec![kind.name().to_string(), label.to_string()];
            row.extend(route.spent.map(us));
            row.push(timer_us);
            row.extend([route.polled, route.asked, route.kept, route.grants].map(per_step));
            by_part.push(row);
        }
    }
    println!("{by_phase}");
    println!("{by_part}");
    ExitCode::SUCCESS
}
