//! One function per figure of the paper's evaluation (§VI, §VII).
//!
//! Every function regenerates the corresponding figure's data as a
//! [`Table`] — same axes, same mechanisms, same traffic. Scale is
//! controlled by [`Scale`]: the default regenerates every figure on an
//! `h = 4` network in minutes; `Scale::paper()` (or `OFAR_FULL=1`) uses
//! the paper's `h = 6`, 5,256-node network and full run lengths.

use crate::env::{self, EnvError};
use crate::run::{
    burst, longest_first, point_seed, steady_state, transient, Point, Shape, SteadyOpts,
    TransientOpts,
};
use crate::table::{f1, f4, Table};
use crate::theory;
use ofar_engine::config::MAX_PORTS;
use ofar_engine::{ConfigError, NoHooks, RingMode, SimConfig};
use ofar_routing::MechanismKind;
use ofar_traffic::TrafficSpec;
use rayon::prelude::*;

/// [`SimConfig::paper`] for an `h` from outside the program (`--h`,
/// `OFAR_H`): the typed error where the constructor would panic (`h = 0`)
/// or overflow (`a = 2h`), or build what [`SimConfig::validate`] refuses.
pub fn paper_config(h: usize) -> Result<SimConfig, ConfigError> {
    if h == 0 {
        return Err(ConfigError::RadixTooSmall { h });
    }
    if h > usize::MAX / 2 {
        // The radix `4h - 1`, counted as `validate` counts it: saturated.
        return Err(ConfigError::RadixTooLarge {
            ports: usize::MAX,
            max: MAX_PORTS,
        });
    }
    let cfg = SimConfig::paper(h);
    cfg.validate().map(|()| cfg)
}

/// The `OFAR_H` override, if set and usable: an `h` [`paper_config`]
/// refuses is an [`EnvError`] carrying the refusal.
pub fn env_h() -> Result<Option<usize>, EnvError> {
    let Some(h) = env::parsed::<usize>("OFAR_H")? else {
        return Ok(None);
    };
    paper_config(h).map(|_| Some(h)).map_err(|why| EnvError {
        name: "OFAR_H".to_string(),
        value: h.to_string(),
        expected: format!("Dragonfly h: {why}"),
    })
}

/// Experiment scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Dragonfly `h` (paper: 6).
    pub h: usize,
    /// Steady-state warmup/measurement lengths.
    pub steady: SteadyOpts,
    /// Transient experiment windows.
    pub transient: TransientOpts,
    /// Packets per node in burst runs (paper: 2000).
    pub burst_packets: usize,
    /// Points per load sweep.
    pub sweep_points: usize,
}

/// Base RNG seed of every experiment in the suite, at every scale.
pub const SUITE_SEED: u64 = 2012;

impl Scale {
    /// Default bench scale: `h = 4` (1,056 nodes), full curve shapes in
    /// minutes on a single core.
    pub fn default_bench() -> Self {
        Self {
            h: 4,
            steady: SteadyOpts {
                warmup: 6_000,
                measure: 10_000,
            },
            transient: TransientOpts {
                warmup: 8_000,
                post: 8_000,
                pre_window: 1_600,
                bucket: 200,
                drain: 6_000,
            },
            burst_packets: 50,
            sweep_points: 7,
        }
    }

    /// The paper's scale: `h = 6`, 5,256 nodes, 2000-packet bursts.
    pub fn paper() -> Self {
        Self {
            h: 6,
            steady: SteadyOpts {
                warmup: 30_000,
                measure: 50_000,
            },
            transient: TransientOpts {
                warmup: 30_000,
                post: 20_000,
                pre_window: 3_000,
                bucket: 250,
                drain: 10_000,
            },
            burst_packets: 2_000,
            sweep_points: 10,
        }
    }

    /// Tiny scale for CI smoke tests (`h = 2`, 72 nodes).
    pub fn quick() -> Self {
        Self {
            h: 2,
            steady: SteadyOpts {
                warmup: 1_500,
                measure: 2_500,
            },
            transient: TransientOpts {
                warmup: 2_000,
                post: 1_500,
                pre_window: 500,
                bucket: 250,
                drain: 2_000,
            },
            burst_packets: 5,
            sweep_points: 4,
        }
    }

    /// Read the scale from the `OFAR_QUICK=1` / `OFAR_FULL=1` switches
    /// and the `OFAR_H` override (see [`crate::env`]).
    pub fn from_env() -> Result<Self, EnvError> {
        let mut s = if env::flag("OFAR_FULL") {
            Self::paper()
        } else if env::flag("OFAR_QUICK") {
            Self::quick()
        } else {
            Self::default_bench()
        };
        if let Some(h) = env_h()? {
            s.h = h;
        }
        Ok(s)
    }

    /// Base simulator configuration at this scale.
    pub fn cfg(&self) -> SimConfig {
        SimConfig::paper(self.h).with_seed(SUITE_SEED)
    }

    /// `n` evenly spaced loads in `(0, max]`.
    pub fn loads(&self, max: f64) -> Vec<f64> {
        let n = self.sweep_points;
        (1..=n).map(|i| max * i as f64 / n as f64).collect()
    }
}

/// Sweep several mechanisms over a load range under one traffic spec,
/// long-format rows `(mech, load, latency, throughput, misroutes/pkt,
/// ring entries)`. Every `(mechanism, load)` point is one item of one
/// parallel map, highest loads first, and load `i` of every curve runs
/// with the seed `point_seed(SUITE_SEED, i)`, as in a plain
/// one-mechanism sweep.
fn sweep_table(
    title: &str,
    scale: &Scale,
    cfg: SimConfig,
    mechs: &[MechanismKind],
    spec: &TrafficSpec,
    max_load: f64,
) -> Table {
    let loads = scale.loads(max_load);
    let mut t = Table::new(
        title,
        &[
            "mech",
            "load",
            "latency",
            "p99",
            "throughput",
            "misroutes_per_pkt",
            "ring_entries",
        ],
    );
    let points: Vec<(MechanismKind, usize, f64)> = mechs
        .iter()
        .flat_map(|&kind| {
            loads
                .iter()
                .enumerate()
                .map(move |(i, &load)| (kind, i, load))
        })
        .collect();
    let results = longest_first(
        &points,
        |&(_, _, load)| load,
        |_, &(kind, i, load)| {
            let seed = point_seed(SUITE_SEED, i);
            (
                kind,
                steady_state(cfg, kind, spec, load, scale.steady, seed),
            )
        },
    );
    for (kind, p) in results {
        t.push(vec![
            kind.name().to_string(),
            format!("{:.3}", p.load),
            f1(p.avg_latency),
            f1(p.p99_latency),
            f4(p.throughput),
            format!("{:.3}", p.misroute_rate),
            p.ring_entries.to_string(),
        ]);
    }
    t
}

/// **Fig. 2b** — Valiant saturation throughput vs adversarial offset
/// (§III): reproduces the dips at offsets `n·h` that motivate local
/// misrouting, next to the analytic estimate of `theory`.
pub fn fig2b(scale: &Scale) -> Table {
    let cfg = scale.cfg();
    let offsets: Vec<usize> = (1..=2 * scale.h).collect();
    let mut t = Table::new(
        format!("Fig 2b: VAL throughput vs ADV offset (h={})", scale.h),
        &[
            "offset",
            "throughput",
            "analytic_estimate",
            "l2_concentration",
        ],
    );
    let rows: Vec<_> = offsets
        .par_iter()
        .map(|&n| {
            let p = steady_state(
                cfg,
                MechanismKind::Valiant,
                &TrafficSpec::adversarial(n),
                1.0,
                scale.steady,
                SUITE_SEED.wrapping_add(n as u64),
            );
            (n, p.throughput)
        })
        .collect();
    for (n, thr) in rows {
        t.push(vec![
            format!("+{n}"),
            f4(thr),
            f4(theory::valiant_adv_estimate(&cfg.params, n)),
            theory::adv_l2_concentration(&cfg.params, n).to_string(),
        ]);
    }
    t
}

/// **Fig. 3** — latency and throughput vs offered load under uniform
/// traffic (MIN, PB, OFAR, OFAR-L; VAL omitted as in the paper).
pub fn fig3(scale: &Scale) -> Table {
    sweep_table(
        &format!("Fig 3: uniform traffic (UN), h={}", scale.h),
        scale,
        scale.cfg(),
        &[
            MechanismKind::Min,
            MechanismKind::Pb,
            MechanismKind::Ofar,
            MechanismKind::OfarL,
        ],
        &TrafficSpec::uniform(),
        0.9,
    )
}

/// **Fig. 4** — ADV+2 (VAL reference instead of MIN, as in the paper).
pub fn fig4(scale: &Scale) -> Table {
    sweep_table(
        &format!("Fig 4: adversarial +2 (ADV+2), h={}", scale.h),
        scale,
        scale.cfg(),
        &[
            MechanismKind::Valiant,
            MechanismKind::Pb,
            MechanismKind::Ofar,
            MechanismKind::OfarL,
        ],
        &TrafficSpec::adversarial(2),
        0.55,
    )
}

/// **Fig. 5** — the worst case ADV+h, where VAL/PB/OFAR-L hit the `1/h`
/// local-link wall and only OFAR stays near the global-link bound.
pub fn fig5(scale: &Scale) -> Table {
    sweep_table(
        &format!(
            "Fig 5: adversarial +h (ADV+{0}), h={0} — 1/h wall at {1:.3}",
            scale.h,
            1.0 / scale.h as f64
        ),
        scale,
        scale.cfg(),
        &[
            MechanismKind::Valiant,
            MechanismKind::Pb,
            MechanismKind::Ofar,
            MechanismKind::OfarL,
        ],
        &TrafficSpec::adversarial(scale.h),
        0.55,
    )
}

/// **Fig. 6** — transient response: latency (by send cycle) around a
/// traffic-pattern switch, for PB, OFAR and OFAR-L, in the paper's three
/// cases (UN→ADV+2 and ADV+2→UN at 0.14; ADV+2→ADV+h at 0.12).
pub fn fig6(scale: &Scale) -> Table {
    let cfg = scale.cfg();
    let h = scale.h;
    let cases: [(&str, TrafficSpec, TrafficSpec, f64); 3] = [
        (
            "UN->ADV+2",
            TrafficSpec::uniform(),
            TrafficSpec::adversarial(2),
            0.14,
        ),
        (
            "ADV+2->UN",
            TrafficSpec::adversarial(2),
            TrafficSpec::uniform(),
            0.14,
        ),
        (
            "ADV+2->ADV+h",
            TrafficSpec::adversarial(2),
            TrafficSpec::adversarial(h),
            0.12,
        ),
    ];
    let mechs = [MechanismKind::Pb, MechanismKind::Ofar, MechanismKind::OfarL];
    let mut t = Table::new(
        format!("Fig 6: transient latency evolution, h={h}"),
        &["case", "mech", "cycle_rel", "latency", "sent"],
    );
    let mut jobs = Vec::new();
    for (name, before, after, load) in &cases {
        for &mech in &mechs {
            let shape = Shape::Transient {
                after: after.clone(),
                load: *load,
                opts: scale.transient,
            };
            jobs.push((*name, Point::new(cfg, mech, before, SUITE_SEED, shape)));
        }
    }
    let results: Vec<_> = jobs
        .par_iter()
        .map(|(name, point)| (*name, point.kind, transient(point, NoHooks).0))
        .collect();
    for (name, mech, series) in results {
        for b in series {
            t.push(vec![
                name.to_string(),
                mech.name().to_string(),
                b.start.to_string(),
                f1(b.avg_latency),
                b.sent.to_string(),
            ]);
        }
    }
    t
}

/// **Fig. 7** — burst consumption time, normalized to PB (lower is
/// better): UN, ADV+2, ADV+h and the three mixes.
pub fn fig7(scale: &Scale) -> Table {
    let cfg = scale.cfg();
    let h = scale.h;
    let patterns = [
        TrafficSpec::uniform(),
        TrafficSpec::adversarial(2),
        TrafficSpec::adversarial(h),
        TrafficSpec::mix1(h),
        TrafficSpec::mix2(h),
        TrafficSpec::mix3(h),
    ];
    let mechs = [MechanismKind::Pb, MechanismKind::Ofar, MechanismKind::OfarL];
    let mut t = Table::new(
        format!(
            "Fig 7: burst consumption time ({} pkts/node), normalized to PB",
            scale.burst_packets
        ),
        &["pattern", "mech", "cycles", "normalized_to_PB"],
    );
    let points: Vec<(&TrafficSpec, MechanismKind)> = patterns
        .iter()
        .flat_map(|spec| mechs.iter().map(move |&kind| (spec, kind)))
        .collect();
    let runs: Vec<_> = points
        .par_iter()
        .map(|&(spec, kind)| {
            let shape = Shape::burst(scale.burst_packets);
            burst(&Point::new(cfg, kind, spec, SUITE_SEED, shape), NoHooks).0
        })
        .collect();
    for (spec, runs) in patterns.iter().zip(runs.chunks(mechs.len())) {
        // `mechs` opens with PB, the reference of every pattern.
        let pb_cycles = runs[0].cycles.unwrap_or(0);
        for (kind, r) in mechs.iter().zip(runs) {
            let (cycles_s, norm_s) = match r.cycles {
                Some(c) if pb_cycles > 0 => {
                    (c.to_string(), format!("{:.3}", c as f64 / pb_cycles as f64))
                }
                Some(c) => (c.to_string(), "-".to_string()),
                None => ("STALLED".to_string(), "-".to_string()),
            };
            t.push(vec![
                spec.label(),
                kind.name().to_string(),
                cycles_s,
                norm_s,
            ]);
        }
    }
    t
}

/// **Fig. 8** — OFAR with a physical vs an embedded escape ring, under
/// UN and ADV+2: the two implementations must be indistinguishable
/// (the ring carries almost no traffic).
pub fn fig8(scale: &Scale) -> Table {
    let mut t = Table::new(
        format!(
            "Fig 8: physical vs embedded escape ring (OFAR), h={}",
            scale.h
        ),
        &[
            "ring",
            "pattern",
            "load",
            "latency",
            "throughput",
            "ring_entries",
        ],
    );
    let jobs: Vec<(RingMode, TrafficSpec, f64)> = [RingMode::Physical, RingMode::Embedded]
        .into_iter()
        .flat_map(|ring| {
            let mut v = Vec::new();
            for load in scale.loads(0.9) {
                v.push((ring, TrafficSpec::uniform(), load));
            }
            for load in scale.loads(0.5) {
                v.push((ring, TrafficSpec::adversarial(2), load));
            }
            v
        })
        .collect();
    let results: Vec<_> = jobs
        .par_iter()
        .map(|(ring, spec, load)| {
            let cfg = scale.cfg().with_ring(*ring);
            let p = steady_state(
                cfg,
                MechanismKind::Ofar,
                spec,
                *load,
                scale.steady,
                SUITE_SEED,
            );
            (*ring, spec.label(), p)
        })
        .collect();
    for (ring, label, p) in results {
        t.push(vec![
            format!("{ring:?}"),
            label,
            format!("{:.3}", p.load),
            f1(p.avg_latency),
            f4(p.throughput),
            p.ring_entries.to_string(),
        ]);
    }
    t
}

/// **Fig. 9** — congestion with reduced resources: 2 local / 1 global
/// VCs, embedded ring, no congestion management. At high load the
/// canonical network can congest and throughput collapses towards the
/// ring capacity (§VII).
pub fn fig9(scale: &Scale) -> Table {
    let cfg = SimConfig::reduced_vcs(scale.h).with_seed(SUITE_SEED);
    let h = scale.h;
    let mut t = Table::new(
        format!("Fig 9: reduced VCs (2 local / 1 global), OFAR, h={h}"),
        &["pattern", "load", "latency", "throughput", "ring_entries"],
    );
    let patterns = [
        TrafficSpec::uniform(),
        TrafficSpec::adversarial(2),
        TrafficSpec::adversarial(h),
    ];
    let jobs: Vec<(TrafficSpec, f64)> = patterns
        .iter()
        .flat_map(|s| scale.loads(0.9).into_iter().map(move |l| (s.clone(), l)))
        .collect();
    let results: Vec<_> = jobs
        .par_iter()
        .map(|(spec, load)| {
            let p = steady_state(
                cfg,
                MechanismKind::Ofar,
                spec,
                *load,
                scale.steady,
                SUITE_SEED,
            );
            (spec.label(), p)
        })
        .collect();
    for (label, p) in results {
        t.push(vec![
            label,
            format!("{:.3}", p.load),
            f1(p.avg_latency),
            f4(p.throughput),
            p.ring_entries.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults() {
        // no env manipulation here (tests run in parallel); just the
        // constructors
        assert_eq!(Scale::default_bench().h, 4);
        assert_eq!(Scale::paper().h, 6);
        assert_eq!(Scale::paper().burst_packets, 2000);
        assert_eq!(Scale::quick().h, 2);
    }

    #[test]
    fn loads_are_evenly_spaced() {
        let s = Scale::quick();
        let l = s.loads(0.8);
        assert_eq!(l.len(), s.sweep_points);
        assert!((l[0] - 0.2).abs() < 1e-12);
        assert!((l.last().unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fig2b_quick_reproduces_the_dip() {
        let s = Scale::quick();
        let t = fig2b(&s);
        assert_eq!(t.rows.len(), 2 * s.h);
        // offset h row reports concentration == h
        let advh = &t.rows[s.h - 1];
        assert_eq!(advh[0], format!("+{}", s.h));
        assert_eq!(advh[3], s.h.to_string());
    }
}
