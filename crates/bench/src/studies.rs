//! The tables checked in under `results/` that are not figures of the
//! paper: the §III theory printer, the §VII ring-reliability study and
//! the three tuning ablations.

use crate::{no_args, scale};
use ofar_core::prelude::*;
use ofar_core::topology::DragonflyParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::process::ExitCode;

/// Prints the analytic §III throughput bounds and the l₂-concentration
/// table behind Fig. 2b, for several network sizes including the paper's
/// h = 6 and the PERCS-class h = 16.
pub(crate) fn theory(args: &[String]) -> ExitCode {
    no_args("theory", args);
    let scale = scale();
    let mut bounds = Table::new(
        "§III analytic throughput bounds (phits/node/cycle)",
        &[
            "h",
            "nodes",
            "MIN_adv_intergroup",
            "MIN_adv_intragroup",
            "VAL_global",
            "VAL_adv+h (1/h)",
        ],
    );
    for h in [2usize, 4, 6, 16] {
        let p = DragonflyParams::balanced(h);
        bounds.push(vec![
            h.to_string(),
            p.nodes().to_string(),
            format!("{:.5}", theory::min_adversarial_bound(&p)),
            format!("{:.5}", theory::min_local_adversarial_bound(&p)),
            format!("{:.3}", theory::valiant_global_bound()),
            format!("{:.5}", theory::valiant_advh_bound(&p)),
        ]);
    }
    println!("{bounds}");

    let p = DragonflyParams::balanced(scale.h);
    let mut conc = Table::new(
        format!(
            "l2 concentration and Valiant ADV+n estimate (h={}, the analytic Fig. 2b)",
            scale.h
        ),
        &["offset", "concentration C(n)", "estimate"],
    );
    for n in 1..=(2 * scale.h + 2).min(p.groups() - 1) {
        conc.push(vec![
            format!("+{n}"),
            theory::adv_l2_concentration(&p, n).to_string(),
            format!("{:.4}", theory::valiant_adv_estimate(&p, n)),
        ]);
    }
    println!("{conc}");
    ExitCode::SUCCESS
}

/// The §VII reliability study: embed the full family of `h`
/// edge-disjoint Hamiltonian escape rings and measure, by Monte Carlo,
/// how many random link failures the escape subnetwork survives as a
/// function of how many rings are deployed.
pub(crate) fn ring_reliability(scale: &Scale) -> Table {
    let topo = Dragonfly::balanced(scale.h);
    let all = HamiltonianRing::embed_disjoint(&topo, scale.h);
    assert!(HamiltonianRing::pairwise_edge_disjoint(&topo, &all));

    let trials = 300;
    let mut t = Table::new(
        format!(
            "Escape-subnetwork reliability: mean random link failures survived (h={}, {} routers, {trials} trials)",
            scale.h,
            topo.num_routers()
        ),
        &["rings deployed", "mean failures to outage", "p(survive h failures)"],
    );
    let mut rng = StdRng::seed_from_u64(SUITE_SEED);
    let a = topo.routers_per_group();
    let h = scale.h;
    for k in 1..=all.len() {
        let rings = &all[..k];
        let mut total = 0usize;
        let mut survive_h = 0usize;
        for _ in 0..trials {
            let mut failed = Vec::new();
            loop {
                let r = RouterId::from(rng.gen_range(0..topo.num_routers()));
                let deg = (a - 1) + h;
                let port = rng.gen_range(0..deg);
                let other = if port < a - 1 {
                    topo.local_neighbor(r, port)
                } else {
                    topo.global_neighbor(r, port - (a - 1)).0
                };
                failed.push((r, other));
                let alive = HamiltonianRing::surviving_rings(&topo, rings, &failed);
                if failed.len() == h && alive > 0 {
                    survive_h += 1;
                }
                if alive == 0 {
                    total += failed.len();
                    break;
                }
            }
        }
        t.push(vec![
            k.to_string(),
            format!("{:.1}", total as f64 / trials as f64),
            format!("{:.2}", survive_h as f64 / trials as f64),
        ]);
    }
    t
}

/// The tunables one ablation row runs a mechanism with.
type Tuning = (Option<OfarConfig>, Option<PbConfig>);

/// Score every tuning at the same two `(traffic, load)` probes, at the
/// scale's run lengths and seed: one flat list of `tunings × probes`
/// points, run by one parallel map, returned as one pair per tuning.
fn score(
    scale: &Scale,
    kind: MechanismKind,
    tunings: &[Tuning],
    probes: &[(TrafficSpec, f64); 2],
) -> Vec<[SteadyPoint; 2]> {
    let points: Vec<(&Tuning, &(TrafficSpec, f64))> = tunings
        .iter()
        .flat_map(|tuning| probes.iter().map(move |probe| (tuning, probe)))
        .collect();
    let results: Vec<SteadyPoint> = points
        .par_iter()
        .map(|&(&(ofar, pb), (spec, load))| {
            let (cfg, opts) = (scale.cfg(), scale.steady);
            steady_state_tuned(cfg, kind, spec, *load, opts, SUITE_SEED, ofar, pb)
        })
        .collect();
    results.chunks(2).map(|pair| [pair[0], pair[1]]).collect()
}

/// Ablation of OFAR's misroute thresholds (§IV-B / §V): the paper chose
/// `Th_min = 0, Th_nonmin = 0.9·Q_min` empirically as "a reasonable
/// trade-off between the performance in adversarial and uniform traffic
/// patterns". This reruns that study: each threshold policy is
/// scored on uniform latency at moderate load and on ADV+h throughput at
/// high load.
pub(crate) fn ablation_thresholds(scale: &Scale) -> Table {
    let h = scale.h;

    let candidates: Vec<(String, MisrouteThreshold)> = [0.3, 0.5, 0.7, 0.9, 1.0]
        .into_iter()
        .map(|f| {
            (
                format!("variable x{f}"),
                MisrouteThreshold::Variable { factor: f },
            )
        })
        .chain([
            (
                "static 100%/40%".to_string(),
                MisrouteThreshold::Static {
                    th_min: 1.0,
                    th_nonmin: 0.4,
                },
            ),
            (
                "static 50%/40%".to_string(),
                MisrouteThreshold::Static {
                    th_min: 0.5,
                    th_nonmin: 0.4,
                },
            ),
        ])
        .collect();

    let mut t = Table::new(
        format!("OFAR threshold ablation (h={h})"),
        &[
            "threshold",
            "UN@0.65 latency",
            "UN@0.65 thr",
            "ADVh@0.45 latency",
            "ADVh@0.45 thr",
        ],
    );
    let tunings: Vec<Tuning> = candidates
        .iter()
        .map(|&(_, threshold)| {
            let ofar = OfarConfig {
                threshold,
                ..OfarConfig::base()
            };
            (Some(ofar), None)
        })
        .collect();
    let probes = [
        (TrafficSpec::uniform(), 0.65),
        (TrafficSpec::adversarial(h), 0.45),
    ];
    let scores = score(scale, MechanismKind::Ofar, &tunings, &probes);
    for ((name, _), [un, adv]) in candidates.into_iter().zip(scores) {
        t.push(vec![
            name,
            format!("{:.1}", un.avg_latency),
            format!("{:.4}", un.throughput),
            format!("{:.1}", adv.avg_latency),
            format!("{:.4}", adv.throughput),
        ]);
    }
    t
}

/// Ablation of the Piggybacking tunables (the paper tuned PB's
/// thresholds empirically, §V, without publishing them): saturation
/// threshold and broadcast period, scored like the OFAR ablation.
pub(crate) fn ablation_pb(scale: &Scale) -> Table {
    let h = scale.h;

    let mut t = Table::new(
        format!("PB tunable ablation (h={h})"),
        &[
            "sat_threshold",
            "period",
            "UN@0.45 latency",
            "UN@0.45 thr",
            "ADV2@0.3 latency",
            "ADV2@0.3 thr",
        ],
    );
    let grid: Vec<PbConfig> = [0.1, 0.25, 0.4, 0.6]
        .into_iter()
        .flat_map(|sat| {
            [5u64, 10, 40].map(|period| PbConfig {
                saturation_threshold: sat,
                update_period: period,
            })
        })
        .collect();
    let tunings: Vec<Tuning> = grid.iter().map(|&pb| (None, Some(pb))).collect();
    let probes = [
        (TrafficSpec::uniform(), 0.45),
        (TrafficSpec::adversarial(2), 0.3),
    ];
    let scores = score(scale, MechanismKind::Pb, &tunings, &probes);
    for (pb, [un, adv]) in grid.into_iter().zip(scores) {
        t.push(vec![
            format!("{}", pb.saturation_threshold),
            pb.update_period.to_string(),
            format!("{:.1}", un.avg_latency),
            format!("{:.4}", un.throughput),
            format!("{:.1}", adv.avg_latency),
            format!("{:.4}", adv.throughput),
        ]);
    }
    t
}

/// Ablation of OFAR's escape-ring patience: how long a head-blocked
/// packet waits before requesting the escape ring (§IV-C makes the ring
/// a last resort). Too eager floods the slow ring with ordinarily
/// congested traffic; too patient starves genuinely stalled dependency
/// chains of their rescue. Scored at the worst-case ADV+h pattern,
/// below and above saturation.
pub(crate) fn ablation_patience(scale: &Scale) -> Table {
    let h = scale.h;
    let spec = TrafficSpec::adversarial(h);

    let mut t = Table::new(
        format!("OFAR ring-patience ablation, ADV+{h} (h={h})"),
        &[
            "patience",
            "pre-sat latency",
            "pre-sat thr",
            "overload thr",
            "overload ring entries",
        ],
    );
    let patiences = [16u16, 48, 100, 200, 255];
    let tunings: Vec<Tuning> = patiences
        .iter()
        .map(|&ring_patience| {
            let ofar = OfarConfig {
                ring_patience,
                ..OfarConfig::base()
            };
            (Some(ofar), None)
        })
        .collect();
    let probes = [(spec.clone(), 0.25), (spec, 0.55)];
    let scores = score(scale, MechanismKind::Ofar, &tunings, &probes);
    for (patience, [pre, over]) in patiences.into_iter().zip(scores) {
        t.push(vec![
            patience.to_string(),
            format!("{:.1}", pre.avg_latency),
            format!("{:.4}", pre.throughput),
            format!("{:.4}", over.throughput),
            over.ring_entries.to_string(),
        ]);
    }
    t
}
