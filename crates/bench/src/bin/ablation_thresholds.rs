//! Ablation of OFAR's misroute thresholds (§IV-B / §V): the paper chose
//! `Th_min = 0, Th_nonmin = 0.9·Q_min` empirically as "a reasonable
//! trade-off between the performance in adversarial and uniform traffic
//! patterns". This binary reruns that study: each threshold policy is
//! scored on uniform latency at moderate load and on ADV+h throughput at
//! high load.

use ofar_core::prelude::*;

fn main() {
    let scale = ofar_bench::announce("ablation_thresholds");
    let cfg = scale.cfg();
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
    for (name, th) in candidates {
        let ofar = Some(OfarConfig {
            threshold: th,
            ..OfarConfig::base()
        });
        let un = steady_state_tuned(
            cfg,
            MechanismKind::Ofar,
            &TrafficSpec::uniform(),
            0.65,
            scale.steady,
            scale.seed,
            ofar,
            None,
        );
        let adv = steady_state_tuned(
            cfg,
            MechanismKind::Ofar,
            &TrafficSpec::adversarial(h),
            0.45,
            scale.steady,
            scale.seed,
            ofar,
            None,
        );
        t.push(vec![
            name,
            format!("{:.1}", un.avg_latency),
            format!("{:.4}", un.throughput),
            format!("{:.1}", adv.avg_latency),
            format!("{:.4}", adv.throughput),
        ]);
    }
    ofar_bench::emit(&t);
}
