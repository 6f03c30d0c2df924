//! Ablation of the Piggybacking tunables (the paper tuned PB's
//! thresholds empirically, §V, without publishing them): saturation
//! threshold and broadcast period, scored like the OFAR ablation.

use ofar_core::prelude::*;

fn main() {
    let scale = ofar_bench::announce("ablation_pb");
    let cfg = scale.cfg();
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
    for sat in [0.1, 0.25, 0.4, 0.6] {
        for period in [5u64, 10, 40] {
            let pb = Some(PbConfig {
                saturation_threshold: sat,
                update_period: period,
            });
            let un = steady_state_tuned(
                cfg,
                MechanismKind::Pb,
                &TrafficSpec::uniform(),
                0.45,
                scale.steady,
                scale.seed,
                None,
                pb,
            );
            let adv = steady_state_tuned(
                cfg,
                MechanismKind::Pb,
                &TrafficSpec::adversarial(2),
                0.3,
                scale.steady,
                scale.seed,
                None,
                pb,
            );
            t.push(vec![
                format!("{sat}"),
                period.to_string(),
                format!("{:.1}", un.avg_latency),
                format!("{:.4}", un.throughput),
                format!("{:.1}", adv.avg_latency),
                format!("{:.4}", adv.throughput),
            ]);
        }
    }
    ofar_bench::emit(&t);
}
