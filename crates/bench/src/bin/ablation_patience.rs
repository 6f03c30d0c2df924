//! Ablation of OFAR's escape-ring patience: how long a head-blocked
//! packet waits before requesting the escape ring (§IV-C makes the ring
//! a last resort). Too eager floods the slow ring with ordinarily
//! congested traffic; too patient starves genuinely stalled dependency
//! chains of their rescue. Scored at the worst-case ADV+h pattern,
//! below and above saturation.

use ofar_core::prelude::*;

fn main() {
    let scale = ofar_bench::announce("ablation_patience");
    let cfg = scale.cfg();
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
    for patience in [16u16, 48, 100, 200, 255] {
        let ofar = Some(OfarConfig {
            ring_patience: patience,
            ..OfarConfig::base()
        });
        let pre = steady_state_tuned(
            cfg,
            MechanismKind::Ofar,
            &spec,
            0.25,
            scale.steady,
            scale.seed,
            ofar,
            None,
        );
        let over = steady_state_tuned(
            cfg,
            MechanismKind::Ofar,
            &spec,
            0.55,
            scale.steady,
            scale.seed,
            ofar,
            None,
        );
        t.push(vec![
            patience.to_string(),
            format!("{:.1}", pre.avg_latency),
            format!("{:.4}", pre.throughput),
            format!("{:.4}", over.throughput),
            over.ring_entries.to_string(),
        ]);
    }
    ofar_bench::emit(&t);
}
