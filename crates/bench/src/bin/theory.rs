//! Prints the analytic §III throughput bounds and the l₂-concentration
//! table behind Fig. 2b, for several network sizes including the paper's
//! h = 6 and the PERCS-class h = 16.

use ofar_core::topology::DragonflyParams;
use ofar_core::{theory, Table};

fn main() {
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

    let scale = ofar_bench::scale();
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
}
