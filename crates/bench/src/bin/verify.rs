//! Certification table: run the static CDG deadlock verifier over the
//! shipped configuration space (every mechanism × VC budget × ring mode
//! × ring count used by the figure binaries) and print one row per
//! configuration — then demonstrate the rejections on deliberately
//! broken configurations, and finally run the routing-conformance model
//! checker: every mechanism's real `route`/`on_inject` code is driven
//! over the full abstract decision space, proved contained in its
//! declaration, proved livelock-free by ranking, and its static hop
//! bound checked against the paper's path-length table.
//!
//! ```text
//! cargo run --release -p ofar-bench --bin verify        # h = 4
//! OFAR_QUICK=1 cargo run -p ofar-bench --bin verify     # h = 2
//! ```

use ofar_core::prelude::*;
use ofar_core::verify::{verify_decl, RingSpec, VerifyError};
use ofar_core::Table;

fn cell(result: &Result<Certificate, VerifyError>) -> Vec<String> {
    match result {
        Ok(c) => vec![
            "CERTIFIED".into(),
            c.channels.to_string(),
            c.dependencies.to_string(),
            c.rings.to_string(),
            c.cycles_drained.to_string(),
            c.bubble_slack.map_or("-".into(), |s| s.to_string()),
        ],
        Err(e) => vec![
            "REJECTED".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            e.to_string(),
        ],
    }
}

fn main() {
    let scale = ofar_bench::announce("verify");
    let h = scale.h;
    let headers = [
        "mechanism",
        "vcs l/g",
        "ring",
        "status",
        "channels",
        "deps",
        "rings",
        "drained",
        "slack",
    ];

    // 1. Every shipped (mechanism × ring) configuration at paper VCs —
    //    the space the figure binaries actually run.
    let mut t = Table::new(
        format!("Certification of the shipped configurations (h = {h})"),
        &headers,
    );
    for kind in MechanismKind::paper_set() {
        let base = kind.adapt_config(SimConfig::paper(h));
        let mut variants: Vec<SimConfig> = vec![base];
        if kind.needs_ring() {
            // fig8 compares ring models; rings sweeps ring counts 1..h.
            let mut phys = base;
            phys.ring = RingMode::Physical;
            variants.push(phys);
            for k in 2..=h {
                let mut multi = base;
                multi.escape_rings = k;
                variants.push(multi);
            }
        }
        for cfg in variants {
            let mut row = vec![
                kind.name().to_string(),
                format!("{}/{}", cfg.vcs_local, cfg.vcs_global),
                match cfg.ring {
                    RingMode::None => "none".into(),
                    RingMode::Physical => format!("phys x{}", cfg.escape_rings),
                    RingMode::Embedded => format!("emb x{}", cfg.escape_rings),
                },
            ];
            row.extend(cell(&certify(&cfg, kind)));
            t.push(row);
        }
    }

    // 2. Fig. 9's reduced-VC configuration: the ladder collapses, so
    //    only the escape-ring mechanism survives — the ladder mechanisms
    //    are *correctly* rejected with a named cycle.
    let mut t9 = Table::new(
        format!("Reduced VCs, fig. 9 (2 local / 1 global, h = {h})"),
        &headers,
    );
    for kind in MechanismKind::paper_set() {
        let mut cfg = SimConfig::reduced_vcs(h);
        if !kind.needs_ring() {
            cfg.ring = RingMode::None;
        }
        let mut row = vec![
            kind.name().to_string(),
            format!("{}/{}", cfg.vcs_local, cfg.vcs_global),
            if kind.needs_ring() { "emb x1" } else { "none" }.to_string(),
        ];
        row.extend(cell(&certify(&cfg, kind)));
        t9.push(row);
    }

    // 3. Deliberately broken configurations: the verifier must reject
    //    each one and name the offender.
    let mut tb = Table::new("Deliberately broken configurations", &["case", "verdict"]);
    let cfg = MechanismKind::Ofar.adapt_config(SimConfig::paper(h));
    let topo = Dragonfly::new(cfg.params);
    let ring = HamiltonianRing::embedded(&topo, 0);
    let decl = MechanismKind::Ofar.dependency_decl(&cfg);

    // 3a. a reversed ring edge (no longer a directed spanning cycle)
    let mut rev = RingSpec::from_ring(&topo, &ring);
    let (a, b) = rev.edges[5];
    rev.edges[5] = (b, a);
    tb.push(vec![
        "reversed ring edge".into(),
        verify_decl(&topo, &cfg, &decl, &[rev])
            .unwrap_err()
            .to_string(),
    ]);

    // 3b. ring buffers too shallow for the bubble
    let mut shallow = cfg;
    shallow.buf_ring = shallow.packet_size;
    tb.push(vec![
        "zero-bubble ring buffers".into(),
        certify(&shallow, MechanismKind::Ofar)
            .unwrap_err()
            .to_string(),
    ]);

    // 3c. an adaptive VC with no declared escape drain (Duato fails)
    let mut no_drain = decl.clone();
    no_drain.edges.retain(|e| {
        !(e.to == ofar_core::routing::ClassId::Escape
            && e.from == ofar_core::routing::ClassId::Global { vc: 0 })
    });
    let spec = RingSpec::from_ring(&topo, &ring);
    tb.push(vec![
        "OFAR without escape entry on g0".into(),
        verify_decl(&topo, &cfg, &no_drain, &[spec])
            .unwrap_err()
            .to_string(),
    ]);

    // 3d. ladder mechanism with too few VCs and no escape layer
    let mut folded = SimConfig::reduced_vcs(h);
    folded.ring = RingMode::None;
    tb.push(vec![
        "VAL on 2 local VCs, no ring".into(),
        certify(&folded, MechanismKind::Valiant)
            .unwrap_err()
            .to_string(),
    ]);

    // 4. Routing conformance: the model checker drives the real policy
    //    code over every reachable abstract decision and proves it stays
    //    inside the declaration with a strictly decreasing ranking. The
    //    hop bound column is *computed* from the exploration and must
    //    reproduce the paper's path-length table.
    let mut tc = Table::new(
        format!("Routing conformance (h = {h})"),
        &[
            "mechanism",
            "status",
            "states",
            "decisions",
            "observed",
            "dead",
            "hop bound",
            "paper",
            "ring bound",
        ],
    );
    let mut kinds = MechanismKind::paper_set().to_vec();
    kinds.push(MechanismKind::Par);
    let mut dead_edges: Vec<(String, String)> = Vec::new();
    let mut failures = 0usize;
    for kind in kinds {
        let cfg = kind.adapt_config(SimConfig::paper(h));
        match conformance(&cfg, kind) {
            Ok(rep) => {
                let declared = rep.observed.len() + rep.dead.len();
                if rep.hop_bound != rep.paper_bound {
                    failures += 1;
                }
                for d in &rep.dead {
                    dead_edges.push((
                        kind.name().to_string(),
                        format!("{} -> {} ({:?})", d.from, d.to, d.why),
                    ));
                }
                tc.push(vec![
                    kind.name().to_string(),
                    "CERTIFIED".into(),
                    rep.states.to_string(),
                    rep.decisions.to_string(),
                    format!("{}/{}", rep.observed.len(), declared),
                    rep.dead.len().to_string(),
                    rep.hop_bound.to_string(),
                    rep.paper_bound.to_string(),
                    rep.ring_bound.map_or("-".into(), |b| b.to_string()),
                ]);
            }
            Err(e) => {
                failures += 1;
                tc.push(vec![
                    kind.name().to_string(),
                    "REJECTED".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    e.to_string(),
                ]);
            }
        }
    }

    // 4b. Dead declared transitions: declared dependencies the code never
    //     exercised. These widen the certified graph beyond what runs —
    //     legal (the declaration may over-approximate) but worth eyes.
    let mut td = Table::new(
        "Dead declared transitions (declared but never observed)",
        &["mechanism", "transition"],
    );
    for (m, e) in &dead_edges {
        td.push(vec![m.clone(), e.clone()]);
    }

    ofar_bench::emit(&t);
    ofar_bench::emit(&t9);
    ofar_bench::emit(&tb);
    ofar_bench::emit(&tc);
    ofar_bench::emit(&td);

    let rejected = t
        .rows
        .iter()
        .filter(|r| r.iter().any(|c| c == "REJECTED"))
        .count();
    assert_eq!(rejected, 0, "every shipped configuration must certify");
    assert!(
        tb.rows.iter().all(|r| !r[1].is_empty()),
        "every broken configuration must be rejected with a reason"
    );
    assert_eq!(
        failures, 0,
        "every mechanism must conform with its paper hop bound"
    );
    eprintln!(
        "all shipped configurations certified; all broken ones rejected; \
         all mechanisms conform with paper hop bounds"
    );
}
