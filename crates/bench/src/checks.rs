//! The experiments whose exit status is the result: the golden
//! signatures, the certification table and the mutation kill matrix.

use crate::{env_or_exit, no_args, start};
use ofar_core::prelude::*;
use ofar_core::verify::{verify_decl, RingSpec, VerifyError};
use ofar_core::{env, golden as table};
use ofar_mutate::{KillMatrix, MutationOp};
use std::path::PathBuf;
use std::process::ExitCode;

/// Golden signatures: the cross-build behaviour pin (ROADMAP 4a).
///
/// ```text
/// ofar-bench golden [--emit FILE] [--verify FILE]
/// ```
///
/// Runs the fixed table of [`ofar_core::golden`] and prints it.
/// `--emit` writes it (atomically) — only a PR that means to change
/// simulated behaviour does that, and says why; `--verify` byte-compares
/// a checked-in table against this build and exits 1 on drift. Exit 2 on
/// usage or I/O errors.
pub(crate) fn golden(args: &[String]) -> ExitCode {
    let mut emit: Option<PathBuf> = None;
    let mut verify: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--emit" => &mut emit,
            "--verify" => &mut verify,
            other => {
                eprintln!(
                    "unknown flag: {other}\nusage: ofar-bench golden [--emit FILE] [--verify FILE]"
                );
                return ExitCode::from(2);
            }
        };
        let Some(v) = it.next() else {
            eprintln!("{a} needs a value");
            return ExitCode::from(2);
        };
        *slot = Some(PathBuf::from(v));
    }
    if let Some(path) = verify {
        return match table::verify(&path) {
            Ok(()) => {
                println!("golden: {} verifies", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("golden: {e}");
                ExitCode::from(1)
            }
        };
    }
    let text = table::render(&table::signatures());
    print!("{text}");
    if let Some(path) = emit {
        if let Err(e) = ofar_core::write_atomic_text(&path, &text) {
            eprintln!("golden: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// One certification verdict as the trailing cells of a table row.
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

/// Certification table: run the static CDG deadlock verifier over the
/// shipped configuration space (every mechanism × VC budget × ring mode
/// × ring count used by the figure experiments) and print one row per
/// configuration — then demonstrate the rejections on deliberately
/// broken configurations, and finally run the routing-conformance model
/// checker: every mechanism's real `route`/`on_inject` code is driven
/// over the full abstract decision space, proved contained in its
/// declaration, proved livelock-free by ranking, and its static hop
/// bound checked against the paper's path-length table.
///
/// ```text
/// cargo run --release -p ofar-bench -- verify        # h = 4
/// OFAR_QUICK=1 cargo run -p ofar-bench -- verify     # h = 2
/// ```
pub(crate) fn verify(args: &[String]) -> ExitCode {
    let scale = start("verify", args);
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
    //    the space the figure experiments actually run.
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

    println!("{t}");
    println!("{t9}");
    println!("{tb}");
    println!("{tc}");
    println!("{td}");

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
    ExitCode::SUCCESS
}

/// Mutation-adequacy run: seed every cataloged defect into the real
/// mechanisms and the engine's flow control, drive each mutant through
/// the four-oracle proof stack, and print the kill matrix.
///
/// Scale: h=2 by default (the PR-time smoke run, a few seconds);
/// `OFAR_FULL=1` (or `OFAR_H=4`) re-measures at h=4 for the nightly
/// adequacy job. Exit status is the CI contract: every applicable pair
/// must die with a witness, so the run exits non-zero on any survivor
/// (an oracle regressed) or on any kill with an empty witness.
pub(crate) fn mutants(args: &[String]) -> ExitCode {
    no_args("mutants", args);
    let full = if env::flag("OFAR_FULL") { 4 } else { 2 };
    let h = env_or_exit(experiments::env_h()).unwrap_or(full);
    let seed: u64 = 0xAD0B5;
    let cfg = SimConfig::paper(h);
    eprintln!(
        "[mutants] h={h} ({} nodes), {} operators, {} (operator x mechanism) pairs, seed={seed}",
        cfg.params.nodes(),
        MutationOp::ALL.len(),
        ofar_mutate::pairs().len(),
    );

    #[expect(
        clippy::disallowed_types,
        reason = "progress line on stderr only; stdout stays a function of (config, seed)"
    )]
    let start = std::time::Instant::now();
    let matrix = KillMatrix::run(&cfg, seed);
    eprintln!(
        "[mutants] matrix done in {:.1}s",
        start.elapsed().as_secs_f64()
    );

    println!("kill matrix (h={h}):\n");
    println!("{}", matrix.render());
    println!("kill witnesses:");
    print!("{}", matrix.render_witnesses());
    println!();
    println!(
        "{:<12} {:>6} {:>6} {:>6}",
        "oracle", "first", "kills", "alone"
    );
    for k in matrix.kills_per_oracle() {
        println!(
            "{:<12} {:>6} {:>6} {:>6}",
            k.oracle.name(),
            k.first,
            k.kills,
            k.alone
        );
    }
    let survivors = matrix.survivors();
    println!(
        "\n{} pairs, {} survivor(s)",
        matrix.outcomes.len(),
        survivors.len(),
    );
    for s in &survivors {
        println!(
            "  survivor: {} x {} — {}",
            s.op.name(),
            s.mech.name(),
            s.op.describe()
        );
    }

    let mut failed = false;
    if !survivors.is_empty() {
        eprintln!(
            "\nFAIL: {} pair(s) survived — an oracle regressed",
            survivors.len()
        );
        failed = true;
    }
    if matrix
        .outcomes
        .iter()
        .any(|o| o.killed_by().is_some_and(|(_, w)| w.is_empty()))
    {
        eprintln!("\nFAIL: a kill has an empty witness");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
