//! `ofar-race` — the schedule-adversarial commutativity certifier.
//!
//! ```text
//! ofar-race [--emit FILE] [--verify FILE] [--full]
//! ```
//!
//! Every mechanism × traffic pattern is driven under the identity
//! shard schedule and under K adversarial schedules, byte-comparing
//! snapshots at every epoch. Divergences are bisected to the first
//! divergent cycle and reported as structured witnesses.
//!
//! Exit status: 0 when every cell commutes, 1 on any divergence, 2 on
//! usage or I/O errors. `--emit` writes the verdict artifact
//! (`results/commutativity.json`, atomically); `--verify` byte-compares
//! a checked-in artifact against the fresh one and fails on drift.
//! `--full` (or `OFAR_FULL=1`) runs the nightly sweep: h=4, longer
//! runs, six schedules, plus the congestion-managed overload cell.
//! The artifact is always rendered from the smoke configuration, so
//! `--emit`/`--verify` reject `--full`.

use ofar_analyze::race::{
    certify_mechanism, full_patterns, render, smoke_patterns, RaceConfig, Verdict,
};
use ofar_routing::MechanismKind;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    emit: Option<PathBuf>,
    verify: Option<PathBuf>,
    full: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        emit: None,
        verify: None,
        full: ofar_core::env::flag("OFAR_FULL"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--emit" => args.emit = Some(value("--emit")?),
            "--verify" => args.verify = Some(value("--verify")?),
            "--full" => args.full = true,
            "--help" | "-h" => {
                return Err("usage: ofar-race [--emit FILE] [--verify FILE] [--full]".to_string())
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.full && (args.emit.is_some() || args.verify.is_some()) {
        return Err(
            "--full cannot be combined with --emit/--verify: the checked-in artifact \
             is generated from the smoke configuration"
                .to_string(),
        );
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let rc = if args.full {
        RaceConfig::full()
    } else {
        RaceConfig::smoke()
    };
    let patterns = if args.full {
        full_patterns()
    } else {
        smoke_patterns()
    };

    println!(
        "ofar-race: h={} cycles={} epoch={} schedules={} ({} mechanisms × {} patterns)",
        rc.h,
        rc.cycles,
        rc.epoch,
        rc.schedules,
        MechanismKind::paper_set().len(),
        patterns.len()
    );

    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut diverged = false;
    for kind in MechanismKind::paper_set() {
        for cell in &patterns {
            let v = match certify_mechanism(kind, cell, &rc) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("ofar-race: {kind}/{}: {e}", cell.label);
                    return ExitCode::from(2);
                }
            };
            match &v.witness {
                None => println!("  {kind}/{}: commutes", cell.label),
                Some(w) => {
                    diverged = true;
                    println!("  DIVERGES  {w}");
                }
            }
            verdicts.push(v);
        }
    }

    let artifact = render(&rc, &verdicts);
    if let Some(p) = &args.emit {
        // tmp + rename: CI never sees a torn artifact.
        let tmp = p.with_extension("json.tmp");
        let write = std::fs::write(&tmp, &artifact).and_then(|()| std::fs::rename(&tmp, p));
        if let Err(e) = write {
            eprintln!("ofar-race: {}: {e}", p.display());
            return ExitCode::from(2);
        }
        println!("ofar-race: wrote verdicts to {}", p.display());
    }
    if let Some(p) = &args.verify {
        let checked_in = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ofar-race: {}: {e}", p.display());
                return ExitCode::from(2);
            }
        };
        if checked_in != artifact {
            eprintln!(
                "ofar-race: {} drifted from the fresh verdicts — \
                 regenerate with --emit and commit the diff",
                p.display()
            );
            return ExitCode::FAILURE;
        }
        println!("ofar-race: verdicts verified: {}", p.display());
    }

    if diverged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
