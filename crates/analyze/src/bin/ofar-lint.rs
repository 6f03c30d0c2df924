//! `ofar-lint` — the workspace determinism & hot-path gate.
//!
//! ```text
//! ofar-lint [--root DIR] [--json FILE] [--selftest] [--list-rules]
//! ```
//!
//! Deny by default: exits 1 when any unsuppressed finding remains, 0 on
//! a clean run, 2 on usage or I/O errors. `--selftest` runs the
//! embedded violation-fixture corpus instead of scanning the workspace.

use ofar_analyze::{analyze_sources, collect_sources, corpus, report, rules, LintConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json_out: Option<PathBuf>,
    selftest: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json_out: None,
        selftest: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--root" => args.root = value("--root")?,
            "--json" => args.json_out = Some(value("--json")?),
            "--selftest" => args.selftest = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err(
                    "usage: ofar-lint [--root DIR] [--json FILE] [--selftest] [--list-rules]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
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

    if args.list_rules {
        for (id, desc) in rules::CATALOG {
            println!("{id}  {desc}");
        }
        return ExitCode::SUCCESS;
    }

    if args.selftest {
        return match corpus::selftest() {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(errors) => {
                for e in errors {
                    eprintln!("{e}");
                }
                ExitCode::FAILURE
            }
        };
    }

    let sources = match collect_sources(&args.root) {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => {
            eprintln!("ofar-lint: no sources under {}", args.root.display());
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("ofar-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = analyze_sources(&sources, &LintConfig::default());

    if let Some(p) = &args.json_out {
        if let Err(e) = std::fs::write(p, report::json(&analysis.findings, analysis.files_scanned))
        {
            eprintln!("ofar-lint: {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }

    print!(
        "{}",
        report::text(&analysis.findings, analysis.files_scanned)
    );
    if analysis.open().next().is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
