//! `ofar-bench` fails closed on its command line, and `list` is the
//! experiment table.

use std::process::{Command, Output};

fn ofar_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ofar-bench"))
        .args(args)
        .output()
        .expect("ofar-bench spawns")
}

#[test]
fn unknown_experiments_and_stray_arguments_are_refused() {
    for (args, offender) in [
        (&["fig33"][..], "fig33"),
        (&["probe", "OFAR", "UN"][..], "probe"),
        (&["fig3", "--quick"][..], "--quick"),
        (
            &["list", "figures"][..],
            "list takes no arguments, got figures",
        ),
        (&[][..], "usage"),
    ] {
        let out = ofar_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(offender), "{args:?}: stderr {err:?}");
    }
}

#[test]
fn list_prints_exactly_the_table() {
    let out = ofar_bench(&["list"]);
    assert!(out.status.success(), "{out:?}");
    let want: String = ofar_bench::EXPERIMENTS
        .iter()
        .map(|e| format!("{}\t{}\n", e.name, e.kind.name()))
        .collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
    assert_eq!(ofar_bench::EXPERIMENTS.len(), 21);
}
