//! `ofar-sim` fails closed on its command line: lookup used to be by
//! position, so `--mehc VAL` silently simulated the default mechanism.

use std::process::{Command, Output};

fn ofar_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ofar-sim"))
        .args(args)
        .output()
        .expect("ofar-sim spawns")
}

#[test]
fn unknown_and_repeated_flags_are_refused() {
    for (args, offender) in [
        (&["--mehc", "VAL", "--h", "2"][..], "--mehc"),
        (&["--h", "2", "--h", "3"][..], "--h"),
        (&["--mech", "MIN", "stray"][..], "stray"),
        (&["--load"][..], "--load"),
    ] {
        let out = ofar_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must not simulate anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(offender), "{args:?}: stderr {err:?}");
    }
}

#[test]
fn a_valid_line_still_runs() {
    let out = ofar_sim(&[
        "--mech",
        "VAL",
        "--pattern",
        "ADV+1",
        "--load",
        "0.2",
        "--h",
        "2",
        "--warmup",
        "200",
        "--measure",
        "400",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("VAL on h=2"));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("offered 0.200"));
}
