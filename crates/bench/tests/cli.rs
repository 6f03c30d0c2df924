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
        (
            &["resume", "full", "/tmp/x"][..],
            "unknown experiment resume",
        ),
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
    assert_eq!(ofar_bench::EXPERIMENTS.len(), 20);
}

/// A checkpoint knob no run can use exits 2 naming the variable before
/// the banner: it used to panic inside a worker (exit 101), or, for an
/// empty directory, litter the working directory with checkpoints that
/// resume never found.
#[test]
fn a_bad_checkpoint_knob_is_refused_before_the_banner() {
    let cwd = std::env::temp_dir().join(format!("ofar-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    for (name, value) in [
        ("OFAR_CHECKPOINT_EVERY", "abc"),
        ("OFAR_CHECKPOINT_DIR", ""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ofar-bench"))
            .arg("fig3")
            .env("OFAR_QUICK", "1")
            .env(name, value)
            .current_dir(&cwd)
            .output()
            .expect("ofar-bench spawns");
        assert_eq!(out.status.code(), Some(2), "{name}={value:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{name}={value:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(name) && !err.contains("panicked"), "{err}");
    }
    let left = std::fs::read_dir(&cwd).unwrap().count();
    std::fs::remove_dir_all(&cwd).ok();
    assert_eq!(left, 0, "a refused run wrote files");
}

/// Every experiment that reads the scale refuses an unusable `OFAR_H`
/// before it prints anything (`golden`'s cells fix their own h).
#[test]
fn a_bad_h_is_refused_before_any_output() {
    for e in ofar_bench::EXPERIMENTS
        .iter()
        .filter(|e| e.name != "golden")
    {
        let out = Command::new(env!("CARGO_BIN_EXE_ofar-bench"))
            .arg(e.name)
            .env("OFAR_QUICK", "1")
            .env("OFAR_H", "abc")
            .output()
            .expect("ofar-bench spawns");
        assert_eq!(out.status.code(), Some(2), "{}: {out:?}", e.name);
        assert!(out.stdout.is_empty(), "{}: {out:?}", e.name);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("OFAR_H"), "{}: {err}", e.name);
    }
}
