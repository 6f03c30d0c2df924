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

/// `--help` prints the usage block of the module doc and nothing of the
/// comment syntax around it.
#[test]
fn help_is_the_usage_block_alone() {
    let out = ofar_sim(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().next(), Some("ofar-sim [OPTIONS]"));
    for line in text.lines() {
        assert!(
            !line.starts_with("//") && !line.starts_with('`'),
            "{line:?}"
        );
    }
    assert!(text.contains("--cycles"), "{text}");
}

/// An `h` no network can be built from exits 2 with the typed
/// `ConfigError` text — no banner, no backtrace — before anything is
/// sized by it.
#[test]
fn an_unusable_h_is_refused_before_anything_is_built() {
    for (h, why) in [
        ("0", "h = 0 is below the minimum"),
        ("1", "h = 1 is below the minimum"),
        ("40", "159 ports per router exceed"),
        ("9223372036854775808", "ports per router exceed"),
    ] {
        let out = ofar_sim(&["--h", h]);
        assert_eq!(out.status.code(), Some(2), "--h {h} must exit 2");
        assert!(out.stdout.is_empty(), "--h {h} must not simulate anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("invalid configuration: "), "--h {h}: {err}");
        assert!(
            err.contains(why) && !err.contains("panicked"),
            "--h {h}: {err}"
        );
    }
}

/// An ADV offset no group pair has, and a load no Bernoulli source can
/// offer, exit 2 naming the valid range instead of tripping the asserts
/// of `TrafficGen::new` and `Bernoulli::new` (exit 101).
#[test]
fn an_out_of_range_pattern_or_load_is_refused() {
    for (args, range) in [
        (&["--pattern", "ADV+0"][..], "1..9"),
        (&["--pattern", "ADV+99"][..], "1..9"),
        (&["--load", "-1"][..], "0..=8"),
        (&["--load", "nan"][..], "0..=8"),
        (&["--load", "9"][..], "0..=8"),
    ] {
        let out = ofar_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must not simulate anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(&format!("invalid value for {}: ", args[0]))
                && err.contains(&format!("must lie in {range}"))
                && !err.contains("panicked"),
            "{args:?}: {err}"
        );
    }
}

/// A run-length or burst value that does not parse, an empty
/// measurement window and an empty burst exit 2 naming the flag and the
/// token before the banner is printed or anything is built.
#[test]
fn a_bad_run_length_or_burst_is_refused_before_the_banner() {
    for args in [
        &["--burst", "abc"][..],
        &["--burst", "-1"][..],
        &["--warmup", "x"][..],
        &["--measure", "0"][..],
        &["--burst", "0"][..],
    ] {
        let out = ofar_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must not simulate anything");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(&format!("invalid value for {}: {}", args[0], args[1])),
            "{args:?}: {err}"
        );
    }
}

/// A `--ring` the mechanism's adaptation would replace, or more than one
/// ring for a mechanism without any, exits 2 naming the mechanism and
/// the ring it runs with instead of simulating that ring silently.
#[test]
fn a_ring_the_mechanism_does_not_run_with_is_refused() {
    for (mech, flag, value, ring) in [
        ("OFAR", "--ring", "none", "Embedded"),
        ("OFAR-L", "--ring", "none", "Embedded"),
        ("VAL", "--ring", "embedded", "None"),
        ("PAR", "--ring", "physical", "None"),
        ("MIN", "--rings", "3", "None"),
    ] {
        let args = ["--mech", mech, flag, value];
        let out = ofar_sim(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} must not simulate anything");
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!(
            "invalid configuration: {flag} {value} does not apply: {mech} runs with ring {ring}\n"
        );
        assert_eq!(err, want, "{args:?}");
    }
}

/// A flag the chosen mode never reads exits 2 naming the flag and the
/// mode. Each of these lines used to run to exit 0 with the flag
/// silently ignored.
#[test]
fn a_flag_the_mode_never_reads_is_refused() {
    use ofar::prelude::*;
    let kind = MechanismKind::Min;
    let cfg = kind.adapt_config(SimConfig::paper(2));
    let mut net = Network::new(cfg, kind.build(&cfg, 1));
    let topo = Dragonfly::new(cfg.params);
    OpenLoop::fill(&topo, TrafficSpec::uniform(), 1, 1, |src, dst| {
        net.generate(src, dst)
    });
    net.run(20);
    let path = std::env::temp_dir().join(format!("ofar-cli-{}.snap", std::process::id()));
    ofar::engine::write_atomic(&path, &net.save_snapshot()).unwrap();
    let snap = path.to_str().unwrap();

    // By mode, command lines whose last flag that mode never reads.
    let rows: [(&str, &[&str]); 4] = [
        (
            "--replay",
            &["--replay SNAP --mech MIN", "--replay SNAP --cycles 9 --h 2"],
        ),
        (
            "--burst",
            &[
                "--mech MIN --burst 1 --load 0.2",
                "--mech MIN --burst 1 --warmup 9",
                "--mech MIN --burst 1 --measure 9",
            ],
        ),
        (
            "--conformance",
            &[
                "--mech MIN --conformance --pattern ADV+1",
                "--mech MIN --conformance --load 0.2",
                "--mech MIN --conformance --burst 1",
                "--mech MIN --conformance --warmup 9",
                "--mech MIN --conformance --measure 9",
            ],
        ),
        (
            "steady state",
            &["--mech MIN --warmup 9 --measure 9 --cycles 9"],
        ),
    ];
    for (mode, lines) in rows {
        for line in lines {
            let args: Vec<&str> = line
                .split(' ')
                .map(|a| if a == "SNAP" { snap } else { a })
                .collect();
            let flag = args[args.len() - 2];
            let out = ofar_sim(&args);
            assert_eq!(out.status.code(), Some(2), "{line} must exit 2");
            assert!(out.stdout.is_empty(), "{line} must not run anything");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                err,
                format!("{flag} does not apply to {mode} (see --help)\n")
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A checkpoint knob no run can use exits 2 naming the variable before
/// the banner: it used to panic inside a worker (exit 101), or, for an
/// empty directory, litter the working directory with checkpoints that
/// resume never found.
#[test]
fn a_bad_checkpoint_knob_is_refused_before_the_banner() {
    let cwd = std::env::temp_dir().join(format!("ofar-sim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    for (name, value) in [
        ("OFAR_CHECKPOINT_EVERY", "abc"),
        ("OFAR_CHECKPOINT_DIR", ""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ofar-sim"))
            .args(["--warmup", "100", "--measure", "100"])
            .env(name, value)
            .current_dir(&cwd)
            .output()
            .expect("ofar-sim spawns");
        assert_eq!(out.status.code(), Some(2), "{name}={value:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{name}={value:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(name) && !err.contains("panicked"), "{err}");
    }
    let left = std::fs::read_dir(&cwd).unwrap().count();
    std::fs::remove_dir_all(&cwd).ok();
    assert_eq!(left, 0, "a refused run wrote files");
}

/// A snapshot whose checksums hold but whose header names PAR over a
/// MIN configuration (three local VCs) is refused with exit 1 and a
/// `cannot replay` line: it used to panic building PAR (exit 101).
#[test]
fn a_replay_of_a_mechanism_its_config_cannot_run_exits_1() {
    use ofar::engine::crc32;
    use ofar::prelude::*;
    let kind = MechanismKind::Min;
    let cfg = kind.adapt_config(SimConfig::paper(2));
    let mut net = Network::new(cfg, kind.build(&cfg, 1));
    net.run(20);
    let mut bytes = net.save_snapshot();
    // CONFIG is the first section: tag, length, checksum, then the
    // payload, which ends in the mechanism's name.
    let len = u32::from_le_bytes(bytes[17..21].try_into().unwrap()) as usize;
    let payload = 25..25 + len;
    assert_eq!(&bytes[payload.end - 3..payload.end], b"MIN");
    bytes[payload.end - 3..payload.end].copy_from_slice(b"PAR");
    // Seal the three checksums again: the section's, the fingerprint
    // (the same payload's) and the whole file's.
    let crc = crc32(&bytes[payload]).to_le_bytes();
    bytes[21..25].copy_from_slice(&crc);
    bytes[12..16].copy_from_slice(&crc);
    let body = bytes.len() - 4;
    let file = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&file);
    let path = std::env::temp_dir().join(format!("ofar-cli-par-{}.snap", std::process::id()));
    ofar::engine::write_atomic(&path, &bytes).unwrap();

    let out = ofar_sim(&["--replay", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(
        err.starts_with("cannot replay ") && !err.contains("panicked"),
        "{err}"
    );
}

/// A snapshot the verifier refuses to certify — VAL over two local VCs
/// and one global, no ring, saved from a network built without the
/// gate — is refused with exit 1 and the verifier's reason: replay used
/// to panic in the builder (exit 101).
#[test]
fn a_replay_of_an_uncertifiable_config_exits_1() {
    use ofar::prelude::*;
    let kind = MechanismKind::Valiant;
    let cfg = SimConfig::reduced_vcs(2).with_ring(RingMode::None);
    let mut net = Network::new(cfg, kind.build(&cfg, 1));
    net.run(20);
    let path = std::env::temp_dir().join(format!("ofar-cli-val-{}.snap", std::process::id()));
    ofar::engine::write_atomic(&path, &net.save_snapshot()).unwrap();

    let out = ofar_sim(&["--replay", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(
        err.starts_with("cannot replay ")
            && err.contains("not certified: VAL: channel dependency cycle")
            && !err.contains("panicked"),
        "{err}"
    );
}

/// A run whose cycle stamps would pass 2³² − 1, the last cycle the
/// engine's 32-bit stamps hold, is refused with the typed bound before
/// anything runs: a steady run's `--warmup` plus `--measure` exits 2, a
/// replay's snapshot cycle plus `--cycles` exits 1 as every refused
/// replay does. Neither may reach the engine's own assertion (exit 101).
#[test]
fn a_run_past_the_last_cycle_is_refused() {
    use ofar::prelude::*;
    let kind = MechanismKind::Min;
    let cfg = kind.adapt_config(SimConfig::paper(2));
    let mut net = Network::new(cfg, kind.build(&cfg, 1));
    net.run(20);
    let path = std::env::temp_dir().join(format!("ofar-cli-last-{}.snap", std::process::id()));
    ofar::engine::write_atomic(&path, &net.save_snapshot()).unwrap();
    let snap = path.to_str().unwrap();

    let past = "run past the last cycle 4294967295 (cycle stamps are 32-bit)";
    let rows: [(&[&str], i32, &str); 4] = [
        (
            &["--warmup", "4294967295", "--measure", "1"],
            2,
            "invalid value for --warmup plus --measure: 1 cycles from cycle 4294967295",
        ),
        (
            &["--warmup", "1", "--measure", "18446744073709551615"],
            2,
            "invalid value for --warmup plus --measure: 18446744073709551615 cycles from cycle 1",
        ),
        (
            &["--replay", snap, "--cycles", "4294967276"],
            1,
            "4294967276 cycles from cycle 20",
        ),
        (
            &["--replay", snap, "--cycles", "18446744073709551615"],
            1,
            "18446744073709551615 cycles from cycle 20",
        ),
    ];
    for (args, code, why) in rows {
        let out = ofar_sim(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        assert!(
            err.contains(why) && err.contains(past) && !err.contains("panicked"),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}
