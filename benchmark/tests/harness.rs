//! The harness tested from outside: build parity with the root
//! workspace, agreement between `BENCHMARK.json` and the binary's own
//! tables, and a `--quick` pass of all five workloads run end to end
//! through the real binary (child processes, result files, trace files,
//! `compare`, `latest` and the driver's one-line result).

use ofar_perf::json::Value;
use ofar_perf::spec;
use ofar_perf::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of `[section]` in a manifest, sorted.
fn manifest_table(manifest: &str, section: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != format!("[{section}]"))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_matches_root() {
    let root = manifest_table(&repo_file("Cargo.toml"), "profile.release");
    let own = manifest_table(&repo_file("benchmark/Cargo.toml"), "profile.release");
    assert!(
        !root.is_empty(),
        "the root manifest lost its [profile.release] table"
    );
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml's [profile.release] must equal the root workspace's: \
         build settings change speed without changing code"
    );
}

#[test]
fn benchmark_json_matches_the_binary() {
    let doc = Value::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();

    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .unwrap()
        .elements()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, expected);

    let listed = |part: &str| -> Vec<(String, String, String, Option<f64>)> {
        doc.get(part)
            .unwrap()
            .elements()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    };
    let table = |metrics: &mut dyn Iterator<Item = &'static spec::Metric>, bounded: bool| {
        metrics
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    bounded.then_some(m.bound),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        listed("end_to_end"),
        table(&mut spec::END_TO_END.iter(), true)
    );
    assert_eq!(listed("per_layer"), table(&mut spec::per_layer(), false));

    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .elements()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Value::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
}

fn perf(args: &[&str], out_dir: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ofar-perf"))
        .args(args)
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("run ofar-perf");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn read(path: &Path) -> Value {
    Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn quick_pass_runs_end_to_end() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-pass");
    std::fs::remove_dir_all(&dir).ok();

    // The untraced pass: all five workloads, every end-to-end metric,
    // three repetitions each, no failed check.
    let (ok, stdout) = perf(&["run", "--quick", "--seed", "11"], &dir);
    assert!(ok, "{stdout}");
    let untraced = read(&dir.join("untraced.json"));
    let header: Vec<&str> = untraced
        .get("env")
        .unwrap()
        .members()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(header, ["nproc", "loadavg", "rustc", "commit", "seed"]);
    assert_eq!(
        untraced.members()[0].0,
        "env",
        "a result file starts with its header"
    );
    for w in Workload::ALL {
        let r = untraced
            .get("workloads")
            .unwrap()
            .get(w.name())
            .unwrap_or_else(|| panic!("{} is missing", w.name()));
        assert_eq!(
            r.get("failed").and_then(Value::as_u64),
            Some(0),
            "{}: {stdout}",
            w.name()
        );
        assert!(r.get("attempted").and_then(Value::as_u64).unwrap() >= 3);
        assert_eq!(r.get("reps").and_then(Value::as_u64), Some(3));
        for m in spec::END_TO_END {
            let median = r
                .get("end_to_end")
                .unwrap()
                .get(m.name)
                .and_then(|e| e.get("median"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{} lacks {}", w.name(), m.name));
            // cpu_s can read 0 on a run shorter than one clock tick.
            assert!(
                median > 0.0 || m.name == "cpu_s",
                "{} {} = {median}",
                w.name(),
                m.name
            );
            assert!(stdout.contains(m.name));
        }
    }

    // The traced pass: every per-layer metric on every workload, one
    // trace file each, spans that parse.
    let (ok, stdout) = perf(&["run", "--quick", "--seed", "11", "--trace"], &dir);
    assert!(ok, "{stdout}");
    let traced = read(&dir.join("traced.json"));
    for w in Workload::ALL {
        let r = traced.get("workloads").unwrap().get(w.name()).unwrap();
        assert_eq!(
            r.get("failed").and_then(Value::as_u64),
            Some(0),
            "{}: {stdout}",
            w.name()
        );
        for m in spec::per_layer() {
            let v = r
                .get("per_layer")
                .unwrap()
                .get(m.name)
                .and_then(|e| e.get("value"))
                .and_then(Value::as_f64);
            assert!(
                v.is_some_and(f64::is_finite),
                "{} lacks {}",
                w.name(),
                m.name
            );
        }
        let trace = std::fs::read_to_string(dir.join(format!("trace-{}.jsonl", w.name()))).unwrap();
        let first = Value::parse(trace.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("name").and_then(Value::as_str),
            Some("workload.measure")
        );
        assert_eq!(first.get("parent"), Some(&Value::Null));
    }
    let steps = |w: &str| {
        traced
            .get("workloads")
            .unwrap()
            .get(w)
            .unwrap()
            .get("per_layer")
            .unwrap()
            .get("engine.step_calls")
            .unwrap()
            .get("value")
            .and_then(Value::as_f64)
            .unwrap()
    };
    assert_eq!(steps("idle_un"), 600.0);
    assert_eq!(
        steps("sweep_grid"),
        0.0,
        "steady_state is opaque from outside"
    );

    // An A/A comparison passes; `latest` publishes and ends with the
    // null claim; scratch directories are gone.
    let file = dir.join("untraced.json");
    let file = file.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ofar-perf"))
        .args(["compare", file, file])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && text.ends_with("PASSED\n"), "{text}");
    assert!(
        !text.contains("SIM DRIFT") && !text.contains("regressed"),
        "{text}"
    );
    let latest = dir.join("latest.json");
    let out = Command::new(env!("CARGO_BIN_EXE_ofar-perf"))
        .args(["latest", file, dir.join("traced.json").to_str().unwrap()])
        .arg(&latest)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        read(&latest).members().last().unwrap(),
        &("claim".to_string(), Value::Null)
    );
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn driver_invocation_ends_with_the_one_line_result() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("driver-line");
    for (trace, expected) in [
        ("0", spec::END_TO_END.len()),
        ("1", spec::per_layer().count()),
    ] {
        let (ok, stdout) = perf(
            &[
                "run",
                "--quick",
                "--workload",
                "ckpt_churn",
                "--seed",
                "5",
                "--seconds",
                "0",
                "--trace",
                trace,
            ],
            &dir,
        );
        assert!(ok, "{stdout}");
        let line = Value::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = line.get("metrics").unwrap().members();
        assert_eq!(metrics.len(), expected);
        for (name, m) in metrics {
            let spec = spec::metric(name).unwrap_or_else(|| panic!("{name} is not in the tables"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        }
    }
    // An unknown workload is an error, not a result.
    let (ok, stdout) = perf(&["run", "--workload", "nope"], &dir);
    assert!(!ok && stdout.is_empty());
}
