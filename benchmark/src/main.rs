//! `ofar-perf`: see `README.md` beside this package.

use ofar_perf::json::Value;
use ofar_perf::run::{RunOpts, MIN_REPS};
use ofar_perf::workloads::{run_rep, Sizes, Workload};
use ofar_perf::{compare, micro, run};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: ofar-perf run [--workload NAME] [--seed N] [--reps N] [--seconds S]
                     [--trace [0|1]] [--quick] [--out FILE] [--out-dir DIR]
       ofar-perf compare BASE.json NEW.json
       ofar-perf latest UNTRACED.json TRACED.json DEST.json

run      one pass over all five workloads (or the one named): prints every
         metric by name with its unit, checks the outputs and writes a
         result file. --trace runs the traced pass (per-layer metrics,
         trace files, tracing overhead) instead of the untraced one.
compare  judge NEW against BASE by the benchmark's bounds; exits non-zero
         on a regression or a higher failed_share.
latest   merge an untraced and a traced result file into DEST atomically;
         refuses when any correctness check failed.";

/// Default seed of every workload.
const DEFAULT_SEED: u64 = 2012;

struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self
            .0
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot read {raw:?}"))
    }
}

fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_run(mut args: Args) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workloads: Workload::ALL.to_vec(),
        single: false,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        reps: MIN_REPS,
        trace: false,
        quick: false,
        out: None,
        out_dir: default_out_dir(),
    };
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = args.value(&flag)?;
                let w = Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                opts.workloads = vec![w];
                opts.single = true;
            }
            "--seed" => opts.seed = args.value(&flag)?,
            "--seconds" => opts.seconds = args.value(&flag)?,
            "--reps" => opts.reps = args.value::<usize>(&flag)?.max(MIN_REPS),
            "--trace" => {
                // Bare `--trace` switches tracing on; the benchmark
                // driver spells it `--trace 0` / `--trace 1`.
                opts.trace = match args.0.as_slice().first().map(String::as_str) {
                    Some("0") => {
                        args.0.next();
                        false
                    }
                    Some("1") => {
                        args.0.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(args.value(&flag)?),
            "--out-dir" => opts.out_dir = args.value(&flag)?,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if !(0.0..=600.0).contains(&opts.seconds) {
        return Err(format!("--seconds {} is out of range", opts.seconds));
    }
    Ok(opts)
}

/// One repetition (or the micro-drivers) in this process; the result is
/// the last line printed.
fn child(mut args: Args) -> Result<(), String> {
    let (mut what, mut seed, mut traced, mut quick) = (String::new(), DEFAULT_SEED, false, false);
    let mut rep = 0usize;
    let mut out_dir = default_out_dir();
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--workload" => what = args.value(&flag)?,
            "--seed" => seed = args.value(&flag)?,
            "--trace" => traced = args.value::<u8>(&flag)? == 1,
            "--rep" => rep = args.value(&flag)?,
            "--quick" => quick = true,
            "--out-dir" => out_dir = args.value(&flag)?,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let sizes = Sizes::get(quick);
    let line = if what == "micro" {
        Value::obj(
            micro::run(&sizes, seed)
                .into_iter()
                .map(|(k, v)| (k, Value::from(v))),
        )
    } else {
        let w = Workload::from_name(&what).ok_or_else(|| format!("unknown workload {what:?}"))?;
        run_rep(w, &sizes, seed, rep, traced, &out_dir).to_json()
    };
    println!("{}", line.compact());
    Ok(())
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch() -> Result<ExitCode, String> {
    let mut args = Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter());
    match args.0.next().as_deref() {
        Some("run") => {
            run::run(&parse_run(args)?)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("child") => child(args).map(|()| ExitCode::SUCCESS),
        Some("compare") => {
            let (base, new): (String, String) = (args.value("BASE")?, args.value("NEW")?);
            let cmp = compare::compare(&read_json(&base)?, &read_json(&new)?)?;
            print!("{}", cmp.text);
            Ok(if cmp.failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("latest") => {
            let (untraced, traced): (String, String) =
                (args.value("UNTRACED")?, args.value("TRACED")?);
            let dest: PathBuf = args.value("DEST")?;
            let doc = compare::latest(&read_json(&untraced)?, &read_json(&traced)?)?;
            ofar_core::write_atomic_text(&dest, &doc.pretty())
                .map_err(|e| format!("cannot write {}: {e}", dest.display()))?;
            println!("wrote {}", dest.display());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    dispatch().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
