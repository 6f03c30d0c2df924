//! A pass: every selected workload, each repetition in its own child
//! process, summarized as the best repetition with the median and the
//! extremes beside it.
//!
//! The untraced pass yields the end-to-end metrics. The traced pass runs
//! each workload untraced and traced in alternation (plus the
//! micro-drivers) and yields the per-layer metrics and the tracing
//! overhead.

use crate::host::Env;
use crate::json::Value;
use crate::slices::{at_fastest_pace_s, lower_envelope_s};
use crate::spec::{self, Metric};
use crate::stats::Summary;
use crate::workloads::{trace_file_name, Checks, Det, Rep, Workload};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What `ofar-perf run` was asked to do.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// Whether `--workload` picked a single one: the last line of output
    /// is then the one-object result the benchmark driver reads.
    pub single: bool,
    /// Workload seed.
    pub seed: u64,
    /// Keep adding repetitions until this much measured wall time has
    /// accumulated (and `reps` is met).
    pub seconds: f64,
    /// Minimum repetitions of each workload; never below 3.
    pub reps: usize,
    /// Run the traced pass instead of the untraced one.
    pub trace: bool,
    /// Smoke-test sizes.
    pub quick: bool,
    /// Where the result file goes (default: under `out_dir`).
    pub out: Option<PathBuf>,
    /// Directory for trace files, scratch files and the default result
    /// file.
    pub out_dir: PathBuf,
}

/// Fewer repetitions than this say too little about the run-to-run noise.
pub const MIN_REPS: usize = 3;

/// Tracing must cost less than this share of the untraced run.
const MAX_TRACE_OVERHEAD: f64 = 0.15;

/// Untraced/traced pairs the traced pass runs of each workload.
const TRACE_PAIRS: usize = 3;

/// Run one child of this same binary and parse the last line it prints.
fn child(opts: &RunOpts, what: &str, rep: usize, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        what,
        "--seed",
        &opts.seed.to_string(),
    ])
    .args(["--rep", &rep.to_string()])
    .args(["--trace", if traced { "1" } else { "0" }])
    .arg("--out-dir")
    .arg(&opts.out_dir)
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {what} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {what} child ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("the {what} child printed nothing"))?;
    Value::parse(line).map_err(|e| format!("the {what} child printed an unreadable result: {e}"))
}

fn child_rep(opts: &RunOpts, w: Workload, rep: usize, traced: bool) -> Result<Rep, String> {
    let v = child(opts, w.name(), rep, traced)?;
    Rep::from_json(&v).ok_or_else(|| format!("the {} child's result misses a field", w.name()))
}

/// The wall time of the measured region with the host's interference
/// read through (see [`crate::slices`]): at the pace of the fastest slice
/// where the slices do equal work, else the sum of each slice's fastest
/// reading, else (slices that do not line up) the fastest repetition.
fn undisturbed_wall_s(reps: &[Rep]) -> f64 {
    let slices: Vec<&[f64]> = reps.iter().map(|r| r.slices.as_slice()).collect();
    let first = &reps[0];
    let read_through = if first.slice_cycles > 0 {
        let region_slices = first.det.stepped_cycles as f64 / first.slice_cycles as f64;
        at_fastest_pace_s(&slices, region_slices)
    } else {
        lower_envelope_s(&slices)
    };
    let fastest_rep = reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    read_through.unwrap_or(fastest_rep)
}

/// The value of end-to-end metric `name` in one repetition, as the clock
/// and the counters read it.
fn raw_value(rep: &Rep, name: &str) -> f64 {
    match name {
        "setup_s" => rep.setup_s,
        "wall_s" => rep.wall_s,
        "cpu_s" => rep.cpu_s,
        "sim_cycles_per_s" => rep.det.stepped_cycles as f64 / rep.wall_s,
        "peak_rss_mb" => rep.peak_rss_mb,
        "sim_accepted_load" => rep.det.accepted_load(),
        "sim_avg_latency_cycles" => rep.det.avg_latency(),
        other => unreachable!("{other} is not an end-to-end metric"),
    }
}

/// The value of `m` that a pass reports. Host time is read through the
/// interference; CPU time is that wall time at the CPU-to-wall ratio the
/// repetitions measured (the CPU clock ticks at 10 ms, too coarse for a
/// slice); everything else is the best repetition.
fn reported_value(m: &Metric, reps: &[Rep], runs: &Summary) -> f64 {
    let wall = undisturbed_wall_s(reps);
    match m.name {
        "wall_s" => wall,
        "cpu_s" => {
            let busy: f64 = reps.iter().map(|r| r.cpu_s).sum();
            let elapsed: f64 = reps.iter().map(|r| r.wall_s).sum();
            wall * busy / elapsed
        }
        "sim_cycles_per_s" => reps[0].det.stepped_cycles as f64 / wall,
        _ => runs.best(m.better),
    }
}

/// One end-to-end metric of one workload in a pass.
pub struct Measured {
    /// The metric.
    pub metric: &'static Metric,
    /// The value the pass reports.
    pub value: f64,
    /// The metric in each repetition, as read.
    pub runs: Summary,
}

/// One workload's results in a pass.
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Correctness checks over all repetitions, including the
    /// cross-repetition determinism checks.
    pub checks: Checks,
    /// Untraced repetitions.
    pub reps: usize,
    /// End-to-end metrics over the untraced repetitions.
    pub end_to_end: Vec<Measured>,
    /// Simulated statistics (of the first repetition; the others must
    /// agree).
    pub det: Det,
    /// Per-layer metrics (traced pass only).
    pub per_layer: Vec<(&'static Metric, f64)>,
}

/// Check that `other` repeats `first`'s simulated statistics exactly.
fn check_repeat(checks: &mut Checks, what: &str, first: &Det, other: &Det) {
    let diff = first.differences(other);
    checks.check(diff.is_empty(), || {
        format!("{what}: simulated statistics differ between repetitions on {diff:?}")
    });
}

fn summarize(w: Workload, reps: &[Rep]) -> WorkloadResult {
    let mut checks = Checks::default();
    for rep in reps {
        checks.absorb(&rep.checks);
    }
    for other in &reps[1..] {
        check_repeat(&mut checks, w.name(), &reps[0].det, &other.det);
    }
    WorkloadResult {
        workload: w,
        checks,
        reps: reps.len(),
        end_to_end: spec::END_TO_END
            .iter()
            .map(|metric| {
                let values: Vec<f64> = reps.iter().map(|r| raw_value(r, metric.name)).collect();
                let runs = Summary::of(&values);
                Measured {
                    metric,
                    value: reported_value(metric, reps, &runs),
                    runs,
                }
            })
            .collect(),
        det: reps[0].det.clone(),
        per_layer: Vec::new(),
    }
}

fn untraced_workload(opts: &RunOpts, w: Workload) -> Result<WorkloadResult, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    while reps.len() < opts.reps.max(MIN_REPS) || measured < opts.seconds {
        let rep = child_rep(opts, w, reps.len(), false)?;
        measured += rep.wall_s;
        reps.push(rep);
    }
    Ok(summarize(w, &reps))
}

fn traced_workload(
    opts: &RunOpts,
    w: Workload,
    micro: &[(String, f64)],
) -> Result<WorkloadResult, String> {
    // Untraced and traced repetitions alternate, and each side's time is
    // read through the interference across its repetitions: a single pair
    // on the shared reference box reads anything from -10 % to +25 %
    // "overhead" for the same code.
    let (mut plains, mut traceds) = (Vec::new(), Vec::new());
    for pair in 0..TRACE_PAIRS {
        plains.push(child_rep(opts, w, 2 * pair, false)?);
        traceds.push(child_rep(opts, w, 2 * pair + 1, true)?);
    }
    let mut result = summarize(w, &plains);
    for traced in &traceds {
        result.checks.absorb(&traced.checks);
        check_repeat(
            &mut result.checks,
            &format!("{} traced", w.name()),
            &plains[0].det,
            &traced.det,
        );
    }
    // The per-layer numbers come from the fastest (least disturbed) of
    // each side; keep that traced repetition's trace file.
    let fastest = |reps: &[Rep]| {
        (0..reps.len())
            .min_by(|&a, &b| reps[a].wall_s.total_cmp(&reps[b].wall_s))
            .expect("at least one pair")
    };
    let plain = &plains[fastest(&plains)];
    let kept = fastest(&traceds);
    let traced = &traceds[kept];
    for pair in 0..TRACE_PAIRS {
        let file = opts.out_dir.join(trace_file_name(w, 2 * pair + 1));
        if pair == kept {
            let dest = opts.out_dir.join(format!("trace-{}.jsonl", w.name()));
            std::fs::rename(&file, &dest)
                .map_err(|e| format!("cannot keep {}: {e}", file.display()))?;
        } else {
            std::fs::remove_file(&file).ok();
        }
    }

    // The traced sweep runs its points one at a time, so its wall time is
    // not comparable with the threaded untraced run; its CPU time is.
    let sweep = w == Workload::SweepGrid;
    let overhead = if sweep {
        let least_cpu = |reps: &[Rep]| reps.iter().map(|r| r.cpu_s).fold(f64::INFINITY, f64::min);
        least_cpu(&traceds) / least_cpu(&plains) - 1.0
    } else {
        undisturbed_wall_s(&traceds) / undisturbed_wall_s(&plains) - 1.0
    };
    if overhead >= MAX_TRACE_OVERHEAD {
        eprintln!(
            "warning: {} trace_overhead_share {overhead:.3} is not under {MAX_TRACE_OVERHEAD}",
            w.name()
        );
    }
    let layer_value = |name: &str| {
        traced
            .layer
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    };
    let points = layer_value("core.sweep_points").unwrap_or(0.0);
    // What the traced run's layer spans are set against: the library
    // runner's untraced call where there is one, else the traced loop
    // itself (same run, so host noise cancels).
    let runner_wall_s = match w {
        Workload::BurstAdv | Workload::BigH6 => plain.wall_s,
        _ => traced.wall_s,
    };
    // The four metrics that set the traced run against the untraced one.
    let compared = [
        ("core.sweep_points_per_s", points / plain.wall_s),
        (
            "core.sweep_parallel_eff",
            if sweep {
                plain.cpu_s / (plain.wall_s * plain.threads as f64)
            } else {
                0.0
            },
        ),
        (
            "core.runner_overhead_share",
            if sweep {
                0.0
            } else {
                1.0 - traced.layers_self_s / runner_wall_s
            },
        ),
        ("trace_overhead_share", overhead),
    ];
    let value_of = |name: &str| {
        let of_micro = micro.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        let of_compared = compared.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        of_micro.or_else(|| layer_value(name)).or(of_compared)
    };
    result.per_layer = spec::per_layer()
        .map(|m| {
            value_of(m.name)
                .map(|v| (m, v))
                .ok_or_else(|| format!("no value was measured for {}", m.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(result)
}

fn micro_metrics(opts: &RunOpts) -> Result<Vec<(String, f64)>, String> {
    let v = child(opts, "micro", 0, true)?;
    Ok(v.members()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

/// `failed ÷ attempted`.
fn failed_share(c: &Checks) -> f64 {
    c.failed as f64 / c.attempted.max(1) as f64
}

fn print_workload(r: &WorkloadResult) {
    println!("\n== {} — {}", r.workload.name(), r.workload.why());
    for e in &r.end_to_end {
        println!(
            "  {:<26} {:>16.6} {:<17} (as read: median {:.6}, min {:.6}, max {:.6}, n={})",
            e.metric.name,
            e.value,
            e.metric.unit,
            e.runs.median,
            e.runs.min,
            e.runs.max,
            e.runs.values.len()
        );
    }
    println!(
        "  {:<26} {:>16.6} {:<17} ({} failed of {} checks)",
        "failed_share",
        failed_share(&r.checks),
        "ratio",
        r.checks.failed,
        r.checks.attempted
    );
    for note in &r.checks.notes {
        println!("  FAILED CHECK: {note}");
    }
    for (m, v) in &r.per_layer {
        println!("  {:<34} {:>16.4} {}", m.name, v, m.unit);
    }
    if !r.per_layer.is_empty() {
        println!(
            "  {:<34} {:>16} (deterministic)",
            "engine.state_crc32",
            format!("{:08x}", r.det.state_crc32)
        );
    }
}

fn workload_json(r: &WorkloadResult) -> Value {
    Value::obj([
        ("attempted", Value::from(r.checks.attempted)),
        ("failed", Value::from(r.checks.failed)),
        ("failed_share", Value::from(failed_share(&r.checks))),
        (
            "failed_checks",
            Value::Arr(r.checks.notes.iter().map(|n| n.as_str().into()).collect()),
        ),
        ("reps", Value::from(r.reps as u64)),
        (
            "end_to_end",
            Value::obj(r.end_to_end.iter().map(|e| {
                (
                    e.metric.name,
                    Value::obj([
                        ("unit", Value::from(e.metric.unit)),
                        ("value", Value::from(e.value)),
                        ("median", Value::from(e.runs.median)),
                        ("min", Value::from(e.runs.min)),
                        ("max", Value::from(e.runs.max)),
                        (
                            "values",
                            Value::Arr(e.runs.values.iter().map(|&v| v.into()).collect()),
                        ),
                    ]),
                )
            })),
        ),
        ("deterministic", r.det.to_json()),
        (
            "per_layer",
            Value::obj(r.per_layer.iter().map(|(m, v)| {
                (
                    m.name,
                    Value::obj([("unit", Value::from(m.unit)), ("value", Value::from(*v))]),
                )
            })),
        ),
    ])
}

/// The one-object result line the benchmark driver reads.
fn driver_line(r: &WorkloadResult, trace: bool) -> Value {
    let entry = |unit: &str, value: f64| {
        Value::obj([("value", Value::from(value)), ("unit", Value::from(unit))])
    };
    let metrics = if trace {
        Value::obj(r.per_layer.iter().map(|(m, v)| (m.name, entry(m.unit, *v))))
    } else {
        Value::obj(
            r.end_to_end
                .iter()
                .map(|e| (e.metric.name, entry(e.metric.unit, e.value))),
        )
    };
    Value::obj([
        ("correct", Value::from(r.checks.failed == 0)),
        ("attempted", Value::from(r.checks.attempted)),
        ("failed", Value::from(r.checks.failed)),
        ("metrics", metrics),
    ])
}

/// Run a pass, print it, write its result file. Returns whether every
/// correctness check held.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let env = Env::capture(opts.seed);
    println!(
        "ofar-perf {} pass: seed {}, nproc {}, loadavg {}, {}, commit {}",
        if opts.trace { "traced" } else { "untraced" },
        env.seed,
        env.nproc,
        env.loadavg,
        env.rustc,
        env.commit
    );
    if let Some(warning) = env.load_warning() {
        println!("{warning}");
        eprintln!("{warning}");
    }

    let micro = if opts.trace {
        micro_metrics(opts)?
    } else {
        Vec::new()
    };
    let mut results = Vec::new();
    for &w in &opts.workloads {
        let r = if opts.trace {
            traced_workload(opts, w, &micro)?
        } else {
            untraced_workload(opts, w)?
        };
        print_workload(&r);
        results.push(r);
    }

    let file = Value::obj([
        ("env", env.to_json()),
        (
            "mode",
            Value::from(if opts.trace { "traced" } else { "untraced" }),
        ),
        ("quick", Value::from(opts.quick)),
        (
            "workloads",
            Value::obj(
                results
                    .iter()
                    .map(|r| (r.workload.name(), workload_json(r))),
            ),
        ),
    ]);
    let default_name = if opts.trace {
        "traced.json"
    } else {
        "untraced.json"
    };
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| opts.out_dir.join(default_name));
    ofar_core::write_atomic_text(&path, &file.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    if opts.trace {
        println!(
            "traces written to {}/trace-<workload>.jsonl",
            opts.out_dir.display()
        );
    }

    if opts.single {
        println!("{}", driver_line(&results[0], opts.trace).compact());
    }
    Ok(results.iter().all(|r| r.checks.failed == 0))
}
