//! `ofar-perf compare <base.json> <new.json>`: judge one result file
//! against another by the benchmark's own bounds, and
//! `ofar-perf latest`: publish a pass as the checked-in latest numbers.

use crate::json::Value;
use crate::spec::{self, Better, Metric};
use crate::stats::Summary;
use std::fmt::Write as _;

/// What `compare` concluded about one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new value is no worse than the base by more than the bound.
    Ok,
    /// The new value is worse than the base by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// repetitions overlap, so the two cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of one metric, as a result file stores it.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    /// The value the pass reported.
    pub value: f64,
    /// The metric in each repetition, as read.
    pub runs: Summary,
}

impl Side {
    fn from_json(v: &Value) -> Option<Side> {
        let values: Vec<f64> = v
            .get("values")?
            .elements()
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        Some(Side {
            value: v.get("value")?.as_f64()?,
            runs: (!values.is_empty()).then(|| Summary::of(&values))?,
        })
    }
}

/// By how much of the base value `new` is worse than `base` (negative
/// when it is better).
pub fn worsening(m: &Metric, base: &Side, new: &Side) -> f64 {
    let delta = match m.better {
        Better::Lower => new.value - base.value,
        Better::Higher => base.value - new.value,
    };
    delta / base.value.abs()
}

/// Judge `new` against `base` by `m`'s bound. The reported values decide
/// between `ok` and `regressed`; the repetitions as read decide whether
/// the pass was too disturbed to say (their quartile spread exceeds the
/// bound while the two sides' repetitions overlap).
pub fn judge(m: &Metric, base: &Side, new: &Side) -> Verdict {
    let overlap = base.runs.min <= new.runs.max && new.runs.min <= base.runs.max;
    if base.runs.spread().max(new.runs.spread()) > m.bound && overlap {
        Verdict::Unresolved
    } else if worsening(m, base, new) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The comparison as text, and whether it should fail the caller.
pub struct Comparison {
    /// The report.
    pub text: String,
    /// Some metric regressed or some workload fails more checks.
    pub failed: bool,
}

/// Compare two result files of the same mode.
pub fn compare(base: &Value, new: &Value) -> Result<Comparison, String> {
    let mut text = String::new();
    let mut failed = false;
    let seed = |v: &Value| {
        v.get("env")
            .and_then(|e| e.get("seed"))
            .and_then(Value::as_u64)
    };
    let same_seed = seed(base).is_some() && seed(base) == seed(new);
    if !same_seed {
        writeln!(
            text,
            "note: seeds differ ({:?} vs {:?}); simulated statistics are not compared exactly",
            seed(base),
            seed(new)
        )
        .expect("write to String");
    }
    let base_w = base.get("workloads").ok_or("base file has no workloads")?;
    let new_w = new.get("workloads").ok_or("new file has no workloads")?;
    for (name, b) in base_w.members() {
        let Some(n) = new_w.get(name) else {
            writeln!(text, "{name}: missing from the new file").expect("write to String");
            failed = true;
            continue;
        };
        writeln!(text, "== {name}").expect("write to String");
        for m in spec::END_TO_END {
            let side = |w: &Value| w.get("end_to_end")?.get(m.name).and_then(Side::from_json);
            let (Some(bs), Some(ns)) = (side(b), side(n)) else {
                continue;
            };
            let verdict = judge(m, &bs, &ns);
            failed |= verdict == Verdict::Regressed;
            writeln!(
                text,
                "  {:<24} base {:>14.6}  new {:>14.6} {:<17} ratio {:.4} of base ({} is better, bound {:.0}%)  {}",
                m.name,
                bs.value,
                ns.value,
                m.unit,
                ns.value / bs.value,
                m.better.as_str(),
                m.bound * 100.0,
                verdict.as_str()
            )
            .expect("write to String");
        }
        let share = |w: &Value| w.get("failed_share").and_then(Value::as_f64).unwrap_or(0.0);
        let (bf, nf) = (share(b), share(n));
        let worse = nf > bf;
        failed |= worse;
        writeln!(
            text,
            "  {:<24} base {bf:>14.6}  new {nf:>14.6} {:<17} {}",
            "failed_share",
            "ratio",
            if worse { "regressed" } else { "ok" }
        )
        .expect("write to String");
        if same_seed {
            let det = |w: &Value| w.get("deterministic").cloned().unwrap_or(Value::Null);
            let (bd, nd) = (det(b), det(n));
            for (field, bv) in bd.members() {
                let nv = nd.get(field).unwrap_or(&Value::Null);
                if bv != nv {
                    writeln!(
                        text,
                        "  SIM DRIFT {field}: base {} new {}",
                        bv.compact(),
                        nv.compact()
                    )
                    .expect("write to String");
                }
            }
        }
    }
    writeln!(text, "{}", if failed { "FAILED" } else { "PASSED" }).expect("write to String");
    Ok(Comparison { text, failed })
}

/// The "latest numbers" document: the untraced pass's end-to-end medians
/// and the traced pass's per-layer values, under one environment header.
/// Refused when any workload failed a check (which includes two
/// repetitions disagreeing on a simulated statistic).
pub fn latest(untraced: &Value, traced: &Value) -> Result<Value, String> {
    for (file, what) in [(untraced, "untraced"), (traced, "traced")] {
        if file.get("mode").and_then(Value::as_str) != Some(what) {
            return Err(format!("the {what} result file is not from an {what} pass"));
        }
        for (name, w) in file.get("workloads").map_or(&[][..], Value::members) {
            let failed = w.get("failed").and_then(Value::as_u64);
            if failed != Some(0) {
                return Err(format!(
                    "refusing to publish: {name} failed {failed:?} checks in the {what} pass"
                ));
            }
        }
    }
    let section = |file: &Value, parts: &[&str]| {
        let workloads = file.get("workloads").map_or(&[][..], Value::members);
        Value::obj(workloads.iter().map(|(name, w)| {
            let kept = parts
                .iter()
                .map(|&p| (p, w.get(p).cloned().unwrap_or(Value::Null)));
            (name.as_str(), Value::obj(kept))
        }))
    };
    Ok(Value::obj([
        ("env", untraced.get("env").cloned().unwrap_or(Value::Null)),
        (
            "untraced",
            section(untraced, &["reps", "end_to_end", "deterministic"]),
        ),
        ("traced", section(traced, &["per_layer", "deterministic"])),
        ("claim", Value::Null),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side whose reported value is its fastest repetition.
    fn side(median: f64, min: f64, max: f64) -> Side {
        Side {
            value: min,
            runs: Summary::of(&[min, median, max]),
        }
    }

    /// A lower-is-better metric with a 10 % bound.
    fn wall() -> &'static Metric {
        &Metric {
            name: "wall_s",
            unit: "s",
            better: Better::Lower,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = side(10.0, 9.9, 10.1);
        assert_eq!(judge(wall(), &base, &side(10.5, 10.4, 10.6)), Verdict::Ok);
        assert_eq!(
            judge(wall(), &base, &side(11.5, 11.4, 11.6)),
            Verdict::Regressed
        );
        assert_eq!(judge(wall(), &base, &side(8.0, 7.9, 8.1)), Verdict::Ok);
        // Spread wider than the 10 % bound and overlapping runs.
        assert_eq!(
            judge(wall(), &base, &side(10.5, 9.5, 11.5)),
            Verdict::Unresolved
        );
        // As noisy, but every new run is slower than every base run.
        assert_eq!(
            judge(wall(), &base, &side(13.0, 12.0, 14.0)),
            Verdict::Regressed
        );
        // As noisy, but every new run is faster than every base run.
        assert_eq!(judge(wall(), &base, &side(7.0, 6.0, 8.0)), Verdict::Ok);
    }

    #[test]
    fn direction_flips_for_higher_is_better() {
        let rate = &Metric {
            better: Better::Higher,
            ..*wall()
        };
        let side = |median: f64, min: f64, max: f64| Side {
            value: max,
            ..side(median, min, max)
        };
        let base = side(1000.0, 990.0, 1010.0);
        assert_eq!(
            judge(rate, &base, &side(850.0, 840.0, 860.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, &base, &side(1200.0, 1190.0, 1210.0)),
            Verdict::Ok
        );
        assert!(worsening(rate, &base, &side(850.0, 840.0, 860.0)) > 0.1);
    }

    fn file(seed: u64, wall: f64, failed_share: f64, latency_sum: u64) -> Value {
        let metric = |v: f64| {
            Value::obj([
                ("unit", Value::from("s")),
                ("value", Value::from(v * 0.99)),
                (
                    "values",
                    Value::Arr(vec![(v * 0.99).into(), v.into(), (v * 1.01).into()]),
                ),
            ])
        };
        Value::obj([
            ("env", Value::obj([("seed", Value::from(seed))])),
            ("mode", Value::from("untraced")),
            (
                "workloads",
                Value::obj([(
                    "idle_un",
                    Value::obj([
                        (
                            "failed",
                            Value::from(if failed_share > 0.0 { 1u64 } else { 0 }),
                        ),
                        ("failed_share", Value::from(failed_share)),
                        ("reps", Value::from(3u64)),
                        ("end_to_end", Value::obj([("wall_s", metric(wall))])),
                        (
                            "deterministic",
                            Value::obj([
                                ("latency_sum", Value::from(latency_sum)),
                                ("state_crc32", Value::from(7u64)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_passes_an_a_a_pair_and_fails_a_regression() {
        let a = file(1, 4.0, 0.0, 100);
        let same = compare(&a, &file(1, 4.1, 0.0, 100)).unwrap();
        assert!(!same.failed, "{}", same.text);
        assert!(same.text.contains("ratio 1.0250 of base"));
        assert!(!same.text.contains("SIM DRIFT"));

        let slow = compare(&a, &file(1, 6.0, 0.0, 100)).unwrap();
        assert!(
            slow.failed && slow.text.contains("regressed"),
            "{}",
            slow.text
        );

        let flaky = compare(&a, &file(1, 4.0, 0.25, 100)).unwrap();
        assert!(
            flaky.failed,
            "a higher failed_share must fail the comparison"
        );
    }

    #[test]
    fn drift_is_named_but_only_between_equal_seeds() {
        let a = file(1, 4.0, 0.0, 100);
        let drift = compare(&a, &file(1, 4.0, 0.0, 101)).unwrap();
        assert!(drift
            .text
            .contains("SIM DRIFT latency_sum: base 100 new 101"));
        assert!(!drift.failed, "drift is reported, not judged");
        let other_seed = compare(&a, &file(2, 4.0, 0.0, 101)).unwrap();
        assert!(!other_seed.text.contains("SIM DRIFT"));
        assert!(other_seed.text.contains("seeds differ"));
    }

    #[test]
    fn latest_refuses_failed_passes_and_ends_with_a_null_claim() {
        let untraced = file(1, 4.0, 0.0, 100);
        let mut traced = file(1, 4.0, 0.0, 100);
        if let Value::Obj(members) = &mut traced {
            members[1].1 = Value::from("traced");
        }
        let doc = latest(&untraced, &traced).unwrap();
        assert_eq!(
            doc.members().last().unwrap(),
            &("claim".to_string(), Value::Null)
        );
        assert!(doc.get("untraced").unwrap().get("idle_un").is_some());

        let err = latest(&file(1, 4.0, 0.5, 100), &traced).unwrap_err();
        assert!(err.contains("refusing to publish"), "{err}");
        assert!(latest(&traced, &traced).is_err(), "modes are checked");
    }
}
