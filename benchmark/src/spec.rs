//! The benchmark's fixed vocabulary: workload names with the reason each
//! exists, and every metric with its unit, direction and regression
//! bound. `BENCHMARK.json` at the repo root repeats these tables; the
//! `benchmark_json_matches_the_binary` test keeps the two equal.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the base value by which the metric may worsen before it
    /// counts as a regression (end-to-end metrics only; 0 for per-layer
    /// metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, defined on every workload.
///
/// The bounds are sized to what this benchmark can resolve, not to what
/// one would like (see README, "End-to-end metrics"): on the shared
/// 2-core reference box host time drifts by tens of percent over minutes
/// whatever the estimator, so the host-time metrics carry the widest
/// bound the driver allows; a burst's drain time (hence its accepted
/// load) moves by several percent from seed to seed; and peak memory of
/// the threaded and the snapshot-churning workloads by a few percent.
/// Between runs of one seed the simulated metrics are compared exactly
/// instead.
///
/// `failed_share`
/// (failed ÷ attempted correctness checks, bound 0) is reported beside
/// them but is not in this table: it is 0 on every healthy run, and the
/// result line carries `attempted` and `failed` instead.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("sim_cycles_per_s", "cycles/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.12),
    e2e("sim_accepted_load", "phits/node/cycle", Higher, 0.20),
    e2e("sim_avg_latency_cycles", "cycles", Lower, 0.03),
];

/// Per-layer metrics the micro-drivers measure: one value per traced
/// pass, the same whichever workload the pass is for.
pub const MICRO: &[Metric] = &[
    layer("topology.build_us.h2", "us", Lower),
    layer("topology.build_us.h4", "us", Lower),
    layer("topology.build_us.h6", "us", Lower),
    layer("topology.min_hop_ns", "ns", Lower),
    layer("traffic.dest_ns.un", "ns", Lower),
    layer("traffic.dest_ns.adv", "ns", Lower),
    layer("routing.build_us", "us", Lower),
    layer("routing.route_ns.min.empty", "ns", Lower),
    layer("routing.route_ns.min.congested", "ns", Lower),
    layer("routing.route_ns.val.empty", "ns", Lower),
    layer("routing.route_ns.val.congested", "ns", Lower),
    layer("routing.route_ns.pb.empty", "ns", Lower),
    layer("routing.route_ns.pb.congested", "ns", Lower),
    layer("routing.route_ns.par.empty", "ns", Lower),
    layer("routing.route_ns.par.congested", "ns", Lower),
    layer("routing.route_ns.ofar.empty", "ns", Lower),
    layer("routing.route_ns.ofar.congested", "ns", Lower),
    layer("routing.route_ns.ofar-l.empty", "ns", Lower),
    layer("routing.route_ns.ofar-l.congested", "ns", Lower),
    layer("engine.new_us", "us", Lower),
    layer("engine.generate_ns", "ns", Lower),
    layer("verify.certify_cold_us", "us", Lower),
    layer("verify.certify_cached_ns", "ns", Lower),
    layer("verify.conformance_cold_ms", "ms", Lower),
];

/// Per-layer metrics taken from the traced run of a workload: span self
/// times, per-call percentiles and the deterministic counts. A metric
/// reads 0 on a workload that makes no call into that layer function
/// (no snapshot is saved on `idle_un`, no sweep point runs on
/// `burst_adv`), which is itself the prediction "must not move here".
pub const SPAN: &[Metric] = &[
    layer("traffic.gen_calls", "count", Lower),
    layer("traffic.gen_self_s", "s", Lower),
    layer("traffic.gen_share", "ratio", Lower),
    layer("routing.misroutes_per_pkt", "ratio", Lower),
    layer("routing.ring_entries", "count", Lower),
    layer("routing.avg_hops", "hops", Lower),
    layer("engine.step_calls", "count", Lower),
    layer("engine.step_self_s", "s", Lower),
    layer("engine.step_share", "ratio", Lower),
    layer("engine.step_us_p50", "us", Lower),
    layer("engine.step_us_p99", "us", Lower),
    layer("engine.step_ns_per_router", "ns", Lower),
    layer("engine.step_ns_per_pkt_hop", "ns", Lower),
    layer("engine.snapshot_bytes", "bytes", Lower),
    layer("engine.save_calls", "count", Lower),
    layer("engine.save_ms_p50", "ms", Lower),
    layer("engine.restore_calls", "count", Lower),
    layer("engine.restore_ms_p50", "ms", Lower),
    layer("engine.codec_share", "ratio", Lower),
    layer("engine.sim_cycles", "cycles", Lower),
    layer("engine.delivered_packets", "count", Higher),
    layer("engine.latency_sum", "cycles", Lower),
    layer("engine.hop_sum", "hops", Lower),
    layer("core.sweep_points", "count", Higher),
    layer("core.sweep_points_per_s", "points/s", Higher),
    layer("core.sweep_parallel_eff", "ratio", Higher),
    layer("core.point_ms_p50", "ms", Lower),
    layer("core.point_ms_p90", "ms", Lower),
    layer("core.store_put_us", "us", Lower),
    layer("core.store_get_us", "us", Lower),
    layer("core.checkpoint_save_ms", "ms", Lower),
    layer("core.checkpoint_resume_ms", "ms", Lower),
    layer("core.runner_overhead_share", "ratio", Lower),
    layer("trace_overhead_share", "ratio", Lower),
];

/// Every per-layer metric, micro-driver metrics first.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    MICRO.iter().chain(SPAN)
}

/// The end-to-end or per-layer metric called `name`.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|m| m.name == name)
}

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn name_validator_accepts_only_the_allowed_alphabet() {
        for ok in ["wall_s", "routing.route_ns.ofar-l.empty", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_validator_accepts_only_the_allowed_alphabet() {
        for ok in ["s", "1/s", "%", "phits/node/cycle", "cycles/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "phits/(node*cycle)", "seventeen-letters", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_name_and_unit_in_the_tables_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(per_layer()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} has unit {:?}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert!(seen.insert(w.name()), "{} is used twice", w.name());
        }
        assert!(per_layer().count() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(metric("peak_rss_mb").map(|m| m.bound), Some(0.12));
        assert!(metric("no.such.metric").is_none());
    }
}
