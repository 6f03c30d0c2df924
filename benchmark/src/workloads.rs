//! The five workloads, each run once per call ("one repetition").
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. The untraced run of the two bursts and of the sweep goes
//! through the library's own runners (`burst`, `load_sweep`); the traced
//! run of every workload, and both runs of `idle_un` and `ckpt_churn`,
//! drive the engine API directly so a span can sit at each call into a
//! layer.

use crate::host::{nproc, peak_rss_mb, Clock};
use crate::json::Value;
use crate::slices::{Sliced, Slices};
use crate::stats::{median, percentile_or_lower, sorted};
use crate::trace::{nested_self_s, self_times_ns, total_of, Tracer};
use ofar_core::prelude::*;
use ofar_core::{point_from_line, point_key, point_to_line};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop uniform traffic far below the knee.
    IdleUn,
    /// A saturated adversarial burst at h=4.
    BurstAdv,
    /// The same burst shape at the paper's h=6 scale.
    BigH6,
    /// Many tiny steady-state points over every mechanism.
    SweepGrid,
    /// A run that is repeatedly serialized and rebuilt.
    CkptChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::IdleUn,
        Workload::BurstAdv,
        Workload::BigH6,
        Workload::SweepGrid,
        Workload::CkptChurn,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IdleUn => "idle_un",
            Workload::BurstAdv => "burst_adv",
            Workload::BigH6 => "big_h6",
            Workload::SweepGrid => "sweep_grid",
            Workload::CkptChurn => "ckpt_churn",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json` repeats it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IdleUn => "h=4 OFAR, UN at 0.1 load: almost every port is empty, so step time is structure walking; an active-router set or timing wheel shows here, an allocator or policy change does not",
            Workload::BurstAdv => "h=4 OFAR, closed ADV+1 burst through the library's burst runner: saturated queues, allocator contention, misrouting, ring entries; allocator and Policy::route work shows here, idle-path work does not",
            Workload::BigH6 => "h=6 OFAR (5,256 nodes, the paper's scale), closed ADV+1 burst: same shape as burst_adv at 5x the state, so the working set leaves the cache; judges data-layout and intra-run threading changes",
            Workload::SweepGrid => "h=2, six mechanisms x three patterns x eight loads through load_sweep plus a ResultStore round trip: per-point set-up, the certification gate, thread spawn and store writes are a visible share",
            Workload::CkptChurn => "h=4 OFAR, UN at 0.5 load, with the state saved every 50 cycles and restored into a fresh Network every 100: catches a layout change that speeds step but slows the snapshot codec, or the reverse",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work each workload does. One full-size table and one
/// `--quick` table (everything at h=2, seconds in total even in a debug
/// build) that exists so the tests can run the harness end to end.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `idle_un`: Dragonfly h, untimed warm-up cycles, measured cycles.
    pub idle: (usize, u64, u64),
    /// `burst_adv`: Dragonfly h, packets per node.
    pub burst: (usize, usize),
    /// `big_h6`: Dragonfly h, packets per node.
    pub big: (usize, usize),
    /// `sweep_grid`: Dragonfly h, offered loads, warm-up and measured
    /// cycles per point.
    pub sweep: (usize, &'static [f64], SteadyOpts),
    /// `ckpt_churn`: Dragonfly h, untimed warm-up cycles, measured cycles.
    pub ckpt: (usize, u64, u64),
    /// `ckpt_churn`: save every this many cycles, restore into a fresh
    /// network every this many, go through `CheckpointPolicy` files every
    /// this many.
    pub ckpt_every: (u64, u64, u64),
    /// Cold constructions behind `setup_s` and the construction
    /// micro-drivers.
    pub constructions: usize,
    /// Micro-driver batches, and calls per batch.
    pub micro: (usize, usize),
    /// Dragonfly h of the micro-drivers, and conformance repetitions.
    pub micro_h: (usize, usize),
}

impl Sizes {
    /// The measured sizes: about four seconds per repetition on the
    /// 2-core reference box.
    pub const FULL: Sizes = Sizes {
        idle: (4, 3_000, 35_000),
        burst: (4, 350),
        big: (6, 70),
        sweep: (
            2,
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            SteadyOpts {
                warmup: 1_500,
                measure: 2_500,
            },
        ),
        ckpt: (4, 2_000, 4_000),
        ckpt_every: (50, 100, 1_000),
        constructions: 21,
        micro: (16, 1 << 16),
        micro_h: (4, 3),
    };

    /// The smoke-test sizes.
    pub const QUICK: Sizes = Sizes {
        idle: (2, 100, 600),
        burst: (2, 12),
        big: (2, 6),
        sweep: (
            2,
            &[0.2, 0.6],
            SteadyOpts {
                warmup: 60,
                measure: 120,
            },
        ),
        ckpt: (2, 100, 200),
        ckpt_every: (10, 20, 100),
        constructions: 3,
        micro: (3, 1 << 8),
        micro_h: (2, 1),
    };

    /// [`Sizes::QUICK`] or [`Sizes::FULL`].
    pub fn get(quick: bool) -> Sizes {
        if quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        }
    }
}

/// Offered load of `idle_un`, in phits/(node·cycle).
const IDLE_LOAD: f64 = 0.1;
/// Offered load of `ckpt_churn`, in phits/(node·cycle).
const CKPT_LOAD: f64 = 0.5;

/// The six mechanisms `sweep_grid` covers, with the short names the
/// `routing.route_ns.*` metrics use.
pub const MECHANISMS: [(MechanismKind, &str); 6] = [
    (MechanismKind::Min, "min"),
    (MechanismKind::Valiant, "val"),
    (MechanismKind::Pb, "pb"),
    (MechanismKind::Par, "par"),
    (MechanismKind::Ofar, "ofar"),
    (MechanismKind::OfarL, "ofar-l"),
];

/// The simulated statistics of one repetition. They depend on the seed
/// and the model only, so any two repetitions must agree on every field.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Det {
    /// Compute nodes.
    pub nodes: u64,
    /// Routers.
    pub routers: u64,
    /// Simulated cycles stepped inside the measured region (summed over
    /// points for `sweep_grid`, warm-up included there: it is timed).
    pub stepped_cycles: u64,
    /// Simulated cycles the statistics below were collected over.
    pub measured_cycles: u64,
    /// Packets delivered.
    pub delivered_packets: u64,
    /// Phits delivered.
    pub delivered_phits: u64,
    /// Sum of packet latencies, in cycles.
    pub latency_sum: u64,
    /// Sum of link hops of delivered packets.
    pub hop_sum: u64,
    /// Local plus global misroutes.
    pub misroutes: u64,
    /// Escape-ring entries.
    pub ring_entries: u64,
    /// Bytes of the final `save_snapshot()` (0 on `sweep_grid`, whose
    /// networks live inside `steady_state`).
    pub snapshot_bytes: u64,
    /// CRC-32C of the final `save_snapshot()` bytes, or of the serialized
    /// points for `sweep_grid`.
    pub state_crc32: u32,
}

impl Det {
    /// Every field with its name, in report order.
    fn fields(&self) -> [(&'static str, u64); 12] {
        [
            ("nodes", self.nodes),
            ("routers", self.routers),
            ("stepped_cycles", self.stepped_cycles),
            ("measured_cycles", self.measured_cycles),
            ("delivered_packets", self.delivered_packets),
            ("delivered_phits", self.delivered_phits),
            ("latency_sum", self.latency_sum),
            ("hop_sum", self.hop_sum),
            ("misroutes", self.misroutes),
            ("ring_entries", self.ring_entries),
            ("snapshot_bytes", self.snapshot_bytes),
            ("state_crc32", u64::from(self.state_crc32)),
        ]
    }

    /// Names of the fields on which `self` and `other` disagree.
    pub fn differences(&self, other: &Det) -> Vec<&'static str> {
        self.fields()
            .into_iter()
            .zip(other.fields())
            .filter(|((_, a), (_, b))| a != b)
            .map(|((name, _), _)| name)
            .collect()
    }

    /// Delivered phits per node per measured cycle.
    pub fn accepted_load(&self) -> f64 {
        self.delivered_phits as f64 / (self.nodes * self.measured_cycles).max(1) as f64
    }

    /// Mean packet latency in simulated cycles.
    pub fn avg_latency(&self) -> f64 {
        self.latency_sum as f64 / self.delivered_packets.max(1) as f64
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj(self.fields().map(|(k, v)| (k, Value::from(v))))
    }

    /// Inverse of [`Det::to_json`].
    pub fn from_json(v: &Value) -> Option<Det> {
        let f = |k: &str| v.get(k).and_then(Value::as_u64);
        Some(Det {
            nodes: f("nodes")?,
            routers: f("routers")?,
            stepped_cycles: f("stepped_cycles")?,
            measured_cycles: f("measured_cycles")?,
            delivered_packets: f("delivered_packets")?,
            delivered_phits: f("delivered_phits")?,
            latency_sum: f("latency_sum")?,
            hop_sum: f("hop_sum")?,
            misroutes: f("misroutes")?,
            ring_entries: f("ring_entries")?,
            snapshot_bytes: f("snapshot_bytes")?,
            state_crc32: u32::try_from(f("state_crc32")?).ok()?,
        })
    }
}

/// Correctness checks: every check is one attempted operation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// What failed, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    /// Record one check; `what` is only rendered when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Fold `other` into `self`.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.iter().cloned());
    }
}

/// What one repetition of one workload measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Fastest construction, in seconds (see [`measure_setup`]).
    pub setup_s: f64,
    /// Host wall time of the measured region, as the clock read it.
    pub wall_s: f64,
    /// Process CPU time over the same region.
    pub cpu_s: f64,
    /// Seconds each slice of the measured region took (see
    /// [`crate::slices`]).
    pub slices: Vec<f64>,
    /// Simulated cycles per slice where every slice does the same work in
    /// expectation (a steady-state loop); 0 where the slices tile a region
    /// of unequal work.
    pub slice_cycles: u64,
    /// `VmHWM` when the repetition ended.
    pub peak_rss_mb: f64,
    /// Threads the measured region could use.
    pub threads: u64,
    /// The simulated statistics.
    pub det: Det,
    /// The correctness checks.
    pub checks: Checks,
    /// Summed self time of every span but the root, i.e. the time spent
    /// inside calls into a layer (traced runs).
    pub layers_self_s: f64,
    /// Per-layer metrics derived from the spans (traced runs).
    pub layer: Vec<(String, f64)>,
}

impl Rep {
    /// The line a child process hands to its parent.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("setup_s", Value::from(self.setup_s)),
            ("wall_s", Value::from(self.wall_s)),
            ("cpu_s", Value::from(self.cpu_s)),
            (
                "slices",
                Value::Arr(self.slices.iter().map(|&d| d.into()).collect()),
            ),
            ("slice_cycles", Value::from(self.slice_cycles)),
            ("peak_rss_mb", Value::from(self.peak_rss_mb)),
            ("threads", Value::from(self.threads)),
            ("det", self.det.to_json()),
            ("attempted", Value::from(self.checks.attempted)),
            ("failed", Value::from(self.checks.failed)),
            (
                "notes",
                Value::Arr(
                    self.checks
                        .notes
                        .iter()
                        .map(|n| n.as_str().into())
                        .collect(),
                ),
            ),
            ("layers_self_s", Value::from(self.layers_self_s)),
            (
                "layer",
                Value::obj(
                    self.layer
                        .iter()
                        .map(|(k, v)| (k.as_str(), Value::from(*v))),
                ),
            ),
        ])
    }

    /// Inverse of [`Rep::to_json`].
    pub fn from_json(v: &Value) -> Option<Rep> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(Rep {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            cpu_s: f("cpu_s")?,
            slices: v
                .get("slices")?
                .elements()
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
            slice_cycles: v.get("slice_cycles")?.as_u64()?,
            peak_rss_mb: f("peak_rss_mb")?,
            threads: v.get("threads")?.as_u64()?,
            det: Det::from_json(v.get("det")?)?,
            checks: Checks {
                attempted: v.get("attempted")?.as_u64()?,
                failed: v.get("failed")?.as_u64()?,
                notes: v
                    .get("notes")?
                    .elements()
                    .iter()
                    .filter_map(|n| n.as_str().map(str::to_string))
                    .collect(),
            },
            layers_self_s: f("layers_self_s")?,
            layer: v
                .get("layer")?
                .members()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
        })
    }
}

/// CRC-32C (Castagnoli, reflected): the benchmark's own checksum, so a
/// change to the engine's cannot move `state_crc32`. It is deliberately
/// not the engine's IEEE polynomial: a snapshot ends with its own IEEE
/// CRC-32, and the IEEE CRC of any such file is the same constant residue.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0x82F6_3B78 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// The fastest of `reps` constructions at Dragonfly size `h`: uncached
/// `certify`, `Dragonfly::new`, `MechanismKind::build` and `Network::new`,
/// summed over `kinds`. Runs before the measured region and is not part
/// of `wall_s`. The fastest, not the median, for the reason the measured
/// regions are read in slices: at the millisecond scale of one
/// construction the host's interference moved the median of 21 by 30 %
/// between runs.
pub fn measure_setup(h: usize, kinds: &[MechanismKind], seed: u64, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let mut built = Vec::with_capacity(kinds.len());
            let t = Instant::now();
            for &kind in kinds {
                let cfg = kind.adapt_config(SimConfig::paper(h).with_seed(seed));
                certify(&cfg, kind).expect("the paper configuration certifies");
                black_box(Dragonfly::new(cfg.params));
                built.push(Network::new(cfg, kind.build(&cfg, seed)));
            }
            // Tear-down is not construction: drop after the clock stops.
            let dt = t.elapsed().as_secs_f64();
            drop(black_box(built));
            dt
        })
        .fold(f64::INFINITY, f64::min)
}

/// The certification gate every library runner passes before it builds a
/// network.
fn gate(cfg: &SimConfig, kind: MechanismKind) {
    certify_cached(cfg, kind).expect("the paper configuration certifies");
}

/// Cycles per equal-work slice of `idle_un`'s measured loop (≈30 ms).
const IDLE_SLICE: u64 = 250;
/// Cycles per slice of a burst (10 ms at h=4, 75 ms at h=6). The grain
/// hardly matters: on nine recorded `big_h6` repetitions the sum of
/// per-slice minima over triples ranged by 9 % at every grain from 1 to
/// 64 cycles (the fastest whole repetition of each triple: 16 %).
const BURST_SLICE: u64 = 32;

/// One open-loop cycle at the engine API: Bernoulli arrivals, one
/// destination per arrival, `generate`, then `step`. Returns how many
/// packets were generated. Destinations are drawn before the first
/// `generate` so the per-cycle `generate` calls fold into one span;
/// neither call reads the other's state, so the order is immaterial.
fn drive_cycle<P: Policy>(
    net: &mut Network<P>,
    gen: &mut TrafficGen,
    bern: &mut Bernoulli,
    pairs: &mut Vec<(NodeId, NodeId)>,
    tr: &mut Tracer,
) -> u64 {
    let g = tr.begin("traffic.gen");
    pairs.clear();
    bern.cycle(net.num_nodes(), |src| {
        pairs.push((src, gen.destination(src)))
    });
    let e = tr.begin("engine.generate");
    for &(src, dst) in pairs.iter() {
        net.generate(src, dst);
    }
    tr.end_folded(e, pairs.len());
    tr.end_folded(g, pairs.len());
    let s = tr.begin("engine.step");
    net.step();
    tr.end(s);
    pairs.len() as u64
}

/// Relative tolerance on "accepted equals offered": `floor`, or five
/// standard deviations of the Bernoulli arrival count when the window is
/// too short for `floor` to be a fair test.
fn arrival_tolerance(floor: f64, expected_packets: f64) -> f64 {
    floor.max(5.0 / expected_packets.max(1.0).sqrt())
}

fn window_det(w: &StatsWindow, routers: usize, snapshot: &[u8]) -> Det {
    Det {
        nodes: w.nodes as u64,
        routers: routers as u64,
        stepped_cycles: w.cycles,
        measured_cycles: w.cycles,
        delivered_packets: w.delivered_packets,
        delivered_phits: w.delivered_phits,
        latency_sum: w.latency_sum,
        hop_sum: w.hop_sum,
        misroutes: w.local_misroutes + w.global_misroutes,
        ring_entries: w.ring_entries,
        snapshot_bytes: snapshot.len() as u64,
        state_crc32: crc32(snapshot),
    }
}

fn idle_un(sz: &Sizes, seed: u64, tr: &mut Tracer) -> Rep {
    let (h, warmup, measure) = sz.idle;
    let kind = MechanismKind::Ofar;
    let setup_s = measure_setup(h, &[kind], seed, sz.constructions);
    let cfg = kind.adapt_config(SimConfig::paper(h).with_seed(seed));
    gate(&cfg, kind);
    let mut net = Network::new(cfg, kind.build(&cfg, seed));
    let topo = *net.fabric().topo();
    let nodes = net.num_nodes();
    let mut gen = TrafficGen::new(&topo, TrafficSpec::uniform(), seed.wrapping_add(1));
    let mut bern = Bernoulli::new(IDLE_LOAD, cfg.packet_size, seed.wrapping_add(2));
    let mut pairs = Vec::with_capacity(nodes);
    let mut quiet = Tracer::off();
    for _ in 0..warmup {
        drive_cycle(&mut net, &mut gen, &mut bern, &mut pairs, &mut quiet);
    }
    let start = net.stats().clone();

    let clock = Clock::start();
    let root = tr.begin("workload.measure");
    let mut generated = 0u64;
    let mut slices = Slices::start(IDLE_SLICE, (measure / IDLE_SLICE) as usize);
    for _ in 0..measure {
        generated += drive_cycle(&mut net, &mut gen, &mut bern, &mut pairs, tr);
        slices.cycle_done();
    }
    tr.end(root);
    let (wall_s, cpu_s) = clock.stop();

    let end = net.stats().clone();
    let w = StatsWindow::between(&start, &end, measure, nodes);
    let mut checks = Checks::default();
    let expected = IDLE_LOAD / cfg.packet_size as f64 * (nodes as u64 * measure) as f64;
    let tol = arrival_tolerance(0.02, expected);
    checks.check((w.throughput() / IDLE_LOAD - 1.0).abs() <= tol, || {
        format!(
            "accepted load {} is not within {tol} of offered {IDLE_LOAD}",
            w.throughput()
        )
    });
    checks.check(
        w.generated_packets == generated
            && end.generated_packets == end.delivered_packets + net.in_flight(),
        || {
            format!(
                "conservation: engine counted {} generated for {generated} generate calls; {} = {} delivered + {} in flight",
                w.generated_packets,
                end.generated_packets,
                end.delivered_packets,
                net.in_flight()
            )
        },
    );
    checks.check(end.duplicate_deliveries == 0, || {
        format!("{} duplicate deliveries", end.duplicate_deliveries)
    });
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        threads: 1,
        slices: slices.closed_s(),
        slice_cycles: IDLE_SLICE,
        det: window_det(&w, cfg.params.routers(), &net.save_snapshot()),
        checks,
        ..Rep::default()
    }
}

/// The four checks of a closed burst: it drained, every packet arrived,
/// every source got all of its packets through, nothing arrived twice.
fn burst_checks(
    drained: bool,
    per_source: &[u64],
    stats: &Stats,
    ppn: usize,
    nodes: usize,
) -> Checks {
    let mut checks = Checks::default();
    checks.check(drained, || "the burst stalled before draining".to_string());
    checks.check(stats.delivered_packets == (ppn * nodes) as u64, || {
        format!(
            "delivered {} of {} packets",
            stats.delivered_packets,
            ppn * nodes
        )
    });
    checks.check(per_source.iter().all(|&d| d == ppn as u64), || {
        "some source did not get all of its packets delivered".to_string()
    });
    checks.check(stats.duplicate_deliveries == 0, || {
        format!("{} duplicate deliveries", stats.duplicate_deliveries)
    });
    checks
}

fn burst_det(cfg: &SimConfig, stats: &Stats, cycles: u64, snapshot: &[u8]) -> Det {
    Det {
        nodes: cfg.params.nodes() as u64,
        routers: cfg.params.routers() as u64,
        stepped_cycles: cycles,
        measured_cycles: cycles,
        delivered_packets: stats.delivered_packets,
        delivered_phits: stats.delivered_phits,
        latency_sum: stats.latency_sum,
        hop_sum: stats.hop_sum,
        misroutes: stats.local_misroutes + stats.global_misroutes,
        ring_entries: stats.ring_entries,
        snapshot_bytes: snapshot.len() as u64,
        state_crc32: crc32(snapshot),
    }
}

/// A closed adversarial burst. Untraced it goes through the library's
/// burst runner; traced it is the same sequence of engine calls made from
/// here, with a span at each.
fn adv_burst(h: usize, ppn: usize, sz: &Sizes, seed: u64, tr: &mut Tracer) -> Rep {
    let kind = MechanismKind::Ofar;
    let spec = TrafficSpec::adversarial(1);
    let setup_s = measure_setup(h, &[kind], seed, sz.constructions);
    let cfg = kind.adapt_config(SimConfig::paper(h).with_seed(seed));
    let nodes = cfg.params.nodes();
    // Drain time grows with the burst: well under 128 cycles per packet
    // per node at every size measured.
    let expected_slices = 130 * ppn / BURST_SLICE as usize;

    if !tr.is_on() {
        // `burst()` is the gate, `Network::new` and `burst_net()`; making
        // the three calls here lets the policy be wrapped so that the
        // runner's own loop gets sliced.
        let clock = Clock::start();
        let policy = Sliced::start(kind.build(&cfg, seed), BURST_SLICE, expected_slices);
        gate(&cfg, kind);
        let mut net = Network::new(cfg, policy);
        let r = burst_net(&mut net, &spec, ppn, seed, RunConfig::default());
        let slices = net.policy().slices.tiling_s();
        let (wall_s, cpu_s) = clock.stop();
        let cycles = r.cycles.unwrap_or(r.stats.last_grant.max(1));
        return Rep {
            setup_s,
            wall_s,
            cpu_s,
            slices,
            threads: 1,
            det: burst_det(&cfg, &r.stats, cycles, &net.save_snapshot()),
            checks: burst_checks(
                r.cycles.is_some(),
                &r.per_source_delivered,
                &r.stats,
                ppn,
                nodes,
            ),
            ..Rep::default()
        };
    }

    let clock = Clock::start();
    let mut slices = Slices::start(BURST_SLICE, expected_slices);
    let root = tr.begin("workload.measure");
    let s = tr.begin("verify.certify_cached");
    gate(&cfg, kind);
    tr.end(s);
    let s = tr.begin("routing.build");
    let policy = kind.build(&cfg, seed);
    tr.end(s);
    let s = tr.begin("engine.new");
    let mut net = Network::new(cfg, policy);
    tr.end(s);
    // As the runner does: the log is part of the snapshotted state.
    net.enable_delivery_log();
    let topo = *net.fabric().topo();
    let mut gen = TrafficGen::new(&topo, spec, seed.wrapping_add(1));
    let mut pairs = Vec::with_capacity(nodes);
    for _ in 0..ppn {
        let g = tr.begin("traffic.gen");
        pairs.clear();
        pairs.extend((0..nodes).map(|n| {
            let src = NodeId::from(n);
            (src, gen.destination(src))
        }));
        let e = tr.begin("engine.generate");
        for &(src, dst) in &pairs {
            net.generate(src, dst);
        }
        tr.end_folded(e, nodes);
        tr.end_folded(g, nodes);
    }
    let watchdog = derive_watchdog(&cfg);
    let mut drained = true;
    while !net.drained() {
        let s = tr.begin("engine.step");
        net.step();
        tr.end(s);
        slices.cycle_done();
        if net.now() - net.stats().last_grant > watchdog {
            drained = false;
            break;
        }
    }
    black_box(net.take_delivery_log());
    tr.end(root);
    let slices = slices.tiling_s();
    let (wall_s, cpu_s) = clock.stop();
    let stats = net.stats().clone();
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        slices,
        threads: 1,
        det: burst_det(&cfg, &stats, net.now().max(1), &net.save_snapshot()),
        checks: burst_checks(drained, net.per_source_delivered(), &stats, ppn, nodes),
        ..Rep::default()
    }
}

/// Per-point seed of `load_sweep`, so the sequential traced run and the
/// store keys name the same points.
fn point_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 7919)
}

fn sweep_grid(sz: &Sizes, seed: u64, tr: &mut Tracer, tmp: &Path) -> Rep {
    let (h, loads, opts) = sz.sweep;
    let kinds: Vec<MechanismKind> = MECHANISMS.iter().map(|&(k, _)| k).collect();
    let setup_s = measure_setup(h, &kinds, seed, sz.constructions);
    let cfg = SimConfig::paper(h).with_seed(seed);
    let nodes = cfg.params.nodes();
    let patterns = [
        TrafficSpec::uniform(),
        TrafficSpec::adversarial(1),
        TrafficSpec::adversarial(2),
    ];
    let mut store = ResultStore::open(tmp.join("store")).expect("open the temp result store");
    let mut checks = Checks::default();
    let mut lines = Vec::with_capacity(kinds.len() * patterns.len() * loads.len());
    let mut det = Det {
        nodes: nodes as u64,
        routers: cfg.params.routers() as u64,
        ..Det::default()
    };

    let clock = Clock::start();
    // One slice per `load_sweep` call with its store round trips.
    let mut slices = Slices::start(u64::MAX, kinds.len() * patterns.len());
    let root = tr.begin("workload.measure");
    for &kind in &kinds {
        for spec in &patterns {
            let points: Vec<SteadyPoint> = if tr.is_on() {
                // One point at a time, so each can be timed.
                loads
                    .iter()
                    .enumerate()
                    .map(|(i, &load)| {
                        let s = tr.begin("core.point");
                        let p = steady_state(cfg, kind, spec, load, opts, point_seed(seed, i));
                        tr.end(s);
                        p
                    })
                    .collect()
            } else {
                load_sweep(cfg, kind, spec, loads, opts, seed)
            };
            for (i, p) in points.iter().enumerate() {
                let key = point_key(&cfg, kind, spec, p.load, opts, point_seed(seed, i));
                let line = point_to_line(p);
                let s = tr.begin("core.store_put");
                let put = store.put(&key, &line);
                tr.end(s);
                let s = tr.begin("core.store_get");
                let back = store.get(&key);
                tr.end(s);
                // Conservation: the window cannot deliver more than was
                // offered since cycle 0 (within 1 %, or five standard
                // deviations of the arrival count). "Accepted ≤ offered"
                // is not an invariant of a short window: a backlog built
                // during warm-up drains inside it.
                let offered = p.load / cfg.packet_size as f64
                    * (nodes as u64 * (opts.warmup + opts.measure)) as f64;
                let ceiling = offered * (1.0 + arrival_tolerance(0.01, offered));
                let round_trip = back
                    .as_deref()
                    .and_then(point_from_line)
                    .is_some_and(|q| point_to_line(&q) == line);
                checks.check(
                    put.is_ok()
                        && back.as_deref() == Some(line.as_str())
                        && round_trip
                        && p.delivered as f64 <= ceiling
                        && p.throughput <= 1.0,
                    || {
                        format!(
                            "{} {} load {}: put {put:?}, read back {back:?}, delivered {} (ceiling {ceiling}), accepted {}",
                            kind.name(),
                            spec.label(),
                            p.load,
                            p.delivered,
                            p.throughput
                        )
                    },
                );
                det.stepped_cycles += opts.warmup + opts.measure;
                det.measured_cycles += opts.measure;
                det.delivered_packets += p.delivered;
                det.delivered_phits += p.delivered * cfg.packet_size as u64;
                det.latency_sum += (p.avg_latency * p.delivered as f64).round() as u64;
                det.hop_sum += (p.avg_hops * p.delivered as f64).round() as u64;
                det.misroutes += (p.misroute_rate * p.delivered as f64).round() as u64;
                det.ring_entries += p.ring_entries;
                lines.push(line);
            }
            slices.cut();
        }
    }
    tr.end(root);
    let (wall_s, cpu_s) = clock.stop();
    det.state_crc32 = crc32(lines.join("\n").as_bytes());
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        // The vendored rayon stand-in spawns one scoped thread per core,
        // capped by the number of loads; the traced run is sequential.
        threads: if tr.is_on() {
            1
        } else {
            nproc().min(loads.len()) as u64
        },
        slices: slices.closed_s(),
        det,
        checks,
        ..Rep::default()
    }
}

/// Run key of the `CheckpointPolicy` files `ckpt_churn` writes.
const CKPT_KEY: u32 = 0x0FA2_2012;

fn ckpt_churn(sz: &Sizes, seed: u64, first: bool, tr: &mut Tracer, tmp: &Path) -> Rep {
    let (h, warmup, cycles) = sz.ckpt;
    let (save_every, restore_every, file_every) = sz.ckpt_every;
    let kind = MechanismKind::Ofar;
    let setup_s = measure_setup(h, &[kind], seed, sz.constructions);
    let cfg = kind.adapt_config(SimConfig::paper(h).with_seed(seed));
    gate(&cfg, kind);
    let traffic = || {
        (
            TrafficGen::new(
                &Dragonfly::new(cfg.params),
                TrafficSpec::uniform(),
                seed.wrapping_add(1),
            ),
            Bernoulli::new(CKPT_LOAD, cfg.packet_size, seed.wrapping_add(2)),
        )
    };
    let nodes = cfg.params.nodes();
    let mut pairs = Vec::with_capacity(nodes);
    let mut quiet = Tracer::off();

    // The reference: the same run, never interrupted, never timed. Only
    // the first repetition of a workload pays for it; the others must
    // repeat the first one's state checksum exactly, which proves the
    // same thing.
    let reference = first.then(|| {
        let mut net = Network::new(cfg, kind.build(&cfg, seed));
        let (mut gen, mut bern) = traffic();
        for _ in 0..warmup + cycles {
            drive_cycle(&mut net, &mut gen, &mut bern, &mut pairs, &mut quiet);
        }
        net.save_snapshot()
    });

    let mut net = Network::new(cfg, kind.build(&cfg, seed));
    let (mut gen, mut bern) = traffic();
    for _ in 0..warmup {
        drive_cycle(&mut net, &mut gen, &mut bern, &mut pairs, &mut quiet);
    }
    let start = net.stats().clone();
    let files = CheckpointPolicy::every(file_every, tmp.join("checkpoints"));
    std::fs::create_dir_all(&files.dir).expect("create the temp checkpoint directory");
    let mut checks = Checks::default();
    let mut latest = Vec::new();

    let clock = Clock::start();
    let root = tr.begin("workload.measure");
    // One slice per restore period: every slice steps the same number of
    // cycles, saves twice and ends with a restore.
    let mut slices = Slices::start(restore_every, (cycles / restore_every) as usize);
    for cycle in 1..=cycles {
        drive_cycle(&mut net, &mut gen, &mut bern, &mut pairs, tr);
        if cycle % save_every == 0 {
            let through_files = cycle % file_every == 0;
            if through_files {
                let s = tr.begin("core.checkpoint_save");
                let saved = files.save(CKPT_KEY, cycle, None, &net, &gen, &bern);
                tr.end(s);
                checks.check(saved.is_ok(), || {
                    format!("checkpoint save at {cycle}: {saved:?}")
                });
            } else {
                let s = tr.begin("engine.save_snapshot");
                latest = net.save_snapshot();
                tr.end(s);
            }
            if cycle % restore_every == 0 {
                let s = tr.begin("routing.build");
                let policy = kind.build(&cfg, seed);
                tr.end(s);
                let s = tr.begin("engine.new");
                let mut fresh = Network::new(cfg, policy);
                tr.end(s);
                let restored = if through_files {
                    let s = tr.begin("core.checkpoint_resume");
                    let r = match files.resume(CKPT_KEY) {
                        Some(cp) if cp.cycle == cycle => cp
                            .restore(&mut fresh, &mut gen, &mut bern)
                            .map_err(|e| e.to_string()),
                        Some(cp) => Err(format!("resumed cycle {} instead", cp.cycle)),
                        None => Err("no valid checkpoint file".to_string()),
                    };
                    tr.end(s);
                    r
                } else {
                    let s = tr.begin("engine.restore_snapshot");
                    let r = fresh.restore_snapshot(&latest).map_err(|e| e.to_string());
                    tr.end(s);
                    r
                };
                checks.check(restored.is_ok(), || {
                    format!("restore at {cycle}: {restored:?}")
                });
                if restored.is_ok() {
                    net = fresh;
                }
            }
        }
        slices.cycle_done();
    }
    tr.end(root);
    let (wall_s, cpu_s) = clock.stop();

    let snapshot = net.save_snapshot();
    if let Some(reference) = reference {
        checks.check(snapshot == reference, || {
            "the churned run's final snapshot differs from the uninterrupted reference".to_string()
        });
    }
    let w = StatsWindow::between(&start, net.stats(), cycles, nodes);
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        threads: 1,
        slices: slices.closed_s(),
        slice_cycles: restore_every,
        det: window_det(&w, cfg.params.routers(), &snapshot),
        checks,
        ..Rep::default()
    }
}

/// Spans the traced run of `workload` records at most: sized before the
/// measured region so recording never reallocates.
fn span_capacity(workload: Workload, sz: &Sizes) -> usize {
    let slack = 1024;
    slack
        + match workload {
            Workload::IdleUn => 3 * sz.idle.2 as usize,
            // Drain time grows with the burst: well under 128 cycles per
            // packet per node at every size measured.
            Workload::BurstAdv => 130 * sz.burst.1,
            Workload::BigH6 => 130 * sz.big.1,
            Workload::SweepGrid => 3 * MECHANISMS.len() * 3 * sz.sweep.1.len(),
            Workload::CkptChurn => 4 * sz.ckpt.2 as usize,
        }
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Median of `values`, 0 when the workload never made the call.
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Percentile `q` of an ascending slice (or the highest lower one the
/// sample count supports), 0 when the workload never made the call.
fn percentile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile_or_lower(sorted, q).1
    }
}

/// The per-layer metrics a traced repetition's spans and counts yield.
/// (The four that compare against the untraced run are added by the
/// parent process, which has both.)
fn span_metrics(tr: &Tracer, rep: &Rep) -> (f64, Vec<(String, f64)>) {
    let spans = tr.spans();
    let own = self_times_ns(spans);
    let wall = rep.wall_s;
    let det = &rep.det;
    let gen = total_of(spans, &own, "traffic.gen");
    let step = total_of(spans, &own, "engine.step");
    let save = total_of(spans, &own, "engine.save_snapshot");
    let restore = total_of(spans, &own, "engine.restore_snapshot");
    let point = total_of(spans, &own, "core.point");
    let put = total_of(spans, &own, "core.store_put");
    let get = total_of(spans, &own, "core.store_get");
    let ck_save = total_of(spans, &own, "core.checkpoint_save");
    let ck_resume = total_of(spans, &own, "core.checkpoint_resume");
    let steps = sorted(&step.durations_s);
    let points = sorted(&point.durations_s);
    if step.spans > 0 && percentile_or_lower(&steps, 0.99).0 < 0.99 {
        eprintln!(
            "note: {} step calls are too few for p99; engine.step_us_p99 reports a lower percentile",
            step.spans
        );
    }
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let delivered = det.delivered_packets.max(1) as f64;
    let metrics: Vec<(&str, f64)> = vec![
        ("traffic.gen_calls", gen.calls as f64),
        ("traffic.gen_self_s", gen.self_s),
        ("traffic.gen_share", gen.self_s / wall),
        (
            "routing.misroutes_per_pkt",
            det.misroutes as f64 / delivered,
        ),
        ("routing.ring_entries", det.ring_entries as f64),
        ("routing.avg_hops", det.hop_sum as f64 / delivered),
        ("engine.step_calls", step.spans as f64),
        ("engine.step_self_s", step.self_s),
        ("engine.step_share", step.self_s / wall),
        ("engine.step_us_p50", us(median_or_zero(&steps))),
        ("engine.step_us_p99", us(percentile_or_zero(&steps, 0.99))),
        (
            "engine.step_ns_per_router",
            per(step.self_s * 1e9, step.spans * det.routers),
        ),
        (
            "engine.step_ns_per_pkt_hop",
            per(step.self_s * 1e9, det.hop_sum),
        ),
        ("engine.snapshot_bytes", det.snapshot_bytes as f64),
        ("engine.save_calls", save.spans as f64),
        ("engine.save_ms_p50", ms(median_or_zero(&save.durations_s))),
        ("engine.restore_calls", restore.spans as f64),
        (
            "engine.restore_ms_p50",
            ms(median_or_zero(&restore.durations_s)),
        ),
        ("engine.codec_share", (save.self_s + restore.self_s) / wall),
        ("engine.sim_cycles", det.stepped_cycles as f64),
        ("engine.delivered_packets", det.delivered_packets as f64),
        ("engine.latency_sum", det.latency_sum as f64),
        ("engine.hop_sum", det.hop_sum as f64),
        ("core.sweep_points", point.spans as f64),
        ("core.point_ms_p50", ms(median_or_zero(&points))),
        ("core.point_ms_p90", ms(percentile_or_zero(&points, 0.9))),
        ("core.store_put_us", us(median_or_zero(&put.durations_s))),
        ("core.store_get_us", us(median_or_zero(&get.durations_s))),
        (
            "core.checkpoint_save_ms",
            ms(median_or_zero(&ck_save.durations_s)),
        ),
        (
            "core.checkpoint_resume_ms",
            ms(median_or_zero(&ck_resume.durations_s)),
        ),
    ];
    (
        nested_self_s(spans, &own),
        metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Where traced repetition `rep_index` of `workload` writes its spans,
/// relative to the output directory.
pub fn trace_file_name(workload: Workload, rep_index: usize) -> String {
    format!("trace-{}-r{rep_index}.jsonl", workload.name())
}

/// Run repetition `rep_index` of `workload` (repetitions after the first
/// skip work whose result the determinism check against the first
/// already covers). A traced repetition also writes its spans to
/// [`trace_file_name`] under `out_dir`. Scratch files live in a
/// per-process directory under `out_dir` that is removed before
/// returning.
pub fn run_rep(
    workload: Workload,
    sz: &Sizes,
    seed: u64,
    rep_index: usize,
    traced: bool,
    out_dir: &Path,
) -> Rep {
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the scratch directory");
    let mut tr = if traced {
        Tracer::with_capacity(span_capacity(workload, sz))
    } else {
        Tracer::off()
    };
    let mut rep = match workload {
        Workload::IdleUn => idle_un(sz, seed, &mut tr),
        Workload::BurstAdv => adv_burst(sz.burst.0, sz.burst.1, sz, seed, &mut tr),
        Workload::BigH6 => adv_burst(sz.big.0, sz.big.1, sz, seed, &mut tr),
        Workload::SweepGrid => sweep_grid(sz, seed, &mut tr, &tmp),
        Workload::CkptChurn => ckpt_churn(sz, seed, rep_index == 0, &mut tr, &tmp),
    };
    std::fs::remove_dir_all(&tmp).ok();
    if traced {
        (rep.layers_self_s, rep.layer) = span_metrics(&tr, &rep);
        let path = out_dir.join(trace_file_name(workload, rep_index));
        tr.write_jsonl(&path, &format!("{}-s{seed}-r{rep_index}", workload.name()))
            .expect("write the trace file");
    }
    rep.peak_rss_mb = peak_rss_mb();
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
        // Two self-checksummed files must not collapse to one residue.
        let sealed = |body: &[u8]| {
            let mut file = body.to_vec();
            file.extend_from_slice(&ofar_core::engine::crc32(body).to_le_bytes());
            crc32(&file)
        };
        assert_ne!(sealed(b"one snapshot"), sealed(b"another snapshot"));
    }

    #[test]
    fn names_round_trip_and_reasons_fit_one_line() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn det_differences_name_the_fields() {
        let a = Det {
            latency_sum: 10,
            state_crc32: 7,
            ..Det::default()
        };
        let mut b = a.clone();
        assert!(a.differences(&b).is_empty());
        b.latency_sum = 11;
        b.state_crc32 = 8;
        assert_eq!(a.differences(&b), vec!["latency_sum", "state_crc32"]);
    }

    #[test]
    fn rep_survives_the_child_to_parent_line() {
        let rep = Rep {
            setup_s: 0.00123456789,
            wall_s: 4.25,
            cpu_s: 4.2,
            slices: vec![0.5, 0.25],
            slice_cycles: 250,
            peak_rss_mb: 33.5,
            threads: 2,
            det: Det {
                nodes: 72,
                state_crc32: 0xDEAD_BEEF,
                ..Det::default()
            },
            checks: Checks {
                attempted: 3,
                failed: 1,
                notes: vec!["a \"quoted\" note".to_string()],
            },
            layers_self_s: 1.5,
            layer: vec![("engine.step_share".to_string(), 0.97)],
        };
        let line = rep.to_json().compact();
        assert!(!line.contains('\n'));
        assert_eq!(Rep::from_json(&Value::parse(&line).unwrap()), Some(rep));
    }

    #[test]
    fn arrival_tolerance_widens_only_for_short_windows() {
        assert_eq!(arrival_tolerance(0.02, 462_000.0), 0.02);
        assert!((arrival_tolerance(0.02, 2_500.0) - 0.1).abs() < 1e-12);
    }
}
