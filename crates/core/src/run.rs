//! Experiment runners: steady state, load sweeps, transients and bursts
//! (§VI of the paper).

use crate::checkpoint::CheckpointPolicy;
use crate::env;
use crate::overload::OverloadOpts;
use ofar_engine::config::{LAT_GLOBAL, LAT_LOCAL};
use ofar_engine::{
    AuditReport, Auditor, Fabric, FaultPlan, Hooks, Network, NoHooks, Policy, Recorder, SimConfig,
    SnapshotError, Stats, StatsWindow,
};
use ofar_routing::{Mechanism, MechanismKind, OfarConfig, PbConfig};
use ofar_topology::{NodeId, RouterId};
use ofar_traffic::{OpenLoop, TrafficSpec};
use rayon::prelude::*;
use std::fmt;
use std::path::Path;

/// Warmup/measurement lengths for steady-state runs.
#[derive(Clone, Copy, Debug)]
pub struct SteadyOpts {
    /// Cycles simulated before measurement starts.
    pub warmup: u64,
    /// Cycles measured.
    pub measure: u64,
}

/// One point of a steady-state curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SteadyPoint {
    /// Offered load in phits/(node·cycle).
    pub load: f64,
    /// Accepted throughput in phits/(node·cycle).
    pub throughput: f64,
    /// Mean packet latency in cycles (generation → delivery).
    pub avg_latency: f64,
    /// Median latency of packets generated inside the measurement window.
    pub p50_latency: f64,
    /// 99th-percentile latency of packets generated inside the window.
    pub p99_latency: f64,
    /// Mean link hops per packet.
    pub avg_hops: f64,
    /// Misroute hops per delivered packet.
    pub misroute_rate: f64,
    /// Escape-ring entries during the measurement window.
    pub ring_entries: u64,
    /// Packets delivered during the measurement window.
    pub delivered: u64,
}

/// Mechanism tunables for the ablation studies (§V's "selection of this
/// policy was empirical"); `None` is the paper's default.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tunables {
    /// OFAR / OFAR-L tunables.
    pub ofar: Option<OfarConfig>,
    /// PB tunables.
    pub pb: Option<PbConfig>,
}

/// What a [`Point`] drives through its network: which runner runs it.
#[derive(Clone, Debug)]
pub enum Shape {
    /// Open loop at `load`, measured after the warm-up: [`steady`].
    Steady {
        /// Offered load in phits/(node·cycle).
        load: f64,
        /// Warm-up and window lengths.
        opts: SteadyOpts,
    },
    /// Open loop at `load`, switching from the point's traffic to
    /// `after` at the end of the warm-up: [`transient`].
    Transient {
        /// The pattern after the switch.
        after: TrafficSpec,
        /// Offered load in phits/(node·cycle).
        load: f64,
        /// Run, window and bucket lengths.
        opts: TransientOpts,
    },
    /// `packets` per node at cycle 0, drained under `plan`: [`burst`].
    Burst {
        /// Packets per node.
        packets: usize,
        /// Faults scheduled during the drain.
        plan: FaultPlan,
    },
    /// Open loop past saturation: [`crate::overload_point`].
    Overload {
        /// Probe, warm-up and window lengths.
        opts: OverloadOpts,
    },
}

impl Shape {
    /// A closed burst of `packets` per node on a fault-free network.
    pub fn burst(packets: usize) -> Self {
        Self::Burst {
            packets,
            plan: FaultPlan::default(),
        }
    }
}

/// One run, built by [`network`] and run by the runner its [`Shape`]
/// names.
#[derive(Clone, Debug)]
pub struct Point {
    /// The base configuration; [`network`] adapts it to the mechanism.
    pub cfg: SimConfig,
    /// Routing mechanism.
    pub kind: MechanismKind,
    /// Destination pattern (before the switch, for a transient).
    pub traffic: TrafficSpec,
    /// Seed of the mechanism and of the traffic source.
    pub seed: u64,
    /// Mechanism tunables.
    pub tunables: Tunables,
    /// What is driven.
    pub shape: Shape,
}

impl Point {
    /// A point at the mechanism's default tunables.
    pub fn new(
        cfg: SimConfig,
        kind: MechanismKind,
        traffic: &TrafficSpec,
        seed: u64,
        shape: Shape,
    ) -> Self {
        Self {
            cfg,
            kind,
            traffic: traffic.clone(),
            seed,
            tunables: Tunables::default(),
            shape,
        }
    }
}

/// Build the network of `point`, the one place a run is made. The
/// configuration is adapted to the mechanism (escape ring for the OFAR
/// models, 4 local VCs for PAR) unless `cfg.ring` already picks a ring
/// model. Its hooks are a [`Recorder`] over the shape's window beside
/// the caller's `extra`, which the runners hand back; a burst's fault
/// plan is installed.
///
/// # Panics
/// On a configuration the static CDG verifier does not certify as
/// deadlock-free (cached per configuration, so sweeps pay it once), with
/// the offending cycle, ring defect or buffer inequality.
pub fn network<H: Hooks>(point: &Point, extra: H) -> Network<Mechanism, (Recorder, H)> {
    let kind = point.kind;
    let cfg = kind.adapt_config(point.cfg);
    ofar_verify::certify_cached(&cfg, kind)
        .unwrap_or_else(|e| panic!("refusing to start unverified configuration for {kind}: {e}"));
    // Latency percentiles are over the packets *generated* in the window
    // (warmup stragglers delivered early in it are excluded).
    let recorder = match &point.shape {
        Shape::Steady { opts, .. } => Recorder::since(opts.warmup),
        Shape::Transient { opts, .. } => {
            let lo = opts.warmup.saturating_sub(opts.pre_window);
            let buckets = (opts.warmup + opts.post - lo) / opts.bucket;
            Recorder::since(lo).with_series(opts.bucket, buckets as usize)
        }
        Shape::Burst { .. } => Recorder::since(0),
        Shape::Overload { opts } => Recorder::since(opts.warmup),
    };
    let Tunables { ofar, pb } = point.tunables;
    let policy = kind.build_tuned(&cfg, point.seed, ofar, pb);
    let mut net = Network::with_hooks(Fabric::new(cfg), policy, (recorder, extra));
    if let Shape::Burst { plan, .. } = &point.shape {
        net.set_fault_plan(plan.clone());
    }
    net
}

/// Run one steady-state simulation point.
///
/// # Panics
/// Like a refused configuration, a malformed `OFAR_CHECKPOINT_*`
/// variable (see [`CheckpointPolicy::from_env`]) stops the run before it
/// starts.
pub fn steady_state(
    cfg: SimConfig,
    kind: MechanismKind,
    spec: &TrafficSpec,
    load: f64,
    opts: SteadyOpts,
    seed: u64,
) -> SteadyPoint {
    let ckpt = CheckpointPolicy::from_env().unwrap_or_else(|e| panic!("{e}"));
    steady(
        &Point::new(cfg, kind, spec, seed, Shape::Steady { load, opts }),
        &ckpt,
        NoHooks,
    )
    .0
}

/// The steady-state driver: run a [`Shape::Steady`] point and hand
/// `extra` back with its result. One unified warmup+measure loop, so a
/// run can be checkpointed under `ckpt` at any cycle and resumed from
/// the newest valid checkpoint bit-exactly; with checkpointing disabled
/// the loop is step-for-step the two-phase (warmup, then measure) run.
///
/// # Panics
/// On a point of another shape, or a configuration [`network`] refuses.
pub fn steady<H: Hooks>(point: &Point, ckpt: &CheckpointPolicy, extra: H) -> (SteadyPoint, H) {
    let Shape::Steady { load, opts } = point.shape else {
        panic!("not a steady point: {:?}", point.shape);
    };
    let mut net = network(point, extra);
    let (topo, size) = (*net.fabric().topo(), net.cfg().packet_size);
    let mut source = OpenLoop::new(&topo, point.traffic.clone(), load, size, point.seed);
    let nodes = net.num_nodes();
    let total = opts.warmup + opts.measure;

    let key = crate::checkpoint::run_key(point);
    let mut cycle = 0u64;
    let mut start: Option<Stats> = None;
    if let Some(resume) = ckpt.resume(key) {
        // A checkpoint that fails to restore (config drift, corrupt
        // nested snapshot) is discarded and the run starts from zero —
        // resumption is an optimization, never a correctness risk.
        if resume
            .restore(&mut net, &mut source.gen, &mut source.bern)
            .is_ok()
        {
            cycle = resume.cycle;
            start = resume.start.clone();
        }
    }

    while cycle <= total {
        if cycle == opts.warmup {
            start = Some(net.stats().clone());
        }
        if cycle == total {
            break;
        }
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
        cycle += 1;
        if ckpt.due(cycle, total) {
            // Best-effort: a full disk must not kill the simulation.
            ckpt.save(key, cycle, start.as_ref(), &net, &source.gen, &source.bern)
                .ok();
        }
    }
    let start = start.expect("warmup boundary is always crossed");
    let w = StatsWindow::between(&start, net.stats(), opts.measure, nodes);
    let (latencies, extra) = net.into_hooks();
    let result = SteadyPoint {
        load,
        throughput: w.throughput(),
        avg_latency: w.avg_latency(),
        p50_latency: latencies.percentile(50),
        p99_latency: latencies.percentile(99),
        avg_hops: w.avg_hops(),
        misroute_rate: w.misroute_rate(),
        ring_entries: w.ring_entries,
        delivered: w.delivered_packets,
    };
    (result, extra)
}

/// A whole latency/throughput curve for one mechanism: one
/// [`SteadyPoint`] per offered load, simulated in parallel (each point is
/// an independent simulation).
pub fn load_sweep(
    cfg: SimConfig,
    kind: MechanismKind,
    spec: &TrafficSpec,
    loads: &[f64],
    opts: SteadyOpts,
    seed: u64,
) -> Vec<SteadyPoint> {
    loads
        .par_iter()
        .enumerate()
        .map(|(i, &load)| steady_state(cfg, kind, spec, load, opts, point_seed(seed, i)))
        .collect()
}

/// The seed of point `i` of a sweep seeded `seed`: every sweep and
/// study derives its per-point seeds here, so a figure's point and a
/// [`load_sweep`]'s with the same index are the same run (and resume
/// from the same checkpoints).
pub fn point_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 7919)
}

// ---------------------------------------------------------------------
// Transients (Fig. 6)
// ---------------------------------------------------------------------

/// Options for a transient (pattern-switch) experiment.
#[derive(Clone, Copy, Debug)]
pub struct TransientOpts {
    /// Warmup cycles under the initial pattern.
    pub warmup: u64,
    /// Cycles simulated after the switch.
    pub post: u64,
    /// Cycles before the switch included in the reported series.
    pub pre_window: u64,
    /// Series bucket width in cycles.
    pub bucket: u64,
    /// Extra cycles (with injection continuing) so packets sent near the
    /// end of the window still get delivered and counted.
    pub drain: u64,
}

/// One bucket of a transient latency series.
#[derive(Clone, Copy, Debug)]
pub struct TransientBucket {
    /// Bucket start, in cycles relative to the pattern switch.
    pub start: i64,
    /// Mean latency of the packets *sent* during the bucket.
    pub avg_latency: f64,
    /// Packets sent during the bucket (and delivered before the run
    /// ended).
    pub sent: u64,
}

/// Latency-evolution experiment: warm up under the point's traffic,
/// switch to the [`Shape::Transient`] `after`, and report the average
/// latency of the packets sent in each bucket around the switch — the
/// paper's "latency of the packets that are sent each cycle" metric
/// (§VI-B). Hands `extra` back with the series.
///
/// # Panics
/// On a point of another shape, or a configuration [`network`] refuses.
pub fn transient<H: Hooks>(point: &Point, extra: H) -> (Vec<TransientBucket>, H) {
    let Shape::Transient { after, load, opts } = &point.shape else {
        panic!("not a transient point: {:?}", point.shape);
    };
    let mut net = network(point, extra);
    let (topo, size) = (*net.fabric().topo(), net.cfg().packet_size);
    let mut source = OpenLoop::new(&topo, point.traffic.clone(), *load, size, point.seed);

    // Deliveries bucketed by generation cycle, relative to the switch.
    let switch_at = opts.warmup;
    let total = opts.warmup + opts.post + opts.drain;
    for cycle in 0..total {
        if cycle == switch_at {
            source.gen.set_spec(after.clone());
        }
        source.cycle(|src, dst| net.generate(src, dst));
        net.step();
    }

    let lo = opts.warmup.saturating_sub(opts.pre_window);
    let (recorder, extra) = net.into_hooks();
    let series = recorder
        .series()
        .iter()
        .enumerate()
        .map(|(b, &(sum, sent))| TransientBucket {
            start: (lo + b as u64 * opts.bucket) as i64 - switch_at as i64,
            avg_latency: sum as f64 / sent.max(1) as f64,
            sent,
        })
        .collect();
    (series, extra)
}

// ---------------------------------------------------------------------
// Bursts (Fig. 7)
// ---------------------------------------------------------------------

/// Why a run's progress watchdog fired.
///
/// The watchdog distinguishes five failure modes instead of silently
/// returning "no progress": a *partition* (failures disconnected some
/// source–destination pairs — no routing mechanism can finish), a
/// *retransmission storm* (every link is alive but the error rate is so
/// high the link layer retries forever and goodput collapses), a
/// *deadlock* (buffered packets but no allocator grant anywhere for a
/// whole window), a *livelock* (grants keep happening — packets move —
/// but none has been delivered for several windows) and *saturation*
/// (the topology is healthy and packets keep draining, but offered load
/// exceeds delivered throughput so the backlog diverges — an overload
/// condition, not a routing defect).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// Link/router failures disconnected the listed in-flight
    /// source–destination pairs; the run can never drain.
    Partition {
        /// Undeliverable `(src, dst)` pairs still in flight.
        unreachable_pairs: Vec<(NodeId, NodeId)>,
    },
    /// The topology is connected and the link layer keeps retrying, but
    /// goodput is (near) zero: retransmissions climb while nothing is
    /// delivered. Distinct from deadlock (the wires are busy) and from
    /// livelock (packets are not circulating — they are stuck replaying
    /// the same hops).
    RetransmissionStorm {
        /// The worst offending directed links as
        /// `(sender, receiver, retransmissions)`, most retried first.
        links: Vec<(RouterId, RouterId, u64)>,
        /// Total link-level retransmissions when the watchdog fired.
        retransmits: u64,
    },
    /// No router granted any output for a whole watchdog window while
    /// packets remain buffered.
    Deadlock {
        /// Routers holding phits that have not granted for a window.
        stalled_routers: Vec<RouterId>,
    },
    /// Outputs keep being granted but no packet has been delivered for
    /// several watchdog windows (packets circulate without ejecting).
    Livelock {
        /// Routers holding phits that have not granted for a window.
        stalled_routers: Vec<RouterId>,
    },
    /// The network is healthy — connected topology, grants flowing,
    /// deliveries within the last watchdog window — but offered load
    /// exceeds delivered throughput, so the in-flight backlog diverges.
    /// Post-saturation overload, not a routing defect: distinguishes
    /// over-saturation "livelock" (drain is nonzero) from true routing
    /// livelock (drain is zero). Diagnosed only by open-loop runners
    /// that keep injecting ([`crate::overload_point`]); a closed-loop
    /// burst that stopped delivering can never reach this arm.
    Saturation {
        /// Packets generated (offered demand, including NIC queues)
        /// when the watchdog fired.
        offered: u64,
        /// Packets delivered when the watchdog fired.
        delivered: u64,
        /// Diverging backlog (`offered - delivered`).
        backlog: u64,
    },
}

/// The diagnosis in brief, as the study tables and the kill matrix print
/// it: `{:?}` keeps the full router and pair lists.
impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Partition { unreachable_pairs } => {
                write!(f, "partition ({} pairs)", unreachable_pairs.len())
            }
            Self::RetransmissionStorm { links, retransmits } => {
                write!(
                    f,
                    "retx storm ({} links, {retransmits} retries)",
                    links.len()
                )
            }
            Self::Deadlock { stalled_routers } => {
                write!(f, "deadlock ({} routers)", stalled_routers.len())
            }
            Self::Livelock { stalled_routers } => {
                write!(f, "livelock ({} routers)", stalled_routers.len())
            }
            Self::Saturation { backlog, .. } => write!(f, "saturation ({backlog} backlog)"),
        }
    }
}

/// Retransmissions since the last delivery above which a stalled run is
/// diagnosed as a [`StallKind::RetransmissionStorm`]: enough retries that
/// a handful of unlucky transfers cannot explain them.
const STORM_RETX_THRESHOLD: u64 = 64;

/// Knobs of the burst runner that are about the *runner*, not the
/// simulated hardware.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunConfig {
    /// Progress-watchdog window in cycles. `None` derives it from the
    /// configuration via [`derive_watchdog`].
    pub watchdog: Option<u64>,
}

/// Watchdog window scaled to the configuration.
///
/// A packet that is maximally unlucky serializes behind a full buffer on
/// every hop (`packet_size · a` phit times per group), pays the global
/// latency twice (Valiant/misroute), detours over dead local links, and
/// may sit out OFAR's ring patience (100 cycles) plus a full escape-ring
/// lap before each of its ring exits. Sixteen such epochs with a fixed
/// floor is comfortably past any transient burst congestion while still
/// firing in well under a second of wall time on a stalled network.
pub fn derive_watchdog(cfg: &SimConfig) -> u64 {
    // One worst-case "epoch": two global legs, a handful of local legs
    // (minimal + clique detours), full-buffer serialization across the
    // group, and ring patience + a ring lap of slack.
    let a = cfg.params.a as u64;
    let serialization = (cfg.packet_size as u64) * a * 4;
    let ring_slack = 400;
    let epoch = 2 * LAT_GLOBAL + 6 * LAT_LOCAL + serialization + ring_slack;
    2_000 + 16 * epoch
}

/// Result of a burst-consumption run.
#[derive(Clone, Debug)]
pub struct BurstResult {
    /// Cycles until every packet was delivered (`None` if the watchdog
    /// fired — see [`BurstResult::stall`] for the diagnosis).
    pub cycles: Option<u64>,
    /// Packets delivered.
    pub delivered: u64,
    /// Mean latency over the burst.
    pub avg_latency: f64,
    /// 99th-percentile latency over the delivered packets (0 when
    /// nothing was delivered), as the network's [`Hooks::recorder`]
    /// counted it: `None` when its hooks record no latencies, as from
    /// [`burst_net`] over a network built without a [`Recorder`].
    pub p99_latency: Option<f64>,
    /// Escape-ring entries over the whole burst.
    pub ring_entries: u64,
    /// Packets delivered per source NIC, indexed by node id.
    pub per_source_delivered: Vec<u64>,
    /// Why the watchdog fired (`None` when the burst drained).
    pub stall: Option<StallKind>,
    /// Full engine counters at the end of the run — delivery accounting,
    /// fault transitions and the LLR retry/drop/escalation counters.
    pub stats: Stats,
    /// What the network's hooks recorded over the burst: the runtime
    /// invariant audit when they include an `Auditor` (as [`burst`]'s
    /// `extra`, say), else `None`.
    pub audit: Option<AuditReport>,
}

/// Burst experiment (§VI-C): every node enqueues the
/// [`Shape::Burst`] packets at cycle 0 (destinations drawn from the
/// point's traffic) and injects as fast as possible; the result is the
/// time to drain the network. The plan's faults fire at their scheduled
/// cycles while the burst drains (§VII degraded operation); if the
/// surviving topology cannot deliver every packet the watchdog reports a
/// structured [`StallKind`] instead of hanging. Hands `extra` back with
/// the result, whose [`BurstResult::audit`] is its report if it audits.
///
/// # Panics
/// On a point of another shape, or a configuration [`network`] refuses.
pub fn burst<H: Hooks>(point: &Point, extra: H) -> (BurstResult, H) {
    let Shape::Burst { packets, .. } = point.shape else {
        panic!("not a burst point: {:?}", point.shape);
    };
    let mut net = network(point, extra);
    let run = RunConfig::default();
    let r = burst_net(&mut net, &point.traffic, packets, point.seed, run);
    (r, net.into_hooks().1)
}

/// The policy-generic burst runner: drive a caller-built [`Network`]
/// through a burst and diagnose stalls, without the certification gate
/// or the mechanism registry. [`burst`] delegates here; so does a
/// caller that wants its own watchdog window over a [`network`], and the
/// mutation harness, which must run *deliberately defective* policies
/// that are no [`Mechanism`]. [`BurstResult::audit`] and
/// [`BurstResult::p99_latency`] are whatever the network's hooks recorded
/// (`None` for [`ofar_engine::NoHooks`]).
pub fn burst_net<P: Policy, H: Hooks>(
    net: &mut Network<P, H>,
    spec: &TrafficSpec,
    packets_per_node: usize,
    seed: u64,
    run: RunConfig,
) -> BurstResult {
    let cfg = *net.fabric().cfg();
    let topo = *net.fabric().topo();
    OpenLoop::fill(&topo, spec.clone(), packets_per_node, seed, |src, dst| {
        net.generate(src, dst)
    });
    let mut watchdog = Watchdog::new(run.watchdog.unwrap_or_else(|| derive_watchdog(&cfg)));
    let mut stall = None;
    while stall.is_none() && !net.drained() {
        net.step();
        stall = watchdog.poll(net);
    }
    if let Some(stall) = &stall {
        postmortem_dump(net, stall);
    }
    BurstResult {
        cycles: stall.is_none().then(|| net.now()),
        delivered: net.stats().delivered_packets,
        avg_latency: net.stats().avg_latency(),
        p99_latency: net.hooks().recorder().map(|r| r.percentile(99)),
        ring_entries: net.stats().ring_entries,
        per_source_delivered: net.per_source_delivered().to_vec(),
        stall,
        stats: net.stats().clone(),
        audit: net.take_audit_report(),
    }
}

/// The progress watchdog of the closed-burst and overload runners. Two
/// triggers: a dead network (no grant anywhere for a whole window), or a
/// busy one that stopped delivering — livelock takes four windows to
/// call because packets legitimately circulate under heavy misrouting.
pub(crate) struct Watchdog {
    window: u64,
    last_delivered: u64,
    last_delivery_at: u64,
    retx_at_last_delivery: u64,
}

impl Watchdog {
    pub(crate) fn new(window: u64) -> Self {
        Self {
            window,
            last_delivered: 0,
            last_delivery_at: 0,
            retx_at_last_delivery: 0,
        }
    }

    /// Account for the cycle that just ended at `now`. `Some` when a
    /// trigger fired: whether it was the silent allocator, and the
    /// retransmissions since the last delivery.
    fn observe(&mut self, now: u64, s: &Stats) -> Option<(bool, u64)> {
        if s.delivered_packets > self.last_delivered {
            self.last_delivered = s.delivered_packets;
            self.last_delivery_at = now;
            self.retx_at_last_delivery = s.llr_retransmits;
        }
        let no_grant = now - s.last_grant > self.window;
        let no_delivery = now - self.last_delivery_at > 4 * self.window;
        (no_grant || no_delivery)
            .then(|| (no_grant, s.llr_retransmits - self.retx_at_last_delivery))
    }

    /// Call after every `step`: the diagnosis, once a trigger fires.
    pub(crate) fn poll<P: Policy, H: Hooks>(&mut self, net: &Network<P, H>) -> Option<StallKind> {
        let (no_grant, retx_since) = self.observe(net.now(), net.stats())?;
        Some(diagnose_stall(net, self.window, no_grant, retx_since))
    }
}

/// When `OFAR_POSTMORTEM_DIR` is set, dump a full engine snapshot plus a
/// plain-text diagnosis next to it the moment a stall is diagnosed. The
/// snapshot can be replayed later with [`replay_snapshot`] (or
/// `ofar-sim --replay`) to watch the network's final cycles with
/// per-cycle tracing.
/// Best-effort: a dump failure never turns a diagnosed stall into a
/// crash.
fn postmortem_dump<P: Policy, H: Hooks>(net: &Network<P, H>, stall: &StallKind) {
    let dir = match env::parsed::<std::path::PathBuf>("OFAR_POSTMORTEM_DIR") {
        Ok(Some(dir)) if !dir.as_os_str().is_empty() => dir,
        Ok(_) => return,
        Err(e) => return eprintln!("warning: {e}; no post-mortem dump written"),
    };
    // Fingerprint first: sweep points that stall on the same cycle are
    // different machines or mechanisms, and must not share a name.
    let fp = ofar_engine::config_fingerprint(net.cfg(), net.policy().name());
    let base = format!("stall-{fp:08x}-{}", net.now());
    let snap = net.save_snapshot();
    if ofar_engine::write_atomic(&dir.join(format!("{base}.snap")), &snap).is_err() {
        return;
    }
    let s = net.stats();
    let report = format!(
        "cycle: {}\ndiagnosis: {stall:#?}\n\ninjected: {}\ndelivered: {}\n\
         last_delivery: {}\nlast_grant: {}\nllr_retransmits: {}\n\
         link_failures: {}\nrouter_failures: {}\nsnapshot: {base}.snap ({} bytes)\n",
        net.now(),
        s.injected_packets,
        s.delivered_packets,
        s.last_delivery,
        s.last_grant,
        s.llr_retransmits,
        s.link_failures,
        s.router_failures,
        snap.len(),
    );
    crate::store::write_atomic_text(&dir.join(format!("{base}.txt")), &report).ok();
}

/// One cycle of a replayed snapshot (see [`replay_snapshot`]).
#[derive(Clone, Copy, Debug)]
pub struct CycleTrace {
    /// Cycle number (continues the original run's clock).
    pub cycle: u64,
    /// Packets delivered during this cycle.
    pub delivered: u64,
    /// Link-level retransmissions issued during this cycle.
    pub retransmits: u64,
    /// Whether any crossbar output was granted this cycle.
    pub granted: bool,
    /// Packets injected but not yet delivered after this cycle.
    pub in_flight: u64,
}

/// Result of replaying a snapshot (see [`replay_snapshot`]).
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Mechanism named by the snapshot.
    pub mechanism: String,
    /// Cycle at which the snapshot was taken.
    pub start_cycle: u64,
    /// Cycle at which the replay stopped.
    pub end_cycle: u64,
    /// Per-cycle trace of the replayed window.
    pub trace: Vec<CycleTrace>,
    /// Engine counters at the end of the replay.
    pub stats: Stats,
    /// Whether the network drained during the replay.
    pub drained: bool,
    /// Runtime invariant audit over the replay.
    pub audit: AuditReport,
}

/// Restore a snapshot file (e.g. a post-mortem stall dump) and re-run up
/// to `cycles` further cycles with per-cycle tracing and no new
/// injection. The embedded configuration goes through [`network`] like
/// a fresh run's — adapted to the named mechanism, then certified —
/// before a single cycle executes, so a header pairing a mechanism with
/// a configuration it cannot run is refused with
/// [`SnapshotError::ConfigMismatch`]. The replay always runs under the
/// engine's `Auditor` (a few per cent of host time, well spent on a
/// post-mortem).
///
/// The mechanism is rebuilt with its default tunables; its dynamic state
/// (RNG streams, piggybacked congestion estimates) is restored from the
/// snapshot's policy section.
pub fn replay_snapshot(path: &Path, cycles: u64) -> Result<ReplayReport, SnapshotError> {
    let bytes = ofar_engine::read_file(path)?;
    let header = ofar_engine::peek_header(&bytes)?;
    let kind: MechanismKind = header
        .mechanism
        .parse()
        .map_err(|_| SnapshotError::Malformed("unknown mechanism name"))?;
    let cfg = header.config;
    // No new injection: a burst of nothing, on the snapshot's own faults.
    let point = Point::new(
        cfg,
        kind,
        &TrafficSpec::uniform(),
        cfg.seed,
        Shape::burst(0),
    );
    let mut net = network(&point, Auditor::new());
    net.restore_snapshot(&bytes)?;
    let start_cycle = net.now();
    let mut trace = Vec::with_capacity(cycles.min(1 << 20) as usize);
    let mut prev_delivered = net.stats().delivered_packets;
    let mut prev_retx = net.stats().llr_retransmits;
    for _ in 0..cycles {
        if net.drained() {
            break;
        }
        let before = net.now();
        net.step();
        let s = net.stats();
        trace.push(CycleTrace {
            cycle: net.now(),
            delivered: s.delivered_packets - prev_delivered,
            retransmits: s.llr_retransmits - prev_retx,
            granted: s.last_grant >= before,
            in_flight: s.injected_packets - s.delivered_packets,
        });
        prev_delivered = s.delivered_packets;
        prev_retx = s.llr_retransmits;
    }
    Ok(ReplayReport {
        mechanism: header.mechanism,
        start_cycle,
        end_cycle: net.now(),
        trace,
        stats: net.stats().clone(),
        drained: net.drained(),
        audit: net.take_audit_report().expect("an Auditor always reports"),
    })
}

/// Classify a fired watchdog. Partition wins (it explains the others and
/// is definitive — connectivity is a property of the topology, not of
/// the schedule). A retransmission storm is called next: the links are
/// alive but the link layer burned `retx_since` retries since the last
/// delivery, so the allocator's silence is a symptom, not the disease.
/// Otherwise a silent allocator means deadlock and a busy one livelock.
fn diagnose_stall<P: Policy, H: Hooks>(
    net: &Network<P, H>,
    watchdog: u64,
    no_grant: bool,
    retx_since: u64,
) -> StallKind {
    let unreachable_pairs = net.unreachable_pairs();
    if !unreachable_pairs.is_empty() {
        return StallKind::Partition { unreachable_pairs };
    }
    if net.llr_enabled() && retx_since >= STORM_RETX_THRESHOLD {
        return StallKind::RetransmissionStorm {
            links: net.top_retransmit_links(8),
            retransmits: net.stats().llr_retransmits,
        };
    }
    let s = net.stats();
    if !no_grant
        && s.generated_packets > s.delivered_packets
        && net.now().saturating_sub(s.last_delivery) <= watchdog
    {
        // Deliveries are recent and grants are flowing: the network is
        // draining, just slower than the offered load. In a closed-loop
        // burst the `no_delivery` trigger implies a stale last delivery,
        // so this arm is reachable only from open-loop overload runners.
        return StallKind::Saturation {
            offered: s.generated_packets,
            delivered: s.delivered_packets,
            backlog: s.generated_packets - s.delivered_packets,
        };
    }
    let stalled_routers = net.stalled_routers(watchdog);
    if no_grant {
        StallKind::Deadlock { stalled_routers }
    } else {
        StallKind::Livelock { stalled_routers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimConfig {
        SimConfig::paper(2)
    }

    fn quick() -> SteadyOpts {
        SteadyOpts {
            warmup: 1500,
            measure: 2500,
        }
    }

    #[test]
    fn percentiles_are_ordered_and_plausible() {
        let p = steady_state(
            small(),
            MechanismKind::Ofar,
            &TrafficSpec::uniform(),
            0.2,
            quick(),
            8,
        );
        assert!(p.p50_latency > 0.0);
        assert!(p.p50_latency <= p.p99_latency);
        // the mean sits between the median and the tail under queueing
        assert!(p.avg_latency >= p.p50_latency * 0.8);
        assert!(p.p99_latency < 10.0 * p.avg_latency);
    }

    #[test]
    fn min_uniform_low_load_accepts_everything() {
        let p = steady_state(
            small(),
            MechanismKind::Min,
            &TrafficSpec::uniform(),
            0.1,
            quick(),
            1,
        );
        assert!(
            (p.throughput - 0.1).abs() < 0.02,
            "low-load throughput {} ≉ offered 0.1",
            p.throughput
        );
        assert!(p.avg_latency > 0.0 && p.avg_latency < 400.0);
    }

    #[test]
    fn valiant_halves_uniform_capacity() {
        // VAL doubles global-link usage: accepted < MIN's at high load.
        let v = steady_state(
            small(),
            MechanismKind::Valiant,
            &TrafficSpec::uniform(),
            0.9,
            quick(),
            1,
        );
        let m = steady_state(
            small(),
            MechanismKind::Min,
            &TrafficSpec::uniform(),
            0.9,
            quick(),
            1,
        );
        assert!(
            v.throughput < m.throughput,
            "VAL {} must be below MIN {} under UN",
            v.throughput,
            m.throughput
        );
    }

    #[test]
    fn transient_series_has_expected_shape() {
        let opts = TransientOpts {
            warmup: 2000,
            post: 1500,
            pre_window: 500,
            bucket: 250,
            drain: 2000,
        };
        let after = TrafficSpec::adversarial(2);
        let shape = Shape::Transient {
            after,
            load: 0.08,
            opts,
        };
        let point = Point::new(
            small(),
            MechanismKind::Ofar,
            &TrafficSpec::uniform(),
            3,
            shape,
        );
        let (series, NoHooks) = transient(&point, NoHooks);
        assert_eq!(series.len(), ((500 + 1500) / 250) as usize);
        assert_eq!(series[0].start, -500);
        assert!(series.iter().all(|b| b.sent > 0), "every bucket measured");
    }

    #[test]
    fn watchdog_fires_on_silence_and_on_starvation() {
        let window = 10;
        let stats = |last_grant, delivered_packets| Stats {
            last_grant,
            delivered_packets,
            ..Stats::default()
        };
        // A silent allocator fires one cycle past the window.
        let mut w = Watchdog::new(window);
        assert_eq!(w.observe(window, &stats(0, 0)), None);
        assert_eq!(w.observe(window + 1, &stats(0, 0)), Some((true, 0)));
        // Grants every cycle but no delivery: four windows, then livelock.
        let mut w = Watchdog::new(window);
        for now in 1..=4 * window {
            assert_eq!(w.observe(now, &stats(now, 0)), None);
        }
        let now = 4 * window + 1;
        assert_eq!(w.observe(now, &stats(now, 0)), Some((false, 0)));
        // A delivery (and the grant behind it) moves both deadlines.
        let mut w = Watchdog::new(window);
        let at = 4 * window;
        assert_eq!(w.observe(at, &stats(at, 1)), None);
        assert_eq!(w.observe(at + window, &stats(at, 1)), None);
        assert_eq!(w.observe(at + window + 1, &stats(at, 1)), Some((true, 0)));
        assert_eq!(w.observe(at + 4 * window, &stats(at + 4 * window, 1)), None);
        let now = at + 4 * window + 1;
        assert_eq!(w.observe(now, &stats(now, 1)), Some((false, 0)));
    }

    #[test]
    fn burst_drains_and_reports_cycles() {
        let spec = TrafficSpec::uniform();
        let point = Point::new(small(), MechanismKind::Ofar, &spec, 9, Shape::burst(3));
        let (r, NoHooks) = burst(&point, NoHooks);
        let cycles = r.cycles.expect("burst must drain");
        assert!(cycles > 0);
        // 3 packets * nodes delivered
        assert_eq!(r.delivered, 3 * 72);
    }
}
