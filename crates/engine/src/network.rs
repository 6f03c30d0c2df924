//! The network simulator: per-cycle arrival/injection/allocation loop.
//!
//! The model follows §V of the paper:
//!
//! * single-cycle, input-FIFO-buffered virtual cut-through routers;
//! * one phit per cycle per link and crossbar port, no internal speedup;
//! * credit-based flow control with whole-packet granularity;
//! * an iterative separable batch allocator (default 3 iterations) with
//!   least-recently-served arbiters at both stages;
//! * routing decisions taken at the head of each input VC and revisited
//!   every cycle until the packet is granted.

use crate::arena::Arena;
use crate::audit::{AuditReport, AuditViolation};
use crate::config::SimConfig;
use crate::fabric::{Fabric, PortKind};
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::hooks::{Hooks, NoHooks, Phase, RouteMark};
use crate::llr::{Fate, Llr, RxVerdict};
use crate::occupancy::Occupancy;
use crate::packet::{
    Packet, Request, RequestKind, FLAG_GLOBAL_MISROUTED, FLAG_LOCAL_MISROUTED, FLAG_ON_RING,
};
use crate::policy::{InputCtx, NetSnapshot, Policy, RouterView};
use crate::schedule::ShardSchedule;
use crate::stats::Stats;
use crate::wheel::{Arrival, Backlog, Credit, Wheel};
use ofar_topology::{NodeId, RouterId};
use std::collections::VecDeque;

/// Deferred cross-router side effects of a grant.
enum Effect {
    /// `arrival` lands at cycle `at`.
    Arrival { at: u64, arrival: Arrival },
    /// `credit` lands at cycle `at`.
    Credit { at: u64, credit: Credit },
    /// LLR wire transfer lands on the receive side of input
    /// (`router`, `port`): sequence number and the CRC the wire saw.
    Wire {
        router: u32,
        port: u16,
        seq: u32,
        wire_crc: u32,
    },
    /// LLR ack/nack for `seq` returns to the sender side of output
    /// (`router`, `port`) at cycle `at`.
    Ack {
        router: u32,
        port: u16,
        seq: u32,
        ok: bool,
        at: u64,
    },
}

/// Mixing key of one ledger entry for [`Hooks::folds_effect_order`]:
/// identifies the effect's target so the fold distinguishes ledger
/// *orders*, not payloads.
fn effect_order_key(e: &Effect) -> u64 {
    let (tag, router, port, salt) = match e {
        Effect::Arrival { arrival: a, .. } => (1u64, a.router, a.port, u64::from(a.vc)),
        Effect::Credit { credit: c, .. } => (2, c.router, c.port, u64::from(c.vc)),
        Effect::Wire {
            router, port, seq, ..
        } => (3, *router, *port, u64::from(*seq)),
        Effect::Ack {
            router, port, seq, ..
        } => (4, *router, *port, u64::from(*seq)),
    };
    (tag << 48) | (u64::from(router) << 24) | (u64::from(port) << 8) | (salt & 0xFF)
}

/// A network simulation bound to one routing [`Policy`] and one set of
/// [`Hooks`] — [`NoHooks`] unless built through [`Self::with_hooks`].
pub struct Network<P: Policy, H: Hooks = NoHooks> {
    fab: Fabric,
    /// Every router's mutable port and VC state (see [`crate::arena`]).
    arena: Arena,
    policy: P,
    now: u64,
    next_id: u64,
    /// Unbounded per-node source queues (latency includes time spent
    /// here, which is how saturation becomes visible in latency curves).
    src_q: Vec<VecDeque<Packet>>,
    /// Node→injection-buffer transfer is serialized at 1 phit/cycle.
    inj_busy: Vec<u64>,
    /// Every packet and credit in flight on a link, filed under its
    /// landing cycle (see [`crate::wheel`]).
    wheel: Wheel,
    /// Where the buffered packets and waiting sources are (see
    /// [`crate::occupancy`]); derived from `arena.fifos` and `src_q`.
    occ: Occupancy,
    stats: Stats,
    /// Optional per-delivery log: (generation cycle, latency).
    delivered_log: Option<Vec<(u64, u32)>>,
    /// Optional per-output-port phit counters (link utilization).
    link_phits: Option<Vec<u64>>,
    /// Current liveness of links, routers and rings (§VII fault model).
    faults: FaultState,
    /// Scheduled fault transitions, consumed in time order by `step`.
    plan: FaultPlan,
    plan_cursor: usize,
    /// Sticky: true once any fault transition has ever applied (some
    /// path-length invariants only hold on never-faulted networks).
    faults_ever: bool,
    /// Cycle of the last grant at each router (stall diagnosis).
    router_last_grant: Vec<u64>,
    /// Link-level retransmission state; `None` keeps the lossless fast
    /// path (see [`crate::llr`]). Enabled by a nonzero `cfg.ber`, a
    /// transient fault plan, or [`Self::enable_llr`].
    llr: Option<Llr>,
    /// Congestion-management throttle state; `Some` iff `cfg.cm_enabled`
    /// (per-router occupancy estimators + per-NIC token buckets).
    cm: Option<CmState>,
    /// Packets delivered per source node (Jain fairness / per-source
    /// histograms; one counter bump per delivery, always on).
    delivered_per_src: Vec<u64>,
    /// Shard iteration order of the router-sharded parallel `route`
    /// phase; empty = identity, the release fast path.
    /// A harness knob ([`Self::set_shard_schedule`]): simulation state
    /// must be schedule-blind, which is exactly what `ofar-race`
    /// certifies, so the order is deliberately outside snapshots.
    order_routers: Vec<u32>, // lint:allow(S001, schedule is a harness knob; snapshots are schedule-blind by construction)
    /// Shard iteration order of the node-sharded `inject` phase; empty =
    /// identity. Same snapshot-blindness argument as `order_routers`.
    order_nodes: Vec<u32>, // lint:allow(S001, schedule is a harness knob; snapshots are schedule-blind by construction)
    /// The instrumentation seam (see [`crate::hooks`]): invariant
    /// observation and mutation-testing perturbation, zero-sized and
    /// inert for [`NoHooks`]. Diagnostic harness state, deliberately
    /// outside simulation snapshots.
    hooks: H,
    // reusable scratch
    effects: Vec<Effect>,
    /// Deliveries completed this cycle, pushed in route-phase shard
    /// order; `commit_effects` drains them *sorted* into
    /// `delivered_log`, so the log is shard-schedule-invariant.
    delivered_now: Vec<(u64, u32)>,
    reqs: Vec<(u16, u8, Request)>,
    matched_in: Vec<bool>, // lint:allow(S001, per-cycle scratch; rebuilt each cycle and dead at snapshot boundaries)
    matched_out: Vec<bool>,
    grants: Vec<(u16, u8, Request)>,
    best_out: Vec<Option<(u64, u16, u32)>>, // lint:allow(S001, per-cycle scratch; rebuilt each cycle and dead at snapshot boundaries)
}

/// Fixed-point scale of the congestion-management token buckets:
/// 256 bucket units per phit, so fractional rate floors stay exact in
/// integer arithmetic (`cm_min_rate` resolves to whole units per cycle).
const CM_TOKEN_SCALE: u32 = 256;

/// Fixed-point one (`1.0`) of the per-router occupancy estimator.
const CM_CONG_ONE: u32 = 1 << 16;

/// Shift of the sensor's exact multiply-shift division. With
/// `M = ceil(2^50 / d)` the identity `(n * M) >> 50 == n / d` holds for
/// every feasible operand pair: writing `M = (2^50 + e) / d` with
/// `0 ≤ e < d`, the rounding term is `n·e / 2^50 < 1` whenever
/// `n·d < 2^50`, and the sensor's numerator `n = used · 2^16` with
/// `used ≤ d < 2^17` keeps `n·d < 2^(17+16+17) = 2^50`. The widened
/// product `n·M < 2^33 · 2^50` needs u128 — one `mulx` on 64-bit
/// targets, far cheaper than the `div` it replaces.
const CM_INV_SHIFT: u32 = 50;

/// Congestion-management state: per-router occupancy estimators with a
/// hysteresis flag, and one token bucket per NIC. All integer, all
/// snapshot-covered (see `encode_state`); the derived rate constants are
/// recomputed from the configuration on construction and restore.
struct CmState {
    /// Token bucket per node, in `CM_TOKEN_SCALE` units per phit.
    tokens: Vec<u32>,
    /// Per-router smoothed occupancy (EWMA, `CM_CONG_ONE` fixed point).
    cong: Vec<u32>,
    /// Per-router hysteresis state: `true` while throttled.
    throttled: Vec<bool>,
    /// Bucket capacity (two packets of headroom). Config-derived.
    cap: u32,
    /// Full-rate refill: one phit per cycle. Config-derived.
    full_rate: u32,
    /// Throttled refill floor, ≥ 1 unit per cycle. Config-derived.
    min_rate: u32,
    /// Throttle-on threshold in `CM_CONG_ONE` fixed point. Config-derived.
    on_fp: u32,
    /// Throttle-off threshold (`target − hysteresis`). Config-derived.
    off_fp: u32,
    /// Per-router Σ capacity over its network outputs (static for a
    /// fabric; ejection ports carry no credits and contribute 0).
    cap_sum: Vec<u64>,
    /// Per-router Σ credits over its network outputs, maintained
    /// incrementally at the three credit-mutation sites so the per-cycle
    /// sensor is O(1) per router instead of a full port scan. Equals the
    /// scan whenever no fault is active; the fault path re-scans (a
    /// failed link must sense as fully occupied, which a plain credit
    /// sum cannot express).
    free: Vec<u64>,
    /// Per-router magic reciprocal `ceil(2^CM_INV_SHIFT / cap_sum)`
    /// (0 for a router with no credited outputs): the healthy sensor
    /// divides by a per-router *constant*, so a multiply-shift with
    /// this factor replaces the hardware division — and it is exact
    /// over the whole feasible range (see [`CM_INV_SHIFT`] and the
    /// `cm_reciprocal_division_is_exact` test), so sensor values are
    /// bit-identical to the divided form.
    inv: Vec<u64>,
}

impl CmState {
    fn new(cfg: &SimConfig, nodes: usize, routers: usize) -> Self {
        let size = cfg.packet_size as u32;
        let cap = 2 * size * CM_TOKEN_SCALE;
        Self {
            // Buckets start full: an idle network must inject at line
            // rate from cycle 0 exactly as without CM.
            tokens: vec![cap; nodes],
            cong: vec![0; routers],
            throttled: vec![false; routers],
            cap,
            full_rate: CM_TOKEN_SCALE,
            min_rate: ((cm_fp(cfg.cm_min_rate) as u64 * u64::from(CM_TOKEN_SCALE)) >> 16).max(1)
                as u32,
            on_fp: cm_fp(cfg.cm_target_occupancy),
            off_fp: cm_fp(cfg.cm_target_occupancy - cfg.cm_hysteresis),
            cap_sum: vec![0; routers],
            free: vec![0; routers],
            inv: vec![0; routers],
        }
    }

    /// Recompute the incremental credit sums from the actual per-lane
    /// `credits`. Called at construction and after a snapshot restore;
    /// between calls the three credit-mutation sites keep `free` exact.
    fn rebuild_free(&mut self, fab: &Fabric, credits: &[u32]) {
        let sum = |lanes: &[u32]| lanes.iter().map(|&c| u64::from(c)).sum::<u64>();
        for ridx in 0..self.free.len() {
            let lanes = fab.router_lanes(RouterId::from(ridx));
            let cap_sum = sum(&fab.lane_caps()[lanes.clone()]);
            self.cap_sum[ridx] = cap_sum;
            self.free[ridx] = sum(&credits[lanes]);
            debug_assert!(
                cap_sum < 1 << 17,
                "cap_sum {cap_sum} outside the reciprocal exactness bound"
            );
            self.inv[ridx] = cm_inv(cap_sum);
        }
    }
}

/// The magic reciprocal of `d` for the CM sensor's exact multiply-shift
/// division (0 when `d == 0`, where the sensed occupancy is defined as
/// 0). See [`CM_INV_SHIFT`] for the exactness argument.
fn cm_inv(d: u64) -> u64 {
    if d == 0 {
        0
    } else {
        (1u64 << CM_INV_SHIFT).div_ceil(d)
    }
}

/// Convert a validated CM fraction in `[0, 1]` to `CM_CONG_ONE` fixed
/// point. Deterministic: one rounding mode, no platform-dependent math.
fn cm_fp(frac: f64) -> u32 {
    (frac * f64::from(CM_CONG_ONE)) as u32
}

impl<P: Policy> Network<P> {
    /// Build a network with the default escape-ring choice implied by
    /// `cfg.ring`.
    pub fn new(cfg: SimConfig, policy: P) -> Self {
        Self::with_fabric(Fabric::new(cfg), policy)
    }

    /// Build a network over a pre-built [`Fabric`] (e.g. with one of the
    /// alternative disjoint escape rings of §VII).
    pub fn with_fabric(fab: Fabric, policy: P) -> Self {
        Self::with_hooks(fab, policy, NoHooks)
    }
}

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Build an instrumented network: `hooks` observes (and, for the
    /// mutation harness, perturbs) every cycle — see [`crate::hooks`].
    /// Like [`std::collections::HashMap::with_hasher`] next to `new`,
    /// this is the only constructor that names the second type
    /// parameter; everything else infers [`NoHooks`].
    pub fn with_hooks(fab: Fabric, policy: P, hooks: H) -> Self {
        assert!(
            !policy.needs_ring() || fab.escape(RouterId::new(0)).is_some(),
            "{} requires an escape ring (SimConfig::ring)",
            policy.name()
        );
        let nr = fab.topo().num_routers();
        let nodes = fab.topo().num_nodes();
        let arena = Arena::new(&fab);
        let n_in = fab.n_in();
        let n_out = fab.n_out();
        let llr = (fab.cfg().ber > 0.0).then(|| Llr::new(&fab, fab.cfg().seed));
        let cm = fab.cfg().cm_enabled.then(|| {
            let mut cm = CmState::new(fab.cfg(), nodes, nr);
            cm.rebuild_free(&fab, &arena.credits);
            cm
        });
        let mut stats = Stats::default();
        if let Some(cm) = &cm {
            // The initial full buckets count as granted so the token law
            // `granted − consumed ≡ Σ levels` holds from cycle 0.
            stats.cm_tokens_granted = cm.tokens.iter().map(|&t| u64::from(t)).sum();
        }
        Self {
            wheel: Wheel::new(&fab, 0),
            occ: Occupancy::empty(nr, n_in, nodes),
            arena,
            policy,
            now: 0,
            next_id: 0,
            src_q: vec![VecDeque::new(); nodes],
            inj_busy: vec![0; nodes],
            stats,
            delivered_log: None,
            link_phits: None,
            faults: FaultState::new(&fab),
            plan: FaultPlan::new(),
            plan_cursor: 0,
            faults_ever: false,
            router_last_grant: vec![0; nr],
            llr,
            cm,
            delivered_per_src: vec![0; nodes],
            order_routers: Vec::new(),
            order_nodes: Vec::new(),
            hooks,
            effects: Vec::with_capacity(256),
            delivered_now: Vec::new(),
            reqs: Vec::with_capacity(n_in * 4),
            matched_in: vec![false; n_in],
            matched_out: vec![false; n_out],
            grants: Vec::with_capacity(n_in),
            best_out: vec![None; n_out],
            fab,
        }
    }

    // ----- accessors ---------------------------------------------------

    /// Current cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Statistics counters.
    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Static wiring.
    #[inline]
    pub fn fabric(&self) -> &Fabric {
        &self.fab
    }

    /// Configuration shortcut.
    #[inline]
    pub fn cfg(&self) -> &SimConfig {
        self.fab.cfg()
    }

    /// The routing policy (e.g. to inspect mechanism-specific state).
    #[inline]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Number of compute nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.src_q.len()
    }

    /// Packets waiting in the source queue of `node`.
    #[inline]
    pub fn source_queue_len(&self, node: NodeId) -> usize {
        self.src_q[node.idx()].len()
    }

    /// Packets generated but not yet delivered (anywhere: source queues,
    /// buffers, links).
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.stats.generated_packets - self.stats.delivered_packets
    }

    /// Whether every generated packet has been delivered.
    #[inline]
    pub fn drained(&self) -> bool {
        self.in_flight() == 0
    }

    /// Packets delivered per source node since cycle 0 (fairness
    /// accounting; index = `NodeId::idx()`).
    #[inline]
    pub fn per_source_delivered(&self) -> &[u64] {
        &self.delivered_per_src
    }

    /// Jain's fairness index of per-source deliveries so far.
    pub fn jain_fairness(&self) -> f64 {
        crate::stats::jain_index(&self.delivered_per_src)
    }

    /// Start recording one `(generation cycle, latency)` entry per
    /// delivery (transient experiments, Fig. 6).
    pub fn enable_delivery_log(&mut self) {
        self.delivered_log = Some(Vec::new());
    }

    /// Drain the recorded delivery log.
    pub fn take_delivery_log(&mut self) -> Vec<(u64, u32)> {
        self.delivered_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Start counting phits per output port (link-utilization studies,
    /// §III).
    pub fn enable_link_utilization(&mut self) {
        self.link_phits = Some(vec![0; self.fab.topo().num_routers() * self.fab.n_out()]);
    }

    /// Install a shard iteration schedule for the two `parallel`
    /// phases of [`Self::step`] (`route` over routers, `inject` over
    /// nodes). The commutativity certifier (`ofar-race`)
    /// runs adversarial schedules against [`ShardSchedule::Identity`]
    /// and byte-compares snapshots; a divergence falsifies the
    /// parallelization contract. Identity (the default) materializes to
    /// empty order vectors and keeps the plain `0..n` loops.
    pub fn set_shard_schedule(&mut self, sched: ShardSchedule) {
        self.order_routers = sched.order(self.fab.topo().num_routers());
        self.order_nodes = sched.order(self.src_q.len());
    }

    /// Phits transmitted by output `port` of `router` since
    /// [`Self::enable_link_utilization`].
    pub fn link_utilization(&self, router: RouterId, port: usize) -> u64 {
        self.link_phits
            .as_ref()
            .map(|v| v[router.idx() * self.fab.n_out() + port])
            .unwrap_or(0)
    }

    // ----- link-level retransmission ------------------------------------

    /// Enable the link-level retransmission layer (see [`crate::llr`]):
    /// every network link gets a replay buffer, CRC/sequence checking and
    /// ack/nack recovery. Automatic when `cfg.ber > 0` or the fault plan
    /// contains transient wire-error events; call it explicitly to run a
    /// lossless network through the reliable-delivery machinery. Must be
    /// enabled before any packet is in flight (link arrivals already on
    /// the wire would have no sequence metadata).
    pub fn enable_llr(&mut self) {
        if self.llr.is_some() {
            return;
        }
        assert!(
            self.wheel.arrivals().next().is_none(),
            "LLR must be enabled before packets are on the wire"
        );
        self.llr = Some(Llr::new(&self.fab, self.fab.cfg().seed));
    }

    /// Whether the link-level retransmission layer is active.
    #[inline]
    pub fn llr_enabled(&self) -> bool {
        self.llr.is_some()
    }

    /// Retransmissions issued on the directed link out of (`router`,
    /// output `port`) — the raw data of the per-link retry histogram.
    /// 0 when LLR is off.
    pub fn link_retransmits(&self, router: RouterId, port: usize) -> u64 {
        self.llr
            .as_ref()
            .map(|l| l.link_retransmits(router.idx(), port))
            .unwrap_or(0)
    }

    /// The `k` directed links with the most retransmissions, as
    /// `(src router, dst router, retransmits)`, most-retried first —
    /// the storm diagnosis names these. Links with zero retries are
    /// omitted; empty when LLR is off.
    pub fn top_retransmit_links(&self, k: usize) -> Vec<(RouterId, RouterId, u64)> {
        let Some(llr) = &self.llr else {
            return Vec::new();
        };
        let mut all: Vec<(RouterId, RouterId, u64)> = Vec::new();
        for r in 0..self.fab.topo().num_routers() {
            let rid = RouterId::from(r);
            for port in 0..self.fab.n_out() {
                let n = llr.link_retransmits(r, port);
                if n > 0 {
                    let link = self.fab.out_link(rid, port);
                    all.push((rid, RouterId::new(link.dst_router), n));
                }
            }
        }
        all.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    /// The instrumentation this network was built with (e.g. to read a
    /// phase timer out after a run).
    #[inline]
    pub fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    /// The hooks' accumulated report plus a final deep pass run right
    /// now (regardless of cadence), resetting the accumulator; `None`
    /// when the hooks record nothing ([`NoHooks`]).
    pub fn take_audit_report(&mut self) -> Option<AuditReport> {
        let mut report = self.hooks.take_report()?;
        let (checks, violations) = self.deep_audit(self.now);
        report.deep(checks, violations);
        Some(report)
    }

    // ----- fault injection (§VII) ---------------------------------------

    /// Install a deterministic fault schedule. Events are applied at the
    /// top of the `step` for their cycle; events already in the past
    /// apply on the next step. Replaces any previous plan. A plan with
    /// transient wire-error events enables the LLR layer.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if plan.has_transient() {
            self.enable_llr();
        }
        self.plan = plan;
        self.plan_cursor = 0;
    }

    /// The current fault state (liveness of links, routers and rings).
    #[inline]
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Fail the link(s) between two adjacent routers right now. Dead
    /// outputs stop being granted immediately; phits already on the wire
    /// land normally (fail-stop at packet granularity), so conservation
    /// invariants keep holding. Returns false if already failed.
    pub fn fail_link(&mut self, a: RouterId, b: RouterId) -> bool {
        self.apply_fault(FaultKind::FailLink(a, b))
    }

    /// Restore a previously failed link. Returns false if it was not
    /// failed.
    pub fn restore_link(&mut self, a: RouterId, b: RouterId) -> bool {
        self.apply_fault(FaultKind::RestoreLink(a, b))
    }

    // lint:allow(P001, transient fault kinds never report a changed fail-stop state; the arm is statically dead)
    fn apply_fault(&mut self, kind: FaultKind) -> bool {
        let changed = self.faults.apply(kind, &self.fab);
        if changed {
            self.faults_ever = true;
            // One count per effective transition: a link restored and
            // re-failed in the same cycle registers once on each counter,
            // while redundant transitions (apply returned false) never
            // count.
            match kind {
                FaultKind::FailLink(..) => self.stats.link_failures += 1,
                FaultKind::RestoreLink(..) => self.stats.link_repairs += 1,
                FaultKind::FailRouter(..) => self.stats.router_failures += 1,
                FaultKind::RestoreRouter(..) => self.stats.router_repairs += 1,
                // Transient kinds never change the fail-stop liveness
                // state, so apply() returns false for them.
                FaultKind::CorruptPhit(..)
                | FaultKind::DropPhit(..)
                | FaultKind::SetLinkBer(..) => unreachable!(),
            }
            // Fail-stop semantics under LLR: transfers already started
            // complete. A replay entry the receiver has not accepted IS
            // the canonical in-progress transfer of its packet, so a
            // failing link force-delivers them into the (credit-reserved)
            // downstream buffers before the allocator stops serving it.
            if matches!(kind, FaultKind::FailLink(..) | FaultKind::FailRouter(..))
                && self.llr.is_some()
            {
                self.llr_flush_dead_links();
            }
        } else if kind.is_transient() {
            // One-shots and BER overrides registered inside FaultState;
            // they need the LLR layer to mean anything.
            debug_assert!(self.llr.is_some(), "transient fault without LLR enabled");
        }
        changed
    }

    /// Force-deliver the undelivered replay entries of every LLR link
    /// whose fail-stop liveness just went down (both directions — the
    /// sweep is idempotent: already-flushed links have empty buffers).
    // lint:allow(P001, runs only when LLR is enabled; self.llr checked by the caller)
    fn llr_flush_dead_links(&mut self) {
        let topo = *self.fab.topo();
        let n_in = self.fab.n_in();
        for ridx in 0..self.fab.topo().num_routers() {
            let rid = RouterId::from(ridx);
            for port in 0..self.fab.n_out() {
                let link = *self.fab.out_link(rid, port);
                if link.kind == PortKind::Node
                    || self
                        .faults
                        .topo_link_up(rid, RouterId::new(link.dst_router))
                {
                    continue;
                }
                let llr = self.llr.as_mut().expect("caller checked");
                if llr.tx_occupancy(ridx, port) == 0 {
                    continue;
                }
                let forced = llr.take_undelivered(
                    ridx,
                    port,
                    link.dst_router as usize,
                    link.dst_port as usize,
                );
                let dst_router = RouterId::new(link.dst_router);
                let g = topo.group_of(dst_router);
                for e in forced {
                    let mut pkt = e.pkt;
                    pkt.land_in(g);
                    // The credit held since first transmission reserves
                    // this space, so the push cannot overflow.
                    let dst_slot =
                        self.fab
                            .in_slot(dst_router, link.dst_port as usize, e.out_vc as usize);
                    self.arena
                        .fifos
                        .push(dst_slot, pkt, self.fab.slot_caps()[dst_slot]);
                    self.occ.router_pkts[link.dst_router as usize] += 1;
                    self.occ.port_pkts[link.dst_router as usize * n_in + link.dst_port as usize] +=
                        1;
                }
            }
        }
    }

    /// Routers holding buffered packets that have not granted anything
    /// for at least `window` cycles — the candidates a stall diagnosis
    /// reports.
    pub fn stalled_routers(&self, window: u64) -> Vec<RouterId> {
        let horizon = self.now.saturating_sub(window);
        self.occ
            .router_pkts
            .iter()
            .enumerate()
            .filter(|(r, &pkts)| pkts > 0 && self.router_last_grant[*r] < horizon)
            .map(|(r, _)| RouterId::from(r))
            .collect()
    }

    /// Source/destination node pairs of undelivered packets whose
    /// destination router is unreachable from the packet's current
    /// position over the surviving links — the *partition* diagnosis.
    /// Empty on a connected network. Pairs are deduplicated and sorted.
    pub fn unreachable_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let comp = self.router_components();
        let topo = self.fab.topo();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        let mut check = |at: RouterId, pkt: &Packet| {
            if comp[at.idx()] != comp[topo.router_of_node(pkt.dst).idx()] {
                pairs.push((pkt.src, pkt.dst));
            }
        };
        for (node, q) in self.src_q.iter().enumerate() {
            let at = topo.router_of_node(NodeId::from(node));
            for pkt in q {
                check(at, pkt);
            }
        }
        for ridx in 0..self.fab.topo().num_routers() {
            let at = RouterId::from(ridx);
            for slot in self.fab.router_slots(at) {
                for pkt in self.arena.fifos.iter(slot) {
                    check(at, pkt);
                }
            }
        }
        // In-flight packets land at their link's far end regardless of
        // faults, so they are judged from there.
        for (_, a) in self.wheel.arrivals() {
            check(RouterId::new(a.router), &a.pkt);
        }
        pairs.sort();
        pairs.dedup();
        pairs
    }

    /// Connected components of the router graph over surviving links.
    fn router_components(&self) -> Vec<u32> {
        let topo = self.fab.topo();
        let nr = topo.num_routers();
        let (a, h) = (self.fab.cfg().params.a, self.fab.cfg().params.h);
        let mut comp = vec![u32::MAX; nr];
        let mut stack = Vec::new();
        let mut next = 0u32;
        for start in 0..nr {
            if comp[start] != u32::MAX {
                continue;
            }
            comp[start] = next;
            stack.push(RouterId::from(start));
            while let Some(r) = stack.pop() {
                for j in 0..a - 1 + h {
                    let n = if j < a - 1 {
                        topo.local_neighbor(r, j)
                    } else {
                        topo.global_neighbor(r, j - (a - 1)).0
                    };
                    if comp[n.idx()] == u32::MAX && self.faults.topo_link_up(r, n) {
                        comp[n.idx()] = next;
                        stack.push(n);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    // ----- traffic entry ------------------------------------------------

    /// Generate a packet at `src` destined to `dst`, stamped with the
    /// current cycle. The packet waits in the node's unbounded source
    /// queue until the injection buffer accepts it.
    pub fn generate(&mut self, src: NodeId, dst: NodeId) {
        debug_assert_ne!(src, dst, "self-traffic is not meaningful");
        let pkt = Packet {
            id: self.next_id,
            injected_at: self.now,
            src,
            dst,
            intermediate: None,
            flags: 0,
            ring_exits_left: self.fab.cfg().max_ring_exits,
            local_hops: 0,
            global_hops: 0,
            ring_hops: 0,
            wait: 0,
            cur_group: self.fab.topo().group_of_node(src),
        };
        self.next_id += 1;
        self.stats.generated_packets += 1;
        self.src_q[src.idx()].push_back(pkt);
        self.occ.src_pending[src.idx() / 64] |= 1 << (src.idx() % 64);
    }

    /// Advance the simulation by one cycle.
    ///
    /// The body is segmented into declared phases (`ofar-lint:
    /// phase(…)` markers) that the R-family phase analysis checks and
    /// exports as the parallelization contract
    /// (`results/phase-contract.json`): a `parallel` phase may only
    /// write its own shard's state (plus reduction-safe sinks), so the
    /// parallel engine can fan its routers out; a `commit` phase runs
    /// serially and is where cross-router effects apply.
    pub fn step(&mut self) {
        // ofar-lint: phase(fault_apply, commit)
        self.hooks.phase(Phase::FaultApply);
        // Apply scheduled fault transitions due at (or before) this
        // cycle, in plan order — before arrivals so the cycle already
        // sees the new liveness.
        let now = self.now;
        while self.plan_cursor < self.plan.events().len()
            && self.plan.events()[self.plan_cursor].at <= now
        {
            let kind = self.plan.events()[self.plan_cursor].kind;
            self.plan_cursor += 1;
            self.apply_fault(kind);
        }
        // ofar-lint: phase(deliver, commit)
        // Serial: draining the wheel's bucket is O(events landing), and
        // those land on arbitrary routers.
        self.hooks.phase(Phase::Deliver);
        self.deliver_events(now);
        // ofar-lint: phase(llr_timers, commit)
        self.hooks.phase(Phase::LlrTimers);
        if self.llr.is_some() {
            self.llr_phase(now);
        }
        // ofar-lint: phase(cm_sense, commit)
        self.hooks.phase(Phase::CmSense);
        // CM sensing and refill sweep every router's estimator and
        // every NIC's bucket from one loop — inherently cross-shard, so
        // it runs as its own commit phase rather than inside the
        // node-parallel injection phase (it used to be the first
        // statement of `inject`, so the order is unchanged).
        if self.cm.is_some() {
            self.cm_sense_and_refill();
        }
        // ofar-lint: phase(inject, parallel)
        self.hooks.phase(Phase::Inject);
        self.inject(now);
        // ofar-lint: phase(route, parallel)
        self.hooks.phase(Phase::Route);
        for i in 0..self.fab.topo().num_routers() {
            let r = if self.order_routers.is_empty() {
                i
            } else {
                self.order_routers[i] as usize
            };
            // A router with nothing buffered has no head to route.
            if self.occ.router_pkts[r] != 0 {
                self.route_and_allocate(r, now);
            }
        }
        // ofar-lint: phase(effect_commit, commit)
        self.hooks.phase(Phase::EffectCommit);
        self.commit_effects();
        // ofar-lint: phase(audit, commit)
        self.hooks.phase(Phase::Audit);
        if self.hooks.deep_due(now) {
            let (checks, violations) = self.deep_audit(now);
            self.hooks.deep_report(checks, violations);
        }
        // ofar-lint: phase(policy_end, commit)
        self.hooks.phase(Phase::PolicyEnd);
        let snap = NetSnapshot {
            fab: &self.fab,
            now,
            credits: &self.arena.credits,
            faults: &self.faults,
        };
        self.policy.end_cycle(&snap);
        self.now = now + 1;
    }

    /// Advance by `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    // ----- cycle phases --------------------------------------------------

    /// Phase 1: land the packets and credits whose link traversal
    /// completes this cycle — exactly the wheel's bucket for `now`, in
    /// submission order (they commute: see [`crate::wheel`]). Landing at
    /// a new group clears the per-group local-misroute flag and retires
    /// a reached Valiant intermediate (§IV-A).
    // lint:allow(P002, router/port indices bounded by fabric radix; packet_size bounded by config)
    fn deliver_events(&mut self, now: u64) {
        let topo = *self.fab.topo();
        let fab = &self.fab;
        let n_in = fab.n_in();
        let llr = &mut self.llr;
        let stats = &mut self.stats;
        let cm = &mut self.cm;
        let effects = &mut self.effects;
        let hooks = &mut self.hooks;
        let occ = &mut self.occ;
        let due = self.wheel.due(now);
        for arrival in due.arrivals.drain(..) {
            let (ridx, port, vc) = (arrival.router as usize, arrival.port as usize, arrival.vc);
            let mut pkt = arrival.pkt;
            // Link-level CRC/sequence check: a corrupted transfer is
            // discarded and nacked, a duplicate discarded and re-acked,
            // a good one accepted and acked. Acks ride the credit-return
            // path (same latency, never lost) and land at
            // `now + latency >= now + 1`, so they travel through the
            // effects ledger like every other cross-router effect.
            if let Some(l) = llr.as_mut() {
                let desc = fab.in_desc(RouterId::from(ridx), port);
                if desc.up_router != u32::MAX {
                    let (verdict, seq) = l.receive(ridx, port, &pkt);
                    match verdict {
                        RxVerdict::Accept => {}
                        RxVerdict::CrcDrop => stats.llr_crc_drops += 1,
                        RxVerdict::Duplicate => stats.llr_dup_drops += 1,
                    }
                    // A duplicate is re-acked: the sender may have
                    // timed out before the first ack landed.
                    effects.push(Effect::Ack {
                        router: desc.up_router,
                        port: desc.up_port,
                        seq,
                        ok: verdict != RxVerdict::CrcDrop,
                        at: now + u64::from(desc.latency),
                    });
                    if verdict != RxVerdict::Accept {
                        continue;
                    }
                }
            }
            pkt.land_in(topo.group_of(RouterId::from(ridx)));
            // Arrival-side mirror of the credit mechanism: flow control
            // must have reserved this space upstream.
            let fifos = &mut self.arena.fifos;
            let slot = fab.in_slot(RouterId::from(ridx), port, vc as usize);
            let capacity = fab.slot_caps()[slot];
            hooks.check(
                || fifos.fits(slot, capacity),
                || AuditViolation::BufferOverflow {
                    cycle: now,
                    router: ridx as u32,
                    port: port as u16,
                    vc,
                    occupancy: fifos.occupancy(slot),
                    capacity,
                },
            );
            if hooks.tolerates_overflow() {
                // A seeded credit defect may legitimately oversubscribe
                // the buffer; the check above recorded it, so land the
                // packet anyway.
                fifos.push_overflowing(slot, pkt);
            } else {
                fifos.push(slot, pkt, capacity);
            }
            occ.router_pkts[ridx] += 1;
            occ.port_pkts[ridx * n_in + port] += 1;
        }
        for credit in due.credits.drain(..) {
            let (ridx, port) = (credit.router as usize, credit.port as usize);
            let link = fab.out_link(RouterId::from(ridx), port);
            // Seeded credit-accounting skew (mutation testing): drop,
            // double or re-VC this landing so the auditor's conservation
            // checks can be exercised against real in-engine defects.
            let Some((vc, phits)) = hooks.skew_credit(credit.vc, credit.phits, link.vcs as usize)
            else {
                continue; // the seeded leak: credit never lands
            };
            let lane = fab.out_lane(RouterId::from(ridx), port, vc as usize);
            let cap = fab.lane_caps()[lane];
            let c = &mut self.arena.credits[lane];
            *c += phits;
            if let Some(cm) = cm.as_mut() {
                cm.free[ridx] += u64::from(phits);
            }
            // A counter past the downstream capacity means a double
            // credit.
            hooks.check(
                || *c <= cap,
                || AuditViolation::CreditOverflow {
                    cycle: now,
                    router: ridx as u32,
                    port: port as u16,
                    vc,
                    credits: *c,
                    capacity: cap,
                },
            );
        }
    }

    /// Phase 2: move source-queue heads into injection buffers
    /// (1 phit/cycle per node).
    ///
    /// With CM enabled this is also the throttle point: a head packet
    /// only moves when its NIC bucket (sensed and refilled by the
    /// preceding `cm_sense` commit phase) holds a packet's worth of
    /// tokens. Throttling delays `on_inject` only — packets already in
    /// the fabric are never slowed, so the CDG certificate is untouched.
    fn inject(&mut self, now: u64) {
        if self.order_nodes.is_empty() {
            // Identity schedule: the set bits in ascending order are the
            // nodes the full scan would not have skipped as empty.
            for w in 0..self.occ.src_pending.len() {
                let mut bits = self.occ.src_pending[w];
                while bits != 0 {
                    let node = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.inject_node(node, now);
                }
            }
        } else {
            for i in 0..self.order_nodes.len() {
                let node = self.order_nodes[i] as usize;
                if self.occ.src_pending[node / 64] >> (node % 64) & 1 != 0 {
                    self.inject_node(node, now);
                }
            }
        }
    }

    /// [`Self::inject`] for one node whose source queue is non-empty.
    // lint:allow(P002, node index and packet size bounded by fabric dimensions) lint:allow(P001, source queue non-empty by the pending-source index) lint:allow(R003, on_inject mutates per-mechanism policy state; the parallel plan gives each worker its own policy replica merged at commit)
    fn inject_node(&mut self, node: usize, now: u64) {
        if self.inj_busy[node] > now {
            return;
        }
        let size = self.fab.cfg().packet_size as u32;
        let p = self.fab.cfg().params.p;
        let need = size * CM_TOKEN_SCALE;
        if let Some(cm) = self.cm.as_ref() {
            if cm.tokens[node] < need && !self.hooks.bypass_throttle() {
                self.stats.cm_throttle_deferrals += 1;
                return;
            }
        }
        let router = RouterId::from(node / p);
        let port = self.fab.inj_in(node % p);
        let view = RouterView::new(
            &self.fab,
            router,
            now,
            &self.arena.out_busy[router.idx() * self.fab.n_out()..][..self.fab.n_out()],
            &self.arena.credits[self.fab.router_lanes(router)],
            &self.faults,
        );
        let pkt = self.src_q[node].front_mut().unwrap();
        let vc = self.policy.on_inject(&view, pkt);
        // An out-of-range pick would index past the injection buffer,
        // so a recording hook skips the injection as well.
        let vcs = self.fab.in_desc(router, port).vcs as usize;
        if !self.hooks.check(
            || vc < vcs,
            || AuditViolation::InjectionVcRange {
                cycle: now,
                node: node as u32,
                vc,
                vcs,
            },
        ) {
            return;
        }
        let fifos = &mut self.arena.fifos;
        let capacity = self.fab.slot_caps()[self.fab.in_slot(router, port, vc)];
        if fifos.fits(self.fab.in_slot(router, port, vc), capacity) {
            let pkt = self.src_q[node].pop_front().unwrap();
            if self.src_q[node].is_empty() {
                self.occ.src_pending[node / 64] &= !(1 << (node % 64));
            }
            fifos.push(self.fab.in_slot(router, port, vc), pkt, capacity);
            self.occ.router_pkts[router.idx()] += 1;
            self.occ.port_pkts[router.idx() * self.fab.n_in() + port] += 1;
            self.inj_busy[node] = now + u64::from(size);
            self.stats.injected_packets += 1;
            if let Some(cm) = self.cm.as_mut() {
                // `saturating_sub` + full-price accounting: the gate
                // above guarantees `tokens >= need`, so the two agree —
                // unless the `ThrottleBypass` mutation skipped the gate,
                // in which case granted − consumed drifts below the
                // summed levels and `ThrottleTokenLaw` fires.
                cm.tokens[node] = cm.tokens[node].saturating_sub(need);
                self.stats.cm_tokens_consumed += u64::from(need);
            }
        }
    }

    /// CM per-cycle bookkeeping: update each router's smoothed occupancy
    /// estimator and hysteresis state, then refill every NIC bucket at
    /// the rate its router's state dictates. Grants are cap-clamped and
    /// counted exactly, so `granted − consumed ≡ Σ levels` is an
    /// identity (the `ThrottleTokenLaw` auditor invariant).
    fn cm_sense_and_refill(&mut self) {
        let p = self.fab.cfg().params.p;
        let healthy = !self.faults.any();
        let (fab, credits) = (&self.fab, &self.arena.credits);
        let faults = &self.faults;
        let Some(cm) = self.cm.as_mut() else { return };
        let mut throttled_now = 0u64;
        for ridx in 0..cm.cong.len() {
            // Instantaneous occupancy of this router's network outputs
            // (ejection ports carry no credits and drop out of the sum).
            // Healthy fast path: `free` is maintained incrementally at
            // the three credit-mutation sites, so the sensor reads two
            // integers per router instead of re-scanning every port —
            // the whole CM layer costs O(routers + nodes) per cycle.
            let inst = if healthy {
                let used = cm.cap_sum[ridx].saturating_sub(cm.free[ridx]);
                // Exact multiply-shift division by the static `cap_sum`
                // (see `CM_INV_SHIFT`) — no hardware `div` per router.
                let wide = (u128::from(used) << 16) * u128::from(cm.inv[ridx]);
                // lint:allow(P002, quotient <= CM_CONG_ONE so it fits u32)
                let inst = (wide >> CM_INV_SHIFT) as u32;
                debug_assert_eq!(
                    u64::from(inst),
                    (used << 16).checked_div(cm.cap_sum[ridx]).unwrap_or(0),
                    "reciprocal division diverged from exact division"
                );
                inst
            } else {
                // Fault-active fallback: a failed link must sense as
                // fully occupied, which a plain credit sum cannot
                // express — re-scan the ports while any fault is live
                // (`FaultState::any` clears again on full recovery).
                let mut cap_sum = 0u64;
                let mut used = 0u64;
                for (port, link) in fab.out_links(RouterId::from(ridx)).iter().enumerate() {
                    let cap: u32 = fab.lane_caps()[link.lanes()].iter().sum();
                    if cap == 0 {
                        continue;
                    }
                    cap_sum += u64::from(cap);
                    if faults.link_up(ridx, port) {
                        let free: u32 = credits[link.lanes()].iter().sum();
                        used += u64::from(cap - free);
                    } else {
                        used += u64::from(cap);
                    }
                }
                // Cold path: `cap_sum` here differs from the static one
                // while links are down, so divide for real.
                (used * u64::from(CM_CONG_ONE))
                    .checked_div(cap_sum)
                    // lint:allow(P002, used <= cap_sum so the quotient fits u32)
                    .map_or(0, |q| q as u32)
            };
            // EWMA with α = 1/8: smooth enough to ride out allocator
            // jitter, fast enough to track a burst front within ~a
            // packet time. Pure integer — bit-exact across platforms.
            let smoothed = (u64::from(cm.cong[ridx]) * 7 + u64::from(inst)) / 8;
            // lint:allow(P002, EWMA of values <= CM_CONG_ONE fits u32)
            cm.cong[ridx] = smoothed as u32;
            if cm.throttled[ridx] {
                if cm.cong[ridx] < cm.off_fp {
                    cm.throttled[ridx] = false;
                }
            } else if cm.cong[ridx] >= cm.on_fp {
                cm.throttled[ridx] = true;
            }
            if cm.throttled[ridx] {
                throttled_now += 1;
            }
        }
        self.stats.cm_throttled_cycles += throttled_now;
        // One bucket chunk per router (`p` NICs each): reading the
        // throttle latch once per chunk keeps the refill free of the
        // per-node `node / p` division.
        let (cap, min_rate, full_rate) = (cm.cap, cm.min_rate, cm.full_rate);
        for (chunk, &throttled) in cm.tokens.chunks_mut(p).zip(cm.throttled.iter()) {
            let rate = if throttled { min_rate } else { full_rate };
            for tokens in chunk {
                let added = rate.min(cap - *tokens);
                *tokens += added;
                self.stats.cm_tokens_granted += u64::from(added);
            }
        }
    }

    /// Phase 3: routing + separable iterative allocation + grant
    /// execution for one router.
    // lint:allow(P002, port/vc/candidate indices bounded by fabric radix and VC count) lint:allow(R003, policy.route mutates per-mechanism state only; serialized per worker replica in the parallel plan)
    fn route_and_allocate(&mut self, ridx: usize, now: u64) {
        let size = self.fab.cfg().packet_size as u32;
        let ring_need = self.hooks.ring_entry_need(size);
        let router = RouterId::from(ridx);

        // --- collect one request per head-of-VC packet ---
        self.hooks.route_mark(RouteMark::Collect);
        let mut polled = 0;
        self.reqs.clear();
        let (n_in, n_out) = (self.fab.n_in(), self.fab.n_out());
        // This router's span of each array, sliced once: its ports, its
        // lanes, and its slots — consecutive, port by port.
        let view = RouterView::new(
            &self.fab,
            router,
            now,
            &self.arena.out_busy[ridx * n_out..][..n_out],
            &self.arena.credits[self.fab.router_lanes(router)],
            &self.faults,
        );
        {
            let occupied = &self.occ.port_pkts[ridx * n_in..][..n_in];
            let in_busy = &self.arena.in_busy[ridx * n_in..][..n_in];
            let queued = &self.arena.fifos.queued[self.fab.router_slots(router)];
            let heads = &mut self.arena.fifos.heads[self.fab.router_slots(router)];
            let descs = self.fab.in_descs(router);
            for (port, desc) in descs.iter().enumerate() {
                if occupied[port] == 0 || in_busy[port] > now {
                    continue; // nothing buffered, or still streaming a packet
                }
                let first = desc.slot as usize - descs[0].slot as usize;
                let base_vcs = self.fab.base_vcs(desc.kind);
                for vc in 0..desc.vcs as usize {
                    if queued[first + vc] == 0 {
                        continue;
                    }
                    let pkt = &mut heads[first + vc];
                    let ctx = InputCtx {
                        port,
                        vc,
                        kind: desc.kind,
                        is_escape_vc: desc.kind == PortKind::Ring || vc >= base_vcs,
                    };
                    polled += 1;
                    if let Some(req) = self.policy.route(&view, ctx, pkt) {
                        // A dead output is never allocated, whatever the
                        // policy asked for (defence in depth — fault-
                        // aware policies already avoid dead ports). An
                        // output whose replay buffer is full is likewise
                        // skipped: the sender must retain every
                        // unacknowledged packet.
                        if view.link_up(req.out_port as usize)
                            && self
                                .llr
                                .as_ref()
                                .is_none_or(|l| l.tx_has_room(ridx, req.out_port as usize))
                        {
                            self.reqs.push((port as u16, vc as u8, req));
                        }
                    }
                }
            }
        }
        let kept = self.reqs.len();
        self.hooks.route_mark(RouteMark::Allocate { polled, kept });
        if kept == 0 {
            return;
        }

        // --- iterative separable allocation (input stage then output
        //     stage, LRS arbiters, `alloc_iters` iterations) ---
        self.matched_in.iter_mut().for_each(|m| *m = false);
        self.matched_out.iter_mut().for_each(|m| *m = false);
        self.grants.clear();
        let iters = self.fab.cfg().alloc_iters;
        for _ in 0..iters {
            self.best_out.iter_mut().for_each(|b| *b = None);
            let mut any = false;
            let mut i = 0;
            while i < self.reqs.len() {
                let in_port = self.reqs[i].0;
                let mut j = i;
                while j < self.reqs.len() && self.reqs[j].0 == in_port {
                    j += 1;
                }
                if !self.matched_in[in_port as usize] {
                    // Input stage: least-recently-served VC among the
                    // eligible candidates of this input port.
                    let mut pick: Option<(u64, usize)> = None;
                    for (idx, &(_, vc, req)) in
                        self.reqs[i..j].iter().enumerate().map(|(k, r)| (i + k, r))
                    {
                        // Ring entry needs the bubble of §IV-C: normally
                        // two packets of room.
                        let need = match req.kind {
                            RequestKind::RingEnter => ring_need,
                            _ => size,
                        };
                        let out = req.out_port as usize;
                        if self.matched_out[out] || !view.grantable(out, req.out_vc as usize, need)
                        {
                            continue;
                        }
                        let stamp = self.arena.vc_served_at
                            [self.fab.in_slot(router, in_port as usize, vc as usize)];
                        if pick.is_none_or(|(s, _)| stamp < s) {
                            pick = Some((stamp, idx));
                        }
                    }
                    if let Some((_, idx)) = pick {
                        // Output stage: LRS over proposing inputs.
                        let req = self.reqs[idx].2;
                        let out = req.out_port as usize;
                        let stamp =
                            self.arena.in_served_at[(ridx * n_out + out) * n_in + in_port as usize];
                        if self.best_out[out].is_none_or(|(s, _, _)| stamp < s) {
                            self.best_out[out] = Some((stamp, in_port, idx as u32));
                        }
                    }
                }
                i = j;
            }
            for out in 0..self.best_out.len() {
                if let Some((_, in_port, idx)) = self.best_out[out] {
                    let (port, vc, req) = self.reqs[idx as usize];
                    self.matched_in[in_port as usize] = true;
                    self.matched_out[out] = true;
                    self.grants.push((port, vc, req));
                    any = true;
                }
            }
            if !any {
                break;
            }
        }

        // --- execute grants ---
        let grants = self.grants.len();
        self.hooks.route_mark(RouteMark::Execute { grants });
        for gi in 0..self.grants.len() {
            let (in_port, vc, req) = self.grants[gi];
            self.execute_grant(ridx, in_port as usize, vc as usize, req, now);
        }
    }

    /// Commit phase: apply the cycle's deferred cross-router effects in
    /// submission order — packet arrivals and credit returns are filed
    /// into the timing wheel under their landing cycle, (LLR only) wire
    /// transfers and acks into the link layer's queues. Every target
    /// has exactly one upstream writer and at most one entry lands per
    /// cycle, all stamped `at >= now + 1`, so applying them here instead
    /// of inside each router's allocation turn is observationally
    /// identical: no phase of the current cycle reads them.
    fn commit_effects(&mut self) {
        let llr = &mut self.llr;
        let fold = self.hooks.folds_effect_order();
        let mut fold_acc = 0u64;
        for e in self.effects.drain(..) {
            // Seeded race defect (`EngineMutation::EffectOrderFold`): a
            // non-commutative fold over the ledger's *push order*. The
            // applied per-queue state stays correct; only the folded
            // value — later mixed into a serialized counter — leaks the
            // shard schedule into the snapshot. This is the defect
            // class R006 forbids statically (waived here as a hook-
            // gated seam) and `ofar-race` must kill dynamically.
            if fold {
                // lint:allow(R006, hook-gated mutation seam; the order-sensitive fold is the seeded defect the race certifier must catch)
                fold_acc = fold_acc.wrapping_mul(31).wrapping_add(effect_order_key(&e));
            }
            match e {
                Effect::Arrival { at, arrival } => self.wheel.file_arrival(at, arrival),
                Effect::Credit { at, credit } => self.wheel.file_credit(at, credit),
                Effect::Wire {
                    router,
                    port,
                    seq,
                    wire_crc,
                } => {
                    if let Some(l) = llr.as_mut() {
                        l.push_wire(router as usize, port as usize, seq, wire_crc);
                    }
                }
                Effect::Ack {
                    router,
                    port,
                    seq,
                    ok,
                    at,
                } => {
                    if let Some(l) = llr.as_mut() {
                        l.push_ack(router as usize, port as usize, seq, ok, at);
                    }
                }
            }
        }
        if fold {
            // Mix the order fold into a snapshot-covered counter so the
            // ledger order becomes externally observable state.
            self.stats.latency_sum = self.stats.latency_sum.wrapping_add(fold_acc);
        }
        // This cycle's deliveries were recorded in route-phase *shard*
        // order; a canonical sort before appending keeps the log
        // schedule-invariant (entries are value tuples, so equal keys
        // are identical entries and the tie-break is immaterial).
        if !self.delivered_now.is_empty() {
            self.delivered_now.sort_unstable();
            if let Some(log) = self.delivered_log.as_mut() {
                log.append(&mut self.delivered_now);
            } else {
                self.delivered_now.clear();
            }
        }
    }

    /// Run the whole-network deep checks right now and return the
    /// invariants that failed — empty on a healthy network. Needs no
    /// recording hooks: the test suites call it on plain networks.
    pub fn audit_now(&self) -> Vec<AuditViolation> {
        self.deep_audit(self.now).1
    }

    /// The whole-network conservation checks (cadenced by
    /// [`Hooks::deep_due`]): phit conservation, per-link credit
    /// conservation, occupancy bounds and the escape-ring bubble
    /// invariant. Returns the number of invariants evaluated and the
    /// ones that failed.
    // lint:allow(H001, audit-only sweep; runs at audit intervals and never under NoHooks) lint:allow(P002, audit record fields bounded by fabric dimensions)
    fn deep_audit(&self, now: u64) -> (u64, Vec<AuditViolation>) {
        let size = self.fab.cfg().packet_size as u64;
        let mut checks = 0u64;
        let mut viols: Vec<AuditViolation> = Vec::new();

        // Phit conservation: generated = delivered + inside the system.
        checks += 1;
        let generated = self.stats.generated_packets * size;
        let delivered = self.stats.delivered_phits;
        let in_system = self.phits_in_system();
        if generated != delivered + in_system {
            viols.push(AuditViolation::PhitImbalance {
                cycle: now,
                generated,
                delivered,
                in_system,
            });
        }

        // Credit conservation per (link, VC), and occupancy ≤ capacity.
        let backlog = self.wheel.backlog();
        for ridx in 0..self.fab.topo().num_routers() {
            let router = RouterId::from(ridx);
            for (port, link) in self.fab.out_links(router).iter().enumerate() {
                if link.kind == PortKind::Node {
                    continue;
                }
                // Replay-buffer occupancy must respect the window the
                // allocator gates grants on.
                if let Some(l) = &self.llr {
                    checks += 1;
                    let occ = l.tx_occupancy(ridx, port);
                    if occ > l.window() {
                        viols.push(AuditViolation::ReplayOverflow {
                            cycle: now,
                            router: ridx as u32,
                            port: port as u16,
                            occupancy: occ as u32,
                            window: l.window() as u32,
                        });
                    }
                }
                for (vcn, lane) in link.lanes().enumerate() {
                    checks += 1;
                    let sum = self.credit_sum(&backlog, ridx, port, vcn);
                    let capacity = self.fab.lane_caps()[lane];
                    if sum != capacity {
                        viols.push(AuditViolation::CreditLeak {
                            cycle: now,
                            router: ridx as u32,
                            port: port as u16,
                            vc: vcn as u8,
                            sum,
                            capacity,
                        });
                    }
                }
            }
            for (port, desc) in self.fab.in_descs(router).iter().enumerate() {
                for (vcn, slot) in desc.slots().enumerate() {
                    checks += 1;
                    let occupancy = self.arena.fifos.occupancy(slot);
                    let capacity = self.fab.slot_caps()[slot];
                    if occupancy > capacity {
                        viols.push(AuditViolation::OccupancyOverCapacity {
                            cycle: now,
                            router: ridx as u32,
                            port: port as u16,
                            vc: vcn as u8,
                            occupancy,
                            capacity,
                        });
                    }
                }
            }
        }

        // Escape-ring bubble: the free space summed over each live
        // ring's lanes must never drop below one packet (§IV-C). All
        // credit motion is whole-packet, so a packet-sized total means a
        // packet-sized hole at some router.
        for j in 0..self.fab.rings().len() {
            if !self.faults.ring_up(j) {
                continue; // a dead ring is drained by emergency exits
            }
            checks += 1;
            let mut free = 0u64;
            for ridx in 0..self.fab.topo().num_routers() {
                let router = RouterId::from(ridx);
                let esc = self.fab.escapes(router)[j];
                let lanes = self.fab.out_link(router, esc.out_port as usize).lanes();
                for lane in esc.base_vc..esc.base_vc + esc.num_vcs {
                    free += u64::from(self.arena.credits[lanes.start + lane as usize]);
                    free += backlog
                        .credits(ridx, esc.out_port as usize)
                        .iter()
                        .filter(|&&(_, _, v, _)| v == lane)
                        .map(|&(_, _, _, p)| u64::from(p))
                        .sum::<u64>();
                }
            }
            if free < size {
                viols.push(AuditViolation::BubbleLost {
                    cycle: now,
                    ring: j,
                    free_phits: free,
                    required: size,
                });
            }
        }

        // Throttle token conservation: refills are cap-clamped and
        // counted exactly, debits charge the full packet price, so
        // granted − consumed must equal the summed bucket levels as an
        // identity (stated addition-only to stay underflow-safe even
        // when a seeded bypass makes `consumed` overshoot).
        if let Some(cm) = &self.cm {
            checks += 1;
            let levels: u64 = cm.tokens.iter().map(|&t| u64::from(t)).sum();
            if self.stats.cm_tokens_granted != self.stats.cm_tokens_consumed + levels {
                viols.push(AuditViolation::ThrottleTokenLaw {
                    cycle: now,
                    granted: self.stats.cm_tokens_granted,
                    consumed: self.stats.cm_tokens_consumed,
                    levels,
                });
            }
            // The sensor's incremental free-credit sums against a fresh
            // scan: drift means a credit moved through a path the three
            // mirrored mutation sites do not cover, and every throttle
            // decision after the divergence point is suspect.
            for ridx in 0..self.fab.topo().num_routers() {
                checks += 1;
                let actual: u64 = self.arena.credits[self.fab.router_lanes(RouterId::from(ridx))]
                    .iter()
                    .map(|&c| u64::from(c))
                    .sum();
                if cm.free[ridx] != actual {
                    viols.push(AuditViolation::CmSensorDrift {
                        cycle: now,
                        router: ridx as u32,
                        tracked: cm.free[ridx],
                        actual,
                    });
                }
            }
        }

        // The occupancy index against a recount: drift means a FIFO or
        // source queue changed through a path that does not update it.
        checks += 1;
        if self.occ != Occupancy::recount(&self.fab, &self.arena.fifos, &self.src_q) {
            viols.push(AuditViolation::OccupancyDrift { cycle: now });
        }

        (checks, viols)
    }

    /// Left-hand side of the credit-conservation law for VC `vc` of the
    /// link out of (`ridx`, `port`): sender credits, receiver occupancy,
    /// space reserved by packets in flight and credits in flight, summed.
    /// Must equal the downstream buffer capacity. Under LLR the in-flight
    /// term is the undelivered replay entries: a credit taken at first
    /// transmission stays reserved across drops, corruptions and retries
    /// until the receiver accepts the packet into its buffer (the copies
    /// on the wire are phantoms).
    // lint:allow(P002, packet_size is validated at config build and fits u32)
    fn credit_sum(&self, backlog: &Backlog, ridx: usize, port: usize, vc: usize) -> u32 {
        let size = self.fab.cfg().packet_size as u32;
        let link = self.fab.out_link(RouterId::from(ridx), port);
        let (dst_router, dst_port) = (link.dst_router as usize, link.dst_port as usize);
        let reserved = match &self.llr {
            Some(l) => l
                .undelivered(ridx, port, dst_router, dst_port)
                .filter(|e| e.out_vc as usize == vc)
                .count(),
            None => backlog
                .arrivals(dst_router, dst_port)
                .iter()
                .filter(|&&(_, _, v, _)| v as usize == vc)
                .count(),
        };
        let inflight_credits: u32 = backlog
            .credits(ridx, port)
            .iter()
            .filter(|&&(_, _, v, _)| v as usize == vc)
            .map(|&(_, _, _, p)| p)
            .sum();
        let dst_slot = self
            .fab
            .in_slot(RouterId::new(link.dst_router), dst_port, vc);
        self.arena.credits[self.fab.out_lane(RouterId::from(ridx), port, vc)]
            + self.arena.fifos.occupancy(dst_slot)
            + reserved as u32 * size
            + inflight_credits
    }

    /// The `CreditInstant` seam body: add the returned phits to the
    /// upstream output's credit counter immediately (no link latency,
    /// no ledger). Deliberately a defect — the §IV-style credit loop is
    /// what the commutativity certifier must prove schedule-blind, and
    /// this write is visible to any shard scheduled after the caller.
    fn land_credit_instantly(&mut self, router: u32, port: u16, vc: u8, phits: u32) {
        self.arena.credits[self
            .fab
            .out_lane(RouterId::new(router), port as usize, vc as usize)] += phits;
        if let Some(cm) = self.cm.as_mut() {
            cm.free[router as usize] += u64::from(phits);
        }
    }

    // lint:allow(P002, vc/router ids and latencies bounded by fabric dimensions and run length) lint:allow(P001, canonical grants are eject-only by construction in route_and_allocate) lint:allow(R003, last_grant and last_delivery are monotone cycle stamps; cross-worker merge is max)
    fn execute_grant(&mut self, ridx: usize, in_port: usize, vc: usize, req: Request, now: u64) {
        let size = self.fab.cfg().packet_size as u32;
        let router = RouterId::from(ridx);
        // The credit return travels through the effects ledger — always,
        // unless the `CreditInstant` race seam is installed.
        let deferred = !self.hooks.instant_credits();
        // Dead outputs are filtered at request collection, so this
        // firing means a liveness change raced past the filter.
        self.hooks.check(
            || self.faults.link_up(ridx, req.out_port as usize),
            || AuditViolation::DeadPortGrant {
                cycle: now,
                router: ridx as u32,
                port: req.out_port,
            },
        );
        let (n_in, n_out) = (self.fab.n_in(), self.fab.n_out());
        let out_port = req.out_port as usize;
        let mut pkt = self.arena.fifos.pop(self.fab.in_slot(router, in_port, vc));
        self.occ.router_pkts[ridx] -= 1;
        self.occ.port_pkts[ridx * n_in + in_port] -= 1;
        pkt.wait = 0; // the head-blocked counter restarts at the next hop
        self.arena.in_busy[ridx * n_in + in_port] = now + u64::from(size);
        // LRS stamps (0 = never)
        self.arena.vc_served_at[self.fab.in_slot(router, in_port, vc)] = now + 1;
        self.arena.in_served_at[(ridx * n_out + out_port) * n_in + in_port] = now + 1;
        self.arena.out_busy[ridx * n_out + out_port] = now + u64::from(size);
        self.stats.last_grant = now;
        self.router_last_grant[ridx] = now;
        if let Some(util) = self.link_phits.as_mut() {
            util[ridx * n_out + out_port] += u64::from(size);
        }

        // Credit return to the upstream router feeding this input.
        let desc = *self.fab.in_desc(router, in_port);
        if desc.up_router != u32::MAX && deferred {
            self.effects.push(Effect::Credit {
                at: now + u64::from(desc.latency),
                credit: Credit {
                    router: desc.up_router,
                    port: desc.up_port,
                    vc: vc as u8,
                    phits: size,
                },
            });
        }

        // Header-flag and ring bookkeeping (§IV-A, §IV-C). A ring
        // transition must find the packet in the matching membership
        // state: off the ring to enter, on it to advance or exit.
        let was_on_ring = pkt.on_ring();
        let packet = pkt.id;
        let membership = |transition| AuditViolation::RingMembership {
            cycle: now,
            router: ridx as u32,
            transition,
            packet,
            on_ring: was_on_ring,
        };
        match req.kind {
            RequestKind::Minimal | RequestKind::Eject => {}
            RequestKind::MisrouteLocal => {
                pkt.set(FLAG_LOCAL_MISROUTED);
                self.stats.local_misroutes += 1;
            }
            RequestKind::MisrouteGlobal => {
                pkt.set(FLAG_GLOBAL_MISROUTED);
                self.stats.global_misroutes += 1;
            }
            RequestKind::RingEnter => {
                self.hooks.check(|| !was_on_ring, || membership("enter"));
                // §IV-C bubble, re-checked per grant: every ring entry
                // must see two packets of downstream room. The deep
                // `BubbleLost` check only notices once the whole ring
                // has wedged; this fast check catches the first eroded
                // admission. Credits are still undecremented here.
                let credits =
                    self.arena.credits[self.fab.out_lane(router, out_port, req.out_vc as usize)];
                self.hooks.check(
                    || credits >= 2 * size,
                    || AuditViolation::RingEnterNoBubble {
                        cycle: now,
                        router: ridx as u32,
                        port: req.out_port,
                        vc: req.out_vc,
                        credits,
                        required: 2 * size,
                    },
                );
                pkt.set(FLAG_ON_RING);
                self.stats.ring_entries += 1;
            }
            RequestKind::RingAdvance => {
                self.hooks.check(|| was_on_ring, || membership("advance"));
                self.stats.ring_advances += 1;
            }
            RequestKind::RingExit => {
                // `ring_exits_left` may already be 0 for an *emergency*
                // exit from a ring that died under the packet (§VII);
                // normal exits are budgeted by the policy.
                self.hooks.check(|| was_on_ring, || membership("exit"));
                pkt.clear(FLAG_ON_RING);
                pkt.ring_exits_left = pkt.ring_exits_left.saturating_sub(1);
                self.stats.ring_exits += 1;
            }
        }

        let link = *self.fab.out_link(router, out_port);
        match req.kind {
            RequestKind::Eject => {
                debug_assert_eq!(link.kind, PortKind::Node);
                debug_assert_eq!(
                    self.fab.topo().router_of_node(pkt.dst),
                    router,
                    "ejecting at the wrong router"
                );
                // §IV-A path-length ceiling: without escape-ring travel,
                // no mechanism exceeds 6 local + 2 global hops. (Each
                // ring exit restarts a minimal segment, so ring users
                // are exempt, and so is any network that has seen a
                // fault — routing around failures legally exceeds the
                // ceiling.)
                debug_assert!(
                    self.faults_ever
                        || pkt.ring_hops > 0
                        || (pkt.local_hops <= 6 && pkt.global_hops <= 2),
                    "canonical path too long: {} local / {} global hops (pkt {})",
                    pkt.local_hops,
                    pkt.global_hops,
                    pkt.id
                );
                let latency = now + u64::from(size) - pkt.injected_at;
                self.stats.delivered_packets += 1;
                self.stats.delivered_phits += u64::from(size);
                self.delivered_per_src[pkt.src.idx()] += 1;
                self.stats.latency_sum += latency;
                self.stats.hop_sum += u64::from(pkt.local_hops)
                    + u64::from(pkt.global_hops)
                    + u64::from(pkt.ring_hops);
                self.stats.last_delivery = now;
                if was_on_ring {
                    self.stats.ring_deliveries += 1;
                }
                if self.delivered_log.is_some() {
                    // Deferred: pushed in route-phase shard order here,
                    // drained *sorted* into `delivered_log` by
                    // `commit_effects` — the log itself must not depend
                    // on the shard schedule.
                    self.delivered_now.push((pkt.injected_at, latency as u32));
                }
                // End-to-end exactly-once accounting: the link layer
                // dedups spurious retransmissions at every hop, so a
                // second ejection of one id means the protocol leaked.
                if let Some(llr) = self.llr.as_mut() {
                    // lint:allow(R001, mark_delivered touches the global exactly-once dedup set; keyed by packet id and mergeable as set union)
                    let duplicate = llr.mark_delivered(pkt.id);
                    self.stats.duplicate_deliveries += u64::from(duplicate);
                    self.hooks.check(
                        || !duplicate,
                        || AuditViolation::DuplicateDelivery {
                            cycle: now,
                            router: ridx as u32,
                            packet: pkt.id,
                        },
                    );
                }
            }
            kind => {
                // Saturating: a packet trapped on the near side of a
                // partition can circulate far past the u8 range; the
                // §IV-A ceiling assert above still polices healthy runs.
                if matches!(kind, RequestKind::RingEnter | RequestKind::RingAdvance) {
                    // Ring hops do not advance the canonical hop ladder.
                    pkt.ring_hops = pkt.ring_hops.saturating_add(1);
                } else {
                    match link.kind {
                        PortKind::Local => pkt.local_hops = pkt.local_hops.saturating_add(1),
                        PortKind::Global => pkt.global_hops = pkt.global_hops.saturating_add(1),
                        _ => unreachable!("non-eject canonical grant"),
                    }
                }
                self.arena.credits[self.fab.out_lane(router, out_port, req.out_vc as usize)] -=
                    size;
                if let Some(cm) = self.cm.as_mut() {
                    cm.free[ridx] -= u64::from(size);
                }
                self.transmit(ridx, req, link, pkt, now);
            }
        }

        // Seeded race defect (`EngineMutation::CreditInstant`): the
        // credit lands on the upstream shard right now, mid-route-phase,
        // instead of riding the ledger. Whether the upstream router's
        // own allocation turn this cycle sees it depends on the shard
        // schedule — the divergence `ofar-race` exists to catch.
        if desc.up_router != u32::MAX && !deferred {
            self.land_credit_instantly(desc.up_router, desc.up_port, vc as u8, size);
        }
    }

    /// Put a granted packet on the wire. Lossless path: defer the
    /// arrival. LLR path: sample the transfer's fate under the link's
    /// effective error rate (one-shot injected faults first), record the
    /// replay entry, and defer the arrival unless the wire ate it — a
    /// dropped transfer leaves only the replay copy, recovered by the
    /// retransmit timeout. The credit was already taken by the caller
    /// and is not taken again on retries.
    // lint:allow(P002, packet_size is validated at config build and fits u32) lint:allow(R001, sample_fate advances the one shared fate rng; the parallel plan splits it into per-link streams) lint:allow(R003, take_pending consumes one-shot transient fault injections; drained under the same serial order the fault plan fixes)
    fn transmit(
        &mut self,
        ridx: usize,
        req: Request,
        link: crate::fabric::OutLink,
        pkt: Packet,
        now: u64,
    ) {
        if let Some(llr) = self.llr.as_mut() {
            let size = self.fab.cfg().packet_size as u32;
            let (a, b) = (RouterId::from(ridx), RouterId::new(link.dst_router));
            let fate = match self.faults.take_pending(a, b) {
                Some(f) => f,
                None => {
                    let ber = self.faults.link_ber(a, b, self.fab.cfg().ber);
                    llr.sample_fate(ber, size)
                }
            };
            let (seq, wire_crc) =
                llr.record_send(ridx, req.out_port as usize, req.out_vc, pkt, now, fate);
            if fate == Fate::Drop {
                self.stats.llr_wire_drops += 1;
                return;
            }
            // The receive side only reads wire state when the arrival
            // lands (`now + latency`, next cycle at the earliest), so
            // the transfer is committed with the other cross-router
            // effects instead of written into the destination's queue
            // from this router's allocation turn.
            self.effects.push(Effect::Wire {
                router: link.dst_router,
                port: link.dst_port,
                seq,
                wire_crc,
            });
        }
        self.effects.push(Effect::Arrival {
            at: now + u64::from(link.latency),
            arrival: Arrival {
                router: link.dst_router,
                port: link.dst_port,
                vc: req.out_vc,
                pkt,
            },
        });
    }

    /// LLR timer phase (after event delivery, before injection and
    /// allocation): per directed link, process the acks and nacks that
    /// arrived this cycle, expire overdue transfers, and issue at most
    /// one retransmission per link per idle wire — or escalate a link
    /// whose oldest lost transfer has exhausted the retry budget to the
    /// §VII fail-stop path, where degraded routing takes over.
    // lint:allow(P002, packet_size is validated at config build and fits u32) lint:allow(H001, Vec::new does not allocate; pushes happen only on link-death events) lint:allow(P001, runs only when LLR is enabled; self.llr checked by the caller)
    fn llr_phase(&mut self, now: u64) {
        let size = self.fab.cfg().packet_size as u32;
        let slack = self.fab.cfg().llr_timeout_slack;
        let backoff_cap = self.fab.cfg().llr_backoff_cap;
        let budget = self.fab.cfg().llr_retry_budget;
        let n_out = self.fab.n_out();
        let mut escalate: Vec<(RouterId, RouterId)> = Vec::new();
        for ridx in 0..self.fab.topo().num_routers() {
            let rid = RouterId::from(ridx);
            for port in 0..n_out {
                let link = *self.fab.out_link(rid, port);
                if link.kind == PortKind::Node {
                    continue;
                }
                let llr = self.llr.as_mut().expect("caller checked");
                self.stats.llr_nacks += llr.drain_acks(ridx, port, now);
                if llr.tx_occupancy(ridx, port) == 0 {
                    continue;
                }
                self.stats.llr_timeouts += llr.expire(
                    ridx,
                    port,
                    now,
                    u64::from(link.latency),
                    u64::from(size),
                    slack,
                    backoff_cap,
                );
                if !self.faults.link_up(ridx, port) {
                    continue; // flushed on failure; nothing to replay
                }
                let Some((seq, retries)) = llr.next_retransmit(ridx, port) else {
                    continue;
                };
                if retries >= budget {
                    escalate.push((rid, RouterId::new(link.dst_router)));
                    continue;
                }
                if self.arena.out_busy[ridx * n_out + port] > now {
                    continue; // the wire is streaming; retry next cycle
                }
                // Retransmissions occupy the wire ahead of new grants:
                // the allocator sees the busy time and naturally defers.
                self.arena.out_busy[ridx * n_out + port] = now + u64::from(size);
                let b = RouterId::new(link.dst_router);
                let fate = match self.faults.take_pending(rid, b) {
                    Some(f) => f,
                    None => {
                        let ber = self.faults.link_ber(rid, b, self.fab.cfg().ber);
                        llr.sample_fate(ber, size)
                    }
                };
                let (out_vc, pkt, wire_crc, fate) =
                    llr.record_retransmit(ridx, port, seq, now, fate);
                self.stats.llr_retransmits += 1;
                if let Some(util) = self.link_phits.as_mut() {
                    util[ridx * n_out + port] += u64::from(size);
                }
                if fate == Fate::Drop {
                    self.stats.llr_wire_drops += 1;
                    continue;
                }
                llr.push_wire(
                    link.dst_router as usize,
                    link.dst_port as usize,
                    seq,
                    wire_crc,
                );
                self.wheel.file_arrival(
                    now + u64::from(link.latency),
                    Arrival {
                        router: link.dst_router,
                        port: link.dst_port,
                        vc: out_vc,
                        pkt,
                    },
                );
            }
        }
        for (a, b) in escalate {
            // Failing one direction fails the full-duplex pair, so a
            // simultaneous escalation of the reverse direction is a
            // no-op by then.
            if self.faults.topo_link_up(a, b) {
                self.stats.llr_escalations += 1;
                self.apply_fault(FaultKind::FailLink(a, b));
            }
        }
    }

    // ----- invariants (used by the test suites) --------------------------

    /// Total phits currently inside the system (source queues, buffers
    /// and links). Delivered + inside must equal generated at all times
    /// (phit conservation).
    pub fn phits_in_system(&self) -> u64 {
        let size = self.fab.cfg().packet_size as u64;
        let src: u64 = self.src_q.iter().map(|q| q.len() as u64 * size).sum();
        let queued: u32 = self.arena.fifos.queued.iter().sum();
        let buffered = u64::from(queued) * size;
        if let Some(llr) = &self.llr {
            // Under LLR, a copy in flight on a link is a phantom: the
            // canonical copy of a packet the receiver has not accepted
            // is its sender-side replay entry (counting both would
            // double-count every transfer, and a dropped transfer would
            // vanish). Accepted packets are counted by FIFO occupancy.
            return src + buffered + llr.undelivered_phits(&self.fab, size);
        }
        src + buffered + self.wheel.arrivals().count() as u64 * size
    }
}

// Checkpoint/restart: the STATE section codec (see crate::snapshot for
// the file format).
mod state;

#[cfg(test)]
mod tests {
    use super::{cm_inv, CM_INV_SHIFT};

    /// The CM sensor's multiply-shift must agree with true integer
    /// division over the entire feasible operand range: every divisor
    /// below the `rebuild_free` bound (`cap_sum < 2^17`), numerators at
    /// the ends, middle, and around every multiple-of-`d` step where
    /// `floor` changes value.
    #[test]
    fn cm_reciprocal_division_is_exact() {
        assert_eq!(cm_inv(0), 0);
        for d in (1u64..1 << 17).chain([(1 << 17) - 1]) {
            let m = u128::from(cm_inv(d));
            for used in [
                0,
                1,
                2,
                d / 3,
                d / 2,
                d.saturating_sub(2),
                d.saturating_sub(1),
                d,
            ] {
                let n = used << 16;
                let exact = n / d;
                let magic = ((u128::from(n) * m) >> CM_INV_SHIFT) as u64;
                assert_eq!(magic, exact, "d={d} used={used}");
                // Off-by-one probes around the quotient step.
                for n in [n.saturating_sub(1), n + 1] {
                    let magic = ((u128::from(n) * m) >> CM_INV_SHIFT) as u64;
                    assert_eq!(magic, n / d, "d={d} n={n}");
                }
            }
        }
    }
}
