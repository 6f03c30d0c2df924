//! The network simulator: the state of one run and its per-cycle loop.
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
//!
//! This file holds [`Network`], its constructors and accessors, and
//! [`Network::step`] — eight declared phases in order. What each phase
//! does lives in the child module named after it ([`Phase::name`];
//! `policy_end` is one call and has none), as inherent methods of
//! `Network`; `diagnose` and `state` hold what runs between steps.

use crate::arena::{Arena, Fresh, SrcQueues};
use crate::audit::AuditReport;
use crate::config::{PastLastCycle, SimConfig, LAST_CYCLE};
use crate::fabric::Fabric;
use crate::fault::{FaultPlan, FaultState};
use crate::hooks::{Hooks, NoHooks, Phase, Tap};
use crate::llr::Llr;
use crate::occupancy::Occupancy;
use crate::packet::Request;
use crate::policy::{NetSnapshot, Policy};
use crate::stats::Stats;
use crate::wheel::Wheel;
use cm_sense::CmState;
use ofar_topology::{NodeId, RouterId};

mod audit;
mod cm_sense;
mod deliver;
mod diagnose;
mod fault_apply;
mod inject;
mod llr_timers;
mod route;
// Checkpoint/restart: the STATE section codec (see crate::snapshot for
// the file format).
mod state;

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
    /// here, which is how saturation becomes visible in latency curves):
    /// one FIFO per node, the head `on_inject` re-offers every cycle by
    /// value, the packets behind it kept as the fresh ones they are.
    src_q: SrcQueues,
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
    /// path (see [`crate::llr`]). Enabled by a nonzero `cfg.ber` or a
    /// transient fault plan.
    llr: Option<Llr>,
    /// Congestion-management throttle state; `Some` iff `cfg.cm_enabled`
    /// (per-router occupancy estimators + per-NIC token buckets).
    cm: Option<CmState>,
    /// Packets delivered per source node (Jain fairness / per-source
    /// histograms; one counter bump per delivery, always on).
    delivered_per_src: Vec<u64>,
    /// The instrumentation seam (see [`crate::hooks`]): invariant
    /// observation and mutation-testing perturbation, zero-sized and
    /// inert for [`NoHooks`]. Diagnostic harness state, deliberately
    /// outside simulation snapshots.
    hooks: H,
    // reusable scratch
    reqs: Vec<route::Kept>,
    grants: Vec<(u16, u8, Request)>,
    /// Per output, the allocator's best proposal of the current
    /// iteration; stale wherever that iteration proposed nothing.
    best_out: Vec<(u32, u32)>,
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
            wheel: Wheel::new(0),
            occ: Occupancy::empty(nr, n_in, nodes),
            arena,
            policy,
            now: 0,
            next_id: 0,
            src_q: SrcQueues::new(nodes, Fresh::of(&fab)),
            inj_busy: vec![0; nodes],
            stats,
            delivered_log: None,
            faults: FaultState::new(&fab),
            plan: FaultPlan::new(),
            plan_cursor: 0,
            faults_ever: false,
            router_last_grant: vec![0; nr],
            llr,
            cm,
            delivered_per_src: vec![0; nodes],
            hooks,
            reqs: Vec::with_capacity(n_in * 4),
            grants: Vec::with_capacity(n_in),
            best_out: vec![(0, 0); n_out],
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
        self.src_q.queued().len()
    }

    /// Packets waiting in the source queue of `node`.
    #[inline]
    pub fn source_queue_len(&self, node: NodeId) -> usize {
        self.src_q.queued()[node.idx()] as usize
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

    /// Start recording one `(generation cycle, latency)` entry per
    /// delivery: the exact log tests check a [`Recorder`](crate::Recorder)
    /// against. No runner reads it; Fig. 6 reads the recorder's series.
    pub fn enable_delivery_log(&mut self) {
        self.delivered_log = Some(Vec::new());
    }

    /// Take the recorded delivery log, and stop recording: the network
    /// is then as one that never logged (its snapshot holds no log).
    pub fn take_delivery_log(&mut self) -> Vec<(u64, u32)> {
        self.delivered_log.take().unwrap_or_default()
    }

    /// The instrumentation this network was built with (e.g. to read
    /// its [`Hooks::recorder`] after a run).
    #[inline]
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// [`Self::hooks`], mutable (e.g. to read a phase timer out after a
    /// run).
    #[inline]
    pub fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    /// The hooks, giving up the network: how a runner hands its caller's
    /// hooks back with its result.
    pub fn into_hooks(self) -> H {
        self.hooks
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

    /// The current fault state (liveness of links, routers and rings).
    #[inline]
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    // ----- traffic entry ------------------------------------------------

    /// Generate a packet at `src` destined to `dst`, stamped with the
    /// current cycle. The packet waits in the node's unbounded source
    /// queue until the injection buffer accepts it.
    pub fn generate(&mut self, src: NodeId, dst: NodeId) {
        debug_assert_ne!(src, dst, "self-traffic is not meaningful");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`step` and the snapshot decoder keep `now` within LAST_CYCLE = u32::MAX"
        )]
        let now = self.now as u32;
        let pkt = Fresh::of(&self.fab).packet(self.next_id, now, src, dst);
        self.next_id += 1;
        self.stats.generated_packets += 1;
        self.src_q.push(src.idx(), pkt);
        self.occ.src_pending[src.idx() / 64] |= 1 << (src.idx() % 64);
    }

    /// Advance the simulation by one cycle.
    ///
    /// The body is eight phases, each opened by one [`Tap::Phase`]; the
    /// other [`Tap`]s come from inside `llr_timers` and `route`.
    /// `inject` and `route` walk the nodes and the routers in
    /// index order; a `route` turn writes its own router's state, and
    /// files what lands elsewhere (arrivals, credits, LLR wire
    /// transfers) in place, stamped `now + 1` or later, so no phase of
    /// the current cycle reads it.
    ///
    /// # Panics
    /// At [`LAST_CYCLE`]: the cycle's least-recently-served stamps would
    /// not fit in 32 bits. Every runner and input surface refuses such a
    /// run before it starts ([`PastLastCycle`]); this is the backstop.
    pub fn step(&mut self) {
        let now = self.now;
        assert!(
            now < LAST_CYCLE,
            "{}",
            PastLastCycle {
                from: now,
                cycles: 1
            }
        );
        self.hooks.tap(Tap::Phase(Phase::FaultApply));
        // Apply scheduled fault transitions due at (or before) this
        // cycle, in plan order — before arrivals so the cycle already
        // sees the new liveness.
        while self.plan_cursor < self.plan.events().len()
            && self.plan.events()[self.plan_cursor].at <= now
        {
            let kind = self.plan.events()[self.plan_cursor].kind;
            self.plan_cursor += 1;
            self.apply_fault(kind);
        }
        // Serial: draining the wheel's bucket is O(events landing), and
        // those land on arbitrary routers.
        self.hooks.tap(Tap::Phase(Phase::Deliver));
        self.deliver_events(now);
        self.hooks.tap(Tap::Phase(Phase::LlrTimers));
        if self.llr.is_some() {
            self.llr_phase(now);
        }
        self.hooks.tap(Tap::Phase(Phase::CmSense));
        // CM sensing and refill sweep every router's estimator and
        // every NIC's bucket from one loop — inherently cross-shard, so
        // it runs as its own commit phase rather than inside the
        // node-parallel injection phase (it used to be the first
        // statement of `inject`, so the order is unchanged).
        if self.cm.is_some() {
            self.cm_sense_and_refill();
        }
        self.hooks.tap(Tap::Phase(Phase::Inject));
        self.inject(now);
        self.hooks.tap(Tap::Phase(Phase::Route));
        let logged = self.delivered_log.as_ref().map_or(0, Vec::len);
        for r in 0..self.fab.topo().num_routers() {
            // A router with nothing buffered has no head to route.
            if self.occ.port_mask[r] != 0 {
                self.route_and_allocate(r, now);
            }
        }
        // The grants logged this cycle's deliveries in router order; the
        // log keeps each cycle's entries sorted (they are value tuples,
        // so equal keys are identical entries and the tie-break is
        // immaterial).
        if let Some(log) = self.delivered_log.as_mut() {
            log[logged..].sort_unstable();
        }
        self.hooks.tap(Tap::Phase(Phase::Audit));
        if self.hooks.deep_due(now) {
            let (checks, violations) = self.deep_audit(now);
            self.hooks.deep_report(checks, violations);
        }
        self.hooks.tap(Tap::Phase(Phase::PolicyEnd));
        let snap = NetSnapshot::new(&self.fab, now, &self.arena.credits, &self.faults);
        self.policy.end_cycle(&snap);
        self.now = now + 1;
    }

    /// Advance by `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }
}
