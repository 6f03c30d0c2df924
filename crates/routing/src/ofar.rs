//! OFAR: On-the-Fly Adaptive Routing (§IV) — the paper's contribution.
//!
//! OFAR decouples routing from deadlock avoidance:
//!
//! 1. **In-transit misrouting** (§IV-A): any router may divert a packet
//!    off its minimal path, instead of freezing the min/Valiant decision
//!    at injection. Two header flags bound the diversions — at most one
//!    global misroute per packet and one local misroute per group — so
//!    the longest canonical path is 8 hops (2 global + 6 local).
//! 2. **Contention-aware thresholds** (§IV-B): misrouting is considered
//!    only when the occupancy `Q_min` of the minimal output reaches
//!    `Th_min` *and* the minimal port is unavailable; the candidate
//!    non-minimal ports must satisfy `Q_nonmin ≤ Th_nonmin`. All
//!    information is local to the current router (credits) — no remote
//!    sensing.
//! 3. **Escape subnetwork** (§IV-C): a Hamiltonian ring with bubble flow
//!    control absorbs would-be deadlocks; packets enter it only as a last
//!    resort and leave as soon as a minimal output is available, at most
//!    `max_ring_exits` times (livelock bound).
//!
//! The *starvation rule* of §IV-A is reproduced exactly: in the source
//! group, packets still in injection queues misroute **globally** (saving
//! the first local hop), while packets in local queues misroute
//! **locally first, then globally** — otherwise the `h − 1` non-minimal
//! global queues of the hot router would be monopolized by through
//! traffic and its own nodes would starve.
//!
//! `OFAR-L` (the dissection model of §IV-A/§VI) is this policy with
//! local misrouting disabled.

use crate::common::{group_pos, hop_to_request, injection_vc, live_minimal_hop, VcLadder};
use crate::probe::ProbeState;
use crate::state::RngLanes;
use ofar_engine::snapshot::{Dec, Enc};
use ofar_engine::{
    InputCtx, Packet, Policy, PortKind, Request, RequestKind, RouterView, SimConfig,
    FLAG_GLOBAL_MISROUTED, FLAG_LOCAL_MISROUTED,
};
use ofar_topology::MinimalHop;
use rand::Rng;

/// The misroute threshold pair of §IV-B.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MisrouteThreshold {
    /// Static thresholds, e.g. `Th_min = 100%`, `Th_nonmin = 40%`:
    /// misroute only when the minimal path has no credits left, to an
    /// output at most 40% full.
    Static {
        /// Minimum `Q_min` before misrouting is considered.
        th_min: f64,
        /// Maximum occupancy of an eligible non-minimal output.
        th_nonmin: f64,
    },
    /// Variable threshold, the paper's evaluated default:
    /// `Th_min = 0`, `Th_nonmin = factor × Q_min` (§V uses 0.9).
    Variable {
        /// Multiplier on `Q_min`.
        factor: f64,
    },
}

impl MisrouteThreshold {
    /// The default variable threshold. The paper tuned the factor
    /// empirically for its router model and landed at 0.9 (§V); with
    /// this engine's whole-packet credit quantization the same sweep
    /// (see the `ablation_thresholds` bench) lands at 0.5 — the paper's
    /// criterion, "a reasonable trade-off between the performance in
    /// adversarial and uniform traffic patterns", applied to this
    /// microarchitecture.
    pub fn paper_default() -> Self {
        MisrouteThreshold::Variable { factor: 0.5 }
    }

    /// Resolve to `(Th_min, Th_nonmin)` given the observed `Q_min`.
    #[inline]
    pub fn resolve(&self, q_min: f64) -> (f64, f64) {
        match *self {
            MisrouteThreshold::Static { th_min, th_nonmin } => (th_min, th_nonmin),
            MisrouteThreshold::Variable { factor } => (0.0, factor * q_min),
        }
    }

    /// Whether a candidate non-minimal queue with occupancy `occ` is
    /// admitted given the observed `Q_min`.
    ///
    /// The comparison strictness matters: the variable policy admits
    /// "those queues that have **less than** `factor` times the
    /// occupancy of the minimal one" (§V) — strictly less, so when the
    /// minimal port is merely busy with `Q_min = 0` *nothing* qualifies
    /// and benign traffic is not misrouted. The static policy admits
    /// outputs with "at least `1 − Th_nonmin` of its credit count
    /// available", an inclusive bound.
    #[inline]
    pub fn admits(&self, occ: f64, q_min: f64) -> bool {
        match *self {
            MisrouteThreshold::Static { th_nonmin, .. } => occ <= th_nonmin,
            MisrouteThreshold::Variable { factor } => occ < factor * q_min,
        }
    }
}

/// Congestion-management protection of the escape ring: whether (and at
/// what sensed occupancy) ring entry is deferred beyond the plain
/// patience window. §VI shows the ring is a shared low-bandwidth
/// resource — past saturation it turns from emergency escape into a
/// congestion sink unless admission is protected.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum RingGuard {
    /// Follow the engine configuration: guard at
    /// [`RING_GUARD_DEFAULT`] when `SimConfig::cm_enabled`, off
    /// otherwise.
    #[default]
    Auto,
    /// Never guard (pre-CM behavior; also the `RingAdmitAlways`
    /// mutation-testing defect).
    Off,
    /// Always guard at this sensed-ring-occupancy threshold in `(0, 1]`.
    Threshold(f64),
}

/// Sensed-ring-occupancy threshold used by [`RingGuard::Auto`] when the
/// congestion-management layer is enabled.
///
/// Calibrated against the sensor, not picked as an abstract fraction:
/// `RouterView::sensed_ring_occupancy` aggregates this router's escape
/// output credits over all ring VCs, so at the paper h=2 configuration
/// (three 32-phit ring VCs, 8-phit packets) a single queued packet
/// senses as ≈0.08 and the bubble precondition itself keeps admissible
/// entries below ≈0.83. A threshold of 0.1 therefore means "defer while
/// more than one packet is already queued on this router's escape
/// output" — the highest signal the sensor can show at a moment when
/// entry is still admissible. Fractions like 0.75 are sensed only in
/// transients the bubble already blocks, making a guard there inert.
pub const RING_GUARD_DEFAULT: f64 = 0.1;

/// Extra head-blocked cycles a guarded packet waits past `ring_patience`
/// before the guard yields unconditionally. The bound keeps the §IV-C
/// liveness argument intact: entry is deferred, never denied, and the
/// ranking potentials of the certificate still strictly decrease once
/// the grace expires (`wait` saturates at `u8::MAX`, which always
/// reaches the capped bound).
pub const RING_GUARD_GRACE: u16 = 100;

/// OFAR tunables.
#[derive(Clone, Copy, Debug)]
pub struct OfarConfig {
    /// Misroute threshold policy (§IV-B).
    pub threshold: MisrouteThreshold,
    /// Allow local misrouting (`false` reproduces OFAR-L).
    pub local_misroute: bool,
    /// Cycles a packet must have been blocked at a queue head before the
    /// escape ring is requested. §IV-C makes the ring a *last* resort —
    /// "only if a packet cannot advance": a momentarily full FIFO clears
    /// within a few packet times and a saturated output still serves its
    /// inputs in LRS turns, so only packets stuck well beyond one full
    /// arbitration rotation ask for the escape ring.
    pub ring_patience: u16,
    /// Escape-ring admission protection (congestion management).
    pub ring_guard: RingGuard,
}

impl OfarConfig {
    /// The full OFAR model with the paper's thresholds.
    pub fn base() -> Self {
        Self {
            threshold: MisrouteThreshold::paper_default(),
            local_misroute: true,
            ring_patience: 100,
            ring_guard: RingGuard::Auto,
        }
    }

    /// The OFAR-L dissection model (no local misrouting).
    pub fn without_local() -> Self {
        Self {
            local_misroute: false,
            ..Self::base()
        }
    }
}

/// The OFAR routing/flow-control mechanism.
#[derive(Clone, Debug)]
pub struct OfarPolicy {
    ladder: VcLadder,
    vcs_injection: usize,
    ofar: OfarConfig,
    /// Resolved ring-guard threshold (`None` = unguarded); derived from
    /// `ofar.ring_guard` and `cfg.cm_enabled` at construction.
    guard: Option<f64>,
    lanes: RngLanes,
    probe: ProbeState,
}

impl OfarPolicy {
    /// Full OFAR with paper-default thresholds.
    pub fn new(cfg: &SimConfig, seed: u64) -> Self {
        Self::with_config(cfg, seed, OfarConfig::base())
    }

    /// OFAR-L (no local misrouting).
    pub fn without_local(cfg: &SimConfig, seed: u64) -> Self {
        Self::with_config(cfg, seed, OfarConfig::without_local())
    }

    /// Explicit tunables (threshold ablations).
    pub fn with_config(cfg: &SimConfig, seed: u64, ofar: OfarConfig) -> Self {
        let guard = match ofar.ring_guard {
            RingGuard::Auto => cfg.cm_enabled.then_some(RING_GUARD_DEFAULT),
            RingGuard::Off => None,
            RingGuard::Threshold(th) => Some(th),
        };
        Self {
            ladder: VcLadder::new(cfg.vcs_local, cfg.vcs_global),
            vcs_injection: cfg.vcs_injection,
            ofar,
            guard,
            // "OFAR": misroute-candidate picks happen in `route`, one
            // reservoir stream per deciding router.
            lanes: RngLanes::new(seed ^ 0x0FA2, cfg.params.routers(), cfg.params.nodes()),
            probe: ProbeState::default(),
        }
    }

    /// Whether the escape-ring admission guard is active, and at what
    /// sensed-occupancy threshold.
    pub fn ring_guard_threshold(&self) -> Option<f64> {
        self.guard
    }

    /// §IV-C last-resort gate, congestion-management aware: true once
    /// the packet has been head-blocked past `ring_patience` — except
    /// that with the ring guard active and the local escape outputs
    /// sensed above the guard threshold, entry is deferred for up to
    /// [`RING_GUARD_GRACE`] further cycles. The deferral is *bounded*:
    /// past the grace (or once `wait` saturates) the packet enters
    /// regardless of occupancy, so the certificate's ranking potentials
    /// still strictly decrease and no packet is denied its escape.
    fn ring_entry_due(&self, view: &RouterView<'_>, wait: u8) -> bool {
        let patience = self.ofar.ring_patience.min(u16::from(u8::MAX));
        let w = u16::from(wait);
        if w < patience {
            return false;
        }
        if let Some(th) = self.guard {
            let grace_end = patience
                .saturating_add(RING_GUARD_GRACE)
                .min(u16::from(u8::MAX));
            if w < grace_end && view.sensed_ring_occupancy() > th {
                return false;
            }
        }
        true
    }

    /// Canonical VCs of an output port — excludes an embedded escape VC,
    /// which only ring traffic may use.
    fn canonical_vcs(&self, view: &RouterView<'_>, port: usize) -> usize {
        match view.fab.out_kind(port) {
            ofar_engine::PortKind::Local => self.ladder.vcs_local,
            ofar_engine::PortKind::Global => self.ladder.vcs_global,
            _ => 0,
        }
    }

    /// VC with most free space for a packet leaving the ring: ring exit
    /// is not part of the ladder, and OFAR does not need VC order for
    /// deadlock freedom, so any canonical VC with room maximizes the
    /// exit opportunities §IV-C calls for. Canonical traffic sticks to
    /// the position ladder (keeping the dependency graph mostly acyclic
    /// keeps deadlock — and hence ring traffic — rare, per [8]).
    fn exit_vc(&self, view: &RouterView<'_>, port: usize, preferred: usize) -> usize {
        if view.credits(port, preferred) >= view.packet_phits() {
            return preferred;
        }
        (0..self.canonical_vcs(view, port))
            .max_by_key(|&vc| view.credits(port, vc))
            .unwrap_or(preferred)
    }

    /// Pick a random eligible non-minimal output among `ports`,
    /// excluding `exclude`, requiring availability and the §IV-B
    /// occupancy condition (`admit` on the candidate's occupancy).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "candidate count bounded by the router radix, itself by SimConfig::validate's RadixTooLarge"
    )]
    fn pick_candidate(
        &mut self,
        view: &RouterView<'_>,
        ports: impl Iterator<Item = usize>,
        vc: usize,
        exclude: usize,
        admit: impl Fn(f64) -> bool,
    ) -> Option<usize> {
        // Probed (conformance checking): materialize the admissible list
        // — same filter as below — and take the pinned index. Only the
        // deciding pick of a call has a nonempty list (every earlier one
        // fell through empty), so the max is its size. The production
        // reservoir-sampling path below does not allocate.
        if let Some(pin) = self.probe.pin {
            let cands: Vec<usize> = ports
                .filter(|&port| {
                    port != exclude && view.available(port, vc) && admit(view.occupancy(port, vc))
                })
                .collect();
            self.probe.feedback.candidates = self.probe.feedback.candidates.max(cands.len() as u32);
            return (!cands.is_empty()).then(|| cands[pin.candidate % cands.len()]);
        }
        // Reservoir-sample uniformly without allocating, drawing from
        // the deciding router's own lane so the pick sequence is keyed
        // by the shard, not the route-loop schedule.
        let rng = self.lanes.router(view.router.idx());
        let mut chosen = None;
        let mut seen = 0u32;
        for port in ports {
            if port == exclude || !view.available(port, vc) || !admit(view.occupancy(port, vc)) {
                continue;
            }
            seen += 1;
            if rng.gen_range(0..seen) == 0 {
                chosen = Some(port);
            }
        }
        chosen
    }

    /// Routing for a packet travelling on the escape ring: deliver if
    /// home, abandon if a minimal output is available (bounded), else
    /// keep circulating — on the *same* ring the packet entered (each
    /// ring's bubble invariant is per ring; hopping between rings
    /// mid-flight would be a fresh, bubble-gated entry).
    ///
    /// §VII failover: when the ring has *died* under the packet (a link
    /// or router along it failed), it must never advance into the gap.
    /// It leaves through the minimal output if possible, else through
    /// any live canonical port — in both cases ignoring the exit budget
    /// (an emergency exit, not a voluntary one).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "vc index bounded by the VC ladder depth well below 256"
    )]
    fn route_on_ring(
        &mut self,
        view: &RouterView<'_>,
        input: InputCtx,
        pkt: &Packet,
        min_hop: Option<MinimalHop>,
    ) -> Option<Request> {
        #[expect(
            clippy::expect_used,
            reason = "on-ring packets always carry an escape class by the verified dependency ladder"
        )]
        let ring = view
            .fab
            .ring_of_input(view.router, input.port, input.vc)
            .expect("on-ring packet outside an escape buffer");
        let ring_dead = !view.ring_up(ring);
        if let Some(min_hop) = min_hop {
            let mut min_req =
                hop_to_request(view, pkt, min_hop, &self.ladder, RequestKind::Minimal);
            if min_req.kind == RequestKind::Eject {
                return Some(min_req); // deliver straight from the ring
            }
            min_req.out_vc =
                self.exit_vc(view, min_req.out_port as usize, min_req.out_vc as usize) as u8;
            if (pkt.ring_exits_left > 0 || ring_dead)
                && view.available(min_req.out_port as usize, min_req.out_vc as usize)
            {
                return Some(Request {
                    kind: RequestKind::RingExit,
                    ..min_req
                });
            }
        }
        if ring_dead {
            // Emergency exit through any live canonical port with room;
            // if every port is busy, wait — re-evaluated next cycle.
            let pos = group_pos(view, pkt);
            let a = view.fab.cfg().params.a;
            let h = view.fab.cfg().params.h;
            let lvc = self.ladder.local_vc(pkt, pos);
            let ports = (0..a - 1).map(|j| view.fab.local_out(j));
            if let Some(port) = self.pick_candidate(view, ports, lvc, usize::MAX, |_| true) {
                return Some(Request::new(port, lvc, RequestKind::RingExit));
            }
            let gvc = self.ladder.global_vc(pos);
            let ports = (0..h).map(|k| view.fab.global_out(k));
            if let Some(port) = self.pick_candidate(view, ports, gvc, usize::MAX, |_| true) {
                return Some(Request::new(port, gvc, RequestKind::RingExit));
            }
            return None;
        }
        #[expect(
            clippy::expect_used,
            reason = "a live ring always exposes an escape output; checked by ring liveness"
        )]
        let (port, vc) = view
            .escape_vc_of_ring(ring)
            .expect("live ring without an escape output");
        Some(Request::new(port, vc, RequestKind::RingAdvance))
    }

    /// Last-resort rerouting when every minimal direction is severed by
    /// faults (§VII): divert through any live global port (reaching a
    /// group whose path to the destination may survive), else a live
    /// local port, else — after the usual patience — a surviving escape
    /// ring. Header-flag limits are ignored: the §IV-A path bound cannot
    /// hold on a faulted network, and livelock is bounded by the
    /// surviving topology, not the flags.
    fn forced_reroute(&mut self, view: &RouterView<'_>, pkt: &Packet) -> Option<Request> {
        let pos = group_pos(view, pkt);
        let a = view.fab.cfg().params.a;
        let h = view.fab.cfg().params.h;
        let gvc = self.ladder.global_vc(pos);
        let ports = (0..h).map(|k| view.fab.global_out(k));
        if let Some(port) = self.pick_candidate(view, ports, gvc, usize::MAX, |_| true) {
            return Some(Request::new(port, gvc, RequestKind::MisrouteGlobal));
        }
        let lvc = self.ladder.local_vc(pkt, pos);
        let ports = (0..a - 1).map(|j| view.fab.local_out(j));
        if let Some(port) = self.pick_candidate(view, ports, lvc, usize::MAX, |_| true) {
            return Some(Request::new(port, lvc, RequestKind::MisrouteLocal));
        }
        if self.ring_entry_due(view, pkt.wait) {
            if let Some((port, vc)) = view.best_escape_vc() {
                return Some(Request::new(port, vc, RequestKind::RingEnter));
            }
        }
        None
    }
}

impl Policy for OfarPolicy {
    fn name(&self) -> &'static str {
        if self.ofar.local_misroute {
            "OFAR"
        } else {
            "OFAR-L"
        }
    }

    fn needs_ring(&self) -> bool {
        true
    }

    fn route(
        &mut self,
        view: &RouterView<'_>,
        input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request> {
        let topo = view.fab.topo();
        // Over surviving links only; `None` means the minimal direction
        // is severed and the packet must divert (§VII).
        let min_hop = live_minimal_hop(view, pkt);

        if pkt.on_ring() {
            return self.route_on_ring(view, input, pkt, min_hop);
        }

        let Some(min_hop) = min_hop else {
            pkt.wait = pkt.wait.saturating_add(1);
            return self.forced_reroute(view, pkt);
        };

        let min_req = hop_to_request(view, pkt, min_hop, &self.ladder, RequestKind::Minimal);
        if min_req.kind == RequestKind::Eject {
            // Never misroute a packet whose only remaining step is
            // delivery; it just waits for its ejection port.
            return Some(min_req);
        }
        // Head-blocked time: grows every cycle the packet stays unrouted
        // (the engine calls route() exactly once per head packet per
        // cycle and resets the counter on every grant).
        pkt.wait = pkt.wait.saturating_add(1);

        let min_port = min_req.out_port as usize;
        let min_vc = min_req.out_vc as usize;
        let q_min = view.occupancy(min_port, min_vc);
        let (th_min, _) = self.ofar.threshold.resolve(q_min);

        let here = view.group();
        let src_group = topo.group_of_node(pkt.src);
        let dst_group = topo.group_of_node(pkt.dst);
        let internal = src_group == dst_group;

        // §IV-A: "packets in local queues are first misrouted locally,
        // and then globally" — after its local misroute in the source
        // group the packet is committed to leaving through a global port
        // of its *current* router. Walking back to the minimal exit
        // router would spend a third source-group local hop and break
        // the paper's 8-hop (6 local + 2 global) ceiling.
        if here == src_group
            && !internal
            && pkt.has(FLAG_LOCAL_MISROUTED)
            && !pkt.has(FLAG_GLOBAL_MISROUTED)
            && matches!(min_hop, MinimalHop::Local { .. })
        {
            // The packet is committed to a non-minimal path: like a
            // Valiant phase-1 hop, any global port with room will do —
            // the uniform random pick over available ports is what
            // balances the group's global links.
            let vc = self.ladder.global_vc(crate::common::GroupPos::Source);
            let h = view.fab.cfg().params.h;
            let ports = (0..h).map(|k| view.fab.global_out(k));
            if let Some(port) = self.pick_candidate(view, ports, vc, usize::MAX, |_| true) {
                return Some(Request::new(port, vc, RequestKind::MisrouteGlobal));
            }
            // Every global port busy or out of credits: wait here
            // (re-evaluated next cycle), with the escape ring as the
            // patience-bounded backstop.
            if self.ring_entry_due(view, pkt.wait) {
                if let Some((port, vc)) = view.best_escape_vc() {
                    return Some(Request::new(port, vc, RequestKind::RingEnter));
                }
            }
            return None;
        }

        // §IV-B: misroute only when Q_min ≥ Th_min and the minimal port
        // is unavailable. The paper's unavailability has two arms —
        // "assigned to another input" or "Q_min = 100%". With
        // whole-packet VCT grants the first arm is true on most cycles
        // at any utilization (every grant holds the port for a full
        // packet time), so taking it literally misroutes benign traffic
        // en masse; the discriminating signal at packet granularity is
        // the second arm: the minimal VC has no space for this packet.
        if view.credits(min_port, min_vc) >= view.packet_phits() || q_min < th_min {
            return Some(min_req);
        }

        // --- §IV-A: which misroute class is allowed here? ---
        let (try_local, try_global) = if here == src_group && !internal {
            match input.kind {
                // Injection queues misroute globally, saving the first
                // local hop of a Valiant path.
                PortKind::Node => (false, !pkt.has(FLAG_GLOBAL_MISROUTED)),
                // Local queues misroute locally first, then globally
                // (starvation rule).
                _ => {
                    if self.ofar.local_misroute && !pkt.has(FLAG_LOCAL_MISROUTED) {
                        (true, false)
                    } else {
                        (false, !pkt.has(FLAG_GLOBAL_MISROUTED))
                    }
                }
            }
        } else {
            // Intermediate/destination group, or intra-group traffic:
            // only local misrouting, and only when the minimal output is
            // a (saturated) local port.
            let local_ok = self.ofar.local_misroute
                && !pkt.has(FLAG_LOCAL_MISROUTED)
                && matches!(min_hop, MinimalHop::Local { .. });
            (local_ok, false)
        };

        let fab = view.fab;
        let a = fab.cfg().params.a;
        let h = fab.cfg().params.h;
        let threshold = self.ofar.threshold;
        let admit = move |occ: f64| threshold.admits(occ, q_min);
        if try_local {
            let vc = self
                .ladder
                .local_vc(pkt, crate::common::group_pos(view, pkt));
            let ports = (0..a - 1).map(|j| fab.local_out(j));
            if let Some(port) = self.pick_candidate(view, ports, vc, min_port, admit) {
                return Some(Request::new(port, vc, RequestKind::MisrouteLocal));
            }
        }
        if try_global {
            // Global misroutes only happen in the source group (§IV-A).
            let vc = self.ladder.global_vc(crate::common::GroupPos::Source);
            let ports = (0..h).map(|k| fab.global_out(k));
            if let Some(port) = self.pick_candidate(view, ports, vc, min_port, admit) {
                return Some(Request::new(port, vc, RequestKind::MisrouteGlobal));
            }
        }

        // --- §IV-C: escape ring as last resort — the packet must have
        // been head-blocked past the patience window and the minimal
        // path must have no downstream space at all. The patience keeps
        // ordinary arbitration waits (a saturated output rotates over
        // ~2h·VC competitors at 8 cycles each) off the ring, while
        // packets caught in a stalled dependency chain — OFAR's
        // source-group local misroutes can close VC cycles — escape
        // within ~patience cycles. See the `ablation_patience` bench for
        // the sensitivity study behind the default. ---
        if self.ring_entry_due(view, pkt.wait)
            && view.credits(min_port, min_vc) < view.packet_phits()
        {
            if let Some((port, vc)) = view.best_escape_vc() {
                return Some(Request::new(port, vc, RequestKind::RingEnter));
            }
        }
        Some(min_req)
    }

    fn on_inject(&mut self, _view: &RouterView<'_>, pkt: &mut Packet) -> usize {
        injection_vc(self.vcs_injection, pkt)
    }
}

crate::probe::impl_enumerable_via_probe!(OfarPolicy);

impl OfarPolicy {
    /// Checkpoint hook: OFAR's only policy-side dynamic state is its
    /// tie-break RNG — the ring-patience counter travels in each packet
    /// header (`wait`), so it rides the engine's own sections.
    pub(crate) fn save_state(&self, e: &mut Enc) {
        let Self {
            // Config-derived: the constructor rebuilds them from SimConfig.
            ladder: _,
            vcs_injection: _,
            ofar: _,
            guard: _,
            lanes,
            // Probe telemetry: deliberately reset on restore.
            probe: _,
        } = self;
        lanes.save(e);
    }

    /// Restore the lane table captured by [`OfarPolicy::save_state`].
    pub(crate) fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), String> {
        self.lanes.load(d, "OFAR")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofar_engine::{Network, RingMode};
    use ofar_topology::NodeId;

    fn cfg() -> SimConfig {
        SimConfig::paper(2).with_ring(RingMode::Embedded)
    }

    #[test]
    fn thresholds_resolve_per_paper() {
        let v = MisrouteThreshold::paper_default();
        assert_eq!(v.resolve(0.5), (0.0, 0.25));
        // candidate admission is strict for the variable policy …
        assert!(!v.admits(0.25, 0.5));
        assert!(v.admits(0.24, 0.5));
        // … and inclusive for the static one
        let st = MisrouteThreshold::Static {
            th_min: 1.0,
            th_nonmin: 0.4,
        };
        assert!(st.admits(0.4, 0.9));
        assert!(!st.admits(0.41, 0.9));
        let s = MisrouteThreshold::Static {
            th_min: 1.0,
            th_nonmin: 0.4,
        };
        assert_eq!(s.resolve(0.8), (1.0, 0.4));
    }

    #[test]
    fn ofar_delivers_minimally_at_zero_load() {
        let cfg = cfg();
        let mut net = Network::new(cfg, OfarPolicy::new(&cfg, 11));
        let last = NodeId::from(net.num_nodes() - 1);
        net.generate(NodeId::new(0), last);
        net.run(500);
        let s = net.stats();
        assert_eq!(s.delivered_packets, 1);
        assert!(s.hop_sum <= 3, "zero-load OFAR must be minimal");
        assert_eq!(s.local_misroutes + s.global_misroutes, 0);
        assert_eq!(s.ring_entries, 0, "ring must not be used at zero load");
    }

    #[test]
    fn ofar_l_never_misroutes_locally() {
        let cfg = cfg();
        let mut net = Network::new(cfg, OfarPolicy::without_local(&cfg, 11));
        assert_eq!(net.policy().name(), "OFAR-L");
        // hammer one group pair to force adaptivity
        let per_group = cfg.params.a * cfg.params.p;
        for cycle in 0..3000u64 {
            if cycle % 8 == 0 {
                for n in 0..per_group {
                    net.generate(
                        NodeId::from(n),
                        NodeId::from(per_group + (n + 1) % per_group),
                    );
                }
            }
            net.step();
        }
        assert!(net.stats().delivered_packets > 100);
        assert_eq!(net.stats().local_misroutes, 0);
    }

    #[test]
    fn ofar_canonical_paths_respect_the_8_hop_bound() {
        // ADV-style pressure, then check hop ceiling: ≤ 2 global + 6
        // local canonical hops per packet (ring hops tracked separately).
        let cfg = cfg();
        let mut net = Network::new(cfg, OfarPolicy::new(&cfg, 5));
        net.enable_delivery_log();
        let per_group = cfg.params.a * cfg.params.p;
        let nodes = net.num_nodes();
        for cycle in 0..4000u64 {
            if cycle % 6 == 0 {
                for n in 0..nodes {
                    let dst = (n + 2 * per_group) % nodes;
                    net.generate(NodeId::from(n), NodeId::from(dst));
                }
            }
            net.step();
        }
        let s = net.stats();
        assert!(s.delivered_packets > 500);
        // average includes ring hops; the canonical ceiling is checked
        // via the per-packet counters in the engine integration tests,
        // here we check misrouting actually happened under pressure.
        assert!(
            s.local_misroutes + s.global_misroutes > 0,
            "OFAR must adapt under adversarial pressure"
        );
    }

    #[test]
    fn ring_guard_resolution_follows_config() {
        let base = cfg();
        let cm = cfg().with_cm();
        // Auto follows cm_enabled.
        let auto = OfarConfig::base();
        assert_eq!(
            OfarPolicy::with_config(&base, 1, auto).ring_guard_threshold(),
            None
        );
        assert_eq!(
            OfarPolicy::with_config(&cm, 1, auto).ring_guard_threshold(),
            Some(RING_GUARD_DEFAULT)
        );
        // Off wins even with CM on; an explicit threshold wins even
        // without it.
        let off = OfarConfig {
            ring_guard: RingGuard::Off,
            ..OfarConfig::base()
        };
        assert_eq!(
            OfarPolicy::with_config(&cm, 1, off).ring_guard_threshold(),
            None
        );
        let th = OfarConfig {
            ring_guard: RingGuard::Threshold(0.5),
            ..OfarConfig::base()
        };
        assert_eq!(
            OfarPolicy::with_config(&base, 1, th).ring_guard_threshold(),
            Some(0.5)
        );
    }

    #[test]
    fn ring_guard_defers_but_never_denies_entry() {
        // A guard threshold below zero treats the ring as always
        // congested, so every admission is deferred exactly the grace:
        // a guarded patience-1 policy must behave *identically* to an
        // unguarded policy with patience 1 + RING_GUARD_GRACE, and both
        // must still reach the ring (liveness) — just later than the
        // unguarded patience-1 baseline (deferral). Misrouting is
        // disabled so head blocking accumulates.
        let cfg = cfg();
        let run = |patience: u16, guard: RingGuard| {
            let ofar = OfarConfig {
                ring_patience: patience,
                ring_guard: guard,
                threshold: MisrouteThreshold::Static {
                    th_min: 0.0,
                    th_nonmin: -1.0,
                },
                ..OfarConfig::base()
            };
            let mut net = Network::new(cfg, OfarPolicy::with_config(&cfg, 7, ofar));
            let per_group = cfg.params.a * cfg.params.p;
            for cycle in 0..6000u64 {
                if cycle % 4 == 0 {
                    for n in 0..per_group {
                        net.generate(NodeId::from(n), NodeId::from(per_group + n));
                    }
                }
                net.step();
            }
            assert!(net.stats().delivered_packets > 100);
            (net.stats().ring_entries, net.stats().delivered_packets)
        };
        let eager = run(1, RingGuard::Off);
        let guarded = run(1, RingGuard::Threshold(-1.0));
        let patient = run(1 + RING_GUARD_GRACE, RingGuard::Off);
        assert!(eager.0 > 0, "unguarded patience-1 OFAR must use the ring");
        assert!(guarded.0 > 0, "guard grace must still admit ring entries");
        assert!(
            guarded.0 < eager.0,
            "guard must defer admissions: {guarded:?} vs {eager:?}"
        );
        assert_eq!(
            guarded, patient,
            "always-on guard must equal patience+grace exactly"
        );
    }
}
