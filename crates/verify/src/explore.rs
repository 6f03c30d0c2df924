//! The conformance model checker: exhaustive exploration of a routing
//! implementation's decision space.
//!
//! [`certify`](crate::certify) proves deadlock freedom of a mechanism's
//! *declared* channel-dependency graph; nothing there guarantees the
//! `route`/`on_inject` code actually stays inside that declaration. This
//! module closes the gap: it drives the real policy over every reachable
//! abstract packet state of a concrete topology, crossed with a small
//! lattice of credit/occupancy scenarios, and proves that
//!
//! 1. every transition the code emits is **contained** in the declared
//!    edge set (else [`ConformanceError::UndeclaredTransition`] with the
//!    concrete witness decision);
//! 2. every decision **strictly decreases** the mechanism's well-founded
//!    ranking ([`RankingKind`]) — livelock freedom — making the maximum
//!    ranking over reachable states a proven static hop bound;
//! 3. the tighter **observed** graph re-certifies under the same CDG
//!    obligations as the declaration.
//!
//! # Abstraction (soundness notes)
//!
//! * **Group symmetry.** The palmtree arrangement is rotationally
//!   symmetric in the group index, so injections are explored from the
//!   routers of group 0 only; every (source-position, destination-
//!   position) shape is covered up to rotation. Destinations are
//!   restricted to three whole groups plus one far group — every
//!   distance/host relation a policy can distinguish.
//! * **Decisions are recorded on *request***, before allocation — the
//!   same "waits-for" semantics the CDG models — and grants are applied
//!   optimistically, so the explored transition set is a superset of
//!   anything a real run can do.
//! * **Denied heads** are modelled by a `patient` state bit (head-blocked
//!   past the ring-patience threshold). For escape mechanisms every
//!   off-ring state spawns a patient twin, over-approximating arbitrary
//!   wait growth.
//! * **Ring-exit budget** is abstracted to `{positive, zero}`; an exit
//!   from a positive budget enqueues both successors, covering every
//!   concrete `max_ring_exits`. Ranking checks on ring moves are the
//!   component inequalities of `Φ_total = C·exits + (N + Φ_can | ring
//!   distance)` with `C = N + 9 > N + max Φ_can`, so they hold for any
//!   budget.
//! * **Random choices** (Valiant intermediates, adaptive candidate
//!   picks) are enumerated through the [`ProbePin`] hook instead of
//!   sampled: the policy reports what it would have sampled and the
//!   explorer replays the decision once per possible choice. Intermediate
//!   groups are capped at six evenly-spread representatives when a
//!   topology offers more — the class graph cannot distinguish beyond
//!   host/non-host/destination-relative positions, which the spread
//!   preserves.

#![expect(
    clippy::disallowed_types,
    reason = "membership-only sets: BFS order comes from the VecDeque, never from set iteration"
)]

use crate::ranking::{ring_dist, RankingKind};
use crate::report::{ConformanceError, ConformanceReport, TransitionWitness};
use crate::ring_spec::RingSpec;
use ofar_engine::{
    InputCtx, Packet, PortKind, PortLoad, Request, RequestKind, SimConfig, ViewProbe,
};
use ofar_routing::common::current_minimal_hop;
use ofar_routing::{ClassEdge, ClassId, EdgeWhy, EnumerablePolicy, MechanismDeps, ProbePin};
use ofar_topology::{GroupId, MinimalHop, NodeId, RouterId};
use std::collections::{HashSet, VecDeque};

/// The credit/occupancy lattice applied to the probed router. Each point
/// shapes the availability and occupancy signals a policy can read;
/// together they reach every branch of the paper mechanisms: minimal
/// grants, threshold-admitted misroutes, threshold-rejected waits,
/// patience-driven ring entries, ring exits and bubble-blocked advances.
const SCENARIOS: [&str; 8] = [
    "empty",
    "congested",
    "locals-congested",
    "globals-congested",
    "bubble-blocked",
    "busy",
    "min-congested",
    "min-bubble",
];

/// Abstract ring-exit budget: only `> 0` is observable by a policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Exits {
    /// At least one voluntary ring exit left.
    Pos,
    /// Budget exhausted.
    Zero,
}

/// One abstract packet state: everything a policy's decision can depend
/// on, quotiented by group symmetry (sources live in group 0) and with
/// the wait counter reduced to the `patient` bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct AbsState {
    /// Router whose input queue holds the packet.
    router: RouterId,
    /// Channel class the packet occupies.
    class: ClassId,
    /// Destination router.
    dst: RouterId,
    /// Pending Valiant intermediate group.
    intermediate: Option<GroupId>,
    /// Header flags (misroute/ring bits).
    flags: u8,
    /// Abstract ring-exit budget.
    exits: Exits,
    /// Source-group local hops taken (capped at the ladder budget — the
    /// only thing the VC choice can depend on).
    local_hops: u8,
    /// Whether the head has been blocked past the patience threshold.
    patient: bool,
}

/// Run the conformance exploration of one policy against one declaration
/// and ranking over the topology of `cfg`.
pub(crate) fn conformance_with<P: EnumerablePolicy>(
    cfg: &SimConfig,
    policy: P,
    decl: MechanismDeps,
    rank: RankingKind,
) -> Result<ConformanceReport, ConformanceError> {
    Explorer::new(cfg, policy, decl, rank).run()
}

struct Explorer<P> {
    cfg: SimConfig,
    probe: ViewProbe,
    policy: P,
    decl: MechanismDeps,
    declared: HashSet<(ClassId, ClassId)>,
    rank: RankingKind,
    visited: HashSet<AbsState>,
    queue: VecDeque<AbsState>,
    observed: Vec<ClassEdge>,
    observed_set: HashSet<(ClassId, ClassId)>,
    decisions: usize,
    hop_bound: u64,
    /// Node standing in for every source (all sources share group 0 and
    /// no policy reads more than the source's group).
    canonical_src: NodeId,
    /// Cap for the abstract `local_hops` counter (`ladder budget − 1`).
    hop_cap: u8,
}

impl<P: EnumerablePolicy> Explorer<P> {
    fn new(cfg: &SimConfig, policy: P, decl: MechanismDeps, rank: RankingKind) -> Self {
        let probe = ViewProbe::new(*cfg);
        let canonical_src = probe
            .fab()
            .topo()
            .first_node_of(probe.fab().topo().router_at(GroupId::new(0), 0));
        let declared = decl.edges.iter().map(|e| (e.from, e.to)).collect();
        let hop_cap = (cfg.vcs_local.saturating_sub(2).max(1) - 1) as u8;
        Self {
            cfg: *cfg,
            probe,
            policy,
            decl,
            declared,
            rank,
            visited: HashSet::new(),
            queue: VecDeque::new(),
            observed: Vec::new(),
            observed_set: HashSet::new(),
            decisions: 0,
            hop_bound: 0,
            canonical_src,
            hop_cap,
        }
    }

    fn run(mut self) -> Result<ConformanceReport, ConformanceError> {
        self.seed();
        while let Some(s) = self.queue.pop_front() {
            self.expand(s)?;
        }
        let fab = self.probe.fab();
        let topo = fab.topo();
        let dead: Vec<ClassEdge> = self
            .decl
            .edges
            .iter()
            .filter(|e| !self.observed_set.contains(&(e.from, e.to)))
            .copied()
            .collect();
        let observed_deps = MechanismDeps {
            mechanism: self.decl.mechanism,
            uses_escape: self.decl.uses_escape,
            edges: self.observed.clone(),
        };
        let rings: Vec<RingSpec> = fab
            .rings()
            .iter()
            .map(|r| RingSpec::from_ring(topo, r))
            .collect();
        let observed_certificate = crate::verify_decl(topo, &self.cfg, &observed_deps, &rings)
            .map_err(|error| ConformanceError::ObservedGraphRejected {
                mechanism: self.decl.mechanism,
                error,
            })?;
        let ring_bound = fab.rings().first().and_then(|r| {
            self.rank
                .ring_bound(r.len(), self.cfg.max_ring_exits, self.hop_bound)
        });
        Ok(ConformanceReport {
            mechanism: self.decl.mechanism,
            states: self.visited.len(),
            decisions: self.decisions,
            observed: self.observed,
            dead,
            hop_bound: self.hop_bound,
            paper_bound: self.rank.paper_bound(),
            ring_bound,
            observed_certificate,
        })
    }

    /// Initial states: drive `on_inject` for every (source router of
    /// group 0, destination, injection id) across the scenario lattice,
    /// enumerating pinned intermediate choices.
    fn seed(&mut self) {
        let topo = self.probe.fab().topo();
        let a = topo.params().a;
        let srcs: Vec<RouterId> = (0..a).map(|i| topo.router_at(GroupId::new(0), i)).collect();
        let dsts = dst_set(topo);
        for &src in &srcs {
            self.probe.set_router(src);
            let src_node = self.probe.fab().topo().first_node_of(src);
            for &dst in &dsts {
                if dst == src {
                    continue;
                }
                let inters = self.pin_intermediates(dst);
                for iv in 0..self.cfg.vcs_injection as u64 {
                    let base = Packet {
                        id: iv,
                        injected_at: 0,
                        src: src_node,
                        dst: self.probe.fab().topo().first_node_of(dst),
                        intermediate: None,
                        flags: 0,
                        ring_exits_left: self.cfg.max_ring_exits,
                        local_hops: 0,
                        global_hops: 0,
                        ring_hops: 0,
                        wait: 0,
                        cur_group: GroupId::new(0),
                    };
                    for scenario in SCENARIOS {
                        let min_port = self.min_out_port(&base);
                        self.apply_scenario(scenario, min_port);
                        let mut outs: Vec<(usize, Packet)> = Vec::new();
                        {
                            let view = self.probe.view();
                            self.policy.set_probe(Some(ProbePin {
                                intermediate: inters[0],
                                candidate: 0,
                            }));
                            let mut pkt = base;
                            let _ = self.policy.on_inject(&view, &mut pkt);
                            let fb = self.policy.probe_feedback();
                            let pins: &[GroupId] = if fb.intermediate_sampled {
                                &inters
                            } else {
                                &inters[..1]
                            };
                            for &ig in pins {
                                for cand in 0..fb.candidates.max(1) {
                                    self.policy.set_probe(Some(ProbePin {
                                        intermediate: ig,
                                        candidate: cand as usize,
                                    }));
                                    let mut pkt = base;
                                    let vc = self.policy.on_inject(&view, &mut pkt);
                                    outs.push((vc, pkt));
                                }
                            }
                        }
                        for (vc, pkt) in outs {
                            self.decisions += 1;
                            self.push(AbsState {
                                router: src,
                                class: ClassId::Inject { vc: vc as u8 },
                                dst,
                                intermediate: pkt.intermediate,
                                flags: pkt.flags,
                                exits: Exits::Pos,
                                local_hops: 0,
                                patient: false,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Explore every decision of one abstract state: per scenario, one
    /// discovery call to learn what the policy would sample, then one
    /// replay per pinned choice.
    fn expand(&mut self, s: AbsState) -> Result<(), ConformanceError> {
        self.probe.set_router(s.router);
        let ctx = self.input_ctx(&s);
        let base = self.materialize(&s);
        let min_port = self.min_out_port(&base);
        let inters = self.pin_intermediates(s.dst);
        for scenario in SCENARIOS {
            self.apply_scenario(scenario, min_port);
            let mut outs: Vec<(Option<Request>, Packet)> = Vec::new();
            {
                let view = self.probe.view();
                self.policy.set_probe(Some(ProbePin {
                    intermediate: inters[0],
                    candidate: 0,
                }));
                let mut pkt = base;
                let _ = self.policy.route(&view, ctx, &mut pkt);
                let fb = self.policy.probe_feedback();
                let pins: &[GroupId] = if fb.intermediate_sampled {
                    &inters
                } else {
                    &inters[..1]
                };
                for &ig in pins {
                    for cand in 0..fb.candidates.max(1) {
                        self.policy.set_probe(Some(ProbePin {
                            intermediate: ig,
                            candidate: cand as usize,
                        }));
                        let mut pkt = base;
                        let req = self.policy.route(&view, ctx, &mut pkt);
                        outs.push((req, pkt));
                    }
                }
            }
            for (req, pkt) in outs {
                self.record(&s, scenario, req, &base, pkt)?;
            }
        }
        Ok(())
    }

    /// Process one decision: classify the request, check containment and
    /// ranking, mirror the engine's grant/landing bookkeeping, enqueue
    /// the successor.
    fn record(
        &mut self,
        s: &AbsState,
        scenario: &'static str,
        req: Option<Request>,
        pre: &Packet,
        mut pkt: Packet,
    ) -> Result<(), ConformanceError> {
        self.decisions += 1;
        let Some(req) = req else {
            // Denied head: the packet keeps waiting. Ladder mechanisms
            // never return `None` on a healthy network; for escape
            // mechanisms the patient twin covers the grown wait counter.
            if self.decl.uses_escape && s.class != ClassId::Escape {
                self.push(AbsState {
                    intermediate: pkt.intermediate,
                    flags: pkt.flags,
                    patient: true,
                    ..*s
                });
            }
            return Ok(());
        };
        if req.kind == RequestKind::Eject {
            return Ok(()); // delivery — not a channel dependency
        }
        let fab = self.probe.fab();
        let topo = fab.topo();
        let link = fab.out_link(s.router, req.out_port as usize);
        if link.kind == PortKind::Node {
            return Ok(()); // non-Eject request at an ejection port: terminal
        }
        let next_router = RouterId::new(link.dst_router);
        let to = if fab
            .ring_of_input(next_router, link.dst_port as usize, req.out_vc as usize)
            .is_some()
            || link.kind == PortKind::Ring
        {
            ClassId::Escape
        } else {
            match link.kind {
                PortKind::Local => ClassId::Local { vc: req.out_vc },
                PortKind::Global => ClassId::Global { vc: req.out_vc },
                PortKind::Ring | PortKind::Node => unreachable!("handled above"),
            }
        };
        let witness = TransitionWitness {
            router: s.router,
            dst: s.dst,
            from: s.class,
            to,
            why: req.kind,
            flags: pre.flags,
            intermediate: pre.intermediate,
            patient: s.patient,
            scenario,
        };
        // (1) containment: the decision must be a declared dependency.
        if !self.declared.contains(&(s.class, to)) {
            return Err(ConformanceError::UndeclaredTransition {
                mechanism: self.decl.mechanism,
                witness,
            });
        }
        if self.observed_set.insert((s.class, to)) {
            let why = match (s.class, req.kind) {
                (ClassId::Inject { .. }, RequestKind::Minimal) => EdgeWhy::Inject,
                _ => kind_to_why(req.kind),
            };
            self.observed.push(ClassEdge {
                from: s.class,
                to,
                why,
            });
        }
        // Mirror the engine's grant bookkeeping…
        pkt.wait = 0;
        match req.kind {
            RequestKind::MisrouteLocal => pkt.set(ofar_engine::FLAG_LOCAL_MISROUTED),
            RequestKind::MisrouteGlobal => pkt.set(ofar_engine::FLAG_GLOBAL_MISROUTED),
            RequestKind::RingEnter => pkt.set(ofar_engine::FLAG_ON_RING),
            RequestKind::RingExit => {
                pkt.clear(ofar_engine::FLAG_ON_RING);
                pkt.ring_exits_left = pkt.ring_exits_left.saturating_sub(1);
            }
            RequestKind::Eject | RequestKind::Minimal | RequestKind::RingAdvance => {}
        }
        match req.kind {
            RequestKind::RingEnter | RequestKind::RingAdvance => {
                pkt.ring_hops = pkt.ring_hops.saturating_add(1);
            }
            _ => match link.kind {
                PortKind::Local => pkt.local_hops = pkt.local_hops.saturating_add(1),
                PortKind::Global => pkt.global_hops = pkt.global_hops.saturating_add(1),
                PortKind::Ring | PortKind::Node => {}
            },
        }
        // …and the landing bookkeeping on group change.
        let next_group = topo.group_of(next_router);
        if pkt.cur_group != next_group {
            pkt.cur_group = next_group;
            pkt.clear(ofar_engine::FLAG_LOCAL_MISROUTED);
            if pkt.intermediate == Some(next_group) {
                pkt.intermediate = None;
            }
        }
        // (2) livelock ranking: the decision must strictly decrease
        // Φ_total. The exit budget enters symbolically: an exit spends
        // one unit whatever the concrete budget was.
        let e_pre = u64::from(s.exits == Exits::Pos);
        let e_post = if req.kind == RequestKind::RingExit {
            e_pre.saturating_sub(1)
        } else {
            e_pre
        };
        let before = self.phi_total(s.class, pre, s.router, s.dst, e_pre);
        let after = self.phi_total(to, &pkt, next_router, s.dst, e_post);
        if after >= before {
            return Err(ConformanceError::RankingViolation {
                mechanism: self.decl.mechanism,
                witness,
                before,
                after,
            });
        }
        // Successor(s): an exit from a positive budget covers both the
        // still-positive and the exhausted concretization.
        let succ_exits: &[Exits] = match (req.kind, s.exits) {
            (RequestKind::RingExit, Exits::Pos) => &[Exits::Pos, Exits::Zero],
            (_, Exits::Pos) => &[Exits::Pos],
            (_, Exits::Zero) => &[Exits::Zero],
        };
        let (intermediate, flags, local_hops) = (
            pkt.intermediate,
            pkt.flags,
            pkt.local_hops.min(self.hop_cap),
        );
        for &exits in succ_exits {
            self.push(AbsState {
                router: next_router,
                class: to,
                dst: s.dst,
                intermediate,
                flags,
                exits,
                local_hops,
                patient: false,
            });
        }
        Ok(())
    }

    /// `Φ_total` of a state form: `C·exits + ring-distance` on the ring,
    /// `C·exits + N + Φ_can` off it, with `C = N + 9 > N + max Φ_can`.
    fn phi_total(
        &self,
        class: ClassId,
        pkt: &Packet,
        router: RouterId,
        dst: RouterId,
        e: u64,
    ) -> u64 {
        let fab = self.probe.fab();
        let n = fab.rings().first().map_or(0, |r| r.len() as u64);
        let c = n + 9;
        if class == ClassId::Escape {
            let ring = fab.rings().first().expect("escape class without a ring");
            c * e + ring_dist(ring, router, dst)
        } else {
            let inject = matches!(class, ClassId::Inject { .. });
            c * e + n + self.rank.phi(fab.topo(), pkt, router, inject)
        }
    }

    /// Enqueue a state if unseen; for escape mechanisms also its patient
    /// twin (any off-ring head can be blocked past the patience window).
    fn push(&mut self, s: AbsState) {
        if self.visited.insert(s) {
            if s.class != ClassId::Escape {
                let pkt = self.materialize(&s);
                let inject = matches!(s.class, ClassId::Inject { .. });
                let phi = self
                    .rank
                    .phi(self.probe.fab().topo(), &pkt, s.router, inject);
                self.hop_bound = self.hop_bound.max(phi);
            }
            self.queue.push_back(s);
        }
        if self.decl.uses_escape && !s.patient && s.class != ClassId::Escape {
            let twin = AbsState { patient: true, ..s };
            if self.visited.insert(twin) {
                self.queue.push_back(twin);
            }
        }
    }

    /// Concretize an abstract state as the packet a policy will see.
    fn materialize(&self, s: &AbsState) -> Packet {
        let topo = self.probe.fab().topo();
        Packet {
            id: 0,
            injected_at: 0,
            src: self.canonical_src,
            dst: topo.first_node_of(s.dst),
            intermediate: s.intermediate,
            flags: s.flags,
            ring_exits_left: match s.exits {
                Exits::Pos => self.cfg.max_ring_exits.max(1),
                Exits::Zero => 0,
            },
            local_hops: s.local_hops,
            global_hops: 0,
            ring_hops: 0,
            wait: if s.patient { u8::MAX - 1 } else { 0 },
            cur_group: topo.group_of(s.router),
        }
    }

    /// The input-queue context a state's class corresponds to. Classes
    /// are port-symmetric, so input 0 of the right kind stands for all;
    /// escape states use ring 0's landing buffer (rings are symmetric).
    fn input_ctx(&self, s: &AbsState) -> InputCtx {
        let fab = self.probe.fab();
        match s.class {
            ClassId::Inject { vc } => InputCtx {
                port: fab.inj_in(0),
                vc: vc as usize,
                kind: PortKind::Node,
                is_escape_vc: false,
            },
            ClassId::Local { vc } => InputCtx {
                port: fab.local_in(0),
                vc: vc as usize,
                kind: PortKind::Local,
                is_escape_vc: false,
            },
            ClassId::Global { vc } => InputCtx {
                port: fab.global_in(0),
                vc: vc as usize,
                kind: PortKind::Global,
                is_escape_vc: false,
            },
            ClassId::Escape => {
                for port in 0..fab.n_in() {
                    let vcs = fab.in_desc(s.router, port).vcs as usize;
                    for vc in 0..vcs {
                        if fab.ring_of_input(s.router, port, vc) == Some(0) {
                            return InputCtx {
                                port,
                                vc,
                                kind: fab.in_kind(port),
                                is_escape_vc: true,
                            };
                        }
                    }
                }
                unreachable!("escape-class state on a ringless fabric")
            }
        }
    }

    /// The output port of the packet's current minimal hop (scenario
    /// targeting).
    fn min_out_port(&self, pkt: &Packet) -> usize {
        let view = self.probe.view();
        let hop = current_minimal_hop(&view, pkt);
        let fab = self.probe.fab();
        match hop {
            MinimalHop::Eject { node } => fab.eject_out(node),
            MinimalHop::Local { port } => fab.local_out(port),
            MinimalHop::Global { port } => fab.global_out(port),
        }
    }

    /// Apply one lattice point to the probed router.
    fn apply_scenario(&mut self, name: &'static str, min_port: usize) {
        let (a, h) = {
            let p = self.probe.fab().cfg().params;
            (p.a, p.h)
        };
        match name {
            "empty" => self.probe.set_all(PortLoad::Empty),
            "congested" => self.probe.set_all(PortLoad::Congested),
            "locals-congested" => {
                self.probe.set_all(PortLoad::Empty);
                for j in 0..a - 1 {
                    let port = self.probe.fab().local_out(j);
                    self.probe.set_load(port, PortLoad::Congested);
                }
            }
            "globals-congested" => {
                self.probe.set_all(PortLoad::Empty);
                for k in 0..h {
                    let port = self.probe.fab().global_out(k);
                    self.probe.set_load(port, PortLoad::Congested);
                }
            }
            "bubble-blocked" => self.probe.set_all(PortLoad::BubbleBlocked),
            "busy" => self.probe.set_all(PortLoad::Busy),
            "min-congested" => {
                self.probe.set_all(PortLoad::Empty);
                self.probe.set_load(min_port, PortLoad::Congested);
            }
            "min-bubble" => {
                self.probe.set_all(PortLoad::BubbleBlocked);
                self.probe.set_load(min_port, PortLoad::Congested);
            }
            other => unreachable!("unknown scenario {other}"),
        }
    }

    /// Valid Valiant intermediates for a destination (neither the source
    /// group 0 nor the destination group), capped at six evenly-spread
    /// representatives.
    fn pin_intermediates(&self, dst: RouterId) -> Vec<GroupId> {
        let topo = self.probe.fab().topo();
        let dst_group = topo.group_of(dst);
        let mut v: Vec<GroupId> = (0..topo.num_groups())
            .map(GroupId::from)
            .filter(|&g| g != GroupId::new(0) && g != dst_group)
            .collect();
        if v.len() > 8 {
            let n = v.len();
            let mut picked: Vec<GroupId> = (0..6).map(|i| v[i * (n - 1) / 5]).collect();
            picked.dedup();
            v = picked;
        }
        v
    }
}

/// Destination routers explored: three whole groups (source-local, the
/// nearest two remote) plus one router of the farthest group. Combined
/// with group symmetry this covers every host/non-host, intra/inter and
/// near/far relation a policy can observe.
fn dst_set(topo: &ofar_topology::Dragonfly) -> Vec<RouterId> {
    let a = topo.params().a;
    let mut v = Vec::new();
    for g in 0..topo.num_groups().min(3) {
        for i in 0..a {
            v.push(topo.router_at(GroupId::from(g), i));
        }
    }
    let far = topo.router_at(GroupId::from(topo.num_groups() - 1), 0);
    if !v.contains(&far) {
        v.push(far);
    }
    v
}

fn kind_to_why(kind: RequestKind) -> EdgeWhy {
    match kind {
        RequestKind::Eject | RequestKind::Minimal => EdgeWhy::Minimal,
        RequestKind::MisrouteLocal => EdgeWhy::MisrouteLocal,
        RequestKind::MisrouteGlobal => EdgeWhy::MisrouteGlobal,
        RequestKind::RingEnter => EdgeWhy::RingEnter,
        RequestKind::RingAdvance => EdgeWhy::RingAdvance,
        RequestKind::RingExit => EdgeWhy::RingExit,
    }
}

#[cfg(test)]
mod tests {
    use ofar_engine::SimConfig;
    use ofar_routing::MechanismKind;

    #[test]
    fn minimal_conforms_at_h2() {
        let cfg = MechanismKind::Min.adapt_config(SimConfig::paper(2));
        let rep = crate::conformance(&cfg, MechanismKind::Min).expect("MIN conforms");
        assert_eq!(rep.hop_bound, 3);
        assert_eq!(rep.paper_bound, 3);
        assert!(rep.ring_bound.is_none());
        assert!(rep.dead.is_empty(), "dead: {:?}", rep.dead);
    }
}
