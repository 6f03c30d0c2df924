//! Static port wiring ("fabric"): how router ports map onto topology
//! links, how many VCs and how much buffering each port has, and where
//! the escape ring(s) run.
//!
//! Port layout per router (identical for every router):
//!
//! * inputs — `0 .. p` injection, `p .. p+a−1` local, `p+a−1 .. p+a−1+h`
//!   global, plus one ring input *per escape ring* in the physical-ring
//!   model;
//! * outputs — `0 .. p` ejection, then local, global and ring in the same
//!   order.
//!
//! The canonical port count is `p + a − 1 + h` (the paper's `4h − 1` for
//! balanced networks); each physical ring adds the two extra ports noted
//! in §VII.
//!
//! Multiple escape rings (the §VII fault-tolerance extension) are
//! supported in both models. The rings are pairwise edge-disjoint, so in
//! the embedded model every input port is the landing of **at most one**
//! ring and carries at most one extra escape VC.

use crate::config::{RingMode, SimConfig, BUF_GLOBAL, LAT_GLOBAL, LAT_LOCAL, VCS_RING};
use ofar_topology::{Dragonfly, HamiltonianRing, RingEdge, RouterId};

/// Port class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Injection (input) / ejection (output) port of one attached node.
    Node,
    /// Local (intra-group) link.
    Local,
    /// Global (inter-group) link.
    Global,
    /// Dedicated physical escape-ring link.
    Ring,
}

/// Resolved output port: where the link lands and what the downstream
/// buffering looks like.
#[derive(Clone, Copy, Debug)]
pub struct OutLink {
    /// Port class.
    pub kind: PortKind,
    /// Downstream router (== own router for ejection ports).
    pub dst_router: u32,
    /// Downstream input-port index (unused for ejection ports).
    pub dst_port: u16,
    /// Link latency in cycles (0 for ejection).
    pub latency: u32,
    /// Downstream VC count (mirrors the input port's VC count) — one
    /// credit lane each. 0 for ejection ports: the node is an infinite
    /// sink.
    pub vcs: u8,
    /// Arena index of the credit lane of downstream VC 0; the port's
    /// lanes are consecutive (see [`Fabric::out_lane`]).
    pub lane: u32,
}

impl OutLink {
    /// The arena indices of this output's credit lanes, by VC.
    #[inline]
    pub fn lanes(&self) -> std::ops::Range<usize> {
        self.lane as usize..self.lane as usize + self.vcs as usize
    }
}

/// Input-port descriptor.
#[derive(Clone, Copy, Debug)]
pub struct InDesc {
    /// Port class.
    pub kind: PortKind,
    /// Number of VCs (includes the embedded escape VC when this input is
    /// a ring's landing link).
    pub vcs: u8,
    /// Upstream router (`u32::MAX` for injection ports).
    pub up_router: u32,
    /// Upstream output-port index.
    pub up_port: u16,
    /// Upstream link latency (credit return delay), 0 for injection.
    pub latency: u32,
    /// Arena index of VC 0; the port's VC slots are consecutive (see
    /// [`Fabric::in_slot`]).
    pub slot: u32,
}

impl InDesc {
    /// The arena indices of this input's VC slots, by VC.
    #[inline]
    pub fn slots(&self) -> std::ops::Range<usize> {
        self.slot as usize..self.slot as usize + self.vcs as usize
    }
}

/// The escape output of a router for one ring: which output port and VC
/// range reach the next router along that ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EscapeOut {
    /// Output port index.
    pub out_port: u16,
    /// First escape VC index at the downstream input.
    pub base_vc: u8,
    /// Number of escape VCs (1 for embedded, [`VCS_RING`] for physical).
    pub num_vcs: u8,
}

/// Immutable wiring of the whole network.
pub struct Fabric {
    topo: Dragonfly,
    cfg: SimConfig,
    rings: Vec<HamiltonianRing>,
    n_in: usize,
    n_out: usize,
    n_canonical: usize,
    out_links: Vec<OutLink>,
    in_descs: Vec<InDesc>,
    /// `[router × rings]` escape outputs.
    escapes: Vec<EscapeOut>,
    /// Per (router, input port): `(ring index, escape VC)` when the port
    /// is a ring landing; ring index −1 otherwise.
    ring_landing: Vec<(i8, u8)>,
    /// Buffer capacity of each input VC slot, in phits.
    slot_caps: Vec<u32>,
    /// Per credit lane, the capacity of the downstream VC buffer it
    /// meters: the credit ceiling. Static, so the mutable state is the
    /// credit counter alone.
    lane_caps: Vec<u32>,
}

impl Fabric {
    /// Build the wiring for a configuration, embedding
    /// `cfg.escape_rings` pairwise edge-disjoint rings when an escape
    /// subnetwork is configured.
    #[expect(clippy::expect_used, reason = "construction-time validation")]
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate().expect("invalid SimConfig");
        let topo = Dragonfly::new(cfg.params);
        let rings = match cfg.ring {
            RingMode::None => Vec::new(),
            _ => HamiltonianRing::embed_disjoint(&topo, cfg.escape_rings),
        };
        Self::with_rings(cfg, rings)
    }

    /// Build the wiring with an explicit ring family (must be non-empty
    /// exactly when `cfg.ring != RingMode::None`). The rings must be
    /// pairwise edge-disjoint in the embedded model — each link can host
    /// only one escape VC.
    #[expect(
        clippy::expect_used,
        clippy::cast_possible_truncation,
        reason = "construction-time: validate bounds ports by MAX_PORTS and VCs by MAX_VCS, and router, slot and lane counts fit u32"
    )]
    pub fn with_rings(cfg: SimConfig, rings: Vec<HamiltonianRing>) -> Self {
        cfg.validate().expect("invalid SimConfig");
        assert_eq!(
            !rings.is_empty(),
            cfg.ring != RingMode::None,
            "ring presence must match RingMode"
        );
        let topo = Dragonfly::new(cfg.params);
        if cfg.ring == RingMode::Embedded && rings.len() > 1 {
            assert!(
                HamiltonianRing::pairwise_edge_disjoint(&topo, &rings),
                "embedded escape rings must be edge-disjoint"
            );
        }
        let p = cfg.params.p;
        let a = cfg.params.a;
        let h = cfg.params.h;
        let k = rings.len();
        let physical = cfg.ring == RingMode::Physical;
        let n_canonical = p + (a - 1) + h;
        let extra = if physical { k } else { 0 };
        let n_in = n_canonical + extra;
        let n_out = n_canonical + extra;
        let nr = topo.num_routers();

        let mut fab = Self {
            topo,
            cfg,
            rings,
            n_in,
            n_out,
            n_canonical,
            out_links: Vec::with_capacity(nr * n_out),
            in_descs: Vec::with_capacity(nr * n_in),
            escapes: Vec::with_capacity(nr * k),
            ring_landing: vec![(-1, 0); nr * n_in],
            slot_caps: Vec::new(),
            lane_caps: Vec::new(),
        };

        // 1. Input descriptors (upstream info and slots filled below).
        for i in 0..nr * n_in {
            let kind = fab.in_kind(i % n_in);
            fab.in_descs.push(InDesc {
                kind,
                vcs: fab.base_vcs(kind) as u8,
                up_router: u32::MAX,
                up_port: 0,
                latency: 0,
                slot: 0,
            });
        }

        // Ring landings: in the embedded model the landing input of each
        // ring edge gains one escape VC; in the physical model ring `j`
        // owns the dedicated input `n_canonical + j`.
        if cfg.ring == RingMode::Embedded {
            for j in 0..k {
                let ring = fab.rings[j].clone();
                for &r in ring.order() {
                    let edge = ring.edge_from(r);
                    let (dst, dst_port) = fab.resolve_edge(edge);
                    let d = &mut fab.in_descs[dst.idx() * n_in + dst_port];
                    let esc_vc = d.vcs;
                    d.vcs += 1;
                    let slot = &mut fab.ring_landing[dst.idx() * n_in + dst_port];
                    assert_eq!(slot.0, -1, "two rings landing on one link");
                    *slot = (j as i8, esc_vc);
                }
            }
        } else if physical {
            for r in 0..nr {
                for j in 0..k {
                    fab.ring_landing[r * n_in + n_canonical + j] = (j as i8, 0);
                }
            }
        }

        // Slot addressing: the VC counts are final, so number the input
        // VC slots router by router, port by port. An embedded escape VC
        // is the extra, last VC of a canonical port and uses `buf_ring`.
        for i in 0..nr * n_in {
            let kind = fab.in_descs[i].kind;
            let buf = match kind {
                PortKind::Node => cfg.buf_injection,
                PortKind::Local => cfg.buf_local,
                PortKind::Global => BUF_GLOBAL,
                PortKind::Ring => cfg.buf_ring,
            };
            fab.in_descs[i].slot = fab.slot_caps.len() as u32;
            for vc in 0..fab.in_descs[i].vcs as usize {
                let escape = vc >= fab.base_vcs(kind);
                let cap = if escape { cfg.buf_ring } else { buf };
                fab.slot_caps.push(cap as u32);
            }
        }

        // 2. Output links, their credit lanes numbered the same way.
        for r in 0..nr {
            let rid = RouterId::from(r);
            for port in 0..n_out {
                let link = fab.build_out_link(rid, port);
                let dst = fab.in_desc(RouterId::new(link.dst_router), link.dst_port as usize);
                let slots = dst.slot as usize..dst.slot as usize + link.vcs as usize;
                fab.lane_caps.extend_from_slice(&fab.slot_caps[slots]);
                fab.out_links.push(link);
            }
        }

        // 3. Upstream (credit-return) info on inputs.
        for r in 0..nr {
            for port in 0..n_out {
                let link = fab.out_links[r * n_out + port];
                if link.kind == PortKind::Node {
                    continue; // ejection: no downstream input port
                }
                let d = &mut fab.in_descs[link.dst_router as usize * n_in + link.dst_port as usize];
                d.up_router = r as u32;
                d.up_port = port as u16;
                d.latency = link.latency;
            }
        }

        // 4. Escape outputs, `[router × rings]`.
        for r in 0..nr {
            let rid = RouterId::from(r);
            for j in 0..k {
                let esc = if physical {
                    EscapeOut {
                        out_port: (n_canonical + j) as u16,
                        base_vc: 0,
                        num_vcs: VCS_RING as u8,
                    }
                } else {
                    let (out_port, base) = match fab.rings[j].edge_from(rid) {
                        RingEdge::Local { port, .. } => (fab.local_out(port), cfg.vcs_local as u8),
                        RingEdge::Global { port, .. } => {
                            (fab.global_out(port), cfg.vcs_global as u8)
                        }
                    };
                    EscapeOut {
                        out_port: out_port as u16,
                        base_vc: base,
                        num_vcs: 1,
                    }
                };
                fab.escapes.push(esc);
            }
        }

        fab
    }

    fn resolve_edge(&self, edge: RingEdge) -> (RouterId, usize) {
        match edge {
            RingEdge::Local { from, port } => {
                let dst = self.topo.local_neighbor(from, port);
                (dst, self.local_in(self.topo.local_port_to(dst, from)))
            }
            RingEdge::Global { from, port } => {
                let (dst, rport) = self.topo.global_neighbor(from, port);
                (dst, self.global_in(rport))
            }
        }
    }

    /// The link out of (`r`, `port`), its lanes starting at the next
    /// unnumbered one.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "construction-time: validate bounds ports by MAX_PORTS and VCs by MAX_VCS; latencies and lane counts fit u32"
    )]
    fn build_out_link(&self, r: RouterId, port: usize) -> OutLink {
        let lane = self.lane_caps.len() as u32;
        let p = self.cfg.params.p;
        let a = self.cfg.params.a;
        let h = self.cfg.params.h;
        if port < p {
            return OutLink {
                kind: PortKind::Node,
                dst_router: r.0,
                dst_port: 0,
                latency: 0,
                vcs: 0,
                lane,
            };
        }
        let port_rel = port - p;
        if port_rel < a - 1 {
            let dst = self.topo.local_neighbor(r, port_rel);
            let dst_port = self.local_in(self.topo.local_port_to(dst, r));
            let vcs = self.in_descs[dst.idx() * self.n_in + dst_port].vcs;
            return OutLink {
                kind: PortKind::Local,
                dst_router: dst.0,
                dst_port: dst_port as u16,
                latency: LAT_LOCAL as u32,
                vcs,
                lane,
            };
        }
        let k = port_rel - (a - 1);
        if k < h {
            let (dst, rk) = self.topo.global_neighbor(r, k);
            let dst_port = self.global_in(rk);
            let vcs = self.in_descs[dst.idx() * self.n_in + dst_port].vcs;
            return OutLink {
                kind: PortKind::Global,
                dst_router: dst.0,
                dst_port: dst_port as u16,
                latency: LAT_GLOBAL as u32,
                vcs,
                lane,
            };
        }
        // Physical ring output `j`: to the next router along ring `j`.
        // The wire spans the same distance as the underlying topology
        // step, so it gets the matching latency class.
        let j = port - self.n_canonical;
        let ring = &self.rings[j];
        let dst = ring.next_router(r);
        let latency = match ring.edge_from(r) {
            RingEdge::Local { .. } => LAT_LOCAL as u32,
            RingEdge::Global { .. } => LAT_GLOBAL as u32,
        };
        OutLink {
            kind: PortKind::Ring,
            dst_router: dst.0,
            dst_port: (self.n_canonical + j) as u16,
            latency,
            vcs: VCS_RING as u8,
            lane,
        }
    }

    // ----- index helpers ------------------------------------------------

    /// Input ports per router.
    #[inline]
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output ports per router.
    #[inline]
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Canonical (non-ring) ports per router.
    #[inline]
    pub fn n_canonical(&self) -> usize {
        self.n_canonical
    }

    /// Class of input port `port`.
    #[inline]
    pub fn in_kind(&self, port: usize) -> PortKind {
        let p = self.cfg.params.p;
        let a = self.cfg.params.a;
        let h = self.cfg.params.h;
        if port < p {
            PortKind::Node
        } else if port < p + a - 1 {
            PortKind::Local
        } else if port < p + a - 1 + h {
            PortKind::Global
        } else {
            PortKind::Ring
        }
    }

    /// Class of output port `port` (layout mirrors inputs).
    #[inline]
    pub fn out_kind(&self, port: usize) -> PortKind {
        self.in_kind(port)
    }

    /// Input-port index of injection port `node` (`0 .. p`).
    #[inline]
    pub fn inj_in(&self, node: usize) -> usize {
        debug_assert!(node < self.cfg.params.p);
        node
    }

    /// Input-port index of local port `j` (`0 .. a−1`).
    #[inline]
    pub fn local_in(&self, j: usize) -> usize {
        self.cfg.params.p + j
    }

    /// Input-port index of global port `k` (`0 .. h`).
    #[inline]
    pub fn global_in(&self, k: usize) -> usize {
        self.cfg.params.p + self.cfg.params.a - 1 + k
    }

    /// Output-port index of ejection port `node`.
    #[inline]
    pub fn eject_out(&self, node: usize) -> usize {
        debug_assert!(node < self.cfg.params.p);
        node
    }

    /// Output-port index of local port `j`.
    #[inline]
    pub fn local_out(&self, j: usize) -> usize {
        self.cfg.params.p + j
    }

    /// Output-port index of global port `k`.
    #[inline]
    pub fn global_out(&self, k: usize) -> usize {
        self.cfg.params.p + self.cfg.params.a - 1 + k
    }

    // ----- lookups -------------------------------------------------------

    /// The resolved output link of (`router`, `port`).
    #[inline]
    pub fn out_link(&self, router: RouterId, port: usize) -> &OutLink {
        &self.out_links[router.idx() * self.n_out + port]
    }

    /// The resolved output links of `router`, by port.
    #[inline]
    pub fn out_links(&self, router: RouterId) -> &[OutLink] {
        &self.out_links[router.idx() * self.n_out..][..self.n_out]
    }

    /// The input-port descriptor of (`router`, `port`).
    #[inline]
    pub fn in_desc(&self, router: RouterId, port: usize) -> &InDesc {
        &self.in_descs[router.idx() * self.n_in + port]
    }

    /// The input-port descriptors of `router`, by port.
    #[inline]
    pub fn in_descs(&self, router: RouterId) -> &[InDesc] {
        &self.in_descs[router.idx() * self.n_in..][..self.n_in]
    }

    /// The input VC slots of `router`'s inputs.
    #[inline]
    pub fn router_slots(&self, router: RouterId) -> std::ops::Range<usize> {
        let descs = self.in_descs(router);
        descs[0].slot as usize..descs[self.n_in - 1].slots().end
    }

    /// Arena index of VC `vc` of input (`router`, `port`): slots are
    /// numbered router by router, port by port, VC by VC, so one
    /// router's are consecutive.
    #[inline]
    pub fn in_slot(&self, router: RouterId, port: usize, vc: usize) -> usize {
        let d = self.in_desc(router, port);
        // In a flat array a VC the port lacks would alias its neighbour.
        assert!(vc < d.vcs as usize, "input {port} has no VC {vc}");
        d.slot as usize + vc
    }

    /// Arena index of the credit lane of output (`router`, `port`) for
    /// downstream VC `vc`, numbered like [`Self::in_slot`]. Ejection
    /// ports have no lanes.
    #[inline]
    pub fn out_lane(&self, router: RouterId, port: usize, vc: usize) -> usize {
        let link = self.out_link(router, port);
        // In a flat array a VC the port lacks would alias its neighbour.
        assert!(vc < link.vcs as usize, "output {port} has no VC {vc}");
        link.lane as usize + vc
    }

    /// The credit lanes of `router`'s outputs.
    #[inline]
    pub fn router_lanes(&self, router: RouterId) -> std::ops::Range<usize> {
        let links = self.out_links(router);
        links[0].lane as usize..links[self.n_out - 1].lanes().end
    }

    /// Buffer capacity of every input VC slot, in phits.
    #[inline]
    pub fn slot_caps(&self) -> &[u32] {
        &self.slot_caps
    }

    /// Capacity behind every credit lane: the far end's [`Self::slot_caps`].
    #[inline]
    pub fn lane_caps(&self) -> &[u32] {
        &self.lane_caps
    }

    /// VC count of an input of class `kind`, before any embedded
    /// escape VC.
    #[inline]
    pub fn base_vcs(&self, kind: PortKind) -> usize {
        match kind {
            PortKind::Node => self.cfg.vcs_injection,
            PortKind::Local => self.cfg.vcs_local,
            PortKind::Global => self.cfg.vcs_global,
            PortKind::Ring => VCS_RING,
        }
    }

    /// Escape outputs of a router, one per configured ring.
    #[inline]
    pub fn escapes(&self, router: RouterId) -> &[EscapeOut] {
        let k = self.rings.len();
        &self.escapes[router.idx() * k..router.idx() * k + k]
    }

    /// The primary escape output of a router (`None` when no ring is
    /// configured).
    #[inline]
    pub fn escape(&self, router: RouterId) -> Option<EscapeOut> {
        self.escapes(router).first().copied()
    }

    /// When (`port`, `vc`) of `router` is an escape-ring landing buffer,
    /// the index of the ring it belongs to.
    #[inline]
    pub fn ring_of_input(&self, router: RouterId, port: usize, vc: usize) -> Option<usize> {
        let (ring, esc_vc) = self.ring_landing[router.idx() * self.n_in + port];
        if ring < 0 {
            return None;
        }
        let physical = self.cfg.ring == RingMode::Physical;
        (physical || vc == esc_vc as usize).then_some(ring as usize)
    }

    /// Topology accessor.
    #[inline]
    pub fn topo(&self) -> &Dragonfly {
        &self.topo
    }

    /// Configuration accessor.
    #[inline]
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// The escape-ring family.
    #[inline]
    pub fn rings(&self) -> &[HamiltonianRing] {
        &self.rings
    }

    /// The primary escape ring, if any.
    #[inline]
    pub fn ring(&self) -> Option<&HamiltonianRing> {
        self.rings.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_port_count_is_4h_minus_1() {
        let fab = Fabric::new(SimConfig::paper(3));
        assert_eq!(fab.n_in(), 4 * 3 - 1);
        assert_eq!(fab.n_out(), 4 * 3 - 1);
    }

    #[test]
    fn physical_ring_adds_two_ports() {
        let fab = Fabric::new(SimConfig::paper(3).with_ring(RingMode::Physical));
        assert_eq!(fab.n_in(), 4 * 3);
        assert_eq!(fab.n_out(), 4 * 3);
        assert_eq!(fab.in_kind(fab.n_in() - 1), PortKind::Ring);
        // every router has an escape output on the ring port
        for r in 0..fab.topo().num_routers() {
            let esc = fab.escape(RouterId::from(r)).unwrap();
            assert_eq!(esc.out_port as usize, fab.n_out() - 1);
            assert_eq!(esc.num_vcs as usize, VCS_RING);
        }
    }

    /// Out-links mirror the input they land on; slots and lanes number
    /// their `(router, port, vc)` triples exactly once, in order; only
    /// ejection outputs have no lanes; a lane's capacity is its far end's.
    #[test]
    fn out_links_mirror_in_descs_and_offsets_cover_every_vc_once() {
        for h in [2, 4] {
            for ring in [RingMode::None, RingMode::Physical, RingMode::Embedded] {
                let fab = Fabric::new(SimConfig::paper(h).with_ring(ring));
                let (mut slot, mut lane) = (0, 0);
                for r in (0..fab.topo().num_routers()).map(RouterId::from) {
                    assert_eq!(fab.router_slots(r).start, slot);
                    assert_eq!(fab.router_lanes(r).start, lane);
                    for port in 0..fab.n_in() {
                        for vc in 0..fab.in_desc(r, port).vcs as usize {
                            assert_eq!(fab.in_slot(r, port, vc), slot);
                            slot += 1;
                        }
                    }
                    for (port, link) in fab.out_links(r).iter().enumerate() {
                        if link.kind == PortKind::Node {
                            assert_eq!((link.dst_router, link.vcs), (r.0, 0));
                            continue;
                        }
                        let d = fab.in_desc(RouterId::new(link.dst_router), link.dst_port as usize);
                        assert_eq!(
                            (d.kind, d.vcs, d.latency),
                            (link.kind, link.vcs, link.latency)
                        );
                        assert_eq!(
                            (d.up_router, d.up_port as usize),
                            (r.0, port),
                            "{r} port {port}"
                        );
                        for vc in 0..link.vcs as usize {
                            assert_eq!(fab.out_lane(r, port, vc), lane);
                            assert_eq!(
                                fab.lane_caps()[lane],
                                fab.slot_caps()[d.slot as usize + vc]
                            );
                            lane += 1;
                        }
                    }
                    assert_eq!(fab.router_slots(r).end, slot);
                    assert_eq!(fab.router_lanes(r).end, lane);
                }
                assert_eq!((slot, lane), (fab.slot_caps().len(), fab.lane_caps().len()));
            }
        }
    }

    #[test]
    fn embedded_ring_adds_one_vc_on_each_ring_landing() {
        let cfg = SimConfig::paper(2).with_ring(RingMode::Embedded);
        let fab = Fabric::new(cfg);
        let nr = fab.topo().num_routers();
        // Each router has exactly one incoming ring edge, so exactly one
        // input port network-wide per router carries an extra VC.
        let mut extra = 0usize;
        for r in 0..nr {
            let rid = RouterId::from(r);
            for port in 0..fab.n_in() {
                let d = fab.in_desc(rid, port);
                let base = fab.base_vcs(d.kind);
                if d.vcs as usize == base + 1 {
                    extra += 1;
                    // escape VC uses the ring buffer size
                    let cap = fab.slot_caps()[fab.in_slot(rid, port, base)];
                    assert_eq!(cap as usize, cfg.buf_ring);
                    assert_eq!(fab.ring_of_input(rid, port, base), Some(0));
                    assert_eq!(fab.ring_of_input(rid, port, 0), None);
                } else {
                    assert_eq!(d.vcs as usize, base);
                }
            }
            assert!(fab.escape(rid).is_some());
        }
        assert_eq!(extra, nr, "one ring landing per router");
    }

    #[test]
    fn escape_out_points_at_next_ring_router() {
        let cfg = SimConfig::paper(2).with_ring(RingMode::Embedded);
        let fab = Fabric::new(cfg);
        let ring = fab.ring().unwrap().clone();
        for &r in ring.order() {
            let esc = fab.escape(r).unwrap();
            let link = fab.out_link(r, esc.out_port as usize);
            assert_eq!(link.dst_router, ring.next_router(r).0);
            assert_eq!(esc.num_vcs, 1);
            // the escape VC is the downstream input's last VC
            assert_eq!(esc.base_vc, link.vcs - 1);
        }
    }

    #[test]
    fn multiple_embedded_rings_wire_disjoint_escape_vcs() {
        let mut cfg = SimConfig::paper(2).with_ring(RingMode::Embedded);
        cfg.escape_rings = 2;
        let fab = Fabric::new(cfg);
        let nr = fab.topo().num_routers();
        for r in 0..nr {
            let rid = RouterId::from(r);
            let escapes = fab.escapes(rid);
            assert_eq!(escapes.len(), 2);
            // the two escape outputs lead to the two rings' successors
            for (j, esc) in escapes.iter().enumerate() {
                let link = fab.out_link(rid, esc.out_port as usize);
                assert_eq!(link.dst_router, fab.rings()[j].next_router(rid).0);
                let landing = fab.ring_of_input(
                    RouterId::new(link.dst_router),
                    link.dst_port as usize,
                    esc.base_vc as usize,
                );
                assert_eq!(landing, Some(j));
            }
        }
        // exactly 2 landings per router
        let landings: usize = (0..nr)
            .map(|r| {
                (0..fab.n_in())
                    .filter(|&p| {
                        let d = fab.in_desc(RouterId::from(r), p);
                        fab.ring_of_input(RouterId::from(r), p, d.vcs as usize - 1)
                            .is_some()
                    })
                    .count()
            })
            .sum();
        assert_eq!(landings, 2 * nr);
    }

    #[test]
    fn multiple_physical_rings_add_port_pairs() {
        let mut cfg = SimConfig::paper(2).with_ring(RingMode::Physical);
        cfg.escape_rings = 2;
        let fab = Fabric::new(cfg);
        assert_eq!(fab.n_in(), fab.n_canonical() + 2);
        for r in 0..fab.topo().num_routers() {
            let rid = RouterId::from(r);
            assert_eq!(fab.escapes(rid).len(), 2);
            for j in 0..2 {
                assert_eq!(fab.ring_of_input(rid, fab.n_canonical() + j, 0), Some(j));
            }
        }
    }
}
