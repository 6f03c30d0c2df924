//! The routing-policy interface.
//!
//! The engine is routing-agnostic: every cycle it asks a [`Policy`] for a
//! single request per head-of-queue packet and arbitrates the requests.
//! Policies only see the *current router* (credits, busy state) plus
//! whatever internal state they maintain — matching OFAR's premise of
//! misrouting "without relying on remote sensing of the network status"
//! (§IV). Mechanisms that do use remote state (PB's broadcast) rebuild it
//! in [`Policy::end_cycle`] from a network snapshot, which models the
//! in-band broadcast explicitly.

use crate::fabric::{EscapeOut, Fabric, OutLink, PortKind};
use crate::fault::FaultState;
use crate::packet::{Packet, Request};
use ofar_topology::{GroupId, RouterId};

/// Read-only view of one router used while routing a packet.
pub struct RouterView<'a> {
    /// Static wiring.
    pub fab: &'a Fabric,
    /// The router being routed at.
    pub router: RouterId,
    /// Current cycle.
    pub now: u64,
    /// This router's output links, by port.
    links: &'a [OutLink],
    /// This router's output busy times, by port.
    out_busy: &'a [u64],
    /// This router's credit lanes and their capacities, the first of
    /// them arena lane `lane0` — the span of the arena a policy can see
    /// (§IV: local state only).
    credits: &'a [u32],
    caps: &'a [u32],
    lane0: usize,
    faults: &'a FaultState,
}

impl<'a> RouterView<'a> {
    /// The view of `router` over its own span of the arena: the busy
    /// times of its `n_out` outputs and the credits of its
    /// [`Fabric::router_lanes`]. Public, but hidden, for one reader
    /// outside the engine: the naive stepper of
    /// `crates/engine/tests/naive`, which routes over arrays of its own.
    #[doc(hidden)]
    pub fn new(
        fab: &'a Fabric,
        router: RouterId,
        now: u64,
        out_busy: &'a [u64],
        credits: &'a [u32],
        faults: &'a FaultState,
    ) -> Self {
        let links = fab.out_links(router);
        // Port 0 ejects, so its (empty) lane run starts the router's.
        let lane0 = links[0].lane as usize;
        Self {
            fab,
            router,
            now,
            links,
            out_busy,
            credits,
            caps: &fab.lane_caps()[lane0..][..credits.len()],
            lane0,
            faults,
        }
    }

    /// Index of (`port`, `vc`) in `credits`.
    #[inline]
    fn lane(&self, port: usize, vc: usize) -> usize {
        let link = &self.links[port];
        // In a flat array a VC the port lacks would alias its neighbour.
        assert!(vc < link.vcs as usize, "output {port} has no VC {vc}");
        link.lane as usize - self.lane0 + vc
    }

    /// Packet size in phits.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a validated packet_size fits u32"
    )]
    pub fn packet_phits(&self) -> u32 {
        self.fab.cfg().packet_size as u32
    }

    /// Group of the current router.
    #[inline]
    pub fn group(&self) -> GroupId {
        self.fab.topo().group_of(self.router)
    }

    /// Whether the output port is currently transmitting.
    #[inline]
    pub fn out_busy(&self, port: usize) -> bool {
        self.out_busy[port] > self.now
    }

    /// Available downstream credits of (`port`, `vc`) in phits.
    #[inline]
    pub fn credits(&self, port: usize, vc: usize) -> u32 {
        self.credits[self.lane(port, vc)]
    }

    /// Credit-estimated downstream occupancy of (`port`, `vc`) in
    /// `[0, 1]` — the `Q` of the misroute thresholds (§IV-B).
    #[inline]
    pub fn occupancy(&self, port: usize, vc: usize) -> f64 {
        let lane = self.lane(port, vc);
        let cap = self.caps[lane];
        if cap == 0 {
            return 0.0;
        }
        f64::from(cap - self.credits[lane]) / f64::from(cap)
    }

    /// Whether a whole packet can be granted to (`port`, `vc`) right now:
    /// the output link is alive, idle, and the downstream VC has space
    /// for the packet. Ejection ports only need an idle output (nodes
    /// are infinite sinks). Dead outputs (fault injection, §VII) are
    /// never available — adaptive mechanisms route around them exactly
    /// like congested ones.
    #[inline]
    pub fn available(&self, port: usize, vc: usize) -> bool {
        self.link_up(port) && self.grantable(port, vc, self.packet_phits())
    }

    /// Grant eligibility: `port` idle, and `need` phits of downstream
    /// space on `vc` (ejection: the node is an infinite sink).
    #[inline]
    pub(crate) fn grantable(&self, port: usize, vc: usize, need: u32) -> bool {
        !self.out_busy(port)
            && (self.links[port].kind == PortKind::Node || self.credits(port, vc) >= need)
    }

    /// Whether output `port` is alive (not failed).
    #[inline]
    pub fn link_up(&self, port: usize) -> bool {
        self.faults.link_up(self.router.idx(), port)
    }

    /// Whether escape ring `ring` is fully alive.
    #[inline]
    pub fn ring_up(&self, ring: usize) -> bool {
        self.faults.ring_up(ring)
    }

    /// The current fault state (liveness of links, routers and rings).
    #[inline]
    pub fn faults(&self) -> &FaultState {
        self.faults
    }

    /// The primary escape output of this router, if an escape ring is
    /// configured.
    #[inline]
    pub fn escape(&self) -> Option<EscapeOut> {
        self.fab.escape(self.router)
    }

    /// All escape outputs of this router (one per configured ring, §VII
    /// multi-ring extension).
    #[inline]
    pub fn escapes(&self) -> &[EscapeOut] {
        self.fab.escapes(self.router)
    }

    /// The escape (port, vc) with the most downstream credits across all
    /// configured *surviving* rings, if any. Rings with a failed link or
    /// router anywhere along them are skipped — packets must never enter
    /// a broken ring (§VII failover rule).
    pub fn best_escape_vc(&self) -> Option<(usize, usize)> {
        self.escapes()
            .iter()
            .enumerate()
            .filter(|&(ring, _)| self.ring_up(ring))
            .flat_map(|(_, esc)| {
                let port = esc.out_port as usize;
                (esc.base_vc..esc.base_vc + esc.num_vcs).map(move |vc| (port, vc as usize))
            })
            .max_by_key(|&(port, vc)| self.credits(port, vc))
    }

    /// Credit-estimated occupancy of this router's escape outputs across
    /// all *surviving* rings, in `[0, 1]` (0 when no ring is configured
    /// or every ring is dead). The escape-ring admission guard compares
    /// this against its threshold: a ring sensed nearly full is being
    /// used as a congestion sink, not an emergency escape.
    pub fn sensed_ring_occupancy(&self) -> f64 {
        let mut cap_sum = 0u64;
        let mut used = 0u64;
        for (ring, esc) in self.escapes().iter().enumerate() {
            if !self.ring_up(ring) {
                continue;
            }
            let port = esc.out_port as usize;
            for vc in esc.base_vc..esc.base_vc + esc.num_vcs {
                let lane = self.lane(port, vc as usize);
                let cap = self.caps[lane];
                cap_sum += u64::from(cap);
                used += u64::from(cap - self.credits[lane]);
            }
        }
        if cap_sum == 0 {
            0.0
        } else {
            used as f64 / cap_sum as f64
        }
    }

    /// The escape (port, vc) of one specific ring, with the most
    /// downstream credits among that ring's VCs. `None` for a dead ring.
    pub fn escape_vc_of_ring(&self, ring: usize) -> Option<(usize, usize)> {
        if !self.ring_up(ring) {
            return None;
        }
        let esc = self.escapes().get(ring)?;
        let port = esc.out_port as usize;
        (esc.base_vc..esc.base_vc + esc.num_vcs)
            .map(|vc| vc as usize)
            .max_by_key(|&vc| self.credits(port, vc))
            .map(|vc| (port, vc))
    }
}

/// Where the packet being routed currently waits.
#[derive(Clone, Copy, Debug)]
pub struct InputCtx {
    /// Input-port index.
    pub port: usize,
    /// VC index within the port.
    pub vc: usize,
    /// Port class (injection / local / global / ring).
    pub kind: PortKind,
    /// Whether the packet waits in an escape VC (embedded ring) or a
    /// physical ring buffer.
    pub is_escape_vc: bool,
}

/// Read-only view of the whole network, for per-cycle policy hooks.
pub struct NetSnapshot<'a> {
    /// Static wiring.
    pub fab: &'a Fabric,
    /// Current cycle.
    pub now: u64,
    /// Every credit lane of the network.
    credits: &'a [u32],
    faults: &'a FaultState,
}

impl<'a> NetSnapshot<'a> {
    /// The snapshot of the network at cycle `now` whose credit lanes
    /// ([`Fabric::out_lane`]) hold `credits`. Public, but hidden, for
    /// the naive stepper of `crates/engine/tests/naive`, as
    /// [`RouterView::new`] is; `Network::step` builds its own here too.
    #[doc(hidden)]
    pub fn new(fab: &'a Fabric, now: u64, credits: &'a [u32], faults: &'a FaultState) -> Self {
        Self {
            fab,
            now,
            credits,
            faults,
        }
    }

    /// Credit-estimated occupancy (in `[0, 1]`, aggregated over VCs) of
    /// global output `k` of `router`. This is the quantity each router
    /// would broadcast to its group under Piggybacking. A *failed*
    /// global link reports full occupancy — remote-sensing mechanisms
    /// (PB) then shun it exactly like a saturated one.
    pub fn global_out_occupancy(&self, router: RouterId, k: usize) -> f64 {
        let port = self.fab.global_out(k);
        if !self.faults.link_up(router.idx(), port) {
            return 1.0;
        }
        let link = self.fab.out_link(router, port);
        let cap: u32 = self.fab.lane_caps()[link.lanes()].iter().sum();
        if cap == 0 {
            return 0.0;
        }
        let credits: u32 = self.credits[link.lanes()].iter().sum();
        f64::from(cap - credits) / f64::from(cap)
    }

    /// The current fault state.
    #[inline]
    pub fn faults(&self) -> &FaultState {
        self.faults
    }
}

/// A routing mechanism.
///
/// The engine calls [`Policy::route`] for the packet at the head of every
/// input VC, every cycle, as long as the packet has not been granted —
/// this is exactly the "routing decision … revisited every cycle" model
/// of §V, and what enables OFAR's on-the-fly adaptivity.
pub trait Policy {
    /// Human-readable mechanism name (used in reports).
    fn name(&self) -> &'static str;

    /// Decide the request for the head packet of (`input.port`,
    /// `input.vc`). Returning `None` keeps the packet waiting this cycle.
    ///
    /// `pkt` is mutable for idempotent bookkeeping only (e.g. clearing a
    /// reached Valiant intermediate); irreversible state changes (header
    /// misroute flags, ring state) are applied by the engine when the
    /// request is *granted*, based on [`crate::packet::RequestKind`].
    fn route(
        &mut self,
        view: &RouterView<'_>,
        input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request>;

    /// Called every cycle a node *offers* the head of its source queue —
    /// its injection link is idle and, under congestion management, its
    /// token bucket holds a packet — and *before* the engine knows
    /// whether the injection VC this call picks has room. A head that
    /// does not fit stays in the source queue and is offered again next
    /// cycle, so a packet sees one call per offered cycle, not one per
    /// injection, and enters the network with what the last of them set
    /// up. Decides the injection VC and performs injection-time route
    /// setup (e.g. Valiant intermediate-group selection); PB and PAR
    /// depend on the repeated call — PB draws a fresh intermediate from
    /// the node's RNG lane on every blocked offer until it commits —
    /// so skipping it for a full buffer changes simulated behaviour.
    fn on_inject(&mut self, view: &RouterView<'_>, pkt: &mut Packet) -> usize;

    /// Per-cycle hook with a whole-network snapshot (e.g. the PB
    /// congestion broadcast). Default: no-op.
    fn end_cycle(&mut self, _net: &NetSnapshot<'_>) {}

    /// Whether the mechanism requires an escape ring to be deadlock-free.
    fn needs_ring(&self) -> bool {
        false
    }

    /// Serialize mechanism-internal dynamic state (RNG streams,
    /// congestion tables, patience counters) for a checkpoint. The
    /// engine owns framing and checksums; implementations just append
    /// raw little-endian bytes. Default: stateless, writes nothing.
    fn save_state(&self, _out: &mut Vec<u8>) {}

    /// Restore state captured by [`Policy::save_state`]. Must fail
    /// closed (an `Err`, never a panic) on bytes it does not recognize;
    /// on success the policy's future decision stream is bit-identical
    /// to the one it would have produced without the round-trip.
    /// Default: accepts only the empty state a stateless
    /// [`Policy::save_state`] writes.
    fn load_state(&mut self, data: &[u8]) -> Result<(), String> {
        if data.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} carries no serializable state but the snapshot has {} bytes of it",
                self.name(),
                data.len()
            ))
        }
    }
}
