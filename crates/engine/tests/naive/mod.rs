//! A naive stepper for the lossless, fault-free core of `Network::step`:
//! the referee the engine's data structures are checked against, cycle
//! by cycle (`tests/referee.rs`). It is shaped like a textbook router
//! model and shares none of the engine's structure:
//!
//! * buffers: one `VecDeque` per input VC, by `[router][port][vc]`, and
//!   one per source queue, in place of the arena's pooled `Fifos` and
//!   `SrcQueues`;
//! * links: one `Vec` of in-flight arrivals and credits, kept sorted by
//!   landing cycle, in place of the timing wheel;
//! * polling: every router, port, VC and node is scanned every cycle, in
//!   place of the occupancy index's port masks and source bits;
//! * addressing: nodes, routers and groups by plain `/` and `%`;
//! * requests: every head's request is collected, then the allocator
//!   filters them, re-testing each one in every iteration;
//! * stamps: `u64` throughout.
//!
//! What it does share is the static `Fabric` (wiring, VC counts,
//! capacities) and the routing policy. It calls `on_inject`, `route`
//! and `end_cycle` in the engine's order, so every policy RNG draw lines
//! up, and reports `Tap::Transmit` and `Tap::Delivered` where the engine
//! does.

pub mod allocator;

use ofar_engine::config::ALLOC_ITERS;
use ofar_engine::{
    Fabric, FaultState, InputCtx, NetSnapshot, Packet, Policy, PortKind, Request, RequestKind,
    RouterView, Stats, Tap, FLAG_GLOBAL_MISROUTED, FLAG_LOCAL_MISROUTED, FLAG_ON_RING,
};
use ofar_topology::{GroupId, NodeId, RouterId};
use std::collections::VecDeque;

/// Something in flight on a link.
enum Event {
    /// A packet landing in input VC `[router][port][vc]`.
    Arrival {
        router: usize,
        port: usize,
        vc: usize,
        pkt: Packet,
    },
    /// `phits` of credit returning to output `[router][port]`, VC `vc`.
    Credit {
        router: usize,
        port: usize,
        vc: usize,
        phits: u32,
    },
}

/// The whole network, one field per piece of router state.
pub struct Naive<P: Policy> {
    fab: Fabric,
    policy: P,
    faults: FaultState,
    now: u64,
    next_id: u64,
    pub stats: Stats,
    /// Packets delivered per source node.
    pub per_src: Vec<u64>,
    /// `(id, cycle)` of every delivery, in delivery order.
    pub delivered: Vec<(u64, u64)>,
    /// The `Transmit` and `Delivered` taps, as the engine reports them.
    pub taps: Vec<Tap>,
    /// Per node: the source queue, and when injection is free again.
    src_q: Vec<VecDeque<Packet>>,
    inj_busy: Vec<u64>,
    /// `[router][in port][vc]`.
    bufs: Vec<Vec<Vec<VecDeque<Packet>>>>,
    vc_served_at: Vec<Vec<Vec<u64>>>,
    /// `[router][in port]`.
    in_busy: Vec<Vec<u64>>,
    /// `[router][out port]`.
    out_busy: Vec<Vec<u64>>,
    /// `[router][out port][in port]`.
    in_served_at: Vec<Vec<Vec<u64>>>,
    /// Per credit lane, in the fabric's lane order: the one array a
    /// `RouterView` and a `NetSnapshot` read.
    credits: Vec<u32>,
    /// `(landing cycle, event)`, sorted by cycle, in filing order within
    /// one.
    events: Vec<(u64, Event)>,
}

impl<P: Policy> Naive<P> {
    pub fn new(fab: Fabric, policy: P) -> Self {
        let (nr, n_in, n_out) = (fab.topo().num_routers(), fab.n_in(), fab.n_out());
        let nodes = fab.topo().num_nodes();
        let vcs = |r: usize, port: usize| fab.in_desc(RouterId::from(r), port).vcs as usize;
        Self {
            faults: FaultState::new(&fab),
            now: 0,
            next_id: 0,
            stats: Stats::default(),
            per_src: vec![0; nodes],
            delivered: Vec::new(),
            taps: Vec::new(),
            src_q: vec![VecDeque::new(); nodes],
            inj_busy: vec![0; nodes],
            bufs: (0..nr)
                .map(|r| {
                    (0..n_in)
                        .map(|port| vec![VecDeque::new(); vcs(r, port)])
                        .collect()
                })
                .collect(),
            vc_served_at: (0..nr)
                .map(|r| (0..n_in).map(|port| vec![0; vcs(r, port)]).collect())
                .collect(),
            in_busy: vec![vec![0; n_in]; nr],
            out_busy: vec![vec![0; n_out]; nr],
            in_served_at: vec![vec![vec![0; n_in]; n_out]; nr],
            credits: fab.lane_caps().to_vec(),
            events: Vec::new(),
            fab,
            policy,
        }
    }

    fn size(&self) -> u32 {
        u32::try_from(self.fab.cfg().packet_size).unwrap()
    }

    /// Whether every generated packet has been delivered.
    pub fn drained(&self) -> bool {
        self.stats.generated_packets == self.stats.delivered_packets
    }

    /// `Network::generate`: a fresh packet at the back of `src`'s queue.
    pub fn generate(&mut self, src: NodeId, dst: NodeId) {
        let p = &self.fab.cfg().params;
        let group = src.idx() / (p.p * p.a);
        let pkt = Packet {
            id: self.next_id,
            injected_at: self.now.try_into().unwrap(),
            src,
            dst,
            intermediate: None,
            flags: 0,
            ring_exits_left: self.fab.cfg().max_ring_exits,
            local_hops: 0,
            global_hops: 0,
            ring_hops: 0,
            wait: 0,
            cur_group: GroupId::new(u32::try_from(group).unwrap()),
        };
        self.next_id += 1;
        self.stats.generated_packets += 1;
        self.src_q[src.idx()].push_back(pkt);
    }

    /// File `ev` to land at cycle `at`, behind everything filed for it.
    fn file(&mut self, at: u64, ev: Event) {
        let i = self.events.partition_point(|&(t, _)| t <= at);
        self.events.insert(i, (at, ev));
    }

    /// Phits buffered in input VC `[r][port][vc]`, and its capacity.
    fn room(&self, r: usize, port: usize, vc: usize) -> (u32, u32) {
        let used = u32::try_from(self.bufs[r][port][vc].len()).unwrap() * self.size();
        let cap = self.fab.slot_caps()[self.fab.in_slot(RouterId::from(r), port, vc)];
        (used, cap)
    }

    /// One cycle: deliver, inject, route every router, end the cycle.
    pub fn step(&mut self) {
        self.deliver();
        self.inject();
        for r in 0..self.fab.topo().num_routers() {
            self.route(r);
        }
        let snap = NetSnapshot::new(&self.fab, self.now, &self.credits, &self.faults);
        self.policy.end_cycle(&snap);
        self.now += 1;
    }

    fn deliver(&mut self) {
        let due = self.events.partition_point(|&(t, _)| t <= self.now);
        let landing: Vec<_> = self.events.drain(..due).collect();
        for (at, ev) in landing {
            assert_eq!(at, self.now, "an event was left behind");
            match ev {
                Event::Arrival {
                    router,
                    port,
                    vc,
                    mut pkt,
                } => {
                    let a = self.fab.cfg().params.a;
                    pkt.land_in(GroupId::new(u32::try_from(router / a).unwrap()));
                    let (used, cap) = self.room(router, port, vc);
                    assert!(used + self.size() <= cap, "VC overflow");
                    self.bufs[router][port][vc].push_back(pkt);
                }
                Event::Credit {
                    router,
                    port,
                    vc,
                    phits,
                } => {
                    let lane = self.fab.out_lane(RouterId::from(router), port, vc);
                    self.credits[lane] += phits;
                }
            }
        }
    }

    fn inject(&mut self) {
        let (now, size) = (self.now, self.size());
        let p = self.fab.cfg().params.p;
        for node in 0..self.src_q.len() {
            if self.src_q[node].is_empty() || self.inj_busy[node] > now {
                continue;
            }
            let (r, port) = (node / p, self.fab.inj_in(node % p));
            let router = RouterId::from(r);
            let view = RouterView::new(
                &self.fab,
                router,
                now,
                &self.out_busy[r],
                &self.credits[self.fab.router_lanes(router)],
                &self.faults,
            );
            let head = self.src_q[node].front_mut().unwrap();
            let vc = self.policy.on_inject(&view, head);
            assert!(vc < self.bufs[r][port].len(), "injection VC out of range");
            let (used, cap) = self.room(r, port, vc);
            if used + size <= cap {
                let pkt = self.src_q[node].pop_front().unwrap();
                self.bufs[r][port][vc].push_back(pkt);
                self.inj_busy[node] = now + u64::from(size);
                self.stats.injected_packets += 1;
            }
        }
    }

    /// One router's turn: every head's request, the allocator, the grants.
    fn route(&mut self, r: usize) {
        let (now, size) = (self.now, self.size());
        let router = RouterId::from(r);
        let n_in = self.fab.n_in();
        let Self {
            fab,
            policy,
            faults,
            bufs,
            vc_served_at,
            in_busy,
            out_busy,
            in_served_at,
            credits,
            ..
        } = self;
        let view = RouterView::new(
            fab,
            router,
            now,
            &out_busy[r],
            &credits[fab.router_lanes(router)],
            faults,
        );
        let mut asked = Vec::new();
        for port in 0..n_in {
            if in_busy[r][port] > now {
                continue; // still streaming a packet
            }
            let kind = fab.in_kind(port);
            for (vc, fifo) in bufs[r][port].iter_mut().enumerate() {
                let Some(pkt) = fifo.front_mut() else {
                    continue;
                };
                let ctx = InputCtx {
                    port,
                    vc,
                    kind,
                    is_escape_vc: kind == PortKind::Ring || vc >= fab.base_vcs(kind),
                };
                if let Some(req) = policy.route(&view, ctx, pkt) {
                    if view.link_up(req.out_port as usize) {
                        asked.push((port as u16, vc as u8, req));
                    }
                }
            }
        }
        let grantable = |req: Request| {
            let out = req.out_port as usize;
            let need = match req.kind {
                RequestKind::RingEnter => 2 * size,
                _ => size,
            };
            !view.out_busy(out)
                && (fab.out_kind(out) == PortKind::Node
                    || view.credits(out, req.out_vc as usize) >= need)
        };
        let grants = allocator::allocate(
            &asked,
            grantable,
            |port, vc| vc_served_at[r][port][vc],
            |out, port| in_served_at[r][out][port],
            n_in,
            fab.n_out(),
            ALLOC_ITERS,
        );
        for (port, vc, req) in grants {
            self.grant(r, port as usize, vc as usize, req);
        }
    }

    fn grant(&mut self, r: usize, port: usize, vc: usize, req: Request) {
        let (now, size) = (self.now, self.size());
        let router = RouterId::from(r);
        let out = req.out_port as usize;
        let mut pkt = self.bufs[r][port][vc].pop_front().unwrap();
        pkt.wait = 0;
        self.in_busy[r][port] = now + u64::from(size);
        self.vc_served_at[r][port][vc] = now + 1;
        self.in_served_at[r][out][port] = now + 1;
        self.out_busy[r][out] = now + u64::from(size);
        self.stats.last_grant = now;
        self.taps.push(Tap::Transmit(router, out, size));

        let up = *self.fab.in_desc(router, port);
        if up.up_router != u32::MAX {
            self.file(
                now + u64::from(up.latency),
                Event::Credit {
                    router: up.up_router as usize,
                    port: usize::from(up.up_port),
                    vc,
                    phits: size,
                },
            );
        }

        let was_on_ring = pkt.on_ring();
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
                assert!(!was_on_ring);
                pkt.set(FLAG_ON_RING);
                self.stats.ring_entries += 1;
            }
            RequestKind::RingAdvance => {
                assert!(was_on_ring);
                self.stats.ring_advances += 1;
            }
            RequestKind::RingExit => {
                assert!(was_on_ring);
                pkt.clear(FLAG_ON_RING);
                pkt.ring_exits_left = pkt.ring_exits_left.saturating_sub(1);
                self.stats.ring_exits += 1;
            }
        }

        let link = *self.fab.out_link(router, out);
        if req.kind == RequestKind::Eject {
            assert_eq!(
                pkt.dst.idx() / self.fab.cfg().params.p,
                r,
                "ejecting at the wrong router"
            );
            let latency = now + u64::from(size) - u64::from(pkt.injected_at);
            self.stats.delivered_packets += 1;
            self.stats.delivered_phits += u64::from(size);
            self.per_src[pkt.src.idx()] += 1;
            self.stats.latency_sum += latency;
            let hops =
                u64::from(pkt.local_hops) + u64::from(pkt.global_hops) + u64::from(pkt.ring_hops);
            self.stats.hop_sum += hops;
            self.taps
                .push(Tap::Delivered(u64::from(pkt.injected_at), latency));
            self.stats.last_delivery = now;
            if was_on_ring {
                self.stats.ring_deliveries += 1;
            }
            self.delivered.push((pkt.id, now));
            return;
        }
        if matches!(req.kind, RequestKind::RingEnter | RequestKind::RingAdvance) {
            pkt.ring_hops = pkt.ring_hops.saturating_add(1);
        } else {
            match link.kind {
                PortKind::Local => pkt.local_hops = pkt.local_hops.saturating_add(1),
                PortKind::Global => pkt.global_hops = pkt.global_hops.saturating_add(1),
                kind => panic!("a {kind:?} output for a canonical hop"),
            }
        }
        self.credits[self.fab.out_lane(router, out, req.out_vc as usize)] -= size;
        self.file(
            now + u64::from(link.latency),
            Event::Arrival {
                router: link.dst_router as usize,
                port: usize::from(link.dst_port),
                vc: usize::from(req.out_vc),
                pkt,
            },
        );
    }
}
