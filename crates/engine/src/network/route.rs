//! The `route` phase, one router turn at a time: re-route every head-of-VC
//! packet from the router's own credits, match requests to outputs
//! with the separable allocator, and execute the grants — the paper's
//! mechanism (§IV–V).

use super::Network;
use crate::audit::AuditViolation;
use crate::config::ALLOC_ITERS;
use crate::fabric::PortKind;
use crate::hooks::{Hooks, Tap};
use crate::llr::Fate;
use crate::packet::{
    Packet, Request, RequestKind, FLAG_GLOBAL_MISROUTED, FLAG_LOCAL_MISROUTED, FLAG_ON_RING,
};
use crate::policy::{InputCtx, Policy, RouterView};
use crate::wheel::{Arrival, Credit};
use ofar_topology::RouterId;

/// A request collection kept: the input port and VC its packet heads,
/// what it asks for, and that VC's least-recently-served stamp.
pub(super) type Kept = (u16, u8, Request, u32);

/// The iterative separable allocator of §V — input stage then output
/// stage, LRS arbiters at both, `iters` iterations — over the requests
/// one router turn kept, in input-port order. All are grantable, so a
/// lone one is granted outright and the iterations only keep inputs and
/// outputs from being matched twice: the sets are bit words
/// (`SimConfig::validate` bounds the radix by their width), `best_out`
/// is read only where this iteration proposed, nothing is cleared or
/// scanned per port. Grants come in ascending output order within an
/// iteration, the order the wheel and the LLR queues have always seen.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a request index is below a router's VC count"
)]
fn allocate(
    reqs: &[Kept],
    in_served_at: &[u32],
    n_in: usize,
    iters: usize,
    best_out: &mut [(u32, u32)],
    grants: &mut Vec<(u16, u8, Request)>,
) {
    if let [(port, vc, req, _)] = *reqs {
        grants.push((port, vc, req));
        return;
    }
    let (mut inputs_matched, mut outputs_matched) = (0u64, 0u64);
    for _ in 0..iters {
        let mut proposed = 0u64;
        let mut i = 0;
        while i < reqs.len() {
            let in_port = reqs[i].0;
            let mut j = i + 1;
            while j < reqs.len() && reqs[j].0 == in_port {
                j += 1;
            }
            if inputs_matched >> in_port & 1 == 0 {
                // Input stage: least-recently-served VC among those of
                // this input port whose output is still free.
                let mut pick: Option<(u32, usize)> = None;
                for (k, &(_, _, req, stamp)) in reqs[i..j].iter().enumerate() {
                    if outputs_matched >> req.out_port & 1 == 0
                        && pick.is_none_or(|(s, _)| stamp < s)
                    {
                        pick = Some((stamp, i + k));
                    }
                }
                if let Some((_, idx)) = pick {
                    // Output stage: LRS over proposing inputs.
                    let out = reqs[idx].2.out_port as usize;
                    let stamp = in_served_at[out * n_in + in_port as usize];
                    if proposed >> out & 1 == 0 || stamp < best_out[out].0 {
                        best_out[out] = (stamp, idx as u32);
                        proposed |= 1 << out;
                    }
                }
            }
            i = j;
        }
        if proposed == 0 {
            break;
        }
        while proposed != 0 {
            let out = proposed.trailing_zeros() as usize;
            proposed &= proposed - 1;
            let (port, vc, req, _) = reqs[best_out[out].1 as usize];
            inputs_matched |= 1 << port;
            outputs_matched |= 1 << out;
            grants.push((port, vc, req));
        }
    }
}

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Phase 3: routing + separable iterative allocation + grant
    /// execution for one router.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "ports and VCs are bounded by SimConfig::validate: RadixTooLarge and TooManyVcs"
    )]
    pub(super) fn route_and_allocate(&mut self, ridx: usize, now: u64) {
        let size = self.fab.cfg().packet_size as u32;
        let ring_need = self.hooks.ring_entry_need(size);
        let router = RouterId::from(ridx);

        // --- collect one request per head-of-VC packet, keeping those
        //     the allocator could grant ---
        self.hooks.tap(Tap::Collect);
        let (mut polled, mut asked) = (0, 0);
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
            let in_busy = &self.arena.in_busy[ridx * n_in..][..n_in];
            let queued = &self.arena.fifos.queued[self.fab.router_slots(router)];
            let heads = &mut self.arena.fifos.heads[self.fab.router_slots(router)];
            let served_at = &self.arena.vc_served_at[self.fab.router_slots(router)];
            let descs = self.fab.in_descs(router);
            // Only the ports that hold a packet are visited, in port order.
            let mut occupied = self.occ.port_mask[ridx];
            while occupied != 0 {
                let port = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                if in_busy[port] > now {
                    continue; // still streaming a packet
                }
                let desc = &descs[port];
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
                    let Some(req) = self.policy.route(&view, ctx, pkt) else {
                        continue;
                    };
                    let out = req.out_port as usize;
                    // A dead output is never allocated, whatever the
                    // policy asked for (defence in depth — fault-aware
                    // policies already avoid dead ports), nor one whose
                    // replay buffer is full: the sender must retain every
                    // unacknowledged packet.
                    if !view.link_up(out)
                        || self.llr.as_ref().is_some_and(|l| !l.tx_has_room(ridx, out))
                    {
                        continue;
                    }
                    asked += 1;
                    // Eligibility is settled here, once: the busy times
                    // and credits it reads are borrowed for the whole
                    // turn, the LRS stamps only written after allocation.
                    // Ring entry needs the bubble of §IV-C: normally two
                    // packets of room.
                    let need = match req.kind {
                        RequestKind::RingEnter => ring_need,
                        _ => size,
                    };
                    if view.grantable(out, req.out_vc as usize, need) {
                        self.reqs
                            .push((port as u16, vc as u8, req, served_at[first + vc]));
                    }
                }
            }
        }
        let kept = self.reqs.len();
        self.hooks.tap(Tap::Allocate {
            polled,
            asked,
            kept,
        });
        if kept == 0 {
            return;
        }
        self.grants.clear();
        allocate(
            &self.reqs,
            &self.arena.in_served_at[ridx * n_out * n_in..][..n_out * n_in],
            n_in,
            ALLOC_ITERS,
            &mut self.best_out,
            &mut self.grants,
        );

        // --- execute grants ---
        let grants = self.grants.len();
        self.hooks.tap(Tap::Execute { grants });
        for gi in 0..self.grants.len() {
            let (in_port, vc, req) = self.grants[gi];
            self.execute_grant(ridx, in_port as usize, vc as usize, req, now);
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::unreachable,
        reason = "vc/router ids and latencies bounded by fabric dimensions and run length, LRS stamps by LAST_CYCLE; canonical grants are eject-only by construction in route_and_allocate"
    )]
    fn execute_grant(&mut self, ridx: usize, in_port: usize, vc: usize, req: Request, now: u64) {
        let size = self.fab.cfg().packet_size as u32;
        let router = RouterId::from(ridx);
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
        self.occ.port_pkts[ridx * n_in + in_port] -= 1;
        if self.occ.port_pkts[ridx * n_in + in_port] == 0 {
            self.occ.port_mask[ridx] &= !(1 << in_port);
        }
        pkt.wait = 0; // the head-blocked counter restarts at the next hop
        self.arena.in_busy[ridx * n_in + in_port] = now + u64::from(size);
        // LRS stamps (0 = never); `step` keeps `now + 1` within u32.
        let stamp = (now + 1) as u32;
        self.arena.vc_served_at[self.fab.in_slot(router, in_port, vc)] = stamp;
        self.arena.in_served_at[(ridx * n_out + out_port) * n_in + in_port] = stamp;
        self.arena.out_busy[ridx * n_out + out_port] = now + u64::from(size);
        self.stats.last_grant = now;
        self.router_last_grant[ridx] = now;
        self.hooks.tap(Tap::Transmit(router, out_port, size));

        // Credit return to the upstream router feeding this input.
        let desc = *self.fab.in_desc(router, in_port);
        if desc.up_router != u32::MAX {
            self.wheel.file_credit(
                now + u64::from(desc.latency),
                Credit {
                    router: desc.up_router,
                    port: desc.up_port,
                    vc: vc as u8,
                    phits: size,
                },
            );
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
                let injected_at = u64::from(pkt.injected_at);
                let latency = now + u64::from(size) - injected_at;
                self.stats.delivered_packets += 1;
                self.stats.delivered_phits += u64::from(size);
                self.delivered_per_src[pkt.src.idx()] += 1;
                self.stats.latency_sum += latency;
                let hops = u32::from(pkt.local_hops)
                    + u32::from(pkt.global_hops)
                    + u32::from(pkt.ring_hops);
                self.stats.hop_sum += u64::from(hops);
                self.hooks.tap(Tap::Delivered(injected_at, latency));
                self.stats.last_delivery = now;
                if was_on_ring {
                    self.stats.ring_deliveries += 1;
                }
                if let Some(log) = self.delivered_log.as_mut() {
                    // `step` sorts the cycle's entries after `route`.
                    log.push((injected_at, latency as u32));
                }
                // End-to-end exactly-once accounting: the link layer
                // dedups spurious retransmissions at every hop, so a
                // second ejection of one id means the protocol leaked.
                if let Some(llr) = self.llr.as_mut() {
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
    }

    /// Put a granted packet on the wire. Lossless path: file the
    /// arrival. LLR path: sample the transfer's fate under the link's
    /// effective error rate (one-shot injected faults first), record the
    /// replay entry, and file the arrival unless the wire ate it — a
    /// dropped transfer leaves only the replay copy, recovered by the
    /// retransmit timeout. The credit was already taken by the caller
    /// and is not taken again on retries.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a validated packet_size fits u32"
    )]
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
            // lands (`now + latency`, next cycle at the earliest).
            llr.push_wire(
                link.dst_router as usize,
                link.dst_port as usize,
                seq,
                wire_crc,
            );
        }
        self.wheel.file_arrival(
            now + u64::from(link.latency),
            Arrival {
                router: link.dst_router,
                port: link.dst_port,
                vc: req.out_vc,
                pkt,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, MAX_PORTS};
    use crate::fabric::Fabric;
    use ofar_topology::NodeId;

    /// One router turn as the allocator meets it: what collection was
    /// asked for, and the state eligibility and the two LRS arbiters
    /// read. Ports below `n_eject` are ejection outputs.
    struct Turn {
        n_in: usize,
        n_out: usize,
        n_eject: usize,
        size: u32,
        ring_need: u32,
        iters: usize,
        /// (input port, VC, request), in input-port order.
        asked: Vec<(u16, u8, Request)>,
        busy: Vec<bool>,
        /// `[out][vc]`.
        credits: Vec<[u32; 4]>,
        /// `[in][vc]`.
        vc_served_at: Vec<[u32; 4]>,
        /// `[out × n_in + in]`.
        in_served_at: Vec<u32>,
    }

    impl Turn {
        /// `RouterView::grantable`, over this turn's state.
        fn grantable(&self, req: Request) -> bool {
            let need = match req.kind {
                RequestKind::RingEnter => self.ring_need,
                _ => self.size,
            };
            let out = req.out_port as usize;
            !self.busy[out]
                && (out < self.n_eject || self.credits[out][req.out_vc as usize] >= need)
        }

        /// The engine's turn: keep the grantable requests with
        /// their VC stamps, then [`allocate`] — over a `best_out` left
        /// dirty by earlier turns.
        fn granted(&self) -> Vec<(u16, u8, Request)> {
            let kept: Vec<Kept> = self
                .asked
                .iter()
                .filter(|&&(_, _, req)| self.grantable(req))
                .map(|&(port, vc, req)| {
                    let stamp = self.vc_served_at[port as usize][vc as usize];
                    (port, vc, req, stamp)
                })
                .collect();
            let mut best_out = vec![(0, u32::MAX); self.n_out];
            let mut grants = Vec::new();
            if !kept.is_empty() {
                allocate(
                    &kept,
                    &self.in_served_at,
                    self.n_in,
                    self.iters,
                    &mut best_out,
                    &mut grants,
                );
            }
            grants
        }
    }

    fn quiet_turn(ports: usize, asked: Vec<(u16, u8, Request)>) -> Turn {
        Turn {
            n_in: ports,
            n_out: ports,
            n_eject: 1,
            size: 8,
            ring_need: 16,
            iters: 3,
            asked,
            busy: vec![false; ports],
            credits: vec![[32; 4]; ports],
            vc_served_at: vec![[0; 4]; ports],
            in_served_at: vec![0; ports * ports],
        }
    }

    #[test]
    fn a_lone_request_is_granted_iff_grantable() {
        for kind in [RequestKind::Minimal, RequestKind::RingEnter] {
            let asked = vec![(3, 1, Request::new(2, 0, kind))];
            let mut turn = quiet_turn(4, asked.clone());
            assert_eq!(turn.granted(), asked);
            // One packet of room: enough for a hop, not for the bubble.
            turn.credits[2][0] = 8;
            let want = if kind == RequestKind::RingEnter {
                vec![]
            } else {
                asked
            };
            assert_eq!(turn.granted(), want);
            turn.busy[2] = true;
            assert_eq!(turn.granted(), vec![]);
        }
    }

    /// Every input on one output: one grant however many iterations, to
    /// the input that output served longest ago — the first of those
    /// that tie.
    #[test]
    fn all_inputs_on_one_output_grant_the_least_recently_served() {
        let ports = MAX_PORTS;
        let out = ports - 1;
        let asked: Vec<_> = (0..ports)
            .map(|port| (port as u16, 0, Request::new(out, 0, RequestKind::Minimal)))
            .collect();
        let mut turn = quiet_turn(ports, asked);
        for port in 0..ports {
            turn.in_served_at[out * ports + port] = 9;
        }
        turn.in_served_at[out * ports + 40] = 5;
        turn.in_served_at[out * ports + 50] = 5;
        assert_eq!(turn.granted(), vec![turn.asked[40]]);
    }

    /// A policy that asks for local output 0, VC 0, whatever the packet.
    struct AskLocal0;

    impl Policy for AskLocal0 {
        fn name(&self) -> &'static str {
            "ask-local-0"
        }

        fn route(&mut self, view: &RouterView<'_>, _: InputCtx, _: &mut Packet) -> Option<Request> {
            Some(Request::new(view.fab.local_out(0), 0, RequestKind::Minimal))
        }

        fn on_inject(&mut self, _: &RouterView<'_>, _: &mut Packet) -> usize {
            0
        }
    }

    #[derive(Default)]
    struct Marks(Vec<Tap>);

    impl Hooks for Marks {
        fn tap(&mut self, ev: Tap) {
            if matches!(
                ev,
                Tap::Collect | Tap::Allocate { .. } | Tap::Execute { .. }
            ) {
                self.0.push(ev);
            }
        }
    }

    /// A turn whose only request cannot be granted ends at the
    /// `Allocate` tap — no `Execute`, nothing pushed, `best_out` as it
    /// was; once the output has room the lone request is granted.
    #[test]
    fn a_turn_of_ungrantable_requests_ends_before_allocation() {
        let cfg = SimConfig::paper(2);
        let mut net = Network::with_hooks(Fabric::new(cfg), AskLocal0, Marks::default());
        let lane = net.fab.out_lane(RouterId::new(0), net.fab.local_out(0), 0);
        net.arena.credits[lane] = 0;
        net.generate(NodeId::new(0), NodeId::new(40));
        net.step();
        let asked_one = |kept| Tap::Allocate {
            polled: 1,
            asked: 1,
            kept,
        };
        assert_eq!(net.hooks.0, [Tap::Collect, asked_one(0)]);
        assert!(net.reqs.is_empty() && net.grants.is_empty());
        assert!(net.best_out.iter().all(|&b| b == (0, 0)));
        assert_eq!(net.stats.last_grant, 0);

        net.hooks.0.clear();
        net.arena.credits[lane] = cfg.packet_size as u32;
        net.step();
        let granted = [Tap::Collect, asked_one(1), Tap::Execute { grants: 1 }];
        assert_eq!(net.hooks.0, granted);
        assert_eq!(net.stats.last_grant, 1);
        assert!(net.best_out.iter().all(|&b| b == (0, 0)));
    }
}
