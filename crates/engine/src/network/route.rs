//! The `route` phase, one router per shard: re-route every head-of-VC
//! packet from the router's own credits, match requests to outputs
//! with the separable allocator, and execute the grants — the paper's
//! mechanism (§IV–V).

use super::effect_commit::Effect;
use super::Network;
use crate::audit::AuditViolation;
use crate::fabric::PortKind;
use crate::hooks::{Hooks, RouteMark};
use crate::llr::Fate;
use crate::packet::{
    Packet, Request, RequestKind, FLAG_GLOBAL_MISROUTED, FLAG_LOCAL_MISROUTED, FLAG_ON_RING,
};
use crate::policy::{InputCtx, Policy, RouterView};
use crate::wheel::{Arrival, Credit};
use ofar_topology::RouterId;

/// A request collection kept: the input port and VC its packet heads,
/// what it asks for, and that VC's least-recently-served stamp.
pub(super) type Kept = (u16, u8, Request, u64);

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Phase 3: routing + separable iterative allocation + grant
    /// execution for one router.
    // lint:allow(P002, ports and VCs are bounded by SimConfig::validate: RadixTooLarge and TooManyVcs) lint:allow(R003, policy.route mutates per-mechanism state only; serialized per worker replica in the parallel plan)
    pub(super) fn route_and_allocate(&mut self, ridx: usize, now: u64) {
        let size = self.fab.cfg().packet_size as u32;
        let ring_need = self.hooks.ring_entry_need(size);
        let router = RouterId::from(ridx);

        // --- collect one request per head-of-VC packet, keeping those
        //     the allocator could grant ---
        self.hooks.route_mark(RouteMark::Collect);
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
            let occupied = &self.occ.port_pkts[ridx * n_in..][..n_in];
            let in_busy = &self.arena.in_busy[ridx * n_in..][..n_in];
            let queued = &self.arena.fifos.queued[self.fab.router_slots(router)];
            let heads = &mut self.arena.fifos.heads[self.fab.router_slots(router)];
            let served_at = &self.arena.vc_served_at[self.fab.router_slots(router)];
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
                    let Some(req) = self.policy.route(&view, ctx, pkt) else {
                        continue;
                    };
                    let out = req.out_port as usize;
                    // A dead output is never allocated, whatever the
                    // policy asked for (defence in depth — fault-aware
                    // policies already avoid dead ports). An output
                    // whose replay buffer is full is likewise skipped:
                    // the sender must retain every unacknowledged packet.
                    if !view.link_up(out)
                        || self.llr.as_ref().is_some_and(|l| !l.tx_has_room(ridx, out))
                    {
                        continue;
                    }
                    asked += 1;
                    // Eligibility is settled here, once: the busy times
                    // and credits it reads are borrowed for the whole
                    // turn, and the LRS stamps are only written by
                    // `execute_grant`, after allocation. Ring entry needs
                    // the bubble of §IV-C: normally two packets of room.
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
        self.hooks.route_mark(RouteMark::Allocate {
            polled,
            asked,
            kept,
        });
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
                    // candidates of this input port whose output is free.
                    let mut pick: Option<(u64, usize)> = None;
                    for (idx, &(_, _, req, stamp)) in
                        self.reqs[i..j].iter().enumerate().map(|(k, r)| (i + k, r))
                    {
                        if !self.matched_out[req.out_port as usize]
                            && pick.is_none_or(|(s, _)| stamp < s)
                        {
                            pick = Some((stamp, idx));
                        }
                    }
                    if let Some((_, idx)) = pick {
                        // Output stage: LRS over proposing inputs.
                        let out = self.reqs[idx].2.out_port as usize;
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
                    let (port, vc, req, _) = self.reqs[idx as usize];
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
}
