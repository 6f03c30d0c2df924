//! The `llr_timers` phase and the rest of the engine's side of the
//! link-level retransmission layer (see [`crate::llr`]): switching it
//! on, the per-cycle ack/timeout/retransmit pass, the flush of a link
//! that just died, and the retry counters.

use super::Network;
use crate::fabric::PortKind;
use crate::fault::FaultKind;
use crate::hooks::{Hooks, Tap};
use crate::llr::{Fate, Llr};
use crate::policy::Policy;
use crate::wheel::Arrival;
use ofar_topology::RouterId;

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Enable the link-level retransmission layer (see [`crate::llr`]):
    /// every network link gets a replay buffer, CRC/sequence checking and
    /// ack/nack recovery. `set_fault_plan` calls it for a plan with
    /// transient wire-error events (a nonzero `cfg.ber` has the layer
    /// built with the network). Must be enabled before any packet is in
    /// flight (link arrivals already on the wire would have no sequence
    /// metadata).
    pub(super) fn enable_llr(&mut self) {
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

    /// LLR timer phase (after event delivery, before injection and
    /// allocation): per directed link, process the acks and nacks that
    /// arrived this cycle, expire overdue transfers, and issue at most
    /// one retransmission per link per idle wire — or escalate a link
    /// whose oldest lost transfer has exhausted the retry budget to the
    /// §VII fail-stop path, where degraded routing takes over.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a validated packet_size fits u32"
    )]
    #[expect(clippy::expect_used, reason = "the caller checked self.llr: LLR is on")]
    pub(super) fn llr_phase(&mut self, now: u64) {
        let size = self.fab.cfg().packet_size as u32;
        let backoff_cap = self.fab.cfg().llr_backoff_cap;
        let budget = self.fab.cfg().llr_retry_budget;
        let n_out = self.fab.n_out();
        // `Vec::new` does not allocate; pushes happen only on link death.
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
                self.hooks.tap(Tap::Transmit(rid, port, size));
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

    /// Force-deliver the undelivered replay entries of every LLR link
    /// whose fail-stop liveness just went down (both directions — the
    /// sweep is idempotent: already-flushed links have empty buffers).
    #[expect(clippy::expect_used, reason = "the caller checked self.llr: LLR is on")]
    pub(super) fn llr_flush_dead_links(&mut self) {
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
                // A link failed mid-step (an `llr_timers` escalation)
                // keeps the acks `deliver` queued this cycle, which land
                // at `now + latency`; every earlier one lands before.
                let forced = llr.take_undelivered(
                    ridx,
                    port,
                    link.dst_router as usize,
                    link.dst_port as usize,
                    self.now + u64::from(link.latency),
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
                    self.occ.port_pkts[link.dst_router as usize * n_in + link.dst_port as usize] +=
                        1;
                    self.occ.port_mask[link.dst_router as usize] |= 1 << link.dst_port;
                }
            }
        }
    }
}
