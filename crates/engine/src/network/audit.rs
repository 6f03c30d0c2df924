//! The `audit` phase: the whole-network deep checks (see
//! [`crate::audit`] for the violations they report) and the
//! conservation sums they are built from.

#![allow(
    clippy::cast_possible_truncation,
    reason = "the deep checks run at audit intervals under a recording hook, never in a plain `step`; record fields are bounded by the fabric dimensions"
)]

use super::Network;
use crate::audit::AuditViolation;
use crate::config::LLR_WINDOW;
use crate::fabric::PortKind;
use crate::hooks::Hooks;
use crate::occupancy::Occupancy;
use crate::policy::Policy;
use crate::wheel::Backlog;
use ofar_topology::RouterId;

impl<P: Policy, H: Hooks> Network<P, H> {
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
    pub(super) fn deep_audit(&self, now: u64) -> (u64, Vec<AuditViolation>) {
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
        let backlog = self.wheel.backlog(&self.fab);
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
                    if occ > LLR_WINDOW {
                        viols.push(AuditViolation::ReplayOverflow {
                            cycle: now,
                            router: ridx as u32,
                            port: port as u16,
                            occupancy: occ as u32,
                            window: LLR_WINDOW as u32,
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
                        .filter(|(_, c)| c.vc == lane)
                        .map(|(_, c)| u64::from(c.phits))
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
    fn credit_sum(&self, backlog: &Backlog<'_>, ridx: usize, port: usize, vc: usize) -> u32 {
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
                .filter(|(_, a)| a.vc as usize == vc)
                .count(),
        };
        let inflight_credits: u32 = backlog
            .credits(ridx, port)
            .iter()
            .filter(|(_, c)| c.vc as usize == vc)
            .map(|(_, c)| c.phits)
            .sum();
        let dst_slot = self
            .fab
            .in_slot(RouterId::new(link.dst_router), dst_port, vc);
        self.arena.credits[self.fab.out_lane(RouterId::from(ridx), port, vc)]
            + self.arena.fifos.occupancy(dst_slot)
            + reserved as u32 * size
            + inflight_credits
    }

    /// Total phits currently inside the system (source queues, buffers
    /// and links). Delivered + inside must equal generated at all times
    /// (phit conservation).
    pub fn phits_in_system(&self) -> u64 {
        let size = self.fab.cfg().packet_size as u64;
        let src = self
            .src_q
            .queued()
            .iter()
            .map(|&n| u64::from(n))
            .sum::<u64>()
            * size;
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
