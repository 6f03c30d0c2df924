//! The `deliver` phase: land the packets and credits whose link
//! traversal completes this cycle.

use super::Network;
use crate::audit::AuditViolation;
use crate::hooks::Hooks;
use crate::llr::RxVerdict;
use crate::policy::Policy;
use ofar_topology::RouterId;

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Phase 1: land the packets and credits whose link traversal
    /// completes this cycle — exactly the wheel's bucket for `now`, in
    /// submission order (they commute: see [`crate::wheel`]). Landing at
    /// a new group clears the per-group local-misroute flag and retires
    /// a reached Valiant intermediate (§IV-A).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "port indices bounded by SimConfig::validate's RadixTooLarge, router ids by the u32 the topology numbers them in"
    )]
    pub(super) fn deliver_events(&mut self, now: u64) {
        let topo = *self.fab.topo();
        let fab = &self.fab;
        let n_in = fab.n_in();
        let llr = &mut self.llr;
        let stats = &mut self.stats;
        let cm = &mut self.cm;
        let hooks = &mut self.hooks;
        let occ = &mut self.occ;
        let due = self.wheel.due(now);
        for arrival in due.arrivals.drain(..) {
            let (ridx, port, vc) = (arrival.router as usize, arrival.port as usize, arrival.vc);
            let mut pkt = arrival.pkt;
            // Link-level CRC/sequence check: a corrupted transfer is
            // discarded and nacked, a duplicate discarded and re-acked,
            // a good one accepted and acked. Acks ride the credit-return
            // path (same latency, never lost) and land at
            // `now + latency >= now + 1`, behind every ack already queued.
            if let Some(l) = llr.as_mut() {
                let desc = fab.in_desc(RouterId::from(ridx), port);
                if desc.up_router != u32::MAX {
                    let (verdict, seq) = l.receive(ridx, port, &pkt);
                    match verdict {
                        RxVerdict::Accept => {}
                        RxVerdict::CrcDrop => stats.llr_crc_drops += 1,
                        RxVerdict::Duplicate => stats.llr_dup_drops += 1,
                    }
                    // A duplicate is re-acked: the sender may have
                    // timed out before the first ack landed.
                    l.push_ack(
                        desc.up_router as usize,
                        desc.up_port as usize,
                        seq,
                        verdict != RxVerdict::CrcDrop,
                        now + u64::from(desc.latency),
                    );
                    if verdict != RxVerdict::Accept {
                        continue;
                    }
                }
            }
            pkt.land_in(topo.group_of(RouterId::from(ridx)));
            // Arrival-side mirror of the credit mechanism: flow control
            // must have reserved this space upstream.
            let fifos = &mut self.arena.fifos;
            let slot = fab.in_slot(RouterId::from(ridx), port, vc as usize);
            let capacity = fab.slot_caps()[slot];
            hooks.check(
                || fifos.fits(slot, capacity),
                || AuditViolation::BufferOverflow {
                    cycle: now,
                    router: ridx as u32,
                    port: port as u16,
                    vc,
                    occupancy: fifos.occupancy(slot),
                    capacity,
                },
            );
            if hooks.tolerates_overflow() {
                // A seeded credit defect may legitimately oversubscribe
                // the buffer; the check above recorded it, so land the
                // packet anyway.
                fifos.push_overflowing(slot, pkt);
            } else {
                fifos.push(slot, pkt, capacity);
            }
            occ.port_pkts[ridx * n_in + port] += 1;
            occ.port_mask[ridx] |= 1 << port;
        }
        for credit in due.credits.drain(..) {
            let (ridx, port) = (credit.router as usize, credit.port as usize);
            let link = fab.out_link(RouterId::from(ridx), port);
            // Seeded credit-accounting skew (mutation testing): drop,
            // double or re-VC this landing so the auditor's conservation
            // checks can be exercised against real in-engine defects.
            let Some((vc, phits)) = hooks.skew_credit(credit.vc, credit.phits, link.vcs as usize)
            else {
                continue; // the seeded leak: credit never lands
            };
            let lane = fab.out_lane(RouterId::from(ridx), port, vc as usize);
            let cap = fab.lane_caps()[lane];
            let c = &mut self.arena.credits[lane];
            *c += phits;
            if let Some(cm) = cm.as_mut() {
                cm.free[ridx] += u64::from(phits);
            }
            // A counter past the downstream capacity means a double
            // credit.
            hooks.check(
                || *c <= cap,
                || AuditViolation::CreditOverflow {
                    cycle: now,
                    router: ridx as u32,
                    port: port as u16,
                    vc,
                    credits: *c,
                    capacity: cap,
                },
            );
        }
    }
}
