//! The `effect_commit` phase: the ledger of cross-router side effects
//! the parallel phases defer, and the serial pass that applies it.

use super::Network;
use crate::hooks::Hooks;
use crate::policy::Policy;
use crate::wheel::{Arrival, Credit};

/// Deferred cross-router side effects of a grant.
pub(super) enum Effect {
    /// `arrival` lands at cycle `at`.
    Arrival { at: u64, arrival: Arrival },
    /// `credit` lands at cycle `at`.
    Credit { at: u64, credit: Credit },
    /// LLR wire transfer lands on the receive side of input
    /// (`router`, `port`): sequence number and the CRC the wire saw.
    Wire {
        router: u32,
        port: u16,
        seq: u32,
        wire_crc: u32,
    },
    /// LLR ack/nack for `seq` returns to the sender side of output
    /// (`router`, `port`) at cycle `at`.
    Ack {
        router: u32,
        port: u16,
        seq: u32,
        ok: bool,
        at: u64,
    },
}

/// Mixing key of one ledger entry for [`Hooks::folds_effect_order`]:
/// identifies the effect's target so the fold distinguishes ledger
/// *orders*, not payloads.
fn effect_order_key(e: &Effect) -> u64 {
    let (tag, router, port, salt) = match e {
        Effect::Arrival { arrival: a, .. } => (1u64, a.router, a.port, u64::from(a.vc)),
        Effect::Credit { credit: c, .. } => (2, c.router, c.port, u64::from(c.vc)),
        Effect::Wire {
            router, port, seq, ..
        } => (3, *router, *port, u64::from(*seq)),
        Effect::Ack {
            router, port, seq, ..
        } => (4, *router, *port, u64::from(*seq)),
    };
    (tag << 48) | (u64::from(router) << 24) | (u64::from(port) << 8) | (salt & 0xFF)
}

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Commit phase: apply the cycle's deferred cross-router effects in
    /// submission order — packet arrivals and credit returns are filed
    /// into the timing wheel under their landing cycle, (LLR only) wire
    /// transfers and acks into the link layer's queues. Every target
    /// has exactly one upstream writer and at most one entry lands per
    /// cycle, all stamped `at >= now + 1`, so applying them here instead
    /// of inside each router's allocation turn is observationally
    /// identical: no phase of the current cycle reads them.
    pub(super) fn commit_effects(&mut self) {
        let llr = &mut self.llr;
        let fold = self.hooks.folds_effect_order();
        let mut fold_acc = 0u64;
        for e in self.effects.drain(..) {
            // Seeded race defect (`EngineMutation::EffectOrderFold`): a
            // non-commutative fold over the ledger's *push order*. The
            // applied per-queue state stays correct; only the folded
            // value — later mixed into a serialized counter — leaks the
            // shard schedule into the snapshot. `ofar-race` must kill
            // it.
            if fold {
                fold_acc = fold_acc.wrapping_mul(31).wrapping_add(effect_order_key(&e));
            }
            match e {
                Effect::Arrival { at, arrival } => self.wheel.file_arrival(at, arrival),
                Effect::Credit { at, credit } => self.wheel.file_credit(at, credit),
                Effect::Wire {
                    router,
                    port,
                    seq,
                    wire_crc,
                } => {
                    if let Some(l) = llr.as_mut() {
                        l.push_wire(router as usize, port as usize, seq, wire_crc);
                    }
                }
                Effect::Ack {
                    router,
                    port,
                    seq,
                    ok,
                    at,
                } => {
                    if let Some(l) = llr.as_mut() {
                        l.push_ack(router as usize, port as usize, seq, ok, at);
                    }
                }
            }
        }
        if fold {
            // Mix the order fold into a snapshot-covered counter so the
            // ledger order becomes externally observable state.
            self.stats.latency_sum = self.stats.latency_sum.wrapping_add(fold_acc);
        }
        // This cycle's deliveries were recorded in route-phase *shard*
        // order; a canonical sort before appending keeps the log
        // schedule-invariant (entries are value tuples, so equal keys
        // are identical entries and the tie-break is immaterial).
        if !self.delivered_now.is_empty() {
            self.delivered_now.sort_unstable();
            if let Some(log) = self.delivered_log.as_mut() {
                log.append(&mut self.delivered_now);
            } else {
                self.delivered_now.clear();
            }
        }
    }
}
