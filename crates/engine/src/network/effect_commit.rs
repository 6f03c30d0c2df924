//! The `effect_commit` phase: the ledger of cross-router side effects
//! the `route` turns defer, and the pass that applies it.

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
        for e in self.effects.drain(..) {
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
        // This cycle's deliveries were recorded in router order; the log
        // keeps each cycle's entries sorted (they are value tuples, so
        // equal keys are identical entries and the tie-break is
        // immaterial).
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
