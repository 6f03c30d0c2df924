//! Release-capable runtime invariant auditing.
//!
//! The engine polices itself with `debug_assert!`s on the hot path —
//! free in release builds, fatal in debug builds. This module promotes
//! those checks (and a set of whole-network conservation laws) into
//! **structured, non-fatal diagnostics** that can run in release builds:
//! instead of aborting, a violated invariant becomes an
//! [`AuditViolation`] in the cycle's [`AuditReport`], so a long fault
//! campaign can finish and report *every* anomaly with its router, port,
//! VC and cycle.
//!
//! The checks are wired through the engine's [`Hooks`] seam: a network
//! built with an [`Auditor`] as its hook
//! ([`Network::with_hooks`](crate::Network::with_hooks)) records, a
//! plain [`Network::new`](crate::Network::new) one carries the
//! zero-sized [`NoHooks`](crate::NoHooks) and only debug-asserts. Two
//! tiers keep the cost of an audited run low:
//!
//! * **fast checks** mirror the local `debug_assert!`s (credit overflow,
//!   ring-membership transitions, dead-port grants, injection VC range)
//!   and run on the events themselves;
//! * **deep checks** walk the whole network (phit conservation, credit
//!   conservation, occupancy ≤ capacity, escape-ring bubble) every
//!   `deep_interval` cycles — or on demand, hooks or none, through
//!   [`Network::audit_now`](crate::Network::audit_now).

use crate::hooks::Hooks;
use std::fmt;

/// One violated invariant, with everything needed to localize it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// A returning credit pushed a sender counter above the downstream
    /// buffer capacity (the release form of the `deliver` phase's
    /// "credit overflow" debug assert).
    CreditOverflow {
        /// Cycle of the credit landing.
        cycle: u64,
        /// Router owning the output port.
        router: u32,
        /// Output port index.
        port: u16,
        /// Virtual channel.
        vc: u8,
        /// Credit counter after the landing.
        credits: u32,
        /// Downstream capacity in phits.
        capacity: u32,
    },
    /// A packet landed in a VC without room for it (flow control must
    /// have reserved the space — this is the arrival-side mirror of
    /// credit overflow).
    BufferOverflow {
        /// Cycle of the arrival.
        cycle: u64,
        /// Router owning the input port.
        router: u32,
        /// Input port index.
        port: u16,
        /// Virtual channel.
        vc: u8,
        /// Occupancy before the push, in phits.
        occupancy: u32,
        /// Capacity in phits.
        capacity: u32,
    },
    /// A ring transition was granted to a packet in the wrong membership
    /// state (enter while on the ring, advance/exit while off it) — the
    /// release form of the ring-membership debug asserts.
    RingMembership {
        /// Cycle of the grant.
        cycle: u64,
        /// Granting router.
        router: u32,
        /// `"enter"`, `"advance"` or `"exit"`.
        transition: &'static str,
        /// Packet id.
        packet: u64,
        /// Whether the packet carried the on-ring flag.
        on_ring: bool,
    },
    /// A grant targeted an output whose link is currently failed. Dead
    /// ports are filtered when requests are collected, so this firing
    /// means a fault transition raced past the filter.
    DeadPortGrant {
        /// Cycle of the grant.
        cycle: u64,
        /// Granting router.
        router: u32,
        /// Output port index.
        port: u16,
    },
    /// The policy picked an injection VC outside the injection buffer.
    InjectionVcRange {
        /// Cycle of the attempt.
        cycle: u64,
        /// Injecting node.
        node: u32,
        /// Chosen VC.
        vc: usize,
        /// Number of injection VCs that exist.
        vcs: usize,
    },
    /// Phit conservation failed: phits generated ≠ phits delivered +
    /// phits inside the system (source queues, buffers, links).
    PhitImbalance {
        /// Cycle of the deep check.
        cycle: u64,
        /// Phits generated since cycle 0.
        generated: u64,
        /// Phits delivered since cycle 0.
        delivered: u64,
        /// Phits currently inside the system.
        in_system: u64,
    },
    /// Credit conservation failed on a link VC: sender credits +
    /// receiver occupancy + in-flight packets + in-flight credits ≠
    /// capacity.
    CreditLeak {
        /// Cycle of the deep check.
        cycle: u64,
        /// Router owning the output port.
        router: u32,
        /// Output port index.
        port: u16,
        /// Virtual channel.
        vc: u8,
        /// Sum of the four conserved terms.
        sum: u32,
        /// Capacity the sum must equal.
        capacity: u32,
    },
    /// A VC buffer reports more phits than its capacity.
    OccupancyOverCapacity {
        /// Cycle of the deep check.
        cycle: u64,
        /// Router owning the input port.
        router: u32,
        /// Input port index.
        port: u16,
        /// Virtual channel.
        vc: u8,
        /// Occupancy in phits.
        occupancy: u32,
        /// Capacity in phits.
        capacity: u32,
    },
    /// An escape ring has lost its bubble: the free space summed over
    /// the whole ring fell below one packet, so the ring can wedge
    /// (§IV-C requires at least one packet-sized hole at all times).
    BubbleLost {
        /// Cycle of the deep check.
        cycle: u64,
        /// Ring index.
        ring: usize,
        /// Free phits over the whole ring (credits + in-flight credits).
        free_phits: u64,
        /// Minimum free phits the bubble condition requires.
        required: u64,
    },
    /// A ring-entry grant fired without the §IV-C bubble: the entry's
    /// downstream VC held fewer than two packets of credit at grant
    /// time. Eligibility is supposed to demand the two-packet bubble for
    /// every `RingEnter`, so this firing means the admission check was
    /// eroded — the whole-ring [`Self::BubbleLost`] check only notices
    /// once the ring has actually wedged, while this one catches the
    /// first bad admission.
    RingEnterNoBubble {
        /// Cycle of the grant.
        cycle: u64,
        /// Granting router.
        router: u32,
        /// Output port index.
        port: u16,
        /// Virtual channel.
        vc: u8,
        /// Downstream credits at grant time, in phits.
        credits: u32,
        /// Credits the bubble condition requires (two packets).
        required: u32,
    },
    /// A packet was ejected to its node more than once. The link-level
    /// retransmission layer must deduplicate spurious retransmissions at
    /// the receiver, so a second ejection of the same id means the
    /// seq/ack protocol leaked a duplicate end to end.
    DuplicateDelivery {
        /// Cycle of the second ejection.
        cycle: u64,
        /// Ejecting router.
        router: u32,
        /// Packet id delivered twice.
        packet: u64,
    },
    /// A sender replay buffer holds more entries than the configured
    /// window. Grants to an output are supposed to be gated on replay
    /// room, so this means the window check was bypassed.
    ReplayOverflow {
        /// Cycle of the deep check.
        cycle: u64,
        /// Router owning the output port.
        router: u32,
        /// Output port index.
        port: u16,
        /// Entries in the replay buffer.
        occupancy: u32,
        /// Configured window, in packets.
        window: u32,
    },
    /// Token conservation failed in the congestion-management throttle:
    /// units granted to the buckets minus units consumed by injections
    /// must equal the sum of current bucket levels exactly (grants are
    /// cap-clamped at credit time, so the law is an identity, not an
    /// inequality). A firing means some injection bypassed the bucket
    /// debit or some refill escaped the accounting.
    ThrottleTokenLaw {
        /// Cycle of the deep check.
        cycle: u64,
        /// Token units granted since cycle 0 (cap-clamped).
        granted: u64,
        /// Token units consumed by injections since cycle 0.
        consumed: u64,
        /// Sum of all per-NIC bucket levels right now.
        levels: u64,
    },
    /// The congestion sensor's incrementally-maintained free-credit sum
    /// disagrees with a fresh scan of the router's output credits. The
    /// sensor is updated at every credit mutation site; drift means a
    /// credit moved through a path the sensor does not mirror, and every
    /// throttle decision after the divergence point is suspect.
    CmSensorDrift {
        /// Cycle of the deep check.
        cycle: u64,
        /// Router whose sums diverged.
        router: u32,
        /// The incrementally-tracked free-credit sum.
        tracked: u64,
        /// The freshly-scanned free-credit sum.
        actual: u64,
    },
    /// The occupancy index (buffered-packet counts per router and port,
    /// pending-source set) disagrees with a recount of the FIFOs and
    /// source queues: a push or pop bypassed the index, and the `route`
    /// or `inject` phase is skipping work it should do (or probing
    /// structures it should skip).
    OccupancyDrift {
        /// Cycle of the deep check.
        cycle: u64,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::CreditOverflow {
                cycle,
                router,
                port,
                vc,
                credits,
                capacity,
            } => write!(
                f,
                "cycle {cycle}: credit overflow at R{router} out {port} vc {vc}: \
                 {credits} > capacity {capacity}"
            ),
            Self::BufferOverflow {
                cycle,
                router,
                port,
                vc,
                occupancy,
                capacity,
            } => write!(
                f,
                "cycle {cycle}: buffer overflow at R{router} in {port} vc {vc}: \
                 occupancy {occupancy} has no room below capacity {capacity}"
            ),
            Self::RingMembership {
                cycle,
                router,
                transition,
                packet,
                on_ring,
            } => write!(
                f,
                "cycle {cycle}: ring {transition} granted at R{router} to packet \
                 {packet} with on_ring={on_ring}"
            ),
            Self::DeadPortGrant {
                cycle,
                router,
                port,
            } => write!(f, "cycle {cycle}: grant to dead output {port} at R{router}"),
            Self::InjectionVcRange {
                cycle,
                node,
                vc,
                vcs,
            } => write!(
                f,
                "cycle {cycle}: node {node} picked injection vc {vc} of {vcs}"
            ),
            Self::PhitImbalance {
                cycle,
                generated,
                delivered,
                in_system,
            } => write!(
                f,
                "cycle {cycle}: phit imbalance: generated {generated} != \
                 delivered {delivered} + in-system {in_system}"
            ),
            Self::CreditLeak {
                cycle,
                router,
                port,
                vc,
                sum,
                capacity,
            } => write!(
                f,
                "cycle {cycle}: credit leak at R{router} out {port} vc {vc}: \
                 conserved sum {sum} != capacity {capacity}"
            ),
            Self::OccupancyOverCapacity {
                cycle,
                router,
                port,
                vc,
                occupancy,
                capacity,
            } => write!(
                f,
                "cycle {cycle}: occupancy {occupancy} > capacity {capacity} at \
                 R{router} in {port} vc {vc}"
            ),
            Self::BubbleLost {
                cycle,
                ring,
                free_phits,
                required,
            } => write!(
                f,
                "cycle {cycle}: ring {ring} bubble lost: {free_phits} free phits \
                 < {required} required"
            ),
            Self::RingEnterNoBubble {
                cycle,
                router,
                port,
                vc,
                credits,
                required,
            } => write!(
                f,
                "cycle {cycle}: ring entry granted at R{router} out {port} vc {vc} \
                 with {credits} credits < {required} required (bubble eroded)"
            ),
            Self::DuplicateDelivery {
                cycle,
                router,
                packet,
            } => write!(
                f,
                "cycle {cycle}: packet {packet} delivered twice (second ejection at R{router})"
            ),
            Self::ReplayOverflow {
                cycle,
                router,
                port,
                occupancy,
                window,
            } => write!(
                f,
                "cycle {cycle}: replay buffer at R{router} out {port} holds \
                 {occupancy} entries > window {window}"
            ),
            Self::ThrottleTokenLaw {
                cycle,
                granted,
                consumed,
                levels,
            } => write!(
                f,
                "cycle {cycle}: throttle token law broken: granted {granted} - \
                 consumed {consumed} != bucket levels {levels}"
            ),
            Self::CmSensorDrift {
                cycle,
                router,
                tracked,
                actual,
            } => write!(
                f,
                "cycle {cycle}: congestion sensor drift at R{router}: tracked \
                 free credits {tracked} != scanned {actual}"
            ),
            Self::OccupancyDrift { cycle } => write!(
                f,
                "cycle {cycle}: occupancy index differs from a recount of the \
                 VC FIFOs and source queues"
            ),
        }
    }
}

/// Cap on stored violations; past it only the count grows. A broken
/// invariant usually fires every cycle — the first few instances locate
/// the bug, the rest would just bloat the report.
const MAX_STORED: usize = 64;

/// The outcome of an audited run: how much was checked and what failed.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Individual invariant checks performed.
    pub checks: u64,
    /// Violations, in detection order (capped; see `dropped`).
    pub violations: Vec<AuditViolation>,
    /// Violations detected beyond the storage cap.
    pub dropped: u64,
}

impl AuditReport {
    /// True when every check passed.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    /// Total violations detected (stored + dropped).
    #[inline]
    pub fn total_violations(&self) -> u64 {
        self.violations.len() as u64 + self.dropped
    }

    /// Record a violation (counts as one check).
    fn record(&mut self, v: AuditViolation) {
        self.checks += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(v);
        } else {
            self.dropped += 1;
        }
    }

    /// Fold in one deep pass: `checks` invariants evaluated, of which
    /// `violations` failed.
    pub(crate) fn deep(&mut self, checks: u64, violations: Vec<AuditViolation>) {
        self.checks += checks - violations.len() as u64;
        for v in violations {
            self.record(v);
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean ({} checks)", self.checks);
        }
        writeln!(
            f,
            "audit FAILED: {} violation(s) over {} checks",
            self.total_violations(),
            self.checks
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if self.dropped > 0 {
            writeln!(f, "  … and {} more (not stored)", self.dropped)?;
        }
        Ok(())
    }
}

/// The recording [`Hooks`]: accumulates a report and decides when the
/// deep (whole-network) checks run.
#[derive(Clone, Debug)]
pub struct Auditor {
    report: AuditReport,
    /// Deep checks run when `cycle % deep_interval == 0`.
    deep_interval: u64,
}

impl Auditor {
    /// Deep-check cadence balancing coverage against the O(network) walk
    /// (≈0.4% overhead at the default network sizes).
    pub const DEFAULT_DEEP_INTERVAL: u64 = 256;

    /// New auditor with the default deep-check cadence.
    pub fn new() -> Self {
        Self::with_deep_interval(Self::DEFAULT_DEEP_INTERVAL)
    }

    /// New auditor running the whole-network checks every `interval`
    /// cycles (0 disables them; 1 checks every cycle).
    pub fn with_deep_interval(interval: u64) -> Self {
        Self {
            report: AuditReport::default(),
            deep_interval: interval,
        }
    }
}

impl Hooks for Auditor {
    #[inline]
    fn check(
        &mut self,
        ok: impl FnOnce() -> bool,
        violation: impl FnOnce() -> AuditViolation,
    ) -> bool {
        let ok = ok();
        if ok {
            self.report.checks += 1;
        } else {
            self.report.record(violation());
        }
        ok
    }

    #[inline]
    fn deep_due(&self, cycle: u64) -> bool {
        self.deep_interval != 0 && cycle.is_multiple_of(self.deep_interval)
    }

    fn deep_report(&mut self, checks: u64, violations: Vec<AuditViolation>) {
        self.report.deep(checks, violations);
    }

    fn take_report(&mut self) -> Option<AuditReport> {
        Some(std::mem::take(&mut self.report))
    }
}

impl Default for Auditor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_caps_stored_violations() {
        let mut a = Auditor::new();
        for cycle in 0..(MAX_STORED as u64 + 10) {
            a.check(
                || false,
                || AuditViolation::DeadPortGrant {
                    cycle,
                    router: 0,
                    port: 0,
                },
            );
        }
        let r = a.take_report().expect("an auditor always reports");
        assert_eq!(r.violations.len(), MAX_STORED);
        assert_eq!(r.dropped, 10);
        assert_eq!(r.total_violations(), MAX_STORED as u64 + 10);
        assert!(!r.is_clean());
        // taking resets
        assert!(a.take_report().is_some_and(|r| r.is_clean()));
    }

    #[test]
    fn deep_cadence() {
        let a = Auditor::with_deep_interval(8);
        assert!(a.deep_due(0));
        assert!(!a.deep_due(7));
        assert!(a.deep_due(16));
        assert!(!Auditor::with_deep_interval(0).deep_due(0));
    }

    #[test]
    fn display_formats_locate_the_offender() {
        let v = AuditViolation::CreditOverflow {
            cycle: 42,
            router: 7,
            port: 3,
            vc: 1,
            credits: 40,
            capacity: 32,
        };
        let s = v.to_string();
        assert!(s.contains("cycle 42") && s.contains("R7") && s.contains("vc 1"));
        let mut rep = AuditReport {
            checks: 5,
            ..AuditReport::default()
        };
        assert!(rep.to_string().contains("clean"));
        rep.violations.push(v);
        assert!(rep.to_string().contains("FAILED"));
    }
}
