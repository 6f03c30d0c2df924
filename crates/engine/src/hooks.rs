//! The engine's one instrumentation seam.
//!
//! [`Network`](crate::Network) carries a second type parameter,
//! `H: Hooks`, and calls it at every point where something outside the
//! simulation proper wants to *observe* an invariant or *perturb* the
//! flow control. Which code runs there is a property of the network's
//! type, fixed where the network is built
//! ([`Network::with_hooks`](crate::Network::with_hooks)) — not of cargo
//! features or of the dependency graph:
//!
//! * [`NoHooks`] (the default, what [`Network::new`](crate::Network::new)
//!   builds) is zero-sized and overrides nothing. Every default body is
//!   `#[inline]` and constant, so after monomorphization the release
//!   hot path contains no trace of the seam; in debug builds each
//!   observation is a `debug_assert!`.
//! * [`Auditor`](crate::audit::Auditor) overrides the observation half:
//!   a failed check becomes a recorded
//!   [`AuditViolation`] instead of an abort, and the whole-network deep
//!   checks run on its cadence.
//! * [`EngineMutation`](crate::mutation::EngineMutation) answers the four
//!   perturbation points from one seeded defect; the mutation harness
//!   pairs it with an `Auditor` that records what the defect breaks.
//! * `ofar_bench::PhaseTimer` reads the [`Tap::Phase`] taps at the eight
//!   phase markers of `step` and the [`Tap::Collect`], [`Tap::Allocate`]
//!   and [`Tap::Execute`] taps inside a router's `route` turn, to
//!   attribute host time (the wall clock is banned from this crate; the
//!   timer lives with the bench driver).
//! * `examples/local_saturation.rs` reads [`Tap::Transmit`] to count
//!   phits per output port.
//! * [`Recorder`] reads [`Tap::Delivered`] to count latencies, and
//!   answers [`Hooks::recorder`]: every runner of `ofar-core` reads its
//!   percentiles and transient series from one.
//! * A pair `(A, B)` of hooks is a hook: each observation reaches both
//!   halves, and the perturbations compose (see its impl).
//!
//! Hook state is instrumentation, never simulation state: it is outside
//! snapshots, and a `NoHooks` run and an `Auditor` run of the same seed
//! are byte-identical (the root `tests/determinism.rs` pins this).

use crate::audit::{AuditReport, AuditViolation};
use crate::recorder::Recorder;
use ofar_topology::RouterId;
use std::cell::LazyCell;

/// The eight phases of [`Network::step`](crate::Network::step), in
/// execution order: `step` opens each with one [`Tap::Phase`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Scheduled fault transitions.
    FaultApply,
    /// Link events landing this cycle.
    Deliver,
    /// LLR acks, timeouts and retransmissions.
    LlrTimers,
    /// Congestion-management sensing and bucket refill.
    CmSense,
    /// Source queues into injection buffers.
    Inject,
    /// Routing, allocation and grant execution.
    Route,
    /// The hooks' whole-network deep checks.
    Audit,
    /// `Policy::end_cycle`.
    PolicyEnd,
}

impl Phase {
    /// Every phase, in execution order.
    pub const ALL: [Phase; 8] = [
        Phase::FaultApply,
        Phase::Deliver,
        Phase::LlrTimers,
        Phase::CmSense,
        Phase::Inject,
        Phase::Route,
        Phase::Audit,
        Phase::PolicyEnd,
    ];

    /// The phase's name: its row in `ofar-bench phases`, its module
    /// under `network/`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::FaultApply => "fault_apply",
            Phase::Deliver => "deliver",
            Phase::LlrTimers => "llr_timers",
            Phase::CmSense => "cm_sense",
            Phase::Inject => "inject",
            Phase::Route => "route",
            Phase::Audit => "audit",
            Phase::PolicyEnd => "policy_end",
        }
    }
}

/// One event [`Network::step`](crate::Network::step) reports to
/// [`Hooks::tap`]. The `route` phase reports `Collect`, `Allocate` and
/// `Execute` in that order in each router's turn: each ends the part of
/// the turn before it and starts the one it names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tap {
    /// The phase is about to start (the previous one has ended), once
    /// per phase per step: the per-phase ledger's timer hangs here.
    Phase(Phase),
    /// Request collection: one `Policy::route` call per head-of-VC packet.
    Collect,
    /// The allocator's iterations, after collection polled `polled`
    /// heads (one `Policy::route` call each), was `asked` for an output
    /// by that many of them (the policy said `Some`, the link is up and
    /// its replay buffer has room) and `kept` the requests the allocator
    /// can grant this cycle: output idle, downstream VC with room. A turn
    /// that kept none ends at this tap.
    #[expect(missing_docs, reason = "the variant's doc names every field")]
    Allocate {
        polled: usize,
        asked: usize,
        kept: usize,
    },
    /// Grant execution, of the `grants` requests the allocator matched.
    #[expect(missing_docs, reason = "the variant's doc names every field")]
    Execute { grants: usize },
    /// `(router, port, phits)`: output `port` of `router` started sending
    /// `phits` phits, once per grant in `route` and once per LLR
    /// retransmission in `llr_timers`. Summed per port it is the link
    /// utilisation of §III.
    Transmit(RouterId, usize, u32),
    /// `(injected_at, latency)`: a packet generated at cycle
    /// `injected_at` was delivered `latency` cycles later, once per
    /// ejection grant in `route`.
    Delivered(u64, u64),
}

/// Observation and perturbation points of [`Network::step`](crate::Network::step).
///
/// The defaults are the uninstrumented engine; see the module docs for
/// who overrides what.
pub trait Hooks {
    // ----- observation --------------------------------------------------

    /// One invariant check at the event that could break it. Both
    /// arguments are lazy, like the two halves of a `debug_assert!`: the
    /// default evaluates neither in a release build, and `violation`
    /// only runs when `ok` came out false.
    ///
    /// Returns whether the caller may go on with the checked operation.
    /// A recording hook answers what `ok` said, so a run with a broken
    /// invariant survives to report it; the default answers `true` — its
    /// debug assertion has already fired, and a release build fails on
    /// the operation itself, as it always did.
    #[inline]
    fn check(
        &mut self,
        ok: impl FnOnce() -> bool,
        violation: impl FnOnce() -> AuditViolation,
    ) -> bool {
        debug_assert!(ok(), "{}", violation());
        true
    }

    /// `ev` happened; see [`Tap`] for where `step` reports each event.
    #[inline]
    fn tap(&mut self, _ev: Tap) {}

    /// Whether the whole-network deep checks should run at the end of
    /// `cycle`.
    #[inline]
    fn deep_due(&self, _cycle: u64) -> bool {
        false
    }

    /// Outcome of one deep pass: `checks` invariants evaluated, of which
    /// `violations` failed.
    #[inline]
    fn deep_report(&mut self, _checks: u64, _violations: Vec<AuditViolation>) {}

    /// Take the report accumulated so far, resetting it; `None` from a
    /// hook that records nothing.
    #[inline]
    fn take_report(&mut self) -> Option<AuditReport> {
        None
    }

    /// The latency counts this hook keeps; `None` from a hook that
    /// records none.
    #[inline]
    fn recorder(&self) -> Option<&Recorder> {
        None
    }

    /// [`Self::recorder`], to resume it from a checkpoint.
    #[inline]
    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        None
    }

    // ----- perturbation (mutation testing) ------------------------------

    /// A returned credit `(vc, phits)` is about to land on a port with
    /// `vcs` virtual channels: what actually lands (`None` = the credit
    /// is lost).
    #[inline]
    fn skew_credit(&mut self, vc: u8, phits: u32, _vcs: usize) -> Option<(u8, u32)> {
        Some((vc, phits))
    }

    /// Whether an arriving packet is pushed into a VC that has no room
    /// for it (after [`Self::check`] reported the overflow) instead of
    /// panicking: a seeded credit defect makes overflow an expected
    /// consequence that must reach the report.
    #[inline]
    fn tolerates_overflow(&self) -> bool {
        false
    }

    /// Downstream space a ring-entry grant must see, given the packet
    /// size: the §IV-C bubble of two packets.
    #[inline]
    fn ring_entry_need(&self, size: u32) -> u32 {
        2 * size
    }

    /// Whether injection ignores the congestion-management token bucket.
    #[inline]
    fn bypass_throttle(&self) -> bool {
        false
    }
}

/// The uninstrumented engine: every hook at its default, no state.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {}

/// Two hooks at once, e.g. a [`Recorder`] beside an
/// [`Auditor`](crate::audit::Auditor). Every observation reaches both
/// halves, `A` first; each argument of [`Hooks::check`] is evaluated at
/// most once, and the check passes when both halves let it. The
/// perturbations compose: a credit is skewed by `A`, then by `B`; a
/// switch is on when either half turns it on; the ring-entry bubble is
/// the smaller need. The accessors answer `A`'s report or recorder where
/// it has one, else `B`'s.
impl<A: Hooks, B: Hooks> Hooks for (A, B) {
    #[inline]
    fn check(
        &mut self,
        ok: impl FnOnce() -> bool,
        violation: impl FnOnce() -> AuditViolation,
    ) -> bool {
        let ok = LazyCell::new(ok);
        let violation = LazyCell::new(violation);
        let a = self.0.check(|| *ok, || (*violation).clone());
        let b = self.1.check(|| *ok, || (*violation).clone());
        a && b
    }

    #[inline(always)]
    fn tap(&mut self, ev: Tap) {
        self.0.tap(ev);
        self.1.tap(ev);
    }

    #[inline]
    fn deep_due(&self, cycle: u64) -> bool {
        self.0.deep_due(cycle) || self.1.deep_due(cycle)
    }

    #[inline]
    fn deep_report(&mut self, checks: u64, violations: Vec<AuditViolation>) {
        self.0.deep_report(checks, violations.clone());
        self.1.deep_report(checks, violations);
    }

    #[inline]
    fn take_report(&mut self) -> Option<AuditReport> {
        let a = self.0.take_report();
        let b = self.1.take_report();
        a.or(b)
    }

    #[inline]
    fn recorder(&self) -> Option<&Recorder> {
        self.0.recorder().or_else(|| self.1.recorder())
    }

    #[inline]
    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.0.recorder_mut().or_else(|| self.1.recorder_mut())
    }

    #[inline]
    fn skew_credit(&mut self, vc: u8, phits: u32, vcs: usize) -> Option<(u8, u32)> {
        let (vc, phits) = self.0.skew_credit(vc, phits, vcs)?;
        self.1.skew_credit(vc, phits, vcs)
    }

    #[inline]
    fn tolerates_overflow(&self) -> bool {
        self.0.tolerates_overflow() || self.1.tolerates_overflow()
    }

    #[inline]
    fn ring_entry_need(&self, size: u32) -> u32 {
        self.0
            .ring_entry_need(size)
            .min(self.1.ring_entry_need(size))
    }

    #[inline]
    fn bypass_throttle(&self) -> bool {
        self.0.bypass_throttle() || self.1.bypass_throttle()
    }
}

#[cfg(test)]
mod tests {
    use super::{Hooks, Phase};
    use crate::audit::{AuditViolation, Auditor};
    use std::cell::Cell;
    use std::path::Path;

    /// A pair asks each argument of a check at most once, and both
    /// halves hear the verdict.
    #[test]
    fn a_pair_evaluates_a_check_once_for_both_halves() {
        let mut pair = (Auditor::new(), Auditor::new());
        let asked = Cell::new(0);
        let violation = || AuditViolation::DuplicateDelivery {
            cycle: 1,
            router: 2,
            packet: 3,
        };
        for ok in [true, false] {
            let verdict = pair.check(
                || {
                    asked.set(asked.get() + 1);
                    ok
                },
                violation,
            );
            assert_eq!(verdict, ok);
        }
        assert_eq!(asked.get(), 2);
        for auditor in [&mut pair.0, &mut pair.1] {
            let report = auditor.take_report().unwrap();
            assert_eq!((report.checks, report.violations), (2, vec![violation()]));
        }
    }

    /// What a phase does lives in the `network` child module of its
    /// name; `policy_end` is a single call in `step` and has none.
    #[test]
    fn every_phase_but_policy_end_has_its_module() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/network");
        for phase in Phase::ALL {
            let file = dir.join(format!("{}.rs", phase.name()));
            assert_eq!(
                file.is_file(),
                phase != Phase::PolicyEnd,
                "{}",
                file.display()
            );
        }
    }
}
