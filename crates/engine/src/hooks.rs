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
//! * `ofar_mutate::Mutated` overrides everything: it owns an `Auditor`
//!   for the observation half and answers the six perturbation points
//!   from one seeded [`EngineMutation`](crate::mutation::EngineMutation).
//!
//! Hook state is instrumentation, never simulation state: it is outside
//! snapshots, and a `NoHooks` run and an `Auditor` run of the same seed
//! are byte-identical (the root `tests/determinism.rs` pins this).

use crate::audit::{AuditReport, AuditViolation};

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

    /// Whether returned credits land on the upstream router directly
    /// from the parallel `route` phase instead of through the effects
    /// ledger.
    #[inline]
    fn instant_credits(&self) -> bool {
        false
    }

    /// Whether `commit_effects` folds the ledger's push order into an
    /// engine counter.
    #[inline]
    fn folds_effect_order(&self) -> bool {
        false
    }
}

/// The uninstrumented engine: every hook at its default, no state.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {}
