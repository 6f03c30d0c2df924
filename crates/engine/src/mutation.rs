//! The catalog of seeded flow-control defects for mutation testing.
//!
//! The mutation harness (`crates/mutate`) must be able to seed the exact
//! class of defect the runtime auditor ([`crate::audit`]) claims to
//! catch: credit-accounting skew, bubble flow-control erosion and
//! throttle bypass. Those defects live *inside* the engine's credit
//! loop, so they cannot be expressed as a wrapper around a
//! [`crate::Policy`]. They enter through the perturbation half of the
//! [`Hooks`] seam instead — four points in `Network::step`
//! (credit landing, arrival push, ring-entry eligibility and the
//! injection throttle) whose defaults are the correct engine.
//!
//! Each [`EngineMutation`] is a [`Hooks`] that answers those four
//! questions as pure functions of the defect. The mutation harness
//! (`crates/mutate`) builds a network with the pair
//! `(Auditor::with_deep_interval(n), mutation)`, whose auditor records
//! what the defect breaks. Nothing in this crate ever builds such a
//! network, and a `Network<P>` built by
//! [`Network::new`](crate::Network::new) cannot carry a mutation at all
//! — its hook type is the zero-sized [`NoHooks`](crate::NoHooks).

use crate::audit::AuditViolation;
use crate::hooks::Hooks;

/// A seeded engine-level defect, installed on a network as the second
/// half of an `(Auditor, EngineMutation)` hook pair. The credit defects
/// fire on every credit event: they model a *systematically* wrong
/// flow-control implementation, not a transient upset (fault injection
/// covers those).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineMutation {
    /// Drop every returned credit: the downstream buffer space exists
    /// but the upstream counter never learns. Conservation
    /// (`credits + occupancy + reserved + inflight`) drifts below the VC
    /// capacity — the auditor's deep `CreditLeak` check must fire.
    CreditLeak,
    /// Return every credit twice: the classic double-free. The counter
    /// climbs past the downstream capacity, tripping the fast
    /// `CreditOverflow` check (or `CreditLeak` when in-flight packets
    /// mask the overflow at landing time).
    CreditDouble,
    /// Land every credit on the *next* VC of the same port instead of
    /// the one it was issued for — an escape-VC misassignment. Both VCs'
    /// conservation sums drift (one leaks, one inflates), so the deep
    /// check reports two `CreditLeak`s.
    EscapeVcSkew,
    /// Weaken the §IV-C bubble condition: ring entry is granted with
    /// space for one packet downstream instead of two. The ring can then
    /// fill completely and deadlock — caught by the deep `BubbleLost`
    /// check (the ring no longer holds a free packet-sized bubble) or,
    /// dynamically, by the run watchdog.
    RingBubbleSkip,
    /// Ignore the congestion-management token bucket at injection: the
    /// NIC injects even when its bucket is short, debiting what it can
    /// (`saturating_sub`) while the consumption counter records the full
    /// price. Granted − consumed then drifts below the summed bucket
    /// levels — the deep `ThrottleTokenLaw` check must fire as soon as
    /// throttling actually engages.
    ThrottleBypass,
}

/// The perturbation half of a defective engine, each answer a pure
/// function of the defect. A seeded defect makes a failed check and an
/// overflowing VC expected consequences: the check answers what it found
/// without the default's debug assertion, and an overflowing arrival is
/// pushed so it reaches the report of the
/// [`Auditor`](crate::Auditor) paired with the mutation.
impl Hooks for EngineMutation {
    #[inline]
    fn check(
        &mut self,
        ok: impl FnOnce() -> bool,
        _violation: impl FnOnce() -> AuditViolation,
    ) -> bool {
        ok()
    }

    /// The credit defects drop, double or misdirect every landing credit.
    #[inline]
    fn skew_credit(&mut self, vc: u8, phits: u32, vcs: usize) -> Option<(u8, u32)> {
        match self {
            EngineMutation::CreditLeak => None,
            EngineMutation::CreditDouble => Some((vc, phits * 2)),
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a validated vc count is below 256"
            )]
            EngineMutation::EscapeVcSkew if vcs > 1 => {
                Some((((vc as usize + 1) % vcs) as u8, phits))
            }
            _ => Some((vc, phits)),
        }
    }

    #[inline]
    fn tolerates_overflow(&self) -> bool {
        true
    }

    /// [`EngineMutation::RingBubbleSkip`] asks for one packet of room
    /// instead of the §IV-C bubble of two.
    #[inline]
    fn ring_entry_need(&self, size: u32) -> u32 {
        match self {
            EngineMutation::RingBubbleSkip => size,
            _ => 2 * size,
        }
    }

    #[inline]
    fn bypass_throttle(&self) -> bool {
        matches!(self, EngineMutation::ThrottleBypass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_credit_rewrites_every_event() {
        assert_eq!(EngineMutation::CreditLeak.skew_credit(1, 4, 2), None);
        assert_eq!(
            EngineMutation::CreditDouble.skew_credit(0, 4, 1),
            Some((0, 8))
        );
        let mut s = EngineMutation::EscapeVcSkew;
        assert_eq!(s.skew_credit(1, 4, 3), Some((2, 4)));
        assert_eq!(s.skew_credit(2, 4, 3), Some((0, 4)));
        // single-VC ports cannot skew
        assert_eq!(s.skew_credit(0, 4, 1), Some((0, 4)));
    }

    #[test]
    fn ring_need_halves_only_for_bubble_skip() {
        assert_eq!(EngineMutation::RingBubbleSkip.ring_entry_need(8), 8);
        assert_eq!(EngineMutation::CreditLeak.ring_entry_need(8), 16);
    }

    #[test]
    fn throttle_bypass_is_scoped_to_its_seam() {
        assert!(EngineMutation::ThrottleBypass.bypass_throttle());
        assert!(!EngineMutation::RingBubbleSkip.bypass_throttle());
        // The bypass must not perturb the credit or bubble seams.
        assert_eq!(
            EngineMutation::ThrottleBypass.skew_credit(1, 4, 2),
            Some((1, 4))
        );
        assert_eq!(EngineMutation::ThrottleBypass.ring_entry_need(8), 16);
    }
}
