//! The catalog of seeded flow-control defects for mutation testing.
//!
//! The mutation harness (`crates/mutate`) must be able to seed the exact
//! class of defect the runtime auditor ([`crate::audit`]) claims to
//! catch: credit-accounting skew, bubble flow-control erosion and
//! throttle bypass. Those defects live *inside* the engine's credit
//! loop, so they cannot be expressed as a wrapper around a
//! [`crate::Policy`]. They enter through the perturbation half of the
//! [`Hooks`](crate::Hooks) seam instead — four points in `Network::step`
//! (credit landing, arrival push, ring-entry eligibility and the
//! injection throttle) whose defaults are the correct engine.
//!
//! This module is only the catalog: each [`EngineMutation`] answers
//! those four questions as pure functions. The hook that installs one on
//! a network and pairs it with an
//! [`Auditor`](crate::Auditor) is `ofar_mutate::Mutated`; nothing in
//! this crate ever constructs it, and a `Network<P>` built by
//! [`Network::new`](crate::Network::new) cannot carry a mutation at all
//! — its hook type is the zero-sized [`NoHooks`](crate::NoHooks).

/// A seeded engine-level defect, installed on a network by the
/// `ofar_mutate::Mutated` hook. The credit defects fire on every credit
/// event: they model a *systematically* wrong flow-control
/// implementation, not a transient upset (fault injection covers those).
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

impl EngineMutation {
    /// Apply this mutation to one landing credit event `(vc, phits)` on
    /// a port with `vcs` virtual channels. Returns the (possibly skewed)
    /// `(vc, phits)` to actually land; `None` means the credit is
    /// dropped.
    pub fn skew_credit(self, vc: u8, phits: u32, vcs: usize) -> Option<(u8, u32)> {
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

    /// The downstream space (in phits) required to grant a ring-entry
    /// request under this mutation, given the unmutated requirement of
    /// `2 * size` (the §IV-C bubble).
    pub fn ring_need(self, size: u32) -> u32 {
        match self {
            EngineMutation::RingBubbleSkip => size,
            _ => 2 * size,
        }
    }

    /// Whether the congestion-management injection gate is bypassed.
    pub fn bypass_throttle(self) -> bool {
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
        let s = EngineMutation::EscapeVcSkew;
        assert_eq!(s.skew_credit(1, 4, 3), Some((2, 4)));
        assert_eq!(s.skew_credit(2, 4, 3), Some((0, 4)));
        // single-VC ports cannot skew
        assert_eq!(s.skew_credit(0, 4, 1), Some((0, 4)));
    }

    #[test]
    fn ring_need_halves_only_for_bubble_skip() {
        assert_eq!(EngineMutation::RingBubbleSkip.ring_need(8), 8);
        assert_eq!(EngineMutation::CreditLeak.ring_need(8), 16);
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
        assert_eq!(EngineMutation::ThrottleBypass.ring_need(8), 16);
    }
}
