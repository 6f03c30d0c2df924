//! The engine hook that carries one seeded flow-control defect.

use ofar_engine::{AuditReport, AuditViolation, Auditor, EngineMutation, Hooks};

/// [`Hooks`] of a deliberately defective engine: answers the four
/// perturbation points from one [`EngineMutation`] and forwards the
/// observation points to an [`Auditor`], whose report is what the audit
/// oracle reads. Built once per mutant and handed to
/// [`ofar_engine::Network::with_hooks`].
#[derive(Clone, Debug)]
pub struct Mutated {
    mutation: EngineMutation,
    auditor: Auditor,
}

impl Mutated {
    /// Seed `mutation`, auditing with a deep pass every `deep_interval`
    /// cycles.
    pub fn new(mutation: EngineMutation, deep_interval: u64) -> Self {
        Self {
            mutation,
            auditor: Auditor::with_deep_interval(deep_interval),
        }
    }
}

impl Hooks for Mutated {
    #[inline]
    fn check(
        &mut self,
        ok: impl FnOnce() -> bool,
        violation: impl FnOnce() -> AuditViolation,
    ) -> bool {
        self.auditor.check(ok, violation)
    }

    #[inline]
    fn deep_due(&self, cycle: u64) -> bool {
        self.auditor.deep_due(cycle)
    }

    fn deep_report(&mut self, checks: u64, violations: Vec<AuditViolation>) {
        self.auditor.deep_report(checks, violations);
    }

    fn take_report(&mut self) -> Option<AuditReport> {
        self.auditor.take_report()
    }

    #[inline]
    fn skew_credit(&mut self, vc: u8, phits: u32, vcs: usize) -> Option<(u8, u32)> {
        self.mutation.skew_credit(vc, phits, vcs)
    }

    #[inline]
    fn tolerates_overflow(&self) -> bool {
        true
    }

    #[inline]
    fn ring_entry_need(&self, size: u32) -> u32 {
        self.mutation.ring_need(size)
    }

    #[inline]
    fn bypass_throttle(&self) -> bool {
        self.mutation.bypass_throttle()
    }
}
