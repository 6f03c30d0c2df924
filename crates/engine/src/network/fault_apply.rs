//! The `fault_apply` phase (§VII): installing a fault plan, and the one
//! place a fail-stop transition is applied — from the plan at the top
//! of `step`, from the public fail/restore calls, or from an LLR
//! escalation.

use super::Network;
use crate::fault::{FaultKind, FaultPlan};
use crate::hooks::Hooks;
use crate::policy::Policy;
use ofar_topology::RouterId;

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Install a deterministic fault schedule. Events are applied at the
    /// top of the `step` for their cycle; events already in the past
    /// apply on the next step. Replaces any previous plan. A plan with
    /// transient wire-error events enables the LLR layer.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if plan.has_transient() {
            self.enable_llr();
        }
        self.plan = plan;
        self.plan_cursor = 0;
    }

    /// Fail the link(s) between two adjacent routers right now. Dead
    /// outputs stop being granted immediately; phits already on the wire
    /// land normally (fail-stop at packet granularity), so conservation
    /// invariants keep holding. Returns false if already failed.
    pub fn fail_link(&mut self, a: RouterId, b: RouterId) -> bool {
        self.apply_fault(FaultKind::FailLink(a, b))
    }

    /// Restore a previously failed link. Returns false if it was not
    /// failed.
    pub fn restore_link(&mut self, a: RouterId, b: RouterId) -> bool {
        self.apply_fault(FaultKind::RestoreLink(a, b))
    }

    #[expect(
        clippy::unreachable,
        reason = "transient fault kinds never report a changed fail-stop state; the arm is statically dead"
    )]
    pub(super) fn apply_fault(&mut self, kind: FaultKind) -> bool {
        let changed = self.faults.apply(kind, &self.fab);
        if changed {
            self.faults_ever = true;
            // One count per effective transition: a link restored and
            // re-failed in the same cycle registers once on each counter,
            // while redundant transitions (apply returned false) never
            // count.
            match kind {
                FaultKind::FailLink(..) => self.stats.link_failures += 1,
                FaultKind::RestoreLink(..) => self.stats.link_repairs += 1,
                FaultKind::FailRouter(..) => self.stats.router_failures += 1,
                FaultKind::RestoreRouter(..) => self.stats.router_repairs += 1,
                // Transient kinds never change the fail-stop liveness
                // state, so apply() returns false for them.
                FaultKind::CorruptPhit(..)
                | FaultKind::DropPhit(..)
                | FaultKind::SetLinkBer(..) => unreachable!(),
            }
            // Fail-stop semantics under LLR: transfers already started
            // complete. A replay entry the receiver has not accepted IS
            // the canonical in-progress transfer of its packet, so a
            // failing link force-delivers them into the (credit-reserved)
            // downstream buffers before the allocator stops serving it.
            if matches!(kind, FaultKind::FailLink(..) | FaultKind::FailRouter(..))
                && self.llr.is_some()
            {
                self.llr_flush_dead_links();
            }
        } else if kind.is_transient() {
            // One-shots and BER overrides registered inside FaultState;
            // they need the LLR layer to mean anything.
            debug_assert!(self.llr.is_some(), "transient fault without LLR enabled");
        }
        changed
    }
}
