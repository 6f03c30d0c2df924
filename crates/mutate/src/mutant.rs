//! [`MutantPolicy`] — the real mechanism with one seeded defect.
//!
//! The wrapper owns an unmodified [`Mechanism`] and perturbs *around*
//! it: header fields are skewed before the inner decision, requests are
//! rewritten after it. This keeps each operator a genuine fault in an
//! otherwise-correct mechanism (the mutant shares every line of the
//! production routing code) rather than a from-scratch strawman.
//!
//! The one operator that needs mechanism *tunables* (`ring-admit-always`:
//! guard off, minimal patience, no misroutes) gets them in
//! [`MutantPolicy::new`] through the public `build_tuned` path, the same
//! configuration surface a user sets.

use crate::operator::MutationOp;
use ofar_engine::{
    InputCtx, NetSnapshot, Packet, Policy, PortKind, Request, RequestKind, RouterView, SimConfig,
    FLAG_AUX, FLAG_LOCAL_MISROUTED,
};
use ofar_routing::{
    EnumerablePolicy, Mechanism, MechanismKind, MisrouteThreshold, OfarConfig, ProbeFeedback,
    ProbePin, RingGuard,
};
use ofar_topology::GroupId;

/// Whether a request moves on the canonical (VC-ladder) network rather
/// than the escape ring. VC-rewriting operators must not touch ring
/// traffic: the escape VC is outside the ladder by construction, and
/// corrupting it would fault the *engine's* ring plumbing, not the
/// mechanism's ladder discipline.
fn canonical(req: &Request) -> bool {
    !matches!(
        req.kind,
        RequestKind::RingEnter | RequestKind::RingAdvance | RequestKind::RingExit
    )
}

/// A real routing mechanism carrying one seeded defect from the
/// operator catalog.
#[derive(Clone, Debug)]
pub struct MutantPolicy {
    inner: Mechanism,
    op: MutationOp,
    vcs_local: usize,
    vcs_global: usize,
    groups: usize,
    max_ring_exits: u8,
}

impl MutantPolicy {
    /// Build `kind` against the (already adapted) `cfg` and seed the
    /// defect of `op` into it. Panics if `op` does not apply to `kind`
    /// (see [`MutationOp::applies_to`]) — the matrix filters first.
    pub fn new(op: MutationOp, kind: MechanismKind, cfg: &SimConfig, seed: u64) -> Self {
        assert!(
            op.applies_to(kind),
            "{} does not apply to {}",
            op.name(),
            kind.name()
        );
        // The guard defect only matters when the ring is actually under
        // admission pressure: at paper-default patience the guard is
        // consulted a handful of times per million cycles at h=2 and its
        // absence is invisible. The mutant therefore carries the
        // ring-hungriest tuning the real code allows — minimal patience
        // and a threshold that admits no misroute, so the ring is the
        // only relief valve — and disables the guard on top. Its oracle
        // compares against the *same* tuning with the guard left on (see
        // `oracle.rs`), so the guard is the only behavioral difference
        // under test.
        let tuned = (op == MutationOp::RingAdmitAlways).then(|| OfarConfig {
            ring_guard: RingGuard::Off,
            ring_patience: 1,
            threshold: MisrouteThreshold::Static {
                th_min: 0.0,
                th_nonmin: -1.0,
            },
            ..OfarConfig::base()
        });
        MutantPolicy {
            inner: kind.build_tuned(cfg, seed, tuned, None),
            op,
            vcs_local: cfg.vcs_local,
            vcs_global: cfg.vcs_global,
            groups: cfg.params.groups(),
            max_ring_exits: cfg.max_ring_exits,
        }
    }

    /// The seeded operator.
    pub fn op(&self) -> MutationOp {
        self.op
    }

    /// Header perturbations applied before the inner mechanism decides.
    fn pre_route(&self, pkt: &mut Packet) {
        match self.op {
            MutationOp::ExitBudgetIgnored => pkt.ring_exits_left = self.max_ring_exits.max(1),
            // The inner policy increments `wait` itself; clearing it
            // here caps the observed wait at 1, below any patience >= 2.
            MutationOp::RingNever => pkt.wait = 0,
            MutationOp::LocalFlagStuck => pkt.flags &= !FLAG_LOCAL_MISROUTED,
            MutationOp::AuxFlagStuck => pkt.flags |= FLAG_AUX,
            _ => {}
        }
    }

    /// Request rewrites applied after the inner mechanism decided.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a validated vc count is below 256"
    )]
    fn post_route(
        &self,
        view: &RouterView<'_>,
        input: InputCtx,
        mut req: Request,
    ) -> Option<Request> {
        let out_kind = view.fab.out_kind(req.out_port as usize);
        let vc = req.out_vc as usize;
        match self.op {
            // Ladder rewrites only touch canonical requests whose VC is
            // inside the ladder (embedded-ring escape VCs sit above it).
            MutationOp::LocalVcFlatten
                if canonical(&req) && out_kind == PortKind::Local && vc < self.vcs_local =>
            {
                req.out_vc = 0;
            }
            MutationOp::LocalVcSwap
                if canonical(&req) && out_kind == PortKind::Local && vc < self.vcs_local =>
            {
                req.out_vc = ((vc + 1) % self.vcs_local) as u8;
            }
            MutationOp::LocalVcInvert
                if canonical(&req) && out_kind == PortKind::Local && vc < self.vcs_local =>
            {
                req.out_vc = (self.vcs_local - 1 - vc) as u8;
            }
            MutationOp::GlobalVcFlatten
                if canonical(&req) && out_kind == PortKind::Global && vc < self.vcs_global =>
            {
                req.out_vc = 0;
            }
            MutationOp::GlobalVcSwap
                if canonical(&req) && out_kind == PortKind::Global && vc < self.vcs_global =>
            {
                req.out_vc = ((vc + 1) % self.vcs_global) as u8;
            }
            MutationOp::EjectNever if req.kind == RequestKind::Eject => return None,
            MutationOp::RingRider
                if input.is_escape_vc
                    && matches!(req.kind, RequestKind::RingExit | RequestKind::Eject) =>
            {
                let ring = view.fab.ring_of_input(view.router, input.port, input.vc)?;
                let (port, vc) = view.escape_vc_of_ring(ring)?;
                return Some(Request::new(port, vc, RequestKind::RingAdvance));
            }
            _ => {}
        }
        Some(req)
    }
}

impl Policy for MutantPolicy {
    fn name(&self) -> &'static str {
        self.op.name()
    }

    fn route(
        &mut self,
        view: &RouterView<'_>,
        input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request> {
        self.pre_route(pkt);
        let req = self.inner.route(view, input, pkt)?;
        self.post_route(view, input, req)
    }

    fn on_inject(&mut self, view: &RouterView<'_>, pkt: &mut Packet) -> usize {
        let vc = self.inner.on_inject(view, pkt);
        match self.op {
            MutationOp::IntermediateOffByOne => {
                if let Some(g) = pkt.intermediate {
                    pkt.intermediate = Some(GroupId::from((g.idx() + 1) % self.groups));
                }
            }
            MutationOp::IntermediateNever => pkt.intermediate = None,
            _ => {}
        }
        vc
    }

    fn end_cycle(&mut self, net: &NetSnapshot<'_>) {
        self.inner.end_cycle(net);
    }

    fn needs_ring(&self) -> bool {
        self.inner.needs_ring()
    }
}

impl EnumerablePolicy for MutantPolicy {
    fn set_probe(&mut self, pin: Option<ProbePin>) {
        self.inner.set_probe(pin)
    }

    fn probe_feedback(&self) -> ProbeFeedback {
        self.inner.probe_feedback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutant_reports_its_operator_name() {
        let kind = MechanismKind::Ofar;
        let cfg = kind.adapt_config(SimConfig::paper(2));
        let m = MutantPolicy::new(MutationOp::RingRider, kind, &cfg, 7);
        assert_eq!(m.name(), "ring-rider");
        assert!(m.needs_ring());
    }

    #[test]
    #[should_panic(expected = "does not apply")]
    fn inapplicable_pairs_are_rejected() {
        let kind = MechanismKind::Min;
        let cfg = kind.adapt_config(SimConfig::paper(2));
        let _ = MutantPolicy::new(MutationOp::RingRider, kind, &cfg, 0);
    }
}
