//! Deterministic mock router views for conformance checking.
//!
//! The conformance model checker (`ofar-verify`) drives every routing
//! policy over its full reachable decision space without running the
//! cycle engine. [`ViewProbe`] owns the output-side arrays of a router
//! arena and hands out [`RouterView`]s over them, so a policy's `route`
//! and `on_inject` can be called on arbitrary (router, credit-state)
//! configurations. The credit state is set per port from a small
//! lattice of [`PortLoad`] conditions rather than evolved cycle by
//! cycle — the checker enumerates the lattice instead of simulating.

use crate::fabric::Fabric;
use crate::fault::FaultState;
use crate::policy::RouterView;
use ofar_topology::RouterId;

/// The fixed "current cycle" of every probe view. Any value works; it
/// only needs to be far enough from zero that a `busy_until` in the
/// future can be expressed.
pub const PROBE_NOW: u64 = 10_000;

/// One point of the credit/occupancy lattice applied to an output port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortLoad {
    /// Downstream buffers empty: full credits, link idle.
    Empty,
    /// Downstream buffers full: zero credits on every VC.
    Congested,
    /// Room for exactly one packet per VC: a single packet fits, but the
    /// two-packet bubble condition for ring entry fails.
    BubbleBlocked,
    /// Full credits but the output link is transmitting (busy).
    Busy,
}

/// A self-contained mock of one router's policy-visible state.
///
/// Owns the [`Fabric`], a healthy [`FaultState`] and the output busy
/// times and credits of a network where only the router it is positioned
/// at ever leaves [`PortLoad::Empty`]; [`ViewProbe::view`] borrows them
/// as the `RouterView` every [`crate::policy::Policy`] method takes.
pub struct ViewProbe {
    fab: Fabric,
    faults: FaultState,
    out_busy: Vec<u64>,
    credits: Vec<u32>,
    router: RouterId,
}

impl ViewProbe {
    /// Build a probe over a fresh fabric for `cfg`, positioned at router 0
    /// with all ports [`PortLoad::Empty`].
    pub fn new(cfg: crate::config::SimConfig) -> Self {
        let fab = Fabric::new(cfg);
        Self {
            faults: FaultState::new(&fab),
            out_busy: vec![0; fab.topo().num_routers() * fab.n_out()],
            credits: fab.lane_caps().to_vec(),
            fab,
            router: RouterId::new(0),
        }
    }

    /// The wiring being probed.
    #[inline]
    pub fn fab(&self) -> &Fabric {
        &self.fab
    }

    /// The router the next [`ViewProbe::view`] will describe.
    #[inline]
    pub fn router(&self) -> RouterId {
        self.router
    }

    /// Reposition the probe at `router`, resetting every port to
    /// [`PortLoad::Empty`].
    pub fn set_router(&mut self, router: RouterId) {
        self.set_all(PortLoad::Empty);
        self.router = router;
    }

    /// Apply one lattice point to a single output port. Ejection ports
    /// carry no credits (nodes are infinite sinks); for them only the
    /// busy bit is meaningful.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a validated packet_size fits u32"
    )]
    pub fn set_load(&mut self, port: usize, load: PortLoad) {
        let lanes = self.fab.out_link(self.router, port).lanes();
        let caps = &self.fab.lane_caps()[lanes.clone()];
        let credits = &mut self.credits[lanes];
        match load {
            PortLoad::Empty | PortLoad::Busy => credits.copy_from_slice(caps),
            PortLoad::Congested => credits.fill(0),
            PortLoad::BubbleBlocked => {
                let one = self.fab.cfg().packet_size as u32;
                for (c, cap) in credits.iter_mut().zip(caps) {
                    *c = one.min(*cap);
                }
            }
        }
        self.out_busy[self.router.idx() * self.fab.n_out() + port] = match load {
            PortLoad::Busy => PROBE_NOW + 1_000,
            _ => 0,
        };
    }

    /// Apply one lattice point to every output port.
    pub fn set_all(&mut self, load: PortLoad) {
        for port in 0..self.fab.n_out() {
            self.set_load(port, load);
        }
    }

    /// Apply one fault transition to the probe's fault mask, so views
    /// can be taken over a partially-dead router (failed links filter
    /// `link_up`/`ring_up` exactly as they do in the live engine).
    /// Returns whether the liveness mask changed.
    pub fn apply_fault(&mut self, kind: crate::fault::FaultKind) -> bool {
        self.faults.apply(kind, &self.fab)
    }

    /// Borrow the current state as the view a policy routes against.
    pub fn view(&self) -> RouterView<'_> {
        RouterView::new(
            &self.fab,
            self.router,
            PROBE_NOW,
            &self.out_busy[self.router.idx() * self.fab.n_out()..][..self.fab.n_out()],
            &self.credits[self.fab.router_lanes(self.router)],
            &self.faults,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RingMode, SimConfig};

    #[test]
    fn lattice_points_shape_availability() {
        let mut probe = ViewProbe::new(SimConfig::paper(2).with_ring(RingMode::Embedded));
        let lp = probe.fab().local_out(0);
        let phits = probe.fab().cfg().packet_size as u32;

        probe.set_load(lp, PortLoad::Empty);
        assert!(probe.view().available(lp, 0));
        assert!(probe.view().credits(lp, 0) >= 2 * phits);

        probe.set_load(lp, PortLoad::Congested);
        assert!(!probe.view().available(lp, 0));
        assert_eq!(probe.view().occupancy(lp, 0), 1.0);

        probe.set_load(lp, PortLoad::BubbleBlocked);
        assert!(probe.view().available(lp, 0));
        assert!(probe.view().credits(lp, 0) < 2 * phits);
        assert_eq!(probe.view().credits(lp, 0), phits);

        probe.set_load(lp, PortLoad::Busy);
        assert!(!probe.view().available(lp, 0));
        assert!(probe.view().out_busy(lp));
    }

    #[test]
    fn repositioning_resets_state() {
        let mut probe = ViewProbe::new(SimConfig::paper(2));
        probe.set_all(PortLoad::Congested);
        probe.set_router(RouterId::new(5));
        assert_eq!(probe.router(), RouterId::new(5));
        let lp = probe.fab().local_out(0);
        assert!(probe.view().available(lp, 0));
    }

    /// The all-zero-credit corner of the lattice: every routable port
    /// reads fully occupied and unavailable, yet the escape outputs are
    /// still *enumerable* — a policy must be able to ask for the ring
    /// precisely when nothing else has room.
    #[test]
    fn zero_credit_lattice_saturates_every_port() {
        let mut probe = ViewProbe::new(SimConfig::paper(2).with_ring(RingMode::Embedded));
        probe.set_all(PortLoad::Congested);
        let view = probe.view();
        let n_out = probe.fab().n_out();
        for port in 0..n_out {
            if view.fab.out_kind(port) == crate::fabric::PortKind::Node {
                continue; // ejection ports carry no credits
            }
            assert!(!view.available(port, 0), "port {port} must be saturated");
            assert_eq!(view.occupancy(port, 0), 1.0, "port {port}");
        }
        let (port, vc) = view
            .best_escape_vc()
            .expect("escape outputs stay enumerable at zero credits");
        assert_eq!(view.credits(port, vc), 0);
    }

    /// Fault masks flow through the probe exactly as in the live engine:
    /// a failed link turns its output port dead (`link_up` false, hence
    /// unavailable at full credits), takes any ring crossing it down
    /// with it, and a restore brings both back.
    #[test]
    fn dead_ports_under_fault_masks() {
        use crate::fault::FaultKind;
        let mut probe = ViewProbe::new(SimConfig::paper(2).with_ring(RingMode::Embedded));
        probe.set_all(PortLoad::Empty);
        let lp = probe.fab().local_out(0);
        let peer = RouterId::new(probe.fab().out_link(probe.router(), lp).dst_router);

        assert!(probe.view().link_up(lp));
        assert!(probe.view().ring_up(0));

        assert!(probe.apply_fault(FaultKind::FailLink(probe.router(), peer)));
        let view = probe.view();
        assert!(!view.link_up(lp), "failed link must read dead");
        assert!(
            !view.available(lp, 0),
            "full credits cannot resurrect a dead port"
        );
        // The h=2 embedded ring uses every router's local links, so
        // killing one severs the ring and best_escape_vc must refuse it.
        assert!(!view.ring_up(0), "ring crossing the dead link is down");
        assert!(view.best_escape_vc().is_none());

        assert!(probe.apply_fault(FaultKind::RestoreLink(probe.router(), peer)));
        assert!(probe.view().link_up(lp));
        assert!(probe.view().ring_up(0));
        assert!(probe.view().best_escape_vc().is_some());
    }
}
