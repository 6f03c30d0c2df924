//! MIN: deterministic minimal routing (§V).
//!
//! Every packet follows its unique minimal `l? g? l?` path, on the
//! ascending VC ladder. Optimal under uniform traffic; collapses to
//! `1/(2h²)` under adversarial inter-group patterns (§III).

use crate::common::{hop_to_request, injection_vc, live_minimal_hop, VcLadder};
use ofar_engine::{InputCtx, Packet, Policy, Request, RequestKind, RouterView, SimConfig};

/// Minimal routing.
#[derive(Clone, Debug)]
pub struct MinPolicy {
    ladder: VcLadder,
    vcs_injection: usize,
}

impl MinPolicy {
    /// Build for a simulator configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            ladder: VcLadder::new(cfg.vcs_local, cfg.vcs_global),
            vcs_injection: cfg.vcs_injection,
        }
    }
}

impl Policy for MinPolicy {
    fn name(&self) -> &'static str {
        "MIN"
    }

    fn route(
        &mut self,
        view: &RouterView<'_>,
        _input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request> {
        // MIN is oblivious: when its one minimal direction is severed by
        // a fault it simply waits; the run watchdog diagnoses the
        // partition. Dead local links are detoured inside the group.
        let hop = live_minimal_hop(view, pkt)?;
        Some(hop_to_request(
            view,
            pkt,
            hop,
            &self.ladder,
            RequestKind::Minimal,
        ))
    }

    fn on_inject(&mut self, _view: &RouterView<'_>, pkt: &mut Packet) -> usize {
        injection_vc(self.vcs_injection, pkt)
    }
}

// MIN is deterministic: no choices to pin, nothing ever sampled.
crate::probe::impl_enumerable_deterministic!(MinPolicy);

#[cfg(test)]
mod tests {
    use super::*;
    use ofar_engine::Network;
    use ofar_topology::NodeId;

    #[test]
    fn min_delivers_across_the_diameter() {
        let cfg = SimConfig::paper(2);
        let mut net = Network::new(cfg, MinPolicy::new(&cfg));
        // farthest corner to corner: node 0 to the last node
        let last = NodeId::from(net.num_nodes() - 1);
        net.generate(NodeId::new(0), last);
        net.run(500);
        assert_eq!(net.stats().delivered_packets, 1);
        // l-g-l is at most 3 hops
        assert!(net.stats().hop_sum <= 3);
        assert_eq!(
            net.stats().local_misroutes + net.stats().global_misroutes,
            0
        );
    }

    #[test]
    fn min_zero_load_latency_is_sane() {
        // one local hop + one global + one local = ~10+100+10 plus router
        // and serialization overheads; must be well under 200 cycles.
        let cfg = SimConfig::paper(2);
        let mut net = Network::new(cfg, MinPolicy::new(&cfg));
        let last = NodeId::from(net.num_nodes() - 1);
        net.generate(NodeId::new(0), last);
        net.run(500);
        let lat = net.stats().avg_latency();
        assert!(lat > 100.0 && lat < 200.0, "zero-load latency {lat}");
    }
}
