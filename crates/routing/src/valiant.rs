//! VAL: Valiant randomized routing (§II, §V; Valiant 1982).
//!
//! At injection, each inter-group packet picks a uniformly random
//! intermediate group (different from both source and destination
//! groups), travels minimally to it, then minimally to the destination —
//! the `l₁ g₁ l₂ g₂ l₃` path of §I. Intra-group traffic is routed
//! minimally: sending it through a remote group would burn two global
//! hops for no balancing benefit.
//!
//! VAL balances global links perfectly (throughput ½ under any
//! admissible pattern of *inter-group* demands) but §III shows its blind
//! spot: for ADV+h patterns the `l₂` hop concentrates on single local
//! links, capping throughput at `1/h`.

use crate::common::{hop_to_request, injection_vc, live_minimal_hop, VcLadder};
use crate::probe::ProbeState;
use crate::state::RngLanes;
use ofar_engine::snapshot::{Dec, Enc};
use ofar_engine::{InputCtx, Packet, Policy, Request, RequestKind, RouterView, SimConfig};
use ofar_topology::GroupId;
use rand::rngs::SmallRng;
use rand::Rng;

/// Valiant routing.
#[derive(Clone, Debug)]
pub struct ValiantPolicy {
    ladder: VcLadder,
    vcs_injection: usize,
    groups: usize,
    lanes: RngLanes,
    probe: ProbeState,
}

impl ValiantPolicy {
    /// Build for a simulator configuration.
    pub fn new(cfg: &SimConfig, seed: u64) -> Self {
        Self {
            ladder: VcLadder::new(cfg.vcs_local, cfg.vcs_global),
            vcs_injection: cfg.vcs_injection,
            groups: cfg.params.groups(),
            // "VAL": one intermediate-pick stream per injecting node, so
            // the draw order is keyed by the node, not the inject-loop
            // schedule.
            lanes: RngLanes::new(seed ^ 0x56414C, cfg.params.routers(), cfg.params.nodes()),
            probe: ProbeState::default(),
        }
    }

    /// Pick a uniform intermediate group different from `src` and `dst`.
    pub(crate) fn pick_intermediate(
        rng: &mut SmallRng,
        groups: usize,
        src: GroupId,
        dst: GroupId,
    ) -> GroupId {
        debug_assert_ne!(src, dst);
        debug_assert!(groups >= 3, "Valiant needs a third group");
        loop {
            let g = GroupId::from(rng.gen_range(0..groups));
            if g != src && g != dst {
                return g;
            }
        }
    }
}

impl Policy for ValiantPolicy {
    fn name(&self) -> &'static str {
        "VAL"
    }

    fn route(
        &mut self,
        view: &RouterView<'_>,
        _input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request> {
        if let Some(hop) = live_minimal_hop(view, pkt) {
            return Some(hop_to_request(
                view,
                pkt,
                hop,
                &self.ladder,
                RequestKind::Minimal,
            ));
        }
        // The leg towards the Valiant intermediate died under the packet:
        // drop the intermediate and head straight for the destination
        // (idempotent bookkeeping — see `Policy::route`). If the
        // destination itself is severed, wait and let the watchdog
        // report the partition.
        if pkt.intermediate.take().is_some() {
            if let Some(hop) = live_minimal_hop(view, pkt) {
                return Some(hop_to_request(
                    view,
                    pkt,
                    hop,
                    &self.ladder,
                    RequestKind::Minimal,
                ));
            }
        }
        None
    }

    fn on_inject(&mut self, view: &RouterView<'_>, pkt: &mut Packet) -> usize {
        let topo = view.fab.topo();
        let src_group = topo.group_of_node(pkt.src);
        let dst_group = topo.group_of_node(pkt.dst);
        if src_group != dst_group && pkt.intermediate.is_none() {
            let Self {
                probe,
                lanes,
                groups,
                ..
            } = self;
            let rng = lanes.node(pkt.src.idx());
            pkt.intermediate =
                Some(probe.intermediate_or(|| {
                    Self::pick_intermediate(rng, *groups, src_group, dst_group)
                }));
        }
        injection_vc(self.vcs_injection, pkt)
    }
}

crate::probe::impl_enumerable_via_probe!(ValiantPolicy);

impl ValiantPolicy {
    /// Checkpoint hook: VAL's only dynamic state is the
    /// intermediate-pick lane table (chosen intermediates ride in the
    /// packet headers themselves).
    pub(crate) fn save_state(&self, e: &mut Enc) {
        let Self {
            // Config-derived: the constructor rebuilds them from SimConfig.
            ladder: _,
            vcs_injection: _,
            groups: _,
            lanes,
            // Probe telemetry: deliberately reset on restore.
            probe: _,
        } = self;
        lanes.save(e);
    }

    /// Restore the lane table captured by [`ValiantPolicy::save_state`].
    pub(crate) fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), String> {
        self.lanes.load(d, "VAL")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofar_engine::Network;
    use ofar_topology::NodeId;
    use rand::SeedableRng;

    #[test]
    fn valiant_paths_stay_within_five_hops() {
        let cfg = SimConfig::paper(2);
        let mut net = Network::new(cfg, ValiantPolicy::new(&cfg, 7));
        let nodes = net.num_nodes();
        for s in 0..20 {
            let d = (s + nodes / 2) % nodes;
            net.generate(NodeId::from(s), NodeId::from(d));
        }
        net.run(3000);
        assert_eq!(net.stats().delivered_packets, 20);
        // every packet ≤ 5 hops → the average is too
        assert!(net.stats().avg_hops() <= 5.0);
    }

    #[test]
    fn intra_group_traffic_is_minimal() {
        let cfg = SimConfig::paper(2);
        let mut net = Network::new(cfg, ValiantPolicy::new(&cfg, 7));
        // src and dst in the same group, different routers
        let p = cfg.params.p;
        net.generate(NodeId::new(0), NodeId::from(p)); // router 0 → router 1
        net.run(200);
        assert_eq!(net.stats().delivered_packets, 1);
        assert_eq!(net.stats().hop_sum, 1, "one local hop expected");
    }

    #[test]
    fn intermediate_groups_are_uniform() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0u32; 9];
        for _ in 0..9000 {
            let g = ValiantPolicy::pick_intermediate(&mut rng, 9, GroupId::new(0), GroupId::new(4));
            counts[g.idx()] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[4], 0);
        for g in [1, 2, 3, 5, 6, 7, 8] {
            // 9000/7 ≈ 1286 each; allow ±20%
            assert!(
                (1000..1600).contains(&counts[g]),
                "group {g}: {}",
                counts[g]
            );
        }
    }
}
