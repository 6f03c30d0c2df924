//! PAR: Progressive Adaptive Routing (Jiang, Kim & Dally, ISCA 2009).
//!
//! The OFAR paper cites PAR (§I, §II) as the one prior mechanism that can
//! revisit the min/Valiant decision after injection — but only *once*,
//! at the second router of the source group, and only by paying for an
//! extra local virtual channel (`vcs_local = 4`). It is implemented here
//! as a baseline extension to complete the mechanism family.
//!
//! Model: at injection the source router takes a UGAL-L-style decision
//! from its **local** queues only. If the minimal path's global channel
//! is not hosted by the injection router, the decision is provisional
//! (the packet is marked with [`FLAG_AUX`]); when the packet reaches the
//! router that hosts the channel, the decision is re-evaluated with live
//! credits and, if the channel is saturated, the packet diverts to a
//! Valiant path from there. The extra local VC keeps the ascending-VC
//! deadlock argument intact for the (up to) two source-group local hops.

use crate::common::{hop_to_request, injection_vc, live_minimal_hop, VcLadder};
use crate::probe::ProbeState;
use crate::state::RngLanes;
use crate::valiant::ValiantPolicy;
use ofar_engine::snapshot::{Dec, Enc};
use ofar_engine::{
    InputCtx, Packet, Policy, Request, RequestKind, RouterView, SimConfig, FLAG_AUX,
};
use ofar_topology::GroupId;
use rand::rngs::SmallRng;

/// PAR tunables.
#[derive(Clone, Copy, Debug)]
pub struct ParConfig {
    /// A global channel is considered saturated when its mean occupancy
    /// exceeds this fraction.
    pub saturation_threshold: f64,
}

impl Default for ParConfig {
    fn default() -> Self {
        Self {
            saturation_threshold: 0.25,
        }
    }
}

/// Progressive Adaptive Routing.
#[derive(Clone, Debug)]
pub struct ParPolicy {
    ladder: VcLadder,
    vcs_injection: usize,
    vcs_global: usize,
    groups: usize,
    par: ParConfig,
    lanes: RngLanes,
    probe: ProbeState,
}

impl ParPolicy {
    /// Build for a simulator configuration.
    ///
    /// # Panics
    /// Panics unless `cfg.vcs_local ≥ 4` — PAR's second source-group
    /// local hop needs the extra VC (§II).
    pub fn new(cfg: &SimConfig, seed: u64) -> Self {
        assert!(
            cfg.vcs_local >= 4,
            "PAR requires 4 local VCs (got {}); use SimConfig with vcs_local = 4",
            cfg.vcs_local
        );
        Self {
            ladder: VcLadder::new(cfg.vcs_local, cfg.vcs_global),
            vcs_injection: cfg.vcs_injection,
            vcs_global: cfg.vcs_global,
            groups: cfg.params.groups(),
            par: ParConfig::default(),
            // "PAR": diverts happen at injection (node shard) *and* at
            // the progressive re-evaluation (router shard); each draw
            // comes from the deciding shard's lane.
            lanes: RngLanes::new(seed ^ 0x504152, cfg.params.routers(), cfg.params.nodes()),
            probe: ProbeState::default(),
        }
    }

    /// Live mean occupancy of global port `k` of the current router.
    fn live_global_occupancy(&self, view: &RouterView<'_>, k: usize) -> f64 {
        let port = view.fab.global_out(k);
        (0..self.vcs_global)
            .map(|vc| view.occupancy(port, vc))
            .sum::<f64>()
            / self.vcs_global as f64
    }

    /// Divert `pkt` onto a Valiant path, drawing the intermediate from
    /// `rng` — the *deciding shard's* lane: the injecting node's at
    /// injection time, the re-evaluating router's at the progressive
    /// step.
    fn divert(
        probe: &mut ProbeState,
        rng: &mut SmallRng,
        groups: usize,
        pkt: &mut Packet,
        src: GroupId,
        dst: GroupId,
    ) {
        pkt.intermediate =
            Some(probe.intermediate_or(|| ValiantPolicy::pick_intermediate(rng, groups, src, dst)));
    }
}

impl Policy for ParPolicy {
    fn name(&self) -> &'static str {
        "PAR"
    }

    fn route(
        &mut self,
        view: &RouterView<'_>,
        _input: InputCtx,
        pkt: &mut Packet,
    ) -> Option<Request> {
        // Progressive re-evaluation: the packet carried a provisional
        // minimal decision and is now at the router hosting the minimal
        // global channel of the source group.
        if pkt.has(FLAG_AUX) {
            let topo = view.fab.topo();
            let src_group = topo.group_of_node(pkt.src);
            let dst_group = topo.group_of_node(pkt.dst);
            if view.group() == src_group {
                let (host, k) = topo.global_link_from(src_group, dst_group);
                if host == view.router {
                    pkt.clear(FLAG_AUX);
                    if self.live_global_occupancy(view, k) > self.par.saturation_threshold {
                        let Self {
                            probe,
                            lanes,
                            groups,
                            ..
                        } = self;
                        Self::divert(
                            probe,
                            lanes.router(view.router.idx()),
                            *groups,
                            pkt,
                            src_group,
                            dst_group,
                        );
                    }
                }
            } else {
                pkt.clear(FLAG_AUX); // left the source group; decision moot
            }
        }
        if let Some(hop) = live_minimal_hop(view, pkt) {
            return Some(hop_to_request(
                view,
                pkt,
                hop,
                &self.ladder,
                RequestKind::Minimal,
            ));
        }
        // Current leg severed by a fault. In the source group, divert to
        // a Valiant path (PAR may re-decide there); mid-route, drop a
        // dead intermediate and head for the destination.
        let topo = view.fab.topo();
        let src_group = topo.group_of_node(pkt.src);
        let dst_group = topo.group_of_node(pkt.dst);
        if pkt.intermediate.take().is_none() && view.group() == src_group && src_group != dst_group
        {
            pkt.clear(FLAG_AUX);
            let Self {
                probe,
                lanes,
                groups,
                ..
            } = self;
            Self::divert(
                probe,
                lanes.router(view.router.idx()),
                *groups,
                pkt,
                src_group,
                dst_group,
            );
        }
        live_minimal_hop(view, pkt)
            .map(|hop| hop_to_request(view, pkt, hop, &self.ladder, RequestKind::Minimal))
    }

    fn on_inject(&mut self, view: &RouterView<'_>, pkt: &mut Packet) -> usize {
        let topo = view.fab.topo();
        let src_group = topo.group_of_node(pkt.src);
        let dst_group = topo.group_of_node(pkt.dst);
        if src_group != dst_group && pkt.intermediate.is_none() && !pkt.has(FLAG_AUX) {
            let (host, k) = topo.global_link_from(src_group, dst_group);
            if host == view.router {
                // The minimal channel is local: decide now, finally.
                if self.live_global_occupancy(view, k) > self.par.saturation_threshold {
                    let Self {
                        probe,
                        lanes,
                        groups,
                        ..
                    } = self;
                    Self::divert(
                        probe,
                        lanes.node(pkt.src.idx()),
                        *groups,
                        pkt,
                        src_group,
                        dst_group,
                    );
                }
            } else {
                // Provisionally minimal; re-evaluate at the hosting
                // router (the "progressive" step).
                pkt.set(FLAG_AUX);
            }
        }
        injection_vc(self.vcs_injection, pkt)
    }
}

crate::probe::impl_enumerable_via_probe!(ParPolicy);

/// The `vcs_local = 4` configuration PAR needs, derived from a base
/// config.
pub fn par_config(mut cfg: SimConfig) -> SimConfig {
    cfg.vcs_local = 4;
    cfg
}

impl ParPolicy {
    /// Checkpoint hook: PAR's only dynamic state is its tie-break lane
    /// table.
    pub(crate) fn save_state(&self, e: &mut Enc) {
        let Self {
            // Config-derived: the constructor rebuilds them from SimConfig.
            ladder: _,
            vcs_injection: _,
            vcs_global: _,
            groups: _,
            par: _,
            lanes,
            // Probe telemetry: deliberately reset on restore.
            probe: _,
        } = self;
        lanes.save(e);
    }

    /// Restore the lane table captured by [`ParPolicy::save_state`].
    pub(crate) fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), String> {
        self.lanes.load(d, "PAR")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofar_engine::Network;
    use ofar_topology::NodeId;

    #[test]
    #[should_panic(expected = "PAR requires 4 local VCs")]
    fn par_rejects_three_local_vcs() {
        let cfg = SimConfig::paper(2);
        let _ = ParPolicy::new(&cfg, 1);
    }

    #[test]
    fn par_minimal_when_uncongested() {
        let cfg = par_config(SimConfig::paper(2));
        let mut net = Network::new(cfg, ParPolicy::new(&cfg, 1));
        let last = NodeId::from(net.num_nodes() - 1);
        net.generate(NodeId::new(0), last);
        net.run(500);
        assert_eq!(net.stats().delivered_packets, 1);
        assert!(net.stats().hop_sum <= 3);
    }

    #[test]
    fn par_diverts_under_pressure() {
        let cfg = par_config(SimConfig::paper(2));
        let mut net = Network::new(cfg, ParPolicy::new(&cfg, 1));
        let per_group = cfg.params.a * cfg.params.p;
        for cycle in 0..4000u64 {
            if cycle % 8 == 0 {
                for n in 0..per_group {
                    net.generate(
                        NodeId::from(n),
                        NodeId::from(per_group + (n + cycle as usize) % per_group),
                    );
                }
            }
            net.step();
        }
        let s = net.stats();
        assert!(s.delivered_packets > 100);
        assert!(s.avg_hops() > 3.01, "PAR never diverted: {}", s.avg_hops());
    }
}
