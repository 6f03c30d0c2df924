//! PB: Piggybacking — indirect adaptive routing with broadcast congestion
//! state (Jiang, Kim & Dally, ISCA 2009; §II and §V of the OFAR paper).
//!
//! Each router tracks the occupancy of the global channels it hosts and
//! *piggybacks* (broadcasts) a per-channel saturation flag to the rest of
//! its group. At injection, the source router compares the minimal path's
//! global channel against the global channel of one random Valiant
//! alternative, using the (stale) broadcast state, and commits the packet
//! to one of the two paths. The decision is **final at injection time** —
//! the very limitation OFAR removes (§IV).
//!
//! The broadcast is modeled as a periodic snapshot: every
//! [`PbConfig::update_period`] cycles each router's global-channel
//! occupancies become visible to its whole group, giving the information
//! staleness the paper attributes PB's slower transient response to.
//!
//! The paper tuned PB's threshold empirically and did not publish it; we
//! do the same (see the `ablation_pb` bench binary) and default to the
//! best value found there.

use crate::common::{hop_to_request, injection_vc, live_minimal_hop, VcLadder};
use crate::probe::ProbeState;
use crate::state::{finish, named, RngLanes};
use crate::valiant::ValiantPolicy;
use ofar_engine::snapshot::{Dec, Enc};
use ofar_engine::{
    InputCtx, NetSnapshot, Packet, Policy, Request, RequestKind, RouterView, SimConfig,
};
use ofar_topology::{Dragonfly, GroupId, RouterId};

/// Tunables of the PB mechanism.
#[derive(Clone, Copy, Debug)]
pub struct PbConfig {
    /// A global channel is flagged saturated when its credit-estimated
    /// occupancy exceeds this fraction.
    pub saturation_threshold: f64,
    /// Cycles between congestion broadcasts within a group.
    pub update_period: u64,
}

impl Default for PbConfig {
    fn default() -> Self {
        Self {
            // Empirically tuned, like the paper ("a similar study was
            // performed for the threshold values in PB", §V): the
            // `ablation_pb` bench sweeps threshold × period; 0.4 gives
            // PB its best adversarial throughput without hurting
            // uniform latency. See EXPERIMENTS.md.
            saturation_threshold: 0.4,
            update_period: 10,
        }
    }
}

/// Piggybacking adaptive routing.
#[derive(Clone, Debug)]
pub struct PbPolicy {
    ladder: VcLadder,
    vcs_injection: usize,
    groups: usize,
    h: usize,
    pb: PbConfig,
    /// Broadcast-visible occupancy of every global channel, indexed by
    /// `router · h + k`. Stale by up to `update_period` cycles.
    visible: Vec<f32>,
    lanes: RngLanes,
    probe: ProbeState,
}

impl PbPolicy {
    /// Build for a simulator configuration with default PB tunables.
    pub fn new(cfg: &SimConfig, seed: u64) -> Self {
        Self::with_config(cfg, seed, PbConfig::default())
    }

    /// Build with explicit PB tunables (threshold ablation).
    pub fn with_config(cfg: &SimConfig, seed: u64, pb: PbConfig) -> Self {
        Self {
            ladder: VcLadder::new(cfg.vcs_local, cfg.vcs_global),
            vcs_injection: cfg.vcs_injection,
            groups: cfg.params.groups(),
            h: cfg.params.h,
            pb,
            visible: vec![0.0; cfg.params.routers() * cfg.params.h],
            // "PB": one Valiant-candidate stream per injecting node.
            lanes: RngLanes::new(seed ^ 0x5042, cfg.params.routers(), cfg.params.nodes()),
            probe: ProbeState::default(),
        }
    }

    /// Broadcast-visible occupancy of the global channel leaving `from`
    /// towards `to` (both groups, `from != to`).
    fn channel_occupancy(&self, topo: &Dragonfly, from: GroupId, to: GroupId) -> f64 {
        let (router, k) = topo.global_link_from(from, to);
        f64::from(self.visible[router.idx() * self.h + k])
    }

    /// Whether the channel `from → to` is flagged saturated.
    fn saturated(&self, topo: &Dragonfly, from: GroupId, to: GroupId) -> bool {
        self.channel_occupancy(topo, from, to) > self.pb.saturation_threshold
    }
}

impl Policy for PbPolicy {
    fn name(&self) -> &'static str {
        "PB"
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
        // The committed path died under the packet. PB's decision is
        // final at injection, but a dead Valiant leg would strand the
        // packet forever — fall back to the destination path, like VAL.
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
            // Candidate Valiant path through one random intermediate.
            let Self {
                probe,
                lanes,
                groups,
                ..
            } = self;
            let rng = lanes.node(pkt.src.idx());
            let inter = probe.intermediate_or(|| {
                ValiantPolicy::pick_intermediate(rng, *groups, src_group, dst_group)
            });
            // Decision from (possibly stale) broadcast flags: misroute
            // only when the minimal channel is saturated and the Valiant
            // channel is not. A live refinement applies when the minimal
            // channel is hosted by the injection router itself — exactly
            // what a real router knows first-hand.
            let (min_router, min_k) = topo.global_link_from(src_group, dst_group);
            let min_sat = if min_router == view.router {
                let port = view.fab.global_out(min_k);
                let occ: f64 = (0..view.fab.cfg().vcs_global)
                    .map(|vc| view.occupancy(port, vc))
                    .sum::<f64>()
                    / view.fab.cfg().vcs_global as f64;
                occ > self.pb.saturation_threshold
            } else {
                self.saturated(topo, src_group, dst_group)
            };
            if min_sat && !self.saturated(topo, src_group, inter) {
                pkt.intermediate = Some(inter);
            }
        }
        injection_vc(self.vcs_injection, pkt)
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "an occupancy fraction in [0, 1]; f32 is the precision of the broadcast table and of its snapshot"
    )]
    fn end_cycle(&mut self, net: &NetSnapshot<'_>) {
        if !net.now.is_multiple_of(self.pb.update_period) {
            return;
        }
        for r in 0..self.visible.len() / self.h {
            for k in 0..self.h {
                self.visible[r * self.h + k] =
                    net.global_out_occupancy(RouterId::from(r), k) as f32;
            }
        }
    }
}

crate::probe::impl_enumerable_via_probe!(PbPolicy);

impl PbPolicy {
    /// Checkpoint hook: PB carries real cross-cycle state — the
    /// broadcast-visible occupancy table updated every cycle by
    /// `end_cycle` — plus its tie-break lane table. Both must round-trip
    /// for a restored run to take bit-identical decisions.
    pub(crate) fn save_state(&self, e: &mut Enc) {
        let Self {
            // Config-derived: the constructor rebuilds them from SimConfig.
            ladder: _,
            vcs_injection: _,
            groups: _,
            h: _,
            pb: _,
            visible,
            lanes,
            // Probe telemetry: deliberately reset on restore.
            probe: _,
        } = self;
        lanes.save(e);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "one entry per global channel of a network whose router ids are u32"
        )]
        e.u32(visible.len() as u32);
        for &v in visible {
            e.u32(v.to_bits());
        }
    }

    /// Restore the state captured by [`PbPolicy::save_state`]. Fails
    /// closed: `self` is untouched unless the whole frame decodes.
    pub(crate) fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), String> {
        let table = named("PB", "visibility table");
        let lanes = self.lanes.decoded(d, "PB")?;
        let n = d.u32().map_err(&table)? as usize;
        if n != self.visible.len() {
            return Err(format!(
                "PB: visibility table has {n} entries, this network needs {}",
                self.visible.len()
            ));
        }
        let mut visible = Vec::with_capacity(n);
        for _ in 0..n {
            visible.push(f32::from_bits(d.u32().map_err(&table)?));
        }
        finish(d, "PB")?;
        self.lanes = lanes;
        self.visible = visible;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofar_engine::Network;
    use ofar_topology::NodeId;

    #[test]
    fn pb_routes_minimally_when_uncongested() {
        let cfg = SimConfig::paper(2);
        let mut net = Network::new(cfg, PbPolicy::new(&cfg, 3));
        let last = NodeId::from(net.num_nodes() - 1);
        net.generate(NodeId::new(0), last);
        net.run(500);
        assert_eq!(net.stats().delivered_packets, 1);
        assert!(net.stats().hop_sum <= 3, "uncongested PB must go minimal");
    }

    #[test]
    fn pb_diverts_under_adversarial_pressure() {
        // The full ADV+1 pattern (every group sends to the next): each
        // group's single minimal global channel saturates — and, because
        // every destination-group entry router is also contended by the
        // other flows, the backlog becomes visible in the channel
        // occupancy PB broadcasts. PB must start choosing Valiant paths.
        let cfg = SimConfig::paper(2);
        let mut net = Network::new(cfg, PbPolicy::new(&cfg, 3));
        let per_group = cfg.params.a * cfg.params.p;
        let groups = cfg.params.groups();
        let nodes = net.num_nodes();
        for cycle in 0..6000u64 {
            if cycle % 8 == 0 {
                for n in 0..nodes {
                    let g = n / per_group;
                    let dst = ((g + 1) % groups) * per_group + (n + cycle as usize) % per_group;
                    net.generate(NodeId::from(n), NodeId::from(dst));
                }
            }
            net.step();
        }
        // some deliveries took more than 3 hops → Valiant paths used
        let s = net.stats();
        assert!(s.delivered_packets > 1000);
        assert!(
            s.avg_hops() > 3.01,
            "PB never diverted (avg hops {})",
            s.avg_hops()
        );
    }
}
