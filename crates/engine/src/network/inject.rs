//! The `inject` phase: source-queue heads into injection buffers, node
//! by node.

use super::cm_sense::CM_TOKEN_SCALE;
use super::Network;
use crate::audit::AuditViolation;
use crate::hooks::Hooks;
use crate::policy::{Policy, RouterView};
use ofar_topology::NodeId;

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Phase 2: move source-queue heads into injection buffers
    /// (1 phit/cycle per node).
    ///
    /// With CM enabled this is also the throttle point: a head packet
    /// only moves when its NIC bucket (sensed and refilled by the
    /// preceding `cm_sense` commit phase) holds a packet's worth of
    /// tokens. Throttling delays `on_inject` only — packets already in
    /// the fabric are never slowed, so the CDG certificate is untouched.
    pub(super) fn inject(&mut self, now: u64) {
        // The set bits in ascending order are the nodes a full scan
        // would not have skipped as empty.
        for w in 0..self.occ.src_pending.len() {
            let mut bits = self.occ.src_pending[w];
            while bits != 0 {
                let node = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.inject_node(node, now);
            }
        }
    }

    /// [`Self::inject`] for one node whose source queue is non-empty.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "node index and packet size bounded by fabric dimensions"
    )]
    fn inject_node(&mut self, node: usize, now: u64) {
        if self.inj_busy[node] > now {
            return;
        }
        let size = self.fab.cfg().packet_size as u32;
        let need = size * CM_TOKEN_SCALE;
        if let Some(cm) = self.cm.as_ref() {
            if cm.tokens[node] < need && !self.hooks.bypass_throttle() {
                self.stats.cm_throttle_deferrals += 1;
                return;
            }
        }
        let router = self.fab.topo().router_of_node(NodeId::from(node));
        let port = self
            .fab
            .inj_in(self.fab.topo().node_index(NodeId::from(node)));
        let view = RouterView::new(
            &self.fab,
            router,
            now,
            &self.arena.out_busy[router.idx() * self.fab.n_out()..][..self.fab.n_out()],
            &self.arena.credits[self.fab.router_lanes(router)],
            &self.faults,
        );
        let vc = self.policy.on_inject(&view, self.src_q.head_mut(node));
        // An out-of-range pick would index past the injection buffer,
        // so a recording hook skips the injection as well.
        let vcs = self.fab.in_desc(router, port).vcs as usize;
        if !self.hooks.check(
            || vc < vcs,
            || AuditViolation::InjectionVcRange {
                cycle: now,
                node: node as u32,
                vc,
                vcs,
            },
        ) {
            return;
        }
        let fifos = &mut self.arena.fifos;
        let capacity = self.fab.slot_caps()[self.fab.in_slot(router, port, vc)];
        if fifos.fits(self.fab.in_slot(router, port, vc), capacity) {
            let pkt = self.src_q.pop(node);
            if self.src_q.queued()[node] == 0 {
                self.occ.src_pending[node / 64] &= !(1 << (node % 64));
            }
            fifos.push(self.fab.in_slot(router, port, vc), pkt, capacity);
            self.occ.port_pkts[router.idx() * self.fab.n_in() + port] += 1;
            self.occ.port_mask[router.idx()] |= 1 << port;
            self.inj_busy[node] = now + u64::from(size);
            self.stats.injected_packets += 1;
            if let Some(cm) = self.cm.as_mut() {
                // `saturating_sub` + full-price accounting: the gate
                // above guarantees `tokens >= need`, so the two agree —
                // unless the `ThrottleBypass` mutation skipped the gate,
                // in which case granted − consumed drifts below the
                // summed levels and `ThrottleTokenLaw` fires.
                cm.tokens[node] = cm.tokens[node].saturating_sub(need);
                self.stats.cm_tokens_consumed += u64::from(need);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::network::Network;
    use crate::packet::{Packet, Request};
    use crate::policy::{InputCtx, Policy, RouterView};
    use ofar_topology::NodeId;

    /// Never consulted: the test below only parks packets.
    struct Parked;

    impl Policy for Parked {
        fn name(&self) -> &'static str {
            "parked"
        }

        fn route(&mut self, _: &RouterView<'_>, _: InputCtx, _: &mut Packet) -> Option<Request> {
            None
        }

        fn on_inject(&mut self, _: &RouterView<'_>, _: &mut Packet) -> usize {
            0
        }
    }

    /// A closed ADV+1 burst at h=2, parked as the burst runner parks it
    /// (a round of one packet per node, node order, 350 rounds): each
    /// tail is 4 bytes (id delta 72, cycle delta 0, destination below
    /// 128), so the pool, chunk rounding included, holds under 5 bytes
    /// per parked tail where a stored packet took 20.
    #[test]
    fn a_parked_burst_costs_under_five_bytes_a_tail() {
        let mut net = Network::new(SimConfig::paper(2), Parked);
        let topo = *net.fab.topo();
        let (nodes, groups) = (topo.num_nodes(), topo.num_groups());
        let per_group = nodes / groups;
        let mut x = 1u32;
        for _ in 0..350 {
            for src in 0..nodes {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                let g = (src / per_group + 1) % groups;
                let dst = g * per_group + (x >> 16) as usize % per_group;
                net.generate(NodeId::from(src), NodeId::from(dst));
            }
        }
        let tails = nodes * 349;
        let bytes = net.src_q.pool_bytes();
        assert!(
            bytes < tails * 5,
            "{bytes} B for {tails} tails: {:.2} B each",
            bytes as f64 / tails as f64
        );
        for n in 0..nodes {
            let queue: Vec<Packet> = net.src_q.iter(n).collect();
            assert_eq!(queue.len(), 350);
            assert_eq!((queue[0].id, queue[0].src), (n as u64, NodeId::from(n)));
            assert_eq!(queue[349].id, (349 * nodes + n) as u64);
        }
    }
}
