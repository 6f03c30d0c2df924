//! Stall and partition diagnosis: what a watchdog reports when a run
//! stops making progress.

use super::Network;
use crate::hooks::Hooks;
use crate::packet::Packet;
use crate::policy::Policy;
use ofar_topology::{NodeId, RouterId};

impl<P: Policy, H: Hooks> Network<P, H> {
    /// Routers holding buffered packets that have not granted anything
    /// for at least `window` cycles — the candidates a stall diagnosis
    /// reports.
    pub fn stalled_routers(&self, window: u64) -> Vec<RouterId> {
        let horizon = self.now.saturating_sub(window);
        self.occ
            .port_mask
            .iter()
            .enumerate()
            .filter(|(r, &ports)| ports != 0 && self.router_last_grant[*r] < horizon)
            .map(|(r, _)| RouterId::from(r))
            .collect()
    }

    /// Source/destination node pairs of undelivered packets whose
    /// destination router is unreachable from the packet's current
    /// position over the surviving links — the *partition* diagnosis.
    /// Empty on a connected network. Pairs are deduplicated and sorted.
    pub fn unreachable_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let comp = self.router_components();
        let topo = self.fab.topo();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        let mut check = |at: RouterId, pkt: &Packet| {
            if comp[at.idx()] != comp[topo.router_of_node(pkt.dst).idx()] {
                pairs.push((pkt.src, pkt.dst));
            }
        };
        for node in 0..self.num_nodes() {
            let at = topo.router_of_node(NodeId::from(node));
            for pkt in self.src_q.iter(node) {
                check(at, &pkt);
            }
        }
        for ridx in 0..self.fab.topo().num_routers() {
            let at = RouterId::from(ridx);
            for slot in self.fab.router_slots(at) {
                for pkt in self.arena.fifos.iter(slot) {
                    check(at, &pkt);
                }
            }
        }
        // In-flight packets land at their link's far end regardless of
        // faults, so they are judged from there.
        for (_, a) in self.wheel.arrivals() {
            check(RouterId::new(a.router), &a.pkt);
        }
        pairs.sort();
        pairs.dedup();
        pairs
    }

    /// Connected components of the router graph over surviving links.
    fn router_components(&self) -> Vec<u32> {
        let topo = self.fab.topo();
        let nr = topo.num_routers();
        let (a, h) = (self.fab.cfg().params.a, self.fab.cfg().params.h);
        let mut comp = vec![u32::MAX; nr];
        let mut stack = Vec::new();
        let mut next = 0u32;
        for start in 0..nr {
            if comp[start] != u32::MAX {
                continue;
            }
            comp[start] = next;
            stack.push(RouterId::from(start));
            while let Some(r) = stack.pop() {
                for j in 0..a - 1 + h {
                    let n = if j < a - 1 {
                        topo.local_neighbor(r, j)
                    } else {
                        topo.global_neighbor(r, j - (a - 1)).0
                    };
                    if comp[n.idx()] == u32::MAX && self.faults.topo_link_up(r, n) {
                        comp[n.idx()] = next;
                        stack.push(n);
                    }
                }
            }
            next += 1;
        }
        comp
    }
}
