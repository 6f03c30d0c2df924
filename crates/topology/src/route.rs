//! Minimal-path routing primitives.
//!
//! A minimal Dragonfly route is at most `l − g − l` (§I): a local hop to
//! the router hosting the global link towards the destination group, the
//! global hop, and a local hop inside the destination group. These helpers
//! compute the *next* minimal hop from any router, which is all both the
//! table-free baseline routings and OFAR's per-cycle re-evaluation need.

use crate::dragonfly::Dragonfly;
use crate::ids::{GroupId, NodeId, RouterId};

/// The next hop of a minimal route, expressed as a port class of the
/// current router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MinimalHop {
    /// The destination node is attached to the current router; deliver it
    /// through ejection port `node`.
    Eject {
        /// Node index within the router (`0 .. p`).
        node: usize,
    },
    /// Take local port `port` (`0 .. a − 1`).
    Local {
        /// Local port index.
        port: usize,
    },
    /// Take global port `port` (`0 .. h`).
    Global {
        /// Global port index.
        port: usize,
    },
}

/// Where a packet currently is relative to its (possibly Valiant) route.
/// Routing mechanisms use this to decide which misroute classes §IV-A
/// allows at this point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutePhase {
    /// In the source group (global misrouting still possible).
    SourceGroup,
    /// In an intermediate group (only local misrouting possible).
    IntermediateGroup,
    /// In the destination group (only local misrouting possible).
    DestinationGroup,
}

impl Dragonfly {
    /// Next minimal hop from router `current` towards node `dst`.
    #[inline]
    pub fn minimal_hop_to_node(&self, current: RouterId, dst: NodeId) -> MinimalHop {
        let dst_router = self.router_of_node(dst);
        if current == dst_router {
            return MinimalHop::Eject {
                node: self.node_index(dst),
            };
        }
        self.minimal_hop_to_router(current, dst_router)
    }

    /// Next minimal hop from router `current` towards router `dst`
    /// (`current != dst`).
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "hop_toward_group is total for distinct groups in a connected dragonfly"
    )]
    pub fn minimal_hop_to_router(&self, current: RouterId, dst: RouterId) -> MinimalHop {
        debug_assert_ne!(current, dst);
        let gc = self.group_of(current);
        let gd = self.group_of(dst);
        if gc == gd {
            return MinimalHop::Local {
                port: self.local_port_to(current, dst),
            };
        }
        self.hop_toward_group(current, gd)
            .expect("distinct groups must yield a hop")
    }

    /// Next minimal hop from `current` towards *any* router of `group`
    /// (used for the Valiant phase-1 route to an intermediate group).
    /// Returns `None` when the router is already in `group`.
    #[inline]
    pub fn hop_toward_group(&self, current: RouterId, group: GroupId) -> Option<MinimalHop> {
        let gc = self.group_of(current);
        if gc == group {
            return None;
        }
        let (exit, gport) = self.global_link_from(gc, group);
        Some(if exit == current {
            MinimalHop::Global { port: gport }
        } else {
            MinimalHop::Local {
                port: self.local_port_to(current, exit),
            }
        })
    }

    // ----- dead-link-aware variants (§VII degraded routing) -------------

    /// Next hop towards node `dst`, avoiding links for which `dead`
    /// returns true. Falls back to a one-router local detour inside a
    /// group when the direct local link is dead (groups are cliques).
    /// Returns `None` when no route towards the destination survives —
    /// the minimal global link is down (an adaptive mechanism must then
    /// divert through another group) or the destination is partitioned.
    pub fn minimal_hop_to_node_avoiding<F>(
        &self,
        current: RouterId,
        dst: NodeId,
        dead: &F,
    ) -> Option<MinimalHop>
    where
        F: Fn(RouterId, RouterId) -> bool,
    {
        let dst_router = self.router_of_node(dst);
        if current == dst_router {
            return Some(MinimalHop::Eject {
                node: self.node_index(dst),
            });
        }
        let gd = self.group_of(dst_router);
        if self.group_of(current) == gd {
            return self.local_hop_avoiding(current, dst_router, dead);
        }
        self.hop_toward_group_avoiding(current, gd, dead)
    }

    /// Next hop towards *any* router of `group` (which must differ from
    /// the current group), avoiding dead links. The Dragonfly has exactly
    /// one global link per group pair, so a dead global link makes the
    /// group minimally unreachable (`None`); a dead local leg towards the
    /// exit router is detoured through a third router of the group.
    pub fn hop_toward_group_avoiding<F>(
        &self,
        current: RouterId,
        group: GroupId,
        dead: &F,
    ) -> Option<MinimalHop>
    where
        F: Fn(RouterId, RouterId) -> bool,
    {
        let gc = self.group_of(current);
        debug_assert_ne!(gc, group, "already in the target group");
        let (exit, gport) = self.global_link_from(gc, group);
        let remote = self.global_neighbor(exit, gport).0;
        if dead(exit, remote) {
            return None;
        }
        if exit == current {
            return Some(MinimalHop::Global { port: gport });
        }
        self.local_hop_avoiding(current, exit, dead)
    }

    /// Next hop from `current` to `to` (same group), avoiding dead local
    /// links: the direct link when alive, otherwise the lowest-index
    /// two-hop detour `current → c → to` with both legs alive.
    fn local_hop_avoiding<F>(&self, current: RouterId, to: RouterId, dead: &F) -> Option<MinimalHop>
    where
        F: Fn(RouterId, RouterId) -> bool,
    {
        debug_assert_eq!(self.group_of(current), self.group_of(to));
        debug_assert_ne!(current, to);
        if !dead(current, to) {
            return Some(MinimalHop::Local {
                port: self.local_port_to(current, to),
            });
        }
        let g = self.group_of(current);
        (0..self.params().a)
            .map(|i| self.router_at(g, i))
            .find(|&c| c != current && c != to && !dead(current, c) && !dead(c, to))
            .map(|c| MinimalHop::Local {
                port: self.local_port_to(current, c),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk minimal hops from `src` until ejection, returning the hop
    /// sequence (for invariant checks).
    fn walk_minimal(topo: &Dragonfly, src: RouterId, dst: NodeId) -> Vec<MinimalHop> {
        let mut hops = Vec::new();
        let mut cur = src;
        loop {
            let hop = topo.minimal_hop_to_node(cur, dst);
            hops.push(hop);
            match hop {
                MinimalHop::Eject { node } => {
                    assert_eq!(
                        topo.first_node_of(cur).idx() + node,
                        dst.idx(),
                        "ejected at the wrong node"
                    );
                    return hops;
                }
                MinimalHop::Local { port } => cur = topo.local_neighbor(cur, port),
                MinimalHop::Global { port } => cur = topo.global_neighbor(cur, port).0,
            }
            assert!(hops.len() <= 4, "minimal route exceeded diameter");
        }
    }

    #[test]
    fn minimal_routes_terminate_within_diameter() {
        let topo = Dragonfly::balanced(2);
        for s in 0..topo.num_routers() {
            for d in 0..topo.num_nodes() {
                let hops = walk_minimal(&topo, RouterId::from(s), NodeId::from(d));
                // ≤ 3 link hops + the ejection pseudo-hop.
                assert!(hops.len() <= 4);
                let links = hops.len() - 1;
                assert_eq!(
                    links,
                    topo.min_router_hops(RouterId::from(s), topo.router_of_node(NodeId::from(d)))
                );
            }
        }
    }

    #[test]
    fn minimal_route_shape_is_l_g_l() {
        // Hops must follow the l? g? l? pattern: never two locals in a row,
        // never a local before a global after entering the remote group.
        let topo = Dragonfly::balanced(3);
        for s in (0..topo.num_routers()).step_by(7) {
            for d in (0..topo.num_nodes()).step_by(11) {
                let hops = walk_minimal(&topo, RouterId::from(s), NodeId::from(d));
                let classes: Vec<u8> = hops
                    .iter()
                    .filter_map(|h| match h {
                        MinimalHop::Local { .. } => Some(0),
                        MinimalHop::Global { .. } => Some(1),
                        MinimalHop::Eject { .. } => None,
                    })
                    .collect();
                let ok = matches!(
                    classes.as_slice(),
                    [] | [0] | [1] | [0, 1] | [1, 0] | [0, 1, 0]
                );
                assert!(ok, "unexpected minimal hop shape {classes:?}");
            }
        }
    }

    #[test]
    fn avoiding_variant_matches_minimal_when_healthy() {
        let topo = Dragonfly::balanced(2);
        let alive = |_: RouterId, _: RouterId| false;
        for s in 0..topo.num_routers() {
            for d in 0..topo.num_nodes() {
                let cur = RouterId::from(s);
                let dst = NodeId::from(d);
                assert_eq!(
                    topo.minimal_hop_to_node_avoiding(cur, dst, &alive),
                    Some(topo.minimal_hop_to_node(cur, dst)),
                );
            }
        }
    }

    #[test]
    fn dead_local_link_detours_within_the_group() {
        let topo = Dragonfly::balanced(2);
        let a = RouterId::new(0);
        let b = topo.local_neighbor(a, 0);
        let dst = topo.first_node_of(b);
        let dead = move |x: RouterId, y: RouterId| (x, y) == (a, b) || (x, y) == (b, a);
        let hop = topo
            .minimal_hop_to_node_avoiding(a, dst, &dead)
            .expect("clique detour must exist");
        match hop {
            MinimalHop::Local { port } => {
                let c = topo.local_neighbor(a, port);
                assert_ne!(c, b, "must not take the dead link");
                assert_eq!(topo.group_of(c), topo.group_of(a));
            }
            other => panic!("expected a local detour, got {other:?}"),
        }
    }

    #[test]
    fn dead_global_link_severs_minimal_reachability() {
        let topo = Dragonfly::balanced(2);
        let link = topo.global_links().next().unwrap();
        let (src, dst) = (link.src, link.dst);
        let dead = move |x: RouterId, y: RouterId| (x, y) == (src, dst) || (x, y) == (dst, src);
        // From the exit router itself, the target group is minimally
        // unreachable once its one global link is dead.
        let gd = topo.group_of(dst);
        assert_eq!(topo.hop_toward_group_avoiding(src, gd, &dead), None);
        assert_eq!(
            topo.minimal_hop_to_node_avoiding(src, topo.first_node_of(dst), &dead),
            None
        );
    }

    #[test]
    fn hop_toward_group_reaches_group_in_two() {
        let topo = Dragonfly::balanced(4);
        for s in (0..topo.num_routers()).step_by(5) {
            for g in 0..topo.num_groups() {
                let mut cur = RouterId::from(s);
                let mut steps = 0;
                while let Some(hop) = topo.hop_toward_group(cur, GroupId::from(g)) {
                    cur = match hop {
                        MinimalHop::Local { port } => topo.local_neighbor(cur, port),
                        MinimalHop::Global { port } => topo.global_neighbor(cur, port).0,
                        MinimalHop::Eject { .. } => unreachable!(),
                    };
                    steps += 1;
                    assert!(steps <= 2, "group reach must be ≤ 2 hops (l·g)");
                }
                assert_eq!(topo.group_of(cur).idx(), g);
            }
        }
    }
}
